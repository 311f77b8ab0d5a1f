"""The command line's exit path.

``python -m hilbfock.cli`` and the installed ``hilbfock`` script end
through ``cli.run``, which flushes both streams and leaves with
``os._exit``, skipping the interpreter's teardown.  Each case here runs
a fresh interpreter and checks that the bytes and exit codes are those
of ``main()``, and that teardown is skipped only after a clean flush.
The children get no ``PYTHON*`` variable but ``PYTHONPATH``, so their
stdout is block-buffered, as on a default interpreter, and the final
flush has work to do.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hilbfock import cli

SOURCE = Path(cli.__file__).resolve().parents[1]
# The exit code of ``sys.exit(main())`` when the interpreter's final
# flush finds the reader gone; it also prints "Exception ignored in:
# <_io.TextIOWrapper name='<stdout>' ...>" and the BrokenPipeError.
BROKEN_PIPE_CODE = 120
ATEXIT_SCRIPT = (
    "import atexit, sys\n"
    "from hilbfock import cli\n"
    "atexit.register(lambda: sys.stderr.write('teardown ran\\n'))\n"
)


def _env() -> dict[str, str]:
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SOURCE)
    env["COLUMNS"] = "80"
    return env


def _child(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=_env(), timeout=120
    )


def _module(*argv: str) -> subprocess.CompletedProcess:
    return _child("-m", "hilbfock.cli", *argv)


def _to_closed_reader(*args: str) -> subprocess.CompletedProcess:
    """A child whose stdout is a pipe that no one reads any more."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _child(*args, stdout=write_end)
    finally:
        os.close(write_end)


def _in_process(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.mark.parametrize(
    "argv, code",
    [
        (("table", "--class", "todd", "--max-degree", "8", "--format", "csv"), 0),
        (("--version",), 0),
        (("--help",), 0),
        (("table", "--class", "tod"), 2),
        (("verify", "--class", "todd", "--order", "99"), 3),
    ],
)
def test_the_module_prints_what_main_prints(argv, code, capsys, monkeypatch):
    result = _module(*argv)
    assert (result.returncode, result.stdout, result.stderr) == _in_process(argv, capsys, monkeypatch)
    assert result.returncode == code


def test_the_console_script_is_run():
    # the entry point that ``pip install`` writes the ``hilbfock`` script from
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["hilbfock"]
    module, _, name = entry.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_a_failing_verify_exits_1_through_run():
    script = (
        "import sys\n"
        "from hilbfock import cli, verification\n"
        "hook_coefficient = verification.hook_coefficient\n"
        "verification.hook_coefficient = lambda f, pair: hook_coefficient(f, pair) + 1\n"
        "sys.argv[1:] = ['verify', '--class', 'todd', '--order', '8']\n"
        "cli.run()\n"
    )
    result = _child("-c", script)
    assert result.returncode == 1, result.stderr
    lines = result.stdout.decode().splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == ["fixed-point-reduction"]
    assert lines[-1] == "6/7 checks passed (class todd, order 8)"
    assert result.stderr == b""


def test_a_large_output_arrives_whole_through_a_pipe(capsys, monkeypatch):
    argv = ("table", "--class", "todd", "--max-degree", str(cli.MAX_TABLE_DEGREE), "--format", "json")
    result = _module(*argv)
    code, out, err = _in_process(argv, capsys, monkeypatch)
    assert len(out) > 1 << 16  # several times a Linux pipe's default buffer
    assert (result.returncode, result.stderr) == (code, err) == (0, b"")
    assert result.stdout == out


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--version",), BROKEN_PIPE_CODE),
        (("table", "--class", "todd", "--max-degree", "6", "--format", "json"), BROKEN_PIPE_CODE),
        (("table", "--class", "tod"), 2),
    ],
)
def test_a_closed_reader_is_reported_as_sys_exit_reports_it(argv, code):
    today = _to_closed_reader(
        "-c", f"import sys\nfrom hilbfock.cli import main\nsys.exit(main({list(argv)!r}))\n"
    )
    result = _to_closed_reader("-m", "hilbfock.cli", *argv)
    assert result.returncode == today.returncode == code
    assert result.stderr == today.stderr != b""


def test_teardown_is_skipped_only_after_a_clean_flush():
    version = ATEXIT_SCRIPT + "sys.argv[1:] = ['--version']\ncli.run()\n"
    clean = _child("-c", version)
    version_line = f"hilbfock {cli.__version__}\n".encode()
    assert (clean.returncode, clean.stdout, clean.stderr) == (0, version_line, b"")
    failed_flush = _to_closed_reader("-c", version)
    assert failed_flush.returncode == BROKEN_PIPE_CODE
    assert failed_flush.stderr.decode().startswith("teardown ran\n")
    # An exception out of main() is the interpreter's to report, after teardown.
    raising = _child("-c", ATEXIT_SCRIPT + "cli.main = lambda: 1 / 0\ncli.run()\n")
    assert raising.returncode == 1
    last_lines = raising.stderr.decode().splitlines()[-2:]
    assert last_lines == ["ZeroDivisionError: division by zero", "teardown ran"]
