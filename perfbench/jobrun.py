"""Running one ``hilbfock`` CLI job and checking what it printed."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
JOB_TIMEOUT_S = 60.0

_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (\S+)\s+(\d+\.\d+)s$")


def job_env() -> dict[str, str]:
    """The environment every job runs in.

    Every ``PYTHON*`` variable of the caller is dropped, so that bytecode
    caching and buffering are the interpreter's defaults on every machine.
    ``HILBFOCK_THREADS`` is removed so that every commit runs the serial
    path, and the hash seed is pinned so that call counts repeat.
    """
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    env.pop("HILBFOCK_THREADS", None)
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "hilbfock.cli", *argv]


@dataclass(frozen=True)
class JobResult:
    argv: tuple[str, ...]
    seconds: float
    returncode: int
    stdout: str
    stderr: str


def run_command(command: list[str], argv, env: dict[str, str]) -> JobResult:
    """Run one process to completion and time it from spawn to exit."""
    start = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        stdout, stderr = process.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        stdout, stderr = process.communicate()
        stderr += f"\nkilled after {JOB_TIMEOUT_S:.0f} s"
    seconds = time.perf_counter() - start
    return JobResult(tuple(argv), seconds, process.returncode, stdout, stderr)


def normalise(stdout: str) -> str:
    """Drop the wall times that ``verify`` prints; keep everything else."""
    lines = []
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        lines.append(f"{match.group(1)}  {match.group(2)}" if match else line)
    return "\n".join(lines)


def digest(stdout: str) -> str:
    return hashlib.sha256(normalise(stdout).encode()).hexdigest()[:16]


def job_key(argv) -> str:
    return " ".join(argv)


def failure(result: JobResult, reference: dict[str, str]) -> str:
    """Why a job counts as failed, or an empty string if it is correct."""
    if result.returncode != 0:
        return f"exit code {result.returncode}: {result.stderr.strip()[-200:]}"
    if any(line.startswith("FAIL") for line in result.stdout.splitlines()):
        return "verify reported FAIL"
    expected = reference.get(job_key(result.argv))
    if expected is None:
        return "no reference digest for this job"
    if digest(result.stdout) != expected:
        return "output differs from the reference"
    return ""


def check_seconds(stdout: str) -> dict[str, float]:
    """Per-check wall times printed by ``verify``."""
    found = {}
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            found[match.group(2)] = float(match.group(3))
    return found


def emitted_values(argv, stdout: str) -> list[str]:
    """The exact coefficients a ``table`` or ``equivariant`` job printed.

    Output that does not parse gives none; the digest check fails it.
    """
    if argv[0] == "verify":
        return []
    try:
        if "json" in argv:
            payload = json.loads(stdout)
            if argv[0] == "table":
                return list(payload["a_k"]) + [entry["value"] for entry in payload["a_kl"]]
            return [entry["value"] for entry in payload["entries"]]
        return [row.rsplit(",", 1)[1] for row in stdout.splitlines()[1:]]
    except (ValueError, KeyError, IndexError, TypeError):
        return []


def height_bits(value: str) -> int:
    """Bit length of numerator plus bit length of denominator (0 if unparsable)."""
    try:
        number = Fraction(value)
    except (ValueError, ZeroDivisionError):
        return 0
    return abs(number.numerator).bit_length() + number.denominator.bit_length()
