"""The ``verify`` job of the benchmark's traced test still reaches every
function that a per-layer metric names.

The benchmark's traced test runs four small CLI jobs under a tracer and
requires every per-layer metric of ``BENCHMARK.json`` to appear, so a
function that stops being called (a kernel moved to numerators, a
helper inlined) fails it.  ``verify --class chern-total --order 8``
reaches all of them, the equivariant entry point through the
fixed-point reduction check.  This test runs that job in process with
a counting wrapper wherever the package binds each named function, so
the tier-1 suite catches such a change too, and names the functions
that were not called.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

from hilbfock import cli

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
ARGV = ["verify", "--class", "chern-total", "--order", "8"]


def _metric_names() -> list[str]:
    return [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]


def _traced_functions() -> set[str]:
    """``layer.function`` and ``layer.Class.method`` of each per-layer metric."""
    names = set()
    for metric in _metric_names():
        for suffix in (".calls", ".self_s", ".s"):
            if metric.endswith(suffix):
                label = metric[: -len(suffix)]
                if "." in label and not label.startswith("verification.check."):
                    names.add(label)
                break
    return names


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "hilbfock" or name.startswith("hilbfock.")]


def test_the_verify_job_reaches_every_traced_function(monkeypatch, capsys):
    counts = Counter()

    def counting(label, function):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return function(*args, **kwargs)

        return wrapper

    labels = sorted(_traced_functions())
    for label in labels:
        layer, *rest = label.split(".")
        module = importlib.import_module(f"hilbfock.{layer}")
        if len(rest) == 2:
            owner, method = getattr(module, rest[0]), f"__{rest[1]}__"
            monkeypatch.setattr(owner, method, counting(label, getattr(owner, method)))
            continue
        function = getattr(module, rest[0])
        for bound in _package_modules():
            for attribute, value in list(vars(bound).items()):
                if value is function:
                    monkeypatch.setattr(bound, attribute, counting(label, function))
    # A fresh process starts with empty caches: a cached diagram or log
    # would hide the calls behind it.
    for module in _package_modules():
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    assert cli.main(ARGV) == 0
    out = capsys.readouterr().out
    assert [label for label in labels if not counts[label]] == []
    checks = {m.split(".")[2] for m in _metric_names() if m.startswith("verification.check.")}
    printed = {line.split()[1] for line in out.splitlines() if line.startswith("PASS")}
    assert checks <= printed
