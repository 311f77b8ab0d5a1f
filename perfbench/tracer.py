"""Run one ``hilbfock`` CLI job with a span around every public function.

    python3 perfbench/tracer.py SPANS_PATH ARGV...

Wrappers are installed at every import site: ``closedform``,
``localisation``, ``verification`` and the package itself bind names
such as ``compose`` and ``z_closed`` with ``from .series import ...``,
so replacing only the defining module's attribute would miss their
calls.  Spans stay in memory and are written to SPANS_PATH once, after
the job, as ``{"names": [...], "spans": [[name, start, end, parent]]}``
with ``parent`` the index of the enclosing span or -1.  The job's
stdout, stderr and exit code are those of the untraced CLI.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# Layers whose public functions are wrapped.  ``rings`` is measured from
# the job outputs instead: its scalar operations are too fine-grained
# to wrap without swamping the other layers.
LAYERS = ("cli", "closedform", "localisation", "series", "partitions", "symfun", "verification")
METHODS = {"series": {"Series1": ("__mul__",), "Series2": ("__mul__", "__add__")}}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, function):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Replace each public function, and the listed methods, everywhere it is bound."""
    modules = {layer: importlib.import_module(f"hilbfock.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attribute, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attribute.startswith("_")
            ):
                wrapped[id(value)] = recorder.wrap(f"{layer}.{attribute}", value)
        for class_name, methods in METHODS.get(layer, {}).items():
            owner = getattr(module, class_name)
            for method in methods:
                label = f"{layer}.{class_name}.{method.strip('_')}"
                setattr(owner, method, recorder.wrap(label, getattr(owner, method)))
    for module_name, module in list(sys.modules.items()):
        if module_name == "hilbfock" or module_name.startswith("hilbfock."):
            for attribute, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attribute, wrapped[id(value)])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules["hilbfock.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
