"""Run one ``obsprune`` CLI invocation with a span around every public call.

Usage: python3 traced.py SPANS_JSON CLI_ARG...

Every public module-level function of the package's modules is replaced,
under each name a module holds it by, with one timing wrapper per
function object. Modules import each other's functions by name
(``from .fisher import build_fisher_inverse``), so patching only the
defining module would miss those callers; one wrapper per function object
keeps a function reached under two names from being counted twice.

Each call records (function, start, end, parent span, RSS high-water mark
in KiB at the end of the span). Spans stay in memory and are written to
SPANS_JSON when the invocation ends. Spans assume one thread, which holds
at the CLI's default ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
import types

LAYERS = ("cli", "tensorstore", "fisher", "solver", "pruners", "pipeline",
          "obs_core", "schedules", "oracle")
# calls whose first argument is the flat weight vector the solver works on
_SIZED = {"solver.solve_global", "solver.solve_nm"}


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, label: str):
        label_id = len(self.labels)
        self.labels.append(label)
        sized = label in _SIZED
        spans, stack = self.spans, self._stack
        clock, rusage, who = time.perf_counter, resource.getrusage, resource.RUSAGE_SELF

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [label_id, 0.0, 0.0, stack[-1] if stack else -1, 0,
                    len(args[0]) if sized else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[4] = rusage(who).ru_maxrss

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"obsprune.{name}") for name in LAYERS}
        owners = {f"obsprune.{name}": name for name in LAYERS}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in owners):
                    continue
                if id(obj) not in wrappers:
                    label = f"{owners[obj.__module__]}.{obj.__name__}"
                    wrappers[id(obj)] = self.wrap(obj, label)
                setattr(mod, attr, wrappers[id(obj)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["obsprune.cli"]
    try:
        return int(cli.main(cli_args))
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
