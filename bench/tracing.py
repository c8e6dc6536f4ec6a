"""Span tracing of gridcast's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules with a
timing wrapper, in the defining module and in every other gridcast module
that imported it by name (such as signal's `contains`), so calls between
modules are seen too. Spans are aggregated in memory per (function, caller),
where the caller is the innermost traced function on the stack, so a million
`contains` calls make one record, not a million. Self time is a span's
duration minus the time its traced children took.

A generator function's span covers only the creation of the generator; the
iteration is charged to whoever consumes it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType

LAYERS = ("cli", "parsing", "core", "signal", "verifier", "search", "halfsquares", "finite", "render")


class Tracer:
    def __init__(self) -> None:
        # (function, caller) -> [calls, total seconds, seconds in traced children]
        self.spans: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []  # open spans: [name, seconds in traced children]
        self._patches: list[tuple[ModuleType, str, object]] = []
        self.traced_names: set[str] = set()

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller = None
                if stack:
                    stack[-1][1] += elapsed
                    caller = stack[-1][0]
                record = spans.get((name, caller))
                if record is None:
                    record = spans[(name, caller)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "gridcast" or n.startswith("gridcast.")]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"gridcast.{layer}"]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if not attr.startswith("_") and fn.__module__ == module.__name__:
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
                    self.traced_names.add(f"{layer}.{attr}")
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def per_function(self) -> dict[str, tuple[int, float]]:
        """function name -> (calls, self seconds), summed over callers."""
        out: dict[str, tuple[int, float]] = {}
        for (name, _caller), (calls, total, child) in self.spans.items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + total - child)
        return out

    def records(self) -> list[dict]:
        return [
            {"function": name, "caller": caller, "calls": calls, "total_s": total, "self_s": total - child}
            for (name, caller), (calls, total, child) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]
