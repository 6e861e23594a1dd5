"""Spans around the calls between roadworks modules, recorded from outside.

`Tracer.install()` replaces, in each roadworks module, every binding of a
public function defined in another module (``roadworks.scheduler.solve_with``,
``roadworks.cli.compute_deltas``, ...) with a wrapper that records a span, and
does the same for the package-level names the benchmark itself calls.  A few
calls inside one module are wrapped as well because the layer metrics count
them: the leaf evaluations of the two branch-and-bound searches and
``roadworks.cli.main``.  ``FileDeltaCache`` construction is wrapped through
the class.  Private helpers are left alone.

A span is (name, start, end, parent, thread, note).  The parent is the
innermost open span of the same thread, or, for a span opened by a worker
thread of the program, the innermost open span of the main thread.  Spans stay
in memory until `write()`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
import types

# Same-module calls that the layer metrics count.
_SAME_MODULE = {
    ("roadworks.portfolio", "evaluate_selection"),
    ("roadworks.scheduler", "schedule_npv"),
    ("roadworks.interaction", "compute_locations"),
}
_MODULES = (
    "roadworks",
    "roadworks.network",
    "roadworks.shortest_path",
    "roadworks.equilibrium",
    "roadworks.scenario",
    "roadworks.interaction",
    "roadworks.portfolio",
    "roadworks.scheduler",
    "roadworks.cli",
)


def _note(name: str, result):
    """What a span keeps of its result: iterations of a solve, fresh solves of a delta table."""
    if name.endswith(".solve_with"):
        return result.iterations
    if name.endswith(".compute_deltas"):
        return result.tap_solves
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, thread id, note]
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident(), None])
        stack.append(index)
        return index

    def _close(self, index: int, note=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = note
        self._stack().pop()

    def wrap(self, func):
        if func in self._wrappers:
            return self._wrappers[func]
        name = f"{func.__module__}.{func.__qualname__}"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                self._close(index, _note(name, result) if result is not None else None)

        self._wrappers[func] = wrapper
        return wrapper

    def install(self) -> None:
        import importlib

        for modname in _MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("roadworks."):
                    continue
                crosses = value.__module__ != modname
                if crosses or (modname, attr) in _SAME_MODULE or (modname, attr) == ("roadworks.cli", "main"):
                    self._patch(module, attr, self.wrap(value))
        scenario = importlib.import_module("roadworks.scenario")
        self._patch(scenario.FileDeltaCache, "__init__", self.wrap(scenario.FileDeltaCache.__init__))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, thread, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "thread": thread, "note": note}) + "\n")


# ---------------------------------------------------------------------------
# Reduction


def layer_of(name: str) -> str:
    """'roadworks.scenario.compute_deltas' -> 'scenario'; benchmark spans -> 'bench'."""
    parts = name.split(".")
    return parts[1] if parts[0] == "roadworks" and len(parts) > 2 else parts[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """Per layer: (span count, summed self time in seconds)."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(layer_of(span[0]), [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {layer: (n, s) for layer, (n, s) in sorted(totals.items())}
