"""Span tracing for the benchmark's traced run, built from the benchmark's own code.

:class:`Tracer` replaces public callables of the simulator (class methods and
module functions) with thin wrappers.  Every call records one span: a name,
a start and an end time (``time.perf_counter``) and the index of the span
that was open when it started (its parent).  Spans live in compact typed
arrays, so a traced run of 10^5 requests (about 1.5M spans) holds a few tens
of megabytes; nothing is written to disk.

:meth:`Tracer.aggregate` folds the spans into per-name totals.  A span's self
time is its duration minus the durations of its child spans, less the
tracer's own cost per span as measured by :meth:`Tracer.calibrate`.  A call nested
directly inside a call of the same name (a wrapping resolution policy
delegating to the policy it wraps, the diurnal envelope calling its base
arrival process) belongs to the outer call: it adds self time but no call.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class SpanStats:
    """Totals of one span name over a traced phase."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    #: Calls counted by the name of the parent span (``"<root>"`` for none).
    calls_by_parent: Counter = field(default_factory=Counter)

    @property
    def us_per_call(self) -> float:
        return 1e6 * self.self_s / self.calls if self.calls else 0.0


class Tracer:
    """Wrap callables, record one span per call, fold spans into self times."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        #: Callables that were asked for but do not exist (reported, not fatal).
        self.missing: list[str] = []
        #: Per span name, how often each argument-derived key was seen
        #: (the backbone records its input shapes here).
        self.observed: dict[str, Counter] = {}
        self._name_of = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        #: Tracer cost per span: seconds a traced call adds to its own self
        #: time and to its parent's (set by :meth:`calibrate`, subtracted by
        #: :meth:`aggregate`).
        self.cost_in_self = 0.0
        self.cost_in_parent = 0.0

    def clear(self) -> None:
        """Drop every recorded span (the wrappers stay installed)."""
        for column in (self._name_of, self._parent, self._start, self._end):
            del column[:]
        self._stack.clear()
        for counts in self.observed.values():
            counts.clear()

    # -- installing wrappers ----------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrapper(
        self,
        original: Callable,
        name: str,
        observe: Callable[..., object] | None,
    ) -> Callable:
        name_id = self._name_id(name)
        name_of, parent, start, end = (
            self._name_of, self._parent, self._start, self._end
        )
        stack = self._stack
        counts = self.observed.setdefault(name, Counter()) if observe else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            if counts is not None:
                counts[observe(*args, **kwargs)] += 1
            stack.append(index)
            begin = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = begin
                stack.pop()

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        observe: Callable[..., object] | None = None,
    ) -> None:
        """Trace ``cls.<attr>`` (only where ``cls`` itself defines it)."""
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        if getattr(original, "__wrapped__", None) is not None:
            return  # already traced
        self._installed.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, observe))

    def wrap_subclasses(self, base: type, attr: str, name: str) -> None:
        """Trace ``attr`` on ``base`` and on every subclass that overrides it."""
        pending = [base]
        while pending:
            cls = pending.pop()
            if attr in cls.__dict__:
                self.wrap_method(cls, attr, name)
            pending.extend(cls.__subclasses__())

    def wrap_function(self, module: object, attr: str, name: str) -> None:
        """Trace a module function everywhere ``repro`` modules imported it by name."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{getattr(module, '__name__', module)}.{attr}")
            return
        traced = self._wrapper(original, name, None)
        for module_name, loaded in sorted(sys.modules.items()):
            if not module_name.startswith("repro") or loaded is None:
                continue
            if loaded.__dict__.get(attr) is original:
                self._installed.append((loaded, attr, original))
                setattr(loaded, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> None:
        """Measure the tracer's own cost per span on empty calls.

        A traced empty call nested in a traced loop shows how much self time
        the wrapper adds to the callee and to its caller; the fastest of
        ``rounds`` is taken, so host noise does not inflate the correction.
        """
        probe = Tracer()

        def empty() -> None:
            return None

        def loop(callee) -> None:
            for _ in range(calls):
                callee()

        child = probe._wrapper(empty, "child", None)
        parent = probe._wrapper(loop, "parent", None)
        in_self = in_parent = float("inf")
        for _ in range(rounds):
            begin = time.perf_counter()
            loop(empty)
            untraced = (time.perf_counter() - begin) / calls
            probe.clear()
            parent(child)
            stats = probe.aggregate()
            in_self = min(in_self, stats["child"].self_s / calls)
            in_parent = min(in_parent, stats["parent"].self_s / calls - untraced)
        self.cost_in_self = max(in_self, 0.0)
        self.cost_in_parent = max(in_parent, 0.0)

    # -- folding spans ------------------------------------------------------------
    def aggregate(self) -> dict[str, SpanStats]:
        """Per-name calls, inclusive time and self time of the recorded spans."""
        if self._stack:
            raise RuntimeError("cannot aggregate while spans are still open")
        count = len(self._name_of)
        stats = {name: SpanStats() for name in self._names}
        if count == 0:
            return stats
        # Copies, not buffer views: a live view would block clear().
        name_of = np.array(self._name_of, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        duration = np.array(self._end) - np.array(self._start)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=count
        )
        children = np.bincount(parent[has_parent], minlength=count)
        self_time = (
            duration - child_time - self.cost_in_self - children * self.cost_in_parent
        )
        parent_name = np.full(count, -1, dtype=np.int64)
        parent_name[has_parent] = name_of[parent[has_parent]]
        # A call nested directly in a call of the same name is part of it.
        nested = parent_name == name_of
        outer = ~nested
        num_names = len(self._names)
        calls = np.bincount(name_of[outer], minlength=num_names)
        inclusive = np.bincount(
            name_of[outer], weights=duration[outer], minlength=num_names
        )
        self_total = np.bincount(name_of, weights=self_time, minlength=num_names)
        # Calls per (name, parent name) pair; parent -1 (a root span) -> slot 0.
        pairs = np.bincount(
            name_of[outer] * (num_names + 1) + parent_name[outer] + 1,
            minlength=num_names * (num_names + 1),
        ).reshape(num_names, num_names + 1)
        labels = ["<root>", *self._names]
        for name_id, name in enumerate(self._names):
            entry = stats[name]
            entry.calls = int(calls[name_id])
            entry.inclusive_s = float(inclusive[name_id])
            entry.self_s = max(float(self_total[name_id]), 0.0)
            for slot in np.flatnonzero(pairs[name_id]):
                entry.calls_by_parent[labels[slot]] = int(pairs[name_id, slot])
        return stats
