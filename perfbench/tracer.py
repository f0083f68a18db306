"""In-memory span tracer that wraps the program's public functions from outside.

Nothing under ``src/`` knows about it: :class:`Tracer` replaces functions and
methods with timing wrappers at run time and restores them on
:meth:`Tracer.uninstall`.  A span is ``(id, name, start, end, parent, op)``;
the parent is the span that was open in the same context (thread or asyncio
task) when the wrapped call began, and ``op`` is the operation the span
belongs to: a span opened outside any operation starts one of its own.
Spans stay in memory until :meth:`Tracer.dump`.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]

#: (span id, op id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[Tuple[Optional[int], Optional[int]]] = contextvars.ContextVar(
    "perfbench_span", default=(None, None)
)


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Spans.
    # ------------------------------------------------------------------ #

    def begin(self, name: str):
        """Open a span; returns the token :meth:`end` needs."""
        parent, op = _CURRENT.get()
        sid = next(self._ids)
        if op is None:
            op = sid
        token = _CURRENT.set((sid, op))
        return (sid, name, parent, op, token, time.perf_counter())

    def end(self, handle) -> None:
        """Close a span opened by :meth:`begin`."""
        stop = time.perf_counter()
        sid, name, parent, op, token, start = handle
        _CURRENT.reset(token)
        self.spans.append((sid, name, start, stop, parent, op))

    def span(self, name: str) -> "_SpanContext":
        """Context manager form of :meth:`begin` / :meth:`end`."""
        return _SpanContext(self, name)

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a named counter."""
        self.counters[name] += value

    # ------------------------------------------------------------------ #
    # Wrapping.
    # ------------------------------------------------------------------ #

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``after(tracer, args, kwargs, result)`` runs once the span is closed,
        inside a ``trace.bookkeeping`` span, so the time it spends is charged
        to the tracer and not to the caller's layer.
        """
        tracer = self

        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                handle = tracer.begin(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.end(handle)
                if after is not None:
                    tracer._after(after, args, kwargs, result)
                return result

            async_wrapper.__perfbench_original__ = fn
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            handle = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(handle)
            if after is not None:
                tracer._after(after, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _after(self, after: Callable, args, kwargs, result) -> None:
        handle = self.begin("trace.bookkeeping")
        try:
            after(self, args, kwargs, result)
        finally:
            self.end(handle)

    def patch_method(self, cls: type, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` (resolved through the MRO) on ``cls`` itself."""
        original = cls.__dict__.get(attr, _MISSING)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, getattr(cls, attr), after))

    def patch_function(self, module: str, attr: str, name: str,
                       after: Optional[Callable] = None, prefix: str = "repro") -> int:
        """Wrap a module-level function and every early-bound alias of it.

        ``from a import f`` copies the reference into the importing module,
        so patching ``a.f`` alone misses those call sites: every loaded
        module under ``prefix`` whose attribute *is* the original function
        is rebound too.  Returns the number of bindings replaced.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(name, original, after)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Persistence.
    # ------------------------------------------------------------------ #

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)

    @staticmethod
    def load(path: str) -> "Tracer":
        """Read back what :meth:`dump` wrote."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        tracer = Tracer()
        tracer.spans = [tuple(span) for span in data["spans"]]
        tracer.counters.update(data["counters"])
        return tracer


_MISSING = object()

#: Offset between the span ids of two merged processes (see :func:`shift_ids`).
ID_STRIDE = 10**9


def shift_ids(spans: Sequence[Span], offset: int) -> List[Span]:
    """The spans with every id (span, parent, op) moved up by ``offset``."""
    def move(value: Optional[int]) -> Optional[int]:
        return None if value is None else value + offset

    return [(sid + offset, name, start, end, move(parent), move(op))
            for sid, name, start, end, parent, op in spans]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer, self._name = tracer, name

    def __enter__(self) -> "_SpanContext":
        self._handle = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.end(self._handle)


# ---------------------------------------------------------------------- #
# Analysis.
# ---------------------------------------------------------------------- #


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, ()))
        for sid, _name, start, end, _parent, _op in spans
    }


def self_time_by_name(spans: Sequence[Span], ops: Optional[set] = None) -> Dict[str, float]:
    """Total self time per span name (optionally restricted to some op ids)."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for sid, name, _start, _end, _parent, op in spans:
        if ops is None or op in ops:
            totals[name] += own[sid]
    return dict(totals)


def total_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total span duration per name (nested spans of one name count once each)."""
    totals: Dict[str, float] = defaultdict(float)
    for _sid, name, start, end, _parent, _op in spans:
        totals[name] += end - start
    return dict(totals)


def calls_by_name(spans: Sequence[Span]) -> Dict[str, int]:
    """Number of spans per name."""
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[1]] += 1
    return dict(counts)


#: Spans whose self time no layer claims: the benchmark's own ``op`` root, and
#: the executor entry points, whose self time is whatever runs between the
#: request and the inner layers.
UNATTRIBUTED = ("op", "api.run", "api.run_on_network")


def attribution(spans: Sequence[Span], roots: Sequence[str]) -> List[Tuple[float, float]]:
    """Per op whose top-level span is named in ``roots``: (unattributed s, wall s).

    The unattributed time is the self time of the op's :data:`UNATTRIBUTED`
    spans, so 0 means every instant of the op sits inside some inner
    layer's span.
    """
    own = self_times(spans)
    walls = {op: end - start for _sid, name, start, end, parent, op in spans
             if parent is None and name in roots}
    loose: Dict[int, float] = defaultdict(float)
    for sid, name, _start, _end, _parent, op in spans:
        if op in walls and name in UNATTRIBUTED:
            loose[op] += own[sid]
    return [(loose[op], wall) for op, wall in walls.items() if wall > 0]
