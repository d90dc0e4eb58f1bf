"""In-memory span tracing through wrappers around public names.

A :class:`Tracer` replaces a function or method *where its caller looks
it up* (a class attribute for methods, the importing module's global
for functions) with a wrapper that records a span, and restores every
original on :meth:`Tracer.uninstall`.  Nothing in the program under
test knows it is traced.

Spans nest by a stack: a span's parent is the span open when it began.
Each workload is a closed loop with one granule batch in flight, so the
spans of a concurrently running task (a shard worker flushing while the
producer awaits ``drain``) nest under the span that is waiting for
them.  A span's self time is its duration minus the durations of its
direct children.

Hot functions called millions of times per run (the timestamp
comparisons) are traced as *leaves*: their calls and time are summed
per name instead of stored one span each, and their time is charged to
the enclosing span as child time.  A leaf must not call another traced
name.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable

_now = time.perf_counter_ns

# A span record is [name, start, end, parent, child time, counted].
_START, _END, _PARENT, _CHILD = 1, 2, 3, 4

AfterHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Spans, leaf aggregates and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.leaves: dict[str, list[int]] = {}
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        #: Whether work now running is measured.  The granule loop sets it per
        #: granule batch and clears it outside the batches and in batches
        #: that a fault hits; spans begun, leaf calls made and counts
        #: added while it is False are left out of every summary.
        self.counting = False
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # --- recording --------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any span is open."""
        return bool(self._stack)

    def begin(self, name: str) -> int:
        """Open a span; returns its handle."""
        parent = self._stack[-1] if self._stack else -1
        handle = len(self.spans)
        self.spans.append([name, _now(), 0, parent, 0, self.counting])
        self._stack.append(handle)
        return handle

    def end(self, handle: int) -> None:
        """Close a span and charge its duration to its parent."""
        span = self.spans[handle]
        span[_END] = _now()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]
        stack = self._stack
        if stack and stack[-1] == handle:
            stack.pop()
        else:
            stack.remove(handle)

    def count(self, key: str, amount: int) -> None:
        """Add to a counter while counting."""
        if self.counting:
            self.counts[key] += amount

    def peak(self, key: str, value: int) -> None:
        """Raise a high-water counter while counting."""
        if self.counting and value > self.counts[key]:
            self.counts[key] = value

    def leaf(self, name: str, elapsed_ns: int) -> None:
        """Add one leaf call of ``elapsed_ns`` to ``name``'s aggregate."""
        if not self.counting:
            return
        aggregate = self.leaves.get(name)
        if aggregate is None:
            aggregate = self.leaves[name] = [0, 0]
        aggregate[0] += 1
        aggregate[1] += elapsed_ns
        if self._stack:
            self.spans[self._stack[-1]][_CHILD] += elapsed_ns

    # --- installation -----------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None = None,
        *,
        leaf: bool = False,
        after: AfterHook | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a tracing wrapper.

        The wrapper records a span called ``name`` (a leaf aggregate
        with ``leaf=True``; nothing when ``name`` is None).
        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, so counting work it does is not charged to the span.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        wrapped = getattr(owner, attr)
        if leaf:
            wrapper = self._leaf_wrapper(wrapped, name, after)
        elif inspect.iscoroutinefunction(wrapped):
            wrapper = self._async_wrapper(wrapped, name, after)
        else:
            wrapper = self._sync_wrapper(wrapped, name, after)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _sync_wrapper(self, wrapped, name, after):
        tracer = self

        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            handle = None if name is None else tracer.begin(name)
            try:
                result = wrapped(*args, **kwargs)
            finally:
                if handle is not None:
                    tracer.end(handle)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _async_wrapper(self, wrapped, name, after):
        tracer = self

        @functools.wraps(wrapped)
        async def wrapper(*args, **kwargs):
            handle = None if name is None else tracer.begin(name)
            try:
                result = await wrapped(*args, **kwargs)
            finally:
                if handle is not None:
                    tracer.end(handle)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, wrapped, name, after):
        tracer = self

        @functools.wraps(wrapped)
        def wrapper(*args, **kwargs):
            started = _now()
            result = wrapped(*args, **kwargs)
            tracer.leaf(name, _now() - started)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # --- summary ----------------------------------------------------------

    def table(self) -> dict[str, dict[str, int]]:
        """Per name: ``calls``, ``total_ns`` and ``self_ns`` of the
        spans and leaf calls recorded while counting.

        Self time is clamped at zero: a child of another task that
        outlives its parent span cannot make the parent negative.
        """
        rows: dict[str, dict[str, int]] = {}
        for name, start, end, _, child, counted in self.spans:
            if not counted:
                continue
            row = rows.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += max(0, end - start - child)
        for name, (calls, total) in self.leaves.items():
            rows[name] = {"calls": calls, "total_ns": total, "self_ns": total}
        return rows
