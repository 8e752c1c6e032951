"""Wall-clock spans around the public entry points of each layer.

The traced run wraps public functions and methods of the program from
the outside (never ``_``-private ones), records one span per call —
name, start, end, parent span, scheduler loop iteration — in memory,
and restores every patched attribute afterwards, even when the traced
code raises.  Per-layer numbers are views of the span list:

* a span's **self time** is its duration minus the part of that
  interval its child spans cover (:func:`self_times`);
* a layer's **time** counts each interval once: only spans with no
  ancestor in the same layer add their duration (:func:`outermost`).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: One recorded call: (name, start_ns, end_ns, parent index or -1, step).
Span = tuple[str, int, int, int, int]

#: ``measure(tracer, args, result)`` — runs after a successful call.
Measure = Callable[["Tracer", tuple[Any, ...], Any], None]

_MISSING = object()


class Tracer:
    """Records spans for wrapped callables and undoes its patches."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = {}
        #: Scheduler loop iteration; a ``measure`` hook advances it.
        self.step = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._done: list[Span] = []
        self._self_ns: list[int] = []

    # -- recording ------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        """Accumulate a named count measured at a wrapped boundary."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        measure: Measure | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``name``."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.step)
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Measure | None = None,
    ) -> None:
        """Replace ``owner.attr`` (module, class or instance) by a
        traced version; properties and static methods keep their kind.
        """
        if attr.startswith("_"):
            raise ValueError(f"refusing to trace private attribute {attr!r}")
        raw = vars(owner).get(attr, _MISSING)
        if raw is _MISSING:
            # inherited or bound: shadow it on the owner itself
            replacement: Any = self.wrap(name, getattr(owner, attr), measure)
        elif isinstance(raw, property):
            replacement = property(self.wrap(name, raw.fget, measure))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, measure))
        else:
            replacement = self.wrap(name, raw, measure)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    @contextmanager
    def patched(
        self, plan: Iterable[tuple[Any, str, str, Measure | None]]
    ) -> Iterator["Tracer"]:
        """Apply ``(owner, attr, name, measure)`` patches for a block."""
        try:
            for owner, attr, name, measure in plan:
                self.patch(owner, attr, name, measure)
            yield self
        finally:
            self.restore()

    # -- views ----------------------------------------------------------

    def finished(self) -> list[Span]:
        """Every recorded span (all calls have returned)."""
        if len(self._done) != len(self.spans):
            done = [s for s in self.spans if s is not None]
            if len(done) != len(self.spans):
                raise RuntimeError("a traced call is still open")
            self._done = done
            self._self_ns = self_times(done)
        return self._done

    def count(self, *names: str) -> int:
        """Calls recorded under any of ``names``."""
        wanted = set(names)
        return sum(1 for s in self.finished() if s[0] in wanted)

    def total(self, *names: str) -> float:
        """Seconds spent in ``names``, each interval counted once."""
        outer = outermost(self.finished(), set(names))
        return sum(end - start for _, start, end, _, _ in outer) / 1e9

    def outermost_count(self, *names: str) -> int:
        """Calls under ``names`` not nested in another such call."""
        return len(outermost(self.finished(), set(names)))

    def self_time(self, *names: str) -> float:
        """Summed self time (seconds) of every span under ``names``."""
        spans = self.finished()
        wanted = set(names)
        own = self._self_ns
        return sum(t for s, t in zip(spans, own) if s[0] in wanted) / 1e9

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times in ns since the first)."""
        spans = self.finished()
        origin = min((s[1] for s in spans), default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, step in spans:
                out.write(
                    json.dumps([name, start - origin, end - origin, parent, step])
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[int]:
    """Per-span duration minus the union of its direct children's
    intervals (clipped to the parent), in the spans' time unit."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, step in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, step) in enumerate(spans):
        covered = 0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans in ``names`` with no ancestor in ``names`` (a nested one's
    interval is already inside its ancestor's)."""
    out = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out
