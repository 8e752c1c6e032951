"""Event counters for energy accounting.

The cycle simulation counts *events* (wire-hop traversals, register
writes, tag matches, comparator evaluations, LUT reads, MAC operations);
:mod:`repro.hw.energy` multiplies these by per-event energies to produce
the energy numbers behind Fig. 8.  Keeping counting separate from costing
means the same simulation run can be costed under different technology
assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EventCounters", "OVERLAY_EVENTS"]

#: The NOVA overlay's event vocabulary, in the order the closed-form
#: accounting charges it.  This is the fixed index of the int64 counter
#: rows the vector unit's streams and the serving engines carry
#: (:meth:`EventCounters.from_vector` turns one row into a bag,
#: :meth:`EventCounters.to_vector` a bag into a row).
OVERLAY_EVENTS: tuple[str, ...] = (
    "comparator_eval",
    "mac_op",
    "pair_capture",
    "tag_match",
    "beat_launch",
    "wire_hop",
    "register_write",
)


@dataclass
class EventCounters:
    """A bag of named event counts with arithmetic helpers."""

    counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "EventCounters":
        """The bag of one counter vector indexed by :data:`OVERLAY_EVENTS`.

        Zero entries are left out, as :meth:`diff` leaves out events
        that did not change.
        """
        return cls({e: n for e, n in zip(OVERLAY_EVENTS, vector.tolist()) if n})

    def to_vector(self) -> np.ndarray:
        """This bag as an int64 row indexed by :data:`OVERLAY_EVENTS`.

        Raises ``ValueError`` for an event outside that vocabulary,
        which a row cannot hold.
        """
        unknown = sorted(self.counts.keys() - set(OVERLAY_EVENTS))
        if unknown:
            raise ValueError(
                f"events {unknown} are not overlay events; a counter row "
                f"holds only {OVERLAY_EVENTS}"
            )
        return np.array(
            [self.counts.get(e, 0) for e in OVERLAY_EVENTS], dtype=np.int64
        )

    def add(self, event: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``event``."""
        if n < 0:
            raise ValueError(f"cannot add a negative count ({n}) for {event!r}")
        self.counts[event] = self.counts.get(event, 0) + n

    def get(self, event: str) -> int:
        """Count for ``event`` (0 if never recorded)."""
        return self.counts.get(event, 0)

    def merge(self, other: "EventCounters") -> "EventCounters":
        """Return a new counter bag with both sets of counts summed."""
        merged = EventCounters(counts=dict(self.counts))
        for event, n in other.counts.items():
            merged.counts[event] = merged.counts.get(event, 0) + n
        return merged

    def diff(self, earlier: "EventCounters") -> "EventCounters":
        """Counts accumulated since the ``earlier`` snapshot."""
        delta = EventCounters()
        for event, n in self.counts.items():
            change = n - earlier.counts.get(event, 0)
            if change < 0:
                raise ValueError(
                    f"counter {event!r} decreased ({change}); snapshots are "
                    "out of order"
                )
            if change:
                delta.counts[event] = change
        return delta

    def snapshot(self) -> "EventCounters":
        """An immutable-by-convention copy of the current counts."""
        return EventCounters(counts=dict(self.counts))

    def total(self) -> int:
        """Sum of all counts (useful for smoke checks)."""
        return sum(self.counts.values())

    def as_dict(self) -> dict[str, int]:
        """Copy of the raw counts."""
        return dict(self.counts)
