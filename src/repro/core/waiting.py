"""The continuous-batching scheduler's waiting queue and policy interface.

:class:`WaitingQueue` holds the requests a
:class:`~repro.core.decode.ContinuousBatchScheduler` run has not
admitted yet: an arrival cursor over those still to arrive, and the
arrived ones ranked in queue order, with per-key heaps so a scheduling
policy picks its next request in O(log n) instead of scanning the
backlog.

The scheduler's decision interface lives here too, below the engine in
the import order: :class:`SchedulingPolicy` (what a policy answers),
:class:`SequenceView` (what it sees of a sequence) and :class:`FCFS`,
the scheduler's default.  The other built-in policies subclass
:class:`FCFS` in :mod:`repro.serving.policies`, which re-exports all
three.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import (
    TYPE_CHECKING,
    Any,
    Generic,
    Protocol,
    TypeVar,
    runtime_checkable,
)

if TYPE_CHECKING:
    from repro.core.decode import DecodeRequest

__all__ = ["WaitingQueue", "SequenceView", "SchedulingPolicy", "FCFS"]


class _Queued(Protocol):
    """What the waiting queue reads of a sequence."""

    index: int
    arrival: float


_W = TypeVar("_W", bound=_Queued)


class WaitingQueue(Generic[_W]):
    """The scheduler's waiting sequences: an arrival cursor plus the
    arrived set, ranked in queue order.

    Sequences that have not arrived yet wait in ``(arrival, index)``
    order; :meth:`advance` moves every one that has arrived by ``now``
    into the arrived set, once per scheduler step.  A sequence's rank in
    the arrived set is its submission index, and a preempted or deferred
    sequence :meth:`rejoin`\\ s at the front with a rank below every
    other, so rank order is exactly the order a ``deque`` with
    ``appendleft`` rejoins would hold.

    ``len``, ``in``, iteration (in queue order) and ``[0]`` cover the
    arrived set only: it is the ``waiting`` view every
    :class:`SchedulingPolicy` hook receives.
    ``len``, ``in`` and :meth:`remove` are O(1).  :meth:`first`,
    :meth:`first_by` and :meth:`heads_by` are O(log n) amortised: each
    key (or group) function gets its own lazy-deletion heap, built on
    first use and fed every later arrival, so each sequence entering the
    queue costs one key evaluation per heap; ties break on rank.  A key
    must depend only on fields that do not change while a sequence
    waits, and callers must pass the same function object every time
    (a fresh lambda per call builds a fresh heap per call).  Iterating
    sorts the arrived set by rank, which is O(n log n) per pass.
    """

    def __init__(self, sequences: Iterable[_W]) -> None:
        #: Every sequence in arrival order; those before the cursor
        #: have arrived (by the clock of the last :meth:`advance`).
        self._upcoming = sorted(
            sequences, key=lambda s: (s.arrival, s.index)
        )
        self._cursor = 0
        self._checked_cursor = 0
        self._now = -math.inf
        #: The arrived set: sequence -> rank (lower ranks go first).
        self._rank: dict[_W, int] = {}
        self._front = 0
        #: Lazy-deletion heaps of ``(key, rank, seq)``; key ``None`` is
        #: rank order.  An entry is live while ``_rank[seq] == rank``.
        self._heaps: dict[Callable[[_W], Any] | None, list[Any]] = {}
        #: Per group function: group value -> heap of ``(rank, seq)``.
        self._groups: dict[
            Callable[[_W], Hashable], dict[Hashable, list[Any]]
        ] = {}

    # -- the scheduler's side -------------------------------------------

    @property
    def upcoming(self) -> int:
        """How many sequences have not arrived yet."""
        return len(self._upcoming) - self._cursor

    def next_arrival(self) -> float:
        """The earliest arrival among sequences not arrived yet."""
        return self._upcoming[self._cursor].arrival

    def advance(self, now: float) -> None:
        """Move every sequence that has arrived by ``now`` into the
        arrived set, ranked by submission index."""
        self._now = now
        upcoming, i = self._upcoming, self._cursor
        while i < len(upcoming) and upcoming[i].arrival <= now:
            self._insert(upcoming[i], upcoming[i].index)
            i += 1
        self._cursor = i

    def remove(self, seq: _W) -> None:
        """Take an arrived sequence out (its heap entries go stale)."""
        if self._rank.pop(seq, None) is None:
            raise ValueError("sequence is not waiting-and-arrived")

    def rejoin(self, seq: _W) -> None:
        """Put an arrived sequence back at the front of the queue."""
        self._front -= 1
        self._insert(seq, self._front)

    def _insert(self, seq: _W, rank: int) -> None:
        self._rank[seq] = rank
        for key, heap in self._heaps.items():
            heapq.heappush(
                heap, (rank if key is None else key(seq), rank, seq)
            )
        for group, heaps in self._groups.items():
            heapq.heappush(heaps.setdefault(group(seq), []), (rank, seq))

    # -- the policies' side ---------------------------------------------

    def __len__(self) -> int:
        return len(self._rank)

    def __contains__(self, seq: object) -> bool:
        return seq in self._rank

    def __iter__(self) -> Iterator[_W]:
        return iter(sorted(self._rank, key=self._rank.__getitem__))

    def __getitem__(self, i: int) -> _W:
        head = self.first() if i == 0 else None
        if head is not None:
            return head
        return list(self)[i]

    def first(self) -> _W | None:
        """The arrived sequence at the front of the queue, if any."""
        return self.first_by(None)

    def first_by(self, key: Callable[[_W], Any] | None) -> _W | None:
        """The arrived sequence with the smallest ``key`` (ties in queue
        order), if any; ``None`` as the key means queue order."""
        heap = self._heaps.get(key)
        if heap is None:
            heap = [
                (rank if key is None else key(seq), rank, seq)
                for seq, rank in self._rank.items()
            ]
            heapq.heapify(heap)
            self._heaps[key] = heap
        rank_of = self._rank
        while heap and rank_of.get(heap[0][2]) != heap[0][1]:
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def heads_by(self, group: Callable[[_W], Hashable]) -> list[_W]:
        """The first arrived sequence of each ``group`` value, in queue
        order."""
        heaps = self._groups.get(group)
        if heaps is None:
            heaps = {}
            for seq, rank in self._rank.items():
                heaps.setdefault(group(seq), []).append((rank, seq))
            for heap in heaps.values():
                heapq.heapify(heap)
            self._groups[group] = heaps
        rank_of = self._rank
        heads: list[tuple[int, _W]] = []
        for value, heap in list(heaps.items()):
            while heap and rank_of.get(heap[0][1]) != heap[0][0]:
                heapq.heappop(heap)
            if heap:
                heads.append(heap[0])
            else:
                del heaps[value]
        heads.sort()
        return [seq for _, seq in heads]

    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` naming the first broken invariant.

        The invariants, in the order checked: the cursor never moves
        back (it is not behind where the previous check saw it), the
        upcoming sequences are in ``(arrival, index)`` order, the cursor
        splits those arrived by the last :meth:`advance` from the rest,
        each sequence is either not yet arrived or arrived, never both,
        ranks are unique, and every heap holds exactly one live entry
        per arrived sequence.  A verification hook for tests; nothing on
        the serving path calls it.
        """
        upcoming, cursor, rank_of = self._upcoming, self._cursor, self._rank
        order = [(s.arrival, s.index) for s in upcoming]
        ranks = sorted(rank_of.values())
        heaps = [*self._heaps.values()] + [
            [(None, rank, seq) for heap in per_value.values()
             for rank, seq in heap]
            for per_value in self._groups.values()
        ]
        checks = {
            "the cursor only moves forward": cursor >= self._checked_cursor,
            "upcoming sequences are in (arrival, index) order": (
                order == sorted(order)
            ),
            "the cursor splits arrived from not yet arrived": (
                all(s.arrival <= self._now for s in upcoming[:cursor])
                and all(s.arrival > self._now for s in upcoming[cursor:])
            ),
            "each sequence is not yet arrived or arrived, never both": (
                not any(s in rank_of for s in upcoming[cursor:])
            ),
            "ranks are unique": len(set(ranks)) == len(ranks),
            "every heap holds one live entry per arrived sequence": all(
                sorted(r for _, r, s in heap if rank_of.get(s) == r) == ranks
                for heap in heaps
            ),
        }
        self._checked_cursor = cursor
        for invariant, holds in checks.items():
            if not holds:
                raise RuntimeError(
                    f"waiting queue invariant broken: {invariant}"
                )


@runtime_checkable
class SequenceView(Protocol):
    """The read-only surface a policy sees of one request's sequence.

    Structurally satisfied by the scheduler's internal bookkeeping
    objects; policies must treat it as immutable.  ``index`` is the
    request's submission position, ``arrival``/``deadline`` are virtual
    cycles (:class:`~repro.core.decode.SequenceMeta`), ``admitted_at``
    is a monotone admission ticket (-1 while waiting), and
    ``remaining`` counts the generation budget still owed.
    """

    index: int
    arrival: float
    priority: int
    tenant: str
    deadline: float | None
    admitted_at: int
    remaining: int
    request: DecodeRequest


S = TypeVar("S", bound=SequenceView)


class SchedulingPolicy(Protocol):
    """Decision interface of the continuous-batching scheduler.

    One scheduler step consults the policy up to three times:

    1. :meth:`preemptions` — optional voluntary eviction of in-flight
       sequences (e.g. to make room for a higher-priority arrival);
    2. :meth:`step_order` — which active sequences run a decode step
       this round (normally all of them, in place);
    3. :meth:`admit_next` — repeatedly, the next arrived-and-waiting
       request to admit while slots and memory allow.

    :meth:`select_victim` is consulted only when every in-flight
    sequence is starved of memory and something must be preempted for
    the run to progress.  Every hook receives ``now``, the virtual
    clock in cycles.  Implementations must be deterministic pure
    functions of their arguments (ties broken on stable keys such as
    ``index`` or ``admitted_at``) — scheduler reproducibility rests on
    it.

    ``waiting`` is the run's :class:`WaitingQueue`, a view of the
    arrived-and-waiting sequences in queue order (submission order;
    preempted and deferred sequences rejoin at the front).  The
    built-in policies answer from its heaps —
    :meth:`WaitingQueue.first`, :meth:`WaitingQueue.first_by` and
    :meth:`WaitingQueue.heads_by` — in O(log n) per
    decision.  It also supports ``len``, ``in``, ``[0]`` and iteration
    in queue order, so a custom policy that scans it like a list still
    works, at a scan's O(n) per call (plus a sort by rank to iterate).
    """

    name: str

    def step_order(
        self, active: Sequence[S], now: float
    ) -> Sequence[S]:
        """The active sequences that decode this step, in job order."""
        ...

    def admit_next(
        self,
        waiting: WaitingQueue[S],
        in_flight: Sequence[S],
        now: float,
    ) -> S | None:
        """The next waiting (already arrived) request to admit.

        ``None`` ends admission for this step.
        """
        ...

    def select_victim(self, active: Sequence[S], now: float) -> S:
        """The sequence to preempt when every active one is starved."""
        ...

    def preemptions(
        self,
        waiting: WaitingQueue[S],
        active: Sequence[S],
        now: float,
        free_slots: int,
    ) -> Sequence[S]:
        """Active sequences to voluntarily evict before this step."""
        ...


class FCFS:
    """First-come-first-served: the scheduler's historical behavior.

    Admission takes the head of the queue (submission order; a
    preempted request rejoins at the front and is readmitted first),
    stops at the first request that cannot get memory (head-of-line
    blocking — a deliberate part of the pinned behavior), every active
    sequence steps every round, and forced preemption evicts the most
    recently admitted sequence.  The equivalence test pins a default
    scheduler run byte-identical to an explicit ``FCFS()`` run, and the
    golden traces pin both to the pre-policy scheduler.
    """

    name = "fcfs"

    def step_order(self, active: Sequence[S], now: float) -> Sequence[S]:
        return list(active)

    def admit_next(
        self,
        waiting: WaitingQueue[S],
        in_flight: Sequence[S],
        now: float,
    ) -> S | None:
        return waiting.first()

    def select_victim(self, active: Sequence[S], now: float) -> S:
        return max(active, key=lambda s: s.admitted_at)

    def preemptions(
        self,
        waiting: WaitingQueue[S],
        active: Sequence[S],
        now: float,
        free_slots: int,
    ) -> Sequence[S]:
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
