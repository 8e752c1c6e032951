"""Pluggable scheduling policies for the continuous-batching scheduler.

:class:`~repro.core.decode.ContinuousBatchScheduler` delegates every
scheduling *decision* — which waiting request to admit next, which
active sequences run a step, who gets preempted — to a policy object
implementing :class:`SchedulingPolicy`.  The scheduler keeps every
*mechanism*: memory accounting, job planning, the fused hardware
streams, deferral on pool exhaustion.  Because a policy only reorders
when work happens (never what it computes), each request's outputs,
sequential-equivalent cycles and event counters stay bit-identical to
solo :meth:`~repro.core.decode.NovaDecodeEngine.generate` under every
policy here — the property the serving test-suite and benchmark gate
both pin.

The interface (:class:`SchedulingPolicy`, :class:`SequenceView`) and
the default :class:`FCFS` live in :mod:`repro.core.waiting`, below the
scheduler, and are re-exported here; the other policies subclass
:class:`FCFS`.

Four policies ship:

========================  ============================================
:class:`FCFS`             Queue order (arrival order).  Pins the
                          scheduler's pre-policy behavior exactly —
                          the default for every existing caller.
:class:`PriorityPreemptive`  Strict priorities; a higher-priority
                          arrival may preempt the lowest-priority
                          in-flight sequence when every slot is taken.
:class:`SLOAware`         Earliest-deadline-first admission, so tight
                          time-to-first-token budgets jump the queue;
                          preempts the sequence with the most
                          deadline slack under memory starvation.
:class:`TenantFair`       Least-loaded-tenant-first admission with an
                          optional per-tenant concurrency cap (the
                          rate limit), so one tenant's burst cannot
                          monopolise the overlay.
========================  ============================================

All times are virtual cycles on the scheduler's deterministic clock
(:class:`~repro.core.decode.SequenceMeta`); no policy reads a wall
clock or draws entropy (NV008 holds for this package).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.waiting import (
    FCFS,
    S,
    SchedulingPolicy,
    SequenceView,
    WaitingQueue,
)

__all__ = [
    "SequenceView",
    "SchedulingPolicy",
    "FCFS",
    "PriorityPreemptive",
    "SLOAware",
    "TenantFair",
    "POLICIES",
    "build_policy",
]


class PriorityPreemptive(FCFS):
    """Strict priorities with preemption of lower-priority work.

    Admission picks the highest-priority arrived request (ties in
    queue order).  When every slot is taken and a waiting request
    outranks the lowest-priority in-flight sequence, that sequence is
    evicted (at most one per scheduler step, to bound recomputation
    churn) and restarts later — its results are still bit-identical,
    the wasted work shows up only in ``packed_vector_cycles``.  Forced
    preemption under memory starvation also evicts by lowest priority
    (ties: most recently admitted).
    """

    name = "priority-preemptive"

    @staticmethod
    def _urgency(seq: SequenceView) -> int:
        return -seq.priority

    def admit_next(
        self,
        waiting: WaitingQueue[S],
        in_flight: Sequence[S],
        now: float,
    ) -> S | None:
        return waiting.first_by(self._urgency)

    def select_victim(self, active: Sequence[S], now: float) -> S:
        return min(
            active, key=lambda s: (s.priority, -s.admitted_at)
        )

    def preemptions(
        self,
        waiting: WaitingQueue[S],
        active: Sequence[S],
        now: float,
        free_slots: int,
    ) -> Sequence[S]:
        challenger = waiting.first_by(self._urgency)
        if free_slots > 0 or challenger is None or not active:
            return []
        victim = min(active, key=lambda s: (s.priority, -s.admitted_at))
        if challenger.priority > victim.priority:
            return [victim]
        return []


class SLOAware(FCFS):
    """Deadline-driven scheduling: earliest deadline first.

    The policy balances time-to-first-token against sustained
    tokens/sec by spending the scarce resource — admission slots and
    pool memory — on the requests whose deadlines are nearest:
    admission is earliest-absolute-deadline first (requests without a
    deadline queue behind every deadlined one, in queue order), so a
    short request with a tight TTFT budget overtakes a long-running
    bulk job instead of waiting out its whole service time.  Under
    memory starvation the sequence with the *most* deadline slack is
    preempted — it can best afford the recomputation.  On heavy-tailed
    traces this is what collapses p99 TTFT relative to :class:`FCFS`
    without giving up goodput (the benchmark gate).
    """

    name = "slo-aware"

    @staticmethod
    def _deadline(seq: SequenceView) -> float:
        return float("inf") if seq.deadline is None else seq.deadline

    def admit_next(
        self,
        waiting: WaitingQueue[S],
        in_flight: Sequence[S],
        now: float,
    ) -> S | None:
        return waiting.first_by(self._deadline)

    def select_victim(self, active: Sequence[S], now: float) -> S:
        return max(
            active, key=lambda s: (self._deadline(s) - now, s.admitted_at)
        )


class TenantFair(FCFS):
    """Per-tenant fairness with an optional concurrency rate limit.

    Admission always draws from the tenant with the fewest in-flight
    sequences (ties in queue order), so interleaved tenants converge
    to equal shares of the batch no matter how bursty any one of them
    is.  ``max_active_per_tenant`` caps a single tenant's concurrent
    sequences — the rate limit: further requests from a saturated
    tenant simply wait, even with free slots.  Forced preemption
    evicts from the most-loaded tenant (its most recently admitted
    sequence), restoring balance under memory pressure.
    """

    name = "tenant-fair"

    def __init__(self, max_active_per_tenant: int | None = None) -> None:
        if max_active_per_tenant is not None and max_active_per_tenant < 1:
            raise ValueError(
                "max_active_per_tenant must be >= 1, got "
                f"{max_active_per_tenant}"
            )
        self.max_active_per_tenant = max_active_per_tenant

    def _load(self, in_flight: Sequence[SequenceView]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for seq in in_flight:
            counts[seq.tenant] = counts.get(seq.tenant, 0) + 1
        return counts

    @staticmethod
    def _tenant(seq: SequenceView) -> str:
        return seq.tenant

    def admit_next(
        self,
        waiting: WaitingQueue[S],
        in_flight: Sequence[S],
        now: float,
    ) -> S | None:
        # Each tenant's head is its first sequence in queue order; min()
        # keeps the first head (queue order) on in-flight-count ties.
        counts = self._load(in_flight)
        cap = self.max_active_per_tenant
        return min(
            (
                seq for seq in waiting.heads_by(self._tenant)
                if cap is None or counts.get(seq.tenant, 0) < cap
            ),
            key=lambda seq: counts.get(seq.tenant, 0),
            default=None,
        )

    def select_victim(self, active: Sequence[S], now: float) -> S:
        counts = self._load(active)
        return max(
            active, key=lambda s: (counts[s.tenant], s.admitted_at)
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}"
            f"(max_active_per_tenant={self.max_active_per_tenant!r})"
        )


#: Registry for name-based construction (CLI / session front doors).
POLICIES: dict[str, type[FCFS]] = {
    FCFS.name: FCFS,
    PriorityPreemptive.name: PriorityPreemptive,
    SLOAware.name: SLOAware,
    TenantFair.name: TenantFair,
}


def build_policy(policy: "str | SchedulingPolicy") -> "SchedulingPolicy":
    """Resolve a policy name (or pass a policy object through)."""
    if isinstance(policy, str):
        try:
            return POLICIES[policy]()
        except KeyError:
            available = ", ".join(sorted(POLICIES))
            raise KeyError(
                f"unknown scheduling policy {policy!r}; "
                f"available: {available}"
            ) from None
    return policy
