"""Tests for the scheduler's waiting queue (repro.core.waiting.WaitingQueue).

The headline contracts:

* **same picks as the scan**: every built-in policy, answering from the
  queue's heaps, admits exactly the sequence its pre-heap body — a
  ``min``/``max`` over the list of arrived sequences, kept below as the
  reference — admits, under random arrivals, deadlines (with ``None``
  and ties), priorities, tenants, interleaved removals and front
  rejoins;
* **no rescans**: each sequence entering the queue costs one key
  evaluation, whatever the backlog (a call count, no timing);
* **structure**: :meth:`WaitingQueue.check_invariants` holds through
  every operation and names a broken invariant.
"""

from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    NovaDecodeEngine,
    SequenceMeta,
)
from repro.core.waiting import WaitingQueue
from repro.serving.policies import (
    FCFS,
    PriorityPreemptive,
    SLOAware,
    TenantFair,
)
from repro.workloads.transformer import TransformerConfig, decode_request

SMALL = NovaConfig(n_routers=2, neurons_per_router=8)


@dataclass(eq=False)
class Seq:
    """The fields of a scheduler sequence the policies read."""

    index: int
    arrival: float = 0.0
    priority: int = 0
    tenant: str = "default"
    deadline: float | None = None
    admitted_at: int = -1
    remaining: int = 1
    request: object = None


# ----------------------------------------------------------------------
# The scan reference: each policy's admission body before the queue had
# heaps, over the list of arrived sequences in queue order.
# ----------------------------------------------------------------------


def scan_fcfs(waiting, in_flight):
    return waiting[0] if waiting else None


def scan_priority(waiting, in_flight):
    if not waiting:
        return None
    best = max(range(len(waiting)), key=lambda i: waiting[i].priority)
    # max() keeps the first (queue-order) index on priority ties.
    return waiting[best]


def scan_priority_challenger(waiting):
    return max(waiting, key=lambda s: s.priority) if waiting else None


def scan_slo(waiting, in_flight):
    if not waiting:
        return None
    deadline = SLOAware._deadline
    best = min(range(len(waiting)), key=lambda i: deadline(waiting[i]))
    # min() keeps the first (queue-order) index on deadline ties.
    return waiting[best]


def scan_tenant_fair(cap):
    def admit(waiting, in_flight):
        counts = {}
        for seq in in_flight:
            counts[seq.tenant] = counts.get(seq.tenant, 0) + 1
        eligible = [
            i for i, seq in enumerate(waiting)
            if cap is None or counts.get(seq.tenant, 0) < cap
        ]
        if not eligible:
            return None
        best = min(
            eligible, key=lambda i: (counts.get(waiting[i].tenant, 0), i)
        )
        return waiting[best]

    return admit


POLICY_PAIRS = [
    (FCFS(), scan_fcfs),
    (PriorityPreemptive(), scan_priority),
    (SLOAware(), scan_slo),
    (TenantFair(), scan_tenant_fair(None)),
    (TenantFair(max_active_per_tenant=1), scan_tenant_fair(1)),
    (TenantFair(max_active_per_tenant=2), scan_tenant_fair(2)),
]


# ----------------------------------------------------------------------
# Heap picks == scan picks.
# ----------------------------------------------------------------------

sequence_fields = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),             # arrival
        st.integers(min_value=0, max_value=2),             # priority
        st.sampled_from("abc"),                            # tenant
        st.one_of(st.none(), st.integers(1, 4)),           # deadline slack
    ),
    min_size=1,
    max_size=24,
)
operations = st.lists(
    st.tuples(
        st.sampled_from(["advance", "admit", "drop", "rejoin"]),
        st.integers(min_value=0, max_value=len(POLICY_PAIRS) - 1),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=80,
)


class TestHeapPicksMatchTheScan:
    @settings(max_examples=150, deadline=None)
    @given(fields=sequence_fields, ops=operations)
    def test_every_policy_picks_what_the_scan_picks(self, fields, ops):
        seqs = [
            Seq(
                index=i, arrival=float(arrival), priority=priority,
                tenant=tenant,
                deadline=None if slack is None else float(arrival + slack),
            )
            for i, (arrival, priority, tenant, slack) in enumerate(fields)
        ]
        queue = WaitingQueue(seqs)
        reference = deque(seqs)  # the scheduler's pre-queue deque
        admitted = []            # in flight: removed, not rejoined
        now = 0.0
        queue.advance(now)
        for op, which, pick in ops:
            arrived = [s for s in reference if s.arrival <= now]
            assert list(queue) == arrived
            assert len(queue) == len(arrived)
            assert all(s in queue for s in arrived)
            if arrived:
                assert queue[0] is arrived[0]
            for policy, scan in POLICY_PAIRS:
                got = policy.admit_next(queue, admitted, now)
                assert got is scan(arrived, admitted), policy
            victim = Seq(index=-1, priority=1, admitted_at=1)
            challenged = PriorityPreemptive().preemptions(
                queue, [victim], now, 0
            )
            challenger = scan_priority_challenger(arrived)
            expected = (
                [victim]
                if challenger is not None and challenger.priority > 1
                else []
            )
            assert challenged == expected
            if op == "advance":
                now += float(pick % 3)
                queue.advance(now)
            elif op == "admit" and arrived:
                policy, scan = POLICY_PAIRS[which]
                seq = scan(arrived, admitted)
                if seq is not None:
                    queue.remove(seq)
                    reference.remove(seq)
                    admitted.append(seq)
            elif op == "drop" and arrived:
                seq = arrived[pick % len(arrived)]
                queue.remove(seq)
                reference.remove(seq)
                admitted.append(seq)
            elif op == "rejoin" and admitted:
                seq = admitted.pop(pick % len(admitted))
                queue.rejoin(seq)
                reference.appendleft(seq)
            queue.check_invariants()


# ----------------------------------------------------------------------
# No rescans: one key evaluation per sequence entering the queue.
# ----------------------------------------------------------------------


def counted(key):
    def wrapper(seq):
        wrapper.calls += 1
        return key(seq)

    wrapper.calls = 0
    return wrapper


def key_counted(policy):
    """``policy`` with its heap key wrapped in a call counter."""
    attr = {
        SLOAware: "_deadline",
        PriorityPreemptive: "_urgency",
        TenantFair: "_tenant",
    }[type(policy)]
    counter = counted(getattr(policy, attr))
    setattr(policy, attr, counter)
    return policy, counter


class TestNoRescans:
    @pytest.mark.parametrize("backlog", [400, 6400])
    @pytest.mark.parametrize(
        "policy_class", [SLOAware, PriorityPreemptive, TenantFair]
    )
    def test_one_key_evaluation_per_queue_entry(self, backlog, policy_class):
        """Drain a backlog through the policy while it keeps arriving,
        rejoining every seventh admission once: the key runs once per
        entry, not once per waiting sequence per pick (which would be
        ~backlog**2 / 2)."""
        policy, counter = key_counted(policy_class())
        seqs = [
            Seq(index=i, arrival=float(i % 50), priority=i % 3,
                tenant="abcd"[i % 4], deadline=float(i % 50 + 1 + i % 7))
            for i in range(backlog)
        ]
        queue = WaitingQueue(seqs)
        now, entries, in_flight, rejoined = 0.0, backlog, [], set()
        while queue or queue.upcoming:
            now += 0.25
            queue.advance(now)
            if not queue:
                continue
            seq = policy.admit_next(queue, in_flight[-3:], now)
            policy.preemptions(queue, in_flight[-1:], now, 0)
            queue.remove(seq)
            if seq.index % 7 == 0 and seq.index not in rejoined:
                rejoined.add(seq.index)
                queue.rejoin(seq)
                entries += 1
            else:
                in_flight.append(seq)
        assert counter.calls == entries
        queue.check_invariants()

    def test_scheduler_run_costs_one_key_evaluation_per_request(self):
        policy, counter = key_counted(SLOAware())
        model = TransformerConfig(
            "toy", layers=1, hidden=16, heads=2, intermediate=64,
            seq_len=64, causal=True,
        )
        requests = [
            decode_request(model, prompt_len=2, max_new_tokens=2, seed=i)
            for i in range(40)
        ]
        meta = [
            SequenceMeta(arrival=float(3 * i), deadline=float(3 * i + 500))
            for i in range(40)
        ]
        ContinuousBatchScheduler(
            NovaDecodeEngine(SMALL), max_active=2, policy=policy
        ).run(requests, meta=meta)
        assert counter.calls == len(requests)


# ----------------------------------------------------------------------
# Structure.
# ----------------------------------------------------------------------


class TestQueueStructure:
    def test_arrival_cursor_moves_sequences_in_arrival_order(self):
        a, b, c = Seq(0, arrival=5.0), Seq(1, arrival=0.0), Seq(2, 5.0)
        queue = WaitingQueue([a, b, c])
        assert len(queue) == 0 and queue.upcoming == 3
        assert queue.next_arrival() == 0.0
        queue.advance(0.0)
        assert list(queue) == [b] and queue.upcoming == 2
        assert queue.next_arrival() == 5.0
        queue.advance(5.0)
        assert list(queue) == [a, b, c] and queue.upcoming == 0
        queue.check_invariants()

    def test_rejoin_goes_to_the_front_like_appendleft(self):
        seqs = [Seq(i) for i in range(4)]
        queue = WaitingQueue(seqs)
        queue.advance(0.0)
        queue.remove(seqs[2])
        queue.remove(seqs[3])
        queue.rejoin(seqs[3])
        queue.rejoin(seqs[2])
        assert list(queue) == [seqs[2], seqs[3], seqs[0], seqs[1]]
        assert queue.first() is seqs[2] and queue[0] is seqs[2]
        assert queue[-1] is seqs[1]
        queue.check_invariants()

    def test_removing_a_sequence_not_arrived_raises(self):
        seq = Seq(0)
        queue = WaitingQueue([seq])
        with pytest.raises(ValueError, match="not waiting"):
            queue.remove(seq)
        queue.advance(0.0)
        queue.remove(seq)
        assert queue.first() is None and not queue
        with pytest.raises(IndexError):
            queue[0]

    def test_heads_by_gives_each_groups_first_in_queue_order(self):
        seqs = [Seq(i, tenant="abab"[i]) for i in range(4)]
        queue = WaitingQueue(seqs)
        queue.advance(0.0)
        tenant = TenantFair._tenant
        assert queue.heads_by(tenant) == [seqs[0], seqs[1]]
        queue.remove(seqs[0])
        assert queue.heads_by(tenant) == [seqs[1], seqs[2]]
        queue.remove(seqs[2])
        assert queue.heads_by(tenant) == [seqs[1]]
        queue.rejoin(seqs[2])
        assert queue.heads_by(tenant) == [seqs[2], seqs[1]]
        queue.check_invariants()

    @pytest.mark.parametrize(
        "corrupt, invariant",
        [
            (lambda q, s: q.advance(-1.0), "the cursor splits arrived"),
            (lambda q, s: setattr(q, "_cursor", 0), "only moves forward"),
            (lambda q, s: q._rank.update({s[0]: 1}), "ranks are unique"),
            (lambda q, s: q._upcoming.reverse(), r"\(arrival, index\)"),
            (lambda q, s: q._heaps[None].pop(), "one live entry"),
            (lambda q, s: q._rank.update({s[3]: 3}), "never both"),
        ],
    )
    def test_check_invariants_names_the_broken_invariant(
        self, corrupt, invariant
    ):
        seqs = [Seq(i, arrival=float(i // 3)) for i in range(4)]
        queue = WaitingQueue(seqs)
        queue.advance(0.0)
        queue.first()  # builds the rank-order heap
        queue.check_invariants()
        corrupt(queue, seqs)
        with pytest.raises(RuntimeError, match=invariant):
            queue.check_invariants()
