"""Tests for the pluggable scheduling policies (repro.serving.policies).

The headline contracts:

* the policy refactor is a provable **no-op for default callers**: a
  scheduler run with no policy is byte-identical — results, cycles,
  counters, step timing — to one with an explicit ``FCFS()`` (the
  existing goldens separately pin both to the pre-policy scheduler);
* every policy preserves per-request bit-exactness against solo
  ``generate`` — scheduling moves *when* work happens, never what it
  computes — including across priority preemption and recomputation;
* each policy's decision rule does what its name says (admission
  order, preemption victims, per-tenant caps);
* a policy that names sequences it was never given fails loudly.
"""

import numpy as np
import pytest

from repro.core.config import NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    NovaDecodeEngine,
    SequenceMeta,
)
from repro.serving.policies import (
    FCFS,
    POLICIES,
    PriorityPreemptive,
    SLOAware,
    TenantFair,
    build_policy,
)
from repro.workloads.transformer import TransformerConfig, decode_request
from tests.queue_checks import QueueChecked

#: Small geometry for fast unit-level checks.
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)


def toy_model(hidden=16, heads=2, seq_len=64):
    return TransformerConfig(
        "toy", layers=1, hidden=hidden, heads=heads,
        intermediate=4 * hidden, seq_len=seq_len, causal=True,
    )


def toy_request(prompt_len=4, max_new_tokens=3, seed=0):
    return decode_request(
        toy_model(), prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed,
    )


def batch(n, max_new_tokens=3):
    return [toy_request(seed=i, max_new_tokens=max_new_tokens)
            for i in range(n)]


# ----------------------------------------------------------------------
# The FCFS pin: refactor is a no-op for default callers.
# ----------------------------------------------------------------------


class TestFCFSPin:
    def test_default_policy_is_fcfs(self):
        scheduler = ContinuousBatchScheduler(NovaDecodeEngine(SMALL))
        assert scheduler.policy.name == "fcfs"

    @pytest.mark.parametrize("paged", [False, True])
    def test_default_run_identical_to_explicit_fcfs(self, paged):
        engine = NovaDecodeEngine(SMALL)
        requests = batch(4)
        default = ContinuousBatchScheduler(
            engine, max_active=2, paged=paged
        ).run(requests)
        explicit = ContinuousBatchScheduler(
            engine, max_active=2, paged=paged, policy=FCFS()
        ).run(requests)
        assert default.packed_vector_cycles == explicit.packed_vector_cycles
        assert default.scheduler_steps == explicit.scheduler_steps
        assert default.step_cycles == explicit.step_cycles
        assert default.first_token_steps == explicit.first_token_steps
        assert default.finish_steps == explicit.finish_steps
        assert default.first_token_times == explicit.first_token_times
        assert default.finish_times == explicit.finish_times
        assert default.counters.as_dict() == explicit.counters.as_dict()
        for a, b in zip(default.results, explicit.results):
            assert np.array_equal(a.generated, b.generated)
            assert a.vector_cycles == b.vector_cycles
            assert a.counters.as_dict() == b.counters.as_dict()

    def test_serial_completion_in_submission_order(self):
        # max_active=1 serializes the run: FCFS must finish requests
        # exactly in submission order (the pinned admission ordering).
        engine = NovaDecodeEngine(SMALL)
        result = ContinuousBatchScheduler(engine, max_active=1).run(batch(3))
        assert list(result.finish_steps) == sorted(result.finish_steps)
        assert list(result.first_token_steps) == (
            sorted(result.first_token_steps)
        )


# ----------------------------------------------------------------------
# PriorityPreemptive.
# ----------------------------------------------------------------------


class TestPriorityPreemptive:
    def test_high_priority_admitted_first(self):
        engine = NovaDecodeEngine(SMALL)
        requests = batch(2)
        meta = [SequenceMeta(priority=0), SequenceMeta(priority=5)]
        result = ContinuousBatchScheduler(
            engine, max_active=1, policy=PriorityPreemptive()
        ).run(requests, meta=meta)
        assert result.first_token_steps[1] < result.first_token_steps[0]

    def test_priority_arrival_preempts_and_stays_bit_exact(self):
        engine = NovaDecodeEngine(SMALL)
        long_job = toy_request(seed=0, max_new_tokens=40)
        urgent = toy_request(seed=1, max_new_tokens=2)
        meta = [
            SequenceMeta(arrival=0.0, priority=0),
            SequenceMeta(arrival=20.0, priority=5),
        ]
        policy = QueueChecked(PriorityPreemptive())
        result = ContinuousBatchScheduler(
            engine, max_active=1, policy=policy
        ).run([long_job, urgent], meta=meta)
        # The urgent arrival displaced the long job mid-flight...
        assert result.preemptions == 1
        assert policy.checks > 0
        assert result.finish_steps[1] < result.finish_steps[0]
        # ...and recomputation kept both requests solo-exact.
        for request, got in zip([long_job, urgent], result.results):
            ref = engine.generate(request)
            assert np.array_equal(got.generated, ref.generated)
            assert got.vector_cycles == ref.vector_cycles
            assert got.counters.as_dict() == ref.counters.as_dict()

    def test_equal_priorities_never_preempt(self):
        engine = NovaDecodeEngine(SMALL)
        requests = batch(3)
        meta = [SequenceMeta(arrival=float(10 * i)) for i in range(3)]
        result = ContinuousBatchScheduler(
            engine, max_active=1, policy=PriorityPreemptive()
        ).run(requests, meta=meta)
        assert result.preemptions == 0


# ----------------------------------------------------------------------
# SLOAware.
# ----------------------------------------------------------------------


class TestSLOAware:
    def test_earliest_deadline_admitted_first(self):
        engine = NovaDecodeEngine(SMALL)
        requests = batch(3)
        meta = [
            SequenceMeta(deadline=900.0),
            SequenceMeta(deadline=50.0),
            SequenceMeta(deadline=400.0),
        ]
        result = ContinuousBatchScheduler(
            engine, max_active=1, policy=SLOAware()
        ).run(requests, meta=meta)
        order = sorted(
            range(3), key=lambda i: result.first_token_steps[i]
        )
        assert order == [1, 2, 0]

    def test_no_deadline_queues_behind_deadlined(self):
        engine = NovaDecodeEngine(SMALL)
        requests = batch(2)
        meta = [SequenceMeta(), SequenceMeta(deadline=800.0)]
        result = ContinuousBatchScheduler(
            engine, max_active=1, policy=SLOAware()
        ).run(requests, meta=meta)
        assert result.first_token_steps[1] < result.first_token_steps[0]


# ----------------------------------------------------------------------
# TenantFair.
# ----------------------------------------------------------------------


class TestTenantFair:
    def test_least_loaded_tenant_admitted_first(self):
        engine = NovaDecodeEngine(SMALL)
        requests = batch(3)
        meta = [
            SequenceMeta(tenant="a"),
            SequenceMeta(tenant="a"),
            SequenceMeta(tenant="b"),
        ]
        result = ContinuousBatchScheduler(
            engine, max_active=2, policy=TenantFair()
        ).run(requests, meta=meta)
        # Slots fill with one request per tenant first: the second "a"
        # request waits behind the later-submitted "b" request.
        assert result.first_token_steps[2] < result.first_token_steps[1]

    def test_per_tenant_cap_limits_concurrency(self):
        engine = NovaDecodeEngine(SMALL)
        requests = batch(3)
        meta = [SequenceMeta(tenant="a") for _ in range(3)]
        result = ContinuousBatchScheduler(
            engine, max_active=2,
            policy=TenantFair(max_active_per_tenant=1),
        ).run(requests, meta=meta)
        # Free slots stay empty rather than exceed the tenant cap.
        assert result.peak_active == 1

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="max_active_per_tenant"):
            TenantFair(max_active_per_tenant=0)


# ----------------------------------------------------------------------
# Every policy: bit-exact against solo generate.
# ----------------------------------------------------------------------


class TestSoloExactness:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("paged", [False, True])
    def test_policy_outputs_solo_exact(self, name, paged):
        engine = NovaDecodeEngine(SMALL)
        requests = [
            toy_request(seed=i, max_new_tokens=2 + i) for i in range(4)
        ]
        meta = [
            SequenceMeta(
                arrival=float(5 * i),
                priority=i % 2,
                tenant="ab"[i % 2],
                deadline=200.0 + 100.0 * i,
            )
            for i in range(4)
        ]
        result = ContinuousBatchScheduler(
            engine, max_active=2, paged=paged, policy=POLICIES[name]()
        ).run(requests, meta=meta)
        for request, got in zip(requests, result.results):
            ref = engine.generate(request)
            assert np.array_equal(got.generated, ref.generated)
            assert got.vector_cycles == ref.vector_cycles
            assert got.counters.as_dict() == ref.counters.as_dict()


# ----------------------------------------------------------------------
# Policy protocol violations fail loudly.
# ----------------------------------------------------------------------


class BadAdmitter(FCFS):
    """Admits a sequence that is already in flight."""

    name = "bad-admitter"

    def admit_next(self, waiting, in_flight, now):
        if in_flight:
            return in_flight[0]
        return super().admit_next(waiting, in_flight, now)


class BadPreemptor(FCFS):
    """Names a waiting sequence as a preemption victim."""

    name = "bad-preemptor"

    def preemptions(self, waiting, active, now, free_slots):
        return [waiting[0]] if waiting and active else []


class RetiredStepper(FCFS):
    """Schedules a sequence that already retired."""

    name = "retired-stepper"

    def __init__(self):
        self.seen = None

    def step_order(self, active, now):
        if self.seen is not None and active and self.seen not in active:
            return [self.seen]
        if active:
            self.seen = active[0]
        return list(active)


class DoubleStepper(FCFS):
    """Schedules the first active sequence twice in one step."""

    name = "double-stepper"

    def step_order(self, active, now):
        return [*active, active[0]] if active else []


class DoublePreemptor(FCFS):
    """Names the same active sequence as a preemption victim twice."""

    name = "double-preemptor"

    def preemptions(self, waiting, active, now, free_slots):
        return [active[0], active[0]] if waiting and active else []


class NoneAdmitter(FCFS):
    """Admits nothing, even with nothing in flight."""

    name = "none-admitter"

    def __init__(self):
        self.calls = []

    def admit_next(self, waiting, in_flight, now):
        self.calls.append((list(waiting), list(in_flight)))
        return None


class TestPolicyValidation:
    def test_admitting_nothing_while_idle_blames_the_policy(self):
        """An idle pool is empty and every request fits it alone, so a
        stall with nothing in flight is the policy's, not memory's."""
        engine = NovaDecodeEngine(SMALL)
        policy = NoneAdmitter()
        with pytest.raises(ValueError, match="none-admitter"):
            ContinuousBatchScheduler(
                engine, max_active=2, policy=policy
            ).run(batch(3))
        waiting, in_flight = policy.calls[-1]
        assert [seq.index for seq in waiting] == [0, 1, 2]
        assert all(seq.admitted_at == -1 for seq in waiting)
        assert in_flight == []

    def test_admitting_non_waiting_sequence_raises(self):
        engine = NovaDecodeEngine(SMALL)
        with pytest.raises(ValueError, match="bad-admitter"):
            ContinuousBatchScheduler(
                engine, max_active=2, policy=BadAdmitter()
            ).run(batch(2))

    def test_preempting_non_active_sequence_raises(self):
        engine = NovaDecodeEngine(SMALL)
        meta = [SequenceMeta(arrival=0.0), SequenceMeta(arrival=0.0)]
        with pytest.raises(ValueError, match="bad-preemptor"):
            ContinuousBatchScheduler(
                engine, max_active=1, policy=BadPreemptor()
            ).run(batch(2), meta=meta)

    def test_stepping_retired_sequence_raises(self):
        engine = NovaDecodeEngine(SMALL)
        with pytest.raises(ValueError, match="retired-stepper"):
            ContinuousBatchScheduler(
                engine, max_active=1, policy=RetiredStepper()
            ).run(batch(2))

    def test_stepping_a_sequence_twice_raises(self):
        """A duplicate in ``step_order`` would plan two passes on one
        cache; the answer is rejected whole, before any plan."""
        engine = NovaDecodeEngine(SMALL)
        with pytest.raises(ValueError, match="double-stepper"):
            ContinuousBatchScheduler(
                engine, max_active=2, policy=DoubleStepper()
            ).run(batch(2))

    def test_preempting_a_sequence_twice_raises_before_any_preemption(self):
        engine = NovaDecodeEngine(SMALL)
        meta = [SequenceMeta(arrival=0.0), SequenceMeta(arrival=0.0)]
        scheduler = ContinuousBatchScheduler(
            engine, max_active=1, policy=DoublePreemptor()
        )
        with pytest.raises(ValueError, match="double-preemptor"):
            scheduler.run(batch(2), meta=meta)
        assert scheduler.preemptions == 0

    def test_meta_length_mismatch_raises(self):
        engine = NovaDecodeEngine(SMALL)
        with pytest.raises(ValueError, match="SequenceMeta entries"):
            ContinuousBatchScheduler(engine).run(
                batch(2), meta=[SequenceMeta()]
            )


# ----------------------------------------------------------------------
# Registry / construction.
# ----------------------------------------------------------------------


class TestBuildPolicy:
    def test_resolves_every_registered_name(self):
        for name in POLICIES:
            assert build_policy(name).name == name

    def test_passes_policy_objects_through(self):
        policy = TenantFair(max_active_per_tenant=2)
        assert build_policy(policy) is policy

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="slo-aware"):
            build_policy("round-robin")

    def test_sequence_meta_validation(self):
        with pytest.raises(ValueError, match="arrival"):
            SequenceMeta(arrival=-1.0)
        with pytest.raises(ValueError, match="deadline"):
            SequenceMeta(arrival=10.0, deadline=10.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_sequence_meta_rejects_non_finite_times(self, value):
        """The waiting queue orders by arrival and deadline, so both
        must be totally ordered: NaN used to be accepted (and then
        blamed on the policy), infinity sent the clock to infinity."""
        with pytest.raises(ValueError, match="arrival must be finite"):
            SequenceMeta(arrival=value)
        with pytest.raises(ValueError, match="deadline must be finite"):
            SequenceMeta(arrival=1.0, deadline=value)
