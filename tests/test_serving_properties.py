"""Property-based tests (hypothesis) for the async serving stack.

Random **arrival programs** — request shapes x arrival times x
priorities x deadlines x tenants x pool sizes x policies — drive the
front door, and four families of invariants must survive every draw:

* **no request is lost**: every submitted request comes back, exactly
  once, served to its full generation budget, whatever the policy
  decided about ordering, deferral or preemption;
* **solo-exactness**: each request's outputs, cycles and counters are
  bit-identical to running it alone through ``generate`` — scheduling
  is when, never what;
* **conservation of the event accounting**: the result's deferral/
  preemption counts match the scheduler's per-run counts, step timing
  covers every request, and the virtual clock never runs backwards
  (TTFT/latency are positive, measured from arrival, and
  ``sum(step_cycles) == packed_vector_cycles``);
* **step-boundary invariants**: driven through ``start()``/``step()``,
  after every step the pool and the waiting queue pass their own
  checks, each request is in exactly one of waiting, active and
  finished, the clock has not moved back, and a step that ran added
  exactly one ``step_cycles`` entry — and the stepped run's result
  equals ``run()``'s on a fresh scheduler.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import NovaConfig
from repro.core.decode import (
    ContinuousBatchResult,
    ContinuousBatchScheduler,
    NovaDecodeEngine,
    SequenceMeta,
)
from repro.serving.policies import POLICIES, TenantFair
from repro.workloads.transformer import TransformerConfig, decode_request

#: Small geometry shared by every example (module scope: tables and
#: schedules compile once, each example only runs data).
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
ENGINE = NovaDecodeEngine(SMALL)
MODEL = TransformerConfig(
    "toy", layers=1, hidden=16, heads=2, intermediate=64,
    seq_len=64, causal=True,
)

#: Solo references are cached per (seed, prompt, budget): hypothesis
#: revisits similar draws, and the reference is deterministic.
_SOLO_CACHE = {}


def solo(seed, prompt_len, max_new_tokens):
    key = (seed, prompt_len, max_new_tokens)
    if key not in _SOLO_CACHE:
        _SOLO_CACHE[key] = ENGINE.generate(
            decode_request(
                MODEL, prompt_len=prompt_len,
                max_new_tokens=max_new_tokens, seed=seed,
            )
        )
    return _SOLO_CACHE[key]


request_programs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),    # prompt_len
        st.integers(min_value=1, max_value=4),    # max_new_tokens
        st.integers(min_value=0, max_value=120),  # arrival (cycles)
        st.integers(min_value=0, max_value=3),    # priority
        st.one_of(                                # deadline slack or None
            st.none(), st.integers(min_value=1, max_value=400)
        ),
        st.sampled_from(["acme", "globex"]),      # tenant
    ),
    min_size=1,
    max_size=5,
)

policies = st.one_of(
    st.sampled_from(sorted(POLICIES)),
    st.just("tenant-fair-capped"),
)


def build_policy_under_test(name):
    if name == "tenant-fair-capped":
        return TenantFair(max_active_per_tenant=1)
    return POLICIES[name]()


def step_checked(scheduler, requests, meta):
    """Drive one run through ``start``/``step``, checking the run state
    at every step boundary, and return its result."""
    scheduler.start(requests, meta=meta)
    sequences = scheduler.sequences
    clock = scheduler.now
    stepped = True
    while stepped:
        steps_before = len(scheduler.step_cycles)
        stepped = scheduler.step()
        assert len(scheduler.step_cycles) == steps_before + stepped
        scheduler.block_pool.check_invariants()
        scheduler.waiting.check_invariants()
        assert scheduler.now >= clock
        clock = scheduler.now
        # waiting (arrived), active or finished; the rest not arrived
        homes = [
            (seq in scheduler.waiting)
            + scheduler.active.count(seq)
            + (seq.finish_step >= 0)
            for seq in sequences
        ]
        assert max(homes) <= 1
        assert homes.count(0) == scheduler.waiting.upcoming
    assert not scheduler.waiting and not scheduler.active
    return scheduler.result()


def assert_same_run(got, want):
    """Every field of two continuous-batch results is equal, each
    request's generated bytes included."""
    for name in [f.name for f in fields(ContinuousBatchResult)] + [
        "scheduler_steps", "packed_vector_cycles",
        "sequential_vector_cycles",
    ]:
        a, b = getattr(got, name), getattr(want, name)
        if name == "results":
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.generated.tobytes() == y.generated.tobytes()
                assert (
                    x.prefill.outputs.tobytes() == y.prefill.outputs.tobytes()
                )
                assert x.vector_cycles == y.vector_cycles
                assert x.sequential_vector_cycles == y.sequential_vector_cycles
                assert x.counters.as_dict() == y.counters.as_dict()
                assert len(x.passes) == len(y.passes)
        elif name == "counters":
            assert a.as_dict() == b.as_dict()
        else:
            assert a == b, name


class TestArrivalProgramProperties:
    @given(
        program=request_programs,
        policy_name=policies,
        max_active=st.integers(min_value=1, max_value=3),
        paged=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_request_lost_and_solo_exact(
        self, program, policy_name, max_active, paged, data
    ):
        requests = [
            decode_request(
                MODEL, prompt_len=prompt, max_new_tokens=budget, seed=i
            )
            for i, (prompt, budget, _, _, _, _) in enumerate(program)
        ]
        meta = [
            SequenceMeta(
                arrival=float(arrival),
                priority=priority,
                tenant=tenant,
                deadline=(
                    None if slack is None else float(arrival + slack)
                ),
            )
            for (_, _, arrival, priority, slack, tenant) in program
        ]
        pool_blocks = None
        if paged:
            # Small enough to create admission pressure, but any
            # single request (capacity <= 8 tokens) always fits.
            pool_blocks = data.draw(
                st.integers(min_value=1, max_value=3), label="pool_blocks"
            )

        def fresh_scheduler():
            return ContinuousBatchScheduler(
                ENGINE,
                max_active=max_active,
                paged=paged,
                pool_blocks=pool_blocks,
                policy=build_policy_under_test(policy_name),
            )

        scheduler = fresh_scheduler()
        result = step_checked(scheduler, requests, meta)
        assert_same_run(result, fresh_scheduler().run(requests, meta=meta))

        # No request lost: one result per request, full budget served.
        assert len(result.results) == len(requests)
        for i, (prompt, budget, _, _, _, _) in enumerate(program):
            got = result.results[i]
            assert got.n_generated == budget
            ref = solo(i, prompt, budget)
            assert np.array_equal(got.generated, ref.generated)
            assert got.vector_cycles == ref.vector_cycles
            assert got.counters.as_dict() == ref.counters.as_dict()

        # Conservation: the result's event counts are exactly this
        # run's counts on the scheduler, and both are sane.
        assert result.deferrals == scheduler.deferrals
        assert result.preemptions == scheduler.preemptions
        assert result.deferrals >= 0 and result.preemptions >= 0
        if not paged and policy_name not in (
            "priority-preemptive",
        ):
            # Without memory pressure only priority challenges ever
            # preempt; everything else must run preemption-free.
            assert result.preemptions == 0

        # Step timing covers every request and the clock only moves
        # forward: land after arrival, finish no earlier than landing,
        # steps sum to the packed total.
        assert sum(result.step_cycles) == result.packed_vector_cycles
        assert len(result.step_cycles) == result.scheduler_steps
        for i, (_, _, arrival, _, _, _) in enumerate(program):
            assert 0 <= result.first_token_steps[i] <= (
                result.finish_steps[i]
            )
            assert result.first_token_times[i] > float(arrival)
            assert result.finish_times[i] >= result.first_token_times[i]
        assert result.peak_active <= max_active
