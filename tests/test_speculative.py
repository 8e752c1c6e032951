"""Speculative decode: draft-and-verify over paged KV, pinned end to end.

The contract under test (see :mod:`repro.core.speculative`): for *any*
draft model, speculative generation produces bit-identical tokens, an
identical final KV state and the identical closed-form
sequential-equivalent cycle bill as plain
:meth:`~repro.core.decode.NovaDecodeEngine.generate` — drafts only
change how many overlay passes it takes.  Around that sit the rollback
mechanics (``truncate`` on both cache layouts, atomic
``BlockPoolExhausted`` handling mid-draft), the acceptance accounting,
the continuous batcher's speculative mode (solo-equivalent per request)
and the config/session/workload/experiment wiring.
"""

import numpy as np
import pytest

from repro.core.config import NovaConfig, PRESETS, preset
from repro.core.decode import (
    ContinuousBatchScheduler,
    DecodeRequest,
    KVCache,
    KVCacheOverflow,
    NovaDecodeEngine,
)
from repro.core.paging import (
    BlockPool,
    BlockPoolExhausted,
    PagedKVCache,
    worst_case_blocks,
)
from repro.core.session import NovaSession
from repro.core.speculative import (
    DraftBranch,
    DraftModel,
    DraftTree,
    NGramDraft,
    ScheduledDraft,
    TruncatedTableDraft,
    host_step_output,
)
from repro.serving.policies import FCFS
from repro.workloads.bert import fidelity_for_acceptance, speculative_decode_batch
from repro.workloads.transformer import TransformerConfig, decode_request
from tests.queue_checks import QueueChecked

#: Small shared geometry: tables/schedules compile once per module.
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
ENGINE = NovaDecodeEngine(SMALL)
#: The geometry's default draft chain ("1x4"), passed per call.
CHAIN = SMALL.spec_tree
#: The same geometry with 2-token KV blocks, for pool-pressure tests.
ENGINE_BS2 = NovaDecodeEngine(SMALL.replace(kv_block_size=2))


def toy_model(hidden=16, heads=2, seq_len=64):
    return TransformerConfig(
        "spec-toy", layers=1, hidden=hidden, heads=heads,
        intermediate=4 * hidden, seq_len=seq_len, causal=True,
    )


def toy_request(prompt_len=5, max_new_tokens=6, seed=0, window=None,
                **model_kwargs):
    return decode_request(
        toy_model(**model_kwargs), prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed, window=window,
    )


def ngram_proposal(draft, x, position):
    """An n-gram draft's width-1 answer for a one-branch level at ``x``
    (the n-gram draft reads only the branch's input embedding)."""
    ((proposal,),) = draft.propose_candidates(
        None, [DraftBranch(x, None, None)], position, 1
    )
    return proposal


# ----------------------------------------------------------------------
# Rollback primitive: truncate on both cache layouts.
# ----------------------------------------------------------------------


class TestTruncate:
    def test_contiguous_truncate_drops_newest(self):
        cache = KVCache(2, 3, capacity=8)
        rows = [
            (np.full((2, 3), i), np.full((2, 3), -i)) for i in range(5)
        ]
        for k, v in rows:
            cache.append(k, v)
        cache.truncate(2)
        assert cache.length == 3
        assert cache.start_position == 0
        assert np.array_equal(cache.keys[0, -1], rows[2][0][0])
        # the next append overwrites the rolled-back slot
        cache.append(*rows[0])
        assert cache.length == 4
        assert np.array_equal(cache.keys[0, -1], rows[0][0][0])

    def test_paged_truncate_frees_tail_blocks(self):
        pool = BlockPool(1, 2, block_size=2, n_blocks=4)
        cache = PagedKVCache(pool, capacity=8)
        for i in range(5):
            cache.append(np.full((1, 2), i), np.full((1, 2), i))
        assert cache.blocks_in_use == 3    # 5 tokens over 2-slot blocks
        cache.truncate(1)                  # 4 tokens -> 2 blocks
        assert cache.blocks_in_use == 2
        assert pool.in_use == 2
        assert pool.live_tokens == 4
        cache.truncate(3)                  # 1 token -> 1 block
        assert cache.blocks_in_use == 1
        assert np.array_equal(cache.keys, np.zeros((1, 1, 2)))
        cache.truncate(1)                  # empty -> everything freed
        assert cache.blocks_in_use == 0
        assert pool.in_use == 0
        assert pool.live_tokens == 0

    def test_truncate_validation(self):
        cache = KVCache(1, 1, capacity=2)
        cache.append(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="cannot truncate"):
            cache.truncate(2)
        pool = BlockPool(1, 1, 2, 2)
        paged = PagedKVCache(pool, capacity=2)
        with pytest.raises(ValueError, match="cannot truncate"):
            paged.truncate(1)
        paged.truncate(0)  # no-op
        assert pool.in_use == 0

    def test_rollback_and_eviction_frees_count_identically(self):
        """The satellite bugfix pin: blocks freed by speculative
        rollback (truncate) and by window eviction go through the same
        pool accounting — cumulative totals, live_tokens and the
        ``allocated - freed == in_use`` invariant agree whichever path
        freed the block."""
        def drive(free_via_truncate: bool) -> dict:
            pool = BlockPool(1, 1, block_size=2, n_blocks=4)
            cache = PagedKVCache(
                pool, capacity=8, window=4 if not free_via_truncate else None
            )
            one = np.ones((1, 1))
            for _ in range(6):
                if free_via_truncate and cache.length == 4:
                    cache.truncate(2)
                cache.append(one, one)
            info = pool.pool_info()
            assert (
                info["blocks_allocated"] - info["blocks_freed"]
                == info["in_use"]
            )
            return info

        evicted = drive(free_via_truncate=False)
        truncated = drive(free_via_truncate=True)
        assert evicted["blocks_freed"] >= 1
        assert truncated["blocks_freed"] >= 1
        for info in (evicted, truncated):
            assert info["live_tokens"] <= info["in_use"] * info["block_size"]

    def test_truncate_frees_through_pool_accounting(self):
        pool = BlockPool(1, 1, 2, 2)
        cache = PagedKVCache(pool, capacity=4)
        cache.append(np.ones((1, 1)), np.ones((1, 1)))
        cache.truncate(1)
        pool.check_invariants()
        info = pool.pool_info()
        assert (info["blocks_allocated"], info["blocks_freed"]) == (1, 1)
        assert info["peak_in_use"] == 1 and info["in_use"] == 0


# ----------------------------------------------------------------------
# Draft models.
# ----------------------------------------------------------------------


class TestDraftModels:
    def test_shipped_drafts_satisfy_the_protocol(self):
        for draft in (
            TruncatedTableDraft(SMALL),
            NGramDraft(),
            ScheduledDraft(SMALL, [True]),
        ):
            assert isinstance(draft, DraftModel)

    def test_exact_truncated_table_draft_matches_the_overlay(self):
        """fidelity=1.0 proposals are bit-identical to the verification
        outputs, so every draft is accepted."""
        request = toy_request()
        spec = ENGINE.generate(
            request, draft=TruncatedTableDraft(SMALL, fidelity=1.0),
            tree=CHAIN,
        )
        assert spec.acceptance_rate == 1.0
        assert spec.rolled_back_tokens == 0
        assert spec.verify_passes < request.max_new_tokens

    def test_zero_fidelity_draft_rejects_everything_but_stays_exact(self):
        request = toy_request()
        plain = ENGINE.generate(request)
        spec = ENGINE.generate(
            request, draft=TruncatedTableDraft(SMALL, fidelity=0.0),
            tree=CHAIN,
        )
        assert spec.accepted_tokens == 0
        assert spec.rolled_back_tokens == spec.drafted_tokens
        assert spec.verify_passes == request.max_new_tokens
        assert np.array_equal(spec.generated, plain.generated)

    def test_host_step_output_matches_decode_step(self):
        """The draft substrate reproduces one decode step bit-exactly."""
        request = toy_request()
        state = ENGINE.start(request)
        pre = ENGINE.prefill(state)
        x_t = pre.outputs[-1]
        # mirror the engine: append first, then compute on the cache
        shadow = ENGINE.start(request)
        ENGINE.prefill(shadow)
        from repro.core.decode import project_token

        _, k, v = project_token(
            x_t, request.wq, request.wk, request.wv, request.n_heads
        )
        shadow.cache.append(k, v)
        predicted = host_step_output(
            request, shadow.cache, x_t,
            SMALL.table("exp"), SMALL.table("reciprocal"),
        )
        step = ENGINE.decode_step(state, x_t)
        assert np.array_equal(predicted, step.output)

    def test_ngram_draft_replays_observed_followers(self):
        draft = NGramDraft()
        x = np.array([0.25, -1.5])
        y = np.array([1.0, 2.0])
        assert np.array_equal(ngram_proposal(draft, x, 0), x)
        draft.observe(x, y, 0)
        assert np.array_equal(ngram_proposal(draft, x, 1), y)
        draft.reset()
        assert np.array_equal(ngram_proposal(draft, x, 2), x)

    def test_draft_validation(self):
        with pytest.raises(ValueError, match="fidelity"):
            TruncatedTableDraft(SMALL, fidelity=1.5)
        with pytest.raises(ValueError, match="reduced_bits"):
            TruncatedTableDraft(SMALL, reduced_bits=-1)
        with pytest.raises(ValueError, match="key_bits"):
            NGramDraft(key_bits=-1)
        with pytest.raises(ValueError, match="max_history"):
            NGramDraft(max_history=0)
        with pytest.raises(ValueError, match="at least one decision"):
            ScheduledDraft(SMALL, [])

    @pytest.mark.parametrize("seed", [-3, 1.5, "7", None])
    def test_truncated_draft_rejects_a_bad_seed_at_construction(self, seed):
        """A seed no coin key can take fails when the draft is built,
        not in the middle of a pass."""
        with pytest.raises(ValueError, match="seed"):
            TruncatedTableDraft(SMALL, fidelity=0.5, seed=seed)

    def test_truncated_draft_takes_numpy_and_wide_integer_seeds(self):
        assert TruncatedTableDraft(SMALL, seed=np.int64(3)).seed == 3
        assert TruncatedTableDraft(SMALL, seed=2**64).seed == 2**64

    def test_draft_reprs_are_informative(self):
        assert "fidelity=0.5" in repr(TruncatedTableDraft(SMALL, fidelity=0.5))
        assert "history=0" in repr(NGramDraft())
        assert "program=101" in repr(
            ScheduledDraft(SMALL, (True, False, True))
        )

    def test_ngram_history_is_bounded(self):
        draft = NGramDraft(max_history=2)
        for i in range(3):
            draft.observe(np.array([float(i)]), np.array([float(-i)]), i)
        assert len(draft._history) <= 2

    def test_ngram_eviction_is_oldest_first_not_a_wipe(self):
        """The satellite bugfix pin: crossing ``max_history`` evicts the
        single oldest entry (dict insertion order), not the whole
        history — a full wipe cratered acceptance to zero every time a
        long generation crossed the boundary."""
        draft = NGramDraft(max_history=3)
        keys = [np.array([float(i)]) for i in range(4)]
        for i, x in enumerate(keys[:3]):
            draft.observe(x, np.array([float(-i)]), i)
        draft.observe(keys[3], np.array([-3.0]), 3)
        assert len(draft._history) == 3
        # oldest (keys[0]) evicted: proposal falls back to persistence
        assert np.array_equal(ngram_proposal(draft, keys[0], 4), keys[0])
        # the two younger survivors and the newcomer still replay
        for i in (1, 2, 3):
            assert np.array_equal(
                ngram_proposal(draft, keys[i], 4),
                np.array([float(-i)]),
            )
        # re-observing a resident key refreshes, never evicts
        draft.observe(keys[1], np.array([9.0]), 5)
        assert len(draft._history) == 3
        assert np.array_equal(
            ngram_proposal(draft, keys[2], 6), np.array([-2.0])
        )

    def test_ngram_acceptance_survives_crossing_max_history(self):
        """A trajectory that settles into a cycle keeps earning
        verify-style hits after its history crosses ``max_history``:
        the cycle's keys are re-observed every lap so they stay young,
        and only the stale preamble falls out.  (The old ``clear()``
        eviction wiped the cycle along with the preamble, so hits
        collapsed every time the boundary was crossed.)"""
        draft = NGramDraft(max_history=4)
        # 4 distinct transient states, then a 3-state cycle: 7 distinct
        # keys force evictions with max_history=4
        preamble = [np.array([100.0 + i]) for i in range(4)]
        cycle = [np.array([float(i)]) for i in range(3)]
        trajectory = preamble + cycle * 5
        hits = 0
        for position, (x, nxt) in enumerate(
            zip(trajectory, trajectory[1:])
        ):
            # a proposal equal to the true next output is what the
            # verify pass would accept
            if np.array_equal(ngram_proposal(draft, x, position), nxt):
                hits += 1
            draft.observe(x, nxt, position)
        # after one learning lap, every later lap replays perfectly
        assert hits >= 3 * 3
        assert len(draft._history) == 4
        # the preamble is what got evicted, not the live cycle
        assert np.array_equal(
            ngram_proposal(draft, preamble[0], 99), preamble[0]
        )
        assert np.array_equal(
            ngram_proposal(draft, cycle[0], 99), cycle[1]
        )


# ----------------------------------------------------------------------
# The engine: bit-exactness, accounting, windows.
# ----------------------------------------------------------------------


class TestSpeculativeEngine:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_bit_exact_vs_plain_generate_on_every_preset(self, preset_name):
        session = NovaSession(preset_name)
        request = toy_request(prompt_len=4, max_new_tokens=5, seed=3)
        plain = session.generate(request)
        spec = session.generate(
            request, speculative=True,
            draft=ScheduledDraft(session.config, (True, False, True)),
        )
        assert np.array_equal(spec.generated, plain.generated)
        assert np.array_equal(spec.prefill.outputs, plain.prefill.outputs)
        assert spec.sequential_vector_cycles == plain.vector_cycles

    def test_exact_draft_saves_overlay_cycles(self):
        request = toy_request(prompt_len=4, max_new_tokens=8)
        plain = ENGINE.generate(request)
        spec = ENGINE.generate(
            request, draft=TruncatedTableDraft(SMALL), tree="1x4"
        )
        assert spec.vector_cycles < plain.vector_cycles
        assert spec.cycle_speedup > 1.0
        assert spec.tokens_per_pass > 1.0

    def test_windowed_request_stays_exact_and_never_evicts_drafts(self):
        request = toy_request(prompt_len=5, max_new_tokens=6, window=4)
        plain_state = ENGINE.start(request)
        plain = ENGINE.generate(request, state=plain_state)
        spec_state = ENGINE.start(request)
        spec = ENGINE.generate(
            request, state=spec_state, draft=TruncatedTableDraft(SMALL),
            tree="1x3",
        )
        assert np.array_equal(spec.generated, plain.generated)
        assert spec.sequential_vector_cycles == plain.vector_cycles
        assert spec_state.cache.start_position == plain_state.cache.start_position
        assert np.array_equal(spec_state.cache.keys, plain_state.cache.keys)
        # at the window limit every pass is draft-free (provisional
        # tokens may never evict), so the run degrades gracefully
        assert all(p.tokens == 1 for p in spec.passes[1:])

    def test_committed_steps_mirror_plain_step_accounting(self):
        request = toy_request(prompt_len=3, max_new_tokens=4)
        plain = ENGINE.generate(request)
        spec = ENGINE.generate(
            request, draft=TruncatedTableDraft(SMALL), tree=CHAIN
        )
        for plain_step, spec_step in zip(plain.steps, spec.steps):
            assert spec_step.position == plain_step.position
            assert spec_step.kv_length == plain_step.kv_length
            assert spec_step.vector_cycles == plain_step.vector_cycles
            assert spec_step.nonlinear_queries == plain_step.nonlinear_queries
            assert np.array_equal(spec_step.output, plain_step.output)
            assert np.array_equal(
                spec_step.probabilities, plain_step.probabilities
            )

    def test_zero_budget_runs_prefill_only(self):
        request = toy_request(max_new_tokens=0)
        spec = ENGINE.generate(request, tree=CHAIN)
        assert spec.n_generated == 0
        assert spec.verify_passes == 0
        assert spec.vector_cycles == spec.prefill.vector_cycles

    def test_speculative_config_validation(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            ENGINE.generate(toy_request(), tree="1x0")
        with pytest.raises(ValueError, match="must be >= 1"):
            NovaConfig(spec_tree="0x4")

    def test_config_overrides_reach_the_speculative_fields(self):
        cfg = preset("jetson-nx").with_overrides(["spec_tree=1x7"])
        assert cfg.spec_tree == "1x7"
        assert DraftTree.parse(cfg.spec_tree) == DraftTree.linear(7)
        # speculative=True plans the config's chain: the exact-LUT
        # draft's first pass is u_0 plus all seven drafts
        result = NovaSession(cfg).generate(
            toy_request(prompt_len=3, max_new_tokens=9), speculative=True
        )
        assert result.passes[0].tokens == 8

    def test_budget_overflow_rejected_at_admission(self):
        request = toy_request(prompt_len=4, max_new_tokens=2)
        with pytest.raises(KVCacheOverflow):
            ENGINE.generate(request, max_new_tokens=10 ** 6, tree=CHAIN)
        with pytest.raises(ValueError, match="max_new_tokens"):
            ENGINE.generate(request, max_new_tokens=-1, tree=CHAIN)


# ----------------------------------------------------------------------
# One home for the draft: a per-call argument, default exact-LUT.
# ----------------------------------------------------------------------


def pass_records(result):
    return [
        (p.tokens, p.drafted, p.accepted, p.committed, p.rolled_back,
         p.vector_cycles, p.counters.as_dict())
        for p in result.passes
    ]


class TestPerCallDraft:
    def test_draft_kind_is_not_a_config_field(self):
        with pytest.raises(ValueError, match="draft_kind"):
            NovaConfig.from_dict({"draft_kind": "ngram"})
        with pytest.raises(ValueError, match="draft_kind"):
            SMALL.with_overrides(["draft_kind=ngram"])

    def test_engine_takes_no_draft(self):
        with pytest.raises(TypeError, match="draft"):
            NovaDecodeEngine(SMALL, draft=NGramDraft())

    def test_default_draft_is_a_fresh_exact_lut_draft(self):
        """``draft=None`` on a drafting tree runs exactly the passes an
        explicit ``TruncatedTableDraft(config)`` does."""
        session = NovaSession(SMALL)
        request = toy_request(prompt_len=4, max_new_tokens=9)
        default = session.generate(request, speculative=True, spec_tree="2x2")
        explicit = session.generate(
            request, speculative=True, spec_tree="2x2",
            draft=TruncatedTableDraft(SMALL),
        )
        assert np.array_equal(default.generated, explicit.generated)
        assert default.verify_passes == explicit.verify_passes
        assert pass_records(default) == pass_records(explicit)
        assert default.vector_cycles == explicit.vector_cycles
        assert (
            default.sequential_vector_cycles
            == explicit.sequential_vector_cycles
        )
        assert default.counters.as_dict() == explicit.counters.as_dict()

    def test_serve_decode_with_ngram_drafts_matches_solo(self):
        """A learning draft passed per sequence stays solo-exact: the
        batched run's pass records equal solo generation's."""
        session = NovaSession(SMALL)
        requests = [
            toy_request(prompt_len=3 + i, max_new_tokens=6, seed=i)
            for i in range(3)
        ]
        batch = session.serve_decode(
            requests, max_active=2, speculative=True,
            draft_factory=NGramDraft,
        )
        for request, got in zip(requests, batch.results):
            solo = session.generate(
                request, speculative=True, draft=NGramDraft()
            )
            assert np.array_equal(got.generated, solo.generated)
            assert pass_records(got) == pass_records(solo)
            assert got.vector_cycles == solo.vector_cycles
            assert got.counters.as_dict() == solo.counters.as_dict()


# ----------------------------------------------------------------------
# Error paths: atomicity of the verification-pass plan.
# ----------------------------------------------------------------------


class _WrongShapeDraft:
    def propose_candidates(self, request, branches, position, width):
        return [[np.zeros(3)] for _ in branches]

    def observe(self, x_t, output, position):
        pass

    def reset(self):
        pass


class _MalformedLevelDraft(TruncatedTableDraft):
    """Answers the first level well, then breaks the level contract:
    ``"branches"`` drops a branch list, ``"alternatives"`` proposes one
    alternative more than the level's width."""

    def __init__(self, fault):
        # fidelity 0: two distinct wrong siblings, so level 1 forks
        super().__init__(SMALL, fidelity=0.0)
        self.fault = fault
        self.levels = 0

    def propose_candidates(self, request, branches, position, width):
        answer = super().propose_candidates(request, branches, position, width)
        self.levels += 1
        if self.levels == 1:
            return answer
        if self.fault == "branches":
            return answer[:-1]
        return [alternatives + [alternatives[0] + 1.0]
                for alternatives in answer]


class TestErrorPaths:
    def _paged_state_after_prefill(self, request, n_blocks):
        pool = BlockPool(
            request.n_heads, request.head_dim, 2, n_blocks=n_blocks
        )
        state = ENGINE.start(request, pool=pool)
        ENGINE.prefill(state)
        return state, pool

    def test_pool_exhaustion_mid_draft_is_atomic(self):
        """Running out of blocks while appending *provisional* tokens
        rolls the whole pass back: cache, position and pool return to
        their pre-pass state before the exception propagates."""
        request = toy_request(prompt_len=2, max_new_tokens=6)
        # prompt fills 1 block; 1 spare block holds u_0 + one draft,
        # the second draft's block allocation must fail mid-pass
        state, pool = self._paged_state_after_prefill(request, n_blocks=2)
        x_t = np.zeros(request.hidden)
        baseline = (state.cache.length, state.position, pool.in_use,
                    pool.live_tokens)
        with pytest.raises(BlockPoolExhausted):
            ENGINE.plan_verify_pass(
                state, x_t, budget=6, draft=TruncatedTableDraft(SMALL),
                tree="1x4",
            )
        assert (state.cache.length, state.position, pool.in_use,
                pool.live_tokens) == baseline

    def test_fallback_degrades_to_a_draft_free_pass(self):
        request = toy_request(prompt_len=2, max_new_tokens=6)
        state, pool = self._paged_state_after_prefill(request, n_blocks=2)
        spec_pass = ENGINE.plan_with_fallback(
            state, np.zeros(request.hidden), budget=6,
            draft=TruncatedTableDraft(SMALL), tree="1x4",
        )
        assert len(spec_pass.job.tokens) >= 1
        # could not fit the full depth: fewer than 4 drafts after u_0
        assert len(spec_pass.job.tokens) - 1 < 4

    def test_wrong_shape_draft_raises_with_no_net_state_change(self):
        request = toy_request(prompt_len=3, max_new_tokens=4)
        state = ENGINE.start(request)
        ENGINE.prefill(state)
        baseline = (state.cache.length, state.position)
        with pytest.raises(ValueError, match="draft proposed"):
            ENGINE.plan_verify_pass(
                state, np.zeros(request.hidden), budget=4,
                draft=_WrongShapeDraft(), tree="1x2",
            )
        assert (state.cache.length, state.position) == baseline

    @pytest.mark.parametrize("fault, message", [
        ("branches", "branch lists for a level of 2 branches"),
        ("alternatives", "3 alternatives for a width-2 level"),
    ], ids=["branches", "alternatives"])
    def test_malformed_level_answer_raises_with_no_net_state_change(
        self, fault, message
    ):
        """A second-level answer with a branch list missing, or with
        more alternatives than the width, is rejected — never silently
        cut — and the level-1 forks and appends roll back with it."""
        request = toy_request(prompt_len=2, max_new_tokens=6)
        state, pool = self._paged_state_after_prefill(request, n_blocks=16)
        baseline = (state.cache.length, state.position, pool.in_use,
                    pool.live_tokens)
        draft = _MalformedLevelDraft(fault)
        x_t = np.random.default_rng(0).standard_normal(request.hidden)
        with pytest.raises(ValueError, match=message):
            ENGINE.plan_verify_pass(
                state, x_t, budget=6, draft=draft, tree="2x2"
            )
        assert draft.levels == 2
        assert (state.cache.length, state.position, pool.in_use,
                pool.live_tokens) == baseline

    def test_bad_input_embedding_raises_before_any_state_change(self):
        request = toy_request(prompt_len=3, max_new_tokens=4)
        state = ENGINE.start(request)
        ENGINE.prefill(state)
        baseline = (state.cache.length, state.position)
        with pytest.raises(ValueError, match="hidden width"):
            ENGINE.plan_verify_pass(state, np.zeros(3), budget=4, tree=CHAIN)
        assert (state.cache.length, state.position) == baseline

    def test_pass_budget_validation(self):
        request = toy_request()
        state = ENGINE.start(request)
        ENGINE.prefill(state)
        with pytest.raises(ValueError, match="budget"):
            ENGINE.plan_verify_pass(
                state, np.zeros(request.hidden), budget=0, tree=CHAIN
            )

    def test_fallback_propagates_when_even_u0_cannot_allocate(self):
        """When the committed token itself cannot get a block, the
        draft-free fallback fails too and the exhaustion propagates
        with cache and pool untouched — the scheduler's defer signal."""
        request = toy_request(prompt_len=2, max_new_tokens=4)
        state, pool = self._paged_state_after_prefill(request, n_blocks=1)
        assert pool.free_blocks == 0
        baseline = (state.cache.length, state.position, pool.in_use)
        with pytest.raises(BlockPoolExhausted):
            ENGINE.plan_with_fallback(
                state, np.zeros(request.hidden), budget=4,
                draft=TruncatedTableDraft(SMALL), tree=CHAIN,
            )
        assert (state.cache.length, state.position, pool.in_use) == baseline


# ----------------------------------------------------------------------
# Continuous batching with verification passes in the stream.
# ----------------------------------------------------------------------


class TestSchedulerSpeculative:
    def _requests(self, budgets=(5, 2, 7), prompts=(3, 5, 4), seed=0):
        return [
            toy_request(prompt_len=p, max_new_tokens=b, seed=seed + i)
            for i, (p, b) in enumerate(zip(prompts, budgets))
        ]

    def _factory(self, fidelity=0.8, seed=9):
        def factory():
            return TruncatedTableDraft(SMALL, fidelity=fidelity, seed=seed)

        return factory

    def _solo(self, requests, factory):
        return [
            ENGINE.generate(r, draft=factory(), tree=CHAIN)
            for r in requests
        ]

    def assert_solo_equivalent(self, solo, batch):
        for ref, got in zip(solo, batch.results):
            assert np.array_equal(got.generated, ref.generated)
            assert got.vector_cycles == ref.vector_cycles
            assert got.sequential_vector_cycles == ref.sequential_vector_cycles
            assert got.verify_passes == ref.verify_passes
            assert got.drafted_tokens == ref.drafted_tokens
            assert got.accepted_tokens == ref.accepted_tokens
            assert got.rolled_back_tokens == ref.rolled_back_tokens
            assert got.counters.as_dict() == ref.counters.as_dict()

    def test_interleaved_passes_match_solo_exactly(self):
        """Requests joining and leaving mid-stream (mixed prompts and
        budgets, max_active below the batch size) stay token-, cycle-
        and counter-exact against solo speculative generation."""
        requests = self._requests(budgets=(5, 2, 7, 3), prompts=(3, 5, 4, 2))
        factory = self._factory()
        solo = self._solo(requests, factory)
        scheduler = ContinuousBatchScheduler(
            ENGINE, max_active=2, spec_tree=CHAIN, draft_factory=factory
        )
        batch = scheduler.run(requests)
        self.assert_solo_equivalent(solo, batch)
        assert batch.scheduler_steps < sum(r.verify_passes for r in solo) + len(
            requests
        )

    def test_paged_speculative_serving_matches_solo(self):
        requests = self._requests()
        factory = self._factory()
        solo = self._solo(requests, factory)
        scheduler = ContinuousBatchScheduler(
            NovaDecodeEngine(SMALL.replace(kv_block_size=4)), max_active=3,
            spec_tree=CHAIN, paged=True, draft_factory=factory,
        )
        batch = scheduler.run(requests)
        self.assert_solo_equivalent(solo, batch)
        assert batch.paging is not None
        assert batch.paging["in_use"] == 0
        assert (
            batch.paging["blocks_allocated"] == batch.paging["blocks_freed"]
        )

    def test_tight_pool_defers_but_stays_exact(self):
        """A pool too small for every sequence's drafts forces
        draft-free passes and deferrals; results stay solo-exact (the
        per-request pass structure may differ, so only tokens and the
        sequential-equivalent bill are compared)."""
        requests = self._requests(budgets=(6, 6), prompts=(3, 3))
        factory = self._factory(fidelity=1.0)
        solo = self._solo(requests, factory)
        policy = QueueChecked(FCFS())
        scheduler = ContinuousBatchScheduler(
            ENGINE_BS2, max_active=2, spec_tree=CHAIN, paged=True,
            pool_blocks=6, draft_factory=factory, policy=policy,
        )
        batch = scheduler.run(requests)
        assert policy.checks > 0
        for ref, got in zip(solo, batch.results):
            assert np.array_equal(got.generated, ref.generated)
            assert (
                got.sequential_vector_cycles == ref.sequential_vector_cycles
            )
        scheduler.block_pool.check_invariants()

    def test_preemption_under_speculation_recomputes_exactly(self):
        """A pool that cannot hold two speculating sequences forces
        deferrals and a preemption-by-recomputation; the preempted
        request restarts from its prompt (draft reset included) and
        still finishes bit-identical to solo speculative generation."""
        requests = self._requests(budgets=(6, 6), prompts=(3, 3))
        factory = self._factory(fidelity=1.0)
        solo = self._solo(requests, factory)
        policy = QueueChecked(FCFS())
        scheduler = ContinuousBatchScheduler(
            ENGINE_BS2, max_active=2, spec_tree=CHAIN, paged=True,
            pool_blocks=5, draft_factory=factory, policy=policy,
        )
        batch = scheduler.run(requests)
        assert batch.deferrals > 0
        assert batch.preemptions > 0
        assert policy.checks > 0
        for ref, got in zip(solo, batch.results):
            assert np.array_equal(got.generated, ref.generated)
            assert (
                got.sequential_vector_cycles == ref.sequential_vector_cycles
            )
        scheduler.block_pool.check_invariants()

    def test_speculative_kwargs_need_speculative_mode(self):
        """The session is the one home of ``speculative=``: a tree or
        a draft factory without it is rejected there, on every serving
        surface."""
        session = NovaSession(SMALL)
        requests = self._requests()
        with pytest.raises(ValueError, match="speculative=True"):
            session.serve_decode(requests, spec_tree="1x4")
        with pytest.raises(ValueError, match="speculative=True"):
            session.serve_decode(requests, draft_factory=lambda: None)
        with pytest.raises(ValueError, match="speculative=True"):
            session.serve_async([], spec_tree="1x4")

    def test_scheduler_without_a_tree_is_plain_decode(self):
        """Below the session the tree alone decides: the scheduler's
        ``spec_tree=None`` is the depth-0 tree, so a draft factory is
        never called and every pass is one draft-free token."""
        requests = self._requests()

        def never():
            raise AssertionError("the depth-0 tree drafts nothing")

        batch = ContinuousBatchScheduler(
            ENGINE, max_active=2, draft_factory=never
        ).run(requests)
        plain = [ENGINE.generate(r) for r in requests]
        self.assert_solo_equivalent(plain, batch)
        assert all(
            p.tokens == 1 for r in batch.results for p in r.passes
        )


# ----------------------------------------------------------------------
# Session, workloads, experiment wiring.
# ----------------------------------------------------------------------


class TestSessionAndWorkloads:
    def test_session_generate_speculative_kwargs_validated(self):
        session = NovaSession(SMALL)
        request = toy_request()
        with pytest.raises(ValueError, match="speculative=True"):
            session.generate(request, spec_tree="1x4")
        with pytest.raises(ValueError, match="speculative=True"):
            session.generate(request, draft=NGramDraft())

    def test_session_holds_no_speculative_engine(self):
        """The draft's one home is the per-call argument: the session
        keeps no second engine with a resident default draft."""
        session = NovaSession(SMALL)
        assert not hasattr(session, "speculator")
        assert not hasattr(session, "_speculator")

    def test_session_serve_decode_speculative(self):
        session = NovaSession(SMALL)
        requests = [
            toy_request(prompt_len=3, max_new_tokens=4, seed=i)
            for i in range(3)
        ]
        batch = session.serve_decode(requests, speculative=True)
        for request, result in zip(requests, batch.results):
            plain = session.generate(request)
            assert np.array_equal(result.generated, plain.generated)
            assert result.sequential_vector_cycles == plain.vector_cycles

    def test_fidelity_for_acceptance_inverts_the_pass_model(self):
        for target, k in ((0.5, 4), (0.8, 8), (0.95, 2)):
            f = fidelity_for_acceptance(target, k)
            expected = sum(f ** i for i in range(1, k + 1)) / k
            assert expected == pytest.approx(target, abs=1e-9)
        assert fidelity_for_acceptance(0.0, 4) == 0.0
        assert fidelity_for_acceptance(1.0, 4) == 1.0
        with pytest.raises(ValueError, match="acceptance_rate"):
            fidelity_for_acceptance(1.5, 4)
        with pytest.raises(ValueError, match="depth"):
            fidelity_for_acceptance(0.5, 0)

    def test_speculative_decode_batch_builds_tuned_drafts(self):
        requests, factory = speculative_decode_batch(
            toy_model(), 3, acceptance_rate=0.9, prompt_len=4,
            max_new_tokens=5, seed=1, config=SMALL,
        )
        assert len(requests) == 3
        draft = factory()
        assert isinstance(draft, TruncatedTableDraft)
        assert draft.fidelity == pytest.approx(
            fidelity_for_acceptance(0.9, 4)
        )
        # one fresh draft per sequence, each with its own coin seed (a
        # shared seed would replay one short coin sequence batch-wide
        # and make the measured acceptance a single sample)
        second = factory()
        assert second is not draft
        assert draft.seed == 1
        assert second.seed == 2

    def test_acceptance_model_rejects_a_draft_tree(self):
        """The fidelity solve models a linear chain, so the speculative
        workload and study name the tree study instead of guessing."""
        from repro.eval.experiments import speculative_decode_speedup

        tree_cfg = SMALL.replace(spec_tree="2x2")
        with pytest.raises(ValueError, match="--speculative-tree"):
            speculative_decode_batch(toy_model(), 1, config=tree_cfg)
        with pytest.raises(ValueError, match="--speculative-tree"):
            speculative_decode_speedup(
                model_name=toy_model(), batch_size=1, config=tree_cfg,
                warmup=False,
            )

    def test_speculative_experiment_smoke(self):
        from repro.eval.experiments import speculative_decode_speedup

        result = speculative_decode_speedup(
            model_name=toy_model(), batch_size=2, prompt_len=3,
            max_new_tokens=4, config=SMALL.replace(spec_tree="1x3"),
            warmup=False,
        )
        assert len(result.rows) == 3
        assert result.rows[0][0].startswith("plain")

    def test_speculative_experiment_rejects_zero_budget(self):
        from repro.eval.experiments import speculative_decode_speedup

        with pytest.raises(ValueError, match="max_new_tokens"):
            speculative_decode_speedup(max_new_tokens=0)
