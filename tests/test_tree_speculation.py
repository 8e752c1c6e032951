"""Tree speculation: a draft tree scored in one packed verification pass.

The contract under test (see :mod:`repro.core.speculative`): for *any*
:class:`~repro.core.speculative.DraftTree` — any branching plan, any
accept/reject pattern — tree-speculative generation produces
bit-identical tokens to plain
:meth:`~repro.core.decode.NovaDecodeEngine.generate`, the degenerate
width-1 tree stays exactly the historical linear chain, sibling
branches live on copy-on-write block-table forks whose blocks are all
returned (zero leaked pool blocks for any accept pattern), and the
commit step keeps the longest accepted branch while truncating every
other branch through the existing rollback path.  Around that sit the
``spec_tree`` config/session/scheduler/front-door wiring and the
structural tree-causal mask.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attention import (
    assemble_probabilities,
    shift_scores,
    softmax_reduction,
)
from repro.core import decode
from repro.core.config import NovaConfig, parse_tree_spec, preset
from repro.core.decode import (
    ContinuousBatchScheduler,
    DecodeState,
    NovaDecodeEngine,
    _TreeNode,
    context_for_query,
    project_token,
    scores_for_query,
)
from repro.core.paging import BlockPool, BlockPoolExhausted, PagedKVCache
from repro.core.session import NovaSession
from repro.core.speculative import (
    DraftBranch,
    DraftTree,
    NGramDraft,
    ScheduledDraft,
    TruncatedTableDraft,
    host_step_output,
    tree_causal_mask,
)
from repro.serving.frontdoor import FrontDoor
from repro.workloads.transformer import TransformerConfig, decode_request

#: Small shared geometry: tables/schedules compile once per module.
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
ENGINE = NovaDecodeEngine(SMALL)


def toy_model(hidden=16, heads=2, seq_len=64):
    return TransformerConfig(
        "tree-toy", layers=1, hidden=hidden, heads=heads,
        intermediate=4 * hidden, seq_len=seq_len, causal=True,
    )


def toy_request(prompt_len=4, max_new_tokens=6, seed=0, window=None,
                **model_kwargs):
    return decode_request(
        toy_model(**model_kwargs), prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed, window=window,
    )


def _never_called():
    raise AssertionError("the draft-free tree must never build a draft")


# ----------------------------------------------------------------------
# The spec syntax and the DraftTree value object.
# ----------------------------------------------------------------------


class TestDraftTreeSpec:
    def test_parse_tree_spec_segments(self):
        assert parse_tree_spec("2x2") == (2, 2)
        assert parse_tree_spec("1x4") == (1, 1, 1, 1)
        assert parse_tree_spec("3,2x2,1") == (3, 2, 2, 1)
        assert parse_tree_spec(" 2 , 1x2 ") == (2, 1, 1)

    def test_parse_tree_spec_rejects_malformed(self):
        for bad in ("", ",", "2x", "x2", "0x3", "2x0", "-1", "a", "2x2x2"):
            with pytest.raises(ValueError):
                parse_tree_spec(bad)
        with pytest.raises(TypeError):
            parse_tree_spec(4)

    def test_parse_tree_spec_caps_total_nodes(self):
        # 16 + 16*16 = 272 cumulative nodes > the 256 cap
        with pytest.raises(ValueError, match="node"):
            parse_tree_spec("16x2")
        assert parse_tree_spec("256x1") == (256,)

    def test_spec_round_trips_canonically(self):
        for spec, widths in (
            ("2x2", (2, 2)),
            ("4x1,2x1,1x1", (4, 2, 1)),
            ("1x4", (1, 1, 1, 1)),
        ):
            tree = DraftTree.parse(spec)
            assert tree.widths == widths
            assert DraftTree.parse(tree.spec).widths == widths
        assert DraftTree((2, 2, 1, 1)).spec == "2x2,1x2"
        assert str(DraftTree((3, 1))) == "3x1,1x1"

    def test_linear_is_the_degenerate_tree(self):
        tree = DraftTree.linear(4)
        assert tree.widths == (1, 1, 1, 1)
        assert tree.is_linear
        assert tree.depth == 4
        assert tree.max_nodes == 4
        assert not DraftTree((1, 2)).is_linear
        with pytest.raises(ValueError, match="k >= 1"):
            DraftTree.linear(0)

    def test_max_nodes_is_the_cumulative_branch_count(self):
        assert DraftTree((4, 2, 1)).max_nodes == 4 + 8 + 8
        assert DraftTree((2, 2)).max_nodes == 6

    def test_widths_validation(self):
        # No levels is legal: the depth-0 tree is plain decode.
        plain = DraftTree(())
        assert plain.depth == 0
        assert plain.max_nodes == 0
        assert plain.spec == ""
        with pytest.raises(ValueError, match=">= 1"):
            DraftTree((2, 0))

    def test_config_field_validates_and_overrides(self):
        assert NovaConfig(spec_tree="2x2").spec_tree == "2x2"
        assert NovaConfig().spec_tree == "1x4"
        with pytest.raises(ValueError):
            NovaConfig(spec_tree="0x2")
        cfg = preset("jetson-nx").with_overrides(["spec_tree=2x2,1x2"])
        assert cfg.spec_tree == "2x2,1x2"
        with pytest.raises(ValueError, match="malformed"):
            preset("jetson-nx").with_overrides(["spec_tree=none"])

    def test_engine_tree_argument_forms(self):
        # a spec string, a tree object, or None: the depth-0 tree
        assert DraftTree.of("3x1,1x1").widths == (3, 1)
        assert DraftTree.of(DraftTree((2, 1))).widths == (2, 1)
        assert DraftTree.of(None) == DraftTree(())

    def test_engine_tree_resolution_order(self):
        """The engine runs the tree it is given per call (``None``: the
        depth-0 tree); the session's ``speculative=True`` resolves an
        explicit ``spec_tree`` before the config's."""
        def records(result):
            return [
                (p.tokens, p.drafted, p.accepted, p.vector_cycles)
                for p in result.passes
            ]

        request = toy_request(prompt_len=4, max_new_tokens=9)
        session = NovaSession(SMALL.replace(spec_tree="2x2"))
        engine = session.decoder
        assert records(session.generate(request, speculative=True)) == (
            records(engine.generate(request, tree="2x2"))
        )
        assert records(
            session.generate(request, speculative=True, spec_tree="3x1,1x1")
        ) == records(engine.generate(request, tree="3x1,1x1"))
        assert records(session.generate(request)) == (
            records(engine.generate(request, tree=DraftTree(())))
        )
        # the config's linear chain: the exact-LUT default draft
        # commits u_0 and all four drafts in the first pass
        linear = NovaSession(SMALL).generate(request, speculative=True)
        assert records(linear) == records(
            ENGINE.generate(request, tree=DraftTree.linear(4))
        )
        assert linear.passes[0].tokens == 5


# ----------------------------------------------------------------------
# Bit-exactness: any tree, any draft, both cache layouts.
# ----------------------------------------------------------------------


#: The depth-0 tree (plain decode) is one more input to every
#: exactness test below.
DEPTH0 = pytest.param(DraftTree(()), id="depth0")
TREES = [DEPTH0, "1x3", "2x2", "3x1,1x2", "2x1,1x3", "2x3"]


def assert_plain_exact(result, plain):
    """Tokens and sequential cycles match plain generate; a draft-free
    run must also match its charged cycles, counters and passes."""
    assert np.array_equal(result.generated, plain.generated)
    assert result.sequential_vector_cycles == plain.vector_cycles
    if not result.drafted_tokens:
        assert result.vector_cycles == plain.vector_cycles
        assert result.counters.as_dict() == plain.counters.as_dict()
        assert result.verify_passes == plain.n_generated


class TestTreeBitExactness:
    @pytest.mark.parametrize("spec", TREES)
    @pytest.mark.parametrize("fidelity", [1.0, 0.55, 0.0])
    def test_contiguous_matches_plain_generate(self, spec, fidelity):
        request = toy_request(prompt_len=4, max_new_tokens=7)
        plain = ENGINE.generate(request)
        result = ENGINE.generate(
            request, draft=TruncatedTableDraft(SMALL, fidelity=fidelity),
            tree=spec,
        )
        assert_plain_exact(result, plain)
        assert result.n_generated == request.max_new_tokens
        assert (
            result.rolled_back_tokens
            == result.drafted_tokens - result.accepted_tokens
        )

    @pytest.mark.parametrize("spec", TREES)
    def test_paged_matches_plain_and_leaks_no_blocks(self, spec):
        request = toy_request(prompt_len=4, max_new_tokens=7)
        plain = ENGINE.generate(request)
        pool = BlockPool(request.n_heads, request.head_dim, 2, n_blocks=64)
        state = ENGINE.start(request, pool=pool)
        result = ENGINE.generate(
            request, state=state,
            draft=TruncatedTableDraft(SMALL, fidelity=0.55), tree=spec,
        )
        assert_plain_exact(result, plain)
        # every fork's blocks came back: only the live cache holds refs
        assert pool.in_use == state.cache.blocks_in_use
        assert pool.live_tokens == state.cache.length
        state.cache.reset()
        assert pool.in_use == 0
        assert pool.live_tokens == 0

    def test_final_kv_state_matches_plain(self):
        request = toy_request(prompt_len=3, max_new_tokens=6)
        plain_state = ENGINE.start(request)
        ENGINE.generate(request, state=plain_state)
        spec_state = ENGINE.start(request)
        ENGINE.generate(
            request, state=spec_state,
            draft=TruncatedTableDraft(SMALL, fidelity=0.6), tree="2x2",
        )
        assert spec_state.position == plain_state.position
        assert np.array_equal(spec_state.cache.keys, plain_state.cache.keys)
        assert np.array_equal(
            spec_state.cache.values, plain_state.cache.values
        )

    def test_windowed_request_stays_exact(self):
        request = toy_request(prompt_len=5, max_new_tokens=6, window=4)
        plain = ENGINE.generate(request)
        result = ENGINE.generate(
            request, draft=TruncatedTableDraft(SMALL, fidelity=1.0),
            tree="2x2",
        )
        assert np.array_equal(result.generated, plain.generated)
        assert result.sequential_vector_cycles == plain.vector_cycles

    def test_ngram_draft_proposes_tree_candidates(self):
        request = toy_request(prompt_len=4, max_new_tokens=8)
        plain = ENGINE.generate(request)
        result = ENGINE.generate(request, draft=NGramDraft(), tree="2x2")
        assert np.array_equal(result.generated, plain.generated)



# ----------------------------------------------------------------------
# The structural tree-causal mask and fork accounting of one pass.
# ----------------------------------------------------------------------


class TestTreeCausalMask:
    def _plan_pass(self, spec, program, pool_blocks=None):
        request = toy_request(prompt_len=4, max_new_tokens=8)
        pool = (
            BlockPool(request.n_heads, request.head_dim, 2, pool_blocks)
            if pool_blocks
            else None
        )
        state = ENGINE.start(request, pool=pool)
        pre = ENGINE.prefill(state)
        draft = ScheduledDraft(SMALL, program)
        spec_pass = ENGINE.plan_verify_pass(
            state, pre.outputs[-1], budget=8, draft=draft, tree=spec
        )
        return state, spec_pass, draft, pool

    def test_mask_is_the_ancestor_matrix(self):
        # alternating program -> distinct siblings survive dedup
        _, spec_pass, _, _ = self._plan_pass("2x2", (True, False))
        mask = tree_causal_mask(spec_pass)
        n = len(spec_pass.nodes)
        assert mask.shape == (n, n)
        assert n == 7  # root + 2 + 4
        # diagonal: every token attends to itself; column 0: the root
        # is an ancestor of every pass token
        assert mask.diagonal().all()
        assert mask[:, 0].all()
        # planning is level-ordered, so the mask is lower-triangular
        assert not np.triu(mask, k=1).any()
        # each row's ancestor chain matches the node's parent links,
        # which are token indices into the job-ordered node list
        for i, node in enumerate(spec_pass.nodes):
            assert node.token_index == i
            expected = np.zeros(n, dtype=bool)
            ancestor = node.token_index
            while ancestor is not None:
                expected[ancestor] = True
                ancestor = spec_pass.nodes[ancestor].parent
            assert np.array_equal(mask[node.token_index], expected)
        # siblings never attend to each other
        first_level = spec_pass.root.children
        assert len(first_level) == 2
        a, b = (n.token_index for n in first_level)
        assert not mask[a, b] and not mask[b, a]

    def test_one_packed_job_covers_every_branch(self):
        state, spec_pass, _, _ = self._plan_pass("2x2", (True, False))
        assert spec_pass.job.state is state
        assert len(spec_pass.job.tokens) == len(spec_pass.nodes)
        assert spec_pass.nodes[0] is spec_pass.root

    def test_forks_are_released_and_longest_branch_committed(self):
        state, spec_pass, draft, pool = self._plan_pass(
            "2x2", (True, True, False, False), pool_blocks=32
        )
        assert len(spec_pass.forks) > 0
        in_use_during = pool.in_use
        (result,), _, _ = ENGINE._execute([spec_pass.job])
        steps, pass_result = ENGINE.finish_verify_pass(
            spec_pass, result, draft=draft
        )
        assert pass_result.committed == pass_result.accepted + 1
        assert len(steps) == pass_result.committed
        # every fork block returned; only the live branch remains
        assert pool.in_use <= in_use_during
        assert pool.in_use == state.cache.blocks_in_use
        assert pool.live_tokens == state.cache.length
        assert state.cache.length == 4 + pass_result.committed


class TestCommitCopiesForkRows:
    """The commit moves the accepted path's fork-resident k/v rows into
    the live cache as planning wrote them: byte-identical to projecting
    the committed embeddings, with no projection at commit time."""

    def _commit(self, spec, pool_blocks=None, window=None, monkeypatch=None,
                program=(True, False)):
        request = toy_request(prompt_len=4, max_new_tokens=8, window=window)
        pool = (
            BlockPool(request.n_heads, request.head_dim, 2, pool_blocks)
            if pool_blocks
            else None
        )
        state = ENGINE.start(request, pool=pool)
        pre = ENGINE.prefill(state)
        draft = ScheduledDraft(SMALL, program)
        x0 = pre.outputs[-1]
        spec_pass = ENGINE.plan_verify_pass(
            state, x0, budget=8, draft=draft, tree=spec
        )
        (result,), _, _ = ENGINE._execute([spec_pass.job])
        calls = []
        if monkeypatch is not None:

            def counted(*args, **kwargs):
                calls.append(args)
                return project_token(*args, **kwargs)

            monkeypatch.setattr(decode, "project_token", counted)
        steps, pass_result = ENGINE.finish_verify_pass(
            spec_pass, result, draft=draft
        )
        # the accepted path left the live cache for a fork
        assert pass_result.accepted >= 1
        assert any(not n.in_state for n in spec_pass.nodes)
        embeddings = [x0] + [step.output for step in steps[:-1]]
        return request, state, embeddings, calls

    @staticmethod
    def _assert_rows_reprojected(request, state, embeddings):
        committed = len(embeddings)
        keys = state.cache.keys[:, -committed:]
        values = state.cache.values[:, -committed:]
        for i, embedding in enumerate(embeddings):
            _, k, v = project_token(
                embedding, request.wq, request.wk, request.wv,
                request.n_heads,
            )
            assert keys[:, i].tobytes() == k.tobytes()
            assert values[:, i].tobytes() == v.tobytes()

    @pytest.mark.parametrize("pool_blocks", [None, 32])
    @pytest.mark.parametrize("spec", ["2x2", "4x1,2x1,1x1"])
    def test_live_rows_equal_reprojected_embeddings(self, spec, pool_blocks):
        request, state, embeddings, _ = self._commit(spec, pool_blocks)
        assert state.cache.length == request.seq + len(embeddings)
        self._assert_rows_reprojected(request, state, embeddings)

    @pytest.mark.parametrize("pool_blocks", [None, 32])
    def test_rejected_only_child_stays_behind(self, pool_blocks):
        # the accepted sibling's only child extends its fork in place
        # and is rejected: the fork's last row is not on the path
        request, state, embeddings, _ = self._commit(
            "3x1,1x1", pool_blocks, program=(False, True)
        )
        assert len(embeddings) == 2
        self._assert_rows_reprojected(request, state, embeddings)

    def test_windowed_request(self):
        request, state, embeddings, _ = self._commit("2x2", window=7)
        assert state.cache.length == min(7, request.seq + len(embeddings))
        self._assert_rows_reprojected(request, state, embeddings)

    @pytest.mark.parametrize("pool_blocks", [None, 32])
    def test_commit_projects_nothing(self, monkeypatch, pool_blocks):
        _, _, _, calls = self._commit(
            "4x1,2x1,1x1", pool_blocks, monkeypatch=monkeypatch
        )
        assert calls == []


class TestLevelProjection:
    """A tree pass projects ``u_0`` in one :func:`project_token` call
    and each planned level's drafts in one rows call, not one call per
    node; the rows staged that way are the rows of projecting each
    draft alone (the bit-exactness suites above compare whole runs)."""

    @staticmethod
    def _depths(spec_pass):
        depths = []
        for node in spec_pass.nodes:
            parent = node.parent
            depths.append(0 if parent is None else depths[parent] + 1)
        return depths

    @pytest.mark.parametrize("pool_blocks", [None, 32])
    @pytest.mark.parametrize(
        "spec, draft",
        [
            ("4x1,2x1,1x1", TruncatedTableDraft(SMALL, fidelity=0.45)),
            ("2x2", ScheduledDraft(SMALL, (True, False, False))),
            ("1x4", TruncatedTableDraft(SMALL)),
            ("3x1,1x2", NGramDraft()),
        ],
    )
    def test_one_projection_for_the_root_plus_one_per_level(
        self, monkeypatch, spec, draft, pool_blocks
    ):
        request = toy_request(prompt_len=4, max_new_tokens=8)
        pool = (
            BlockPool(request.n_heads, request.head_dim, 2, pool_blocks)
            if pool_blocks
            else None
        )
        state = ENGINE.start(request, pool=pool)
        x0 = ENGINE.prefill(state).outputs[-1]
        calls = []

        def counted(x, *args, **kwargs):
            calls.append(np.shape(x))
            return project_token(x, *args, **kwargs)

        monkeypatch.setattr(decode, "project_token", counted)
        draft.reset()
        spec_pass = ENGINE.plan_verify_pass(
            state, x0, budget=8, draft=draft, tree=spec
        )
        depths = self._depths(spec_pass)
        levels = max(depths)
        assert levels >= 1
        assert len(calls) == 1 + levels
        assert calls[0] == (request.hidden,)
        for depth, shape in enumerate(calls[1:], start=1):
            assert shape == (depths.count(depth), request.hidden)
        for fork in spec_pass.forks:
            fork.reset()

    def test_a_level_with_no_drafts_ends_the_tree(self):
        class Silent(ScheduledDraft):
            def propose_candidates(self, request, branches, position, width):
                return [[] for _ in branches]

        request = toy_request(prompt_len=4, max_new_tokens=8)
        state = ENGINE.start(request)
        x0 = ENGINE.prefill(state).outputs[-1]
        spec_pass = ENGINE.plan_verify_pass(
            state, x0, budget=8, draft=Silent(SMALL, (True,)), tree="2x2"
        )
        assert len(spec_pass.nodes) == 1
        assert state.cache.length == request.seq + 1


# ----------------------------------------------------------------------
# Level proposals: one batched draft call per tree level.
# ----------------------------------------------------------------------


def _sibling_level(layout, n_branches, seed):
    """``n_branches`` sibling branches over one prefilled cache, each
    planned through the engine exactly as a tree level's nodes are."""
    window = 4 if layout == "windowed" else None
    request = toy_request(prompt_len=5, seed=seed, window=window)
    pool = (
        BlockPool(request.n_heads, request.head_dim, 2, n_blocks=64)
        if layout == "paged"
        else None
    )
    state = ENGINE.start(request, pool=pool)
    ENGINE.prefill(state)
    rng = np.random.default_rng(seed)
    branches = []
    for _ in range(n_branches):
        shadow = DecodeState(request, state.cache.fork())
        shadow.position = state.position
        x_t = rng.standard_normal(request.hidden)
        plan = ENGINE._plan_token(shadow, x_t)
        branches.append(
            DraftBranch(x_t, shadow.cache, shift_scores(plan.scores))
        )
    return request, branches, state.position


def _reference_step(request, cache, x_t, drop_to_bits):
    """The per-row host step written out op by op (one branch, one
    alternative, no batching) — an independent check of the shared
    helper's numerics."""

    def truncate(x):
        if drop_to_bits is None:
            return x
        return np.ldexp(np.round(np.ldexp(x, drop_to_bits)), -drop_to_bits)

    q, _, _ = project_token(
        x_t, request.wq, request.wk, request.wv, request.n_heads
    )
    scores = scores_for_query(q, cache.keys)
    raw = truncate(SMALL.table("exp").evaluate(shift_scores(scores)))
    numer, mantissa, exponent = softmax_reduction(raw)
    inv = truncate(SMALL.table("reciprocal").evaluate(mantissa))
    probs = assemble_probabilities(numer, inv, exponent)
    return context_for_query(probs, cache.values) @ request.wo


def _coin(seed, position, alternative, fidelity):
    key = (seed, position) if alternative == 0 else (seed, position,
                                                     alternative)
    return bool(np.random.default_rng(key).random() < fidelity)


class TestLevelProposals:
    @given(
        layout=st.sampled_from(["contiguous", "paged", "windowed"]),
        n_branches=st.integers(1, 16),
        width=st.integers(1, 4),
        fidelity=st.sampled_from([0.0, 0.45, 1.0]),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_level_batch_is_bit_identical_to_each_branch_alone(
        self, layout, n_branches, width, fidelity, seed
    ):
        """Every (branch, alternative) of one batched level call equals
        the one-branch host step with the same drop bits, bit for bit."""
        request, branches, position = _sibling_level(
            layout, n_branches, seed
        )
        draft = TruncatedTableDraft(SMALL, fidelity=fidelity, seed=seed)
        level = draft.propose_candidates(request, branches, position, width)
        assert len(level) == n_branches
        for branch, alternatives in zip(branches, level):
            assert len(alternatives) == width
            for j, got in enumerate(alternatives):
                bits = (
                    None
                    if _coin(seed, position, j, fidelity)
                    else draft.reduced_bits + j
                )
                want = host_step_output(
                    request, branch.cache, branch.x_t,
                    SMALL.table("exp"), SMALL.table("reciprocal"),
                    drop_to_bits=bits,
                )
                assert got.tobytes() == want.tobytes()
                reference = _reference_step(
                    request, branch.cache, branch.x_t, bits
                )
                assert want.tobytes() == reference.tobytes()

    def test_memoised_coins_keep_both_key_forms(self):
        draft = TruncatedTableDraft(SMALL, fidelity=0.45, seed=7)
        for position in range(48):
            for alternative in range(4):
                want = _coin(7, position, alternative, 0.45)
                assert draft._exact(position, alternative) is want
                # a memo hit answers the same coin
                assert draft._exact(position, alternative) is want
        assert len(draft._coins) == 48 * 4
        draft.reset()
        assert draft._coins == {}

    def test_scheduled_draft_cursor_is_branch_major(self):
        """Across a two-level tree the program is consumed one decision
        per (branch, alternative), branch-major, one call per level."""

        class Recording(ScheduledDraft):
            def __init__(self, config, program):
                super().__init__(config, program)
                self.calls = []

            def propose_candidates(self, request, branches, position, width):
                cursor = self._cursor
                level = super().propose_candidates(
                    request, branches, position, width
                )
                decisions = iter(
                    self.program[(cursor + i) % len(self.program)]
                    for i in range(len(branches) * width)
                )
                for branch, alternatives in zip(branches, level):
                    for j, got in enumerate(alternatives):
                        want = host_step_output(
                            request, branch.cache, branch.x_t,
                            SMALL.table("exp"), SMALL.table("reciprocal"),
                            drop_to_bits=(
                                None if next(decisions)
                                else self.reduced_bits + j
                            ),
                        )
                        assert got.tobytes() == want.tobytes()
                self.calls.append((cursor, len(branches), width))
                return level

        request = toy_request(prompt_len=4, max_new_tokens=8)
        state = ENGINE.start(request)
        pre = ENGINE.prefill(state)
        # level 1: two distinct wrong siblings; level 2: the first
        # branch's two decisions, then the second's (alternative-major
        # order would give each branch one exact and one wrong child)
        draft = Recording(
            SMALL, (False, False, True, True, False, False)
        )
        spec_pass = ENGINE.plan_verify_pass(
            state, pre.outputs[-1], budget=8, draft=draft, tree="2x2"
        )
        assert draft.calls == [(0, 1, 2), (2, 2, 2)]
        assert draft._cursor == 6
        # the first branch's exact twins dedup to one child
        first, second = spec_pass.root.children
        assert (len(first.children), len(second.children)) == (1, 2)


class TestCoinTable:
    def test_first_level_at_a_position_draws_the_rest_of_the_request(self):
        """One proposal call memoises each requested alternative's coin
        for every position the request has left, each equal to its
        ``default_rng`` coin; later positions are memo hits."""
        request, branches, position = _sibling_level("contiguous", 2, 0)
        draft = TruncatedTableDraft(SMALL, fidelity=0.45, seed=5)
        draft.propose_candidates(request, branches, position, 3)
        positions = range(position, request.total_tokens)
        assert set(draft._coins) == {
            (p, j) for p in positions for j in range(3)
        }
        for (p, j), coin in draft._coins.items():
            assert coin is _coin(5, p, j, 0.45)
        filled = dict(draft._coins)
        draft.propose_candidates(request, branches, position + 2, 2)
        assert draft._coins == filled

    @pytest.mark.parametrize("fidelity", [0.0, 1.0])
    def test_certain_coins_draw_nothing(self, fidelity):
        request, branches, position = _sibling_level("contiguous", 1, 0)
        draft = TruncatedTableDraft(SMALL, fidelity=fidelity)
        draft.propose_candidates(request, branches, position, 2)
        assert draft._coins == {}


# ----------------------------------------------------------------------
# Error paths: atomicity with forks in flight.
# ----------------------------------------------------------------------


class TestTreeErrorPaths:
    def _paged_state(self, request, n_blocks):
        pool = BlockPool(
            request.n_heads, request.head_dim, 2, n_blocks=n_blocks
        )
        state = ENGINE.start(request, pool=pool)
        ENGINE.prefill(state)
        return state, pool

    def test_pool_exhaustion_mid_tree_is_atomic(self):
        request = toy_request(prompt_len=2, max_new_tokens=6)
        state, pool = self._paged_state(request, n_blocks=2)
        baseline = (state.cache.length, state.position, pool.in_use,
                    pool.live_tokens)
        with pytest.raises(BlockPoolExhausted):
            ENGINE.plan_verify_pass(
                state, np.zeros(request.hidden), budget=6,
                draft=TruncatedTableDraft(SMALL, fidelity=0.5), tree="2x2",
            )
        assert (state.cache.length, state.position, pool.in_use,
                pool.live_tokens) == baseline

    def test_fallback_degrades_to_a_draft_free_pass(self):
        request = toy_request(prompt_len=2, max_new_tokens=6)
        state, pool = self._paged_state(request, n_blocks=2)
        spec_pass = ENGINE.plan_with_fallback(
            state, np.zeros(request.hidden), budget=6,
            draft=TruncatedTableDraft(SMALL, fidelity=0.5), tree="2x2",
        )
        assert len(spec_pass.job.tokens) >= 1
        assert len(spec_pass.forks) == 0

    def test_tight_pool_generation_still_exact_and_leak_free(self):
        request = toy_request(prompt_len=2, max_new_tokens=6)
        plain = ENGINE.generate(request)
        pool = BlockPool(request.n_heads, request.head_dim, 2, n_blocks=6)
        state = ENGINE.start(request, pool=pool)
        result = ENGINE.generate(
            request, state=state,
            draft=TruncatedTableDraft(SMALL, fidelity=0.6), tree="2x2",
        )
        assert np.array_equal(result.generated, plain.generated)
        state.cache.reset()
        assert pool.in_use == 0
        assert pool.live_tokens == 0


# ----------------------------------------------------------------------
# Scheduler, session and front-door wiring.
# ----------------------------------------------------------------------


class TestTreeWiring:
    def _requests(self, budgets=(5, 2, 7), prompts=(3, 5, 4), seed=0):
        return [
            toy_request(prompt_len=p, max_new_tokens=b, seed=seed + i)
            for i, (p, b) in enumerate(zip(prompts, budgets))
        ]

    def _factory(self, fidelity=0.6, seed=9):
        def factory():
            return TruncatedTableDraft(SMALL, fidelity=fidelity, seed=seed)

        return factory

    def _scheduler(self, spec, engine=ENGINE, **kwargs):
        """The scheduler serving ``spec``; the depth-0 tree is the plain
        scheduler, given a factory that fails the test if called."""
        if spec is None:
            scheduler = ContinuousBatchScheduler(engine, **kwargs)
            scheduler.draft_factory = _never_called
            return scheduler
        return ContinuousBatchScheduler(
            engine, spec_tree=spec, draft_factory=self._factory(), **kwargs,
        )

    def test_scheduler_tree_matches_solo_tree(self):
        requests = self._requests()
        for spec, tree in (("2x2", "2x2"), (None, DraftTree(()))):
            factory = self._factory()
            solo = [
                ENGINE.generate(r, draft=factory(), tree=tree)
                for r in requests
            ]
            batch = self._scheduler(spec, max_active=2).run(requests)
            for ref, got in zip(solo, batch.results):
                assert np.array_equal(got.generated, ref.generated)
                assert got.vector_cycles == ref.vector_cycles
                assert got.verify_passes == ref.verify_passes
                assert got.drafted_tokens == ref.drafted_tokens
                assert got.accepted_tokens == ref.accepted_tokens
                assert got.counters.as_dict() == ref.counters.as_dict()
        # the depth-0 run is plain decode, so it matches plain generate
        plain = [ENGINE.generate(r) for r in requests]
        for ref, got in zip(plain, batch.results):
            assert_plain_exact(got, ref)

    def test_paged_scheduler_tree_frees_every_block(self):
        requests = self._requests()
        plain = [ENGINE.generate(r) for r in requests]
        engine = NovaDecodeEngine(SMALL.replace(kv_block_size=4))
        for spec in ("2x1,1x2", None):
            batch = self._scheduler(
                spec, engine, max_active=3, paged=True
            ).run(requests)
            assert batch.paging is not None
            assert batch.paging["in_use"] == 0
            assert (
                batch.paging["blocks_allocated"]
                == batch.paging["blocks_freed"]
            )
            for ref, got in zip(plain, batch.results):
                assert_plain_exact(got, ref)

    def test_paged_tree_run_leaves_no_cyclic_garbage(self):
        """A paged tree-speculative run frees its tree nodes, caches and
        pool by reference counting: nothing reaches the cyclic
        collector."""
        session = NovaSession(SMALL.replace(kv_block_size=4))
        requests = self._requests()
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            batch = session.serve_decode(
                requests, max_active=3, paged=True, speculative=True,
                spec_tree="2x1,1x2", draft_factory=self._factory(),
            )
            assert batch.paging["blocks_allocated"] > 0
            del batch
            gc.collect()
            leaked = {
                type(obj).__name__ for obj in gc.garbage
                if isinstance(obj, (_TreeNode, PagedKVCache, BlockPool))
            }
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert not leaked

    def test_plain_scheduler_never_builds_a_draft(self):
        """The depth-0 tree drafts nothing, so admission never calls the
        draft factory, even under a pool tight enough to defer."""
        requests = self._requests()
        tight = NovaDecodeEngine(SMALL.replace(kv_block_size=2))
        for engine, kwargs in (
            (ENGINE, {}), (tight, {"paged": True, "pool_blocks": 8}),
        ):
            batch = self._scheduler(
                None, engine, max_active=3, **kwargs
            ).run(requests)
            assert all(r.drafted_tokens == 0 for r in batch.results)

    def test_spec_tree_kwarg_needs_speculative_mode(self):
        """Only the session takes ``speculative=``: it rejects a tree
        without it, and the scheduler and front door have no such
        flag (their ``spec_tree`` alone picks the tree)."""
        session = NovaSession(SMALL)
        with pytest.raises(ValueError, match="speculative=True"):
            session.serve_decode(self._requests(), spec_tree="2x2")
        with pytest.raises(TypeError, match="speculative"):
            ContinuousBatchScheduler(ENGINE, speculative=True)
        with pytest.raises(TypeError, match="speculative"):
            FrontDoor(ENGINE, speculative=True)

    def test_session_generate_spec_tree(self):
        session = NovaSession(SMALL)
        request = toy_request(prompt_len=4, max_new_tokens=5)
        plain = session.generate(request)
        spec = session.generate(
            request, speculative=True, spec_tree="2x2",
            draft=ScheduledDraft(SMALL, (True, False, True)),
        )
        assert np.array_equal(spec.generated, plain.generated)
        with pytest.raises(ValueError, match="speculative"):
            session.generate(request, spec_tree="2x2")

    def test_frontdoor_spec_tree_matches_solo(self):
        requests = self._requests()
        factory = self._factory()
        solo = [
            ENGINE.generate(r, draft=factory(), tree="2x2") for r in requests
        ]
        door = FrontDoor(ENGINE, spec_tree="2x2", draft_factory=factory)
        for i, r in enumerate(requests):
            door.submit(r, arrival=float(i))
        report = door.serve()
        assert report.n_requests == len(requests)
        for rid, got in door.last_results().items():
            assert np.array_equal(got.generated, solo[rid].generated)


# ----------------------------------------------------------------------
# One engine: the tree is a per-call argument.
# ----------------------------------------------------------------------


def _arrays(*arrays):
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays)


def _step_record(step):
    return (
        _arrays(step.output, step.probabilities), step.position,
        step.kv_length, step.vector_cycles, step.nonlinear_queries,
        step.drafted,
    )


def _generate_record(result):
    """Every byte and number a generate call returns."""
    return (
        _arrays(
            result.generated, result.prefill.outputs,
            result.prefill.probabilities,
        ),
        [_step_record(step) for step in result.steps],
        [
            (p.tokens, p.drafted, p.accepted, p.committed, p.rolled_back,
             p.vector_cycles, p.nonlinear_queries, p.counters.as_dict())
            for p in result.passes
        ],
        result.vector_cycles,
        result.sequential_vector_cycles,
        result.prefill.counters.as_dict(),
        result.counters.as_dict(),
    )


class TestOneEngineTreesPerCall:
    """The decode engine holds no tree: calls with different trees
    interleave on one shared engine, and each returns exactly what the
    same call returns on a fresh engine."""

    REQUEST = toy_request(prompt_len=4, max_new_tokens=7)

    def _call(self, engine, kind):
        request = self.REQUEST
        if kind == "plain":
            return _generate_record(engine.generate(request))
        if kind == "depth0":
            return _generate_record(
                engine.generate(request, tree=DraftTree(()))
            )
        if kind == "1x4":
            return _generate_record(engine.generate(request, tree="1x4"))
        if kind == "tree":
            return _generate_record(
                engine.generate(
                    request, tree="4x1,2x1,1x1",
                    draft=TruncatedTableDraft(SMALL, fidelity=0.45),
                )
            )
        state = engine.start(request)
        pre = engine.prefill(state)
        return _step_record(engine.decode_step(state, pre.outputs[-1]))

    def test_interleaved_trees_match_fresh_engines(self):
        shared = NovaDecodeEngine(SMALL)
        order = ["plain", "1x4", "tree", "step", "depth0", "tree", "1x4",
                 "step", "plain"]
        for kind in order:
            got = self._call(shared, kind)
            assert got == self._call(NovaDecodeEngine(SMALL), kind), kind

    def test_depth0_tree_is_plain_decode(self):
        engine = NovaDecodeEngine(SMALL)
        plain = self._call(engine, "plain")
        assert self._call(engine, "depth0") == plain
        # decode_step is the first committed step of plain generate
        assert self._call(engine, "step") == plain[1][0]
        # a drafting tree commits the same tokens at a different cost
        assert self._call(engine, "tree")[0][0] == plain[0][0]


# ----------------------------------------------------------------------
# The property: any tree x any accept/reject program, still exact.
# ----------------------------------------------------------------------


class TestTreeProperties:
    @given(
        widths=st.lists(st.integers(1, 3), min_size=0, max_size=3),
        program=st.lists(st.booleans(), min_size=1, max_size=10),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_tree_any_program_matches_plain(self, widths, program, seed):
        request = toy_request(prompt_len=3, max_new_tokens=5, seed=seed)
        plain = ENGINE.generate(request)
        result = ENGINE.generate(
            request, draft=ScheduledDraft(SMALL, program),
            tree=DraftTree(tuple(widths)),
        )
        assert_plain_exact(result, plain)
        assert result.n_generated == request.max_new_tokens
        assert (
            result.rolled_back_tokens
            == result.drafted_tokens - result.accepted_tokens
        )

    @given(
        widths=st.lists(st.integers(1, 3), min_size=0, max_size=2),
        program=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_tree_any_program_leaks_no_pool_blocks(self, widths, program):
        request = toy_request(prompt_len=3, max_new_tokens=5)
        plain = ENGINE.generate(request)
        pool = BlockPool(request.n_heads, request.head_dim, 2, n_blocks=48)
        state = ENGINE.start(request, pool=pool)
        result = ENGINE.generate(
            request, state=state, draft=ScheduledDraft(SMALL, program),
            tree=DraftTree(tuple(widths)),
        )
        assert_plain_exact(result, plain)
        assert pool.in_use == state.cache.blocks_in_use
        assert pool.live_tokens == state.cache.length
        state.cache.reset()
        assert pool.in_use == 0
        assert pool.live_tokens == 0
