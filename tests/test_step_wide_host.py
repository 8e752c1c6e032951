"""A step's host work runs step-wide, with byte-identical outputs.

Host passes that used to run per shape group or per token now run once
per lane stream or once per weight group:

* the packed softmax's host stage is one
  :func:`~repro.core.attention.shift_scores` call over the packed exp
  stream, one :func:`~repro.core.attention.softmax_reduction` call over
  the whole exp output stream and one
  :func:`~repro.core.attention.assemble_probabilities` call over the
  whole step, whatever the shape-group count;
* the scheduler projects every scheduled pass's root ``u_0`` in one
  :func:`~repro.core.attention.project_token` rows call per weight
  identity;
* ``_execute`` projects every token's context out in one ``rows[:,
  None, :] @ wo`` call per weight identity;
* counters stay int64 rows, so a run builds one counter bag per
  request and one for the run.

The oracles here are the per-group, per-token and per-request
compositions those passes replace, written out in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import decode
from repro.core.attention import (
    assemble_probabilities,
    context_for_query,
    pack_lane_stream,
    project_token,
    shift_scores,
    softmax_reduction,
)
from repro.core.config import NovaConfig
from repro.core.decode import ContinuousBatchScheduler, NovaDecodeEngine
from repro.core.speculative import TruncatedTableDraft
from repro.core.vector_unit import NovaVectorUnit
from repro.noc import stats
from repro.noc.stats import EventCounters
from repro.workloads.transformer import TransformerConfig, decode_request

SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
ENGINE = NovaDecodeEngine(SMALL)
EXP = ENGINE.tables["exp"]
RECIP = ENGINE.tables["reciprocal"]
HEADS = 2
WEIGHTS = ("wq", "wk", "wv", "wo")


def toy_request(prompt_len, max_new_tokens, seed):
    model = TransformerConfig(
        "toy", layers=1, hidden=16, heads=HEADS, intermediate=64,
        seq_len=64, causal=True,
    )
    return decode_request(
        model, prompt_len=prompt_len, max_new_tokens=max_new_tokens,
        seed=seed,
    )


def per_group_softmax(raw):
    """The per-group host stage the stream form replaces, op by op, on
    one ``(..., row_len)`` array of exp outputs: returns the mantissas
    fed to the reciprocal table and the probabilities."""
    numer = np.maximum(raw, 0.0)
    denom = numer.sum(axis=-1, keepdims=True)
    mantissa, exponent = np.frexp(denom)
    mantissa, exponent = mantissa * 2.0, exponent - 1
    probs = numer * RECIP.evaluate(mantissa) * np.ldexp(1.0, -exponent)
    return mantissa, probs / probs.sum(axis=-1, keepdims=True)


# ----------------------------------------------------------------------
# The stream-form helpers against the per-group form.
# ----------------------------------------------------------------------


class TestStreamFormHelpers:
    @given(
        groups=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),    # rows
                st.integers(min_value=1, max_value=64),   # row length
            ),
            min_size=1, max_size=8,
        ),
        clamped_row=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_group_form(self, groups, clamped_row, seed):
        """One-element rows, rows partly clamped to 0 and any mix of row
        lengths: the stream form's mantissas and probabilities are the
        per-group form's bytes.  A row whose numerators all clamp to 0
        then raises, naming that row, instead of coming back 0 / 0."""
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(0.3, 1.0, size=g) for g in groups]
        for a in arrays:
            # every row keeps a positive numerator
            a[..., 0] = np.abs(a[..., 0]) + 2.0**-8
        raw = np.concatenate([a.reshape(-1) for a in arrays])
        numer, mantissa, exponent = softmax_reduction(raw, groups)
        probs = assemble_probabilities(
            numer, RECIP.evaluate(mantissa), exponent, groups
        )
        expected = [per_group_softmax(a) for a in arrays]
        assert mantissa.tobytes() == np.concatenate(
            [m.reshape(-1) for m, _ in expected]
        ).tobytes()
        assert probs.tobytes() == np.concatenate(
            [p.reshape(-1) for _, p in expected]
        ).tobytes()

        flat_rows = [row for a in arrays for row in a]
        index = clamped_row % len(flat_rows)
        flat_rows[index][:] = -np.abs(flat_rows[index])
        raw = np.concatenate([a.reshape(-1) for a in arrays])
        with pytest.raises(
            ValueError, match=f"softmax row {index} of the stream has no "
            "positive numerator"
        ):
            softmax_reduction(raw, groups)

    def test_an_array_is_the_one_group_case(self):
        raw = np.random.default_rng(3).normal(size=(3, 2, 7))
        numer, mantissa, exponent = softmax_reduction(raw)
        assert numer.shape == raw.shape
        assert mantissa.shape == exponent.shape == (3, 2, 1)
        probs = assemble_probabilities(
            numer, RECIP.evaluate(mantissa), exponent
        )
        want_mantissa, want = per_group_softmax(raw)
        assert mantissa.tobytes() == want_mantissa.tobytes()
        assert probs.tobytes() == want.tobytes()


def _shapes():
    kv_len = st.one_of(
        st.sampled_from([1, 2, 3, 8]), st.integers(min_value=1, max_value=64)
    )
    row = kv_len.map(lambda n: (HEADS, n))
    matrix = st.integers(min_value=1, max_value=6).map(
        lambda n: (HEADS, n, n)
    )
    return st.one_of(row, row, matrix)


def _dedicated_counters(arrays):
    """Events a dedicated single-job engine charges ``arrays``: their
    exp stream, then the per-group form's mantissas' reciprocal
    stream, each on its own padded lane batches."""
    unit = NovaVectorUnit(EXP, SMALL)
    batches, _ = pack_lane_stream(list(arrays), SMALL.lane_shape)
    exp = unit.run_stream(batches).counters
    mantissas = [
        per_group_softmax(EXP.evaluate(a))[0].reshape(-1) for a in arrays
    ]
    unit.retarget(RECIP)
    batches, _ = pack_lane_stream(mantissas, SMALL.lane_shape)
    return exp.merge(unit.run_stream(batches).counters)


class TestPackedSoftmax:
    @given(
        jobs=st.lists(
            st.lists(_shapes(), min_size=1, max_size=4),
            min_size=1, max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_group_composition(self, jobs, seed):
        """Decode rows and prefill-style matrices, jobs spanning several
        shape groups: probabilities, per-job cycles, queries and counter
        rows, and the packed cost all equal the per-group composition
        and dedicated per-job streams."""
        rng = np.random.default_rng(seed)
        scores = [
            3.0 * rng.standard_normal(shape) for job in jobs for shape in job
        ]
        # the oracle shifts each array alone; the stage shifts the stream
        shifted = [shift_scores(a) for a in scores]
        first = np.cumsum([0] + [len(job) for job in jobs[:-1]])
        probs, cycles, queries, rows, packed, packed_row = (
            ENGINE._packed_softmax(scores, first)
        )

        # Probabilities: the per-group form over each stacked group.
        shape_groups = {}
        for i, scores in enumerate(shifted):
            shape_groups.setdefault(scores.shape, []).append(i)
        for members in shape_groups.values():
            raw = EXP.evaluate(np.stack([shifted[i] for i in members]))
            _, want = per_group_softmax(raw)
            for pos, i in enumerate(members):
                assert probs[i].shape == shifted[i].shape
                assert probs[i].tobytes() == want[pos].tobytes()

        # Per-job sequential-equivalent costs.
        lanes = SMALL.n_lanes
        bounds = [*first, len(shifted)]
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            arrays = shifted[lo:hi]
            n_exp = sum(a.size for a in arrays)
            n_recip = sum(a.size // a.shape[-1] for a in arrays)
            assert cycles[j] == -(-n_exp // lanes) + -(-n_recip // lanes)
            assert queries[j] == n_exp + n_recip
            assert EventCounters.from_vector(rows[j]).as_dict() == (
                _dedicated_counters(arrays).as_dict()
            )

        # The packed cost: every array in one exp stream, every row's
        # mantissa in one reciprocal stream.
        n_exp = sum(a.size for a in shifted)
        n_recip = sum(a.size // a.shape[-1] for a in shifted)
        assert packed == -(-n_exp // lanes) + -(-n_recip // lanes)
        unit = NovaVectorUnit(EXP, SMALL)
        batches, _ = pack_lane_stream(shifted, SMALL.lane_shape)
        want = unit.run_stream(batches).counters
        unit.retarget(RECIP)
        batches, _ = pack_lane_stream(
            [
                per_group_softmax(EXP.evaluate(a))[0].reshape(-1)
                for a in shifted
            ],
            SMALL.lane_shape,
        )
        want = want.merge(unit.run_stream(batches).counters)
        assert EventCounters.from_vector(packed_row).as_dict() == (
            want.as_dict()
        )


# ----------------------------------------------------------------------
# Step-wide pass roots: grouping by weight identity changes nothing.
# ----------------------------------------------------------------------


def _requests(copy_weights):
    """Four requests over two weight sets; ``copy_weights`` gives every
    request its own copy of its set, so no two share a group."""
    owners = [toy_request(4, 8, seed) for seed in (0, 1)]
    shapes = ((3, 7), (5, 6), (4, 8), (2, 7))
    requests = []
    for i, (prompt_len, budget) in enumerate(shapes):
        owner = owners[i % 2]
        weights = {name: getattr(owner, name) for name in WEIGHTS}
        if copy_weights:
            weights = {name: m.copy() for name, m in weights.items()}
        own = toy_request(prompt_len, budget, seed=10 + i)
        requests.append(replace(own, **weights))
    return requests


PROJECT_ROOTS = decode._project_roots


def _run(requests, monkeypatch):
    """One paged tree-speculative run, recording how many weight
    groups every step's roots came in."""
    groups_per_step = []

    def recording(seqs):
        groups_per_step.append(len({id(s.request.wq) for s in seqs}))
        return PROJECT_ROOTS(seqs)

    monkeypatch.setattr(decode, "_project_roots", recording)
    scheduler = ContinuousBatchScheduler(
        NovaDecodeEngine(SMALL.replace(kv_block_size=2)), max_active=4,
        paged=True, pool_blocks=12, spec_tree="2x1,1x1",
        draft_factory=lambda: TruncatedTableDraft(SMALL, fidelity=0.6),
    )
    batch = scheduler.run(requests)
    scheduler.block_pool.check_invariants()
    return batch, groups_per_step


def _everything(batch):
    """Every byte and count of a run's results."""
    out = []
    for r in batch.results:
        out += [
            r.generated.tobytes(), r.prefill.outputs.tobytes(),
            r.prefill.probabilities.tobytes(), r.vector_cycles,
            r.sequential_vector_cycles, r.counters.as_dict(),
        ]
        out += [
            (s.output.tobytes(), s.probabilities.tobytes(), s.position,
             s.vector_cycles, s.drafted)
            for s in r.steps
        ]
        out += [
            (p.tokens, p.accepted, p.rolled_back, p.vector_cycles,
             p.counters.as_dict())
            for p in r.passes
        ]
    return out


class TestRootGrouping:
    def test_own_weight_copies_equal_shared_weights(self, monkeypatch):
        """Every request on its own weight copy (one root group per
        pass) reproduces the shared-weights run byte for byte, through
        deferrals, a preemption and depth-2 trees."""
        shared, shared_groups = _run(_requests(False), monkeypatch)
        copied, copied_groups = _run(_requests(True), monkeypatch)
        # the oracle run really has one group per scheduled pass, and
        # the shared run a step of two groups
        assert max(shared_groups) == 2
        assert max(copied_groups) == 4
        assert shared.deferrals > 0 and shared.preemptions > 0
        assert any(r.accepted_tokens > 0 for r in shared.results)
        assert _everything(copied) == _everything(shared)
        assert copied.counters.as_dict() == shared.counters.as_dict()
        assert copied.step_cycles == shared.step_cycles
        assert copied.deferrals == shared.deferrals
        assert copied.preemptions == shared.preemptions
        assert copied.paging == shared.paging


# ----------------------------------------------------------------------
# Deterministic work gates: host calls per step.
# ----------------------------------------------------------------------


class TestWorkGates:
    def test_one_softmax_pair_per_execute(self, monkeypatch):
        """One reduction and one assembly call per ``_execute``, however
        many shape groups its step packs."""
        calls = {"softmax_reduction": 0, "assemble_probabilities": 0}
        per_execute = []

        def counting(name, helper):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return helper(*args, **kwargs)
            return wrapped

        for name, helper in (
            ("softmax_reduction", softmax_reduction),
            ("assemble_probabilities", assemble_probabilities),
        ):
            monkeypatch.setattr(decode, name, counting(name, helper))
        execute = NovaDecodeEngine._execute

        def observed(self, jobs):
            calls.update(dict.fromkeys(calls, 0))
            shapes = {t.scores.shape for j in jobs for t in j.tokens}
            out = execute(self, jobs)
            per_execute.append((len(shapes), dict(calls)))
            return out

        monkeypatch.setattr(NovaDecodeEngine, "_execute", observed)
        requests = [toy_request(p, 5, seed=p) for p in (2, 6, 3, 9, 4)]
        ContinuousBatchScheduler(NovaDecodeEngine(SMALL), 3).run(requests)
        assert max(n for n, _ in per_execute) >= 5
        for _, counts in per_execute:
            assert counts == dict.fromkeys(calls, 1)

    def test_one_root_projection_per_weight_group_per_step(
        self, monkeypatch
    ):
        """Plain decode: each step projects its passes' roots in one
        rows call per weight identity (an equal copy of a weight set is
        a group of its own), one row per pass; prefills project their
        prompts apart from them."""
        requests = _requests(False)
        requests.append(
            replace(
                toy_request(3, 6, seed=20),
                **{
                    name: getattr(requests[0], name).copy()
                    for name in WEIGHTS
                },
            )
        )
        prompts = {id(r.x) for r in requests}
        calls = []

        def counting(x, *args):
            calls.append((id(x) in prompts, np.shape(x), id(args[0])))
            return project_token(x, *args)

        monkeypatch.setattr(decode, "project_token", counting)
        scheduler = ContinuousBatchScheduler(NovaDecodeEngine(SMALL), 5)
        scheduler.start(requests)
        seen_groups = set()
        while True:
            # FCFS schedules every active sequence
            groups = Counter(id(seq.request.wq) for seq in scheduler.active)
            calls.clear()
            if not scheduler.step():
                break
            roots = [(shape, wq) for prompt, shape, wq in calls if not prompt]
            assert sorted((wq, shape[0]) for shape, wq in roots) == sorted(
                groups.items()
            )
            seen_groups.add(len(groups))
        assert max(seen_groups) == 3


# ----------------------------------------------------------------------
# The stream-form shift and the per-group output projection.
# ----------------------------------------------------------------------


def per_array_shift(scores):
    """The per-array max-shift the stream form replaces, op by op."""
    return scores - scores.max(axis=-1, keepdims=True)


#: Score values with ties, both zeros and the largest score repeated.
COARSE = np.array([-0.0, 0.0, -0.0, 0.5, -0.5, 2.0, 2.0, -3.0])


class TestStreamShift:
    @given(
        jobs=st.lists(
            st.lists(_shapes(), min_size=1, max_size=4),
            min_size=1, max_size=5,
        ),
        coarse=st.booleans(),
        nan_at=st.one_of(st.none(), st.integers(min_value=0)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_array_shift(self, jobs, coarse, nan_at, seed):
        """Rows and matrices, ``kv_len`` 1-64, signed zeros and equal
        maxima: shifting the packed stream once gives the final
        probabilities and per-job counter rows of shifting every array
        alone.  A NaN score raises the exp kernel's ``ValueError`` and
        leaves the unit's lifetime counters as they were."""
        rng = np.random.default_rng(seed)
        scores = []
        for job in jobs:
            for shape in job:
                if coarse:
                    array = rng.choice(COARSE, size=shape)
                    # an all-zero row of mixed signs: its maximum is
                    # +0 or -0 depending on the reduction order
                    array.reshape(-1, shape[-1])[0] = rng.choice(
                        COARSE[:3], size=shape[-1]
                    )
                else:
                    array = 3.0 * rng.standard_normal(shape)
                scores.append(array)
        first = np.cumsum([0] + [len(job) for job in jobs[:-1]])
        if nan_at is not None:
            target = scores[nan_at % len(scores)].reshape(-1)
            target[nan_at % target.size] = np.nan
            before = ENGINE.unit._lifetime_counters().as_dict()
            with pytest.raises(ValueError, match="table 'exp': NaN input"):
                ENGINE._packed_softmax(scores, first)
            assert ENGINE.unit._lifetime_counters().as_dict() == before
            return
        probs, _, _, rows, _, _ = ENGINE._packed_softmax(scores, first)
        shifted = [per_array_shift(a) for a in scores]
        for i, array in enumerate(shifted):
            _, want = per_group_softmax(EXP.evaluate(array))
            assert probs[i].tobytes() == want.tobytes()
        bounds = [*first, len(shifted)]
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            assert EventCounters.from_vector(rows[j]).as_dict() == (
                _dedicated_counters(shifted[lo:hi]).as_dict()
            )

    def test_an_array_is_the_one_group_case(self):
        scores = np.random.default_rng(5).normal(size=(3, 2, 7))
        flat = scores.reshape(-1)
        stream = shift_scores(flat, [(6, 7)])
        assert shift_scores(scores).tobytes() == stream.tobytes()
        assert stream.tobytes() == per_array_shift(scores).tobytes()


class TestOutputProjection:
    @given(
        n_rows=st.integers(min_value=1, max_value=64),
        width=st.sampled_from([16, 64, 128]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_per_token_gemvs(self, n_rows, width, seed):
        """One ``rows[:, None, :] @ wo`` call is a stack of one-row
        products: every row's bytes are its own ``context @ wo``."""
        rng = np.random.default_rng(seed)
        wo = rng.normal(0.0, 1.0 / np.sqrt(width), size=(width, width))
        contexts = [rng.standard_normal(width) for _ in range(n_rows)]
        projected = np.array(contexts)[:, None, :] @ wo
        for i, context in enumerate(contexts):
            assert projected[i, 0].tobytes() == (context @ wo).tobytes()

    def test_a_step_matches_per_token_projection(self):
        """``_execute`` over a mixed step (prefills and decode passes of
        two weight sets): every token's output is ``context @ wo`` of
        its own probabilities and values."""
        requests = _requests(False)
        engine = NovaDecodeEngine(SMALL)
        jobs = [
            engine._plan_prefill(engine.start(r)) for r in requests[:2]
        ]
        for request in requests[2:]:
            state = engine.start(request)
            engine.prefill(state)
            jobs.append(engine.plan_verify_pass(state, request.x[-1], 1).job)
        values = [[t.values for t in job.tokens] for job in jobs]
        results, _, _ = engine._execute(jobs)
        for job, result, views in zip(jobs, results, values):
            wo = job.state.request.wo
            for probs, view, output in zip(
                result.probabilities, views, result.outputs
            ):
                want = context_for_query(probs, view) @ wo
                assert output.tobytes() == want.tobytes()


class CountingMatrix(np.ndarray):
    """A weight matrix that records every ``x @ self``."""

    calls: list[int] = []

    def __rmatmul__(self, other):
        CountingMatrix.calls.append(id(self))
        return np.asarray(other) @ np.asarray(self)


class TestStepWideGates:
    def test_one_shift_per_execute(self, monkeypatch):
        """Plain decode: one ``shift_scores`` call per ``_execute``, and
        none while planning."""
        calls = []
        monkeypatch.setattr(
            decode, "shift_scores",
            lambda *args: calls.append("shift") or shift_scores(*args),
        )
        execute = NovaDecodeEngine._execute

        def observed(self, jobs):
            calls.append("execute")
            return execute(self, jobs)

        monkeypatch.setattr(NovaDecodeEngine, "_execute", observed)
        requests = [toy_request(p, 5, seed=p) for p in (2, 6, 3, 9, 4)]
        ContinuousBatchScheduler(NovaDecodeEngine(SMALL), 3).run(requests)
        assert calls[:2] == ["execute", "shift"]
        assert calls == ["execute", "shift"] * (len(calls) // 2)

    def test_one_output_projection_per_weight_group_per_step(
        self, monkeypatch
    ):
        """Every ``_execute`` of a plain-decode run makes one ``@ wo``
        call per weight identity among its jobs, prefills and passes
        alike (an equal copy of a weight set is a group of its own),
        and the outputs are the bytes of a run on plain arrays."""
        requests = _requests(False)
        requests.append(
            replace(
                toy_request(3, 6, seed=20),
                **{
                    name: getattr(requests[0], name).copy()
                    for name in WEIGHTS
                },
            )
        )
        plain = {
            max_active: ContinuousBatchScheduler(
                NovaDecodeEngine(SMALL), max_active
            ).run(requests)
            for max_active in (3, 5)
        }
        counting = {}
        for request in requests:
            wo = counting.setdefault(
                id(request.wo), request.wo.view(CountingMatrix)
            )
            object.__setattr__(request, "wo", wo)
        per_execute = []
        execute = NovaDecodeEngine._execute

        def observed(self, jobs):
            CountingMatrix.calls = []
            out = execute(self, jobs)
            groups = {id(j.state.request.wo) for j in jobs}
            mixed = len({len(j.tokens) > 1 for j in jobs}) == 2
            per_execute.append(
                (len(groups), mixed, sorted(groups),
                 sorted(CountingMatrix.calls))
            )
            return out

        monkeypatch.setattr(NovaDecodeEngine, "_execute", observed)
        for max_active, run in plain.items():
            batch = ContinuousBatchScheduler(
                NovaDecodeEngine(SMALL), max_active
            ).run(requests)
            assert _everything(batch) == _everything(run)
        # three weight groups in one step, and steps whose calls mix
        # admissions' prefills with passes
        assert max(n for n, _, _, _ in per_execute) == 3
        assert any(mixed for _, mixed, _, _ in per_execute)
        for _, _, want, calls in per_execute:
            assert calls == want

    def test_bags_per_request_and_run(self, monkeypatch):
        """A run builds one counter bag per request (its
        ``GenerateResult``) and one for the run, through preemption
        and drafting trees; solo ``generate`` builds one."""
        built = []
        init = stats.EventCounters.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(stats.EventCounters, "__init__", counting)
        requests = _requests(False)
        scheduler = ContinuousBatchScheduler(
            NovaDecodeEngine(SMALL.replace(kv_block_size=2)), max_active=4,
            paged=True, pool_blocks=12, spec_tree="2x1,1x1",
            draft_factory=lambda: TruncatedTableDraft(SMALL, fidelity=0.6),
        )
        built.clear()
        batch = scheduler.run(requests)
        assert batch.preemptions > 0
        assert len(built) == len(requests) + 1 <= 2 * len(requests) + 1
        engine = NovaDecodeEngine(SMALL)  # its components' own bags
        built.clear()
        engine.generate(requests[0], tree="2x1")
        assert len(built) == 1


# ----------------------------------------------------------------------
# Failure: a NaN score fails the step before the unit charges anything.
# ----------------------------------------------------------------------


def test_nan_score_in_a_mixed_step_raises_and_charges_nothing():
    engine = NovaDecodeEngine(SMALL)
    jobs = [engine._plan_prefill(engine.start(toy_request(3, 2, seed=0)))]
    request = toy_request(5, 2, seed=1)
    state = engine.start(request)
    engine.prefill(state)
    jobs.append(engine.plan_verify_pass(state, request.x[-1], 1).job)
    assert len({t.scores.shape for j in jobs for t in j.tokens}) == 4
    jobs[0].tokens[1].scores[1, 0] = np.nan
    before = engine.unit._lifetime_counters().as_dict()
    with pytest.raises(ValueError, match="table 'exp': NaN input"):
        engine._execute(jobs)
    assert engine.unit._lifetime_counters().as_dict() == before

