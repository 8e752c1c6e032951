"""Tests for the decode-step hot path.

The contracts pinned here (the closed-form accounting and free table
switching are pinned next to the engines they belong to, in
``test_decode.py`` and ``test_core_vector_unit.py``):

* counter bags convert from int64 vectors over the fixed
  ``OVERLAY_EVENTS`` index without losing or inventing an event;
* FCFS admits arrived requests in submission order, even when they
  arrive out of that order;
* the copies the decode step no longer makes are bit-identity
  properties, probed byte for byte (dtype, shape and ``tobytes()``):
  a prompt projected in one call against one call per row, a context
  GEMV over a view of a row store with spare rows against the same
  values copied, and a lane stream packed in one copy against
  concatenate-then-pad;
* the ``keys`` / ``values`` views show only the live span, on every
  cache class, and a decode plan holds a view of the store, not a copy.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import decode
from repro.core.attention import pack_lane_stream
from repro.core.config import NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    KVCache,
    NovaDecodeEngine,
    SequenceMeta,
    context_for_query,
    project_token,
)
from repro.core.paging import BlockPool, PagedKVCache, ReservedKVCache
from repro.noc.stats import OVERLAY_EVENTS, EventCounters
from repro.serving.policies import FCFS
from repro.workloads.transformer import TransformerConfig, decode_request

SMALL = NovaConfig(n_routers=2, neurons_per_router=8)


def toy_request(prompt_len=4, max_new_tokens=3, seed=0, window=None):
    model = TransformerConfig(
        "toy", layers=1, hidden=16, heads=2, intermediate=64, seq_len=64,
        causal=True,
    )
    return decode_request(
        model, prompt_len=prompt_len, max_new_tokens=max_new_tokens,
        seed=seed, window=window,
    )


class TestCounterVectors:
    def test_from_vector_keeps_nonzero_events_in_index_order(self):
        vector = np.zeros(len(OVERLAY_EVENTS), dtype=np.int64)
        vector[OVERLAY_EVENTS.index("tag_match")] = 7
        vector[OVERLAY_EVENTS.index("comparator_eval")] = 3
        bag = EventCounters.from_vector(vector)
        assert list(bag.counts) == ["comparator_eval", "tag_match"]
        assert bag.get("tag_match") == 7
        assert all(isinstance(n, int) for n in bag.counts.values())


class TestAdmissionOrder:
    def test_fcfs_admits_arrived_requests_in_submission_order(self):
        """Arrivals out of submission order: once both have arrived,
        the earlier-submitted request is admitted first."""
        engine = NovaDecodeEngine(SMALL)
        requests = [toy_request(seed=i) for i in range(3)]
        meta = [
            SequenceMeta(arrival=5.0),
            SequenceMeta(arrival=0.0),
            SequenceMeta(arrival=1.0),
        ]
        result = ContinuousBatchScheduler(
            engine, max_active=1, policy=FCFS()
        ).run(requests, meta)
        # request 1 runs alone first; by its finish both others have
        # arrived, so submission order (0 before 2) decides.
        steps = result.first_token_steps
        assert steps[1] < steps[0] < steps[2]


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


#: (hidden, heads) of the probed projections: the toy model, two small
#: ones and GPT-2's width.
PROJECTION_SHAPES = [(16, 2), (64, 4), (128, 4), (768, 12)]


class TestBitIdentityProbes:
    @given(
        shape=st.sampled_from(PROJECTION_SHAPES),
        n=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(shape=(16, 2), n=2, seed=0)
    @example(shape=(768, 12), n=64, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_projecting_rows_matches_one_call_per_row(self, shape, n, seed):
        """A prompt projected in one call gives, row for row, the bytes
        of projecting each row alone: a stack of gemvs, not a gemm."""
        hidden, heads = shape
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, hidden))
        w = rng.standard_normal((3, hidden, hidden)) / math.sqrt(hidden)
        rows = project_token(x, *w, heads)
        for i in range(n):
            for got, want in zip(rows, project_token(x[i], *w, heads)):
                assert_same_bytes(got[i], want)

    @given(
        heads=st.integers(min_value=1, max_value=12),
        head_dim=st.integers(min_value=8, max_value=64),
        kv_len=st.integers(min_value=1, max_value=257),
        spare=st.integers(min_value=0, max_value=39),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_context_over_a_store_view_matches_a_copy(
        self, heads, head_dim, kv_len, spare, seed
    ):
        """The context GEMV reads the row store's live span as a view
        (strided past spare rows) and gives the bytes of a copy."""
        rng = np.random.default_rng(seed)
        store = rng.standard_normal((heads, kv_len + spare, head_dim))
        view = store[:, :kv_len]
        probs = rng.random((heads, kv_len))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert_same_bytes(
            context_for_query(probs, view),
            context_for_query(probs, view.copy()),
        )

    @given(
        groups=st.lists(
            st.tuples(
                st.booleans(),                           # array group?
                st.integers(min_value=1, max_value=5),   # members
                st.lists(
                    st.integers(min_value=1, max_value=7),
                    min_size=0, max_size=2,
                ),                                       # member shape
            ),
            min_size=1, max_size=5,
        ),
        lane_shape=st.sampled_from([(1, 1), (2, 8), (3, 5), (4, 16)]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_packing_matches_concatenate_then_pad(
        self, groups, lane_shape, seed
    ):
        """Mixed parts (whole arrays, as the reciprocal stream's
        mantissas, and arrays member by member, as the exp stream's
        score rows; ``_run_stream`` passes both) pack to the bytes of
        the old concatenate-then-pad stream, zero tail included."""
        rng = np.random.default_rng(seed)
        parts, flat = [], []
        for is_array, members, member_shape in groups:
            group = rng.standard_normal((members, *member_shape))
            if is_array:
                parts.append(group)
            else:
                parts.extend(list(group))
            flat.append(np.stack(list(group)).reshape(-1))
        flat = np.concatenate(flat)
        lanes = lane_shape[0] * lane_shape[1]
        n_batches = -(-len(flat) // lanes)
        expected = np.zeros(n_batches * lanes)
        expected[: len(flat)] = flat
        batches, got_batches = pack_lane_stream(parts, lane_shape)
        assert got_batches == n_batches
        assert_same_bytes(batches, expected.reshape(n_batches, *lane_shape))
        assert not batches.reshape(-1)[len(flat):].any()


def _pool():
    return BlockPool(n_heads=2, head_dim=4, block_size=4, n_blocks=8)


CACHES = {
    "KVCache": lambda: KVCache(2, 4, capacity=10),
    "PagedKVCache": lambda: PagedKVCache(_pool(), capacity=10),
    "ReservedKVCache": lambda: ReservedKVCache(_pool(), capacity=10),
}


class TestValueViewBounds:
    @pytest.mark.parametrize("kind", CACHES)
    def test_only_the_live_span_is_readable(self, kind):
        """The views show exactly the live rows, in order, after a
        truncate, an evict and the compaction that moves the span to a
        new store: no rolled-back, evicted or never-written row."""
        cache = CACHES[kind]()
        rng = np.random.default_rng(0)
        live = []

        def append(n):
            for _ in range(n):
                k, v = rng.standard_normal((2, 2, 4))
                cache.append(k, v)
                live.append((k, v))

        def assert_live_span():
            for view, i in ((cache.keys, 0), (cache.values, 1)):
                expected = np.empty((2, len(live), 4))
                for row, kv in enumerate(live):
                    expected[:, row] = kv[i]
                assert_same_bytes(view, expected)

        append(3)
        assert_live_span()
        cache.truncate(1)
        live.pop()
        assert_live_span()
        cache.evict(1)
        live.pop(0)
        assert_live_span()
        # the live row sits at store row 1 of 10: the ninth append
        # finds no row past the span and compacts into a new store
        store = cache.values.base
        append(8)
        assert cache.values.base is store
        append(1)
        assert cache.values.base is not store
        assert_live_span()


class TestNoCopyPlanning:
    @pytest.mark.parametrize("window", [None, 3])
    def test_prefill_projects_once_and_reads_values_by_view(
        self, window, monkeypatch
    ):
        """One projection call per prompt; every token's values are a
        view of the cache's row store, windowed or not."""
        engine = NovaDecodeEngine(SMALL)
        calls = []

        def counting(*args):
            calls.append(args[0].shape)
            return project_token(*args)

        monkeypatch.setattr(decode, "project_token", counting)
        state = engine.start(toy_request(prompt_len=5, window=window))
        job = engine._plan_prefill(state)
        assert calls == [(5, 16)]
        for token in job.tokens:
            assert token.values.base is state.cache.values.base
            assert token.values.shape[1] == token.scores.shape[-1]
