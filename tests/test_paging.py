"""Tests for the paged KV cache (repro.core.paging) and its scheduler.

The headline contracts:

* a :class:`PagedKVCache` presents byte-identical ``keys`` / ``values``
  to a contiguous :class:`KVCache` for the same appended tokens, for
  every block size, including ones that do not divide the window;
* eviction writes no row, on every cache class: a view of the live
  span keeps its bytes until a truncate or reset, and a windowed store
  of at most ``2 * window`` rows is reallocated about once per window;
* decode over a paged cache is **bit-, cycle- and counter-exact**
  against the contiguous cache on every Table II preset (the
  equivalence gate: paging moves K/V rows, nothing else);
* the paged :class:`ContinuousBatchScheduler` admits by free blocks,
  defers starved sequences instead of crashing when the pool runs dry
  mid-step, preempts (by deterministic recomputation) when nothing can
  progress, and still returns bit-identical per-request results;
* pool accounting obeys ``n_blocks == in_use + free`` and
  ``blocks_allocated - blocks_freed == in_use`` at every point
  (:meth:`BlockPool.check_invariants`), and double-frees fail loudly;
* the block size has one home, ``NovaConfig.kv_block_size``, and pool
  statistics are per run (no process-wide registry).
"""

import math

import numpy as np
import pytest

from repro.core.config import PRESETS, NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    KVCache,
    KVCacheOverflow,
    NovaDecodeEngine,
    SequenceMeta,
)
from repro.core.paging import (
    BlockPool,
    BlockPoolExhausted,
    BlockTable,
    PagedKVCache,
    ReservedKVCache,
    blocks_needed,
    worst_case_blocks,
)
from repro.core.session import NovaSession
from repro.serving.policies import FCFS, PriorityPreemptive
from repro.workloads.bert import decode_batch, mixed_decode_batch
from repro.workloads.transformer import TransformerConfig, decode_request
from tests.queue_checks import QueueChecked

#: Small geometry for fast unit-level checks.
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
#: The same geometry with 4-token KV blocks, for pool-pressure tests.
SMALL_BS4 = SMALL.replace(kv_block_size=4)


def toy_model(hidden=16, heads=2, seq_len=64):
    return TransformerConfig(
        "toy", layers=1, hidden=hidden, heads=heads,
        intermediate=4 * hidden, seq_len=seq_len, causal=True,
    )


def token(i, n_heads=2, head_dim=4):
    """A distinguishable per-token (k, v) pair."""
    base = np.arange(n_heads * head_dim, dtype=float).reshape(
        n_heads, head_dim
    )
    return base + 100.0 * i, base - 100.0 * i


# ----------------------------------------------------------------------
# BlockPool.
# ----------------------------------------------------------------------


class TestBlockPool:
    def test_allocate_free_roundtrip_and_accounting(self):
        pool = BlockPool(2, 4, block_size=8, n_blocks=3)
        a = pool.allocate()
        b = pool.allocate()
        assert a != b
        assert pool.in_use == 2 and pool.free_blocks == 1
        assert pool.blocks_allocated == 2 and pool.blocks_freed == 0
        pool.free(a)
        assert pool.in_use == 1 and pool.free_blocks == 2
        assert pool.blocks_freed == 1
        assert pool.peak_in_use == 2
        info = pool.pool_info()
        assert info["n_blocks"] == info["in_use"] + info["free"]
        assert info["blocks_allocated"] - info["blocks_freed"] == info["in_use"]

    def test_exhaustion_raises(self):
        pool = BlockPool(1, 1, block_size=2, n_blocks=1)
        pool.allocate()
        with pytest.raises(BlockPoolExhausted, match="dry"):
            pool.allocate()

    def test_double_free_raises(self):
        pool = BlockPool(1, 1, block_size=2, n_blocks=2)
        block = pool.allocate()
        pool.free(block)
        with pytest.raises(ValueError, match="double free"):
            pool.free(block)
        with pytest.raises(ValueError, match="outside pool"):
            pool.free(99)

    def test_reserve_run_first_fit_release_and_accounting(self):
        pool = BlockPool(2, 4, block_size=2, n_blocks=5)
        a = ReservedKVCache(pool, capacity=3)      # 2 blocks: 0-1
        b = ReservedKVCache(pool, capacity=2)      # 1 block: 2
        c = ReservedKVCache(pool, capacity=4)      # 2 blocks: 3-4
        assert pool.in_use == 5 and pool.free_blocks == 0
        # the run is accounting only: the row lands in the cache itself
        k, v = token(0)
        b.append(k, v)
        assert np.array_equal(b.keys[:, 0], k)
        assert np.array_equal(b.values[:, 0], v)
        assert pool.fragmentation_slots == 5 * 2 - 1
        assert pool.pool_info()["live_tokens"] == 1
        a.reset()
        c.reset()
        assert pool.free_blocks == 4
        # four blocks free, but no run of three: nothing changes
        before = pool.pool_info()
        with pytest.raises(BlockPoolExhausted, match="no run of 3"):
            ReservedKVCache(pool, capacity=6)
        assert pool.pool_info() == before
        b.reset()
        d = ReservedKVCache(pool, capacity=10)     # the whole pool again
        assert d.keys.shape == (2, 0, 4)
        d.reset()
        info = pool.pool_info()
        assert info["in_use"] == 0 and info["live_tokens"] == 0
        assert info["blocks_allocated"] == info["blocks_freed"] == 10
        assert info["peak_in_use"] == 5
        with pytest.raises(ValueError, match="no reserved run"):
            d.reset()

    def test_constructor_validation(self):
        for field, kwargs in [
            ("n_heads", dict(n_heads=0, head_dim=1, block_size=1, n_blocks=1)),
            ("head_dim", dict(n_heads=1, head_dim=0, block_size=1, n_blocks=1)),
            ("block_size", dict(n_heads=1, head_dim=1, block_size=0, n_blocks=1)),
            ("n_blocks", dict(n_heads=1, head_dim=1, block_size=1, n_blocks=0)),
        ]:
            with pytest.raises(ValueError, match=field):
                BlockPool(**kwargs)

    def test_from_bytes_sizes_the_pool(self):
        # one block = 2 * 8 * 2 heads * 4 tokens * 3 dim = 384 bytes
        pool = BlockPool.from_bytes(2, 3, block_size=4, pool_bytes=1000)
        assert pool.block_bytes == 384
        assert pool.n_blocks == 2
        with pytest.raises(ValueError, match="smaller than one"):
            BlockPool.from_bytes(2, 3, block_size=4, pool_bytes=100)

    def test_check_invariants_holds_through_every_operation(self):
        pool = BlockPool(1, 2, block_size=2, n_blocks=8)
        pool.check_invariants()
        a = pool.allocate()
        pool.share(a)
        pool.register_prefix(b"k", a)
        holder = KVCache(1, 2, capacity=4)
        pool.reserve_run(holder, 3)
        pool.check_invariants()
        pool.free(a)  # shared: one reference left, key still published
        pool.check_invariants()
        pool.free(a)
        pool.release_run(holder)
        pool.check_invariants()
        assert pool.in_use == 0 and pool.prefix_index_size == 0

    @pytest.mark.parametrize(
        "invariant, corrupt",
        [
            pytest.param(
                "in_use \\+ free", lambda p: p._free.pop(),
                id="lost-free-block",
            ),
            pytest.param(
                "blocks_allocated",
                lambda p: setattr(p, "blocks_freed", p.blocks_freed + 1),
                id="miscounted-free",
            ),
            pytest.param(
                "free list", lambda p: p._free.__setitem__(0, 0),
                id="live-block-on-free-list",
            ),
            pytest.param(
                "refcount", lambda p: p._refcount.__setitem__(7, 1),
                id="referenced-free-block",
            ),
            pytest.param(
                "reserved runs",
                lambda p: p._runs.__setitem__(
                    KVCache(1, 2, capacity=4), (6, 2)
                ),
                id="run-over-free-blocks",
            ),
            pytest.param(
                "mutual inverses", lambda p: p._block_keys.pop(0),
                id="orphaned-prefix-key",
            ),
            pytest.param(
                "live blocks only",
                lambda p: (
                    p._prefix_index.__setitem__(b"dead", 7),
                    p._block_keys.__setitem__(7, b"dead"),
                ),
                id="prefix-on-free-block",
            ),
        ],
    )
    def test_check_invariants_names_the_broken_invariant(
        self, invariant, corrupt
    ):
        """A hand-corrupted pool raises ``RuntimeError`` (not an assert)
        naming the invariant it broke."""
        pool = BlockPool(1, 2, block_size=2, n_blocks=8)
        # blocks 0 (published) and 1 live, 2-7 free
        pool.register_prefix(b"k", pool.allocate())
        pool.allocate()
        pool.check_invariants()
        corrupt(pool)
        with pytest.raises(RuntimeError, match=invariant):
            pool.check_invariants()

    def test_blocks_needed_and_worst_case(self):
        assert blocks_needed(1, 16) == 1
        assert blocks_needed(16, 16) == 1
        assert blocks_needed(17, 16) == 2
        assert worst_case_blocks(20, None, 16) == 2
        # windowed: window straddle costs at most one extra block...
        assert worst_case_blocks(100, 5, 4) == 3
        # ...but never more than holding every token would
        assert worst_case_blocks(6, 5, 4) == 2


# ----------------------------------------------------------------------
# PagedKVCache vs the contiguous KVCache.
# ----------------------------------------------------------------------


def paired_caches(n_heads=2, head_dim=4, capacity=32, window=None,
                  block_size=3, n_blocks=32):
    pool = BlockPool(n_heads, head_dim, block_size, n_blocks)
    return (
        KVCache(n_heads, head_dim, capacity, window=window),
        PagedKVCache(pool, capacity, window=window),
        pool,
    )


class TestPagedKVCache:
    @pytest.mark.parametrize("block_size", [1, 2, 3, 5, 8])
    def test_gather_matches_contiguous(self, block_size):
        ref, paged, _ = paired_caches(block_size=block_size)
        for i in range(13):
            k, v = token(i)
            ref.append(k, v)
            paged.append(k, v)
        assert np.array_equal(ref.keys, paged.keys)
        assert np.array_equal(ref.values, paged.values)
        assert np.array_equal(ref.values[:, :7], paged.values[:, :7])
        assert paged.length == ref.length == 13
        assert paged.blocks_in_use == blocks_needed(13, block_size)

    @pytest.mark.parametrize("block_size", [2, 3, 4])
    def test_window_eviction_matches_and_frees_blocks(self, block_size):
        # window 5 with block sizes that do and do not divide it
        ref, paged, pool = paired_caches(window=5, block_size=block_size)
        for i in range(17):
            k, v = token(i)
            ref.append(k, v)
            paged.append(k, v)
            assert np.array_equal(ref.keys, paged.keys)
            assert np.array_equal(ref.values, paged.values)
            assert ref.length == paged.length
            assert ref.start_position == paged.start_position
            assert ref.evictions == paged.evictions
            assert paged.blocks_in_use <= worst_case_blocks(
                17, 5, block_size
            )
        # eviction returned head blocks to the pool
        assert pool.blocks_freed > 0
        assert pool.in_use == paged.blocks_in_use

    def test_explicit_evict_and_drain(self):
        ref, paged, pool = paired_caches(block_size=4)
        for i in range(10):
            k, v = token(i)
            ref.append(k, v)
            paged.append(k, v)
        ref.evict(6)
        paged.evict(6)
        assert np.array_equal(ref.keys, paged.keys)
        assert paged.start_position == 6
        # evicting everything releases every block
        paged.evict(paged.length)
        assert paged.blocks_in_use == 0
        assert pool.in_use == 0
        with pytest.raises(ValueError, match="cannot evict"):
            paged.evict(1)

    def test_append_after_drain_restarts_cleanly(self):
        ref, paged, _ = paired_caches(block_size=4)
        for i in range(6):
            k, v = token(i)
            ref.append(k, v)
            paged.append(k, v)
        ref.evict(6)
        paged.evict(6)
        for i in range(6, 9):
            k, v = token(i)
            ref.append(k, v)
            paged.append(k, v)
        assert np.array_equal(ref.keys, paged.keys)
        assert ref.start_position == paged.start_position == 6

    def test_reset_frees_all_blocks(self):
        _, paged, pool = paired_caches(block_size=2)
        for i in range(7):
            paged.append(*token(i))
        assert pool.in_use == 4
        paged.reset()
        assert pool.in_use == 0
        assert pool.live_tokens == 0
        assert paged.length == 0 and paged.start_position == 0
        info = pool.pool_info()
        assert info["blocks_allocated"] - info["blocks_freed"] == 0

    def test_overflow_matches_contiguous_contract(self):
        _, paged, _ = paired_caches(capacity=3, n_blocks=4)
        for i in range(3):
            paged.append(*token(i))
        with pytest.raises(KVCacheOverflow, match="full at capacity 3"):
            paged.append(*token(3))

    def test_append_is_atomic_on_pool_exhaustion(self):
        pool = BlockPool(2, 4, block_size=2, n_blocks=1)
        paged = PagedKVCache(pool, capacity=32)
        paged.append(*token(0))
        paged.append(*token(1))
        before = (paged.length, paged.blocks_in_use, pool.live_tokens)
        with pytest.raises(BlockPoolExhausted):
            paged.append(*token(2))
        assert (paged.length, paged.blocks_in_use, pool.live_tokens) == before
        # the cache is still usable once blocks free up elsewhere
        other = PagedKVCache(pool, capacity=32)
        with pytest.raises(BlockPoolExhausted):
            other.append(*token(9))

    def test_windowed_append_is_atomic_on_pool_exhaustion(self):
        # two caches share a 2-block pool; the windowed one needs its
        # straddle block while the other holds the last free block
        pool = BlockPool(2, 4, block_size=4, n_blocks=2)
        windowed = PagedKVCache(pool, capacity=16, window=4)
        hog = PagedKVCache(pool, capacity=16)
        for i in range(4):
            windowed.append(*token(i))
        hog.append(*token(99))
        ref_keys = windowed.keys
        before = (windowed.length, windowed.start_position,
                  windowed.evictions, pool.live_tokens)
        with pytest.raises(BlockPoolExhausted):
            windowed.append(*token(4))  # tail crosses into a new block
        assert (windowed.length, windowed.start_position,
                windowed.evictions, pool.live_tokens) == before
        assert np.array_equal(windowed.keys, ref_keys)

    def test_validation(self):
        pool = BlockPool(2, 4, block_size=2, n_blocks=2)
        with pytest.raises(ValueError, match="capacity"):
            PagedKVCache(pool, capacity=0)
        with pytest.raises(ValueError, match="window"):
            PagedKVCache(pool, capacity=4, window=0)
        with pytest.raises(ValueError, match="window"):
            PagedKVCache(pool, capacity=4, window=8)
        paged = PagedKVCache(pool, capacity=4)
        with pytest.raises(ValueError, match="shape"):
            paged.append(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_block_table_physical_mapping(self):
        table = BlockTable()
        table.blocks.extend([7, 3, 9])
        assert table.physical(0, 4) == (7, 0)
        assert table.physical(5, 4) == (3, 1)
        assert table.physical(11, 4) == (9, 3)
        assert table.n_blocks == 3


#: The three cache classes at one window, drawing on ``pool``.
WINDOWED_CACHES = {
    "KVCache": lambda pool, w: KVCache(2, 4, capacity=w, window=w),
    "PagedKVCache": lambda pool, w: PagedKVCache(pool, capacity=w, window=w),
    "ReservedKVCache": (
        lambda pool, w: ReservedKVCache(pool, capacity=w, window=w)
    ),
}


class TestStoreOffsetEviction:
    """Eviction advances the live span's start in the row store and
    writes no row; the span moves to the front of a new store only when
    the store is reallocated.  Windows 1 and 2 divide the block size 4,
    3 and 5 do not, and 8 is a multiple of it."""

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("kind", WINDOWED_CACHES)
    def test_views_keep_their_bytes_until_reset(self, kind, window):
        """A view taken after every append, evict and truncate keeps
        its bytes (a truncate frees only its rolled-back rows) through
        the final reset, which writes no row, and the live views equal
        the last-``window``-rows reference model."""
        pool = BlockPool(n_heads=2, head_dim=4, block_size=4, n_blocks=16)
        cache = WINDOWED_CACHES[kind](pool, window)
        rng = np.random.default_rng(window)
        live: list[tuple[np.ndarray, np.ndarray]] = []
        start = 0
        #: (first position, [keys view, keys then, values view, values
        #: then]) of every view taken so far
        views: list[tuple[int, list[np.ndarray]]] = []
        for i in range(80):
            op = rng.choice(["append"] * 6 + ["evict", "truncate"])
            n = int(rng.integers(0, len(live) + 1))
            if op == "append":
                k, v = token(i)
                cache.append(k, v)
                if len(live) == window:
                    live.pop(0)
                    start += 1
                live.append((k, v))
            elif op == "evict":
                cache.evict(n)
                live = live[n:]
                start += n
            else:
                cache.truncate(n)
                live = live[: len(live) - n]
                # rows past the new tail are free to be rewritten
                end = start + len(live)
                views = [
                    (first, [a[:, : max(0, end - first)] for a in arrays])
                    for first, arrays in views
                ]
            assert cache.start_position == start
            assert cache.length == len(live)
            for view, column in ((cache.keys, 0), (cache.values, 1)):
                expected = np.zeros((2, len(live), 4))
                for row, kv in enumerate(live):
                    expected[:, row] = kv[column]
                assert view.tobytes() == expected.tobytes()
            for _, (keys, keys_then, values, values_then) in views:
                assert keys.tobytes() == keys_then.tobytes()
                assert values.tobytes() == values_then.tobytes()
            views.append((start, [
                cache.keys, cache.keys.copy(),
                cache.values, cache.values.copy(),
            ]))
        cache.reset()
        assert cache.length == 0
        for _, (keys, keys_then, values, values_then) in views:
            assert keys.tobytes() == keys_then.tobytes()
            assert values.tobytes() == values_then.tobytes()

    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8, 20])
    @pytest.mark.parametrize("kind", WINDOWED_CACHES)
    def test_full_store_reallocates_once_per_window(self, kind, window):
        """The store grows to at most ``2 * window`` rows, and over ten
        windows of sliding appends it is reallocated at most once per
        ``window`` appends plus its log2 growth steps."""
        pool = BlockPool(n_heads=2, head_dim=4, block_size=4, n_blocks=16)
        cache = WINDOWED_CACHES[kind](pool, window)
        appends = 11 * window
        stores: list[np.ndarray] = []
        for i in range(appends):
            cache.append(*token(i))
            store = cache.values.base
            if not any(store is seen for seen in stores):
                stores.append(store)
            assert store.shape[-2] <= 2 * window
        growth = math.ceil(math.log2(2 * window))
        assert len(stores) <= (appends - window) // window + growth
        cache.reset()


# ----------------------------------------------------------------------
# The equivalence gate: paged decode vs contiguous decode, per preset.
# ----------------------------------------------------------------------


class TestPagedDecodeEquivalence:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_bit_cycle_counter_exact_on_every_preset(self, preset_name):
        """Paging must change *where* K/V rows live, never the numerics
        or the hardware accounting — on every Table II geometry."""
        session = NovaSession(preset_name)
        engine = session.decoder
        request = decode_request(
            toy_model(), prompt_len=6, max_new_tokens=4, seed=11
        )
        contiguous = engine.generate(request)
        pool = BlockPool(
            request.n_heads, request.head_dim,
            session.config.kv_block_size,
            n_blocks=worst_case_blocks(
                request.total_tokens, request.window,
                session.config.kv_block_size,
            ),
        )
        paged = engine.generate(
            request, state=engine.start(request, pool=pool)
        )
        assert np.array_equal(contiguous.generated, paged.generated)
        assert np.array_equal(
            contiguous.prefill.outputs, paged.prefill.outputs
        )
        assert np.array_equal(
            contiguous.prefill.probabilities, paged.prefill.probabilities
        )
        assert contiguous.vector_cycles == paged.vector_cycles
        assert contiguous.counters.as_dict() == paged.counters.as_dict()
        for a, b in zip(contiguous.steps, paged.steps):
            assert np.array_equal(a.probabilities, b.probabilities)
            assert a.vector_cycles == b.vector_cycles
        for a, b in zip(contiguous.passes, paged.passes):
            assert a.counters.as_dict() == b.counters.as_dict()

    def test_windowed_paged_decode_matches(self):
        engine = NovaDecodeEngine(SMALL)
        request = decode_request(
            toy_model(), prompt_len=7, max_new_tokens=4, seed=3, window=5
        )
        contiguous = engine.generate(request)
        pool = BlockPool(request.n_heads, request.head_dim, 2, n_blocks=4)
        paged = engine.generate(
            request, state=engine.start(request, pool=pool)
        )
        assert np.array_equal(contiguous.generated, paged.generated)
        assert contiguous.counters.as_dict() == paged.counters.as_dict()

    def test_start_rejects_pool_geometry_mismatch(self):
        engine = NovaDecodeEngine(SMALL)
        request = decode_request(toy_model(), prompt_len=3)
        wrong = BlockPool(
            request.n_heads + 1, request.head_dim, 4, n_blocks=4
        )
        with pytest.raises(ValueError, match="does not match"):
            engine.start(request, pool=wrong)
        good = BlockPool(request.n_heads, request.head_dim, 4, n_blocks=4)
        cache = KVCache(request.n_heads, request.head_dim, request.capacity)
        with pytest.raises(ValueError, match="not both"):
            engine.start(request, cache=cache, pool=good)


# ----------------------------------------------------------------------
# Paged continuous batching.
# ----------------------------------------------------------------------


class TestPagedScheduler:
    def test_bit_exact_vs_one_at_a_time(self):
        model = toy_model()
        requests = decode_batch(model, 5, prompt_len=3, max_new_tokens=4,
                                seed=0)
        engine = NovaDecodeEngine(SMALL_BS4)
        solo = [engine.generate(r) for r in requests]
        batch = ContinuousBatchScheduler(
            engine, max_active=3, paged=True
        ).run(requests)
        for ref, got in zip(solo, batch.results):
            assert np.array_equal(ref.generated, got.generated)
            assert ref.vector_cycles == got.vector_cycles
            assert ref.counters.as_dict() == got.counters.as_dict()
        assert batch.paging is not None
        assert batch.paging["in_use"] == 0  # every block returned
        assert batch.pages_allocated == 0

    def test_pool_exhaustion_mid_step_defers_not_crashes(self):
        """A pool too small for every sequence's next block must defer
        the starved sequences and still finish bit-exact."""
        model = toy_model()
        requests = decode_batch(model, 5, prompt_len=3, max_new_tokens=4,
                                seed=0)
        engine = NovaDecodeEngine(SMALL_BS4)
        solo = [engine.generate(r) for r in requests]
        policy = QueueChecked(FCFS())
        scheduler = ContinuousBatchScheduler(
            engine, max_active=5, paged=True, pool_blocks=4, policy=policy
        )
        batch = scheduler.run(requests)
        assert batch.deferrals > 0
        assert policy.checks > 0
        for ref, got in zip(solo, batch.results):
            assert np.array_equal(ref.generated, got.generated)
            assert ref.counters.as_dict() == got.counters.as_dict()
        scheduler.block_pool.check_invariants()

    def test_preemption_recomputes_bit_exact(self):
        """With only enough blocks for one sequence's worst case at a
        time, the scheduler must preempt and still converge on
        bit-identical results."""
        model = toy_model()
        requests = decode_batch(model, 4, prompt_len=3, max_new_tokens=4,
                                seed=0)
        engine = NovaDecodeEngine(SMALL_BS4)
        solo = [engine.generate(r) for r in requests]
        policy = QueueChecked(FCFS())
        scheduler = ContinuousBatchScheduler(
            engine, max_active=4, paged=True, pool_blocks=2, policy=policy
        )
        batch = scheduler.run(requests)
        assert batch.preemptions > 0
        assert policy.checks > 0
        for ref, got in zip(solo, batch.results):
            assert np.array_equal(ref.generated, got.generated)
            assert ref.vector_cycles == got.vector_cycles
            assert ref.counters.as_dict() == got.counters.as_dict()
        scheduler.block_pool.check_invariants()
        # preempted work was recomputed: the overlay spent more than the
        # per-request sequential-equivalent total
        assert batch.counters.as_dict() != ContinuousBatchScheduler(
            engine, max_active=4, paged=True
        ).run(requests).counters.as_dict()

    def test_infeasible_request_raises_up_front(self):
        model = toy_model()
        requests = decode_batch(model, 2, prompt_len=6, max_new_tokens=4,
                                seed=0)
        engine = NovaDecodeEngine(SMALL_BS4)
        scheduler = ContinuousBatchScheduler(
            engine, max_active=2, paged=True, pool_blocks=1
        )
        before = engine.unit._lifetime_counters()
        with pytest.raises(BlockPoolExhausted, match="running alone"):
            scheduler.run(requests)
        assert engine.unit._lifetime_counters().as_dict() == before.as_dict()

    def test_heterogeneous_head_geometry_rejected(self):
        engine = NovaDecodeEngine(SMALL)
        a = decode_request(toy_model(hidden=16, heads=2), prompt_len=3)
        b = decode_request(toy_model(hidden=16, heads=4), prompt_len=3)
        for paged in (False, True):  # one pool per run, either policy
            scheduler = ContinuousBatchScheduler(engine, paged=paged)
            with pytest.raises(ValueError, match="head geometry"):
                scheduler.run([a, b])

    @pytest.mark.parametrize("paged", [False, True])
    def test_pool_blocks_or_pool_bytes_not_both(self, paged):
        engine = NovaDecodeEngine(SMALL)
        with pytest.raises(ValueError, match="not both"):
            ContinuousBatchScheduler(
                engine, paged=paged, pool_blocks=4, pool_bytes=1024
            )

    def test_block_size_defaults_to_config(self):
        requests = decode_batch(toy_model(), 2, prompt_len=3,
                                max_new_tokens=2, seed=0)
        for cfg in (SMALL, SMALL_BS4):
            engine = NovaDecodeEngine(cfg)
            for paged in (False, True):
                batch = ContinuousBatchScheduler(
                    engine, paged=paged
                ).run(requests)
                assert batch.paging["block_size"] == cfg.kv_block_size

    def test_admits_more_than_contiguous_at_same_bytes(self):
        """The tentpole claim, in miniature: mixed-length requests at a
        fixed byte budget — paged admission beats whole pages."""
        model = toy_model(seq_len=64)
        requests = mixed_decode_batch(
            model, 8, prompt_lens=(2, 3, 4), new_tokens=(2, 3), seed=0
        )
        engine = NovaDecodeEngine(SMALL_BS4)
        page_bytes = 2 * 8 * model.hidden * model.seq_len
        budget = 2 * page_bytes
        contiguous = ContinuousBatchScheduler(
            engine, max_active=8, pool_bytes=budget
        ).run(requests)
        paged = ContinuousBatchScheduler(
            engine, max_active=8, paged=True, pool_bytes=budget,
        ).run(requests)
        assert contiguous.peak_active == 2
        assert paged.peak_active >= 1.5 * contiguous.peak_active
        assert paged.peak_fragmentation_slots < \
            contiguous.peak_fragmentation_slots
        for ref, got in zip(contiguous.results, paged.results):
            assert np.array_equal(ref.generated, got.generated)

    def test_contiguous_budget_reclaims_retired_page_bytes(self):
        """Regression: a retired small page's bytes must return to the
        budget when they cannot serve the next request — otherwise a
        feasible larger request wedges the scheduler."""
        engine = NovaDecodeEngine(SMALL)
        small = decode_request(toy_model(seq_len=8), prompt_len=2,
                               max_new_tokens=1, seed=0)
        big = decode_request(toy_model(seq_len=64), prompt_len=3,
                             max_new_tokens=2, seed=1)
        page_bytes = 2 * 8 * big.hidden * 64
        scheduler = ContinuousBatchScheduler(
            engine, max_active=2, pool_bytes=page_bytes
        )
        batch = scheduler.run([small, big])  # must not wedge
        assert batch.n_requests == 2
        assert np.array_equal(
            batch.results[1].generated, engine.generate(big).generated
        )

    def test_contiguous_budget_defers_then_raises_when_infeasible(self):
        model = toy_model(seq_len=64)
        engine = NovaDecodeEngine(SMALL)
        request = decode_request(model, prompt_len=3, max_new_tokens=2)
        page_bytes = 2 * 8 * model.hidden * model.seq_len
        tight = ContinuousBatchScheduler(
            engine, max_active=4, pool_bytes=page_bytes - 1
        )
        with pytest.raises(BlockPoolExhausted, match="running alone"):
            tight.run([request])

    def test_session_serve_decode_paged(self):
        model = toy_model()
        requests = decode_batch(model, 3, prompt_len=3, max_new_tokens=2,
                                seed=0)
        session = NovaSession(SMALL)
        batch = session.serve_decode(requests, max_active=2, paged=True)
        solo = session.generate(requests[1])
        assert np.array_equal(batch.results[1].generated, solo.generated)
        assert batch.paging is not None
        assert batch.paging["n_blocks"] == (
            batch.paging["in_use"] + batch.paging["free"]
        )

    def test_cache_info_has_no_pool_registry(self):
        """Pool statistics are per run (the result's ``paging``); the
        process-wide cache report carries no pool aggregate."""
        assert "paging" not in NovaSession.cache_info()


class TestStepMachine:
    """``run()`` is ``start()``, ``step()`` until it returns ``False``,
    then ``result()``; the run state lives on the scheduler, per run."""

    @staticmethod
    def _tight():
        """A paged scheduler whose pool is small enough to defer and
        preempt, and the requests it serves."""
        requests = decode_batch(toy_model(), 4, prompt_len=3,
                                max_new_tokens=4, seed=0)
        scheduler = ContinuousBatchScheduler(
            NovaDecodeEngine(SMALL_BS4), max_active=4, paged=True,
            pool_blocks=2,
        )
        return scheduler, requests

    def test_step_before_start_raises(self):
        scheduler, _ = self._tight()
        with pytest.raises(RuntimeError, match="start"):
            scheduler.step()
        with pytest.raises(RuntimeError, match="not finished"):
            scheduler.result()

    def test_step_after_the_run_returns_false_and_changes_nothing(self):
        scheduler, requests = self._tight()
        batch = scheduler.run(requests)
        engine = scheduler.engine

        def snapshot():
            return (
                scheduler.now, list(scheduler.step_cycles),
                scheduler.deferrals, scheduler.preemptions,
                scheduler.block_pool.pool_info(),
                [seq.finish_step for seq in scheduler.sequences],
                engine.unit._lifetime_counters().as_dict(),
            )

        before = snapshot()
        assert scheduler.step() is False
        assert snapshot() == before
        again = scheduler.result()
        assert again.step_cycles == batch.step_cycles
        assert again.finish_times == batch.finish_times
        for a, b in zip(again.results, batch.results):
            assert a.generated.tobytes() == b.generated.tobytes()

    def test_second_run_reports_per_run_counts_and_a_fresh_pool(self):
        scheduler, requests = self._tight()
        first = scheduler.run(requests)
        first_pool = scheduler.block_pool
        assert first.deferrals > 0 and first.preemptions > 0
        second = scheduler.run(requests)
        assert scheduler.block_pool is not first_pool
        # the same inputs again: the same counts, not their running sum
        assert second.deferrals == first.deferrals == scheduler.deferrals
        assert second.preemptions == first.preemptions
        assert scheduler.preemptions == second.preemptions
        assert second.paging == first.paging
        assert second.step_cycles == first.step_cycles
        for a, b in zip(first.results, second.results):
            assert a.generated.tobytes() == b.generated.tobytes()


# ----------------------------------------------------------------------
# One pool: contiguous serving is a whole-page reservation.
# ----------------------------------------------------------------------


class _PoolSpy(PriorityPreemptive):
    """Checks, at every step, that each in-flight contiguous cache holds
    exactly one reserved run of its whole page in the run's block
    pool."""

    def __init__(self) -> None:
        self.scheduler: ContinuousBatchScheduler | None = None
        self.checks = 0

    def step_order(self, active, now):
        pool = self.scheduler.block_pool
        for seq in active:
            cache = seq.live_state.cache
            assert isinstance(cache, ReservedKVCache)
            first, n_blocks = pool._runs[cache]
            assert n_blocks == blocks_needed(cache.capacity, pool.block_size)
            assert all(
                pool.refcount(b) == 1
                for b in range(first, first + n_blocks)
            )
            self.checks += 1
        assert len(pool._runs) == len(active)
        return super().step_order(active, now)


def spied_scheduler(engine, **kwargs):
    spy = _PoolSpy()
    scheduler = ContinuousBatchScheduler(
        engine, policy=QueueChecked(spy), **kwargs
    )
    spy.scheduler = scheduler
    return scheduler, spy


def assert_solo_exact(engine, requests, batch):
    for request, got in zip(requests, batch.results):
        ref = engine.generate(request)
        assert np.array_equal(ref.generated, got.generated)
        assert ref.vector_cycles == got.vector_cycles
        assert ref.counters.as_dict() == got.counters.as_dict()


def assert_every_block_returned(batch):
    assert batch.paging["in_use"] == 0
    assert batch.paging["blocks_allocated"] == batch.paging["blocks_freed"]
    assert batch.paging["live_tokens"] == 0


class TestOnePool:
    @pytest.mark.parametrize("paged", [False, True])
    def test_default_pool_holds_the_max_active_largest_reservations(
        self, paged
    ):
        max_active = 2
        requests = [
            decode_request(toy_model(seq_len=seq_len), prompt_len=prompt,
                           max_new_tokens=new, seed=i)
            for i, (seq_len, prompt, new) in enumerate(
                [(16, 2, 1), (64, 20, 30), (32, 5, 5),
                 (48, 3, 40), (16, 8, 8), (32, 17, 2)]
            )
        ]
        assert len(requests) == 3 * max_active
        bs = SMALL.kv_block_size
        reservations = [
            worst_case_blocks(r.total_tokens, r.window, bs)
            if paged
            else blocks_needed(r.capacity, bs)
            for r in requests
        ]
        engine = NovaDecodeEngine(SMALL)
        batch = ContinuousBatchScheduler(
            engine, max_active=max_active, paged=paged
        ).run(requests)
        assert batch.paging["n_blocks"] == sum(
            sorted(reservations)[-max_active:]
        )
        assert batch.paging["n_blocks"] < sum(reservations)
        assert batch.preemptions == 0
        assert_every_block_returned(batch)
        assert_solo_exact(engine, requests, batch)

    def test_contiguous_caches_are_runs_of_the_pool(self):
        engine = NovaDecodeEngine(SMALL)
        requests = [
            decode_request(toy_model(seq_len=seq_len), prompt_len=3,
                           max_new_tokens=4, seed=i)
            for i, seq_len in enumerate((16, 32, 64))
        ]
        scheduler, spy = spied_scheduler(engine, max_active=3)
        batch = scheduler.run(requests)
        assert spy.checks > 0
        # capacities are block multiples: slots held == capacities
        assert batch.peak_kv_slots == sum(r.capacity for r in requests)
        assert batch.peak_fragmentation_slots == 112 - 3 * 3
        assert batch.pages_allocated == len(requests)
        assert_every_block_returned(batch)
        assert_solo_exact(engine, requests, batch)

    def test_contiguous_preemption_returns_every_block(self):
        engine = NovaDecodeEngine(SMALL)
        requests = [
            decode_request(toy_model(), prompt_len=3, max_new_tokens=6,
                           seed=i)
            for i in range(3)
        ]
        meta = [SequenceMeta(), SequenceMeta(),
                SequenceMeta(arrival=5.0, priority=1)]
        scheduler, spy = spied_scheduler(engine, max_active=2)
        batch = scheduler.run(requests, meta=meta)
        assert batch.preemptions >= 1
        assert spy.checks > 0
        scheduler.block_pool.check_invariants()
        assert batch.pages_allocated == len(requests) + batch.preemptions
        assert_every_block_returned(batch)
        assert_solo_exact(engine, requests, batch)

    def test_budgeted_contiguous_defers_when_no_run_fits(self):
        """Enough blocks free in total but no run long enough: the
        request defers (the page is never scattered), then finishes
        solo-exact once a run frees."""
        engine = NovaDecodeEngine(SMALL)
        shapes = [(16, 2, 1), (32, 3, 20), (16, 2, 1), (48, 3, 2)]
        requests = [
            decode_request(toy_model(seq_len=seq_len), prompt_len=prompt,
                           max_new_tokens=new, seed=i)
            for i, (seq_len, prompt, new) in enumerate(shapes)
        ]
        block_bytes = BlockPool(2, 8, SMALL.kv_block_size, 1).block_bytes
        policy = QueueChecked(FCFS())
        scheduler = ContinuousBatchScheduler(
            engine, max_active=4, pool_bytes=5 * block_bytes, policy=policy
        )
        batch = scheduler.run(requests)
        assert policy.checks > 0
        assert batch.paging["n_blocks"] == 5
        scheduler.block_pool.check_invariants()
        short_a, long_b, short_c, wide_d = range(4)
        # A and C retire long before B, leaving 3 free blocks split
        # around B's run; D (3 blocks) only gets in once B retires.
        assert batch.finish_steps[short_a] < batch.finish_steps[long_b]
        assert batch.finish_steps[short_c] < batch.finish_steps[long_b]
        assert batch.first_token_steps[wide_d] > batch.finish_steps[long_b]
        assert_every_block_returned(batch)
        assert_solo_exact(engine, requests, batch)

    def test_contiguous_pool_blocks_below_max_active_pages_defers(self):
        """``pool_blocks`` sizes the pool under either policy: a
        contiguous run with room for fewer whole pages than
        ``max_active`` defers admission and still finishes solo-exact."""
        engine = NovaDecodeEngine(SMALL)
        requests = [
            decode_request(toy_model(seq_len=64), prompt_len=3,
                           max_new_tokens=4 + i, seed=i)
            for i in range(3)
        ]
        page = blocks_needed(64, SMALL.kv_block_size)
        scheduler = ContinuousBatchScheduler(
            engine, max_active=3, pool_blocks=2 * page
        )
        batch = scheduler.run(requests)
        assert batch.paging["n_blocks"] == 2 * page
        assert batch.peak_active == 2
        assert batch.first_token_steps[2] > batch.finish_steps[0]
        scheduler.block_pool.check_invariants()
        assert_every_block_returned(batch)
        assert_solo_exact(engine, requests, batch)


# ----------------------------------------------------------------------
# NovaConfig.kv_block_size.
# ----------------------------------------------------------------------


class TestKvBlockSizeConfig:
    def test_zero_negative_rejected(self):
        for bad in (0, -1, -16):
            with pytest.raises(ValueError, match="kv_block_size"):
                NovaConfig(kv_block_size=bad)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError, match="kv_block_size"):
            NovaConfig(kv_block_size=2.5)
        with pytest.raises(TypeError, match="kv_block_size"):
            NovaConfig(kv_block_size=True)
        with pytest.raises(TypeError, match="kv_block_size"):
            NovaConfig(kv_block_size="16")

    def test_presets_carry_defaults_and_override_works(self):
        for name, cfg in PRESETS.items():
            assert cfg.kv_block_size >= 1, name
        assert PRESETS["jetson-nx"].kv_block_size == 16
        cfg = NovaConfig().with_overrides(["kv_block_size=64"])
        assert cfg.kv_block_size == 64
        assert NovaConfig.from_dict(cfg.to_dict()) == cfg
