"""Prefix caching: shared prompt blocks, copy-on-write, accounting.

The paging layer's prefix cache lets requests with a common prompt
prefix share physical :class:`~repro.core.paging.BlockPool` blocks
under a reference count, copying a block only on the first divergent
write.  The contract is *pure memory residency*: sharing must never
change a single output bit, charged cycle or hardware counter, and the
pool must conserve blocks exactly (no leak, no double free) through
any interleaving of adoption, forking, appends, truncation, eviction
and reset.  Five test families pin that contract:

* :func:`~repro.core.paging.prefix_block_keys` properties — chained
  block digests that depend only on what K/V rows depend on (prompt
  rows, ``wk``/``wv``, head count, block size), so different-length
  prompts with equal leading rows share leading keys,
* a hypothesis property driving random fork/append/truncate/evict
  programs against a non-sharing twin on a private pool: identical
  observable cache state after every op, exact block conservation on
  both pools, and a fully drained shared pool at the end,
* the shared-block error paths: double free of a refcounted block,
  :class:`~repro.core.paging.BlockPoolExhausted` raised atomically
  mid-copy-on-write, truncation through a shared tail, eviction of a
  head block another table still references,
* engine/scheduler integration — adoption at
  :meth:`~repro.core.decode.NovaDecodeEngine.start`, relaxed paged
  admission charging only unshared blocks, and bit/cycle/counter-exact
  results against uncached runs at strictly lower peak residency,
* the per-run ``prefix_caching`` choice and the report: off unless a
  paged run asks for it, no config field, and the prefix-hit statistics
  surfaced through :class:`~repro.serving.metrics.ServingReport`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    DecodeRequest,
    KVCacheOverflow,
    NovaDecodeEngine,
    SequenceMeta,
)
from repro.core.paging import (
    BlockPool,
    BlockPoolExhausted,
    PagedKVCache,
    blocks_needed,
    prefix_block_keys,
    worst_case_blocks,
)

#: Small geometry shared by the engine-backed tests (module scope:
#: tables/schedules compile once, each test only runs data).
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)
ENGINE = NovaDecodeEngine(SMALL)
#: The same geometry with 4-token KV blocks (the block size lives in the
#: config, so a finer granularity is a second engine).
ENGINE_BS4 = NovaDecodeEngine(SMALL.replace(kv_block_size=4))


def shared_prefix_pair(
    prefix_tokens: int,
    suffix_tokens: int,
    new_tokens: int,
    *,
    hidden: int = 4,
    n_heads: int = 2,
    seed: int = 0,
    second_new_tokens: int | None = None,
):
    """Two decode requests sharing weights and a prompt prefix."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden)
    weights = {
        name: rng.normal(0.0, scale, size=(hidden, hidden))
        for name in ("wq", "wk", "wv", "wo")
    }
    prompt = prefix_tokens + suffix_tokens
    x = rng.normal(0.0, 1.0, size=(prompt, hidden))
    first = DecodeRequest(
        x=x, n_heads=n_heads, max_new_tokens=new_tokens,
        max_seq_len=prompt + new_tokens + 2, **weights,
    )
    x2 = x.copy()
    x2[prefix_tokens:] = rng.normal(0.0, 1.0, size=(suffix_tokens, hidden))
    second = DecodeRequest(
        x=x2, n_heads=n_heads,
        max_new_tokens=(
            new_tokens if second_new_tokens is None else second_new_tokens
        ),
        max_seq_len=prompt + new_tokens + 2, **weights,
    )
    return first, second


# ----------------------------------------------------------------------
# prefix_block_keys: the content-addressing scheme.
# ----------------------------------------------------------------------


class TestPrefixBlockKeys:
    def test_one_key_per_full_block(self):
        first, _ = shared_prefix_pair(8, 3, 0)
        keys = prefix_block_keys(first.x, first.wk, first.wv, 2, 4)
        assert len(keys) == len(first.x) // 4 == 2
        assert all(isinstance(key, bytes) for key in keys)

    def test_longer_prompt_extends_the_shorter_prompts_keys(self):
        """Keys chain over rows: equal leading rows give equal leading
        keys regardless of total prompt length — the property that lets
        different-length requests share a prefix."""
        first, _ = shared_prefix_pair(8, 0, 0)
        short = prefix_block_keys(first.x[:4], first.wk, first.wv, 2, 4)
        full = prefix_block_keys(first.x, first.wk, first.wv, 2, 4)
        assert full[: len(short)] == short

    def test_keys_ignore_wq_and_wo(self):
        """K/V rows depend only on x, wk, wv and the head split — so a
        request with different query/output projections can still adopt
        the cached rows bit for bit."""
        first, _ = shared_prefix_pair(8, 0, 0, seed=1)
        rng = np.random.default_rng(99)
        keys = prefix_block_keys(first.x, first.wk, first.wv, 2, 4)
        assert keys == prefix_block_keys(
            first.x, first.wk, first.wv, 2, 4
        )
        del rng  # wq/wo never enter the digest: same call, same keys.

    def test_keys_depend_on_rows_weights_heads_and_block_size(self):
        first, second = shared_prefix_pair(4, 4, 0, seed=2)
        base = prefix_block_keys(first.x, first.wk, first.wv, 2, 4)
        bumped_x = first.x.copy()
        bumped_x[0, 0] += 1.0
        assert prefix_block_keys(bumped_x, first.wk, first.wv, 2, 4) != base
        assert prefix_block_keys(
            first.x, first.wk + 1.0, first.wv, 2, 4
        ) != base
        assert prefix_block_keys(
            first.x, first.wk, first.wv + 1.0, 2, 4
        ) != base
        assert prefix_block_keys(first.x, first.wk, first.wv, 1, 4) != base
        assert prefix_block_keys(
            first.x, first.wk, first.wv, 2, 2
        )[:1] != base[:1]
        # The shared prefix of the pair yields equal leading keys even
        # though their suffixes (and hence later keys) differ.
        other = prefix_block_keys(second.x, second.wk, second.wv, 2, 4)
        assert other[0] == base[0] and other[1] != base[1]

    @given(
        n_rows=st.integers(1, 12),
        cut=st.integers(0, 12),
        bs=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_chaining_is_prefix_stable(self, n_rows, cut, bs, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_rows, 3))
        wk = rng.normal(size=(3, 3))
        wv = rng.normal(size=(3, 3))
        cut = min(cut, n_rows)
        keys = prefix_block_keys(x, wk, wv, 1, bs)
        head = prefix_block_keys(x[:cut], wk, wv, 1, bs)
        assert keys[: len(head)] == head
        assert len(keys) == n_rows // bs
        assert len(set(keys)) == len(keys)


# ----------------------------------------------------------------------
# The tentpole property: any shared-prefix fork/append/truncate/evict
# program mirrors a non-sharing twin exactly and conserves blocks.
# ----------------------------------------------------------------------


@st.composite
def sharing_programs(draw):
    """A shared-prefix setup plus a random two-lane cache program."""
    n_heads = draw(st.integers(1, 2))
    head_dim = draw(st.integers(1, 3))
    bs = draw(st.integers(1, 5))
    prefix_blocks = draw(st.integers(1, 3))
    extra = draw(st.integers(0, bs - 1))
    prefix_tokens = prefix_blocks * bs + extra
    capacity = prefix_tokens + draw(st.integers(1, 8))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(0, 1)),
                st.tuples(
                    st.just("evict"), st.integers(0, 1), st.integers(0, 3)
                ),
                st.tuples(
                    st.just("truncate"), st.integers(0, 1),
                    st.integers(0, 3),
                ),
                st.just(("fork",)),
                st.tuples(st.just("reset"), st.integers(0, 1)),
            ),
            min_size=1,
            max_size=24,
        )
    )
    seed = draw(st.integers(0, 2**20))
    return (
        n_heads, head_dim, bs, prefix_blocks, prefix_tokens, capacity,
        ops, seed,
    )


class TestSharingMirrorsPrivatePool:
    @given(scenario=sharing_programs())
    @settings(max_examples=60, deadline=None)
    def test_any_program_matches_a_non_sharing_twin(self, scenario):
        """An adopting cache (and any fork of it) must stay observably
        identical to a cache on a private pool fed the same program —
        sharing is invisible except in residency — while both pools
        conserve blocks after every op and drain to zero at the end."""
        (
            n_heads, head_dim, bs, prefix_blocks, prefix_tokens, capacity,
            ops, seed,
        ) = scenario
        rng = np.random.default_rng(seed)
        keys = [f"prefix-{seed}-{i}".encode() for i in range(prefix_blocks)]
        prefix_rows = [
            (
                rng.normal(size=(n_heads, head_dim)),
                rng.normal(size=(n_heads, head_dim)),
            )
            for _ in range(prefix_tokens)
        ]
        # +1 block headroom per cache: a partially evicted head block
        # lets the tail straddle one extra block below capacity.
        per_cache = blocks_needed(capacity, bs) + 1
        shared_pool = BlockPool(
            n_heads, head_dim, bs,
            n_blocks=blocks_needed(prefix_tokens, bs) + 2 * per_cache,
        )
        private_pool = BlockPool(
            n_heads, head_dim, bs, n_blocks=2 * per_cache
        )

        publisher = PagedKVCache(shared_pool, capacity)
        publisher.adopt_prefix(keys)  # cold index: misses, keys stashed
        for k, v in prefix_rows:
            publisher.append(k, v)  # registers each block as it fills
        assert shared_pool.prefix_index_size == prefix_blocks

        adopter = PagedKVCache(shared_pool, capacity)
        assert adopter.adopt_prefix(keys) == prefix_blocks * bs
        mirror = PagedKVCache(private_pool, capacity)
        lanes = [(adopter, mirror)]
        for k, v in prefix_rows:
            adopter.append(k, v)  # skip-writes below prefix_len
            mirror.append(k, v)

        for op in ops:
            if op[0] == "fork":
                if len(lanes) < 2:
                    shared_c, private_c = lanes[0]
                    lanes.append((shared_c.fork(), private_c.fork()))
            else:
                shared_c, private_c = lanes[op[1] % len(lanes)]
                if op[0] == "append":
                    k = rng.normal(size=(n_heads, head_dim))
                    v = rng.normal(size=(n_heads, head_dim))
                    outcomes = []
                    for cache in (shared_c, private_c):
                        try:
                            cache.append(k, v)
                            outcomes.append("ok")
                        except KVCacheOverflow:
                            outcomes.append("overflow")
                    assert outcomes[0] == outcomes[1]
                elif op[0] == "evict":
                    n = min(op[2], shared_c.length)
                    shared_c.evict(n)
                    private_c.evict(n)
                elif op[0] == "truncate":
                    n = min(op[2], shared_c.length)
                    shared_c.truncate(n)
                    private_c.truncate(n)
                else:
                    shared_c.reset()
                    private_c.reset()
            for shared_c, private_c in lanes:
                assert shared_c.length == private_c.length
                assert shared_c.start_position == private_c.start_position
                assert shared_c.evictions == private_c.evictions
                assert np.array_equal(shared_c.keys, private_c.keys)
                assert np.array_equal(shared_c.values, private_c.values)
            for p in (shared_pool, private_pool):
                p.check_invariants()

        publisher.reset()
        for shared_c, private_c in lanes:
            shared_c.reset()
            private_c.reset()
        for p in (shared_pool, private_pool):
            assert p.in_use == 0
            assert p.live_tokens == 0
            assert p.blocks_allocated == p.blocks_freed
            assert p.shared_block_refs == 0
            assert p.prefix_index_size == 0


# ----------------------------------------------------------------------
# Shared-block error paths.
# ----------------------------------------------------------------------


class TestSharedBlockErrorPaths:
    def test_double_free_of_a_refcounted_block(self):
        """share/free/free drains the references; a third free is the
        classic double free and must raise, not corrupt the free list."""
        pool = BlockPool(1, 2, 4, n_blocks=2)
        block = pool.allocate()
        pool.share(block)
        pool.free(block)  # drops the shared reference
        assert pool.shared_frees == 1 and pool.blocks_freed == 0
        pool.free(block)  # the real free
        assert pool.blocks_freed == 1
        with pytest.raises(ValueError, match="double free"):
            pool.free(block)
        assert pool.in_use == 0 and pool.free_blocks == 2

    def test_sharing_a_freed_block_raises(self):
        pool = BlockPool(1, 2, 4, n_blocks=2)
        block = pool.allocate()
        pool.free(block)
        with pytest.raises(ValueError, match="only live blocks"):
            pool.share(block)

    def test_pool_exhausted_mid_cow_leaves_no_trace(self):
        """A copy-on-write append into a dry pool must raise
        BlockPoolExhausted with the cache and the pool bit-identical to
        before — no half-copied block, no moved counter."""
        pool = BlockPool(1, 2, 4, n_blocks=2)
        base = PagedKVCache(pool, 8)
        for i in range(6):
            row = np.full((1, 2), float(i))
            base.append(row, row)
        twin = base.fork()
        assert pool.free_blocks == 0
        before = (
            twin.length, twin.start_position, pool.in_use,
            pool.live_tokens, pool.cow_copies, pool.blocks_allocated,
            pool.blocks_freed,
        )
        row = np.full((1, 2), 9.0)
        with pytest.raises(BlockPoolExhausted):
            twin.append(row, row)  # slot 6 sits in the shared tail block
        after = (
            twin.length, twin.start_position, pool.in_use,
            pool.live_tokens, pool.cow_copies, pool.blocks_allocated,
            pool.blocks_freed,
        )
        assert after == before
        assert np.array_equal(twin.keys, base.keys)
        assert np.array_equal(twin.values, base.values)

    def test_truncate_through_a_shared_tail_leaves_the_twin_intact(self):
        pool = BlockPool(1, 2, 4, n_blocks=4)
        base = PagedKVCache(pool, 8)
        for i in range(6):
            row = np.full((1, 2), float(i))
            base.append(row, row)
        twin = base.fork()
        keys_before = base.keys.copy()
        twin.truncate(5)  # rolls back through the shared tail block
        assert twin.length == 1
        assert pool.shared_frees >= 1
        assert pool.blocks_freed == 0  # base still holds every block
        assert base.length == 6
        assert np.array_equal(base.keys, keys_before)
        # The twin's next append diverges inside the still-shared head
        # block: it must copy on write, never touch base's rows.
        row = np.full((1, 2), 7.0)
        twin.append(row, row)
        assert pool.cow_copies == 1
        assert np.array_equal(base.keys, keys_before)
        # keys is (n_heads, kv_len, head_dim): slot 1 diverged.
        assert twin.keys[0, 1, 0] == 7.0 and base.keys[0, 1, 0] == 1.0

    def test_evicting_a_shared_head_block_keeps_the_twin_alive(self):
        pool = BlockPool(1, 2, 4, n_blocks=4)
        base = PagedKVCache(pool, 8)
        for i in range(6):
            row = np.full((1, 2), float(i))
            base.append(row, row)
        twin = base.fork()
        keys_before = base.keys.copy()
        twin.evict(4)  # the whole head block leaves the twin's table
        assert twin.length == 2 and twin.evictions == 4
        assert pool.blocks_freed == 0  # a decref, not a physical free
        assert pool.shared_frees >= 1
        assert base.length == 6
        assert np.array_equal(base.keys, keys_before)


# ----------------------------------------------------------------------
# Adoption preconditions.
# ----------------------------------------------------------------------


class TestAdoptPrefix:
    def test_needs_a_fresh_cache(self):
        pool = BlockPool(1, 2, 4, n_blocks=2)
        cache = PagedKVCache(pool, 8)
        row = np.zeros((1, 2))
        cache.append(row, row)
        with pytest.raises(ValueError, match="fresh cache"):
            cache.adopt_prefix([b"key"])

    def test_rejects_windowed_caches(self):
        pool = BlockPool(1, 2, 4, n_blocks=3)
        cache = PagedKVCache(pool, 8, window=4)
        with pytest.raises(ValueError):
            cache.adopt_prefix([b"key"])

    def test_cold_index_adopts_nothing_and_counts_one_miss(self):
        pool = BlockPool(1, 2, 4, n_blocks=2)
        cache = PagedKVCache(pool, 8)
        assert cache.adopt_prefix([b"a", b"b"]) == 0
        assert cache.prefix_len == 0 and cache.length == 0
        assert pool.prefix_hits == 0 and pool.prefix_misses == 1

    def test_engine_start_with_prefix_needs_a_pool(self):
        first, _ = shared_prefix_pair(4, 0, 1)
        with pytest.raises(ValueError, match="needs a block pool"):
            ENGINE.start(first, prefix=True)

    def test_windowed_requests_skip_adoption_silently(self):
        first, _ = shared_prefix_pair(8, 0, 1)
        windowed = DecodeRequest(
            x=first.x, wq=first.wq, wk=first.wk, wv=first.wv, wo=first.wo,
            n_heads=first.n_heads, max_new_tokens=1,
            max_seq_len=first.max_seq_len, window=4,
        )
        pool = BlockPool(
            first.n_heads, first.head_dim, 4,
            n_blocks=worst_case_blocks(windowed.total_tokens, 4, 4),
        )
        state = ENGINE.start(windowed, pool=pool, prefix=True)
        assert state.cache.prefix_len == 0
        assert pool.prefix_hits == 0 and pool.prefix_misses == 0


# ----------------------------------------------------------------------
# Engine and scheduler integration: bit-exact at lower residency.
# ----------------------------------------------------------------------


def _pool_for(requests, block_size):
    first = requests[0]
    return BlockPool(
        first.n_heads, first.head_dim, block_size,
        n_blocks=sum(
            worst_case_blocks(r.total_tokens, r.window, block_size)
            for r in requests
        ),
    )


class TestPrefixCachedDecode:
    def test_adopting_runs_are_bit_exact_and_cheaper(self):
        first, second = shared_prefix_pair(8, 2, 3, seed=3)
        requests = (first, second)
        plain_pool = _pool_for(requests, 4)
        plain = [
            ENGINE.generate(r, state=ENGINE.start(r, pool=plain_pool))
            for r in requests
        ]
        shared_pool = _pool_for(requests, 4)
        shared = []
        for r in requests:
            state = ENGINE.start(r, pool=shared_pool, prefix=True)
            shared.append(ENGINE.generate(r, state=state))
        for got, want in zip(shared, plain):
            assert np.array_equal(got.generated, want.generated)
            assert got.vector_cycles == want.vector_cycles
            assert got.counters.as_dict() == want.counters.as_dict()
        assert shared_pool.prefix_hits == 2  # the 8-token shared prefix
        assert shared_pool.prefix_misses >= 1
        assert shared_pool.peak_in_use < plain_pool.peak_in_use

    def test_scheduler_prefix_caching_is_bit_exact(self):
        """Staggered arrivals let later siblings adopt the first
        request's resident prefix; every per-request result must stay
        bit-identical to the uncached run at lower peak residency."""
        first, second = shared_prefix_pair(8, 2, 3, seed=5)
        _, third = shared_prefix_pair(8, 2, 3, seed=5, second_new_tokens=2)
        requests = [first, second, third]
        # The siblings arrive after the first request's prefill step has
        # landed (cycle 1 is past any non-empty prefill's cost) but long
        # before it retires, so its registered blocks are adoptable.
        meta = [
            SequenceMeta(arrival=0.0),
            SequenceMeta(arrival=1.0),
            SequenceMeta(arrival=1.0),
        ]
        plain = ContinuousBatchScheduler(
            ENGINE_BS4, paged=True
        ).run(requests, meta=meta)
        cached = ContinuousBatchScheduler(
            ENGINE_BS4, paged=True, prefix_caching=True
        ).run(requests, meta=meta)
        for got, want in zip(cached.results, plain.results):
            assert np.array_equal(got.generated, want.generated)
            assert got.vector_cycles == want.vector_cycles
            assert got.counters.as_dict() == want.counters.as_dict()
        assert cached.paging["prefix_hits"] == 4  # two siblings, 2 blocks
        assert cached.paging["blocks_shared"] >= 4
        assert cached.peak_kv_slots < plain.peak_kv_slots
        assert cached.paging["in_use"] == 0  # retirement drained the pool
        assert cached.paging["blocks_allocated"] == cached.paging[
            "blocks_freed"
        ]

    def test_tight_pool_admits_sharing_requests_without_deferrals(self):
        """With a pool too small for two uncached worst cases, the
        uncached run must serialise (the sibling waits for the first
        request to retire) while the cached run overlaps them — same
        bits, earlier finish."""
        first, second = shared_prefix_pair(8, 2, 3, seed=7)
        requests = [first, second]
        meta = [SequenceMeta(arrival=0.0), SequenceMeta(arrival=1.0)]
        # first worst case: 15 tokens / 4 per block = 4 blocks; the
        # sibling needs 4 more uncached but only 2 beyond the shared
        # prefix when caching — 6 blocks covers the cached overlap only.
        pool_blocks = 6
        plain = ContinuousBatchScheduler(
            ENGINE_BS4, paged=True, pool_blocks=pool_blocks
        ).run(requests, meta=meta)
        cached = ContinuousBatchScheduler(
            ENGINE_BS4, paged=True, pool_blocks=pool_blocks,
            prefix_caching=True,
        ).run(requests, meta=meta)
        for got, want in zip(cached.results, plain.results):
            assert np.array_equal(got.generated, want.generated)
            assert got.counters.as_dict() == want.counters.as_dict()
        assert cached.deferrals == 0
        assert plain.deferrals >= 1
        assert cached.finish_times[1] < plain.finish_times[1]

    def test_dry_pool_admission_charges_only_unshared_blocks(self):
        """A request whose whole prompt is a resident prefix enters a
        completely dry pool: admission charges zero unshared blocks and
        its prefill allocates nothing."""
        # The first request's 12-token prompt fills 3 blocks and its
        # first decode step takes the 4th — from then on the pool is
        # dry while it generates.
        first, second = shared_prefix_pair(
            8, 4, 4, seed=11, second_new_tokens=0
        )
        fully_shared = DecodeRequest(
            x=second.x[:8], wq=second.wq, wk=second.wk, wv=second.wv,
            wo=second.wo, n_heads=second.n_heads, max_new_tokens=0,
            max_seq_len=second.max_seq_len,
        )
        solo = ContinuousBatchScheduler(
            ENGINE_BS4, paged=True, pool_blocks=4
        ).run([first])
        mid = (solo.first_token_times[0] + solo.finish_times[0]) / 2.0
        meta = [SequenceMeta(arrival=0.0), SequenceMeta(arrival=mid)]
        cached = ContinuousBatchScheduler(
            ENGINE_BS4, paged=True, pool_blocks=4,
            prefix_caching=True,
        ).run([first, fully_shared], meta=meta)
        plain = ContinuousBatchScheduler(
            ENGINE_BS4, paged=True, pool_blocks=4
        ).run([first, fully_shared], meta=meta)
        assert cached.paging["prefix_hits"] == 2
        # Dry-pool admission let the fully shared request overlap the
        # first; without sharing it can only start after retirement.
        assert cached.finish_times[1] < plain.finish_times[1]
        assert np.array_equal(
            cached.results[0].generated, plain.results[0].generated
        )
        assert cached.paging["in_use"] == 0


# ----------------------------------------------------------------------
# The per-run choice and the serving report.
# ----------------------------------------------------------------------


class TestPrefixCachingKnobs:
    def test_config_has_no_prefix_caching_field(self):
        with pytest.raises(ValueError, match="unknown NovaConfig field"):
            NovaConfig.from_dict({"enable_prefix_caching": True})
        with pytest.raises(TypeError):
            NovaConfig(enable_prefix_caching=True)

    def test_override_rejects_the_retired_field(self):
        with pytest.raises(ValueError, match="unknown NovaConfig field"):
            SMALL.with_overrides(["enable_prefix_caching=1"])

    def test_non_paged_scheduler_rejects_the_flag(self):
        with pytest.raises(ValueError, match="requires the paged"):
            ContinuousBatchScheduler(ENGINE, prefix_caching=True)

    def test_prefix_caching_is_off_unless_the_run_asks(self):
        for paged in (False, True):
            assert ContinuousBatchScheduler(
                ENGINE, paged=paged
            ).prefix_caching is False
        assert ContinuousBatchScheduler(
            ENGINE, paged=True, prefix_caching=True
        ).prefix_caching is True

    def test_serving_report_surfaces_prefix_stats(self):
        from repro.serving.frontdoor import FrontDoor, ServingRequest

        first, second = shared_prefix_pair(8, 2, 3, seed=13)
        door = FrontDoor(ENGINE_BS4, paged=True, prefix_caching=True)
        trace = [
            ServingRequest(request=first, arrival=0.0, request_id=0),
            ServingRequest(request=second, arrival=1.0, request_id=1),
        ]
        report = door.serve(trace)
        assert report.prefix_hits == 2
        assert report.blocks_shared >= 2
        assert 0.0 < report.prefix_hit_rate <= 1.0
        data = report.as_dict()
        for key in (
            "prefix_hits", "prefix_misses", "prefix_hit_rate",
            "blocks_shared", "cow_copies",
        ):
            assert key in data
        assert data["prefix_hit_rate"] == report.prefix_hit_rate

    def test_report_hit_rate_is_zero_without_lookups(self):
        from repro.serving.frontdoor import FrontDoor, ServingRequest

        first, _ = shared_prefix_pair(4, 0, 2)
        door = FrontDoor(ENGINE, paged=True)
        report = door.serve(
            [ServingRequest(request=first, request_id=0)]
        )
        assert report.prefix_hits == 0
        assert report.prefix_hit_rate == 0.0
