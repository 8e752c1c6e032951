"""The KV caches and their pool: one row store, two reservation policies.

This module is the bottom of the decode stack (the drafts in
:mod:`repro.core.speculative`, then the engine and scheduler in
:mod:`repro.core.decode`, import it; it imports neither).  Every decode
sequence keeps its K/V rows in its own contiguous row store,
:class:`KVCache`, read through views: append with optional
sliding-window eviction, speculative ``truncate``, ``fork`` and
``reset`` are that class's code for every cache (eviction writes no
row, so a view keeps its bytes until a truncate or reset).  The
:class:`BlockPool` holds no rows: it is the *accounting* of KV memory
in fixed-size blocks (``block_size`` token slots each;
``NovaConfig.kv_block_size`` sets the default) — block ids, reference
counts, reserved runs, the prefix index and every counter.  A serving
run chooses how its sequences reserve that memory:

* **Whole-page (contiguous)** — :class:`ReservedKVCache` reserves one
  run of ``blocks_needed(capacity, block_size)`` consecutive blocks at
  admission (:meth:`BlockPool.reserve_run`); otherwise it *is* a
  :class:`KVCache`: append, views, window eviction
  and forks are that class's own code.  ``reset`` releases the run
  (:meth:`BlockPool.release_run`).
* **Paged** — :class:`PagedKVCache` charges blocks lazily, one at a
  time, to a :class:`BlockTable` (the ordered physical block ids
  covering the request's logical token positions, plus the offset of
  the first live token inside the first block; sliding-window eviction
  advances the offset and frees whole head blocks).  It is a
  ``KVCache`` (``append`` / ``evict`` / ``truncate`` / ``keys`` /
  ``values`` / ``reset``) plus that block accounting, so the decode
  engine runs unchanged on either cache.
  ``truncate`` is the speculative-decode rollback path: rejected draft
  tokens free whole tail blocks back to the pool.

Prefix caching
--------------
Blocks are reference counted, so block tables of different requests may
point at the **same** physical block.  A cached K/V row is a pure
function of the prompt rows and the key/value projections — never of
``wq``/``wo`` — so requests sharing a prompt prefix would store
bit-identical rows in their leading full blocks.  :func:`prefix_block_keys`
turns that into content keys (one chained digest per full prompt
block); the pool keeps a key → block index
(:meth:`BlockPool.register_prefix` / :meth:`BlockPool.lookup_prefix` /
:meth:`BlockPool.probe_prefix`), and :meth:`PagedKVCache.adopt_prefix`
lets a fresh cache take shared references on the longest cached run
before prefill.  Prefill still appends every prompt row to the
request's own row store, so every cycle/counter and every row stays
exactly what uncached prefill produces; appends into adopted slots
just charge no block.  The first write into a block someone else
references moves the writer onto a private block
(:meth:`PagedKVCache.fork` creates whole copy-on-write twins), so
sharing is a residency effect only.

Numerics contract
-----------------
The reservation policy changes only **what the pool charges**, never
where rows live or their values.  Every cache keeps its live span in
its own contiguous store, and the decode engines read it through the
``keys`` / ``values`` views, windowed or not, on the same code path
for every policy; every downstream GEMV (scores, context) is bit-exact
between the two policies.  The equivalence gate in
``tests/test_paging.py`` pins this per Table II preset, and the golden traces prove the
cycle/counter accounting is untouched.

Accounting
----------
The pool tracks cumulative ``blocks_allocated`` / ``blocks_freed``
(a run counts each of its blocks), current ``in_use`` / ``free``,
``peak_in_use`` and the fragmentation metric (allocated-but-unused
token slots: block slots held by live caches — block tables and
reserved runs alike — that no cached token occupies).  Sharing adds
``blocks_shared`` / ``shared_frees`` (references taken and dropped
without moving a physical block), ``cow_copies``, and the prefix-index
counters (``prefix_hits`` / ``prefix_misses`` / ``prefix_index_size``).
``live_tokens`` stays *logical* — an adopted slot counts for every
cache presenting it — so under sharing ``fragmentation_slots`` can go
negative: that deficit **is** the deduplication win (tokens served
minus slots resident).  Statistics are per pool, and a serving run owns
its pool: :meth:`BlockPool.pool_info` reports them all, and a
scheduler run hands that report back as
:attr:`repro.core.decode.ContinuousBatchResult.paging`.
:meth:`BlockPool.check_invariants` verifies the pool's structural
invariants (block conservation, free list vs live blocks, reference
counts, reserved runs, the prefix index) and names the first one
broken.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

__all__ = [
    "KVCache",
    "KVCacheOverflow",
    "BlockPool",
    "BlockPoolExhausted",
    "BlockTable",
    "PagedKVCache",
    "ReservedKVCache",
    "blocks_needed",
    "prefix_block_keys",
    "worst_case_blocks",
]


class KVCacheOverflow(RuntimeError):
    """Appending to a full :class:`KVCache` that has no eviction window."""


class KVCache:
    """Per-request key/value cache for autoregressive decode.

    The cache owns one contiguous row store per tensor, ``(n_heads,
    rows, head_dim)``, and presents its live span through views
    (:attr:`keys` / :attr:`values`).  The store grows by amortised
    doubling up to ``capacity`` rows, so an append is a row write almost
    always and a reallocation ``O(log capacity)`` times per fill.
    ``window=None`` (the default) makes the capacity hard: appending to
    a full cache raises :class:`KVCacheOverflow`.  ``window=w`` caps the
    cache at the last ``w`` tokens instead (sliding-window attention):
    the oldest entry is evicted to make room and ``start_position``
    advances, so the cache always holds positions ``[start_position,
    start_position + length)``.

    Eviction only advances the live span's start in the store.  A
    windowed store grows to at most ``2 * w`` rows; once it is full, an
    append with no row past the span moves the span to the front of a
    new store, about once per ``w`` appends.  Appends write only past
    the span and a store left behind is never written again, so a view
    keeps its bytes until :meth:`truncate` or :meth:`reset`.

    The block-pool caches (:class:`PagedKVCache`,
    :class:`ReservedKVCache`) are this class plus their pool
    accounting: they keep their rows here, never in the pool.
    """

    def __init__(
        self,
        n_heads: int,
        head_dim: int,
        capacity: int,
        window: int | None = None,
    ) -> None:
        if n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {n_heads}")
        if head_dim < 1:
            raise ValueError(f"head_dim must be >= 1, got {head_dim}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if window is not None:
            if window < 1:
                raise ValueError(f"window must be >= 1, got {window}")
            if window > capacity:
                raise ValueError(
                    f"window ({window}) cannot exceed capacity ({capacity})"
                )
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.window = window
        self._k = self._v = np.empty((n_heads, 0, head_dim))
        #: Store row of the oldest live token (eviction advances it).
        self._start = 0
        self.length = 0
        self.start_position = 0
        self.evictions = 0

    @property
    def limit(self) -> int:
        """Maximum entries held at once (``window`` if set, else capacity)."""
        return self.capacity if self.window is None else self.window

    @property
    def keys(self) -> np.ndarray:
        """View of the valid cached keys, ``(n_heads, length, head_dim)``."""
        return self._k[:, self._start : self._start + self.length]

    @property
    def values(self) -> np.ndarray:
        """View of the valid cached values, ``(n_heads, length, head_dim)``."""
        return self._v[:, self._start : self._start + self.length]

    def _reserve(self, rows: int) -> None:
        """Move the live rows to the front of a new row store of at
        least ``rows`` rows: the store doubles, with at least 16 rows
        spare, capped at ``capacity`` (``2 * window`` under a window; a
        fork's fresh store is its live rows plus that spare)."""
        cap = self.capacity if self.window is None else 2 * self.window
        size = min(cap, max(rows + 16, 2 * self._k.shape[1]))
        # One allocation holds both tensors: half the heap blocks, which
        # keeps many short-lived fork stores from fragmenting the heap.
        k, v = np.empty((2, self.n_heads, size, self.head_dim))
        k[:, : self.length] = self.keys
        v[:, : self.length] = self.values
        self._k, self._v = k, v
        self._start = 0

    def _claim_slot(self) -> None:
        """Reservation hook, called once per append just before its row
        is written (after any window eviction).  A plain cache has no
        pool to charge; the block-pool caches account the slot here,
        raising before any cache state changes."""

    def append(self, k_t: np.ndarray, v_t: np.ndarray) -> None:
        """Append one token's per-head key/value rows.

        ``k_t``/``v_t`` have shape ``(n_heads, head_dim)``.  A full
        windowed cache evicts its oldest entry first; a full hard-capacity
        cache raises :class:`KVCacheOverflow`.  Atomic: a raising
        append leaves the cache byte-identical (no partial evict, no
        length change), so callers can defer the token and retry.
        """
        expected = (self.n_heads, self.head_dim)
        k_t = np.asarray(k_t, dtype=np.float64)
        v_t = np.asarray(v_t, dtype=np.float64)
        if k_t.shape != expected or v_t.shape != expected:
            raise ValueError(
                f"expected per-token k/v of shape {expected}, got "
                f"{k_t.shape} / {v_t.shape}"
            )
        if self.length == self.limit:
            if self.window is None:
                raise KVCacheOverflow(
                    f"KV cache full at capacity {self.capacity} "
                    f"(position {self.start_position + self.length}); "
                    "set a window for sliding eviction or raise "
                    "max_seq_len"
                )
            self.evict(1)
        self._claim_slot()
        row = self._start + self.length
        if row == self._k.shape[1]:
            self._reserve(self.length + 1)
            row = self.length
        self._k[:, row] = k_t
        self._v[:, row] = v_t
        self.length += 1

    def evict(self, n: int) -> None:
        """Drop the ``n`` oldest cached tokens (advances ``start_position``).

        Writes no row: the live span's start in the store advances.
        Atomic: an out-of-range ``n`` raises before any state changes.
        """
        if not 0 <= n <= self.length:
            raise ValueError(
                f"cannot evict {n} of {self.length} cached tokens"
            )
        self._start += n
        self.length -= n
        self.start_position += n
        self.evictions += n

    def truncate(self, n: int) -> None:
        """Drop the ``n`` *newest* cached tokens (speculative rollback).

        The tail-side complement of :meth:`evict`: rolling back
        rejected draft tokens just shortens the live span
        (``start_position`` is untouched) — the next append overwrites
        the rolled-back rows.  Atomic: an out-of-range ``n`` raises
        before the length changes.
        """
        if not 0 <= n <= self.length:
            raise ValueError(
                f"cannot truncate {n} of {self.length} cached tokens"
            )
        self.length -= n

    def fork(self) -> "KVCache":
        """An independent private copy of this cache's live state.

        The twin presents the same live span and history in its own row
        store, so appends on either side never show through.  Only the
        live rows are copied, into a store with the usual growth
        headroom.
        """
        twin = KVCache(
            self.n_heads, self.head_dim, self.capacity, window=self.window
        )
        twin._adopt_span(self)
        return twin

    def _adopt_span(self, source: "KVCache") -> None:
        """Copy ``source``'s live rows, span and eviction history into
        this fresh cache — :meth:`fork`'s accounting step, on the owner
        so the eviction counter is only ever written by its own object."""
        self._reserve(source.length)
        self._k[:, : source.length] = source.keys
        self._v[:, : source.length] = source.values
        self.length = source.length
        self.start_position = source.start_position
        self.evictions = source.evictions

    def reset(self) -> None:
        """Empty the cache in place (row store kept).  A reset writes no
        row: views keep their bytes until a later append."""
        self._start = 0
        self.length = 0
        self.start_position = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return (
            f"KVCache({self.n_heads} heads x {self.capacity} x "
            f"{self.head_dim}, length={self.length}"
            + (f", window={self.window}" if self.window is not None else "")
            + ")"
        )


class BlockPoolExhausted(RuntimeError):
    """Allocating from a :class:`BlockPool` with no free blocks."""


def blocks_needed(tokens: int, block_size: int) -> int:
    """Blocks required to hold ``tokens`` consecutive token slots."""
    return -(-tokens // block_size)


def worst_case_blocks(
    total_tokens: int, window: int | None, block_size: int
) -> int:
    """Most blocks one request can hold at once over its lifetime.

    Windowless requests keep every appended token.  Windowed requests
    keep at most ``window`` tokens, which can straddle one extra block
    while the head offset walks through the first block — but never
    more than the unwindowed bound.
    """
    if window is None or total_tokens <= window:
        return blocks_needed(total_tokens, block_size)
    return min(
        blocks_needed(window, block_size) + 1,
        blocks_needed(total_tokens, block_size),
    )


def prefix_block_keys(
    x: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    n_heads: int,
    block_size: int,
) -> tuple[bytes, ...]:
    """Content keys of a prompt's full KV blocks, for prefix sharing.

    A cached K/V row is ``x @ wk`` / ``x @ wv`` split into ``n_heads``
    heads — ``wq`` and ``wo`` shape queries and outputs, never cached
    rows — so two requests agreeing on the projections and their first
    ``i * block_size`` prompt rows cache bit-identical rows in their
    first ``i`` blocks.  Key ``i`` chains the digest of block ``i``'s
    prompt rows onto key ``i - 1`` (seeded with the geometry and the
    projection bytes), so equal keys certify equal *whole prefixes*,
    not merely equal blocks.  Only full blocks get keys: a partial tail
    block also receives divergent suffix and generated rows and is
    never shareable.
    """
    if n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {n_heads}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    x64 = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    wk64 = np.ascontiguousarray(np.asarray(wk, dtype=np.float64))
    wv64 = np.ascontiguousarray(np.asarray(wv, dtype=np.float64))
    seed = hashlib.sha256()
    # The hidden width (not the prompt length!) is part of the seed so
    # a longer request sharing the same leading rows produces the same
    # leading keys.
    seed.update(
        repr(
            (n_heads, block_size, x64.shape[1:], wk64.shape, wv64.shape)
        ).encode()
    )
    seed.update(wk64.tobytes())
    seed.update(wv64.tobytes())
    digest = seed.digest()
    keys: list[bytes] = []
    for i in range(x64.shape[0] // block_size):
        chained = hashlib.sha256(digest)
        chained.update(x64[i * block_size : (i + 1) * block_size].tobytes())
        digest = chained.digest()
        keys.append(digest)
    return tuple(keys)


class BlockPool:
    """The KV memory of one geometry, accounted in fixed-size blocks.

    The pool holds no rows (each cache keeps its own): it tracks
    ``n_blocks`` block ids of ``block_size`` token slots each.
    :meth:`allocate` pops a free id (raising :class:`BlockPoolExhausted`
    when the pool is dry — the caller's deferral/preemption policy
    decides what happens next), :meth:`free` returns it (double-free
    raises ``ValueError``).  :meth:`reserve_run` / :meth:`release_run`
    take and return a run of consecutive blocks at once, for the
    contiguous policy.

    Blocks carry a reference count: :meth:`allocate` hands out count 1,
    :meth:`share` takes one more reference on a live block, and
    :meth:`free` only returns the block physically once the last
    reference drops (earlier frees just decrement).  The prefix index
    (:meth:`register_prefix` / :meth:`lookup_prefix` /
    :meth:`probe_prefix` / :meth:`forget_prefix`) maps content keys to
    live blocks so later requests can find and share an already-filled
    prefix block; an entry disappears with the physical free of its
    block or on the first write that changes the block's content.

    ``live_tokens`` is maintained by the :class:`PagedKVCache` instances
    drawing from the pool; ``fragmentation_slots`` is the gap between
    the slots held (``in_use * block_size``) and the tokens logically
    cached, by block tables and reserved runs alike (negative under
    sharing: the dedup win).
    """

    def __init__(
        self, n_heads: int, head_dim: int, block_size: int, n_blocks: int
    ) -> None:
        if n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {n_heads}")
        if head_dim < 1:
            raise ValueError(f"head_dim must be >= 1, got {head_dim}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.n_blocks = n_blocks
        self._free: list[int] = list(range(n_blocks - 1, -1, -1))
        self._live = np.zeros(n_blocks, dtype=bool)
        self._refcount: list[int] = [0] * n_blocks
        self._prefix_index: dict[bytes, int] = {}
        self._block_keys: dict[int, bytes] = {}
        #: Reserved runs, ``(first block, n_blocks)`` by holding cache.
        self._runs: dict[KVCache, tuple[int, int]] = {}
        self.blocks_allocated = 0
        self.blocks_freed = 0
        self.blocks_shared = 0
        self.shared_frees = 0
        self.cow_copies = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.peak_in_use = 0
        self.live_tokens = 0

    # -- geometry -------------------------------------------------------

    @property
    def block_bytes(self) -> int:
        """Bytes of K/V rows one block accounts for (keys plus values,
        float64), held in the caches' own row stores."""
        return 2 * 8 * self.n_heads * self.block_size * self.head_dim

    @classmethod
    def from_bytes(
        cls, n_heads: int, head_dim: int, block_size: int, pool_bytes: int
    ) -> "BlockPool":
        """The largest pool fitting a byte budget (>= 1 block required)."""
        block_bytes = 2 * 8 * n_heads * block_size * head_dim
        n_blocks = pool_bytes // block_bytes
        if n_blocks < 1:
            raise ValueError(
                f"pool_bytes ({pool_bytes}) smaller than one "
                f"{block_size}-token block ({block_bytes} bytes)"
            )
        return cls(n_heads, head_dim, block_size, n_blocks)

    # -- allocation -----------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Blocks available for allocation right now."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Blocks currently held by block tables."""
        return self.n_blocks - len(self._free)

    def allocate(self) -> int:
        """Pop a free block id; raises :class:`BlockPoolExhausted` dry."""
        if not self._free:
            raise BlockPoolExhausted(
                f"block pool dry: all {self.n_blocks} blocks of "
                f"{self.block_size} tokens are in use (defer the request "
                "or preempt a sequence to free blocks)"
            )
        block = self._free.pop()
        self._live[block] = True
        self._refcount[block] = 1
        self.blocks_allocated += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return block

    def share(self, block: int) -> int:
        """Take one more reference on a live block (prefix sharing).

        The physical block stays where it is; a later :meth:`free`
        through any holder just drops the reference until the last one
        returns the block for real.  Sharing a freed block raises
        ``ValueError``.
        """
        if not 0 <= block < self.n_blocks:
            raise ValueError(
                f"block id {block} outside pool of {self.n_blocks} blocks"
            )
        if not self._live[block]:
            raise ValueError(
                f"cannot share freed block {block}: only live blocks can "
                "gain references"
            )
        self._refcount[block] += 1
        self.blocks_shared += 1
        return block

    def refcount(self, block: int) -> int:
        """Current references on a block (0 for a free block)."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(
                f"block id {block} outside pool of {self.n_blocks} blocks"
            )
        return self._refcount[block]

    def free(self, block: int) -> None:
        """Drop one reference; the last one returns the block physically.

        Freeing an already-free block raises ``ValueError`` (the
        classic double free); a shared block just decrements and counts
        a ``shared_free``.  The physical free also retires the block's
        prefix-index entry, so the index never points at a free block.
        """
        if not 0 <= block < self.n_blocks:
            raise ValueError(
                f"block id {block} outside pool of {self.n_blocks} blocks"
            )
        if not self._live[block]:
            raise ValueError(
                f"double free of block {block}: it is already in the free "
                "list"
            )
        if self._refcount[block] > 1:
            self._refcount[block] -= 1
            self.shared_frees += 1
            return
        self.forget_prefix(block)
        self._refcount[block] = 0
        self._live[block] = False
        self._free.append(block)
        self.blocks_freed += 1

    def reserve_run(self, holder: KVCache, n_blocks: int) -> int:
        """Allocate ``n_blocks`` consecutive blocks to ``holder`` at once.

        The whole-page reservation: the lowest-addressed free run long
        enough is taken (each block at refcount 1) and its first id
        returned; until :meth:`release_run`, ``holder.length`` counts as
        live tokens.  Raises :class:`BlockPoolExhausted` with nothing
        changed when no free run is long enough — even if enough blocks
        are free in total (the caller defers, as on a dry pool; the page
        is never scattered).
        """
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        free_before = np.concatenate(([0], np.cumsum(~self._live)))
        starts = np.flatnonzero(
            free_before[n_blocks:] - free_before[:-n_blocks] == n_blocks
        )
        if not starts.size:
            raise BlockPoolExhausted(
                f"no run of {n_blocks} free consecutive blocks of "
                f"{self.block_size} tokens ({self.free_blocks} of "
                f"{self.n_blocks} blocks free)"
            )
        first = int(starts[0])
        run = range(first, first + n_blocks)
        self._free = [b for b in self._free if b not in run]
        self._live[first : first + n_blocks] = True
        self._refcount[first : first + n_blocks] = [1] * n_blocks
        self._runs[holder] = (first, n_blocks)
        self.blocks_allocated += n_blocks
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return first

    def release_run(self, holder: KVCache) -> None:
        """Return ``holder``'s reserved run to the free list.

        Releasing a cache that holds no run raises ``ValueError`` (the
        run analogue of a double free).
        """
        run = self._runs.pop(holder, None)
        if run is None:
            raise ValueError("this cache holds no reserved run")
        first, n_blocks = run
        self._live[first : first + n_blocks] = False
        self._refcount[first : first + n_blocks] = [0] * n_blocks
        self._free.extend(range(first + n_blocks - 1, first - 1, -1))
        self.blocks_freed += n_blocks

    # -- prefix index ---------------------------------------------------

    def register_prefix(self, key: bytes, block: int) -> None:
        """Publish a live block as the holder of a prefix content key.

        First registration wins: a key already in the index (another
        request filled the same prefix block first) and a block already
        published under some key are both left untouched — the index is
        an accelerator, never an obligation.
        """
        if not 0 <= block < self.n_blocks or not self._live[block]:
            raise ValueError(
                f"cannot register a prefix on non-live block {block}"
            )
        if key in self._prefix_index or block in self._block_keys:
            return
        self._prefix_index[key] = block
        self._block_keys[block] = key

    def forget_prefix(self, block: int) -> None:
        """Retire the index entry published for a block, if any.

        Called on physical free and before the first content-changing
        write into a registered block; a no-op for unpublished blocks.
        """
        key = self._block_keys.pop(block, None)
        if key is not None:
            del self._prefix_index[key]

    def lookup_prefix(self, key: bytes) -> int | None:
        """The live block published under ``key``, counting hit/miss.

        The adoption-path lookup: every call moves ``prefix_hits`` or
        ``prefix_misses``.  Side-effect-free callers (admission
        estimates) should use :meth:`probe_prefix` instead.
        """
        block = self._prefix_index.get(key)
        if block is None:
            self.prefix_misses += 1
        else:
            self.prefix_hits += 1
        return block

    def probe_prefix(self, keys: Sequence[bytes]) -> int:
        """How many *leading* keys are cached right now (read-only).

        No counters move and no references are taken — this is the
        scheduler's admission estimate of what
        :meth:`PagedKVCache.adopt_prefix` would adopt.
        """
        count = 0
        for key in keys:
            if key not in self._prefix_index:
                break
            count += 1
        return count

    # -- accounting -----------------------------------------------------

    def _cached_tokens(self) -> int:
        """Tokens logically cached: block tables' plus reserved runs'."""
        return self.live_tokens + sum(cache.length for cache in self._runs)

    @property
    def fragmentation_slots(self) -> int:
        """Allocated-but-unused token slots across every live cache.

        Negative under prefix sharing: more tokens are logically served
        than slots are resident, and the deficit is the dedup win.
        """
        return self.in_use * self.block_size - self._cached_tokens()

    @property
    def shared_block_refs(self) -> int:
        """Extra references held on live blocks beyond their first.

        Zero without sharing; each adopted prefix block or forked block
        contributes its reference count minus one.
        """
        return sum(c - 1 for c in self._refcount if c > 1)

    @property
    def prefix_index_size(self) -> int:
        """Content keys currently published in the prefix index."""
        return len(self._prefix_index)

    def pool_info(self) -> dict[str, int]:
        """Every accounting counter, as one plain dict.

        Invariants (:meth:`check_invariants`): ``n_blocks == in_use +
        free`` and ``blocks_allocated - blocks_freed == in_use`` —
        sharing never disturbs them, because :meth:`share` / shared
        :meth:`free` move only the reference count.  ``live_tokens``
        here counts reserved runs' tokens too, so
        ``fragmentation_slots == in_use * block_size - live_tokens``.
        """
        return {
            "block_size": self.block_size,
            "block_bytes": self.block_bytes,
            "n_blocks": self.n_blocks,
            "in_use": self.in_use,
            "free": self.free_blocks,
            "blocks_allocated": self.blocks_allocated,
            "blocks_freed": self.blocks_freed,
            "blocks_shared": self.blocks_shared,
            "shared_frees": self.shared_frees,
            "cow_copies": self.cow_copies,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "prefix_index_size": self.prefix_index_size,
            "shared_block_refs": self.shared_block_refs,
            "peak_in_use": self.peak_in_use,
            "live_tokens": self._cached_tokens(),
            "fragmentation_slots": self.fragmentation_slots,
        }

    def check_invariants(self) -> None:
        """Raise ``RuntimeError`` naming the first broken invariant.

        The invariants, in the order checked: ``in_use + free ==
        n_blocks`` (live blocks counted from the live mask),
        ``blocks_allocated - blocks_freed == in_use``, the free list
        holds each non-live block exactly once, live blocks carry a
        reference count of at least 1 and free blocks 0, reserved runs
        are live and disjoint, and the prefix index and its per-block
        keys are mutual inverses over live blocks only.  A verification
        hook for tests; nothing on the serving path calls it.
        """
        live, n = self._live, self.n_blocks
        in_use = int(np.count_nonzero(live))
        reserved = [
            b for first, k in self._runs.values()
            for b in range(first, first + k)
        ]
        index, keys = self._prefix_index, self._block_keys
        checks = {
            "in_use + free == n_blocks": in_use + len(self._free) == n,
            "blocks_allocated - blocks_freed == in_use": (
                self.blocks_allocated - self.blocks_freed == in_use
            ),
            "the free list holds each non-live block once": (
                sorted(self._free) == np.flatnonzero(~live).tolist()
            ),
            "live blocks have refcount >= 1, free blocks 0": all(
                count >= 1 if held else count == 0
                for count, held in zip(self._refcount, live)
            ),
            "reserved runs are live and disjoint": (
                len(set(reserved)) == len(reserved)
                and all(0 <= b < n and live[b] for b in reserved)
            ),
            "the prefix index and its block keys are mutual inverses": (
                len(index) == len(keys)
                and {b: key for key, b in index.items()} == keys
            ),
            "the prefix index covers live blocks only": all(
                0 <= b < n and live[b] for b in keys
            ),
        }
        for invariant, holds in checks.items():
            if not holds:
                raise RuntimeError(
                    f"block pool invariant broken: {invariant}"
                )

    def __repr__(self) -> str:
        return (
            f"BlockPool({self.n_blocks} x {self.block_size} tokens, "
            f"{self.n_heads} heads x {self.head_dim}, "
            f"{self.in_use} in use)"
        )


class BlockTable:
    """Logical-to-physical block accounting of one request's cached
    tokens.

    ``blocks[i]`` is the physical block charged for logical slots
    ``[i * block_size, (i + 1) * block_size)`` of the table's own slot
    space; ``first_offset`` is the slot index of the oldest live token
    (eviction advances it, and frees a head block once it is whole).
    """

    __slots__ = ("blocks", "first_offset")

    def __init__(self) -> None:
        self.blocks: list[int] = []
        self.first_offset = 0

    @property
    def n_blocks(self) -> int:
        """Physical blocks currently mapped."""
        return len(self.blocks)

    def physical(self, slot: int, block_size: int) -> tuple[int, int]:
        """``(block_id, offset)`` of one absolute table slot."""
        return self.blocks[slot // block_size], slot % block_size

    def __repr__(self) -> str:
        return (
            f"BlockTable({self.n_blocks} blocks, "
            f"first_offset={self.first_offset})"
        )


class PagedKVCache(KVCache):
    """A :class:`KVCache` whose residency is charged
    to a block table.

    The rows live in the cache's own row store, exactly as in the
    contiguous cache (same ``keys`` / ``values`` views, same
    eviction); ``n_heads`` / ``head_dim`` come from the pool.  What the class adds is the
    pool accounting, all of it on the memory side:

    * blocks are charged **lazily on append** — an idle request holds
      zero blocks, a short request holds ``ceil(tokens / block_size)``,
      never a worst-case page;
    * a full pool makes ``append`` raise
      :class:`BlockPoolExhausted` *before any state changes*, so the
      scheduler can defer the token and retry the same step later;
    * sliding-window eviction advances ``first_offset`` and frees whole
      head blocks back to the pool;
    * ``reset`` frees every block;
    * blocks may be *shared* with other tables: :meth:`adopt_prefix`
      takes references on already-cached prompt blocks before prefill,
      :meth:`fork` twins the whole table, and the first write into any
      block someone else still references moves this table onto a
      private block (copy-on-write accounting), so sharing shows in
      pool residency only.
    """

    def __init__(
        self,
        pool: BlockPool,
        capacity: int,
        window: int | None = None,
    ) -> None:
        super().__init__(pool.n_heads, pool.head_dim, capacity, window)
        self.pool = pool
        self.table = BlockTable()
        #: Slots below this index are adopted shared-prefix slots: the
        #: table already holds (shared) blocks for them, so ``append``
        #: charges no block work for them.
        self.prefix_len = 0
        #: Content keys of prompt blocks this cache is still filling,
        #: by block ordinal — published to the pool's prefix index as
        #: each block completes.
        self._pending_keys: dict[int, bytes] = {}

    @property
    def block_size(self) -> int:
        """Tokens per block (the pool's)."""
        return self.pool.block_size

    @property
    def blocks_in_use(self) -> int:
        """Physical blocks this cache currently holds."""
        return self.table.n_blocks

    # -- prefix sharing -------------------------------------------------

    def adopt_prefix(self, keys: Sequence[bytes]) -> int:
        """Adopt the longest cached run of prompt blocks before prefill.

        ``keys`` are the prompt's :func:`prefix_block_keys`.  Leading
        keys found in the pool's index are taken as shared references
        and ``prefix_len`` rises to cover their slots; the remaining
        keys are remembered so the blocks this request's prefill fills
        get published for the next request.  Returns the adopted token
        count.

        Prefill then still computes and appends every prompt row — the
        cycle and counter accounting of an uncached prefill, exactly —
        into the cache's own row store, but appends below
        ``prefix_len`` allocate nothing: the adopted blocks already
        account for those slots.  Only a fresh, windowless cache can
        adopt (a sliding window evicts the prefix the keys certify).
        """
        if self.length != 0 or self.table.n_blocks != 0:
            raise ValueError(
                "adopt_prefix needs a fresh cache: nothing appended, no "
                "blocks held"
            )
        if self.window is not None:
            raise ValueError(
                "adopt_prefix does not apply to windowed caches (the "
                "sliding window evicts the certified prefix)"
            )
        bs = self.block_size
        self._pending_keys.clear()
        adopted = 0
        for i, key in enumerate(keys):
            block = self.pool.lookup_prefix(key)
            if block is None:
                for j in range(i, len(keys)):
                    self._pending_keys[j] = keys[j]
                break
            self.pool.share(block)
            self.table.blocks.append(block)
            adopted += bs
        self.prefix_len = adopted
        return adopted

    def fork(self) -> "PagedKVCache":
        """A twin sharing every block of this cache.

        The twin presents the same live span (same ``length`` /
        ``start_position`` / eviction history): its block table takes
        references on the *same* physical blocks, and its row store is
        a copy of the live rows only.  The first append either side
        makes into a still-shared block moves that side onto a private
        block (:meth:`_copy_on_write`).  The twin adopts nothing
        (``prefix_len`` 0): every one of its writes goes through the
        copy-on-write check.
        """
        twin = PagedKVCache(self.pool, self.capacity, window=self.window)
        for block in self.table.blocks:
            self.pool.share(block)
            twin.table.blocks.append(block)
        twin.table.first_offset = self.table.first_offset
        twin._adopt_span(self)
        self.pool.live_tokens += self.length
        return twin

    def _copy_on_write(self, index: int) -> int:
        """Move this table off a shared block before a write.

        The allocation comes first, so a dry pool raises
        :class:`BlockPoolExhausted` with the table untouched (the
        enclosing append stays atomic); the shared original only loses
        this table's reference.  No rows move — they live in the row
        store — so this is the accounting of a block copy.
        """
        new = self.pool.allocate()
        self.pool.free(self.table.blocks[index])
        self.table.blocks[index] = new
        self.pool.cow_copies += 1
        return new

    # -- mutation -------------------------------------------------------

    def append(self, k_t: np.ndarray, v_t: np.ndarray) -> None:
        """Append one token's per-head key/value rows.

        ``KVCache.append`` plus the pool dimension: a new block is
        allocated lazily when the tail slot crosses a block boundary,
        and :class:`BlockPoolExhausted` propagates *before any cache
        state changes* (no partial evict, no length change) — the
        append is atomic — so a scheduler can treat it as "defer this
        token and retry after blocks free up".

        Sharing adds three refinements to the block work, none visible
        to the engines: a slot below ``prefix_len`` (an adopted prompt
        slot) allocates nothing but still counts in ``length`` /
        ``live_tokens``; a write targeting a block other tables still
        reference moves onto a private block first
        (:meth:`_copy_on_write`); and filling the last slot of a block
        whose content key is pending publishes the block in the pool's
        prefix index.
        """
        if self.length == self.limit and self.window is not None:
            self._check_room_to_slide()
        super().append(k_t, v_t)

    def _check_room_to_slide(self) -> None:
        """Raise :class:`BlockPoolExhausted` if a full windowed cache's
        evict-then-append would find the pool dry, before anything moves.

        Sharing-aware: eviction only frees a *physical* block when this
        table holds its last reference (a shared free just decrements),
        and the evicting append needs an allocation when the tail sits
        on the block grid, when eviction empties the table, or when the
        target block is shared (copy-on-write).
        """
        bs = self.block_size
        refcount = self.pool.refcount
        tail = self.table.first_offset + self.length
        if self.length == 1:
            freed = sum(1 for b in self.table.blocks if refcount(b) == 1)
            need_alloc = True  # the emptied table re-fills slot 0
        else:
            head_freed = (
                self.table.first_offset + 1 == bs
                and refcount(self.table.blocks[0]) == 1
            )
            freed = 1 if head_freed else 0
            need_alloc = (
                tail == self.table.n_blocks * bs
                or refcount(self.table.blocks[tail // bs]) > 1
            )
        if need_alloc and self.pool.free_blocks + freed < 1:
            raise BlockPoolExhausted(
                f"block pool dry: windowed append needs a block but "
                f"all {self.pool.n_blocks} blocks are in use"
            )

    def _claim_slot(self) -> None:
        """Charge the next row's slot to the block table (see
        :meth:`append`); raises before any state changes."""
        slot = self.table.first_offset + self.length
        if slot >= self.prefix_len:
            bs = self.pool.block_size
            blocks = self.table.blocks
            if slot == len(blocks) * bs:
                blocks.append(self.pool.allocate())
            index = slot // bs
            block = blocks[index]
            if self.pool.refcount(block) > 1:
                block = self._copy_on_write(index)
            self.pool.forget_prefix(block)
            if self._pending_keys and (slot + 1) % bs == 0:
                key = self._pending_keys.pop(index, None)
                if key is not None:
                    self.pool.register_prefix(key, block)
        self.pool.live_tokens += 1

    def evict(self, n: int) -> None:
        """Drop the ``n`` oldest cached tokens, freeing whole head
        blocks back to the pool (``start_position`` advances, and no row
        is written, exactly as in the contiguous cache).  A shared head
        block only loses this table's reference.  Atomic: an
        out-of-range ``n`` raises before any state changes."""
        super().evict(n)
        if n == 0:
            return
        bs = self.block_size
        self.table.first_offset += n
        self.pool.live_tokens -= n
        while self.table.first_offset >= bs and self.table.blocks:
            self.pool.free(self.table.blocks.pop(0))
            self.table.first_offset -= bs
            self.prefix_len = max(0, self.prefix_len - bs)
        if self.length == 0:
            # nothing live: release the (dead-slot-only) tail block too
            self._free_blocks()
        # Eviction moves the slot grid under the pending ordinals;
        # publishing is best-effort, so drop them rather than remap.
        self._pending_keys.clear()

    def truncate(self, n: int) -> None:
        """Drop the ``n`` *newest* cached tokens (speculative rollback).

        The tail-side complement of :meth:`evict`: rejected draft
        tokens are rolled back by truncating the live span and freeing
        whole tail blocks — through the same :meth:`BlockPool.free`
        path window eviction uses, so ``blocks_freed`` / ``live_tokens``
        accounting cannot drift between the two.  A shared tail block
        only loses this table's reference (the other holder keeps it).
        ``start_position`` (the head side) is untouched; an append after
        a truncate writes over the rolled-back rows exactly as the
        contiguous cache does — moving to a private block first if the
        target block is still shared, and retiring the block's
        published prefix key since its content diverges.  Atomic: an
        out-of-range ``n`` raises before any state changes.
        """
        super().truncate(n)
        if n == 0:
            return
        self.pool.live_tokens -= n
        self._pending_keys.clear()
        if self.length == 0:
            # nothing live: release every block (as evict-to-empty does)
            self._free_blocks()
            return
        keep = blocks_needed(
            self.table.first_offset + self.length, self.block_size
        )
        while self.table.n_blocks > keep:
            self.pool.free(self.table.blocks.pop())
        self.prefix_len = min(
            self.prefix_len, self.table.first_offset + self.length
        )

    def _free_blocks(self) -> None:
        """Return every block (reference) and rewind the table."""
        for block in self.table.blocks:
            self.pool.free(block)
        self.table.blocks.clear()
        self.table.first_offset = 0
        self.prefix_len = 0

    def reset(self) -> None:
        """Empty the cache, drop its row store (a reset writes no row:
        views keep their bytes) and return every block (reference) to
        the pool."""
        self._free_blocks()
        self.pool.live_tokens -= self.length
        self._pending_keys.clear()
        super().reset()
        self._k = self._v = np.empty((self.n_heads, 0, self.head_dim))

    def __repr__(self) -> str:
        return (
            f"PagedKVCache({self.n_heads} heads x {self.capacity} x "
            f"{self.head_dim}, length={self.length}, "
            f"blocks={self.table.n_blocks} x {self.block_size}"
            + (f", window={self.window}" if self.window is not None else "")
            + ")"
        )


class ReservedKVCache(KVCache):
    """A :class:`KVCache` holding one reserved run
    of pool blocks (the whole-page reservation policy).

    Construction reserves ``blocks_needed(capacity, block_size)``
    consecutive blocks at once — raising :class:`BlockPoolExhausted`,
    with nothing reserved, when no free run is that long.  The run is
    accounting only: the cache keeps its rows in its own row store,
    sized for the whole page up front as the run is, and everything
    else is ``KVCache``'s own code (appends, views, window eviction,
    and :meth:`fork`, a private copy outside the pool).
    :meth:`reset` empties the cache *and* releases the run: the cache
    is finished afterwards.
    """

    def __init__(
        self, pool: BlockPool, capacity: int, window: int | None = None
    ) -> None:
        super().__init__(pool.n_heads, pool.head_dim, capacity, window)
        self.pool = pool
        pool.reserve_run(self, blocks_needed(capacity, pool.block_size))
        self._reserve(self.limit)

    def reset(self) -> None:
        """Empty the cache and release its run back to the pool."""
        super().reset()
        self.pool.release_run(self)
