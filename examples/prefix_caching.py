#!/usr/bin/env python
"""Prefix caching: shared prompt blocks, refcounts, copy-on-write.

PR 4's paged KV cache gave every request its own physical blocks; this
example shows the sharing layer on top: full prompt blocks are
content-addressed (a chained hash of their token rows), a request whose
prompt opens with an already-cached prefix *adopts* the publisher's
physical blocks under a refcount, and the first divergent write into a
shared block triggers copy-on-write.  The win is pure pool residency —
every request still computes its own prefill, tokens/cycles/counters
stay bit-identical — N requests sharing a system prompt just stop
storing N copies of the same KV rows.  Four layers:

1. :func:`~repro.core.paging.prefix_block_keys` — the content address:
   same prefix, same keys, whatever follows;
2. engine-level adoption over one shared
   :class:`~repro.core.paging.BlockPool` — the second request's prefill
   skips physical writes into adopted blocks, bit-exact all the way;
3. copy-on-write — a forked cache diverges and pays for exactly the
   block it touched;
4. the per-run ``prefix_caching=True`` choice through the paged
   scheduler and the async front door's hit-rate report — the
   residency win the benchmark gates at 2x.

Run:  python examples/prefix_caching.py
"""

import numpy as np

from repro import BlockPool, ContinuousBatchScheduler, NovaSession
from repro.core.decode import SequenceMeta
from repro.core.paging import prefix_block_keys
from repro.serving import FrontDoor, ServingRequest
from repro.workloads import TransformerConfig, shared_prefix_decode_batch


def main() -> None:
    session = NovaSession("jetson-nx")
    engine = session.decoder
    block_size = session.config.kv_block_size
    print(f"session: {session!r} (kv_block_size={block_size})")

    model = TransformerConfig(
        "gpt-toy", layers=1, hidden=64, heads=4, intermediate=256,
        seq_len=256, causal=True,
    )
    # Every prompt opens with the same 32-token preamble (two full
    # blocks) and appends 2 private tokens; 4 generated on top.
    requests = shared_prefix_decode_batch(
        model, 8, prefix_len=32, suffix_len=2, max_new_tokens=4, seed=0,
    )
    first, second = requests[0], requests[1]

    # 1. Content-addressed identity: full prompt blocks hash to the
    #    same keys for every request that shares the prefix, and the
    #    private suffix never changes them (each key chains on the
    #    previous block, so the address pins the whole prefix).
    keys_a = prefix_block_keys(
        first.x, first.wk, first.wv, first.n_heads, block_size
    )
    keys_b = prefix_block_keys(
        second.x, second.wk, second.wv, second.n_heads, block_size
    )
    assert keys_a == keys_b  # 32 shared tokens = 2 shared block keys
    print(f"{len(keys_a)} x {block_size}-token blocks share a content "
          f"address across all {len(requests)} prompts")

    # 2. Engine-level adoption: one pool, two requests.  The first
    #    prefill publishes its full blocks into the pool's prefix
    #    index; the second — started *after* that prefill landed —
    #    adopts them at start and its own prefill skips the physical
    #    writes (same math, same tokens, fewer blocks).
    pool = BlockPool(first.n_heads, first.head_dim, block_size, n_blocks=12)
    solo = [engine.generate(r) for r in (first, second)]
    states, shared = [], []
    for r in (first, second):
        states.append(engine.start(r, pool=pool, prefix=True))
        shared.append(engine.generate(r, state=states[-1]))
    for ref, got in zip(solo, shared):
        assert np.array_equal(ref.generated, got.generated)
        assert ref.vector_cycles == got.vector_cycles
    info = pool.pool_info()
    print(f"adoption: {info['prefix_hits']} hits, "
          f"{info['blocks_shared']} blocks shared, "
          f"{info['in_use']} blocks live for 2 requests "
          f"(vs {2 * info['in_use'] - info['blocks_shared']} unshared) — "
          f"outputs bit-exact")

    # 3. Copy-on-write: a forked cache shares every block with its
    #    parent until it writes; the first divergent append copies just
    #    the touched block and leaves the parent untouched.
    twin = states[1].cache.fork()
    row = np.ones((first.n_heads, first.head_dim))
    twin.append(row, row)
    after = pool.pool_info()
    assert after["cow_copies"] == 1
    print(f"copy-on-write: 1 divergent append = {after['cow_copies']} "
          f"block copy, parent cache untouched")
    del twin, states, shared

    # 4. The per-run choice, end to end.  Prefix caching is a call
    #    argument of the paged scheduler (the block size stays the
    #    config's kv_block_size); siblings arrive one cycle after the
    #    leader so they adopt its published prefill.
    metas = [SequenceMeta(arrival=0.0)] + [
        SequenceMeta(arrival=1.0) for _ in requests[1:]
    ]
    cached = ContinuousBatchScheduler(
        engine, max_active=8, paged=True, prefix_caching=True,
    ).run(requests, meta=metas)
    plain = ContinuousBatchScheduler(
        engine, max_active=8, paged=True,
    ).run(requests, meta=metas)
    for ref, got in zip(plain.results, cached.results):
        assert np.array_equal(ref.generated, got.generated)
    print(f"scheduler: peak {cached.peak_kv_slots} KV slots cached vs "
          f"{plain.peak_kv_slots} uncached "
          f"({plain.peak_kv_slots / cached.peak_kv_slots:.2f}x residency), "
          f"{cached.paging['prefix_hits']} hits, "
          f"{cached.paging['cow_copies']} CoW copies, tokens identical")

    door = FrontDoor(engine, paged=True, prefix_caching=True)
    trace = [
        ServingRequest(request=r, arrival=float(i > 0), request_id=i)
        for i, r in enumerate(requests)
    ]
    report = door.serve(trace)
    print(f"front door: {report.prefix_hits} prefix hits at "
          f"{report.prefix_hit_rate:.0%} hit rate, "
          f"{report.blocks_shared} blocks shared across "
          f"{len(trace)} streamed requests")


if __name__ == "__main__":
    main()
