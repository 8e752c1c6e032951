#!/usr/bin/env python
"""Paged KV cache: block pool, block tables, admission under a budget.

All serving KV storage is fixed-size blocks in one shared
:class:`~repro.core.paging.BlockPool`.  By default each request reserves
a contiguous worst-case page there (one run of blocks); this example
shows the vLLM-style paged policy instead: each request maps logical
token positions to physical blocks through a block table, and the
continuous batcher admits by free blocks instead of whole pages.
Three layers:

1. a :class:`~repro.core.paging.PagedKVCache` fed by ``generate`` —
   bit-exact against the contiguous cache, while holding only
   ``ceil(tokens / block_size)`` blocks instead of a worst-case page;
2. ``session.serve_decode(paged=True)`` — continuous batching over the
   shared pool, bit-exact against one-at-a-time decode;
3. the same mixed-length batch under a *tight* byte budget, contiguous
   vs paged — the admission-capacity win the benchmark gates at 1.5x.

Run:  python examples/paged_decode.py
"""

import numpy as np

from repro import BlockPool, NovaSession
from repro.workloads import TransformerConfig, mixed_decode_batch, decode_request


def main() -> None:
    session = NovaSession("jetson-nx")
    block_size = session.config.kv_block_size
    print(f"session: {session!r} (kv_block_size={block_size})")

    model = TransformerConfig(
        "gpt-toy", layers=1, hidden=64, heads=4, intermediate=256,
        seq_len=256, causal=True,
    )
    request = decode_request(model, prompt_len=12, max_new_tokens=8, seed=0)

    # 1. One request over a paged cache: same numerics, a fraction of
    #    the memory.  The contiguous page would reserve seq_len slots;
    #    the block table holds just enough blocks for 20 tokens.
    contiguous = session.generate(request)
    pool = BlockPool(
        request.n_heads, request.head_dim, block_size, n_blocks=8
    )
    engine = session.decoder
    paged = engine.generate(request, state=engine.start(request, pool=pool))
    assert np.array_equal(contiguous.generated, paged.generated)
    assert contiguous.vector_cycles == paged.vector_cycles
    info = pool.pool_info()
    print(f"paged == contiguous over {request.seq + paged.n_generated} "
          f"tokens: {info['in_use']} blocks x {block_size} slots vs a "
          f"{request.capacity}-slot page "
          f"({info['fragmentation_slots']} slots fragmented vs "
          f"{request.capacity - request.seq - paged.n_generated})")

    # 2. Continuous batching on the shared pool (auto-sized: no
    #    deferrals), still bit-exact per request.
    requests = mixed_decode_batch(model, 8, seed=0)
    batch = session.serve_decode(requests, max_active=8, paged=True)
    solo = session.generate(requests[0])
    assert np.array_equal(batch.results[0].generated, solo.generated)
    print(f"served {batch.n_requests} mixed-length requests in "
          f"{batch.scheduler_steps} steps: peak {batch.peak_active} "
          f"in flight, pool peaked at {batch.paging['peak_in_use']} "
          f"blocks ({batch.peak_fragmentation_slots} slots fragmented), "
          f"{batch.packing_speedup:.2f}x packing win")

    # 3. The admission story: same byte budget, two reservation policies.
    page_bytes = 2 * 8 * model.hidden * model.seq_len
    budget = 4 * page_bytes  # four worst-case pages
    tight_contig = session.serve_decode(
        requests, max_active=8, pool_bytes=budget
    )
    tight_paged = session.serve_decode(
        requests, max_active=8, paged=True, pool_bytes=budget
    )
    assert np.array_equal(
        tight_paged.results[-1].generated, tight_contig.results[-1].generated
    )
    print(f"at a fixed {budget // 1024} KiB pool: contiguous admits "
          f"{tight_contig.peak_active} concurrent requests, paged admits "
          f"{tight_paged.peak_active} "
          f"({tight_paged.peak_active / tight_contig.peak_active:.1f}x; "
          f"{tight_paged.deferrals} deferrals, "
          f"{tight_paged.preemptions} preemptions)")


if __name__ == "__main__":
    main()
