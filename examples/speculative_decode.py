#!/usr/bin/env python
"""Speculative decode: draft-and-verify generation over paged KV.

Plain decode pays one full overlay pass per output token.  Speculative
decode lets a cheap draft model propose the next few token embeddings
(the config's ``spec_tree`` draft tree; the preset's ``"1x4"`` is a
linear chain of four drafts), appends them to the KV cache as
*provisional* tokens, and scores all of them plus one bonus position in
a **single packed verification pass** — accepted drafts commit, the rejected suffix rolls
back by truncating the cache (freeing whole blocks when the cache is
paged).  Because a draft is accepted only when it matches the true
output bit for bit, the generated tokens are identical to plain
``generate`` for *any* draft model.  Three layers:

1. ``session.generate(request, speculative=True)`` — the default
   exact-LUT draft accepts everything: same tokens, a fraction of the overlay
   passes;
2. a lower-fidelity draft, passed per call — rollbacks appear, tokens stay identical;
3. speculative continuous batching over a shared block pool —
   verification passes of different requests fused per scheduler step,
   rollback returning blocks to the pool.

Below the session there is one decode engine, and the draft tree is a
per-call argument: ``session.decoder.generate(request, tree="1x4")``
is what ``speculative=True`` runs, and ``tree=None`` is plain decode.

Run:  python examples/speculative_decode.py
"""

import numpy as np

from repro import BlockPool, NovaSession
from repro.core.speculative import TruncatedTableDraft
from repro.workloads import TransformerConfig, decode_request, decode_batch


def main() -> None:
    session = NovaSession("jetson-nx")
    print(f"session: {session!r} (spec_tree={session.config.spec_tree!r})")

    model = TransformerConfig(
        "gpt-toy", layers=1, hidden=64, heads=4, intermediate=256,
        seq_len=256, causal=True,
    )
    request = decode_request(model, prompt_len=12, max_new_tokens=16, seed=0)

    # 1. Exact-LUT draft: every proposal verifies bit-identically, so a
    #    pass commits depth+1 tokens for one overlay traversal.
    plain = session.generate(request)
    spec = session.generate(request, speculative=True)
    assert np.array_equal(spec.generated, plain.generated)
    assert spec.sequential_vector_cycles == plain.vector_cycles
    print(f"exact draft: {spec.n_generated} tokens in {spec.verify_passes} "
          f"verification passes ({spec.tokens_per_pass:.1f} tokens/pass), "
          f"{spec.vector_cycles} vs {plain.vector_cycles} vector cycles "
          f"({spec.cycle_speedup:.2f}x cycle win), acceptance "
          f"{spec.acceptance_rate:.0%}")

    # 2. A lower-fidelity draft misses sometimes: rejected suffixes roll
    #    back, tokens stay bit-identical.
    noisy = TruncatedTableDraft(session.config, fidelity=0.7, seed=1)
    spec_noisy = session.generate(request, speculative=True, draft=noisy)
    assert np.array_equal(spec_noisy.generated, plain.generated)
    print(f"fidelity-0.7 draft: acceptance {spec_noisy.acceptance_rate:.0%}, "
          f"{spec_noisy.drafted_tokens} drafted / "
          f"{spec_noisy.accepted_tokens} accepted / "
          f"{spec_noisy.rolled_back_tokens} rolled back, still bit-exact")

    # 3. Speculative continuous batching over one shared block pool:
    #    each scheduler step fuses every in-flight request's
    #    verification pass into one lane stream; rollbacks free whole
    #    blocks back to the pool.
    requests = decode_batch(model, 6, prompt_len=10, max_new_tokens=12, seed=0)
    batch = session.serve_decode(
        requests, max_active=3, paged=True, speculative=True,
    )
    solo = session.generate(requests[0], speculative=True)
    assert np.array_equal(batch.results[0].generated, solo.generated)
    assert batch.paging["in_use"] == 0  # every block back home
    print(f"served {batch.n_requests} requests speculatively in "
          f"{batch.scheduler_steps} scheduler steps "
          f"(peak {batch.peak_active} in flight); pool: "
          f"{batch.paging['blocks_allocated']} blocks allocated, "
          f"{batch.paging['blocks_freed']} freed (rollback + retirement), "
          f"0 leaked")

    # Rollback accounting detail: a speculative run over an explicit
    # pool frees rejected drafts' blocks through the same path window
    # eviction uses.  The engine takes the draft tree per call.
    pool = BlockPool(request.n_heads, request.head_dim,
                     session.config.kv_block_size, n_blocks=4)
    engine = session.decoder
    result = engine.generate(
        request, state=engine.start(request, pool=pool), draft=noisy,
        tree=session.config.spec_tree,
    )
    assert np.array_equal(result.generated, plain.generated)
    print(f"explicit pool: {result.rolled_back_tokens} tokens rolled back, "
          f"pool ends with {pool.in_use} blocks in use / "
          f"{pool.blocks_freed} cumulative frees "
          f"(allocated - freed == in_use: "
          f"{pool.blocks_allocated - pool.blocks_freed == pool.in_use})")


if __name__ == "__main__":
    main()
