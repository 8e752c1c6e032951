#!/usr/bin/env python
"""Autoregressive decode on NOVA: KV cache, generate, continuous batching.

The serving regime that dominates attention-heavy traffic is
token-by-token decode over a KV cache.  This example opens a
:class:`NovaSession` on the Jetson-like Table II geometry, builds a
small causal (GPT-style) decode workload, and shows the three layers of
the decode stack:

1. ``session.decode``    — the prompt decoded token by token, checked
   bit-exact against the packed causal prefill,
2. ``session.generate``  — prefill + autoregressive generation,
3. ``session.serve_decode`` — many requests continuously batched
   through one shared overlay, bit-exact against one-at-a-time decode,
4. sliding-window serving — requests that run several windows past
   their KV window, served under both reservation policies, bit-exact
   against solo ``generate``.

Run:  python examples/decode_generate.py
"""

import numpy as np

from repro import NovaSession
from repro.workloads import TransformerConfig, decode_batch, decode_request


def main() -> None:
    session = NovaSession("jetson-nx")
    print(f"session: {session!r}")

    # A small causal decoder (GPT-2 family shape, scaled down so the
    # example runs in seconds).
    model = TransformerConfig(
        "gpt-toy", layers=1, hidden=64, heads=4, intermediate=256,
        seq_len=128, causal=True,
    )
    request = decode_request(model, prompt_len=12, max_new_tokens=8, seed=0)

    # 1. Token-by-token decode over the KV cache reproduces the packed
    #    causal prefill bit for bit — same cache, same per-token math,
    #    only the hardware stream packing differs.
    decoded = session.decode(request)
    state = session.decoder.start(request)
    prefill = session.decoder.prefill(state)
    assert np.array_equal(decoded.outputs, prefill.outputs)
    print(f"decode == prefill on {decoded.n_tokens} prompt tokens "
          f"(prefill {prefill.vector_cycles} packed vector cycles, "
          f"decode {decoded.vector_cycles} step-by-step)")

    # 2. Generate: prefill the prompt, then feed each step's attention
    #    output back as the next token's embedding.
    gen = session.generate(request)
    print(f"generated {gen.n_generated} tokens in "
          f"{gen.decode_vector_cycles} vector cycles "
          f"({gen.cycles_per_token:.1f} cycles/token, KV cache at "
          f"{request.seq + gen.n_generated}/{request.capacity} entries)")

    # 3. Continuous batching: requests join and leave between steps;
    #    every in-flight request's rows share one lane stream per step.
    requests = decode_batch(model, 8, prompt_len=12, max_new_tokens=8,
                            seed=0)
    batch = session.serve_decode(requests, max_active=4)
    assert np.array_equal(batch.results[0].generated, gen.generated)
    print(f"served {batch.n_requests} requests / "
          f"{batch.total_generated_tokens} tokens in "
          f"{batch.scheduler_steps} scheduler steps: "
          f"{batch.packed_vector_cycles} packed vector cycles vs "
          f"{batch.sequential_vector_cycles} one-at-a-time "
          f"({batch.packing_speedup:.2f}x packing win, "
          f"{batch.pages_allocated} whole pages reserved from one "
          f"{batch.paging['n_blocks']}-block pool)")

    # 4. Sliding-window serving: each request keeps only its last
    #    `window` tokens while prompt plus budget (36 tokens) runs
    #    4.5-9 windows past it, so every cache evicts on almost every
    #    append.  Contiguous and paged serving both match solo generate
    #    bit for bit.
    windowed = [
        decode_request(model, prompt_len=6, max_new_tokens=30, seed=i,
                       window=window)
        for i, window in enumerate((4, 5, 7, 8))
    ]
    solo = [session.generate(r).generated for r in windowed]
    for paged in (False, True):
        served = session.serve_decode(windowed, max_active=2, paged=paged)
        for result, expected in zip(served.results, solo, strict=True):
            assert result.generated.tobytes() == expected.tobytes()
        print(f"served {served.n_requests} windowed requests "
              f"({'paged' if paged else 'contiguous'}, windows 4-8, "
              f"{served.total_generated_tokens} tokens) bit-identical "
              "to solo generate")


if __name__ == "__main__":
    main()
