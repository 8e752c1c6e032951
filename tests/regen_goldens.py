"""Golden-trace fixtures: record each preset's cycle/event/error trace.

``tests/goldens/<preset>.json`` pins, for every Table II geometry
preset, the cycle counts, event counters and max-abs-error of a
fixed-seed attention layer on the cycle-accurate reference engine, plus
the cycle counts and counters of a fixed-seed KV-cached decode run
(contiguous, paged, and speculative draft-and-verify under a fixed
acceptance schedule).  ``tests/test_goldens.py`` recomputes the same
traces on every run and fails on any unexplained drift — a change that
legitimately moves these numbers (a new schedule derivation, a
counter-accounting fix, a table training change) must regenerate the
fixtures *and say why in the commit*:

    PYTHONPATH=src python -m tests.regen_goldens

A change scoped to one section regenerates just that section, so it
cannot silently rewrite the others' pinned numbers:

    PYTHONPATH=src python -m tests.regen_goldens --section decode.speculative

The workloads are intentionally tiny (seconds across all four presets)
but exercise the full pipeline: host GEMMs, the beat-level NoC
simulation for every non-linear query, the closed-form decode
accounting and the table/schedule caches.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: Fixed attention-layer workload (seeded, preset-independent).
ATTENTION_WORKLOAD = dict(seq_len=8, hidden=32, heads=4, seed=123)

#: Fixed decode workload (seeded, preset-independent, causal).
DECODE_WORKLOAD = dict(prompt_len=6, max_new_tokens=4, hidden=16, heads=2,
                       seed=7)

#: Fixed accept/reject schedule for the speculative section: draft i of
#: the run verifies exactly when entry ``i % len`` is 1, so the
#: acceptance trace — committed tokens per pass, rollbacks, pass count —
#: is fully pinned per preset (the preset's linear ``spec_tree`` chain
#: depth varies by preset).
SPECULATIVE_PROGRAM = (True, True, False)

#: Fixed draft tree for the tree-speculative section: two alternatives
#: at each of two depths (6 provisional nodes per pass).
SPECULATIVE_TREE = "2x2"

#: Accept/reject schedule for the tree section.  ScheduledDraft consumes
#: one decision per *candidate* in level-order planning order, so a
#: fixed program pins which sibling branch survives every pass — and
#: with it the committed tokens, rollbacks and fork accounting.  The
#: odd length keeps the surviving branch varying across passes.
TREE_PROGRAM = (True, False, True, False, False)

#: The regenerable fixture sections (``--section`` targets).  Narrower
#: paths replace only that sub-dict, so regenerating the speculative
#: section cannot silently rewrite the pinned attention / decode /
#: paged numbers (and vice versa).
SECTIONS = {
    "attention": ("attention",),
    "decode": ("decode",),
    "decode.paged": ("decode", "paged"),
    "decode.prefix_cached": ("decode", "prefix_cached"),
    "decode.speculative": ("decode", "speculative"),
    "decode.speculative_tree": ("decode", "speculative_tree"),
}


def golden_trace(preset_name: str) -> dict:
    """Compute one preset's golden trace (the single source of truth —
    the regression test replays exactly this function)."""
    from repro.core.config import preset
    from repro.core.session import NovaSession
    from repro.workloads.transformer import (
        TransformerConfig,
        attention_request,
        decode_request,
    )

    session = NovaSession(preset_name)

    # -- cycle-accurate attention layer (beat-level NoC simulation) ----
    aw = ATTENTION_WORKLOAD
    model = TransformerConfig(
        "golden-attn", layers=1, hidden=aw["hidden"], heads=aw["heads"],
        intermediate=4 * aw["hidden"], seq_len=aw["seq_len"],
    )
    request = attention_request(model, seed=aw["seed"])
    result = session.attention_layer(
        request.x, request.wq, request.wk, request.wv, request.wo,
        n_heads=request.n_heads,
    )
    exact = session.exact_attention_layer(
        request.x, request.wq, request.wk, request.wv, request.wo,
        n_heads=request.n_heads,
    )
    attention = {
        **aw,
        "vector_cycles": result.vector_cycles,
        "nonlinear_queries": result.nonlinear_queries,
        "counters": dict(sorted(result.counters.as_dict().items())),
        "max_abs_error": float(np.max(np.abs(result.outputs - exact))),
    }

    # -- KV-cached decode (prefill + generate, closed-form accounting) -
    dw = DECODE_WORKLOAD
    causal = TransformerConfig(
        "golden-decode", layers=1, hidden=dw["hidden"], heads=dw["heads"],
        intermediate=4 * dw["hidden"], seq_len=64, causal=True,
    )
    request = decode_request(
        causal, prompt_len=dw["prompt_len"],
        max_new_tokens=dw["max_new_tokens"], seed=dw["seed"],
    )
    gen = session.generate(request)
    decode = {
        **dw,
        "prefill_vector_cycles": gen.prefill.vector_cycles,
        "vector_cycles": gen.vector_cycles,
        "nonlinear_queries": gen.prefill.nonlinear_queries
        + sum(s.nonlinear_queries for s in gen.steps),
        "counters": dict(sorted(gen.counters.as_dict().items())),
    }

    # -- the same generate over a paged KV cache (block-pool accounting)
    # Paging moves K/V rows into fixed-size pool blocks but must never
    # change the numerics or the hardware accounting: the fixture pins
    # the pool counters AND re-records the cycle/counter trace, which
    # has to stay byte-identical to the contiguous section above.
    from repro.core.paging import BlockPool, worst_case_blocks

    cfg = preset(preset_name)
    engine = session.decoder
    pool = BlockPool(
        request.n_heads, request.head_dim, cfg.kv_block_size,
        n_blocks=worst_case_blocks(
            request.total_tokens, request.window, cfg.kv_block_size
        ),
    )
    paged_gen = engine.generate(
        request, state=engine.start(request, pool=pool)
    )
    assert np.array_equal(paged_gen.generated, gen.generated), (
        f"{preset_name}: paged generate diverged from contiguous"
    )
    decode["paged"] = {
        "kv_block_size": cfg.kv_block_size,
        "vector_cycles": paged_gen.vector_cycles,
        "counters": dict(sorted(paged_gen.counters.as_dict().items())),
        "blocks_allocated": pool.blocks_allocated,
        "blocks_freed": pool.blocks_freed,
        "peak_blocks_in_use": pool.peak_in_use,
        "end_live_tokens": pool.live_tokens,
        "end_fragmentation_slots": pool.fragmentation_slots,
    }

    # -- speculative draft-and-verify under a fixed acceptance schedule
    # The same generate run once more through the preset's draft chain
    # (tree=cfg.spec_tree, ScheduledDraft accepting per SPECULATIVE_PROGRAM):
    # outputs must stay bit-identical and the closed-form sequential
    # equivalent must equal the plain run's cycles, while the pinned
    # acceptance trace (passes, drafted/accepted/rolled-back, actually
    # charged cycles and counters including rolled-back work) catches
    # any drift in pass planning, acceptance or rollback.  A second,
    # paged run pins the pool accounting of rollback frees.
    from repro.core.speculative import DraftTree, ScheduledDraft

    chain = DraftTree.parse(cfg.spec_tree)
    spec_gen = engine.generate(
        request, draft=ScheduledDraft(cfg, SPECULATIVE_PROGRAM), tree=chain
    )
    assert np.array_equal(spec_gen.generated, gen.generated), (
        f"{preset_name}: speculative generate diverged from plain"
    )
    assert spec_gen.sequential_vector_cycles == gen.vector_cycles, (
        f"{preset_name}: speculative sequential-equivalent cycles drifted"
    )
    spec_pool = BlockPool(
        request.n_heads, request.head_dim, cfg.kv_block_size,
        n_blocks=worst_case_blocks(
            request.total_tokens + chain.depth, request.window,
            cfg.kv_block_size,
        ),
    )
    spec_state = engine.start(request, pool=spec_pool)
    spec_paged = engine.generate(
        request,
        state=spec_state,
        draft=ScheduledDraft(cfg, SPECULATIVE_PROGRAM),
        tree=chain,
    )
    assert np.array_equal(spec_paged.generated, gen.generated), (
        f"{preset_name}: paged speculative generate diverged from plain"
    )
    assert spec_paged.vector_cycles == spec_gen.vector_cycles, (
        f"{preset_name}: paged speculative charged different cycles"
    )
    # Retire the request (blocks home) so the pinned pool totals cover
    # the whole lifecycle: rollback frees + retirement frees must drain
    # the pool exactly (allocated == freed, nothing leaked).
    spec_state.cache.reset()
    decode["speculative"] = {
        "spec_k": chain.depth,
        "program": "".join("1" if p else "0" for p in SPECULATIVE_PROGRAM),
        "vector_cycles": spec_gen.vector_cycles,
        "sequential_vector_cycles": spec_gen.sequential_vector_cycles,
        "verify_passes": spec_gen.verify_passes,
        "drafted": spec_gen.drafted_tokens,
        "accepted": spec_gen.accepted_tokens,
        "rolled_back": spec_gen.rolled_back_tokens,
        "counters": dict(sorted(spec_gen.counters.as_dict().items())),
        "paged": {
            "blocks_allocated": spec_pool.blocks_allocated,
            "blocks_freed": spec_pool.blocks_freed,
            "peak_blocks_in_use": spec_pool.peak_in_use,
            "end_in_use": spec_pool.in_use,
            "end_live_tokens": spec_pool.live_tokens,
        },
    }

    # -- tree speculation: a draft *tree* scored in one packed pass ----
    # The same generate once more with a fixed 2x2 draft tree, the
    # ScheduledDraft program consumed level by level in planning order
    # — so which sibling branch wins each pass, and with it the whole
    # acceptance trace, is pinned per preset.  Outputs must stay
    # bit-identical to plain and the closed-form sequential equivalent
    # must equal the plain run's cycles (a tree repacks work, never
    # changes it).  The paged twin pins the fork/rollback accounting:
    # sibling branches fork the cache copy-on-write, and every losing
    # branch's blocks come home (allocated == freed after retirement).
    tree = DraftTree.parse(SPECULATIVE_TREE)
    tree_gen = engine.generate(
        request, draft=ScheduledDraft(cfg, TREE_PROGRAM), tree=tree
    )
    assert np.array_equal(tree_gen.generated, gen.generated), (
        f"{preset_name}: tree-speculative generate diverged from plain"
    )
    assert tree_gen.sequential_vector_cycles == gen.vector_cycles, (
        f"{preset_name}: tree sequential-equivalent cycles drifted"
    )
    # Pool sized with fork headroom: beyond the linear worst case, each
    # sibling branch may copy-on-write the shared tail block, so grant
    # one spare block per provisional node.  Too tight a pool would trip
    # plan_with_fallback into clipping the tree — a different (legal)
    # plan, but not the one this fixture pins.
    tree_pool = BlockPool(
        request.n_heads, request.head_dim, cfg.kv_block_size,
        n_blocks=worst_case_blocks(
            request.total_tokens + tree.max_nodes, request.window,
            cfg.kv_block_size,
        ) + tree.max_nodes,
    )
    tree_state = engine.start(request, pool=tree_pool)
    tree_paged = engine.generate(
        request,
        state=tree_state,
        draft=ScheduledDraft(cfg, TREE_PROGRAM),
        tree=tree,
    )
    assert np.array_equal(tree_paged.generated, gen.generated), (
        f"{preset_name}: paged tree-speculative generate diverged"
    )
    assert tree_paged.vector_cycles == tree_gen.vector_cycles, (
        f"{preset_name}: paged tree speculation charged different cycles"
    )
    tree_state.cache.reset()
    assert tree_pool.in_use == 0, (
        f"{preset_name}: tree speculation leaked pool blocks"
    )
    decode["speculative_tree"] = {
        "tree": tree.spec,
        "program": "".join("1" if p else "0" for p in TREE_PROGRAM),
        "vector_cycles": tree_gen.vector_cycles,
        "sequential_vector_cycles": tree_gen.sequential_vector_cycles,
        "verify_passes": tree_gen.verify_passes,
        "drafted": tree_gen.drafted_tokens,
        "accepted": tree_gen.accepted_tokens,
        "rolled_back": tree_gen.rolled_back_tokens,
        "counters": dict(sorted(tree_gen.counters.as_dict().items())),
        "paged": {
            "blocks_allocated": tree_pool.blocks_allocated,
            "blocks_freed": tree_pool.blocks_freed,
            "cow_copies": tree_pool.cow_copies,
            "peak_blocks_in_use": tree_pool.peak_in_use,
            "end_in_use": tree_pool.in_use,
            "end_live_tokens": tree_pool.live_tokens,
        },
    }

    # -- prefix caching: shared-prompt requests dedup pool residency ---
    # Two requests share a two-block prompt prefix (block size is the
    # preset's) and diverge in a short suffix.  Request B adopts the
    # prefix blocks request A registered while A is still resident, so
    # the pool holds the shared rows once; a forked copy-on-write twin
    # then appends one divergent token to pin exactly one CoW copy.
    # Sharing must be invisible everywhere else: the fixture asserts
    # bit-identical outputs, cycles and counters against an uncached
    # paged twin run *before* pinning the hit/share/CoW accounting.
    from repro.core.decode import DecodeRequest

    bs = cfg.kv_block_size
    pw = dict(prefix_tokens=2 * bs, suffix_tokens=2, new_tokens=3)
    shared_total = pw["prefix_tokens"] + pw["suffix_tokens"] + pw["new_tokens"]
    shared_model = TransformerConfig(
        "golden-prefix", layers=1, hidden=dw["hidden"], heads=dw["heads"],
        intermediate=4 * dw["hidden"], seq_len=shared_total + 2, causal=True,
    )
    first = decode_request(
        shared_model, prompt_len=pw["prefix_tokens"] + pw["suffix_tokens"],
        max_new_tokens=pw["new_tokens"], seed=dw["seed"],
    )
    sibling_x = first.x.copy()
    sibling_x[pw["prefix_tokens"]:] = np.random.default_rng(
        dw["seed"] + 1
    ).normal(0.0, 1.0, sibling_x[pw["prefix_tokens"]:].shape)
    second = DecodeRequest(
        x=sibling_x, wq=first.wq, wk=first.wk, wv=first.wv, wo=first.wo,
        n_heads=first.n_heads, max_new_tokens=first.max_new_tokens,
        max_seq_len=first.max_seq_len,
    )
    requests = (first, second)
    n_blocks = 2 * worst_case_blocks(first.total_tokens, None, bs)

    plain_pool = BlockPool(
        first.n_heads, first.head_dim, bs, n_blocks=n_blocks
    )
    plain_states = [engine.start(r, pool=plain_pool) for r in requests]
    plain = [
        engine.generate(r, state=s)
        for r, s in zip(requests, plain_states)
    ]

    shared_pool = BlockPool(
        first.n_heads, first.head_dim, bs, n_blocks=n_blocks
    )
    shared_states, shared = [], []
    for request in requests:  # B adopts while A is still resident
        state = engine.start(request, pool=shared_pool, prefix=True)
        shared_states.append(state)
        shared.append(engine.generate(request, state=state))
    for got, want in zip(shared, plain):
        assert np.array_equal(got.generated, want.generated), (
            f"{preset_name}: prefix-cached generate diverged from uncached"
        )
        assert got.vector_cycles == want.vector_cycles, (
            f"{preset_name}: prefix caching changed charged cycles"
        )
        assert got.counters.as_dict() == want.counters.as_dict(), (
            f"{preset_name}: prefix caching changed hardware counters"
        )
    twin = shared_states[1].cache.fork()
    row = np.ones((first.n_heads, first.head_dim))
    twin.append(row, row)  # divergent append into a shared tail block
    assert shared_pool.cow_copies == 1, (
        f"{preset_name}: fork append did not copy-on-write exactly once"
    )
    assert shared_pool.peak_in_use < plain_pool.peak_in_use, (
        f"{preset_name}: sharing did not reduce peak pool residency"
    )
    twin.reset()
    for state in shared_states:
        state.cache.reset()
    for state in plain_states:
        state.cache.reset()
    decode["prefix_cached"] = {
        "kv_block_size": bs,
        **pw,
        "vector_cycles": [g.vector_cycles for g in shared],
        "counters": [
            dict(sorted(g.counters.as_dict().items())) for g in shared
        ],
        "prefix_hits": shared_pool.prefix_hits,
        "prefix_misses": shared_pool.prefix_misses,
        "blocks_shared": shared_pool.blocks_shared,
        "shared_frees": shared_pool.shared_frees,
        "cow_copies": shared_pool.cow_copies,
        "blocks_allocated": shared_pool.blocks_allocated,
        "blocks_freed": shared_pool.blocks_freed,
        "peak_blocks_in_use": shared_pool.peak_in_use,
        "uncached_peak_blocks_in_use": plain_pool.peak_in_use,
        "end_in_use": shared_pool.in_use,
        "end_live_tokens": shared_pool.live_tokens,
    }

    # The golden pins the preset *geometry*.  ``kernel_backend`` names
    # the execution path, which is bit/cycle/counter-neutral by
    # contract (and tested so), so it stays out of the fixture.
    pinned_config = cfg.to_dict()
    del pinned_config["kernel_backend"]

    return {
        "preset": preset_name,
        "config": pinned_config,
        "attention": attention,
        "decode": decode,
    }


def regenerate(section: str | None = None) -> list[pathlib.Path]:
    """Write every preset's golden file; returns the paths written.

    ``section`` (a :data:`SECTIONS` key such as ``"decode.speculative"``)
    replaces only that sub-dict of each existing fixture, leaving every
    other pinned number byte-identical — the guard rail that keeps a
    speculative-only regeneration from silently rewriting the
    attention / decode / paged sections.  ``None`` rewrites whole files
    (required when the preset config itself changes).

    A sectioned run validates *every* target fixture up front — the
    file must exist and already carry the section's key path — before
    any trace is computed, so a stale or schema-drifted fixture fails
    in milliseconds instead of after the full recompute.
    """
    from repro.core.config import PRESETS

    if section is not None and section not in SECTIONS:
        raise ValueError(
            f"unknown section {section!r}; known: {sorted(SECTIONS)}"
        )
    if section is not None:
        for name in sorted(PRESETS):
            path = GOLDEN_DIR / f"{name}.json"
            if not path.exists():
                raise FileNotFoundError(
                    f"cannot regenerate section {section!r} of a missing "
                    f"fixture {path}; run without --section first"
                )
            node = json.loads(path.read_text())
            for key in SECTIONS[section]:
                if not isinstance(node, dict) or key not in node:
                    raise KeyError(
                        f"fixture {path} has no {section!r} section; "
                        "regenerate whole files first (omit --section)"
                    )
                node = node[key]
    GOLDEN_DIR.mkdir(exist_ok=True)
    written = []
    for name in sorted(PRESETS):
        path = GOLDEN_DIR / f"{name}.json"
        trace = golden_trace(name)
        if section is None:
            data = trace
        else:
            data = json.loads(path.read_text())
            keys = SECTIONS[section]
            target, source = data, trace
            for key in keys[:-1]:
                target, source = target[key], source[key]
            target[keys[-1]] = source[keys[-1]]
        path.write_text(json.dumps(data, indent=2) + "\n")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A ``--section`` that is not a :data:`SECTIONS` key — or names a
    section the on-disk fixtures do not carry yet — prints the known
    sections to stderr and returns 2 *before* any trace is computed.
    Silently regenerating nothing on a typo is how pinned numbers go
    stale without anyone noticing.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="Regenerate the per-preset golden-trace fixtures."
    )
    parser.add_argument(
        "--section",
        default=None,
        help="replace only this fixture section (e.g. decode.speculative), "
             "leaving every other pinned number untouched; omit to rewrite "
             "whole files",
    )
    args = parser.parse_args(argv)
    if args.section is not None and args.section not in SECTIONS:
        print(
            f"error: unknown section {args.section!r}; known sections: "
            + ", ".join(sorted(SECTIONS)),
            file=sys.stderr,
        )
        return 2
    try:
        written = regenerate(section=args.section)
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
