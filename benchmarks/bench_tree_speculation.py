"""System benchmark: draft-tree speculation vs a linear draft chain.

The acceptance gate for tree speculation: at the Jetson-like Table II
geometry, with both paths staking the **same number of provisional
tokens per verification pass** (the linear chain's depth is pinned to
the tree's node count) and drafting with the **same per-candidate
fidelity coin**, scoring a draft *tree* in one packed pass must
deliver at least **1.15x more tokens/sec** than the linear chain —
while both paths stay bit-identical to plain ``generate`` (the shared
harness in :func:`repro.eval.experiments.tree_speculation_speedup`
raises on any divergence before reporting).

The workload is the regime trees are for: a low-fidelity draft.  A
deep linear chain dies at its first rejected position, so most of its
budget is rolled back every pass; a wide first level usually keeps
*some* branch alive, so the same budget commits more tokens per pass
— which shows up both in wall-clock tokens/sec and in the
deterministic packed cycles/token (asserted as a noise-free secondary
gate).

Alongside the rendered table the benchmark writes a machine-readable
JSON report (``benchmarks/results/tree_speculation_speedup.json``)
that CI uploads as an artifact.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_tree_speculation.py -s``.
"""

import json

import pytest

from repro.eval.experiments import tree_speculation_speedup

#: Jetson Xavier NX-like overlay geometry (Table II preset).
GEOMETRY = "jetson-nx"
BATCH_SIZE = 8
MAX_NEW_TOKENS = 32
#: Wide-first draft tree: 4 alternatives at depth 1, 2 at depth 2, 1 at
#: depth 3 = 20 nodes, so the linear baseline is the "1x20" chain.
SPEC_TREE = "4x1,2x1,1x1"
#: Per-candidate probability that a draft is exact — low on purpose:
#: trees pay off when any single draft is usually wrong.
FIDELITY = 0.45


@pytest.mark.benchmark(group="serving")
def test_tree_speculation_speedup_gate(record_experiment, results_dir):
    result = tree_speculation_speedup(
        batch_size=BATCH_SIZE,
        max_new_tokens=MAX_NEW_TOKENS,
        config=GEOMETRY,
        spec_tree=SPEC_TREE,
        fidelity=FIDELITY,
        seed=0,
        warmup=True,
    )
    record_experiment(result, "tree_speculation_speedup.txt")

    linear_row, tree_row = result.rows
    tokens_per_sec = result.column("Tokens/s")
    speedup = tokens_per_sec[1] / tokens_per_sec[0]
    assert speedup >= 1.15, (
        f"a draft tree must deliver >= 1.15x tokens/sec over a linear "
        f"chain staking the same {SPEC_TREE}-node verification budget "
        f"at {GEOMETRY} (fidelity {FIDELITY}), got {speedup:.2f}x "
        f"({tokens_per_sec[1]} vs {tokens_per_sec[0]} tokens/sec)"
    )
    # the win must come from committing more of the same budget, not
    # from timing noise: both supporting metrics are deterministic
    tokens_per_pass = result.column("Tokens/pass")
    assert tokens_per_pass[1] > tokens_per_pass[0], (
        f"the tree must commit more tokens per verification pass, got "
        f"{tokens_per_pass[1]} vs {tokens_per_pass[0]}"
    )
    cycles_per_token = result.column("Cycles/token")
    assert cycles_per_token[1] < cycles_per_token[0], (
        f"the tree must spend fewer packed cycles per committed token, "
        f"got {cycles_per_token[1]} vs {cycles_per_token[0]}"
    )

    report = {
        "benchmark": "tree_speculation_speedup",
        "geometry": GEOMETRY,
        "batch_size": BATCH_SIZE,
        "max_new_tokens": MAX_NEW_TOKENS,
        "spec_tree": SPEC_TREE,
        "fidelity": FIDELITY,
        "gate": {"metric": "tokens_per_sec_speedup", "threshold": 1.15},
        "speedup": round(speedup, 4),
        "tokens_per_pass": {
            "linear": tokens_per_pass[0],
            "tree": tokens_per_pass[1],
        },
        "cycles_per_token": {
            "linear": cycles_per_token[0],
            "tree": cycles_per_token[1],
        },
        "rows": [
            dict(zip(result.headers, row)) for row in result.rows
        ],
    }
    path = results_dir / "tree_speculation_speedup.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
