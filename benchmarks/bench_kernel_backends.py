"""System benchmark: whole-batch kernel backends vs the loopback loop.

The acceptance gate for the pluggable kernel backends: serving a
long-decode continuous batch through the
:class:`~repro.core.decode.ContinuousBatchScheduler` with the default
``numpy`` backend (one whole-batch gather/MAC launch per phase per
scheduler step) must beat the pinned ``loopback`` reference backend —
the pre-kernel per-token Python execution — by **at least 3x
wall-clock**, while staying bit/cycle/counter-identical (the shared
harness in :func:`repro.eval.experiments.kernel_backend_throughput`
raises on any divergence before reporting a single number).

The workload is the regime the kernels target: a small-hidden causal
model decoding far past its prompt, so per-step time is dominated by
the vector-unit lookup/MAC stream rather than the host QKV GEMVs, and
the per-token loop's Python overhead is laid bare.  Any optional
accelerated backend installed in this process (numba) rides along
in extra rows — reported, equivalence-checked, but not gated.

Alongside the rendered table the benchmark writes a machine-readable
JSON report (``benchmarks/results/kernel_backends.json``) that CI
uploads as an artifact.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_kernel_backends.py -s``.
"""

import json

import pytest

from repro.eval.experiments import kernel_backend_throughput
from repro.workloads.transformer import TransformerConfig

#: Jetson Xavier NX-like overlay geometry (Table II preset).
GEOMETRY = "jetson-nx"
#: Small-hidden causal decoder: keeps the host-side QKV projections
#: cheap so the sweep measures the vector-unit execution strategy, not
#: shared GEMV time both paths pay identically.
MODEL = TransformerConfig(
    "GPT-nano",
    layers=2,
    hidden=128,
    heads=4,
    intermediate=512,
    seq_len=2048,
    causal=True,
)
BATCH_SIZE = 8
PROMPT_LEN = 16
MAX_NEW_TOKENS = 192  # long decode: the continuous-batch steady state
GATE_SPEEDUP = 3.0


@pytest.mark.benchmark(group="kernels")
def test_kernel_backend_speedup_gate(record_experiment, results_dir):
    result = kernel_backend_throughput(
        model_name=MODEL,
        batch_size=BATCH_SIZE,
        prompt_len=PROMPT_LEN,
        max_new_tokens=MAX_NEW_TOKENS,
        config=GEOMETRY,
        seed=0,
        warmup=True,
    )
    record_experiment(result, "kernel_backends.txt")

    labels = result.column("Backend")
    walls = result.column("Wall s")
    speedups = {
        label: walls[0] / wall for label, wall in zip(labels, walls)
    }
    assert labels[0].startswith("loopback"), (
        "the loopback reference backend must pin the first row "
        f"(denominator), got {labels[0]!r}"
    )
    numpy_rows = [label for label in labels if label.startswith("numpy")]
    assert numpy_rows, f"numpy backend row missing from {labels}"
    gated = speedups[numpy_rows[0]]
    assert gated >= GATE_SPEEDUP, (
        f"whole-batch numpy kernels must beat the per-token loopback "
        f"reference by >= {GATE_SPEEDUP}x wall-clock on the "
        f"{BATCH_SIZE} x {MODEL.name} long-decode sweep, got {gated:.2f}x"
    )

    report = {
        "benchmark": "kernel_backends",
        "geometry": GEOMETRY,
        "model": MODEL.name,
        "batch_size": BATCH_SIZE,
        "prompt_len": PROMPT_LEN,
        "max_new_tokens": MAX_NEW_TOKENS,
        "gate": {
            "metric": "numpy_vs_loopback_wall_clock",
            "threshold": GATE_SPEEDUP,
        },
        "numpy_speedup": round(gated, 4),
        "speedups": {k: round(v, 4) for k, v in speedups.items()},
        "rows": [dict(zip(result.headers, row)) for row in result.rows],
    }
    path = results_dir / "kernel_backends.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
