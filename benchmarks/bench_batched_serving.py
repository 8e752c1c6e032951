"""System benchmark: batched attention serving vs the sequential engine.

The acceptance gate for the serving path: a batch of 16 BERT-base
attention layers through :meth:`NovaDecodeEngine.attention_batch` (one
shared overlay, lane packing, cached tables/schedules, vectorised
streams) must deliver at least 3x the wall-clock throughput of looping
the cycle-accurate single-request :class:`NovaAttentionEngine`, while
every request's ``vector_cycles`` and event counters — the hardware
cost model — stay identical between the two paths and outputs and
probabilities stay byte-identical (the shared harness in
:func:`repro.eval.experiments.batched_serving_throughput` raises on any
divergence before reporting).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_batched_serving.py -s``.
"""

import pytest

from repro.eval.experiments import batched_serving_throughput

#: Jetson Xavier NX-like overlay geometry (Table II preset): 2 routers x
#: 16 neurons.  The small lane count is the interesting serving case —
#: each request needs thousands of PE cycles, so keeping the unit fed
#: across request boundaries is where batching pays.
GEOMETRY = "jetson-nx"
BATCH_SIZE = 16
SEQ_LEN = 64  # BERT-base attention at a serving-typical sequence length


@pytest.mark.benchmark(group="serving")
def test_batched_serving_throughput(record_experiment):
    result = batched_serving_throughput(
        model_name="BERT-base",
        batch_size=BATCH_SIZE,
        seq_len=SEQ_LEN,
        config=GEOMETRY,
        seed=0,
        warmup=True,
    )
    record_experiment(result, "serving_throughput.txt")

    speedups = [float(str(cell).rstrip("x")) for cell in result.column("Speedup")]
    sequential_s, batched_s = result.column("Wall s")
    assert speedups[-1] >= 3.0, (
        f"batched serving must be >= 3x the sequential engine, got "
        f"{speedups[-1]:.2f}x ({sequential_s}s vs {batched_s}s)"
    )
