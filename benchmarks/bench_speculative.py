"""System benchmark: speculative draft-and-verify decode, gated on cycles.

The acceptance gate for speculative decode: under a workload whose
draft achieves at least a **0.7 measured acceptance rate**, draft-and-
verify generation at the Jetson-like Table II geometry must charge the
overlay fewer cycles than plain KV-cached generation, solo and
continuously batched, while every speculative path stays bit-identical
to plain ``generate`` (the shared harness in
:func:`repro.eval.experiments.speculative_decode_speedup` raises on any
divergence before reporting, and additionally checks each speculative
result's closed-form sequential-equivalent cycles against the plain
run's).

The gate is the **cycle speedup**: the cycles plain decode charges for
the same tokens (sequential) over the cycles each path actually
charged.  That is what speculation saves on the overlay — one
verification pass scores up to ``depth + 1`` positions in a single
traversal — and it is deterministic, so the floors below are the exact
ratios this workload measures (1560 plain cycles against 1376 solo and
1237 batched).  Wall-clock tokens/sec and speedup stay in the printed
report but are not gated: they compare speculation against plain
decode's host speed, which moves whenever plain decode gets faster.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_speculative.py -s``.
"""

import pytest

from repro.core.config import preset
from repro.eval.experiments import ExperimentResult, speculative_decode_speedup

#: Jetson Xavier NX-like overlay geometry (Table II preset).
GEOMETRY = "jetson-nx"
BATCH_SIZE = 8
MAX_NEW_TOKENS = 32
#: Draft chain of depth 12: one verification pass scores up to 13
#: positions.
SPEC_TREE = "1x12"
#: Target long-run acceptance rate the workload's draft fidelity is
#: solved for (the measured rate is asserted >= 0.7 below).
ACCEPTANCE = 0.9
#: Cycle-speedup floors: plain cycles over charged cycles, measured on
#: this workload (deterministic, so any lost cycle fails the gate).
SOLO_CYCLE_FLOOR = 1560 / 1376
BATCHED_CYCLE_FLOOR = 1560 / 1237


def run_workload(acceptance: float, warmup: bool) -> ExperimentResult:
    return speculative_decode_speedup(
        batch_size=BATCH_SIZE,
        max_new_tokens=MAX_NEW_TOKENS,
        config=preset(GEOMETRY).replace(spec_tree=SPEC_TREE),
        acceptance_rate=acceptance,
        seed=0,
        warmup=warmup,
    )


def assert_cycle_gate(result: ExperimentResult) -> None:
    """The gate: each speculative path's cycle speedup meets its floor."""
    cycles = result.headers.index("Vector cycles")
    plain_row, solo_row, batched_row = result.rows
    plain = plain_row[cycles]
    for label, row, floor in (
        ("solo", solo_row, SOLO_CYCLE_FLOOR),
        ("batched", batched_row, BATCHED_CYCLE_FLOOR),
    ):
        speedup = plain / row[cycles]
        assert speedup >= floor, (
            f"{label} speculative decode must charge <= {plain / floor:.0f} "
            f"cycles for what plain decode charges {plain} at {GEOMETRY} "
            f"(cycle speedup >= {floor:.4f}x), got {row[cycles]} cycles "
            f"({speedup:.4f}x)"
        )


@pytest.mark.benchmark(group="serving")
def test_speculative_decode_speedup(record_experiment):
    result = run_workload(ACCEPTANCE, warmup=True)
    record_experiment(result, "speculative_decode_speedup.txt")

    solo_row = result.rows[1]
    acceptance = float(solo_row[result.headers.index("Acceptance")])
    assert acceptance >= 0.7, (
        f"the gate is defined at a >= 0.7 acceptance-rate workload, but "
        f"the draft only reached {acceptance:.2f}; raise the target "
        "acceptance_rate or the chain depth"
    )
    assert_cycle_gate(result)


def test_gate_rejects_a_draft_that_never_verifies():
    """Every draft misses: each pass charges depth + 1 positions for
    one committed token, so the gate must fail."""
    result = run_workload(0.0, warmup=False)
    assert result.rows[1][result.headers.index("Acceptance")] == "0.00"
    with pytest.raises(AssertionError, match="cycle speedup"):
        assert_cycle_gate(result)
