"""The repository benchmark: serving throughput end to end, and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload decode_long --seed 0 --seconds 25
    python3 perfbench/run.py --workload all --trace 1

One run serves one workload (see ``perfbench/catalogue.py`` for the
workloads and every metric) in a fresh interpreter: it sets up a cold
session and the seeded inputs, computes the solo-``generate`` reference
once outside timing, then serves the workload pass after pass for
``--seconds`` seconds, checking every request of every pass against the
reference.  Calibration blocks (``perfbench/calibrate.py``) are
interleaved with the passes, and host times are scaled by them to a
reference host: throughput is the run's total work over its total
scaled pass time, and set-up time is the median over several fresh
interpreters, each scaled by its own block.  Virtual-clock metrics must
repeat exactly on every pass.  ``--trace 1`` adds one traced pass and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A mismatch against
the reference fails the run (exit code 1).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # the cold set-up clock starts here

import os  # noqa: E402

# One BLAS thread, pinned before numpy is first imported, here and in
# every child interpreter (they inherit the environment): a second
# thread waits on the host's other core, whose speed co-tenants set.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench import calibrate  # noqa: E402
from perfbench.catalogue import (  # noqa: E402
    END_TO_END,
    ERROR_RATE,
    PER_LAYER,
    WORKLOADS,
)

#: Cold set-ups per run: this interpreter's own plus fresh children.
SETUP_SAMPLES = 3
#: Timed passes per run, at least, however short ``--seconds`` is.
MIN_PASSES = 3
#: Pass seconds between calibration blocks (one follows every pass
#: that ends at least this long after the previous block).
CALIBRATE_EVERY_S = 1.0
SPANS_DIR = ROOT / "perfbench" / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cold_setup(workload: str, seed: int) -> tuple[Any, Any, dict[str, float]]:
    """Import the program, build the session and generate the inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.approx.table_cache import table_cache_info

    from perfbench import workloads

    t_engine = time.perf_counter()
    session = workloads.make_session()
    t_inputs = time.perf_counter()
    inputs = workloads.make_inputs(workload, seed, session)
    done = time.perf_counter()
    calibrate.block(0.1)  # warm-up
    return session, inputs, {
        "setup_s": calibrate.scale_to_reference(
            done - _T0, [calibrate.block()]
        ),
        "engine_s": t_inputs - t_engine,
        "inputs_s": done - t_inputs,
        "table_compiles": table_cache_info()["misses"],
    }


def child_setups(args: argparse.Namespace, n: int) -> list[float]:
    """``setup_s`` of ``n`` fresh interpreters, one after another."""
    samples = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


class Passes:
    """Serves and checks passes, keeping timings and error counts."""

    def __init__(self, session: Any, inputs: Any, solo: list[Any]) -> None:
        from perfbench import workloads

        self.w = workloads
        self.session, self.inputs, self.solo = session, inputs, solo
        self.walls: list[float] = []
        self.tokens = 0
        self.requests = 0
        #: Calibration block seconds, interleaved with the timed passes.
        self.blocks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.virtual: dict[str, float] | None = None

    def run(self) -> tuple[float, Any]:
        """One checked pass; returns (wall seconds, outcome)."""
        gc.collect()
        start = time.perf_counter()
        outcome = self.w.serve(self.session, self.inputs)
        wall = time.perf_counter() - start
        bad = self.w.mismatches(self.inputs, outcome, self.solo)
        if self.virtual is None:
            self.virtual = outcome.virtual
        elif outcome.virtual != self.virtual:
            bad = len(self.solo)  # the virtual clock must repeat exactly
        self.attempted += len(self.solo)
        self.failed += bad
        return wall, outcome

    def timed(self, seconds: float) -> None:
        """Timed passes until ``seconds`` have elapsed (and MIN_PASSES),
        with a calibration block before the first, after the last, and
        after every CALIBRATE_EVERY_S of passes in between."""
        start = time.perf_counter()
        self.blocks.append(calibrate.block())
        since_block = 0.0
        while (len(self.walls) < MIN_PASSES
               or time.perf_counter() - start < seconds):
            wall, outcome = self.run()
            self.walls.append(wall)
            self.tokens += outcome.tokens
            self.requests += outcome.requests
            since_block += wall
            if since_block >= CALIBRATE_EVERY_S:
                self.blocks.append(calibrate.block())
                since_block = 0.0
        if since_block:
            self.blocks.append(calibrate.block())

    def scaled_seconds(self) -> float:
        """Total timed pass seconds, scaled to the reference host."""
        return calibrate.scale_to_reference(sum(self.walls), self.blocks)


def end_to_end(passes: Passes, setups: list[float]) -> dict[str, float]:
    assert passes.virtual is not None
    return {
        "setup_s": statistics.median(setups),
        "tokens_per_s": passes.tokens / passes.scaled_seconds(),
        "requests_per_s": passes.requests / passes.scaled_seconds(),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        **passes.virtual,
    }


def traced_pass(passes: Passes, setup: dict[str, float], workload: str,
                seed: int) -> dict[str, float]:
    """One traced pass; per-layer metrics, spans written to SPANS_DIR."""
    from perfbench.layers import per_layer, trace_plan
    from perfbench.tracer import Tracer

    tracer = Tracer()
    with tracer.patched(trace_plan(passes.session)):
        wall, outcome = passes.run()
    tracer.write(SPANS_DIR / f"{workload}-seed{seed}.spans.jsonl")
    return per_layer(
        tracer, outcome, setup, wall / statistics.median(passes.walls)
    )


def report(workload: str, metrics: dict[str, float], passes: Passes,
           catalogue: tuple[Any, ...]) -> dict[str, Any]:
    """Print the human table; return the result object."""
    units = {m.name: m for m in catalogue}
    error_rate = passes.failed / passes.attempted
    print(f"# {workload}: {len(passes.walls)} timed passes, "
          f"{passes.attempted} requests checked against solo generate")
    print(f"# pass walls (s): {json.dumps([round(w, 4) for w in passes.walls])}")
    print(f"# calibration blocks (s, reference {calibrate.REFERENCE_S}): "
          f"{json.dumps([round(b, 4) for b in passes.blocks])}")
    print(f"# unscaled: {passes.tokens / sum(passes.walls):.6g} tok/s, "
          f"{passes.requests / sum(passes.walls):.6g} req/s")
    for name, value in [*metrics.items(), (ERROR_RATE.name, error_rate)]:
        m = units.get(name, ERROR_RATE)
        print(f"{workload:<20} {name:<34} {value:>16.6g} {m.unit:<12} "
              f"{m.kind}")
    return {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name].unit}
            for name, value in metrics.items()
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh interpreter."""
    codes = [
        subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=900,
        ).returncode
        for workload in WORKLOADS
    ]
    return max(codes)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources ({ROOT / 'src' / 'repro'}) "
              "are missing; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    session, inputs, setup = cold_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    from perfbench import workloads

    solo = workloads.reference(session, inputs)
    passes = Passes(session, inputs, solo)
    passes.run()  # warm-up: first-touch allocations, checked, untimed
    # The reference and inputs live for the whole run; freezing them
    # keeps the collector's full scans of the benchmark's own objects
    # out of the timed passes.
    gc.collect()
    gc.freeze()
    passes.timed(args.seconds)
    if args.trace:
        metrics = traced_pass(passes, setup, args.workload, args.seed)
        result = report(args.workload, metrics, passes, PER_LAYER)
    else:
        setups = [setup["setup_s"], *child_setups(args, SETUP_SAMPLES - 1)]
        metrics = end_to_end(passes, setups)
        result = report(args.workload, metrics, passes, END_TO_END)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
