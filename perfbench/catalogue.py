"""Every metric the benchmark reports: unit, direction, kind, and role.

``kind`` says what a number measures:

* ``host`` — wall-clock time or memory of the host running the benchmark;
  the gated times are scaled to a reference host by calibration blocks
  interleaved with them (``perfbench/calibrate.py``), since the host's
  own speed drifts;
* ``virtual`` — the simulator's virtual cycles, the paper's result: they
  repeat exactly for one code version and seed, so a host-speed change
  that alters the modelled design shows up here;
* ``count`` — work counted by the program or at a traced boundary
  (repeats exactly).

Each per-layer metric names its layer and the end-to-end metric it
should move, on which workload (``moves``), so later changes can cite
them.  ``BENCHMARK.json`` at the repository root carries the subset of
these fields its format allows; ``python3 perfbench/catalogue.py``
prints that file from this table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    kind: str  # "host" | "virtual" | "count"
    what: str
    #: End-to-end only: the share of the parent's median it may worsen.
    bound: float | None = None
    #: Per-layer only: the layer's module and what it should move.
    layer: str = ""
    moves: str = ""


#: Workload -> one-line reason it exists.
WHY = {
    "decode_long": (
        "8 GPT-nano requests, prompt 16 + 192 new, contiguous KV, FCFS: "
        "planning, softmax, vector unit, kernels and counters dominate"
    ),
    "spec_tree_paged": (
        "8 gpt2-mini requests, prompt 16 + 128 new, paged, draft tree "
        "4x1,2x1,1x1 at fidelity 0.45: paging writes and spec verify dominate"
    ),
    "frontdoor_overload": (
        "1600-request Poisson trace, mean gap 1 cycle, slo-aware, 12-block "
        "pool: admission, bookkeeping, retargets and block churn dominate"
    ),
}
WORKLOADS = tuple(WHY)

END_TO_END = (
    Metric("setup_s", "s", "lower", "host", "cold session, engine and "
           "table compile plus input generation in a fresh interpreter, "
           "scaled to the reference host; median of several interpreters",
           bound=0.25),
    Metric("tokens_per_s", "tok/s", "higher", "host", "generated tokens "
           "over the run's total pass time scaled to the reference host",
           bound=0.24),
    Metric("requests_per_s", "req/s", "higher", "host", "completed "
           "requests over the run's total pass time scaled to the "
           "reference host", bound=0.24),
    Metric("peak_rss_mb", "MB", "lower", "host", "peak resident memory "
           "of the workload's interpreter", bound=0.1),
    Metric("cycles_per_token", "cycles/tok", "lower", "virtual", "packed "
           "vector cycles per generated token", bound=0.01),
    Metric("ttft_p50_cycles", "cycles", "lower", "virtual", "median time "
           "to first token from the scheduled arrival", bound=0.01),
    Metric("ttft_p99_cycles", "cycles", "lower", "virtual", "p99 time to "
           "first token from the scheduled arrival", bound=0.01),
    Metric("goodput_tok_per_kcycle", "tok/kcycle", "higher", "virtual",
           "deadline-meeting tokens per 1000 cycles of makespan", bound=0.01),
    Metric("slo_attainment", "fraction", "higher", "virtual", "share of "
           "requests finishing by their deadline (1 without deadlines)",
           bound=0.01),
    Metric("tokens_per_pass", "tok/pass", "higher", "virtual", "committed "
           "tokens per verification pass (1 for plain decode)", bound=0.01),
    Metric("peak_kv_slots", "slots", "lower", "virtual", "most KV token "
           "slots reserved at once", bound=0.01),
)

#: Printed with the end-to-end table; the result object carries it as
#: ``failed``/``attempted``, since a metric that reads 0 cannot gate.
ERROR_RATE = Metric(
    "error_rate", "fraction", "lower", "count", "share of attempted "
    "requests missing or differing from solo generate",
)

D, S, F = "decode_long", "spec_tree_paged", "frontdoor_overload"


def _layer(layer: str, moves: str, *rows: tuple[str, str, str, str, str]
           ) -> tuple[Metric, ...]:
    """Per-layer metrics from ``(name, unit, better, kind, what)`` rows."""
    return tuple(
        Metric(name, unit, better, kind, what, layer=layer, moves=moves)
        for name, unit, better, kind, what in rows
    )


PER_LAYER = (
    *_layer(
        "repro.serving.policies", f"requests_per_s@{F}; ~0 on {D}",
        ("policies.admit_calls", "count", "lower", "count",
         "admit_next calls"),
        ("policies.admit_s", "s", "lower", "host", "time in admit_next"),
        ("policies.queue_len_mean", "requests", "lower", "count",
         "arrived-and-waiting requests per admit_next call"),
        ("policies.order_s", "s", "lower", "host", "time in step_order"),
    ),
    *_layer(
        "repro.core.decode scheduler",
        f"tokens_per_s@{D}; requests_per_s@{F}",
        ("scheduler.self_s", "s", "lower", "host", "ContinuousBatchScheduler.run "
         "minus traced children: step bookkeeping and per-job counters"),
        ("scheduler.steps", "count", "lower", "count", "scheduler steps"),
        ("scheduler.tokens_per_step", "tok/step", "higher", "count",
         "generated tokens per scheduler step"),
        ("scheduler.deferrals", "count", "lower", "count",
         "out-of-memory deferrals"),
        ("scheduler.preemptions", "count", "lower", "count", "preemptions"),
    ),
    *_layer(
        "repro.core.decode planning", f"tokens_per_s@{D}",
        ("decode.plan_calls", "count", "lower", "count",
         "tokens planned (project_token calls)"),
        ("decode.plan_s", "s", "lower", "host",
         "project_token + scores_for_query + shift_scores"),
        ("decode.context_s", "s", "lower", "host", "context_for_query"),
    ),
    *_layer(
        "repro.core.attention softmax", f"tokens_per_s@{D}",
        ("softmax.calls", "count", "lower", "count",
         "softmax_reduction + assemble_probabilities calls"),
        ("softmax.s", "s", "lower", "host", "time in those calls"),
    ),
    *_layer(
        "repro.core.vector_unit",
        f"stream_self_s: tokens_per_s@{D}; retarget_s: requests_per_s@{F}",
        ("vector_unit.streams", "count", "lower", "count", "run_stream calls"),
        ("vector_unit.elements", "count", "lower", "count",
         "elements streamed"),
        ("vector_unit.stream_self_s", "s", "lower", "host",
         "run_stream minus its kernel calls"),
        ("vector_unit.retargets", "count", "lower", "count", "retarget calls"),
        ("vector_unit.retarget_s", "s", "lower", "host", "time in retarget"),
    ),
    *_layer(
        "repro.core.kernels", f"tokens_per_s@{D}",
        ("kernels.launches", "count", "lower", "count",
         "table_gather_mac launches"),
        ("kernels.elements", "count", "lower", "count", "elements gathered"),
        ("kernels.s", "s", "lower", "host",
         "table_gather_mac + tag_match_totals"),
        ("kernels.bytes_moved", "bytes", "lower", "count", "computed from "
         "array sizes: input plus output bytes of every kernel call"),
    ),
    *_layer(
        "repro.approx.quantize", f"tokens_per_s@{D}; requests_per_s@{F}",
        ("tables.lookup_calls", "count", "lower", "count",
         "outermost QuantizedPwl.segment_index/lookup calls"),
        ("tables.lookup_s", "s", "lower", "host", "time in those calls"),
    ),
    *_layer(
        "repro.core.paging",
        f"tokens_per_s@{S}; requests_per_s@{F}; zero on {D}",
        ("paging.s", "s", "lower", "host", "BlockPool + PagedKVCache entry points"),
        ("paging.append_s", "s", "lower", "host", "PagedKVCache.append"),
        ("paging.gather_s", "s", "lower", "host",
         "PagedKVCache keys/values/values_snapshot"),
        ("paging.fork_s", "s", "lower", "host", "PagedKVCache.fork"),
        ("paging.blocks_allocated", "count", "lower", "count",
         "BlockPool.allocate calls"),
        ("paging.cow_copies", "count", "lower", "count",
         "copy-on-write block copies"),
        ("paging.peak_in_use", "blocks", "lower", "count",
         "most pool blocks in use"),
        ("paging.peak_fragmentation_slots", "slots", "lower", "count",
         "most allocated-but-unused pool slots"),
    ),
    *_layer(
        "repro.core.decode contiguous KV",
        f"tokens_per_s@{D}; zero on {S} and {F}",
        ("kvcache.append_s", "s", "lower", "host", "KVCache.append"),
        ("kvcache.gather_s", "s", "lower", "host",
         "KVCache.keys + values_snapshot"),
        ("kvcache.pages_allocated", "count", "lower", "count",
         "contiguous pages allocated"),
    ),
    *_layer(
        "repro.core.speculative", f"tokens_per_s, tokens_per_pass@{S}",
        ("spec.plan_s", "s", "lower", "host",
         "plan_with_fallback, drafting included"),
        ("spec.finish_s", "s", "lower", "host", "finish_verify_pass"),
        ("spec.draft_s", "s", "lower", "host",
         "draft propose_candidates + observe"),
        ("spec.passes", "count", "lower", "count", "verification passes"),
        ("spec.drafted", "count", "lower", "count", "drafted tokens"),
        ("spec.accepted", "count", "higher", "count", "accepted drafts"),
        ("spec.accept_ratio", "fraction", "higher", "count",
         "accepted / drafted"),
        ("spec.rolled_back", "count", "lower", "count",
         "provisional tokens rolled back"),
    ),
    *_layer(
        "repro.serving.frontdoor", f"requests_per_s@{F}",
        ("frontdoor.report_s", "s", "lower", "host", "build_report"),
    ),
    *_layer(
        "set-up", "setup_s on every workload",
        ("setup.table_compiles", "count", "lower", "count",
         "table-cache misses"),
        ("setup.engine_s", "s", "lower", "host", "session, engine and tables"),
        ("setup.inputs_s", "s", "lower", "host", "input generation"),
    ),
    *_layer(
        "tracing", "none: the cost of the traced run itself",
        ("trace.overhead_ratio", "ratio", "lower", "host",
         "traced pass wall time over the untraced median"),
    ),
)


def benchmark_json() -> dict[str, object]:
    """The repository's ``BENCHMARK.json`` for these metrics."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": n, "why": w} for n, w in WHY.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
