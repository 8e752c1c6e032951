"""Which public entry points the traced run wraps, and the per-layer view.

:func:`trace_plan` lists ``(owner, attribute, span name, measure)``
patches for one session; :func:`per_layer` turns the recorded spans,
boundary counts and the traced pass's own result into the per-layer
metrics of :data:`perfbench.catalogue.PER_LAYER`.

Planning and softmax functions are patched in the ``repro.core.decode``
namespace, where the decode path looks them up; draft models call their
own copies, so drafting shows up under ``spec.draft_s`` only.
"""

from __future__ import annotations

import importlib
from typing import Any

import numpy as np

from perfbench.tracer import Measure, Tracer

PLANNING = ("decode.project_token", "decode.scores_for_query",
            "decode.shift_scores")
SOFTMAX = ("softmax.softmax_reduction", "softmax.assemble_probabilities")
KERNELS = ("kernels.table_gather_mac", "kernels.tag_match_totals")
TABLES = ("tables.segment_index", "tables.lookup")
PAGING_GATHER = ("paging.keys", "paging.values", "paging.values_snapshot")
PAGING = ("paging.allocate", "paging.free", "paging.share", "paging.append",
          "paging.fork", "paging.truncate", "paging.reset", *PAGING_GATHER)
DRAFT = ("spec.draft.propose_candidates", "spec.draft.observe")


def _queue_len(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    # admit_next(self, waiting, in_flight, now): waiting = arrived queue
    tracer.add("policies.queue_len", len(args[1]))


def _next_step(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    # the scheduler consults step_order once per loop iteration
    tracer.step += 1


def _stream(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.add("vector_unit.elements", np.size(args[1]))


def _gather_mac(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    xs = np.asarray(args[1])
    outputs, idx = result
    tracer.add("kernels.elements", xs.size)
    tracer.add("kernels.bytes_moved", xs.nbytes + outputs.nbytes + idx.nbytes)


def _tag_totals(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.add(
        "kernels.bytes_moved", np.asarray(args[0]).nbytes + result.nbytes
    )


#: (module, class in it or "" for the module, attribute, span, measure).
PATCHES: tuple[tuple[str, str, str, str, Measure | None], ...] = (
    ("repro.core.decode", "ContinuousBatchScheduler", "run",
     "scheduler.run", None),
    ("repro.serving.frontdoor", "", "build_report",
     "frontdoor.build_report", None),
    *(("repro.core.decode", "", n.split(".")[1], n, None)
      for n in (*PLANNING, "decode.context_for_query", *SOFTMAX)),
    ("repro.core.vector_unit", "NovaVectorUnit", "run_stream",
     "vector_unit.run_stream", _stream),
    ("repro.core.vector_unit", "NovaVectorUnit", "retarget",
     "vector_unit.retarget", None),
    *(("repro.approx.quantize", "QuantizedPwl", n.split(".")[1], n, None)
      for n in TABLES),
    *(("repro.core.paging", "BlockPool", n.split(".")[1], n, None)
      for n in ("paging.allocate", "paging.free", "paging.share")),
    *(("repro.core.paging", "PagedKVCache", n.split(".")[1], n, None)
      for n in PAGING[3:]),
    *(("repro.core.decode", "KVCache", attr, f"kvcache.{attr}", None)
      for attr in ("append", "keys", "values_snapshot")),
    *(("repro.core.speculative", "SpeculativeDecodeEngine", attr,
       f"spec.{attr}", None)
      for attr in ("plan_with_fallback", "finish_verify_pass")),
    *(("repro.core.speculative", cls, n.rsplit(".", 1)[1], n, None)
      for cls in ("TruncatedTableDraft", "NGramDraft", "ScheduledDraft")
      for n in DRAFT),
)
POLICY_HOOKS: dict[str, Measure | None] = {
    "admit_next": _queue_len, "step_order": _next_step,
    "preemptions": None, "select_victim": None,
}


def trace_plan(session: Any) -> list[tuple[Any, str, str, Measure | None]]:
    """Every patch of the traced run, public entry points only.

    Entry points a later version of the program no longer has are
    skipped (their metrics read 0) rather than failing the run.  A
    class is patched only where it defines the attribute itself, so
    subclasses that inherit it are not traced twice.
    """
    from repro.serving.policies import POLICIES

    plan: list[tuple[Any, str, str, Measure | None]] = []
    for module, owner, attr, name, measure in PATCHES:
        target: Any = importlib.import_module(module)
        if owner:
            target = getattr(target, owner, None)
        if target is not None and attr in vars(target):
            plan.append((target, attr, name, measure))
    for cls in dict.fromkeys(POLICIES.values()):
        for attr, measure in POLICY_HOOKS.items():
            if attr in vars(cls):
                plan.append((cls, attr, f"policies.{attr}", measure))
    backend = session.decoder.unit.backend
    plan += [
        (backend, "table_gather_mac", KERNELS[0], _gather_mac),
        (backend, "tag_match_totals", KERNELS[1], _tag_totals),
    ]
    return plan


def per_layer(
    tracer: Tracer,
    outcome: Any,
    setup: dict[str, float],
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see the catalogue)."""
    t = tracer
    batch = outcome.batch
    admits = t.count("policies.admit_next")
    spec = [r for r in outcome.results if hasattr(r, "passes")]
    drafted = sum(r.drafted_tokens for r in spec)
    accepted = sum(r.accepted_tokens for r in spec)
    pool = batch.paging or {}
    return {
        "policies.admit_calls": admits,
        "policies.admit_s": t.total("policies.admit_next"),
        "policies.queue_len_mean": (
            t.counts.get("policies.queue_len", 0) / admits if admits else 0.0
        ),
        "policies.order_s": t.total("policies.step_order"),
        "scheduler.self_s": t.self_time("scheduler.run"),
        "scheduler.steps": batch.scheduler_steps,
        "scheduler.tokens_per_step": outcome.tokens / batch.scheduler_steps,
        "scheduler.deferrals": batch.deferrals,
        "scheduler.preemptions": batch.preemptions,
        "decode.plan_calls": t.count("decode.project_token"),
        "decode.plan_s": t.total(*PLANNING),
        "decode.context_s": t.total("decode.context_for_query"),
        "softmax.calls": t.count(*SOFTMAX),
        "softmax.s": t.total(*SOFTMAX),
        "vector_unit.streams": t.count("vector_unit.run_stream"),
        "vector_unit.elements": t.counts.get("vector_unit.elements", 0),
        "vector_unit.stream_self_s": t.self_time("vector_unit.run_stream"),
        "vector_unit.retargets": t.count("vector_unit.retarget"),
        "vector_unit.retarget_s": t.total("vector_unit.retarget"),
        "kernels.launches": t.count("kernels.table_gather_mac"),
        "kernels.elements": t.counts.get("kernels.elements", 0),
        "kernels.s": t.total(*KERNELS),
        "kernels.bytes_moved": t.counts.get("kernels.bytes_moved", 0),
        "tables.lookup_calls": t.outermost_count(*TABLES),
        "tables.lookup_s": t.total(*TABLES),
        "paging.s": t.total(*PAGING),
        "paging.append_s": t.total("paging.append"),
        "paging.gather_s": t.total(*PAGING_GATHER),
        "paging.fork_s": t.total("paging.fork"),
        "paging.blocks_allocated": t.count("paging.allocate"),
        "paging.cow_copies": pool.get("cow_copies", 0),
        "paging.peak_in_use": pool.get("peak_in_use", 0),
        "paging.peak_fragmentation_slots": (
            batch.peak_fragmentation_slots if batch.paging else 0
        ),
        "kvcache.append_s": t.total("kvcache.append"),
        "kvcache.gather_s": t.total("kvcache.keys", "kvcache.values_snapshot"),
        "kvcache.pages_allocated": batch.pages_allocated,
        "spec.plan_s": t.total("spec.plan_with_fallback"),
        "spec.finish_s": t.total("spec.finish_verify_pass"),
        "spec.draft_s": t.total(*DRAFT),
        "spec.passes": sum(r.verify_passes for r in spec),
        "spec.drafted": drafted,
        "spec.accepted": accepted,
        "spec.accept_ratio": accepted / drafted if drafted else 0.0,
        "spec.rolled_back": sum(r.rolled_back_tokens for r in spec),
        "frontdoor.report_s": t.total("frontdoor.build_report"),
        "setup.table_compiles": setup["table_compiles"],
        "setup.engine_s": setup["engine_s"],
        "setup.inputs_s": setup["inputs_s"],
        "trace.overhead_ratio": overhead_ratio,
    }
