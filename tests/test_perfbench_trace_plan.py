"""The repo benchmark's traced entry points still resolve.

``perfbench/layers.py`` wraps named public entry points of the program
(its ``PATCHES``) and skips any that a later version no longer has, so
a refactor that moves or renames one silently zeroes that per-layer
metric instead of failing.  This pins the set of spans the tracer
resolves, and the entries known not to resolve, so such a move shows
up here first.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench import layers, workloads

#: Every span the traced run wraps.
RESOLVED = {
    *(f"decode.{name}" for name in (
        "context_for_query", "project_token", "scores_for_query",
        "shift_scores",
    )),
    "frontdoor.build_report",
    "kernels.table_gather_mac",
    "kernels.tag_match_totals",
    *(f"kvcache.{name}" for name in ("append", "keys")),
    *(f"paging.{name}" for name in (
        "allocate", "append", "fork", "free", "reset", "share", "truncate",
    )),
    *(f"policies.{name}" for name in (
        "admit_next", "preemptions", "select_victim", "step_order",
    )),
    "scheduler.run",
    "softmax.assemble_probabilities",
    "softmax.softmax_reduction",
    "spec.draft.observe",
    "spec.draft.propose_candidates",
    "spec.finish_verify_pass",
    "spec.plan_with_fallback",
    "tables.lookup",
    "tables.segment_index",
    "vector_unit.retarget",
    "vector_unit.run_stream",
}

#: ``PagedKVCache`` inherits its row views from ``KVCache``, and the
#: tracer patches only attributes a class defines itself, so the
#: ``paging.*`` views read 0 (paged reads land in ``kvcache.*``).
#: ``values_snapshot`` names no method of the program (decode reads the
#: ``values`` view), so the tracer skips it.  Folding the two families
#: and tracing ``values`` are a benchmark change of their own.
UNRESOLVED = {
    "paging.keys", "paging.values", "paging.values_snapshot",
    "kvcache.values_snapshot",
}


@pytest.fixture(scope="module")
def session():
    return workloads.make_session()


def test_trace_plan_resolves_every_known_span(session):
    names = {name for _, _, name, _ in layers.trace_plan(session)}
    assert len(RESOLVED) == 31
    assert names == RESOLVED


def test_only_the_inherited_paging_views_are_unresolved():
    unresolved = set()
    for module, owner, attr, name, _ in layers.PATCHES:
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner, None)
        if target is None or attr not in vars(target):
            unresolved.add(name)
    assert unresolved == UNRESOLVED
