"""The benchmark's own tests.

Not collected by the repository's default test run (the file name does
not match ``test_*.py``); run them with::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import calibrate, catalogue, layers, workloads
from perfbench.tracer import Tracer, outermost, self_times

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def session():
    return workloads.make_session()


def _fingerprint(inputs: workloads.Inputs) -> bytes:
    """Every generated byte and field of a workload's inputs."""
    parts = []
    for item in inputs.requests:
        meta = b""
        if inputs.name == "frontdoor_overload":
            meta = repr((item.arrival, item.priority, item.tenant,
                         item.deadline, item.request_id)).encode()
            item = item.request
        parts += [meta, repr((item.n_heads, item.max_new_tokens)).encode()]
        parts += [np.ascontiguousarray(a).tobytes()
                  for a in (item.x, item.wq, item.wk, item.wv, item.wo)]
    return b"|".join(parts)


@pytest.mark.parametrize("name", catalogue.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(session, name):
    first = _fingerprint(workloads.make_inputs(name, 7, session))
    again = _fingerprint(workloads.make_inputs(name, 7, session))
    other = _fingerprint(workloads.make_inputs(name, 8, session))
    assert first == again
    assert first != other


def test_self_time_subtracts_child_coverage():
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("a", 15, 20, 1, 0),   # nested in the first "a"
        ("b", 25, 60, 0, 0),   # overlaps "a": the union is covered once
        ("b", 90, 120, 0, 0),  # runs past the parent: clipped at 100
    ]
    # root: children cover [10, 60] and [90, 100]
    assert self_times(spans) == [100 - 60, 20 - 5, 5, 35, 30]
    assert [s[1] for s in outermost(spans, {"a"})] == [10]
    tracer = Tracer()
    tracer.spans.extend(spans)
    assert tracer.total("a") == 20 / 1e9
    assert tracer.total("a", "b") == (20 + 35 + 30) / 1e9
    assert tracer.outermost_count("a", "root") == 1
    assert tracer.self_time("root") == 40 / 1e9


def _attrs(plan):
    return [(owner, attr, vars(owner).get(attr, "absent"))
            for owner, attr, _, _ in plan]


def test_traced_run_removes_every_wrapper(session):
    requests = workloads.decode_batch(
        workloads.GPT2_MINI, 2, prompt_len=4, max_new_tokens=6, seed=3
    )
    plan = layers.trace_plan(session)
    before = _attrs(plan)
    tracer = Tracer()
    with tracer.patched(plan):
        batch = session.serve_decode(
            requests, paged=True, speculative=True,
            spec_tree=workloads.SPEC_TREE,
            draft_factory=workloads.draft_factory(session.config),
        )
    assert all(a is b for (_, _, a), (_, _, b) in zip(before, _attrs(plan)))
    names = {span[0] for span in tracer.finished()}
    assert {"scheduler.run", "paging.append", "spec.plan_with_fallback",
            "kernels.table_gather_mac", "policies.admit_next"} <= names
    outcome = workloads.Outcome(
        results=batch.results, tokens=batch.total_generated_tokens,
        requests=batch.n_requests, virtual={}, batch=batch,
    )
    setup = {"table_compiles": 0, "engine_s": 0.0, "inputs_s": 0.0}
    metrics = layers.per_layer(tracer, outcome, setup, 1.0)
    assert list(metrics) == [m.name for m in catalogue.PER_LAYER]


def test_wrappers_are_removed_when_the_traced_code_raises(session):
    plan = layers.trace_plan(session)
    before = _attrs(plan)
    with pytest.raises(ValueError):
        with Tracer().patched(plan):
            session.serve_decode([])
    assert all(a is b for (_, _, a), (_, _, b) in zip(before, _attrs(plan)))


def test_private_attributes_are_never_wrapped():
    class Owner:
        def _hidden(self):
            return 1

    with pytest.raises(ValueError):
        Tracer().patch(Owner, "_hidden", "hidden")


def test_error_rate_counts_an_injected_mismatch(session):
    requests = workloads.decode_batch(
        workloads.GPT2_MINI, 3, prompt_len=4, max_new_tokens=3, seed=5
    )
    inputs = workloads.Inputs("decode_long", tuple(requests))
    solo = workloads.reference(session, inputs)
    outcome = workloads.Outcome(
        results=tuple(solo), tokens=9, requests=3, virtual={}, batch=None
    )
    assert workloads.mismatches(inputs, outcome, solo) == 0
    wrong = replace(solo[1], generated=solo[1].generated + 1e-12)
    injected = replace(outcome, results=(solo[0], wrong, None))
    assert workloads.mismatches(inputs, injected, solo) == 2


def test_scaling_divides_out_the_host_speed():
    ref, scale = calibrate.REFERENCE_S, calibrate.scale_to_reference
    # the same pass on a host running at half speed reads the same
    assert scale(3.0, [ref, ref]) == pytest.approx(3.0)
    assert scale(6.0, [2 * ref, 2 * ref]) == pytest.approx(3.0)
    assert scale(6.0, [ref, 3 * ref]) == pytest.approx(3.0)


def test_benchmark_json_matches_the_catalogue():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == catalogue.benchmark_json()
