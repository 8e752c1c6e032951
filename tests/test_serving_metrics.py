"""Serving metrics: percentile edges and empty-report degradation.

The satellite bugfix pin: a :class:`~repro.serving.metrics.ServingReport`
over **zero requests** must degrade, not crash — the percentile
properties return ``None`` (a percentile of an empty sample is
undefined), ``as_dict``/``to_json`` serialize that as null, and
:func:`~repro.serving.metrics.build_report` folds an empty trace into a
well-formed report.  Around it sit the nearest-rank ``percentile``
edge cases (pct 0/100, single sample) and ``build_report`` over a
mixed finished/deadline-missing batch.
"""

import json

import numpy as np
import pytest

from repro.core.config import NovaConfig
from repro.core.decode import ContinuousBatchResult, NovaDecodeEngine
from repro.noc.stats import EventCounters
from repro.serving.frontdoor import FrontDoor
from repro.serving.metrics import (
    RequestMetrics,
    ServingReport,
    build_report,
    percentile,
)
from repro.workloads.transformer import TransformerConfig, decode_request

SMALL = NovaConfig(n_routers=2, neurons_per_router=8)


def toy_request(seed=0, prompt_len=3, max_new_tokens=3):
    model = TransformerConfig(
        "metrics-toy", layers=1, hidden=16, heads=2, intermediate=64,
        seq_len=64, causal=True,
    )
    return decode_request(
        model, prompt_len=prompt_len, max_new_tokens=max_new_tokens,
        seed=seed,
    )


def empty_result() -> ContinuousBatchResult:
    return ContinuousBatchResult(
        results=(),
        counters=EventCounters(),
        pages_allocated=0,
    )


class TestPercentileEdges:
    def test_pct_bounds_hit_min_and_max(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_single_element_is_every_percentile(self):
        for pct in (0.0, 50.0, 99.0, 100.0):
            assert percentile([42.0], pct) == 42.0

    def test_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 99.0)
        with pytest.raises(ValueError, match="pct"):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError, match="pct"):
            percentile([1.0], 100.1)


class TestEmptyReportDegradation:
    def _empty_report(self) -> ServingReport:
        return ServingReport(
            policy="fcfs",
            requests=(),
            scheduler_steps=0,
            deferrals=0,
            preemptions=0,
            packed_vector_cycles=0,
            sequential_vector_cycles=0,
            makespan_cycles=0.0,
        )

    def test_percentile_properties_degrade_to_none(self):
        report = self._empty_report()
        assert report.p50_ttft is None
        assert report.p99_ttft is None
        assert report.p50_latency is None
        assert report.p99_latency is None

    def test_aggregates_stay_well_defined(self):
        report = self._empty_report()
        assert report.n_requests == 0
        assert report.total_tokens == 0
        assert report.slo_attainment == 1.0
        assert report.goodput_tokens_per_kcycle == 0.0
        assert report.throughput_tokens_per_kcycle == 0.0
        assert report.deferral_rate == 0.0
        assert report.preemption_rate == 0.0
        assert report.tenant_tokens() == {}

    def test_as_dict_and_json_serialize_none(self):
        doc = json.loads(self._empty_report().to_json())
        assert doc["p50_ttft"] is None
        assert doc["p99_ttft"] is None
        assert doc["p50_latency"] is None
        assert doc["p99_latency"] is None
        assert doc["n_requests"] == 0
        assert doc["requests"] == []

    def test_build_report_on_an_empty_trace_is_well_formed(self):
        report = build_report([], empty_result(), "slo-aware")
        assert report.policy == "slo-aware"
        assert report.requests == ()
        assert report.makespan_cycles == 0.0
        assert report.p99_ttft is None
        # and it still serializes end to end
        assert json.loads(report.to_json())["makespan_cycles"] == 0.0

    def test_build_report_still_validates_alignment(self):
        with pytest.raises(ValueError, match="trace has"):
            build_report(
                [FrontDoor(NovaDecodeEngine(SMALL))], empty_result(), "fcfs"
            )


class TestBuildReportMixedOutcomes:
    def test_mixed_finished_and_deadline_missing_requests(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine, max_active=2)
        door.submit(toy_request(seed=0), tenant="a", deadline=10_000.0)
        door.submit(toy_request(seed=1), tenant="b", deadline=1e-9)
        door.submit(toy_request(seed=2), tenant="a")
        report = door.serve()
        met, missed, open_ended = report.requests
        assert met.met_deadline
        assert not missed.met_deadline
        assert open_ended.met_deadline and open_ended.deadline is None
        assert report.slo_attainment == pytest.approx(2.0 / 3.0)
        # percentiles exist and bound each other on a non-empty batch
        assert report.p50_ttft is not None
        assert report.p99_ttft >= report.p50_ttft
        assert report.p99_latency >= report.p50_latency
        # goodput only counts deadline-meeting tokens
        good = (met.tokens + open_ended.tokens) * 1000.0
        assert report.goodput_tokens_per_kcycle == pytest.approx(
            good / report.makespan_cycles
        )
        doc = json.loads(report.to_json())
        assert doc["p50_ttft"] == report.p50_ttft
        assert doc["slo_attainment"] == pytest.approx(report.slo_attainment)

    def test_metrics_match_the_virtual_clock(self):
        engine = NovaDecodeEngine(SMALL)
        door = FrontDoor(engine)
        door.submit(toy_request(seed=0), arrival=100.0)
        report = door.serve()
        (req,) = report.requests
        assert isinstance(req, RequestMetrics)
        assert req.ttft >= 0.0
        assert req.latency >= req.ttft
        assert report.makespan_cycles >= req.latency + 100.0 - 100.0
        assert np.isfinite(report.makespan_cycles)
