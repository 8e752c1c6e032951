"""SLO metrics for serving runs: TTFT, latency, percentiles, goodput.

The metrics layer turns one continuously batched run — the per-request
step timing :class:`~repro.core.decode.ContinuousBatchResult` now
carries — into the quantities a serving fleet is judged by:

* **TTFT** (time to first token): virtual cycles from a request's
  arrival to the scheduler step its prefill lands (the last prefill
  output is the request's first visible token).
* **Latency**: arrival to completion of the full generation budget.
* **p50/p99**: nearest-rank percentiles over the per-request values —
  deterministic (sorted order, no interpolation), so reports are
  byte-stable across runs and machines.
* **Goodput**: generated tokens of requests that met their deadline,
  per kilocycle of virtual makespan — the throughput that actually
  counts toward SLOs (tokens of deadline-missing requests are wasted
  work).  Requests without a deadline always count.
* **Deferral / preemption rates**: the scheduler's memory-pressure
  actions, normalised per scheduler step and per request.

Every time here is **virtual cycles** on the scheduler's deterministic
clock; nothing reads the host clock (NV008 covers this package).
:meth:`ServingReport.as_dict` / :meth:`ServingReport.to_json` emit a
plain-data report for dashboards and the benchmark harness.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from math import ceil
from typing import TYPE_CHECKING

from repro.core.decode import ContinuousBatchResult

if TYPE_CHECKING:
    from repro.serving.frontdoor import ServingRequest

__all__ = ["RequestMetrics", "ServingReport", "build_report", "percentile"]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    The smallest element at or above the ``pct`` rank of the sorted
    values — the convention tail-latency dashboards use (p99 of 100
    samples is the 99th smallest).  Raises on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample is undefined")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(values)
    # pct = 0 yields rank 0; clamp to the first element.
    rank = max(1, ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class RequestMetrics:
    """One request's serving outcome, all times in virtual cycles."""

    request_id: int
    tenant: str
    priority: int
    arrival: float
    first_token_step: int
    finish_step: int
    ttft: float
    latency: float
    tokens: int
    deadline: float | None
    met_deadline: bool

    def as_dict(self) -> dict[str, object]:
        """Plain-data (JSON-ready) form."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "arrival": self.arrival,
            "first_token_step": self.first_token_step,
            "finish_step": self.finish_step,
            "ttft": self.ttft,
            "latency": self.latency,
            "tokens": self.tokens,
            "deadline": self.deadline,
            "met_deadline": self.met_deadline,
        }


@dataclass(frozen=True)
class ServingReport:
    """Aggregate SLO report of one front-door serving run."""

    policy: str
    requests: tuple[RequestMetrics, ...]
    scheduler_steps: int
    deferrals: int
    preemptions: int
    packed_vector_cycles: int
    sequential_vector_cycles: int
    makespan_cycles: float
    #: Prefix-caching counters, copied from the paged run's pool
    #: accounting (all zero for contiguous runs or with the knob off).
    prefix_hits: int = 0
    prefix_misses: int = 0
    blocks_shared: int = 0
    cow_copies: int = 0

    @property
    def n_requests(self) -> int:
        """Requests served to completion."""
        return len(self.requests)

    @property
    def total_tokens(self) -> int:
        """Generated tokens across every request."""
        return sum(r.tokens for r in self.requests)

    @property
    def p50_ttft(self) -> float | None:
        """Median time-to-first-token (virtual cycles; ``None`` when
        the run served no requests — a percentile of an empty sample
        is undefined, and dashboards render null, not a crash)."""
        if not self.requests:
            return None
        return percentile([r.ttft for r in self.requests], 50.0)

    @property
    def p99_ttft(self) -> float | None:
        """Tail time-to-first-token (virtual cycles; ``None`` on an
        empty request set)."""
        if not self.requests:
            return None
        return percentile([r.ttft for r in self.requests], 99.0)

    @property
    def p50_latency(self) -> float | None:
        """Median arrival-to-completion latency (virtual cycles;
        ``None`` on an empty request set)."""
        if not self.requests:
            return None
        return percentile([r.latency for r in self.requests], 50.0)

    @property
    def p99_latency(self) -> float | None:
        """Tail arrival-to-completion latency (virtual cycles;
        ``None`` on an empty request set)."""
        if not self.requests:
            return None
        return percentile([r.latency for r in self.requests], 99.0)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests that met their deadline."""
        if not self.requests:
            return 1.0
        met = sum(1 for r in self.requests if r.met_deadline)
        return met / len(self.requests)

    @property
    def goodput_tokens_per_kcycle(self) -> float:
        """Deadline-meeting tokens per 1000 virtual cycles of makespan."""
        if self.makespan_cycles <= 0.0:
            return 0.0
        good = sum(r.tokens for r in self.requests if r.met_deadline)
        return 1000.0 * good / self.makespan_cycles

    @property
    def throughput_tokens_per_kcycle(self) -> float:
        """All generated tokens per 1000 virtual cycles of makespan."""
        if self.makespan_cycles <= 0.0:
            return 0.0
        return 1000.0 * self.total_tokens / self.makespan_cycles

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-index lookups that found a cached block.

        0.0 when prefix caching never looked anything up (contiguous
        runs, the knob off, or prompts shorter than one block).
        """
        lookups = self.prefix_hits + self.prefix_misses
        if lookups == 0:
            return 0.0
        return self.prefix_hits / lookups

    @property
    def deferral_rate(self) -> float:
        """Deferrals per scheduler step."""
        return self.deferrals / max(1, self.scheduler_steps)

    @property
    def preemption_rate(self) -> float:
        """Preemptions per request."""
        return self.preemptions / max(1, self.n_requests)

    def tenant_tokens(self) -> dict[str, int]:
        """Generated tokens per tenant (the fairness view)."""
        totals: dict[str, int] = {}
        for r in self.requests:
            totals[r.tenant] = totals.get(r.tenant, 0) + r.tokens
        return totals

    def as_dict(self) -> dict[str, object]:
        """Plain-data (JSON-ready) form, aggregates included."""
        return {
            "policy": self.policy,
            "n_requests": self.n_requests,
            "total_tokens": self.total_tokens,
            "scheduler_steps": self.scheduler_steps,
            "deferrals": self.deferrals,
            "preemptions": self.preemptions,
            "packed_vector_cycles": self.packed_vector_cycles,
            "sequential_vector_cycles": self.sequential_vector_cycles,
            "makespan_cycles": self.makespan_cycles,
            "p50_ttft": self.p50_ttft,
            "p99_ttft": self.p99_ttft,
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "slo_attainment": self.slo_attainment,
            "goodput_tokens_per_kcycle": self.goodput_tokens_per_kcycle,
            "throughput_tokens_per_kcycle": (
                self.throughput_tokens_per_kcycle
            ),
            "deferral_rate": self.deferral_rate,
            "preemption_rate": self.preemption_rate,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "prefix_hit_rate": self.prefix_hit_rate,
            "blocks_shared": self.blocks_shared,
            "cow_copies": self.cow_copies,
            "tenant_tokens": self.tenant_tokens(),
            "requests": [r.as_dict() for r in self.requests],
        }

    def to_json(self, indent: int | None = None) -> str:
        """The report as a JSON document."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


def build_report(
    trace: "Sequence[ServingRequest]",
    result: ContinuousBatchResult,
    policy: str,
) -> ServingReport:
    """Fold one scheduler result into a :class:`ServingReport`.

    ``trace`` and ``result`` must be index-aligned (request ``i`` of
    the trace is ``result.results[i]``) — the front door guarantees
    this.  ``request_id`` is taken from each trace entry.  An empty
    trace folds into a well-formed report: zero requests, zero
    makespan, ``None`` percentiles.
    """
    if len(trace) != len(result.results):
        raise ValueError(
            f"trace has {len(trace)} requests but the result has "
            f"{len(result.results)}"
        )
    per_request = []
    for i, serving in enumerate(trace):
        first_token_time = result.first_token_times[i]
        finish_time = result.finish_times[i]
        deadline = serving.deadline
        per_request.append(
            RequestMetrics(
                request_id=serving.request_id,
                tenant=serving.tenant,
                priority=serving.priority,
                arrival=serving.arrival,
                first_token_step=result.first_token_steps[i],
                finish_step=result.finish_steps[i],
                ttft=first_token_time - serving.arrival,
                latency=finish_time - serving.arrival,
                tokens=result.results[i].n_generated,
                deadline=deadline,
                met_deadline=(
                    deadline is None or finish_time <= deadline
                ),
            )
        )
    per_request.sort(key=lambda r: r.request_id)
    paging = result.paging
    return ServingReport(
        policy=policy,
        requests=tuple(per_request),
        scheduler_steps=result.scheduler_steps,
        deferrals=result.deferrals,
        preemptions=result.preemptions,
        packed_vector_cycles=result.packed_vector_cycles,
        sequential_vector_cycles=result.sequential_vector_cycles,
        makespan_cycles=max(result.finish_times, default=0.0),
        prefix_hits=int(paging.get("prefix_hits", 0)),
        prefix_misses=int(paging.get("prefix_misses", 0)),
        blocks_shared=int(paging.get("blocks_shared", 0)),
        cow_copies=int(paging.get("cow_copies", 0)),
    )
