"""The benchmark's three serving workloads: inputs, serving call, reference.

Every workload runs on the ``jetson-nx`` preset with the ``numpy`` kernel
backend.  Inputs are a pure function of the workload seed
(:func:`make_inputs`); the program under test only ever receives the
generated requests.  :func:`serve` runs one pass through the public
serving surface and returns an :class:`Outcome` holding the per-request
results (for the correctness check) and the virtual-clock metrics,
which repeat exactly for one code version and seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.config import as_config
from repro.core.session import NovaSession
from repro.core.speculative import TruncatedTableDraft
from repro.serving.arrivals import build_trace, estimate_cycles_per_token
from repro.serving.frontdoor import FrontDoor
from repro.serving.metrics import percentile
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.bert import decode_batch
from repro.workloads.transformer import TransformerConfig

from perfbench.catalogue import WORKLOADS

PRESET = "jetson-nx"
BACKEND = "numpy"


GPT_NANO = TransformerConfig(
    "GPT-nano", layers=2, hidden=128, heads=4, intermediate=512,
    seq_len=2048, causal=True,
)
GPT2_MINI = TransformerConfig(
    "gpt2-mini", layers=1, hidden=64, heads=4, intermediate=256,
    seq_len=256, causal=True,
)
SPEC_TREE = "4x1,2x1,1x1"
DRAFT_FIDELITY = 0.45
FRONTDOOR_REQUESTS = 1600
#: Fixes each workload's shape — the front door's arrivals, sizes,
#: priorities and deadlines, and the draft models' fidelity coins — so
#: virtual-clock metrics repeat exactly across workload seeds; the
#: workload seed draws the prompt and weight values.
SHAPE_SEED = 0


def make_session() -> NovaSession:
    """A fresh session with its decode engine (and tables) built."""
    session = NovaSession(as_config(PRESET).replace(kernel_backend=BACKEND))
    session.decoder  # builds the engine and compiles its tables
    return session


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs."""

    name: str
    #: ``DecodeRequest``s, or ``ServingRequest``s for the front door.
    requests: tuple[Any, ...]

    def decode_requests(self) -> list[Any]:
        """The plain decode requests, in request-index order."""
        if self.name == "frontdoor_overload":
            return [s.request for s in self.requests]
        return list(self.requests)


def make_inputs(name: str, seed: int, session: NovaSession) -> Inputs:
    """Generate ``name``'s inputs from ``seed`` (pure in the seed).

    The front door's deadlines scale with a cycles-per-token probe on
    the session's engine; cycles are architectural, so the probe is as
    deterministic as the rest of the trace.
    """
    base = derive_seed(seed, name)
    if name == "decode_long":
        requests = decode_batch(
            GPT_NANO, 8, prompt_len=16, max_new_tokens=192, seed=base
        )
    elif name == "spec_tree_paged":
        requests = decode_batch(
            GPT2_MINI, 8, prompt_len=16, max_new_tokens=128, seed=base
        )
    elif name == "frontdoor_overload":
        requests = _frontdoor_trace(base, session)
    else:
        raise KeyError(f"unknown workload {name!r}; known: {WORKLOADS}")
    return Inputs(name=name, requests=tuple(requests))


def _frontdoor_trace(base: int, session: NovaSession) -> list[Any]:
    # The shape comes from SHAPE_SEED; ``base`` draws the prompt
    # embeddings and the shared attention weights.
    hidden, n_heads = 16, 2
    cpt = estimate_cycles_per_token(
        session.decoder, hidden=hidden, n_heads=n_heads,
        seed=SHAPE_SEED,
    )
    shape = build_trace(
        FRONTDOOR_REQUESTS,
        hidden=hidden,
        n_heads=n_heads,
        process="poisson",
        mean_gap=1.0,
        prompt_range=(2, 10),
        tokens_range=(2, 48),
        tail_alpha=1.05,
        priorities=(0, 1),
        deadline_slack=2.0,
        cycles_per_token=cpt,
        seed=SHAPE_SEED,
    )
    rng = make_rng(base)
    scale = 1.0 / np.sqrt(hidden)
    wq, wk, wv, wo = (
        rng.normal(0.0, scale, size=(hidden, hidden)) for _ in range(4)
    )
    return [
        replace(
            serving,
            request=replace(
                serving.request,
                x=rng.normal(0.0, scale, size=serving.request.x.shape),
                wq=wq, wk=wk, wv=wv, wo=wo,
            ),
        )
        for serving in shape
    ]


@dataclass(frozen=True)
class Outcome:
    """One serving pass: per-request results plus virtual-clock metrics."""

    #: Per-request results in request-index order (``None`` = missing).
    results: tuple[Any, ...]
    tokens: int
    requests: int
    #: Virtual-clock metrics; identical on every pass of one seed.
    virtual: dict[str, float]
    #: The raw ``ContinuousBatchResult`` (paging/deferral accounting).
    batch: Any


def draft_factory(cfg: Any) -> Any:
    """One TruncatedTableDraft per admitted request, seeded in admission
    order from SHAPE_SEED; a fresh factory per pass keeps every pass's
    coins identical."""
    seeds = itertools.count(derive_seed(SHAPE_SEED, "draft"))
    return lambda: TruncatedTableDraft(
        cfg, fidelity=DRAFT_FIDELITY, seed=next(seeds)
    )


def serve(session: NovaSession, inputs: Inputs) -> Outcome:
    """Run one pass of the workload through the serving API."""
    name = inputs.name
    if name == "frontdoor_overload":
        # FrontDoor is the public class behind NovaSession.serve_async;
        # holding the door gives the per-request results to check.
        door = FrontDoor(
            session.decoder, policy="slo-aware", max_active=8,
            paged=True, pool_blocks=12,
        )
        report = door.serve(inputs.requests)
        by_id = door.last_results()
        results = tuple(by_id.get(s.request_id) for s in inputs.requests)
        return Outcome(
            results=results,
            tokens=report.total_tokens,
            requests=report.n_requests,
            virtual={
                "cycles_per_token": (
                    report.packed_vector_cycles / report.total_tokens
                ),
                "ttft_p50_cycles": float(report.p50_ttft),
                "ttft_p99_cycles": float(report.p99_ttft),
                "goodput_tok_per_kcycle": report.goodput_tokens_per_kcycle,
                "slo_attainment": report.slo_attainment,
                "tokens_per_pass": 1.0,
                "peak_kv_slots": float(door.last_result.peak_kv_slots),
            },
            batch=door.last_result,
        )
    if name == "decode_long":
        batch = session.serve_decode(inputs.requests, max_active=8)
        per_pass = 1.0
    elif name == "spec_tree_paged":
        batch = session.serve_decode(
            inputs.requests, max_active=8, paged=True, pool_blocks=1024,
            speculative=True, spec_tree=SPEC_TREE,
            draft_factory=draft_factory(session.config),
        )
        passes = sum(r.verify_passes for r in batch.results)
        per_pass = batch.total_generated_tokens / passes
    else:
        raise KeyError(f"unknown workload {name!r}; known: {WORKLOADS}")
    tokens = batch.total_generated_tokens
    ttft = list(batch.first_token_times)
    makespan = max(batch.finish_times)
    return Outcome(
        results=batch.results,
        tokens=tokens,
        requests=batch.n_requests,
        virtual={
            "cycles_per_token": batch.packed_vector_cycles / tokens,
            "ttft_p50_cycles": float(percentile(ttft, 50.0)),
            "ttft_p99_cycles": float(percentile(ttft, 99.0)),
            # no deadlines: every token counts toward goodput
            "goodput_tok_per_kcycle": 1000.0 * tokens / makespan,
            "slo_attainment": 1.0,
            "tokens_per_pass": per_pass,
            "peak_kv_slots": float(batch.peak_kv_slots),
        },
        batch=batch,
    )


def reference(session: NovaSession, inputs: Inputs) -> list[Any]:
    """Solo ``generate`` of every request (the exactness reference)."""
    return [session.generate(r) for r in inputs.decode_requests()]


def mismatches(inputs: Inputs, outcome: Outcome, solo: list[Any]) -> int:
    """Requests that are missing or differ from solo ``generate``.

    Plain results must match tokens, vector cycles and event counters;
    speculative results match tokens and ``sequential_vector_cycles``
    (the cost plain generate charges for the same tokens).
    """
    bad = 0
    for got, ref in zip(outcome.results, solo):
        if got is None or not np.array_equal(got.generated, ref.generated):
            bad += 1
        elif inputs.name == "spec_tree_paged":
            bad += got.sequential_vector_cycles != ref.vector_cycles
        else:
            bad += (
                got.vector_cycles != ref.vector_cycles
                or got.counters.as_dict() != ref.counters.as_dict()
            )
    return bad + max(0, len(solo) - len(outcome.results))
