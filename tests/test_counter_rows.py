"""Event counters stay one int64 row from the stream to the result.

The vector unit's streams, the engine's jobs and passes and the
scheduler's totals carry their events as int64 rows indexed by
:data:`~repro.noc.stats.OVERLAY_EVENTS`; a counter bag is built only
where a public result exposes ``counters``.  The oracles here are the
bags the components' lifetime counters accumulate, and the public
``counters.as_dict()`` of small versions of the repo benchmark's three
workloads, pinned at the values the bag-based accounting produced.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import NovaConfig, as_config
from repro.core.decode import NovaDecodeEngine
from repro.core.session import NovaSession
from repro.core.speculative import TruncatedTableDraft
from repro.core.vector_unit import NovaVectorUnit
from repro.noc.stats import OVERLAY_EVENTS, EventCounters
from repro.serving.arrivals import build_trace, estimate_cycles_per_token
from repro.serving.frontdoor import FrontDoor
from repro.utils.rng import make_rng
from repro.workloads.bert import decode_batch
from repro.workloads.transformer import TransformerConfig

# ----------------------------------------------------------------------
# The stream's row against the lifetime-counter bag.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "simulate", [False, True], ids=["vectorised", "simulated"]
)
@pytest.mark.parametrize(
    "config",
    [
        NovaConfig(n_routers=2, neurons_per_router=8),
        # a long line at a fast clock charges register_write
        NovaConfig(n_routers=16, neurons_per_router=4, pe_frequency_ghz=1.4),
    ],
    ids=["small", "long-line"],
)
def test_stream_counters_equal_the_lifetime_bag(config, simulate):
    """``StreamResult.counters`` is the bag the unit's components
    accumulated over the stream, on both paths, after retargets."""
    tables = NovaDecodeEngine(config).tables
    unit = NovaVectorUnit(tables["exp"], config)
    rng = np.random.default_rng(7)
    for table in ("exp", "reciprocal", "exp"):
        unit.retarget(tables[table])
        xs = rng.normal(0.0, 2.0, size=(3, *config.lane_shape))
        before = unit._lifetime_counters()
        stream = unit.run_stream(xs, simulate=simulate)
        delta = unit._lifetime_counters().diff(before)
        assert stream.counter_row.dtype == np.int64
        assert stream.counter_row.shape == (len(OVERLAY_EVENTS),)
        assert stream.counters.as_dict() == delta.as_dict()
        assert set(delta.as_dict()) <= set(OVERLAY_EVENTS)


def test_to_vector_is_the_inverse_of_from_vector():
    row = np.array([5, 0, 3, 9, 0, 1, 2], dtype=np.int64)
    bag = EventCounters.from_vector(row)
    assert bag.to_vector().tobytes() == row.tobytes()
    with pytest.raises(ValueError, match="lut_read"):
        EventCounters({"mac_op": 1, "lut_read": 2}).to_vector()


# ----------------------------------------------------------------------
# Public counters on small versions of the benchmark workloads.
# ----------------------------------------------------------------------

GPT_NANO = TransformerConfig(
    "GPT-nano", layers=2, hidden=128, heads=4, intermediate=512,
    seq_len=2048, causal=True,
)
GPT2_MINI = TransformerConfig(
    "gpt2-mini", layers=1, hidden=64, heads=4, intermediate=256,
    seq_len=256, causal=True,
)


def _session():
    return NovaSession(as_config("jetson-nx"))


def _decode_long():
    session = _session()
    requests = decode_batch(
        GPT_NANO, 3, prompt_len=4, max_new_tokens=6, seed=11
    )
    return session.serve_decode(requests, max_active=2)


def _spec_tree_paged():
    session = _session()
    requests = decode_batch(
        GPT2_MINI, 3, prompt_len=4, max_new_tokens=8, seed=12
    )
    seeds = itertools.count(5)
    return session.serve_decode(
        requests, max_active=2, paged=True, pool_blocks=64,
        speculative=True, spec_tree="4x1,2x1,1x1",
        draft_factory=lambda: TruncatedTableDraft(
            session.config, fidelity=0.45, seed=next(seeds)
        ),
    )


def _frontdoor_overload():
    session = _session()
    hidden, n_heads = 16, 2
    cpt = estimate_cycles_per_token(
        session.decoder, hidden=hidden, n_heads=n_heads, seed=0
    )
    shape = build_trace(
        48, hidden=hidden, n_heads=n_heads, process="poisson",
        mean_gap=1.0, prompt_range=(2, 10), tokens_range=(2, 48),
        tail_alpha=1.05, priorities=(0, 1), deadline_slack=2.0,
        cycles_per_token=cpt, seed=0,
    )
    rng = make_rng(13)
    scale = 1.0 / np.sqrt(hidden)
    wq, wk, wv, wo = (
        rng.normal(0.0, scale, size=(hidden, hidden)) for _ in range(4)
    )
    trace = [
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
    # a smaller pool than the benchmark's, so the short trace still
    # defers and preempts
    door = FrontDoor(
        session.decoder, policy="slo-aware", max_active=8, paged=True,
        pool_blocks=6,
    )
    door.serve(trace)
    return door.last_result


def _public_counters(batch):
    """Every public ``counters.as_dict()`` of a run, in order."""
    return {
        "run": batch.counters.as_dict(),
        "requests": [
            {
                "generate": r.counters.as_dict(),
                "prefill": r.prefill.counters.as_dict(),
                "passes": [p.counters.as_dict() for p in r.passes],
            }
            for r in batch.results
        ],
    }


def _digest(counters):
    blob = json.dumps(counters, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


#: Values the bag-based accounting (every pass, prefill and stream a
#: dict bag, folded by ``EventCounters.merge``) produced for these runs.
PINNED = {
    "decode_long": (
        {
            "comparator_eval": 1312, "mac_op": 1312, "pair_capture": 1312,
            "tag_match": 1971, "beat_launch": 82, "wire_hop": 164,
        },
        "e62623075a180c65",
    ),
    "spec_tree_paged": (
        {
            "comparator_eval": 5216, "mac_op": 5216, "pair_capture": 5216,
            "tag_match": 8376, "beat_launch": 326, "wire_hop": 652,
        },
        "9fa721820692769a",
    ),
    "frontdoor_overload": (
        {
            "comparator_eval": 18784, "mac_op": 18784,
            "pair_capture": 18784, "tag_match": 33355,
            "beat_launch": 1174, "wire_hop": 2348,
        },
        "23a4a2de977b3767",
    ),
}
WORKLOADS = {
    "decode_long": _decode_long,
    "spec_tree_paged": _spec_tree_paged,
    "frontdoor_overload": _frontdoor_overload,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_public_counters_unchanged_on_small_workloads(name):
    batch = WORKLOADS[name]()
    if name == "frontdoor_overload":
        assert batch.deferrals > 0 and batch.preemptions > 0
    if name == "spec_tree_paged":
        assert any(r.accepted_tokens for r in batch.results)
    counters = _public_counters(batch)
    run, digest = PINNED[name]
    assert counters["run"] == run
    assert _digest(counters) == digest
