"""Batched attention serving: many requests through one shared overlay.

:class:`NovaAttentionEngine` is the cycle-accurate reference — one
request at a time, every query driven beat-by-beat through the NoC
model.  This module is the *serving* path the ROADMAP's north star asks
for: a batch of independent attention requests (variable sequence
length, shared overlay geometry) executed through **one** physical
:class:`~repro.core.vector_unit.NovaVectorUnit`, exactly as the paper
describes the hardware — a single overlay whose mapper feeds it
different tables per phase (table switching is free on NOVA; the table
lives on the wires).

Serving model
-------------
Four mechanisms make the batched path fast without changing a single
output bit or cycle count:

* **Lane packing.**  All requests' queries for one function are
  concatenated into a single lane stream, so the tail of request ``i``
  and the head of request ``i + 1`` share a PE cycle instead of each
  request padding its final batch with idle lanes.  The vector unit
  stays full between requests; only the final batch of the whole phase
  is padded.
* **Compiled-table cache.**  Tables come from the process-wide
  :mod:`repro.approx.table_cache`, keyed on
  ``(function, n_segments, seed)`` — training happens once per process,
  and every engine with the same key shares the same table object, which
  is what makes batched-vs-sequential comparisons bit-exact by
  construction.
* **Vectorised streaming.**  The packed stream goes through the vector
  unit's whole-stream gather path (one NumPy segment-index gather per
  phase), which is output- and counter-exact against the beat-level
  simulation.
* **Per-table state, computed once.**  Everything that depends only on
  a table is derived the first time it is seen: the vector unit keeps
  each table's beats, broadcast schedule and config, so switching
  between the exp and reciprocal tables every phase only swaps
  references, and the engine keeps each table's accounting constants
  (beats per broadcast, the address-independent events of one
  broadcast, the beat a zero-padded lane selects).  Every request's
  sequential-equivalent counters then come from one int64 closed form
  over all requests of a phase (``_sequential_counters``), fed by each
  request's query count and tag sum.

The recommended way to reach this engine is
:meth:`repro.core.session.NovaSession.serve`, with the geometry
expressed as a typed :class:`repro.core.config.NovaConfig` (or a Table
II preset name such as ``"jetson-nx"``).

Accounting semantics
--------------------
* Each per-request :class:`~repro.core.attention.AttentionLayerResult`
  reports the **sequential-equivalent** cost: ``vector_cycles`` and
  event counters identical to what a dedicated single-request
  :class:`NovaAttentionEngine` would charge that request (including its
  own tail padding).  Those are the numbers a per-request SLA or energy
  bill is written against.
* The batch-level ``counters`` are the events the shared overlay
  actually produced.  Packing eliminates per-request tail padding and
  shares broadcasts across requests, so for the lane-local events
  (``comparator_eval`` / ``mac_op`` / ``pair_capture``) the batch total
  is at most the sum of the per-request totals — equal exactly when
  every request fills its final batch.  The gap *is* the packing win,
  surfaced as :attr:`BatchedAttentionResult.packing_speedup` on the
  cycle side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.approx.quantize import beat_of_address
from repro.approx.table_cache import compiled_table
from repro.core.config import NovaConfig, as_config
from repro.core.attention import (
    OVERLAY_FUNCTIONS,
    AttentionLayerResult,
    assemble_probabilities,
    finish_attention_layer,
    host_attention_scores,
    pack_lane_stream,
    shift_scores,
    softmax_reduction,
)
from repro.core.vector_unit import NovaVectorUnit
from repro.noc.stats import OVERLAY_EVENTS, EventCounters

__all__ = [
    "AttentionRequest",
    "BatchedAttentionResult",
    "BatchedNovaAttentionEngine",
]

#: Events every (padded) lane of a stream charges exactly once: its
#: comparator evaluation, MAC, pair capture and the tag comparison on
#: the beat that carries its pair.
_PER_LANE = np.array(
    [
        event in ("comparator_eval", "mac_op", "pair_capture", "tag_match")
        for event in OVERLAY_EVENTS
    ],
    dtype=np.int64,
)
_TAG_MATCH = OVERLAY_EVENTS.index("tag_match")


@dataclass(frozen=True)
class AttentionRequest:
    """One independent multi-head self-attention request.

    ``x`` is ``(seq, hidden)``; the four weight matrices are
    ``(hidden, hidden)``.  Requests in a batch may differ in sequence
    length (and even hidden size) — the packed lane stream is flat.
    Every input must be finite: construction raises ``ValueError``
    naming the first field that holds a NaN or inf.
    """

    x: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    n_heads: int

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        object.__setattr__(self, "x", x)
        if x.ndim != 2:
            raise ValueError(f"x must be (seq, hidden), got shape {x.shape}")
        seq, hidden = x.shape
        if seq < 1:
            raise ValueError(
                "request must contain at least one token (got an empty "
                f"sequence: x has shape {x.shape})"
            )
        if hidden < 1:
            raise ValueError(
                "request must have a hidden width >= 1 (got zero-width "
                f"x of shape {x.shape})"
            )
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if hidden % self.n_heads != 0:
            raise ValueError(
                f"hidden ({hidden}) must divide by n_heads ({self.n_heads})"
            )
        for name in ("wq", "wk", "wv", "wo"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, w)
            if w.shape != (hidden, hidden):
                raise ValueError(
                    f"{name} must have shape ({hidden}, {hidden}), got {w.shape}"
                )
        # Checked once here, never per token: a NaN score would reach
        # the table's quantiser as an address and come back finite.
        for name in ("x", "wq", "wk", "wv", "wo"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(
                    f"{name} holds NaN or inf; request inputs must be finite"
                )

    @property
    def seq(self) -> int:
        """Sequence length of this request."""
        return self.x.shape[0]

    @property
    def hidden(self) -> int:
        """Hidden width of this request."""
        return self.x.shape[1]


@dataclass(frozen=True)
class BatchedAttentionResult:
    """Outcome of one batch through the shared overlay.

    ``results[i]`` is the full per-request result, identical (outputs,
    probabilities, cycles, counters) to running request ``i`` alone on a
    sequential engine with the same tables.  ``packed_vector_cycles`` is
    what the shared overlay actually spent; ``sequential_vector_cycles``
    is the sum of the per-request costs.  ``counters`` are the events
    the shared overlay actually produced for the whole batch.
    """

    results: tuple[AttentionLayerResult, ...]
    packed_vector_cycles: int
    sequential_vector_cycles: int
    counters: EventCounters

    @property
    def n_requests(self) -> int:
        """Requests served in this batch."""
        return len(self.results)

    @property
    def packing_speedup(self) -> float:
        """Sequential vector cycles per packed vector cycle (>= 1)."""
        if self.packed_vector_cycles == 0:
            return 1.0
        return self.sequential_vector_cycles / self.packed_vector_cycles


class BatchedNovaAttentionEngine:
    """One shared NOVA overlay serving batches of attention requests.

    The constructor takes a :class:`~repro.core.config.NovaConfig` (or
    a Table II preset name), mirroring :class:`NovaAttentionEngine`.
    The crucial difference from the reference engine is that a *single*
    :class:`NovaVectorUnit` serves every non-linear function by table
    switching (``retarget``), as the paper's overlay does, instead of
    one instance per function.

    ``tables`` holds only the :data:`~repro.core.attention.
    OVERLAY_FUNCTIONS` the overlay retargets, exp and reciprocal, so
    building an engine compiles two tables, not the reference engine's
    three: serving never reads gelu, which is the costliest of the
    three to train.  ``NovaSession.unit("gelu")`` and the reference
    engine still compile it on first use.
    """

    def __init__(self, config: NovaConfig | str | None = None) -> None:
        self.config = as_config(config)
        cfg = self.config
        self.tables = {
            name: compiled_table(name, n_segments=cfg.n_segments, seed=cfg.seed)
            for name in OVERLAY_FUNCTIONS
        }
        self.unit = NovaVectorUnit(self.tables["exp"], cfg)
        self.n_routers = cfg.n_routers
        self.neurons_per_router = cfg.neurons_per_router
        self.pe_frequency_ghz = cfg.pe_frequency_ghz
        self.hop_mm = cfg.hop_mm
        self.n_lanes = cfg.n_lanes
        self._shape = cfg.lane_shape

    # ------------------------------------------------------------------
    # Packed elementwise execution.
    # ------------------------------------------------------------------

    def _run_packed(
        self, function: str, groups: Sequence[Sequence[np.ndarray]]
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, int]:
        """One packed lane stream through the shared overlay.

        Each group is a sequence of same-shaped member arrays (requests
        or tokens): a list, or an array whose first axis indexes the
        members.  The groups are written back to back into the lane
        buffer in one copy (:func:`~repro.core.attention.
        pack_lane_stream`): an array group as one part, a list group
        member by member, so no group is stacked first.  Only the
        stream's final batch is padded.  Returns ``(outputs, sizes,
        tag_sums, packed_vector_cycles)``: ``outputs[g]`` is a view of
        the stream shaped ``(len(groups[g]), *member_shape)``;
        ``sizes`` and ``tag_sums`` hold, per member in packed order, its
        query count and the sum of ``address & (n_beats - 1)`` over its
        queries (the addresses are a free by-product of the vectorised
        stream) — the inputs of :meth:`_sequential_counters`.
        """
        shapes = [(len(group), *np.shape(group[0])) for group in groups]
        sizes = np.repeat(
            [math.prod(shape[1:]) for shape in shapes],
            [shape[0] for shape in shapes],
        )
        bounds = np.cumsum([0, *(math.prod(shape) for shape in shapes)])
        parts: list[np.ndarray] = []
        for group in groups:
            if isinstance(group, np.ndarray):
                parts.append(group)
            else:
                parts.extend(group)
        self.unit.retarget(self.tables[function])
        batches, n_batches = pack_lane_stream(parts, self._shape)
        stream = self.unit.run_stream(batches)
        out = stream.outputs.reshape(-1)
        addresses = stream.addresses.reshape(-1)[: bounds[-1]]
        starts = np.cumsum(sizes) - sizes
        tag_sums = np.add.reduceat(
            beat_of_address(addresses, self.unit.schedule.n_beats), starts
        )
        outputs = [
            out[start:stop].reshape(shape)
            for shape, start, stop in zip(shapes, bounds, bounds[1:])
        ]
        return outputs, sizes, tag_sums, n_batches

    def _sequential_counters(
        self, streams: dict[str, tuple[np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        """Events dedicated single-request engines would charge, for
        every job of a step in one closed form.

        ``streams`` maps function name to ``(n_queries, tag_sums)``,
        int64 arrays with one entry per job: its real (un-padded) query
        count and the sum of ``address & (n_beats - 1)`` over those
        queries, sliced from the packed stream's addresses.  Returns an
        int64 ``(n_jobs, len(OVERLAY_EVENTS))`` matrix whose row ``j``
        is exactly what a sequential engine charges job ``j``, including
        the zero-padding of its final lane batch and the
        address-dependent ``tag_match`` count.
        """
        lanes = self.n_lanes
        per_function = []
        for function, (n_queries, tag_sums) in streams.items():
            program = self.unit._program(self.tables[function], self.config)
            n_batches = -(-n_queries // lanes)
            padded = n_batches * lanes
            rows = np.outer(padded, _PER_LANE) + np.outer(
                n_batches, program.per_batch
            )
            rows[:, _TAG_MATCH] += (
                tag_sums + (padded - n_queries) * program.pad_beat
            )
            per_function.append(rows)
        total: np.ndarray = np.add.reduce(per_function)
        return total

    # ------------------------------------------------------------------
    # Batched attention.
    # ------------------------------------------------------------------

    def attention_batch(
        self, requests: Sequence[AttentionRequest] | Iterable[AttentionRequest]
    ) -> BatchedAttentionResult:
        """Serve a batch of independent attention requests.

        Host GEMMs (projections, scores, context) run per request in
        plain numpy, as on the sequential engine; the non-linear phases
        (softmax exp, normaliser reciprocal) run packed across the whole
        batch through the shared overlay.  Outputs are bit-identical to
        per-request sequential execution and each per-request result
        carries its sequential-equivalent cycle and event cost.
        """
        requests = tuple(requests)
        if not requests:
            raise ValueError("need at least one request")
        before = self.unit._lifetime_counters()

        # Host phase: per-request projections and score matrices (the
        # exact helpers the sequential engine uses — see the "host-side
        # numerics" section of repro.core.attention).
        values: list[np.ndarray] = []
        shifted: list[np.ndarray] = []
        for req in requests:
            scores, v = host_attention_scores(
                req.x, req.wq, req.wk, req.wv, req.n_heads
            )
            values.append(v)
            shifted.append(shift_scores(scores)[None])

        # Packed phase 1: every request's exponentials in one stream,
        # each request a group of one; then the host reductions (clamp,
        # row sums, power-of-two reduction).
        raw, n_exp, exp_tags, exp_packed_batches = self._run_packed(
            "exp", shifted
        )
        del shifted
        reduced = [softmax_reduction(group[0]) for group in raw]

        # Packed phase 2: every request's reciprocals in one stream.
        inv, n_recip, recip_tags, recip_packed_batches = self._run_packed(
            "reciprocal", [mantissa[None] for _, mantissa, _ in reduced]
        )

        # Host phase: assemble probabilities, context and outputs.
        lanes = self.n_lanes
        counter_rows = self._sequential_counters(
            {"exp": (n_exp, exp_tags), "reciprocal": (n_recip, recip_tags)}
        )
        cycles = (-(-n_exp // lanes) + -(-n_recip // lanes)).tolist()
        results = []
        sequential_cycles = 0
        for req, v, (numer, _, exponent), group_inv, vector_cycles, row in zip(
            requests, values, reduced, inv, cycles, counter_rows
        ):
            seq = req.seq
            probs = assemble_probabilities(numer, group_inv[0], exponent)
            outputs = finish_attention_layer(probs, v, req.wo)
            sequential_cycles += vector_cycles
            results.append(
                AttentionLayerResult(
                    outputs=outputs,
                    probabilities=probs,
                    vector_cycles=vector_cycles,
                    nonlinear_queries=int(
                        req.n_heads * seq * seq + np.prod(probs.shape[:-1])
                    ),
                    counters=EventCounters.from_vector(row),
                )
            )

        return BatchedAttentionResult(
            results=tuple(results),
            packed_vector_cycles=exp_packed_batches + recip_packed_batches,
            sequential_vector_cycles=sequential_cycles,
            counters=self.unit._lifetime_counters().diff(before),
        )
