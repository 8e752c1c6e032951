"""Attention layers on the NOVA overlay — the paper's title, end to end.

:class:`NovaAttentionEngine` executes a complete multi-head self-attention
layer where **every non-linear operation runs through the cycle-accurate
NOVA hardware model**: the softmax's exponential, the normaliser's
reciprocal (with power-of-two range reduction) and, for a full encoder
block, the FFN's GeLU.  The host's tensor ops (the GEMMs) run as plain
numpy — they belong to the MXUs/cores, not the vector unit.

The engine demonstrates the three things the paper asserts but never
shows together:

1. the same physical overlay serves all of a layer's non-linear functions
   via the mapper's table switching (free on NOVA — tables live on the
   wires, see :mod:`repro.core.table_scheduler`),
2. attention outputs stay numerically faithful to the exact layer,
3. the vector-unit cycle count per layer is exactly the op graph's query
   count divided by the lane count (one query per lane per PE cycle).

Serving model
-------------
This engine is the *cycle-accurate reference*: every non-linear query is
driven beat-by-beat through the NoC simulation, one request at a time.
Production-style serving lives in
:meth:`repro.core.decode.NovaDecodeEngine.attention_batch`, which packs
many requests through one shared overlay and is validated bit-exact and
cycle-exact against this engine.

The recommended entry point to both engines (and to raw vector-unit
access) is :class:`repro.core.session.NovaSession`, driven by a typed
:class:`repro.core.config.NovaConfig` geometry — construct engines
directly only when you need to hold the engine object itself.  The two
engines share compile-time state rather than rebuilding it:

* **table cache** — PWL tables come from the process-wide
  :mod:`repro.approx.table_cache`, keyed on
  ``(function, n_segments, seed)``; constructing N engines trains each
  table once, not N times, and every engine with the same key holds the
  *same* table object (so cross-engine output comparisons are exact by
  construction);
* **schedule cache** — :class:`repro.core.mapper.NovaMapper` shares one
  frozen ``BroadcastSchedule`` per ``(n_routers, freq, n_pairs, hop_mm)``
  geometry across all units in the process.

Per-call results report only the events of that call: the engine
snapshots its units' lifetime counters around each layer, so invoking
:meth:`NovaAttentionEngine.attention_layer` repeatedly yields counters
that sum to the lifetime totals instead of double-counting earlier calls.
The same discipline holds across the whole engine family — the batched
engine's per-request closed-form counters and the decode engine's
per-step counters (:mod:`repro.core.decode`) sum to their unit's
lifetime totals, and compile-time work is never re-counted: tables are
compiled once at construction through the process-wide cache, so a
decode loop of any length adds zero table-cache misses (pinned by
``tests/test_decode.py``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.approx.quantize import QuantizedPwl
from repro.approx.softmax import exact_softmax
from repro.approx.table_cache import compiled_table
from repro.core.config import NovaConfig, as_config
from repro.core.table_scheduler import TableScheduler
from repro.core.vector_unit import NovaVectorUnit
from repro.noc.stats import EventCounters

__all__ = [
    "NovaAttentionEngine",
    "AttentionLayerResult",
    "AttentionRequest",
    "BatchedAttentionResult",
]

#: The non-linear functions an encoder layer schedules onto the overlay.
ATTENTION_FUNCTIONS = ("exp", "reciprocal", "gelu")
#: The functions the shared serving overlay retargets (the softmax pair).
OVERLAY_FUNCTIONS = ("exp", "reciprocal")


@dataclass(frozen=True)
class AttentionLayerResult:
    """Output of one attention layer on the overlay."""

    outputs: np.ndarray           # (seq, hidden)
    probabilities: np.ndarray     # (heads, seq, seq)
    vector_cycles: int            # PE cycles the vector unit was busy
    nonlinear_queries: int
    counters: EventCounters


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


# ----------------------------------------------------------------------
# Host-side numerics shared by every engine and the draft models.
#
# These are the numerically sensitive steps between the hardware calls;
# every engine MUST use these exact helpers — the bit-exactness
# contracts (batched vs sequential, decode vs causal prefill) hold by
# construction only because there is a single copy of each step.  The
# softmax pair takes a whole lane stream's values at once (flat, with
# per-group row extents; an array is the one-group case), so the
# serving engine runs each once per stream whatever its shapes, and
# the reference engine and the draft models run the same code on one
# array.
# ----------------------------------------------------------------------


def pack_lane_stream(
    parts: Sequence[np.ndarray], shape: tuple[int, int]
) -> tuple[np.ndarray, int]:
    """Pack a query stream into whole lane batches, zero-padding the
    tail.

    The stream is ``parts`` back to back, each flattened in C order;
    they are written once, straight into the padded lane buffer, with
    no intermediate flat copy.  ``shape`` is the lane grid
    ``(n_routers, n_neurons)``; returns ``(batches, n_batches)`` with
    ``batches`` shaped ``(n_batches, n_routers, n_neurons)``.  The pad
    value (0.0) is part of the accounting contract: padded lanes look
    up the table's zero-address, which the serving engine's
    per-request closed form reproduces.
    """
    lanes = shape[0] * shape[1]
    n = sum(part.size for part in parts)
    n_batches = -(-n // lanes)
    padded = np.zeros(n_batches * lanes)
    np.concatenate(parts, axis=None, out=padded[:n])
    return padded.reshape(n_batches, *shape), n_batches


def host_attention_scores(
    x: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    n_heads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Projections and scaled attention scores (the host's GEMMs).

    Returns ``(scores, v)`` with ``scores`` of shape
    ``(heads, seq, seq)`` and ``v`` of shape ``(heads, seq, head_dim)``.
    """
    seq, hidden = x.shape
    head_dim = hidden // n_heads

    def split(m: np.ndarray) -> np.ndarray:
        return m.reshape(seq, n_heads, head_dim).transpose(1, 0, 2)

    q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    return scores, v


#: A softmax stream's shape groups, in stream order: each group's
#: ``(n_rows, row_len)``, its rows back to back.
RowGroups = Sequence[tuple[int, int]]


def _one_group(values: np.ndarray) -> tuple[np.ndarray, RowGroups]:
    """An array as a stream: one group, its rows its last axis."""
    row_len = values.shape[-1]
    return values.reshape(-1), ((values.size // row_len, row_len),)


def _row_lengths(groups: RowGroups) -> int | np.ndarray:
    """Every row's length, the ``repeat`` count that spreads one value
    per row over the row's elements: a scalar for one group (an array),
    the cheaper repeat."""
    n_rows, row_lens = zip(*groups)
    if len(groups) == 1:
        return row_lens[0]
    return np.array(row_lens).repeat(n_rows)


def _row_sums(values: np.ndarray, groups: RowGroups) -> np.ndarray:
    """Every row's sum, one ``sum(axis=-1)`` per group.

    numpy's pairwise sum splits a row by its length alone, so a row
    sums to the same bits in any group of any size; a ragged reduction
    over the whole stream (``np.add.reduceat``) sums sequentially and
    differs from row length 3 up.
    """
    sums = np.empty(sum(n_rows for n_rows, _ in groups))
    start = row = 0
    for n_rows, row_len in groups:
        stop = start + n_rows * row_len
        # np.add.reduce is what ndarray.sum runs, minus its wrappers
        np.add.reduce(
            values[start:stop].reshape(n_rows, row_len), axis=-1,
            out=sums[row : row + n_rows],
        )
        start, row = stop, row + n_rows
    return sums


def shift_scores(
    scores: np.ndarray, groups: RowGroups | None = None
) -> np.ndarray:
    """Max-subtraction for numerical stability (host row max).

    ``scores`` is a stream, flat with its ``groups`` as in
    :func:`softmax_reduction`, or an array, the one-group case, its
    rows its last axis; the result has the same form.  The row maxima
    are one ragged ``np.maximum.reduceat`` over the whole stream:
    unlike a sum, a maximum is exact in any order, so every row gets
    the bits of its own ``max(axis=-1)`` (up to the sign of a zero
    maximum, which no table input code tells apart).  A NaN score
    makes its whole row NaN, which the exp table then rejects.
    """
    if groups is None:
        flat, groups = _one_group(scores)
        return shift_scores(flat, groups).reshape(scores.shape)
    lengths = _row_lengths(groups)
    starts = (
        np.arange(0, scores.size, groups[0][1]) if len(groups) == 1
        else np.cumsum(lengths) - lengths
    )
    return scores - np.maximum.reduceat(scores, starts).repeat(lengths)


def softmax_reduction(
    raw_numer: np.ndarray, groups: RowGroups | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Post-exp host stage: clamp, row sums, power-of-two reduction.

    ``raw_numer`` is a stream: flat values whose shape groups sit back
    to back, ``groups`` giving each group's ``(n_rows, row_len)`` in
    stream order.  An array without ``groups`` is the one-group case,
    its rows its last axis.  Returns ``(numer, mantissa, exponent)``:
    the clamped numerators, shaped like ``raw_numer``, and per row the
    normalised mantissa in ``[1, 2)`` to feed the reciprocal table and
    the exponent to undo afterwards, flat in stream order for a stream
    and shaped ``raw_numer.shape[:-1] + (1,)`` for an array.  Only the
    row sums run per group; every other step is elementwise and runs
    once over the whole stream.

    A row whose numerators all clamp to 0 has no normaliser: it raises
    ``ValueError`` naming the row, before any reciprocal is looked up.
    A max-shifted row cannot get there through a table whose output at
    0 is positive, as every preset's exp table's is.
    """
    if groups is None:
        numer, mantissa, exponent = softmax_reduction(*_one_group(raw_numer))
        rows = (*raw_numer.shape[:-1], 1)
        return (
            numer.reshape(raw_numer.shape), mantissa.reshape(rows),
            exponent.reshape(rows),
        )
    numer = np.maximum(raw_numer, 0.0)
    denom = _row_sums(numer, groups)
    if not denom.all():
        row = int(np.flatnonzero(denom <= 0.0)[0])
        raise ValueError(
            f"softmax row {row} of the stream has no positive numerator "
            "(every exp output clamped to 0), so it cannot be normalised"
        )
    mantissa, exponent = np.frexp(denom)
    return numer, mantissa * 2.0, exponent - 1


def assemble_probabilities(
    numer: np.ndarray,
    inv: np.ndarray,
    exponent: np.ndarray,
    groups: RowGroups | None = None,
) -> np.ndarray:
    """Scale numerators by the hardware reciprocal and renormalise.

    The arguments are :func:`softmax_reduction`'s outputs (``inv`` the
    reciprocals of its mantissas), in the same form: a stream with its
    ``groups``, or arrays.  Each row's reciprocal and exponent scale
    are spread over its elements, so the scaling and the division run
    once over the whole stream; the renormalising row sums run per
    group.  The final renormalisation is the host's output scale stage;
    it keeps rows summing to one exactly despite residual reciprocal
    error.
    """
    if groups is None:
        flat, groups = _one_group(numer)
        probs = assemble_probabilities(
            flat, inv.reshape(-1), exponent.reshape(-1), groups
        )
        return probs.reshape(numer.shape)
    lengths = _row_lengths(groups)
    probs = (
        numer * inv.repeat(lengths)
        * np.ldexp(1.0, -exponent).repeat(lengths)
    )
    return probs / _row_sums(probs, groups).repeat(lengths)


def project_token(
    x_t: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    n_heads: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q/k/v projections of one token or of a run of rows, split by head.

    ``x_t`` is one token, ``(hidden,)``, or rows of tokens, ``(rows,
    hidden)``; returns ``(q, k, v)`` each of shape ``(n_heads,
    head_dim)`` or ``(rows, n_heads, head_dim)``.  Every row is
    projected as its own vector-matrix product (the decode
    granularity): ``x_t[..., None, :] @ w`` is a stack of ``(1,
    hidden)`` rows, and numpy's stacked matmul runs one gemv per row,
    the kernel a lone token runs.  So row ``i`` of a prompt projected
    in one call is byte-identical to projecting that row alone, which
    is what lets the causal prefill project its whole prompt at once.
    A 2-D ``x @ w`` would run gemm instead, whose blocking can differ
    from gemv in the last bit.
    """
    lead = x_t.shape[:-1]
    head_dim = x_t.shape[-1] // n_heads
    rows = x_t[..., None, :]
    q = (rows @ wq).reshape(*lead, n_heads, head_dim)
    k = (rows @ wk).reshape(*lead, n_heads, head_dim)
    v = (rows @ wv).reshape(*lead, n_heads, head_dim)
    return q, k, v


def scores_for_query(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Scaled attention scores of one query against the cached keys.

    ``q`` is ``(n_heads, head_dim)``, ``keys`` is
    ``(n_heads, kv_len, head_dim)``; returns ``(n_heads, kv_len)``.
    """
    head_dim = q.shape[-1]
    # math.sqrt: the same correctly rounded float64 as np.sqrt, without
    # a numpy scalar round trip on every decode token
    return (keys @ q[:, :, None])[:, :, 0] / math.sqrt(head_dim)


def context_for_query(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Merged per-token attention context.

    ``probs`` is ``(n_heads, kv_len)`` and ``values`` ``(n_heads,
    kv_len, head_dim)``; returns the head-merged ``(n_heads *
    head_dim,)`` context row.  ``values`` may be a view of a row store
    with spare rows: the matmul runs one gemv per head, and each head's
    slice is row-major with unit column stride whether or not the store
    has rows past ``kv_len``, so the view and a contiguous copy give
    byte-identical contexts.
    """
    context = (probs[:, None, :] @ values)[:, 0, :]
    return context.reshape(-1)


def finish_attention_layer(
    probs: np.ndarray, v: np.ndarray, wo: np.ndarray
) -> np.ndarray:
    """Context GEMM, head merge and output projection."""
    heads, seq, head_dim = v.shape
    context = probs @ v
    merged = context.transpose(1, 0, 2).reshape(seq, heads * head_dim)
    return merged @ wo


class NovaAttentionEngine:
    """One NOVA overlay executing attention non-linearities.

    The constructor takes a :class:`~repro.core.config.NovaConfig` (or a
    Table II preset name such as ``"jetson-nx"``; ``None`` is the default
    config)::

        NovaAttentionEngine(NovaConfig(n_routers=2, neurons_per_router=16))
        NovaAttentionEngine("tpu-v4")

    Tables for exp / reciprocal / gelu are compiled once at construction
    (the paper's compile-time MLP flow, via the process-wide table
    cache) and broadcast on demand.
    """

    def __init__(self, config: NovaConfig | str | None = None) -> None:
        self.config = as_config(config)
        cfg = self.config
        self.tables = {
            name: compiled_table(name, n_segments=cfg.n_segments, seed=cfg.seed)
            for name in ATTENTION_FUNCTIONS
        }
        # one physical unit per function table (same geometry — in
        # hardware it is literally the same unit fed different beats;
        # separate instances keep per-function event counters apart)
        self.units = {
            name: NovaVectorUnit(table, cfg)
            for name, table in self.tables.items()
        }
        self.n_lanes = cfg.n_lanes
        self.scheduler = TableScheduler(
            self.tables, n_lanes=self.n_lanes, unit_kind="nova"
        )
        self._shape = cfg.lane_shape

    # ------------------------------------------------------------------
    # Elementwise ops through the hardware (batched over the lane grid).
    # ------------------------------------------------------------------

    def _elementwise(self, function: str, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Run a flat value stream through the unit, padding the tail.

        Returns (results, vector_cycles).
        """
        unit = self.units[function]
        values = np.asarray(values, dtype=np.float64)
        batches, n_batches = pack_lane_stream([values], self._shape)
        # simulate=True: this engine is the cycle-accurate reference the
        # batched serving path is validated against, so its queries go
        # through the beat-level NoC model rather than the vectorised path.
        stream = unit.run_stream(batches, simulate=True)
        out = stream.outputs.reshape(-1)[: values.size]
        return out.reshape(values.shape), n_batches

    def softmax(self, scores: np.ndarray) -> tuple[np.ndarray, int]:
        """Hardware softmax over the last axis.

        exp runs on the overlay; the row max/sum reductions belong to the
        host's accumulators; 1/sum runs on the overlay through the
        reciprocal table with power-of-two range reduction.
        """
        scores = np.asarray(scores, dtype=np.float64)
        shifted = shift_scores(scores)
        raw_numer, exp_cycles = self._elementwise("exp", shifted)
        numer, mantissa, exponent = softmax_reduction(raw_numer)
        inv, recip_cycles = self._elementwise("reciprocal", mantissa)
        probs = assemble_probabilities(numer, inv, exponent)
        return probs, exp_cycles + recip_cycles

    def gelu(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Hardware GeLU (FFN activation)."""
        return self._elementwise("gelu", values)

    # ------------------------------------------------------------------
    # Full attention layer.
    # ------------------------------------------------------------------

    def attention_layer(
        self,
        x: np.ndarray,
        wq: np.ndarray,
        wk: np.ndarray,
        wv: np.ndarray,
        wo: np.ndarray,
        n_heads: int,
    ) -> AttentionLayerResult:
        """Multi-head self-attention with hardware non-linearities.

        ``x`` is ``(seq, hidden)``; the four weight matrices are
        ``(hidden, hidden)``.
        """
        x = np.asarray(x, dtype=np.float64)
        seq, hidden = x.shape
        if hidden % n_heads != 0:
            raise ValueError(
                f"hidden ({hidden}) must divide by n_heads ({n_heads})"
            )
        # Snapshot every unit's lifetime counters so the result carries
        # exactly this layer's events; merging raw lifetime counters would
        # re-count every earlier call on the same engine.
        before = {
            name: unit._lifetime_counters() for name, unit in self.units.items()
        }
        scores, v = host_attention_scores(x, wq, wk, wv, n_heads)
        probs, vector_cycles = self.softmax(scores)
        outputs = finish_attention_layer(probs, v, wo)

        counters = EventCounters()
        for name, unit in self.units.items():
            counters = counters.merge(
                unit._lifetime_counters().diff(before[name])
            )
        return AttentionLayerResult(
            outputs=outputs,
            probabilities=probs,
            vector_cycles=vector_cycles,
            nonlinear_queries=int(n_heads * seq * seq + np.prod(probs.shape[:-1])),
            counters=counters,
        )

    def exact_attention_layer(
        self,
        x: np.ndarray,
        wq: np.ndarray,
        wk: np.ndarray,
        wv: np.ndarray,
        wo: np.ndarray,
        n_heads: int,
    ) -> np.ndarray:
        """The float reference of :meth:`attention_layer`."""
        x = np.asarray(x, dtype=np.float64)
        seq, hidden = x.shape
        head_dim = hidden // n_heads

        def split(m: np.ndarray) -> np.ndarray:
            return m.reshape(seq, n_heads, head_dim).transpose(1, 0, 2)

        q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
        probs = exact_softmax(scores, axis=-1)
        context = probs @ v
        return context.transpose(1, 0, 2).reshape(seq, hidden) @ wo
