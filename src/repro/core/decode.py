"""The NOVA overlay engine: batched attention, decode and the batcher.

The paper motivates NOVA with attention-heavy inference.  Two serving
regimes dominate such traffic: batches of independent full-prefill
attention requests, and token-by-token *decode* over a KV cache, where
each new token attends to every cached key/value pair, so the softmax
runs over exactly one row per head per step.  This module runs both on
the same cycle/event-exact hardware model as the reference engine
(:class:`~repro.core.attention.NovaAttentionEngine`):

* :class:`NovaDecodeEngine` — one physical
  :class:`~repro.core.vector_unit.NovaVectorUnit` serving the softmax
  exponential and the normaliser reciprocal by table retargeting, as the
  paper's overlay does (table switching is free on NOVA — the table
  lives on the wires).  Its entry points are batched attention
  (``attention_batch``), incremental single-token attention
  (``decode_step``), a causal packed prefill (``prefill``) and a
  self-feeding ``generate`` loop.  All of them run one packed softmax
  stage, so per-request costs come from one closed-form
  sequential-equivalent accounting.
* :class:`ContinuousBatchScheduler` — Orca-style continuous batching,
  run as a step machine (``start``, then ``step`` until it returns
  ``False``): every step packs the prefill rows of newly admitted
  requests *and* the decode rows of in-flight requests into a single
  lane stream through the shared overlay; requests join and leave the
  batch between steps.  Every run's KV memory is accounted in one
  :class:`~repro.core.paging.BlockPool`; ``paged`` picks whole-page or
  vLLM-style lazy block reservation.

Every generated token comes out of one draft-and-verify pass of the
engine.  The :class:`~repro.core.speculative.DraftTree` is a per-call
argument (``tree=``; the scheduler's ``spec_tree=``), and ``None`` is
the depth-0 tree — one true token, no drafts — which *is* plain decode.

The decode stack imports one way: :mod:`repro.core.paging` (the caches
and the pool), then :mod:`repro.core.speculative` (drafts and trees),
then this module.

Serving model
-------------
Five mechanisms make the packed softmax stage fast without changing a
single output bit, cycle count or counter:

* **Lane packing.**  All jobs' queries for one function are
  concatenated into a single lane stream, so the tail of job ``i`` and
  the head of job ``i + 1`` share a PE cycle instead of each job padding
  its final batch with idle lanes.  The vector unit stays full between
  jobs; only the final batch of the whole phase is padded.
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
  broadcast, the beat a zero-padded lane selects).  Every job's
  sequential-equivalent counters then come from one int64 closed form
  over all jobs and both functions of a step (``_sequential_counters``),
  fed by each job's query count and tag sum.
* **Counters as rows.**  Events stay int64 rows indexed by
  :data:`~repro.noc.stats.OVERLAY_EVENTS` from the vector unit's
  stream to the result: a job's, a pass's, a ``generate`` fold and the
  scheduler's step total are rows, and an
  :class:`~repro.noc.stats.EventCounters` bag is built only where a
  public result exposes ``counters``.
* **One host pass per stream and per weight group.**  The host
  softmax around the two phases is one
  :func:`~repro.core.attention.shift_scores` call over the packed exp
  stream, one :func:`~repro.core.attention.softmax_reduction` call and
  one :func:`~repro.core.attention.assemble_probabilities` call per
  step, however many shapes the step packs; the output projection is
  one call per weight identity per step.

Accounting semantics
--------------------
* Each job — a batched attention request, a prefill or a verify pass —
  reports the **sequential-equivalent** cost: ``vector_cycles`` and
  event counters identical to what a dedicated single-job engine
  invocation would charge it (including its own tail padding and the
  address-dependent ``tag_match`` count).  For a batched request that
  is exactly what :class:`~repro.core.attention.NovaAttentionEngine`
  charges; those are the numbers a per-request SLA or energy bill is
  written against.
* The batch-level counters are the events the shared overlay actually
  produced: the sum of what the call's (or the run's) own streams
  charged, so work run on the same engine in between is not billed to
  it.  Packing eliminates per-job tail padding and shares
  broadcasts across jobs, so for the lane-local events
  (``comparator_eval`` / ``mac_op`` / ``pair_capture``) the batch total
  is at most the sum of the per-job totals — equal exactly when every
  job fills its final batch.  The gap *is* the packing win, surfaced as
  ``packing_speedup`` (:class:`~repro.core.attention.
  BatchedAttentionResult`, :class:`ContinuousBatchResult`) on the cycle
  side.

Bit-exactness contract
----------------------
Batched attention is **bit-identical** to the reference engine, and
token-by-token decode, the packed causal prefill and the continuous
batcher all produce bit-identical probabilities and outputs for the
same causal sequence.  This holds by construction: there is a single
copy of every numerically sensitive step (:mod:`repro.core.attention`;
the engine looks each up in this module's namespace).  Per token, the
decode paths run

1. :func:`~repro.core.attention.project_token` — the token's q/k/v
   projections (vector-matrix, the decode-granularity GEMM; a prompt,
   a draft-tree level, or a scheduler step's pass roots per weight
   identity, is projected in one rows call that runs one gemv per row,
   byte-identical to projecting each row alone),
2. :func:`~repro.core.attention.scores_for_query` — scaled
   dot-products against the cached keys (same cache layout, hence same
   strides, in every path), kept raw in the token's plan,
3. :func:`~repro.core.attention.shift_scores` — the row max-shift, run
   once over a step's packed exp stream: a maximum is exact in any
   order, so one ragged reduction gives every row its own maximum (a
   drafting pass shifts the rows it drafts from itself, through the
   same helper),
4. the hardware exponential (elementwise through the shared table — the
   output of each query is independent of how queries are packed into
   lane batches),
5. :func:`~repro.core.attention.softmax_reduction` /
   :func:`~repro.core.attention.assemble_probabilities` on the token's
   ``(heads, kv_len)`` rows — run once over a step's whole stream:
   their elementwise stages do not depend on where a row sits, and the
   row sums run one ``sum(axis=-1)`` per shape group over its
   contiguous rows, the bits of summing each row alone —
6. :func:`~repro.core.attention.context_for_query` — the context GEMV
   over the cached values (a view of the row store, taken at plan time,
   with or without a sliding window), and
7. the output projection ``context @ wo`` — run once per weight
   identity per step as ``rows[:, None, :] @ wo``, a stack of one-row
   products that numpy runs as one gemv per row, the bytes of each
   token's own product.

Batched attention swaps steps 1, 2, 6 and 7 for the reference engine's
own host GEMMs (:func:`~repro.core.attention.host_attention_scores` and
:func:`~repro.core.attention.finish_attention_layer`) and shares steps
3 to 5.

Tables are compiled once at engine construction through the process-wide
:mod:`repro.approx.table_cache`; decode steps only *retarget* the unit,
so running any number of steps performs zero additional table
compilations (:func:`repro.approx.table_cache.table_cache_info` is
pinned flat across steps by the test suite).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.approx.quantize import beat_of_address
from repro.approx.table_cache import compiled_table
from repro.core.attention import (
    OVERLAY_FUNCTIONS,
    AttentionLayerResult,
    RowGroups,
    AttentionRequest,
    BatchedAttentionResult,
    assemble_probabilities,
    context_for_query,
    finish_attention_layer,
    host_attention_scores,
    pack_lane_stream,
    project_token,
    scores_for_query,
    shift_scores,
    softmax_reduction,
)
from repro.core.config import NovaConfig, as_config
from repro.core.paging import (
    BlockPool,
    BlockPoolExhausted,
    KVCache,
    KVCacheOverflow,
    PagedKVCache,
    ReservedKVCache,
    blocks_needed,
    prefix_block_keys,
    worst_case_blocks,
)
from repro.core.speculative import (
    DraftBranch,
    DraftModel,
    DraftTree,
    TruncatedTableDraft,
    VerifyPassResult,
    _draft_level,
)
from repro.core.vector_unit import NovaVectorUnit
from repro.core.waiting import FCFS, SchedulingPolicy, WaitingQueue
from repro.noc.stats import OVERLAY_EVENTS, EventCounters

__all__ = [
    "DecodeRequest",
    "DecodeState",
    "DecodeStepResult",
    "CausalPrefillResult",
    "DecodeResult",
    "GenerateResult",
    "NovaDecodeEngine",
    "ContinuousBatchScheduler",
    "ContinuousBatchResult",
    "SequenceMeta",
]


@dataclass(frozen=True)
class SequenceMeta:
    """Serving metadata for one request in a continuously batched run.

    The front door (:mod:`repro.serving`) attaches one of these per
    request; plain callers never see it (the scheduler defaults every
    field).  All times are **virtual cycles** on the scheduler's
    deterministic clock — the clock starts at 0, advances by the packed
    vector cycles of each executed step, and jumps forward over idle
    gaps to the next arrival; no wall-clock is ever read (NV008).

    * ``arrival`` — the cycle the request becomes visible to admission
      (a request cannot be admitted before it arrives),
    * ``priority`` — larger is more urgent (policy-interpreted),
    * ``tenant`` — fairness/rate-limit bucket,
    * ``deadline`` — absolute virtual-cycle deadline for the *finish*
      of the request (policy- and metrics-interpreted), or ``None``.

    Both times must be finite: the waiting queue orders sequences by
    arrival and deadline, which needs totally ordered values.
    """

    arrival: float = 0.0
    priority: int = 0
    tenant: str = "default"
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival):
            raise ValueError(f"arrival must be finite, got {self.arrival}")
        if self.arrival < 0.0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline is None:
            return
        if not math.isfinite(self.deadline):
            raise ValueError(f"deadline must be finite, got {self.deadline}")
        if self.deadline <= self.arrival:
            raise ValueError(
                f"deadline ({self.deadline}) must fall after arrival "
                f"({self.arrival})"
            )


@dataclass(frozen=True)
class DecodeRequest(AttentionRequest):
    """One autoregressive decode request: a prompt plus a token budget.

    Extends :class:`~repro.core.attention.AttentionRequest` (its
    ``x`` is the prompt embedding matrix) with the decode contract:

    * ``max_new_tokens`` — tokens to generate after the prompt,
    * ``max_seq_len`` — KV-cache capacity (defaults to
      ``prompt + max_new_tokens``); a request that cannot fit raises at
      :meth:`NovaDecodeEngine.start`,
    * ``window`` — optional sliding-window attention span (evicts the
      oldest cache entry instead of overflowing),
    * ``causal`` — decode is only defined for causal attention; the
      engines reject ``causal=False`` requests.
    """

    max_new_tokens: int = 0
    max_seq_len: int | None = None
    window: int | None = None
    causal: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_new_tokens < 0:
            raise ValueError(
                f"max_new_tokens must be >= 0, got {self.max_new_tokens}"
            )
        if self.max_seq_len is not None and self.max_seq_len < 1:
            raise ValueError(
                f"max_seq_len must be >= 1, got {self.max_seq_len}"
            )
        if self.window is not None:
            if self.window < 1:
                raise ValueError(f"window must be >= 1, got {self.window}")
            if self.max_seq_len is not None and self.window > self.max_seq_len:
                raise ValueError(
                    f"window ({self.window}) cannot exceed max_seq_len "
                    f"({self.max_seq_len})"
                )

    @property
    def head_dim(self) -> int:
        """Per-head projection width."""
        return self.hidden // self.n_heads

    @property
    def total_tokens(self) -> int:
        """Prompt tokens plus the generation budget."""
        return self.seq + self.max_new_tokens

    @property
    def capacity(self) -> int:
        """KV-cache capacity this request needs."""
        if self.window is not None:
            return self.window
        if self.max_seq_len is not None:
            return self.max_seq_len
        return self.total_tokens


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DecodeStepResult:
    """One committed token of a decode run.

    ``probabilities`` spans the KV cache at this step
    (``(n_heads, kv_length)``); ``position`` is the token's absolute
    index in the sequence.  ``vector_cycles`` / ``nonlinear_queries``
    are what a single-token pass charges for exactly this token (tail
    padding included); the event counters live on the pass that
    committed it.  ``drafted`` marks tokens whose input was an accepted
    draft.
    """

    output: np.ndarray            # (hidden,)
    probabilities: np.ndarray     # (n_heads, kv_length)
    position: int
    kv_length: int
    vector_cycles: int
    nonlinear_queries: int
    drafted: bool = False


@dataclass(frozen=True)
class CausalPrefillResult:
    """The packed causal prefill of one prompt.

    ``probabilities[h, t, :]`` holds row ``t``'s attention weights over
    the cached span, zero elsewhere (upper triangle and, under a sliding
    window, evicted columns).  ``vector_cycles`` is the packed cost of
    the whole prefill — one exp stream and one reciprocal stream.
    ``counter_row`` holds its sequential-equivalent events as an int64
    row indexed by :data:`~repro.noc.stats.OVERLAY_EVENTS`, and
    ``counters`` is that row as a bag, built on access: a scheduler
    lands prefills inside its step loop, where no bag is needed.
    """

    outputs: np.ndarray           # (prompt_len, hidden)
    probabilities: np.ndarray     # (n_heads, prompt_len, prompt_len)
    vector_cycles: int
    nonlinear_queries: int
    counter_row: np.ndarray

    @property
    def counters(self) -> EventCounters:
        """The prefill's events as a counter bag."""
        return EventCounters.from_vector(self.counter_row)


@dataclass(frozen=True)
class DecodeResult:
    """A sequence decoded token by token (the pure decode regime);
    ``passes[i]`` is the single-token pass that produced ``steps[i]``,
    and ``counters`` merges the passes' own counters."""

    steps: tuple[DecodeStepResult, ...]
    passes: tuple[VerifyPassResult, ...]
    outputs: np.ndarray           # (n_tokens, hidden)
    vector_cycles: int
    counters: EventCounters

    @property
    def n_tokens(self) -> int:
        """Tokens decoded."""
        return len(self.steps)

    @property
    def cycles_per_token(self) -> float:
        """Mean vector cycles per decoded token."""
        return self.vector_cycles / max(1, self.n_tokens)


@dataclass(frozen=True)
class GenerateResult:
    """Prefill plus the passes that generated one request's tokens.

    ``generated`` is **bit-identical** to plain decode for any draft
    tree.  ``vector_cycles`` is the overlay's real spend (rolled-back
    work included); ``sequential_vector_cycles`` what plain decode
    charges for the same tokens, so ``cycle_speedup`` is the
    speculation win on the cycle side (1.0 for plain decode).
    ``counters`` merges the prefill's and the passes' own counters, so
    other work on the same engine meanwhile is not billed to it.
    """

    prefill: CausalPrefillResult
    steps: tuple[DecodeStepResult, ...]
    passes: tuple[VerifyPassResult, ...]
    generated: np.ndarray         # (n_generated, hidden)
    vector_cycles: int
    sequential_vector_cycles: int
    counters: EventCounters

    @classmethod
    def from_passes(
        cls,
        prefill: CausalPrefillResult,
        steps: Sequence[DecodeStepResult],
        passes: Sequence[VerifyPassResult],
        counter_row: np.ndarray,
    ) -> GenerateResult:
        """Assemble the result of a prefill and the passes after it;
        ``counter_row`` is their summed int64 event row, indexed by
        ``OVERLAY_EVENTS``, and becomes the result's one counter bag."""
        generated = (
            np.stack([s.output for s in steps])
            if steps
            else np.zeros((0, prefill.outputs.shape[1]))
        )
        return cls(
            prefill=prefill,
            steps=tuple(steps),
            passes=tuple(passes),
            generated=generated,
            vector_cycles=prefill.vector_cycles
            + sum(p.vector_cycles for p in passes),
            sequential_vector_cycles=prefill.vector_cycles
            + sum(s.vector_cycles for s in steps),
            counters=EventCounters.from_vector(counter_row),
        )

    @property
    def n_generated(self) -> int:
        """Tokens generated after the prompt."""
        return len(self.steps)

    @property
    def verify_passes(self) -> int:
        """Passes run (one per token in plain decode)."""
        return len(self.passes)

    @property
    def drafted_tokens(self) -> int:
        """Draft proposals made across every pass."""
        return sum(p.drafted for p in self.passes)

    @property
    def accepted_tokens(self) -> int:
        """Draft proposals that verified bit-exactly."""
        return sum(p.accepted for p in self.passes)

    @property
    def rolled_back_tokens(self) -> int:
        """Provisional tokens truncated from the cache."""
        return sum(p.rolled_back for p in self.passes)

    @property
    def acceptance_rate(self) -> float:
        """Accepted fraction of drafted tokens (0.0 with no drafts)."""
        drafted = self.drafted_tokens
        return self.accepted_tokens / drafted if drafted else 0.0

    @property
    def tokens_per_pass(self) -> float:
        """Mean committed tokens per pass (>= 1)."""
        return self.n_generated / max(1, self.verify_passes)

    @property
    def decode_vector_cycles(self) -> int:
        """Vector cycles spent in decode passes only."""
        return self.vector_cycles - self.prefill.vector_cycles

    @property
    def cycles_per_token(self) -> float:
        """Mean decode vector cycles per generated token."""
        return self.decode_vector_cycles / max(1, self.n_generated)

    @property
    def cycle_speedup(self) -> float:
        """Sequential-equivalent cycles per actually-charged cycle."""
        if self.vector_cycles == 0:
            return 1.0
        return self.sequential_vector_cycles / self.vector_cycles


class DecodeState:
    """In-flight decode of one request: its cache and position."""

    def __init__(self, request: DecodeRequest, cache: KVCache) -> None:
        self.request = request
        self.cache = cache
        self.position = 0          # absolute index of the next token

    def __repr__(self) -> str:
        return (
            f"DecodeState(position={self.position}, cache={self.cache!r})"
        )


# ----------------------------------------------------------------------
# Job planning/execution internals.
# ----------------------------------------------------------------------


class _TokenPlan:
    """Host-side state of one planned token, awaiting the hardware exp.

    ``scores`` are the token's raw scaled scores against its cache,
    ``(heads, kv_len)``: the max-shift runs once per step over the
    whole packed exp stream (:meth:`NovaDecodeEngine._packed_softmax`),
    and a drafting pass shifts the rows it drafts from itself.
    ``values`` is the cache's ``values`` view taken at plan time, not a
    copy: a cache writes no row a view shows until it is truncated or
    reset (see :class:`~repro.core.paging.KVCache`).  Invariant: no
    planned token's cache is truncated or reset before its job's
    :meth:`NovaDecodeEngine._execute`.  The scheduler truncates
    (commit), resets (finish, preemption) and releases forks only after
    the step's ``_execute``; a failed plan's rollback (the
    ``plan_with_fallback`` retry, a paged admission's reset, the fork
    release) drops its tokens before any ``_execute``.
    """

    __slots__ = ("position", "span_start", "scores", "values")

    # ``scores``/``values`` are ``Any`` rather than Optional ndarrays:
    # ``release()`` nulls them after execution, and the
    # planning/execution code touches them without narrowing.
    position: int
    span_start: int
    scores: Any
    values: Any

    def __init__(
        self,
        position: int,
        span_start: int,
        scores: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.position = position
        self.span_start = span_start
        self.scores = scores        # (heads, kv_len), raw scaled scores
        self.values = values        # (heads, kv_len, head_dim) store view

    def release(self) -> None:
        self.scores = self.values = None


class _Job:
    """One engine-invocation-equivalent unit of work (a prefill or a
    pass)."""

    __slots__ = ("state", "tokens")

    def __init__(self, state: DecodeState, tokens: list[_TokenPlan]) -> None:
        self.state = state
        self.tokens = tokens


class _JobResult:
    """Per-job outcome: one entry per token plus sequential-equivalent cost."""

    __slots__ = (
        "job", "probabilities", "outputs", "vector_cycles",
        "nonlinear_queries", "counter_row",
    )

    def __init__(
        self,
        job: _Job,
        probabilities: list[np.ndarray],
        outputs: list[np.ndarray],
        vector_cycles: int,
        nonlinear_queries: int,
        counter_row: np.ndarray,
    ) -> None:
        self.job = job
        self.probabilities = probabilities  # list[(heads, kv_len)]
        self.outputs = outputs              # list[(hidden,)]
        self.vector_cycles = vector_cycles
        self.nonlinear_queries = nonlinear_queries
        #: int64 event counts indexed by OVERLAY_EVENTS
        self.counter_row = counter_row


class _TreeNode:
    """One planned pass token: the root ``u_0`` or a provisional draft.

    ``state`` is the branch this node's k/v row was appended through —
    the request's live :class:`DecodeState` for the
    root and every only-child below it (``in_state``), a shadow state
    over a cache fork for every sibling branch.  ``parent`` is the
    parent's token index (``None`` for the root), not the node itself:
    links run only parent-to-children, so a finished pass is freed by
    reference counting rather than left to the cyclic collector.
    """

    __slots__ = (
        "parent", "embedding", "token_index", "state", "in_state",
        "children",
    )

    def __init__(
        self,
        parent: int | None,
        embedding: np.ndarray,
        token_index: int,
        state: DecodeState,
        in_state: bool,
    ) -> None:
        self.parent = parent
        self.embedding = embedding
        self.token_index = token_index
        self.state = state
        self.in_state = in_state
        self.children: list[_TreeNode] = []


class _SpecPass:
    """One planned verification pass (a draft tree) awaiting execution.

    ``nodes`` is every planned token in job order (the root first,
    then level by level); ``forks`` the branch caches to release at
    finish; ``in_state_tokens`` how many pass tokens were appended to
    the live state's own cache.  A draft-free pass has no tree
    (``root`` is None): its one token is ``x0``, as the caller passed it.
    """

    __slots__ = ("job", "x0", "root", "nodes", "forks", "in_state_tokens")

    def __init__(
        self,
        job: _Job,
        x0: np.ndarray,
        root: _TreeNode | None = None,
        nodes: Sequence[_TreeNode] = (),
        forks: Sequence[KVCache] = (),
        in_state_tokens: int = 1,
    ) -> None:
        self.job = job
        self.x0 = x0
        self.root = root
        self.nodes = nodes
        self.forks = forks
        self.in_state_tokens = in_state_tokens


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


class NovaDecodeEngine:
    """One shared NOVA overlay serving batched attention and decode.

    The constructor takes a :class:`~repro.core.config.NovaConfig` (or
    a Table II preset name), mirroring
    :class:`~repro.core.attention.NovaAttentionEngine`.  The crucial
    difference from the reference engine is that a *single*
    :class:`~repro.core.vector_unit.NovaVectorUnit` serves every
    non-linear function by table switching (``retarget``), as the
    paper's overlay does, instead of one instance per function.

    ``tables`` holds only the :data:`~repro.core.attention.
    OVERLAY_FUNCTIONS` the overlay retargets, exp and reciprocal, so
    building an engine compiles two tables, not the reference engine's
    three: serving never reads gelu, which is the costliest of the
    three to train.  ``NovaSession.unit("gelu")`` and the reference
    engine still compile it on first use.

    Every entry point runs the same packed softmax stage (one exp
    stream and one reciprocal stream through the shared unit, with
    closed-form sequential-equivalent costs per job):

    * :meth:`attention_batch` — a batch of independent full-prefill
      attention requests, bit-exact against the reference engine;
    * :meth:`prefill` — a whole prompt, packed into one exp stream and
      one reciprocal stream (the efficient way in);
    * :meth:`decode_step` — one token against the KV cache;
    * :meth:`generate` — prefill then a self-feeding decode loop (the
      attention output of the last position is the next token's
      embedding; with a single attention layer and no vocabulary this is
      the serving-shaped closed loop the benchmarks measure).

    The last three are bit-exact against one another.  Every decoded
    token comes out of one draft-and-verify pass
    (:meth:`plan_verify_pass` / :meth:`finish_verify_pass`, fused
    across requests by :class:`ContinuousBatchScheduler`;
    :meth:`run_pass` runs one alone).  The engine holds no tree and no
    draft: ``tree=`` and ``draft=`` are per-call arguments, and
    ``tree=None`` is the depth-0 tree, i.e. plain decode.
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
        # The closed-form accounting constants of both overlay tables'
        # programs, read once, one row per function of
        # OVERLAY_FUNCTIONS: the address-independent events of one
        # broadcast and the beat a zero-padded lane selects.
        programs = [
            self.unit._program(self.tables[name], cfg)
            for name in OVERLAY_FUNCTIONS
        ]
        self._per_batch = np.stack([p.per_batch for p in programs])
        self._pad_beat = np.array([[p.pad_beat] for p in programs])

    # ------------------------------------------------------------------
    # Request lifecycle.
    # ------------------------------------------------------------------

    def validate_request(self, request: DecodeRequest) -> None:
        """Reject requests the decode path cannot serve.

        Raises ``TypeError`` for non-:class:`DecodeRequest` inputs,
        ``ValueError`` for non-causal requests and
        :class:`KVCacheOverflow` for a request whose prompt + budget
        cannot fit its cache capacity (and that has no sliding window).
        """
        if not isinstance(request, DecodeRequest):
            raise TypeError(
                "decode needs a DecodeRequest (see "
                "repro.workloads.decode_request); got "
                f"{type(request).__name__}"
            )
        if not request.causal:
            raise ValueError(
                "the decode path is causal by definition: token t can only "
                "attend to the KV cache of tokens <= t; got a request with "
                "causal=False (build it from a TransformerConfig with "
                "causal=True)"
            )
        if request.window is None and request.total_tokens > request.capacity:
            raise KVCacheOverflow(
                f"request needs {request.total_tokens} cache slots "
                f"({request.seq} prompt + {request.max_new_tokens} new) but "
                f"max_seq_len is {request.capacity}; shorten the request, "
                "raise max_seq_len, or set a sliding window"
            )

    def start(
        self,
        request: DecodeRequest,
        cache: KVCache | None = None,
        pool: BlockPool | None = None,
        prefix: bool = False,
    ) -> DecodeState:
        """Open a decode state for ``request``.

        ``cache`` optionally supplies the request's cache, used as is
        (the scheduler passes a fresh
        :class:`~repro.core.paging.ReservedKVCache`); its head geometry
        must match the request's.  ``pool`` instead opens a
        :class:`~repro.core.paging.PagedKVCache` drawing blocks lazily
        from the given :class:`~repro.core.paging.BlockPool`.  By
        default a fresh contiguous :class:`KVCache` of
        ``request.capacity`` entries is allocated.  Admission is
        atomic: every validation raise fires before any engine or
        cache state changes.

        ``prefix=True`` (paged only) additionally adopts the longest
        already-cached run of the prompt's block keys from the pool's
        prefix index (:meth:`~repro.core.paging.PagedKVCache.
        adopt_prefix`): prefill still computes every prompt row — same
        cycles, same counters, bit-identical outputs — but adopted
        blocks are shared rather than re-written, so the request's pool
        residency charges only its unshared blocks.  Windowed requests
        never adopt (their sliding window evicts the certified prefix).
        """
        self.validate_request(request)
        if cache is not None and pool is not None:
            raise ValueError("pass either a cache or a block pool, not both")
        if prefix and pool is None:
            raise ValueError(
                "prefix caching needs a block pool (pass pool=...)"
            )
        if pool is not None:
            if (pool.n_heads, pool.head_dim) != (
                request.n_heads, request.head_dim,
            ):
                raise ValueError(
                    f"block pool geometry ({pool.n_heads} heads x "
                    f"{pool.head_dim}) does not match the request "
                    f"({request.n_heads} heads x {request.head_dim})"
                )
            cache = PagedKVCache(
                pool, request.capacity, window=request.window
            )
            if prefix and request.window is None:
                cache.adopt_prefix(
                    prefix_block_keys(
                        request.x, request.wk, request.wv,
                        request.n_heads, pool.block_size,
                    )
                )
        elif cache is None:
            cache = KVCache(
                request.n_heads, request.head_dim, request.capacity,
                window=request.window,
            )
        elif (cache.n_heads, cache.head_dim) != (
            request.n_heads, request.head_dim,
        ):
            raise ValueError(
                f"cache {cache!r} does not match the request geometry "
                f"({request.n_heads} heads x {request.head_dim})"
            )
        return DecodeState(request=request, cache=cache)

    # ------------------------------------------------------------------
    # Planning: host math up to (and excluding) the hardware exp.
    # ------------------------------------------------------------------

    def _plan_token(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        projected: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> _TokenPlan:
        """Project one token (unless ``projected`` is its
        :func:`project_token` row already), append to the cache, stage
        its softmax row."""
        if projected is None:
            req = state.request
            x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
            if x_t.shape[0] != req.hidden:
                raise ValueError(
                    f"token embedding must have hidden width {req.hidden}, "
                    f"got {x_t.shape[0]}"
                )
            projected = project_token(
                x_t, req.wq, req.wk, req.wv, req.n_heads
            )
        return self._stage_row(state, *projected)

    def _stage_row(
        self, state: DecodeState, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> _TokenPlan:
        """Append one projected row to the cache, stage its scores."""
        cache = state.cache
        cache.append(k, v)
        plan = _TokenPlan(
            position=state.position,
            span_start=cache.start_position,
            scores=scores_for_query(q, cache.keys),
            values=cache.values,
        )
        state.position += 1
        return plan

    def _plan_prefill(self, state: DecodeState) -> _Job:
        """Stage the whole prompt as one job (packed hardware streams).

        The prompt is projected in one :func:`project_token` call (one
        gemv per row, byte-identical to projecting each row alone),
        then appended and staged row by row.
        """
        if state.position != 0 or state.cache.length != 0:
            raise RuntimeError(
                "prefill must run on a fresh DecodeState (position "
                f"{state.position}, {state.cache.length} cached tokens)"
            )
        req = state.request
        q, k, v = project_token(req.x, req.wq, req.wk, req.wv, req.n_heads)
        tokens = [
            self._stage_row(state, *row) for row in zip(q, k, v)
        ]
        return _Job(state, tokens)

    # ------------------------------------------------------------------
    # The packed softmax stage: two hardware phases plus host reductions.
    # ------------------------------------------------------------------

    def _run_stream(
        self,
        function: str,
        parts: Sequence[np.ndarray],
        sizes: np.ndarray,
        groups: RowGroups | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """One packed lane stream through the shared overlay.

        ``parts`` are written back to back into the lane buffer in one
        copy (:func:`~repro.core.attention.pack_lane_stream`); only the
        stream's final batch is padded.  ``sizes`` holds the query count
        of every member of the stream, in stream order.  With
        ``groups``, the stream's row extents, the un-padded stream is
        max-shifted in the buffer by one :func:`shift_scores` call
        before the lookup (the exp stream).  Returns ``(outputs,
        tag_sums, n_batches, counter_row)``: ``outputs`` is the flat,
        un-padded output stream; ``tag_sums[m]`` the sum of ``address &
        (n_beats - 1)`` over member ``m``'s queries (the addresses are a
        free by-product of the vectorised stream), an input of
        :meth:`_sequential_counters`; ``counter_row`` the events the
        stream charged the unit, indexed by ``OVERLAY_EVENTS``.
        """
        self.unit.retarget(self.tables[function])
        batches, n_batches = pack_lane_stream(parts, self._shape)
        ends = np.cumsum(sizes)
        n = int(ends[-1])
        if groups is not None:
            queries = batches.reshape(-1)[:n]
            queries[:] = shift_scores(queries, groups)
        stream = self.unit.run_stream(batches)
        tag_sums = np.add.reduceat(
            beat_of_address(
                stream.addresses.reshape(-1)[:n], self.unit.schedule.n_beats
            ),
            ends - sizes,
        )
        outputs = stream.outputs.reshape(-1)[:n]
        return outputs, tag_sums, n_batches, stream.counter_row

    def _sequential_counters(
        self, n_queries: np.ndarray, tag_sums: np.ndarray
    ) -> np.ndarray:
        """Events dedicated single-job engines would charge, for every
        job of a step and both functions in one closed form.

        ``n_queries`` and ``tag_sums`` are int64 ``(2, n_jobs)`` arrays,
        one row per function of ``OVERLAY_FUNCTIONS`` (exp, then
        reciprocal): each job's real (un-padded) query count and the
        sum of ``address & (n_beats - 1)`` over those queries, sliced
        from the packed stream's addresses.  Returns an int64 ``(n_jobs,
        len(OVERLAY_EVENTS))`` matrix whose row ``j`` is exactly what a
        sequential engine charges job ``j``, including the zero-padding
        of its final lane batches and the address-dependent
        ``tag_match`` count.
        """
        lanes = self.n_lanes
        n_batches = -(-n_queries // lanes)
        padded = n_batches * lanes
        rows: np.ndarray = (
            padded.sum(axis=0)[:, None] * _PER_LANE
            + n_batches.T @ self._per_batch
        )
        rows[:, _TAG_MATCH] += (
            tag_sums + (padded - n_queries) * self._pad_beat
        ).sum(axis=0)
        return rows

    def _packed_softmax(
        self, scores: Sequence[np.ndarray], first: np.ndarray
    ) -> tuple[
        list[np.ndarray], list[int], list[int], np.ndarray, int, np.ndarray,
    ]:
        """Hardware softmax over every job of a step, in one exp stream
        and one reciprocal stream, and one host pass over each.

        ``scores`` holds raw score arrays of any shapes (a decode
        token's ``(heads, kv_len)`` row, a batched request's ``(heads,
        seq, seq)`` matrix), job by job; ``first[j]`` is the index of
        job ``j``'s first array.  Returns ``(probabilities, cycles,
        queries, counter_rows, packed_vector_cycles, packed_row)``:
        ``probabilities[i]`` is array ``i``'s softmax over its last
        axis; ``cycles[j]``, ``queries[j]`` and ``counter_rows[j]`` are
        job ``j``'s sequential-equivalent vector cycles, non-linear
        queries and int64 event row; the last two are what the shared
        overlay spent, in cycles and in the events its two streams
        charged (an int64 row).

        Arrays are grouped by shape and each group is packed
        contiguously, so every group's rows sit back to back in the exp
        stream.  The host stage is then one :func:`shift_scores` call
        over the packed exp stream, in place before the lookup, one
        :func:`softmax_reduction` call over the whole exp output stream
        and one :func:`assemble_probabilities` call over the whole step,
        with the groups' row extents: the shift, the clamp, the
        power-of-two reduction, the reciprocal scale and the division
        are elementwise and run once over the stream, the row maxima
        are one ragged reduction (a maximum is exact in any order), and
        only the row sums run per group (one ``sum(axis=-1)`` over its
        contiguous rows, whose pairwise order per row is independent of
        the group).  The lookups are elementwise too, so where a query
        sits in the stream changes no output.  The reciprocal stream is
        the step's mantissas, one per row, as one array.  Per-array
        ``tag_match`` sums fold into per-job sums by one
        ``np.add.reduceat`` (integer sums, order-insensitive), and every
        job's counters come from one closed form
        (:meth:`_sequential_counters`).
        """
        lanes = self.n_lanes
        shape_groups: dict[tuple[int, ...], list[int]] = {}
        for i, array in enumerate(scores):
            shape_groups.setdefault(array.shape, []).append(i)
        # The packed order, each group's row extent and, per array in
        # packed order, its exp queries and its rows (one reciprocal
        # query each).
        packed: list[int] = []
        groups: list[tuple[int, int]] = []
        sizes: list[int] = []
        rows: list[int] = []
        for array_shape, members in shape_groups.items():
            n_rows = math.prod(array_shape[:-1])
            packed += members
            groups.append((len(members) * n_rows, array_shape[-1]))
            sizes += [n_rows * array_shape[-1]] * len(members)
            rows += [n_rows] * len(members)
        exp_sizes, recip_sizes = np.array(sizes), np.array(rows)

        # Phase 1: every job's exponentials in one stream, max-shifted
        # in the lane buffer.
        raw, exp_tags, exp_batches, exp_row = self._run_stream(
            "exp", [scores[i] for i in packed], exp_sizes, groups
        )
        numer, mantissa, exponent = softmax_reduction(raw, groups)

        # Phase 2: every job's normaliser reciprocals in one stream.
        inv, recip_tags, recip_batches, recip_row = self._run_stream(
            "reciprocal", [mantissa], recip_sizes
        )
        probs = assemble_probabilities(numer, inv, exponent, groups)
        probabilities: list[np.ndarray] = [np.empty(0)] * len(scores)
        start = 0
        for array_shape, members in shape_groups.items():
            stop = start + len(members) * math.prod(array_shape)
            block = probs[start:stop].reshape(len(members), *array_shape)
            for pos, i in enumerate(members):
                probabilities[i] = block[pos]
            start = stop

        # Per-job sequential-equivalent costs, every job in one closed
        # form: per-array sizes and tag sums (packed order) back into
        # array order, then summed per job.
        per_array = np.empty((4, len(scores)), dtype=np.int64)
        per_array[:, packed] = (exp_sizes, recip_sizes, exp_tags, recip_tags)
        per_job = np.add.reduceat(per_array, first, axis=1)
        n_queries = per_job[:2]
        counter_rows = self._sequential_counters(n_queries, per_job[2:])
        cycles = (-(-n_queries // lanes)).sum(axis=0).tolist()
        queries = n_queries.sum(axis=0).tolist()
        return (
            probabilities, cycles, queries, counter_rows,
            exp_batches + recip_batches, exp_row + recip_row,
        )

    # ------------------------------------------------------------------
    # Execution: the packed softmax stage plus host assembly.
    # ------------------------------------------------------------------

    def _execute(
        self, jobs: Sequence[_Job]
    ) -> tuple[list[_JobResult], int, np.ndarray]:
        """Run staged jobs through the shared overlay.

        All jobs' tokens go through one :meth:`_packed_softmax` — this
        is the fusion that lets the continuous batcher interleave
        prefill and decode rows across lanes — and then each token's
        context GEMV and one output projection per weight group.
        Returns ``(results, packed_vector_cycles, packed_row)``: per-job
        costs are sequential-equivalent (closed form), and the last two
        are what the step's streams spent on the shared overlay, in
        cycles and as an int64 event row.  The step costs two kernel
        launches (one :meth:`~repro.core.vector_unit.NovaVectorUnit.
        run_stream` per phase) plus vectorised host work.
        """
        if not jobs:
            return [], 0, np.zeros(len(OVERLAY_EVENTS), dtype=np.int64)
        tokens = [t for j in jobs for t in j.tokens]
        bounds = np.cumsum([0] + [len(j.tokens) for j in jobs])
        (
            token_probs, job_cycles, job_queries, counter_rows, packed,
            packed_row,
        ) = self._packed_softmax([t.scores for t in tokens], bounds[:-1])
        spans = list(zip(jobs, bounds.tolist(), bounds[1:].tolist()))

        # Host assembly: the context GEMVs stay per token (each attends
        # to its own span of the values).  The output projection runs
        # once per weight identity (never grouped by value), as one
        # ``rows[:, None, :] @ wo`` call: a stack of one-row products,
        # one gemv per row, the bytes of each ``context @ wo`` alone.
        contexts = [
            context_for_query(probs, token.values)
            for probs, token in zip(token_probs, tokens)
        ]
        weight_groups: dict[int, tuple[np.ndarray, list[int]]] = {}
        for job, start, stop in spans:
            wo = job.state.request.wo
            weight_groups.setdefault(id(wo), (wo, []))[1].extend(
                range(start, stop)
            )
        outputs: list[Any] = [None] * len(tokens)
        for wo, members in weight_groups.values():
            rows = np.array([contexts[i] for i in members])
            for i, output in zip(members, (rows[:, None, :] @ wo)[:, 0]):
                outputs[i] = output
        for token in tokens:
            token.release()
        return [
            _JobResult(
                job=job,
                probabilities=token_probs[start:stop],
                outputs=outputs[start:stop],
                vector_cycles=job_cycles[jnum],
                nonlinear_queries=job_queries[jnum],
                counter_row=counter_rows[jnum],
            )
            for jnum, (job, start, stop) in enumerate(spans)
        ], packed, packed_row

    def attention_batch(
        self, requests: Sequence[AttentionRequest] | Iterable[AttentionRequest]
    ) -> BatchedAttentionResult:
        """Serve a batch of independent attention requests.

        Host GEMMs (projections, scores, context) run per request in
        plain numpy, with the exact helpers the reference engine uses
        (the "host-side numerics" section of
        :mod:`repro.core.attention`); the non-linear phases run as one
        :meth:`_packed_softmax` over the whole batch, each request a job
        of one ``(heads, seq, seq)`` score matrix.  Outputs are
        bit-identical to per-request sequential execution and each
        per-request result carries its sequential-equivalent cycle and
        event cost.
        """
        requests = tuple(requests)
        if not requests:
            raise ValueError("need at least one request")
        values: list[np.ndarray] = []
        scores: list[np.ndarray] = []
        for req in requests:
            request_scores, v = host_attention_scores(
                req.x, req.wq, req.wk, req.wv, req.n_heads
            )
            values.append(v)
            scores.append(request_scores)
        probabilities, cycles, queries, counter_rows, packed, packed_row = (
            self._packed_softmax(scores, np.arange(len(requests)))
        )
        results = tuple(
            AttentionLayerResult(
                outputs=finish_attention_layer(probs, v, req.wo),
                probabilities=probs,
                vector_cycles=vector_cycles,
                nonlinear_queries=n_queries,
                counters=EventCounters.from_vector(row),
            )
            for req, v, probs, vector_cycles, n_queries, row in zip(
                requests, values, probabilities, cycles, queries,
                counter_rows,
            )
        )
        return BatchedAttentionResult(
            results=results,
            packed_vector_cycles=packed,
            sequential_vector_cycles=sum(cycles),
            counters=EventCounters.from_vector(packed_row),
        )

    # ------------------------------------------------------------------
    # Result wrapping.
    # ------------------------------------------------------------------

    @staticmethod
    def _wrap_prefill(result: _JobResult) -> CausalPrefillResult:
        job = result.job
        req = job.state.request
        prompt_len = len(job.tokens)
        probabilities = np.zeros((req.n_heads, prompt_len, prompt_len))
        for token, probs in zip(job.tokens, result.probabilities):
            span = probs.shape[-1]
            start = token.span_start
            probabilities[:, token.position, start : start + span] = probs
        return CausalPrefillResult(
            outputs=np.stack(result.outputs),
            probabilities=probabilities,
            vector_cycles=result.vector_cycles,
            nonlinear_queries=result.nonlinear_queries,
            counter_row=result.counter_row,
        )

    # ------------------------------------------------------------------
    # Public execution modes.
    # ------------------------------------------------------------------

    def prefill(self, state: DecodeState) -> CausalPrefillResult:
        """Run the prompt through the cache as one packed causal job."""
        (result,), _, _ = self._execute([self._plan_prefill(state)])
        return self._wrap_prefill(result)

    def decode_step(
        self, state: DecodeState, x_t: np.ndarray
    ) -> DecodeStepResult:
        """Decode one token: append to the cache, attend, project out."""
        (step,), _ = self.run_pass(state, x_t, 1)
        return step

    def decode(self, request: DecodeRequest) -> DecodeResult:
        """Decode the prompt token by token (the pure decode regime).

        Every prompt token runs as its own pass — the path the golden
        equivalence test compares bit-for-bit against :meth:`prefill`.
        """
        state = self.start(request)
        steps: list[DecodeStepResult] = []
        passes: list[VerifyPassResult] = []
        for row in request.x:
            (step,), pass_result = self.run_pass(state, row, 1)
            steps.append(step)
            passes.append(pass_result)
        return DecodeResult(
            steps=tuple(steps),
            passes=tuple(passes),
            outputs=np.stack([s.output for s in steps]),
            vector_cycles=sum(p.vector_cycles for p in passes),
            counters=EventCounters.from_vector(
                sum(p.counter_row for p in passes)
            ),
        )

    # ------------------------------------------------------------------
    # Draft-and-verify passes: every decoded token comes out of one.
    # ------------------------------------------------------------------

    @staticmethod
    def _rollback(state: DecodeState, n: int) -> None:
        if n:
            state.cache.truncate(n)
            state.position -= n

    def plan_verify_pass(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        budget: int,
        draft: DraftModel | None = None,
        tree: DraftTree | str | None = None,
        projected: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> _SpecPass:
        """Stage one verification pass: ``x_t`` plus the draft tree's
        provisional tokens, all appended as cached k/v rows.

        ``tree`` is the pass's :class:`~repro.core.speculative.DraftTree`
        (or its spec string); ``None``, the depth-0 tree, plans just
        ``u_0`` — a plain decode step, with no tree and no draft call.
        On a drafting tree ``draft=None`` means a fresh exact-LUT
        ``TruncatedTableDraft(config)``.  ``projected`` is ``x_t``'s
        :func:`project_token` row ``(q, k, v)`` when the caller has it
        already (the scheduler projects a step's roots together);
        ``None`` projects ``x_t`` here.

        The tree grows level by level.  An only child extends its
        parent's branch cache in place; siblings each append under a
        ``fork()`` of the parent cache (copy-on-write block sharing on
        the paged layer), so every node's KV span is exactly its
        ancestor chain — the tree-causal mask, structurally
        (:func:`~repro.core.speculative.tree_causal_mask`).  All
        planned tokens form **one** job: the packed execute scores the
        whole tree in a single ``table_gather_mac`` launch per phase.
        The draft is asked once per level, for every live branch at
        once, before any of that level's appends, and the level's
        deduplicated drafts are projected in one :func:`project_token`
        rows call (one gemv per row, byte-identical to projecting each
        alone), then forked and staged node by node.  So a pass makes
        one projection for ``u_0`` plus one per planned level, not one
        per node.  A width-1 tree plans no forks.

        ``budget`` caps the pass at the tokens still owed (a pass never
        commits more than ``budget``, so the tree is clipped to
        ``budget - 1`` levels).  A branch stops growing at its cache's
        window limit — provisional tokens must never evict, because
        eviction cannot be rolled back.  The plan is **atomic**: any
        failure (a malformed draft answer, ``BlockPoolExhausted`` on a
        provisional block or fork, a raising draft model) releases
        every fork and rolls the cache, the pool and the position back
        to their pre-pass state before the exception propagates.
        """
        if budget < 1:
            raise ValueError(f"pass budget must be >= 1, got {budget}")
        widths = DraftTree.of(tree).widths[: budget - 1]
        if not widths:
            # Draft-free: the one true token is a plain decode step
            # (shape-checked, then appended atomically).
            token = self._plan_token(state, x_t, projected)
            return _SpecPass(_Job(state, [token]), x_t)
        request = state.request
        x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
        if draft is None:
            draft = TruncatedTableDraft(self.config)
        tokens: list[_TokenPlan] = []
        nodes: list[_TreeNode] = []
        forks: list[KVCache] = []
        in_state = 0
        try:
            tokens.append(self._plan_token(state, x_t, projected))
            in_state = 1
            root = _TreeNode(None, x_t, 0, state, True)
            nodes.append(root)
            frontier = [root]
            for width in widths:
                # A branch at its window limit stops growing: one more
                # provisional append would evict.
                live = [
                    node for node in frontier
                    if node.state.cache.length < node.state.cache.limit
                ]
                if not live:
                    break
                # Draft every live branch before any of the level's
                # appends: one proposal call per level, over the live
                # branches' scores max-shifted in one call (a level's
                # branches share one position and span length).
                shifted = shift_scores(
                    np.stack([tokens[n.token_index].scores for n in live])
                )
                level = _draft_level(
                    draft, request,
                    [
                        DraftBranch(node.embedding, node.state.cache, row)
                        for node, row in zip(live, shifted)
                    ],
                    tokens[live[0].token_index].position, width,
                )
                drafts = [d for candidates in level for d in candidates]
                if not drafts:
                    break
                # The level's drafts in one rows call (one gemv per row,
                # byte-identical to projecting each draft alone).
                rows = zip(*project_token(
                    np.stack(drafts), request.wq, request.wk, request.wv,
                    request.n_heads,
                ))
                frontier = []
                for node, candidates in zip(live, level):
                    if len(candidates) == 1:
                        # An only child extends the branch in place.
                        child_states = [node.state]
                    else:
                        child_states = []
                        for _ in candidates:
                            fork = node.state.cache.fork()
                            forks.append(fork)
                            shadow = DecodeState(request, fork)
                            shadow.position = node.state.position
                            child_states.append(shadow)
                    for d, child_state in zip(candidates, child_states):
                        tokens.append(
                            self._stage_row(child_state, *next(rows))
                        )
                        child = _TreeNode(
                            node.token_index, d, len(tokens) - 1,
                            child_state,
                            child_state is state,
                        )
                        if child.in_state:
                            in_state += 1
                        nodes.append(child)
                        node.children.append(child)
                        frontier.append(child)
        except BaseException:
            # Atomic rollback: forks release their block references,
            # then the in-place appends truncate.  Only u_0's append
            # can have evicted (and only when the cache sat exactly at
            # its window limit, in which case no level ever grew, so
            # nothing can raise after it), so this restores cache, pool
            # and position exactly.
            for fork in forks:
                fork.reset()
            self._rollback(state, in_state)
            raise
        return _SpecPass(
            _Job(state, tokens), x_t, root, nodes, forks, in_state
        )

    def finish_verify_pass(
        self,
        spec_pass: _SpecPass,
        result: _JobResult,
        draft: DraftModel | None = None,
    ) -> tuple[list[DecodeStepResult], VerifyPassResult]:
        """Commit the longest-accepted branch, roll back every other.

        ``result`` is the pass's ``_JobResult`` from :meth:`_execute`.
        The walk starts at the root and, at each depth, descends into
        the child whose drafted embedding equals the parent's true
        output bit for bit (siblings are deduplicated at plan time, so
        at most one can match); the walked path is the longest accepted
        branch.  Returns its committed steps (at least one — ``u_0``'s
        input is the true previous output by construction) and the
        pass accounting.  Before returning, the path's fork-resident
        k/v rows are copied out of the deepest path node's branch cache,
        every branch fork releases its block references, the live cache
        truncates the in-place tokens the path does not cover, and the
        copied rows are appended to the live cache — the very rows
        planning wrote, so nothing is projected again — and zero pool
        blocks leak for any accept pattern.  A draft-free pass commits its one token as is:
        nothing to walk, release or roll back.  ``draft`` observes
        every committed step; ``None`` (the exact-LUT default, whose
        ``observe`` is a no-op) observes nothing.
        """
        tokens = spec_pass.job.tokens
        outputs = result.outputs
        if spec_pass.root is None:
            path = [(0, spec_pass.x0)]  # draft-free: u_0 commits as is
        else:
            path = self._commit_longest_branch(spec_pass, outputs)
            # A committed row is a view of its step's projection block,
            # which also holds the pass's rolled-back rows: keep only
            # the row.
            outputs = list(outputs)
            for index, _ in path:
                outputs[index] = outputs[index].copy()
        lanes = self.n_lanes
        heads = spec_pass.job.state.request.n_heads
        steps: list[DecodeStepResult] = []
        for i, (index, embedding) in enumerate(path):
            probs = result.probabilities[index]
            kv_len = probs.shape[-1]
            n_exp = heads * kv_len
            position = tokens[index].position
            steps.append(
                DecodeStepResult(
                    output=outputs[index],
                    probabilities=probs,
                    position=position,
                    kv_length=kv_len,
                    vector_cycles=-(-n_exp // lanes) + -(-heads // lanes),
                    nonlinear_queries=n_exp + heads,
                    drafted=i > 0,
                )
            )
            if draft is not None:
                draft.observe(embedding, outputs[index], position)
        committed = len(path)
        return steps, VerifyPassResult(
            tokens=len(tokens),
            drafted=len(tokens) - 1,
            accepted=committed - 1,
            committed=committed,
            rolled_back=len(tokens) - committed,
            vector_cycles=result.vector_cycles,
            nonlinear_queries=result.nonlinear_queries,
            counter_row=result.counter_row,
        )

    def _commit_longest_branch(
        self, spec_pass: _SpecPass, outputs: list[np.ndarray]
    ) -> list[tuple[int, np.ndarray]]:
        """Walk the tree's accepted path, leave only it in the live
        cache, and return it as ``(token index, input embedding)``."""
        node = spec_pass.root
        assert node is not None  # a tree pass
        path = [node]
        while True:
            out = outputs[node.token_index]
            match = None
            for child in node.children:
                if np.array_equal(child.embedding, out):
                    match = child
                    break
            if match is None:
                break
            path.append(match)
            node = match
        # The accepted path can only leave the live cache for a fork,
        # never come back, so the in-place tokens it covers are exactly
        # a prefix, and its fork-resident rows are the rows up to the
        # deepest node's own in that node's branch cache (every branch
        # cache holds its ancestor chain; an only child below the path
        # may follow them).  View those (each fork has its own store,
        # and neither a reset nor anything after it writes a fork row),
        # release the forks (shared tail blocks drop to their surviving
        # refcounts), truncate the in-place suffix beyond the accepted
        # prefix and append the viewed rows to the live cache.
        state = spec_pass.job.state
        kept_in_state = sum(1 for n in path if n.in_state)
        moved = len(path) - kept_in_state
        branch = path[-1].state.cache
        # provisional appends never evict, so a row's index is its
        # position past the branch's start
        end = (
            spec_pass.job.tokens[path[-1].token_index].position
            - branch.start_position + 1
        )
        keys = branch.keys[:, end - moved : end]
        values = branch.values[:, end - moved : end]
        for fork in spec_pass.forks:
            fork.reset()
        self._rollback(state, spec_pass.in_state_tokens - kept_in_state)
        for i in range(moved):
            state.cache.append(keys[:, i], values[:, i])
            state.position += 1
        return [(n.token_index, n.embedding) for n in path]

    def plan_with_fallback(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        budget: int,
        draft: DraftModel | None = None,
        tree: DraftTree | str | None = None,
        projected: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> _SpecPass:
        """Plan a pass, degrading to draft-free on pool exhaustion.

        Speculation is opportunistic: when the block pool cannot hold
        the provisional tokens, a pass of just ``u_0`` (one plain decode
        step's worth of memory) still makes progress.  Only when even
        that cannot allocate does :class:`~repro.core.paging.
        BlockPoolExhausted` propagate (with cache and pool untouched) —
        the scheduler's cue to defer or preempt.  A plan that had no
        drafts to shed (the depth-0 tree or a budget of 1) is not
        retried.  ``projected`` is as in :meth:`plan_verify_pass`, and
        the retry reuses it.
        """
        tree = DraftTree.of(tree)
        try:
            return self.plan_verify_pass(
                state, x_t, budget, draft=draft, tree=tree,
                projected=projected,
            )
        except BlockPoolExhausted:
            if not tree.depth or budget < 2:
                raise
            return self.plan_verify_pass(
                state, x_t, budget, projected=projected
            )

    def run_pass(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        budget: int,
        draft: DraftModel | None = None,
        tree: DraftTree | str | None = None,
    ) -> tuple[list[DecodeStepResult], VerifyPassResult]:
        """Plan, execute and commit one pass on its own streams."""
        spec_pass = self.plan_with_fallback(
            state, x_t, budget, draft=draft, tree=tree
        )
        (result,), _, _ = self._execute([spec_pass.job])
        return self.finish_verify_pass(spec_pass, result, draft=draft)

    def generate(
        self,
        request: DecodeRequest,
        max_new_tokens: int | None = None,
        state: DecodeState | None = None,
        draft: DraftModel | None = None,
        tree: DraftTree | str | None = None,
    ) -> GenerateResult:
        """Prefill the prompt, then run passes until the budget is met.

        The attention output at the last position feeds back as the next
        token's embedding (deterministic closed loop — there is no
        vocabulary at the attention-layer level).  ``max_new_tokens``
        defaults to the request's budget (an override beyond the
        request's capacity fails before any work); ``state`` optionally
        supplies a pre-opened state (e.g. over a block pool).  ``tree``
        is the draft tree every pass plans (``None``: the depth-0 tree,
        one draft-free pass per token) and ``draft`` drafts it
        (``None``: each drafting pass plans with a fresh exact-LUT
        :class:`~repro.core.speculative.TruncatedTableDraft`, which
        keeps no state between calls).  Outputs are bit-identical to
        plain decode for any tree and any draft.
        """
        tree = DraftTree.of(tree)
        new_tokens = (
            request.max_new_tokens
            if max_new_tokens is None
            else max_new_tokens
        )
        if new_tokens < 0:
            raise ValueError(
                f"max_new_tokens must be >= 0, got {new_tokens}"
            )
        if request.window is None and request.seq + new_tokens > request.capacity:
            raise KVCacheOverflow(
                f"generate needs {request.seq + new_tokens} cache slots "
                f"({request.seq} prompt + {new_tokens} new) but the "
                f"request's capacity is {request.capacity}; shorten "
                "max_new_tokens, raise max_seq_len, or set a sliding "
                "window"
            )
        if draft is not None:
            draft.reset()
        if state is None:
            state = self.start(request)
        pre = self.prefill(state)
        if draft is not None:
            # Seed stateful drafts with the prompt's own (input, output)
            # trajectory, exactly as the committed steps will extend it.
            for position, (x_row, out_row) in enumerate(
                zip(request.x, pre.outputs)
            ):
                draft.observe(x_row, out_row, position)
        steps: list[DecodeStepResult] = []
        passes: list[VerifyPassResult] = []
        x_t = pre.outputs[-1]
        while len(steps) < new_tokens:
            new_steps, pass_result = self.run_pass(
                state, x_t, new_tokens - len(steps), draft=draft, tree=tree
            )
            steps.extend(new_steps)
            passes.append(pass_result)
            x_t = new_steps[-1].output
        return GenerateResult.from_passes(
            pre, steps, passes,
            pre.counter_row + sum(p.counter_row for p in passes),
        )


# ----------------------------------------------------------------------
# Continuous batching.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousBatchResult:
    """Outcome of a continuously batched decode run.

    ``results[i]`` is a :class:`GenerateResult` bit-identical (outputs,
    probabilities, cycles and counters) to solo generation of
    ``requests[i]`` through the same draft tree, and ``counters`` are the
    events the run's own streams charged the shared overlay (work run on
    the same engine between steps is not billed to the run).  The cycle
    totals and ``scheduler_steps`` are properties over ``step_cycles``
    and ``results``, so they cannot disagree with them.
    ``pages_allocated`` counts this run's whole-page reservations (one
    per contiguous admission, readmissions included; zero in paged
    mode).

    Memory-side accounting, all read off the run's one block pool:
    ``peak_active`` is the most requests ever in flight at once (the
    admission-capacity metric the paged-vs-contiguous benchmark
    compares at a fixed pool byte budget); ``peak_kv_slots`` the most
    KV token slots held at once (``in_use * block_size`` — whole
    reserved runs in contiguous mode, allocated blocks in paged mode);
    ``peak_fragmentation_slots`` the worst reserved-but-unused slot
    count observed (the pool's ``fragmentation_slots``); ``deferrals``
    the steps a sequence skipped because the block pool ran dry (paged
    mode only); ``preemptions`` the sequences evicted for
    recomputation, by a dry pool (paged mode) or by the policy (either
    mode, e.g. a higher-priority arrival under
    ``priority-preemptive``); ``paging`` the final
    :meth:`~repro.core.paging.BlockPool.pool_info` snapshot.

    Per-request step timing (the serving layer's raw material):
    ``first_token_steps[i]`` / ``finish_steps[i]`` are the 0-based
    scheduler-step indices at which request ``i``'s prefill landed (its
    first visible token) and at which it completed; ``step_cycles[k]``
    is the packed vector cycles step ``k`` spent.
    ``first_token_times[i]`` / ``finish_times[i]`` are the same two
    events on the scheduler's **virtual clock** (cycles; idle gaps
    between arrivals included), which is what turns step indices into
    TTFT and latency.  A preempted-then-recomputed request keeps its
    *first* prefill landing (recomputation regenerates bit-identical
    tokens, so the user-visible first token never moves).
    """

    results: tuple[GenerateResult, ...]
    counters: EventCounters
    pages_allocated: int
    peak_active: int = 0
    peak_kv_slots: int = 0
    peak_fragmentation_slots: int = 0
    deferrals: int = 0
    preemptions: int = 0
    paging: dict[str, int] = field(default_factory=dict)
    first_token_steps: tuple[int, ...] = ()
    finish_steps: tuple[int, ...] = ()
    first_token_times: tuple[float, ...] = ()
    finish_times: tuple[float, ...] = ()
    step_cycles: tuple[int, ...] = ()

    @property
    def scheduler_steps(self) -> int:
        """Fused scheduler steps executed."""
        return len(self.step_cycles)

    @property
    def packed_vector_cycles(self) -> int:
        """What the shared overlay actually spent across every step."""
        return sum(self.step_cycles)

    @property
    def sequential_vector_cycles(self) -> int:
        """The per-request costs, summed: their ratio to
        ``packed_vector_cycles`` is the continuous-batching win."""
        return sum(r.vector_cycles for r in self.results)

    @property
    def n_requests(self) -> int:
        """Requests served."""
        return len(self.results)

    @property
    def total_generated_tokens(self) -> int:
        """Tokens generated across every request (prompts excluded)."""
        return sum(r.n_generated for r in self.results)

    @property
    def packing_speedup(self) -> float:
        """Sequential vector cycles per packed vector cycle (>= 1)."""
        if self.packed_vector_cycles == 0:
            return 1.0
        return self.sequential_vector_cycles / self.packed_vector_cycles


class _Sequence:
    """Scheduler bookkeeping for one in-flight request.

    Structurally satisfies :class:`~repro.core.waiting.SequenceView` —
    the read-only surface scheduling policies see.
    """

    __slots__ = (
        "index", "request", "state", "remaining", "next_x",
        "prefill_result", "steps", "admitted_at",
        "draft", "passes", "pending_pass",
        "arrival", "priority", "tenant", "deadline",
        "first_token_step", "finish_step",
        "first_token_time", "finish_time", "counter_total",
    )

    def __init__(
        self,
        index: int,
        request: DecodeRequest,
        meta: SequenceMeta | None = None,
    ) -> None:
        self.index = index
        self.request = request
        #: The draft model (None for the draft-free tree).
        self.draft: DraftModel | None = None
        # Serving metadata (virtual-clock times; defaults for plain
        # callers) and the step-timing record the metrics layer reads.
        meta = SequenceMeta() if meta is None else meta
        self.arrival = meta.arrival
        self.priority = meta.priority
        self.tenant = meta.tenant
        self.deadline = meta.deadline
        self.first_token_step = -1
        self.finish_step = -1
        self.first_token_time = -1.0
        self.finish_time = -1.0
        self.reset_progress()

    @property
    def live_state(self) -> DecodeState:
        """The admitted sequence's decode state (set at admission)."""
        assert self.state is not None
        return self.state

    @property
    def step_input(self) -> np.ndarray:
        """The next token embedding (set once the prefill lands)."""
        assert self.next_x is not None
        return self.next_x

    @property
    def finished_prefill(self) -> CausalPrefillResult:
        """The prefill result (set after the sequence's first step)."""
        assert self.prefill_result is not None
        return self.prefill_result

    def reset_progress(self) -> None:
        """Forget all progress (preemption by recomputation): the
        sequence restarts from its prompt when readmitted, reproducing
        bit-identical results because every step is deterministic.
        ``first_token_step``/``first_token_time`` survive on purpose:
        recomputation regenerates the same tokens, so the user-visible
        first token stays where it first landed."""
        self.state: DecodeState | None = None
        self.remaining = self.request.max_new_tokens
        self.next_x: np.ndarray | None = None
        self.prefill_result: CausalPrefillResult | None = None
        self.steps: list[DecodeStepResult] = []
        self.admitted_at = -1
        self.passes: list[VerifyPassResult] = []
        self.pending_pass: _SpecPass | None = None
        #: Sequential-equivalent events of every job that landed since
        #: the last (re)admission, indexed by OVERLAY_EVENTS.
        self.counter_total = np.zeros(len(OVERLAY_EVENTS), dtype=np.int64)
        if self.draft is not None:
            self.draft.reset()

    def charge(self, counter_row: np.ndarray) -> None:
        """Add one landed job's sequential-equivalent event row."""
        self.counter_total += counter_row


def _policy_answer(
    policy: SchedulingPolicy,
    answer: Iterable[_Sequence],
    members: list[_Sequence],
    violation: str,
) -> list[_Sequence]:
    """A policy's sequence list, validated as a whole before the
    scheduler acts on any of it: every entry must be one of
    ``members`` and none may appear twice, else the policy-contract
    ``ValueError`` (``violation`` says what the policy did)."""
    chosen = list(answer)
    seen: set[int] = set()
    for seq in chosen:
        if seq not in members or id(seq) in seen:
            raise ValueError(f"policy {policy.name!r} {violation}")
        seen.add(id(seq))
    return chosen


def _project_roots(
    seqs: Sequence[_Sequence],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every scheduled pass's ``u_0`` projection, in sequence order.

    Sequences are grouped by the identity of their ``wq``/``wk``/``wv``
    (never by value: equal copies are separate groups), and each group's
    step inputs are projected in one :func:`project_token` rows call
    (one gemv per row, byte-identical to projecting each input alone).
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, seq in enumerate(seqs):
        req = seq.request
        groups.setdefault((id(req.wq), id(req.wk), id(req.wv)), []).append(i)
    roots: list[Any] = [None] * len(seqs)
    for members in groups.values():
        req = seqs[members[0]].request
        q, k, v = project_token(
            np.array([seqs[i].step_input for i in members]),
            req.wq, req.wk, req.wv, req.n_heads,
        )
        for pos, i in enumerate(members):
            roots[i] = (q[pos], k[pos], v[pos])
    return roots


class ContinuousBatchScheduler:
    """Orca-style continuous batching over one :class:`NovaDecodeEngine`.

    Per scheduler step, the prefill rows of newly admitted requests and
    the decode rows of every in-flight request are fused into a single
    exp stream and a single reciprocal stream through the shared overlay
    (:meth:`NovaDecodeEngine._execute`), so lanes that one request would
    leave as tail padding carry another request's queries.  Requests
    join as slots free up (``max_active``) and leave the moment their
    budget is exhausted.  A run is a step machine: :meth:`start` builds
    the run state on the scheduler, :meth:`step` runs one fused step
    until it returns ``False`` (the state may be inspected in between),
    and :meth:`run` is both, then :meth:`result`.  A ``step()`` that
    raises leaves the run unusable.

    One memory model, two reservation policies.  Every run accounts its
    KV memory in one :class:`~repro.core.paging.BlockPool` of
    fixed-size blocks (``engine.config.kv_block_size`` tokens — the one
    home of the block size; build the engine from
    ``config.replace(kv_block_size=N)`` for another granularity),
    shared by every request; ``paged`` only picks how a sequence
    reserves it:

    * **Contiguous (default)** — admission reserves the request's whole
      worst-case page at once: one run of ``blocks_needed(capacity,
      block_size)`` consecutive blocks, held by the request's
      :class:`KVCache` (a :class:`~repro.core.paging.ReservedKVCache`).
      When no free run is long enough, admission defers until an
      in-flight request retires.
    * **Paged** (``paged=True``) — admission needs only the request's
      *first* block to fit; later blocks allocate lazily on append.
      When the pool runs dry mid-step, the starved sequences **defer**
      (skip the step, retry after other sequences free blocks), and if
      *no* sequence can make progress the most recently admitted one is
      **preempted**: its blocks are freed and it restarts from its
      prompt later (recomputation is deterministic, so its final
      results are still bit-identical; the wasted work shows up only in
      ``packed_vector_cycles``).  ``prefix_caching=True`` additionally
      shares already-cached prompt blocks between requests: admission
      charges only *unshared* blocks (a request whose prefix is
      resident can enter a dry pool), prefills adopt shared blocks
      instead of re-writing them, and the first divergent append copies
      on write — N requests sharing a prefix prefill once and pay ~1/N
      the pool residency, with bit/cycle/counter-exact outputs.

    Retirement and preemption hand a sequence's memory back the same
    way under both policies (``cache.reset()``).  The pool is sized from
    ``pool_blocks`` or ``pool_bytes`` (either policy, not both) or — by
    default — the ``max_active`` largest per-request reservations (whole
    pages, or paged worst cases).  Every request must agree on head
    geometry.

    Each result is a :class:`GenerateResult` bit-identical (outputs,
    per-step sequential-equivalent cycles, event counters) to running
    the request alone through :meth:`NovaDecodeEngine.generate` with the
    same draft tree, in **both** modes and under every policy (checked
    by the serving experiments before any throughput is reported):
    paging, preemption and policies change where K/V rows live and when
    work happens, never what it computes.

    Every in-flight sequence's step is one draft-and-verify pass of the
    engine (:meth:`NovaDecodeEngine.plan_with_fallback` /
    :meth:`NovaDecodeEngine.finish_verify_pass`), fused with the other
    sequences' passes into the shared lane streams.  ``spec_tree`` is
    the draft tree every pass plans (a
    :class:`~repro.core.speculative.DraftTree` or a ``"2x2,1x4"``-style
    spec); ``None``, the default, is the depth-0 tree — plain decode,
    with no draft model.  A drafting tree gets one draft model per
    sequence from ``draft_factory`` (default: the exact-LUT
    ``TruncatedTableDraft(config)``), which the depth-0 tree never
    calls.  A pass that cannot get provisional blocks degrades to
    draft-free before it defers.

    Scheduling decisions — which waiting request to admit next, which
    active sequences run a step, and who is preempted — are delegated
    to a pluggable ``policy``
    (:class:`~repro.core.waiting.SchedulingPolicy`; the rest of the
    built-in policies live in :mod:`repro.serving.policies`).  The
    default, :class:`~repro.core.waiting.FCFS`, pins the scheduler's
    historical behavior exactly: admission in queue order (input
    order; a preempted request rejoins at the *front* of the queue),
    every active sequence steps every scheduler step, and the
    forced-preemption victim is the most recently admitted sequence.
    The waiting requests live in
    one :class:`~repro.core.waiting.WaitingQueue` per run, so under the
    built-in policies a step's admission work grows as O(log n) in the
    backlog, not O(n).
    """

    def __init__(
        self,
        engine: NovaDecodeEngine,
        max_active: int = 8,
        *,
        paged: bool = False,
        pool_blocks: int | None = None,
        pool_bytes: int | None = None,
        prefix_caching: bool = False,
        spec_tree: DraftTree | str | None = None,
        draft_factory: Callable[[], DraftModel] | None = None,
        policy: SchedulingPolicy | None = None,
    ) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        if prefix_caching and not paged:
            raise ValueError(
                "prefix_caching requires the paged scheduler "
                "(pass paged=True)"
            )
        if pool_blocks is not None and pool_bytes is not None:
            raise ValueError("pass pool_blocks or pool_bytes, not both")
        self.engine = engine
        #: The draft tree every step's passes plan; plain decode is the
        #: depth-0 tree.
        self.tree = DraftTree.of(spec_tree)
        cfg = engine.config
        #: One draft model per admitted sequence (drafts are stateful;
        #: sharing one across interleaved requests would break the
        #: solo-equivalence contract).  Only called when the tree drafts.
        self.draft_factory: Callable[[], DraftModel] = (
            (lambda: TruncatedTableDraft(cfg))
            if draft_factory is None
            else draft_factory
        )
        self.max_active = max_active
        self.paged = bool(paged)
        self.prefix_caching = bool(prefix_caching)
        self.pool_blocks = pool_blocks
        self.pool_bytes = pool_bytes
        self.policy: SchedulingPolicy = FCFS() if policy is None else policy
        # The run state: empty (a one-block pool) until start().
        self.block_pool = BlockPool(1, 1, 1, 1)
        self.sequences: tuple[_Sequence, ...] = ()
        self.waiting: WaitingQueue[_Sequence] = WaitingQueue(())
        self.active: list[_Sequence] = []
        #: The run's virtual clock, in cycles: each step's packed vector
        #: cycles plus idle jumps to the next arrival, never the host's
        #: time (NV008).
        self.now = 0.0
        self.step_cycles: list[int] = []
        #: The events the run's own streams charged, indexed by
        #: OVERLAY_EVENTS.
        self.counter_total = np.zeros(len(OVERLAY_EVENTS), dtype=np.int64)
        self.deferrals = self.preemptions = self._admissions = 0
        self.peak_active = self.peak_kv_slots = self.peak_fragmentation = 0

    # -- the step machine -----------------------------------------------

    def _build_pool(self, requests: Sequence[DecodeRequest]) -> BlockPool:
        """The run's :class:`~repro.core.paging.BlockPool`."""
        n_heads = requests[0].n_heads
        head_dim = requests[0].head_dim
        for request in requests:
            if (request.n_heads, request.head_dim) != (n_heads, head_dim):
                raise ValueError(
                    "serving shares one block pool, so every request "
                    f"must agree on head geometry; got {n_heads}x{head_dim} "
                    f"and {request.n_heads}x{request.head_dim}"
                )
        bs = self.engine.config.kv_block_size
        # Per-request reservation: the whole page, or the paged worst case.
        reservations = [
            worst_case_blocks(r.total_tokens, r.window, bs)
            if self.paged
            else blocks_needed(r.capacity, bs)
            for r in requests
        ]
        if self.pool_blocks is not None:
            pool = BlockPool(n_heads, head_dim, bs, self.pool_blocks)
        elif self.pool_bytes is not None:
            pool = BlockPool.from_bytes(
                n_heads, head_dim, bs, self.pool_bytes
            )
        else:
            # Auto-size: room for the max_active largest reservations.
            largest = sorted(reservations, reverse=True)[: self.max_active]
            pool = BlockPool(n_heads, head_dim, bs, sum(largest))
        for need in reservations:
            if need > pool.n_blocks:
                raise BlockPoolExhausted(
                    f"request needs {need} blocks of {bs} tokens even "
                    f"running alone, but the pool only has "
                    f"{pool.n_blocks}; raise pool_blocks/pool_bytes or "
                    "the config's kv_block_size"
                )
        return pool

    def _prefix_cached_blocks(
        self, request: DecodeRequest, pool: BlockPool
    ) -> int:
        """Leading prompt blocks the pool already caches (read-only).

        The admission estimate of what
        :meth:`~repro.core.paging.PagedKVCache.adopt_prefix` would
        adopt: no counters move and no references are taken.  Windowed
        requests never adopt, so they always report 0.
        """
        if request.window is not None:
            return 0
        return pool.probe_prefix(
            prefix_block_keys(
                request.x, request.wk, request.wv,
                request.n_heads, pool.block_size,
            )
        )

    def _requeue(self, seq: _Sequence) -> None:
        """Preempt an admitted sequence, or roll back its prefill: free
        its memory, forget its progress and put it back at the front of
        the queue, to replay from its prompt when readmitted."""
        seq.live_state.cache.reset()
        seq.reset_progress()
        self.waiting.rejoin(seq)

    def start(
        self,
        requests: Iterable[DecodeRequest],
        meta: Sequence[SequenceMeta] | None = None,
    ) -> None:
        """Begin a run: validate the requests and build the run state,
        replacing any earlier run's.

        ``meta`` optionally attaches one :class:`SequenceMeta` per
        request (arrival time on the virtual clock, priority, tenant,
        deadline) — the front door's interface.  Without it every
        request is present at cycle 0 with default metadata.
        """
        request_list = tuple(requests)
        if not request_list:
            raise ValueError("need at least one decode request")
        metas: tuple[SequenceMeta | None, ...] = (
            (None,) * len(request_list) if meta is None else tuple(meta)
        )
        if len(metas) != len(request_list):
            raise ValueError(
                f"got {len(metas)} SequenceMeta entries for "
                f"{len(request_list)} requests"
            )
        for request in request_list:
            self.engine.validate_request(request)
        self.block_pool = self._build_pool(request_list)
        self.sequences = tuple(
            _Sequence(i, request, meta=m)
            for i, (request, m) in enumerate(zip(request_list, metas))
        )
        self.waiting = WaitingQueue(self.sequences)
        self.active = []
        self.now = 0.0
        self.step_cycles = []
        self.counter_total = np.zeros(len(OVERLAY_EVENTS), dtype=np.int64)
        self.deferrals = self.preemptions = self._admissions = 0
        self.peak_active = self.peak_kv_slots = self.peak_fragmentation = 0

    def step(self) -> bool:
        """Run one scheduler step: one fused :meth:`_execute` and one
        ``step_cycles`` entry, after any idle clock jumps and forced
        preemptions before it.  Returns ``False``, changing nothing,
        once no request remains."""
        if not self.sequences:
            raise RuntimeError("no run to step: call start() first")
        engine, tree, policy = self.engine, self.tree, self.policy
        pool, waiting, active = self.block_pool, self.waiting, self.active
        step_cycles, now = self.step_cycles, self.now
        while waiting or waiting.upcoming or active:
            waiting.advance(now)
            # Policy-initiated (voluntary) preemption, e.g. a
            # higher-priority arrival displacing a low-priority
            # sequence when every slot is taken.
            if active and waiting:
                free_slots = self.max_active - len(active)
                victims = _policy_answer(
                    policy,
                    policy.preemptions(waiting, active, now, free_slots),
                    active,
                    "named a preemption victim that is not an active "
                    "sequence, or one twice",
                )
                for victim in victims:
                    active.remove(victim)
                    self._requeue(victim)
                self.preemptions += len(victims)

            jobs: list[_Job] = []
            joining: list[_Sequence] = []
            stepping: list[_Sequence] = []
            # Decode first: running sequences have priority over
            # admission for whatever blocks are free (otherwise a
            # preempted-then-readmitted request could steal the very
            # blocks its preemption freed and starve older sequences —
            # a livelock).  A dry pool defers the starved sequence to
            # the next step.  An in-flight sequence's step is one
            # pass (any drafts appended provisionally, planned
            # atomically); a pass with drafts degrades to a draft-free
            # one before it defers.  The policy picks which active
            # sequences run this step (normally all).
            scheduled = _policy_answer(
                policy, policy.step_order(active, now), active,
                "scheduled a sequence that is not active, or one twice",
            )
            for seq, root in zip(scheduled, _project_roots(scheduled)):
                try:
                    pending = engine.plan_with_fallback(
                        seq.live_state, seq.step_input, seq.remaining,
                        draft=seq.draft, tree=tree, projected=root,
                    )
                except BlockPoolExhausted:
                    self.deferrals += 1
                    continue
                seq.pending_pass = pending
                jobs.append(pending.job)
                stepping.append(seq)
            # Admission: fill the remaining slots with waiting requests'
            # prefills.  The policy picks the next candidate from the
            # *arrived* waiting requests (queue order preserved); the
            # first candidate that cannot get memory ends admission for
            # this step (deferral).  Contiguous mode admits when a run
            # of free blocks holds the whole page.  Paged mode admits
            # whenever the request's first block fits (free blocks >= 1)
            # and rolls the prefill back — deferring the request — if
            # the pool runs dry mid-prompt.
            while waiting and len(active) + len(joining) < self.max_active:
                seq = policy.admit_next(waiting, active + joining, now)
                if seq is None:
                    break
                if seq not in waiting:
                    raise ValueError(
                        f"policy {policy.name!r} admitted a sequence that "
                        "is not waiting-and-arrived"
                    )
                if self.paged:
                    # Admission charges only *unshared* blocks: a
                    # request whose leading prompt blocks are already
                    # cached can enter a dry pool — its prefill adopts
                    # those blocks instead of allocating, and if the
                    # unshared remainder runs the pool dry mid-prompt
                    # the ordinary rollback-and-defer path below
                    # applies.
                    if pool.free_blocks < 1 and not (
                        self.prefix_caching
                        and self._prefix_cached_blocks(seq.request, pool)
                    ):
                        break
                    state = engine.start(
                        seq.request, pool=pool, prefix=self.prefix_caching
                    )
                else:
                    try:
                        cache = ReservedKVCache(
                            pool, seq.request.capacity, seq.request.window
                        )
                    except BlockPoolExhausted:
                        break
                    state = engine.start(seq.request, cache=cache)
                waiting.remove(seq)
                seq.state = state
                if seq.draft is None and tree.depth:
                    seq.draft = self.draft_factory()
                self._admissions += 1
                seq.admitted_at = self._admissions
                try:
                    job = engine._plan_prefill(state)
                except BlockPoolExhausted:  # paged: pool ran dry
                    self._requeue(seq)
                    self.deferrals += 1
                    break
                jobs.append(job)
                joining.append(seq)

            if not jobs:
                if active:
                    # Every in-flight sequence is starved: the policy
                    # picks a preemption victim (FCFS: the most
                    # recently admitted).
                    victim = policy.select_victim(active, now)
                    if victim not in active:
                        raise ValueError(
                            f"policy {policy.name!r} named a preemption "
                            "victim that is not an active sequence"
                        )
                    active.remove(victim)
                    self._requeue(victim)
                    self.preemptions += 1
                    continue
                if not waiting:
                    # Idle: nothing in flight and nothing has arrived
                    # yet — jump the virtual clock to the next arrival.
                    self.now = now = waiting.next_arrival()
                    continue
                # An idle pool is empty and every request fits it alone
                # (_build_pool), so only the policy can stall here.
                raise ValueError(
                    f"policy {policy.name!r} admitted no arrived request "
                    "while nothing was in flight; admit_next must pick "
                    "one when no sequence is active"
                )

            self.peak_active = max(self.peak_active, len(active + joining))
            self.peak_kv_slots = max(
                self.peak_kv_slots, pool.in_use * pool.block_size
            )
            self.peak_fragmentation = max(
                self.peak_fragmentation, pool.fragmentation_slots
            )

            results, cycles, step_row = engine._execute(jobs)
            self.counter_total += step_row
            step_cycles.append(cycles)
            self.now = now = now + float(cycles)

            for seq, result in zip(stepping + joining, results):
                seq.charge(result.counter_row)
                if seq.prefill_result is None:
                    prefill = engine._wrap_prefill(result)
                    seq.prefill_result = prefill
                    seq.next_x = prefill.outputs[-1]
                    if seq.first_token_step < 0:
                        # The prefill's last output is the request's
                        # first visible token; preserved across
                        # preemption (recomputation replays the same
                        # token), so TTFT is the first landing.
                        seq.first_token_step = len(step_cycles) - 1
                        seq.first_token_time = now
                    if seq.draft is not None:
                        # Seed the draft with the prompt trajectory, in
                        # the exact order solo generate does.
                        for position, (x_row, out_row) in enumerate(
                            zip(seq.request.x, prefill.outputs)
                        ):
                            seq.draft.observe(x_row, out_row, position)
                else:
                    staged = seq.pending_pass
                    assert staged is not None  # planned this very step
                    new_steps, pass_result = engine.finish_verify_pass(
                        staged, result, draft=seq.draft
                    )
                    seq.pending_pass = None
                    seq.steps.extend(new_steps)
                    seq.passes.append(pass_result)
                    seq.next_x = new_steps[-1].output
                    seq.remaining -= len(new_steps)

            survivors: list[_Sequence] = []
            for seq in joining + active:
                if seq.remaining > 0:
                    survivors.append(seq)
                    continue
                seq.finish_step = len(step_cycles) - 1
                seq.finish_time = now
                seq.live_state.cache.reset()  # memory back to the pool
            self.active = survivors
            return True
        return False

    def result(self) -> ContinuousBatchResult:
        """The finished run, read off its sequences and the pool."""
        sequences = self.sequences
        if not sequences or any(s.finish_step < 0 for s in sequences):
            raise RuntimeError("the run has not finished")
        return ContinuousBatchResult(
            results=tuple(
                GenerateResult.from_passes(
                    s.finished_prefill, s.steps, s.passes, s.counter_total
                )
                for s in sequences
            ),
            counters=EventCounters.from_vector(self.counter_total),
            # every contiguous admission reserves one whole page
            pages_allocated=0 if self.paged else self._admissions,
            peak_active=self.peak_active,
            peak_kv_slots=self.peak_kv_slots,
            peak_fragmentation_slots=self.peak_fragmentation,
            deferrals=self.deferrals,
            preemptions=self.preemptions,
            paging=self.block_pool.pool_info(),
            first_token_steps=tuple(s.first_token_step for s in sequences),
            finish_steps=tuple(s.finish_step for s in sequences),
            first_token_times=tuple(s.first_token_time for s in sequences),
            finish_times=tuple(s.finish_time for s in sequences),
            step_cycles=tuple(self.step_cycles),
        )

    def run(
        self,
        requests: Iterable[DecodeRequest],
        meta: Sequence[SequenceMeta] | None = None,
    ) -> ContinuousBatchResult:
        """Serve every request to completion, continuously batched:
        :meth:`start` (``meta`` as there), :meth:`step` until it
        returns ``False``, then :meth:`result`."""
        self.start(requests, meta)
        while self.step():
            pass
        return self.result()
