"""NovaSession: the one typed front door to every NOVA execution mode.

A session owns one :class:`~repro.core.config.NovaConfig` geometry and
exposes the four ways this reproduction executes work on it:

* :meth:`NovaSession.attention_layer` — the cycle-accurate reference
  (:class:`~repro.core.attention.NovaAttentionEngine`): one request,
  every non-linear query driven beat-by-beat through the NoC model.
* :meth:`NovaSession.serve` — the batched serving path
  (:meth:`~repro.core.decode.NovaDecodeEngine.attention_batch`): many
  requests lane-packed through one shared overlay, bit-exact and
  counter-exact against the reference.
* :meth:`NovaSession.decode` / :meth:`NovaSession.generate` /
  :meth:`NovaSession.serve_decode` — autoregressive decode over a KV
  cache on the same engine, one-at-a-time or continuously batched,
  bit-exact against the causal prefill.
* :meth:`NovaSession.serve_async` — the async serving front door
  (:class:`~repro.serving.frontdoor.FrontDoor`): streaming requests
  with arrivals/priorities/tenants/deadlines on a deterministic
  virtual clock, scheduled by a pluggable policy, reported as SLOs.
* :meth:`NovaSession.unit` — raw vector-unit access: a
  :class:`~repro.core.vector_unit.NovaVectorUnit` compiled for any
  registered non-linear function at the session geometry.

Engines are built lazily and cached per session — the reference engine
and one overlay engine (:attr:`NovaSession.decoder`, which serves both
batched attention and decode); the compile-time state
they share — trained PWL tables (:mod:`repro.approx.table_cache`) and
frozen broadcast schedules (:class:`~repro.core.mapper.NovaMapper`) —
lives in the process-wide caches, so any number of sessions at the same
geometry reuse one copy (:meth:`cache_info` reports both).

Typical use::

    from repro import NovaSession

    session = NovaSession("jetson-nx")          # a Table II preset...
    session = NovaSession(NovaConfig(n_routers=4, neurons_per_router=64))
    result = session.attention_layer(x, wq, wk, wv, wo, n_heads=2)
    batch = session.serve(requests)             # BatchedAttentionResult
    unit = session.unit("gelu")                 # NovaVectorUnit
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.approx.table_cache import table_cache_info
from repro.core.attention import (
    AttentionLayerResult,
    AttentionRequest,
    BatchedAttentionResult,
    NovaAttentionEngine,
)
from repro.core.config import NovaConfig, as_config
from repro.core.decode import (
    ContinuousBatchResult,
    ContinuousBatchScheduler,
    DecodeRequest,
    DecodeResult,
    GenerateResult,
    NovaDecodeEngine,
)
from repro.core.mapper import NovaMapper
from repro.core.vector_unit import NovaVectorUnit

if TYPE_CHECKING:
    from repro.accelerators import HostAccelerator
    from repro.core.speculative import DraftModel
    from repro.serving.frontdoor import ServingRequest
    from repro.serving.metrics import ServingReport
    from repro.serving.policies import SchedulingPolicy

__all__ = ["NovaSession"]


class NovaSession:
    """One NOVA geometry, every execution mode behind a single API.

    ``config`` is a :class:`NovaConfig`, a preset name from
    :data:`repro.core.config.PRESETS`, a mapping of fields, or ``None``
    for the defaults.
    """

    def __init__(
        self, config: NovaConfig | str | Mapping[str, object] | None = None
    ) -> None:
        self._config = as_config(config)
        self._reference: NovaAttentionEngine | None = None
        self._decoder: NovaDecodeEngine | None = None
        self._units: dict[str, NovaVectorUnit] = {}

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------

    @property
    def config(self) -> NovaConfig:
        """The session's immutable geometry."""
        return self._config

    @property
    def n_lanes(self) -> int:
        """Total approximator lanes of the session geometry."""
        return self._config.n_lanes

    def build_host(self) -> "HostAccelerator":
        """The geometry's host accelerator (requires ``config.host``)."""
        return self._config.build_host()

    # ------------------------------------------------------------------
    # Mode 1: cycle-accurate reference.
    # ------------------------------------------------------------------

    @property
    def reference(self) -> NovaAttentionEngine:
        """The cycle-accurate single-request engine (built lazily)."""
        if self._reference is None:
            self._reference = NovaAttentionEngine(self._config)
        return self._reference

    def attention_layer(
        self,
        x: np.ndarray,
        wq: np.ndarray,
        wk: np.ndarray,
        wv: np.ndarray,
        wo: np.ndarray,
        n_heads: int,
    ) -> AttentionLayerResult:
        """One multi-head self-attention layer, cycle-accurately."""
        return self.reference.attention_layer(x, wq, wk, wv, wo, n_heads)

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
        return self.reference.exact_attention_layer(x, wq, wk, wv, wo, n_heads)

    def softmax(self, scores: np.ndarray) -> tuple[np.ndarray, int]:
        """Hardware softmax over the last axis (reference engine)."""
        return self.reference.softmax(scores)

    def gelu(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Hardware GeLU (reference engine)."""
        return self.reference.gelu(values)

    # ------------------------------------------------------------------
    # Mode 2: batched serving.
    # ------------------------------------------------------------------

    def serve(
        self,
        requests: Sequence[AttentionRequest] | Iterable[AttentionRequest],
    ) -> BatchedAttentionResult:
        """Serve a batch of attention requests on the shared overlay
        (:attr:`decoder`, the one overlay engine of the session)."""
        return self.decoder.attention_batch(requests)

    # ------------------------------------------------------------------
    # Mode 3: autoregressive decode (KV cache + continuous batching).
    # ------------------------------------------------------------------

    @property
    def decoder(self) -> NovaDecodeEngine:
        """The overlay engine: batched attention and KV-cached decode
        (built lazily).

        Building it compiles two tables, exp and reciprocal (the
        overlay's :data:`~repro.core.attention.OVERLAY_FUNCTIONS`; gelu
        waits for :attr:`reference` or :meth:`unit`).  Decode steps only
        retarget the shared unit, so :meth:`cache_info`'s table-cache
        misses stay flat no matter how many tokens are decoded (the
        suite pins this).
        """
        if self._decoder is None:
            self._decoder = NovaDecodeEngine(self._config)
        return self._decoder

    def decode(self, request: DecodeRequest) -> DecodeResult:
        """Decode ``request``'s prompt token by token over a KV cache.

        Every token runs as its own incremental step — the pure decode
        regime, bit-exact against :meth:`NovaDecodeEngine.prefill` for
        the same causal sequence.  Rejects non-causal requests
        (``ValueError``): decode is only defined when token ``t``
        attends to the cache of tokens ``<= t``.
        """
        return self.decoder.decode(request)

    def generate(
        self,
        request: DecodeRequest,
        max_new_tokens: int | None = None,
        *,
        speculative: bool = False,
        spec_tree: str | None = None,
        draft: "DraftModel | None" = None,
    ) -> GenerateResult:
        """Prefill the prompt, then generate tokens autoregressively.

        ``max_new_tokens`` defaults to the request's own budget.  The
        attention output at the last position feeds back as the next
        token's embedding (there is no vocabulary at the
        attention-layer level).  Rejects non-causal requests.  Every
        token comes out of a draft-and-verify pass of :attr:`decoder`;
        plain decode runs the draft-free pass, one token each.

        ``speculative=True`` generates the **bit-identical** tokens
        with drafts instead (:mod:`repro.core.speculative`): ``draft``
        drafts a whole ``spec_tree``
        :class:`~repro.core.speculative.DraftTree` per packed
        verification pass (a ``"2x2,1x4"``-style spec, defaulting to
        the session config's; ``"1x4"`` is a linear chain of four
        drafts).  ``draft`` is any
        :class:`~repro.core.speculative.DraftModel`, passed per call;
        the default is the exact-LUT
        :class:`~repro.core.speculative.TruncatedTableDraft`.  The tree
        is a per-call argument of the one decode engine
        (``decoder.generate(..., tree=...)``); ``spec_tree`` and
        ``draft`` without ``speculative=True`` raise ``ValueError``.
        Either way the result is a
        :class:`~repro.core.decode.GenerateResult`, with per-pass
        acceptance and rollback accounting — bit-identical for any
        tree.
        """
        return self.decoder.generate(
            request, max_new_tokens=max_new_tokens, draft=draft,
            tree=self._draft_tree(speculative, spec_tree, draft),
        )

    def _draft_tree(
        self, speculative: bool, spec_tree: str | None, draft: object
    ) -> str | None:
        """The draft tree a decode call runs: ``None`` (plain decode)
        unless ``speculative``, else ``spec_tree`` or the config's.

        Below the session the tree alone decides, so this is the one
        place a ``spec_tree`` or a draft (model or factory) without
        ``speculative=True`` is rejected.
        """
        if speculative:
            return self._config.spec_tree if spec_tree is None else spec_tree
        if spec_tree is not None or draft is not None:
            raise ValueError(
                "spec_tree and drafts only apply to speculative decode "
                "(pass speculative=True)"
            )
        return None

    def serve_decode(
        self,
        requests: Sequence[DecodeRequest] | Iterable[DecodeRequest],
        max_active: int = 8,
        *,
        paged: bool = False,
        pool_blocks: int | None = None,
        pool_bytes: int | None = None,
        prefix_caching: bool = False,
        speculative: bool = False,
        spec_tree: str | None = None,
        draft_factory: "Callable[[], DraftModel] | None" = None,
    ) -> ContinuousBatchResult:
        """Serve decode requests with continuous batching.

        A fresh :class:`ContinuousBatchScheduler` (so pool statistics
        are per call) drives the session's decode engine; results are
        bit-identical to per-request :meth:`generate` under either
        reservation policy.  Every run's KV storage is one shared
        :class:`~repro.core.paging.BlockPool` of the session config's
        ``kv_block_size``-token blocks; by default each request reserves
        its whole worst-case page there at admission, and ``paged=True``
        allocates blocks lazily instead.  ``pool_blocks`` or
        ``pool_bytes`` (either policy, not both) cap the pool, enabling
        deferral (and preemption) under memory pressure — by default it
        holds the ``max_active`` largest per-request reservations.
        ``prefix_caching=True`` (paged only) shares already-cached
        prompt blocks between requests under refcounts with
        copy-on-write, charging admission only for unshared blocks — a
        pure residency win, the hit/share counters land in the result's
        ``paging`` dict.
        ``speculative=True`` replaces each in-flight decode row with a
        draft-and-verify pass (a whole ``spec_tree`` draft tree per
        pass, defaulting to the config's; one model per sequence from
        ``draft_factory()``, defaulting to the exact-LUT
        ``TruncatedTableDraft(config)``), composing with either memory
        mode and still bit-identical to solo :meth:`generate` per
        request.  The scheduler itself takes only the tree
        (``spec_tree=None`` is plain decode); ``spec_tree`` and
        ``draft_factory`` without ``speculative=True`` raise
        ``ValueError`` here.
        """
        scheduler = ContinuousBatchScheduler(
            self.decoder, max_active=max_active, paged=paged,
            pool_blocks=pool_blocks, pool_bytes=pool_bytes,
            prefix_caching=prefix_caching,
            spec_tree=self._draft_tree(speculative, spec_tree, draft_factory),
            draft_factory=draft_factory,
        )
        return scheduler.run(requests)

    def serve_async(
        self,
        trace: "Sequence[ServingRequest]",
        *,
        policy: "str | SchedulingPolicy" = "fcfs",
        max_active: int = 8,
        paged: bool = False,
        pool_blocks: int | None = None,
        pool_bytes: int | None = None,
        prefix_caching: bool = False,
        speculative: bool = False,
        spec_tree: str | None = None,
        draft_factory: "Callable[[], DraftModel] | None" = None,
    ) -> "ServingReport":
        """Serve streaming requests through the async front door.

        ``trace`` is a sequence of
        :class:`~repro.serving.frontdoor.ServingRequest` envelopes —
        each a decode request plus arrival time, priority, tenant and
        optional deadline on the scheduler's deterministic **virtual
        clock** (build one by hand or with
        :func:`repro.serving.arrivals.build_trace`).  ``policy`` picks
        the scheduling policy by registry name
        (:data:`repro.serving.policies.POLICIES`: ``"fcfs"``,
        ``"priority-preemptive"``, ``"slo-aware"``, ``"tenant-fair"``)
        or takes a policy object; the remaining knobs mirror
        :meth:`serve_decode` (``speculative=True`` resolves the draft
        tree the front door runs, ``spec_tree`` or the config's; drafts
        come per sequence from ``draft_factory``, default the exact-LUT
        draft).  Returns the
        JSON-serializable :class:`~repro.serving.metrics.ServingReport`
        (TTFT/latency percentiles, goodput, deferral/preemption rates).
        Whatever the policy decides, per-request outputs stay
        bit-identical to solo :meth:`generate`.
        """
        from repro.serving.frontdoor import FrontDoor

        door = FrontDoor(
            self.decoder,
            policy=policy,
            max_active=max_active,
            paged=paged,
            pool_blocks=pool_blocks,
            pool_bytes=pool_bytes,
            prefix_caching=prefix_caching,
            spec_tree=self._draft_tree(speculative, spec_tree, draft_factory),
            draft_factory=draft_factory,
        )
        return door.serve(trace)

    # ------------------------------------------------------------------
    # Mode 4: raw vector-unit access.
    # ------------------------------------------------------------------

    def unit(self, function: str) -> NovaVectorUnit:
        """A vector unit compiled for ``function`` at this geometry.

        ``function`` is any registered non-linear function name
        (``repro.approx.functions.FUNCTIONS``); its table comes from the
        process-wide compiled-table cache at the session's ``n_segments``
        and ``seed``.  One unit is built per function per session and
        returned again on later calls.
        """
        cached = self._units.get(function)
        if cached is None:
            cached = NovaVectorUnit(self._config.table(function), self._config)
            self._units[function] = cached
        return cached

    # ------------------------------------------------------------------
    # Shared compile-time caches.
    # ------------------------------------------------------------------

    @staticmethod
    def cache_info() -> dict[str, object]:
        """Process-wide compile-cache statistics the session relies on.

        ``tables`` reports the compiled-table cache
        (:func:`repro.approx.table_cache.table_cache_info`): engines
        compile their tables exactly once at construction, so steady
        state shows cache *hits*, never new misses — in particular the
        decode path must not add a miss per decode step (retargeting
        swaps the table already held by the engine; a test pins the
        miss count flat across steps).  ``schedules`` is the shared
        frozen-:class:`~repro.core.mapper.BroadcastSchedule` count.
        Neither kernel launches nor KV pool statistics are here: the
        kernels hold no state, and each serving run owns its pool and
        reports it in its result's ``paging`` dict
        (:meth:`~repro.core.paging.BlockPool.pool_info`).
        """
        return {
            "tables": table_cache_info(),
            "schedules": NovaMapper.schedule_cache_size(),
        }

    def __repr__(self) -> str:
        cfg = self._config
        return (
            f"NovaSession({cfg.n_routers}x{cfg.neurons_per_router} lanes @ "
            f"{cfg.pe_frequency_ghz:g} GHz, hop {cfg.hop_mm:g} mm, "
            f"{cfg.n_segments} segments"
            + (f", host={cfg.host!r}" if cfg.host else "")
            + ")"
        )
