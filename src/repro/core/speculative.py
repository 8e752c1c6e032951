"""Speculative decode on the NOVA overlay: draft-and-verify over paged KV.

Every output token of the plain decode path costs one full pass through
the overlay — one exp stream, one reciprocal stream, one table retarget
each — even though a single decode row rarely fills the lane grid.
Speculative decode amortises that per-step overhead the same way the
prefill path amortises a whole prompt: a cheap **draft model** proposes
the next ``k`` token embeddings (the ``"1xk"`` draft tree), the engine
appends them to the KV cache as *provisional* tokens, and one **packed
verification pass** scores all ``k + 1`` positions in a single overlay
traversal (the fold-small-ops-into-one-pass idea the ROADMAP names).
Accepted drafts commit; the rejected suffix rolls back atomically by
truncating the cache — on a :class:`~repro.core.paging.PagedKVCache`
that frees whole tail blocks back to the shared pool.

Why this is bit-exact by construction
-------------------------------------
The decode loop is deterministic: the next token's embedding *is* the
attention output at the last position.  A verification pass feeds the
chain ``u_0 = x_t, u_1 = d_1, ..., u_k = d_k`` (``d_i`` drafted) through
the exact per-token numerics of :class:`~repro.core.decode.
NovaDecodeEngine` and obtains the true outputs ``o_0 ... o_k``.  Draft
``d_i`` is **accepted only when it equals ``o_{i-1}`` bit for bit** — in
which case position ``i``'s input was exactly what plain decode would
have fed, so ``o_i`` is exactly what plain decode would have produced.
The first mismatch truncates: positions past it attended to a wrong
input, so their cache rows and outputs are discarded.  Committed outputs
are therefore *always* the plain-decode outputs, for **any** draft model
— a bad draft costs cycles (rolled-back work), never correctness.  The
property suite pins this under arbitrary accept/reject programs
(:class:`ScheduledDraft`), and ``u_0`` guarantees at least one committed
token per pass.

Draft models
------------
A draft answers **one call per tree level**:
``propose_candidates(request, branches, position, width)`` receives every
live frontier node of the level as a :class:`DraftBranch` (its input
embedding, its branch cache and the verify plan's already-computed
max-subtracted scores) and returns up to ``width`` alternative proposals
per branch; a linear chain is the width-1 case of the same call.
The draft is a per-call argument of every pass-level method, never a
setting: any :class:`DraftModel` may be passed, and the default is the
exact-LUT draft.  :class:`TruncatedTableDraft` re-runs the per-token
host numerics through the *same compiled LUT objects* the engine holds
(``QuantizedPwl.evaluate`` is the golden model the hardware is bit-exact
against), so at ``fidelity=1.0`` every proposal verifies bit-identically
with zero overlay cost.  It reuses the plan's scores instead of
re-projecting, and streams a whole level through one exp and one
reciprocal evaluation (:func:`host_level_outputs`) — the long-vector
batching the overlay itself relies on.  ``fidelity < 1.0`` drafts a
seeded, per-position fraction of tokens through the same LUTs at
*reduced output precision* instead — those proposals disagree and are
rejected, making ``fidelity`` the long-run acceptance-rate knob the
serving studies sweep (the simulator stand-in for draft-model quality).
:class:`NGramDraft` is the model-free alternative: it replays the output
last seen after a matching (reduced-precision-keyed) input, which starts
paying off once a self-fed trajectory revisits states.
:class:`ScheduledDraft` follows an explicit accept/reject program — the
test and golden-trace instrument.  Only :class:`NGramDraft` learns from
``observe``.

Tree speculation
----------------
A linear chain stops paying at the first miss: one wrong draft wastes
the whole suffix.  A :class:`DraftTree` (``spec_tree="2x2,1x4"`` style
specs, :func:`repro.core.config.parse_tree_spec`) proposes several
*alternative* drafts per depth instead and scores the whole tree in the
same single packed pass.  Every tree node appends as a provisional
token under its own branch cache — an only child extends its parent's
branch in place, siblings each get a ``fork()`` of the parent cache (a
copy of the live rows; on the paged layer the
:class:`~repro.core.paging.BlockTable` blocks are shared at refcount,
copy-on-write) — so each node's KV span is exactly its ancestor chain.
That *is* the tree-causal attention mask, realised structurally rather
than arithmetically (:func:`tree_causal_mask` materialises it); one
whole-batch ``table_gather_mac`` launch per phase scores every branch
at once.  The commit step walks the tree accepting, per depth, the
child drafted bit-identical to its parent's true output, keeps that
longest-accepted branch, and rolls every other branch back through the
existing truncate/release path — zero leaked pool blocks for any
accept pattern (a pinned property).  The tree is the only speculation
shape: a width-1 tree plans no forks and *is* the linear chain (every
preset's default ``spec_tree`` is one, ``"1x4"`` or ``"1x8"``), and the
depth-0 tree ``DraftTree(())`` plans no drafts: each pass is the one
true token ``u_0``, i.e. a plain decode step.  Every plain decode path
runs it, so there is one decode loop; its passes build no tree nodes or
forks and never touch a draft.

Accounting
----------
Each verification pass is charged what the overlay actually spends (the
packed closed form over *all* pass tokens, rolled-back ones included);
:class:`~repro.core.decode.GenerateResult` additionally reports the
closed-form **sequential-equivalent** cycles — exactly what plain
``generate`` would have charged for the same committed tokens (a pinned
invariant) — plus drafted / accepted / rolled-back token counts per pass
and in total.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.attention import (
    assemble_probabilities,
    shift_scores,
    softmax_reduction,
)
from repro.core.config import NovaConfig, as_config, parse_tree_spec
from repro.core.decode import (
    DecodeRequest,
    DecodeState,
    DecodeStepResult,
    GenerateResult,
    KVCache,
    KVCacheOverflow,
    NovaDecodeEngine,
    _Job,
    context_for_query,
    project_token,
    scores_for_query,
)
from repro.core.paging import BlockPoolExhausted
from repro.noc.stats import EventCounters

if TYPE_CHECKING:
    from repro.approx.quantize import QuantizedPwl
    from repro.core.decode import _JobResult, _TokenPlan
    from repro.core.paging import BlockPool

__all__ = [
    "DraftBranch",
    "DraftModel",
    "DraftTree",
    "NGramDraft",
    "TruncatedTableDraft",
    "ScheduledDraft",
    "host_level_outputs",
    "host_step_output",
    "tree_causal_mask",
    "VerifyPassResult",
    "SpeculativeDecodeEngine",
]


# ----------------------------------------------------------------------
# The exact per-token step on the host (the draft models' substrate).
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class DraftBranch:
    """One live frontier node of a tree level, as a draft sees it.

    ``x_t`` is the node's input embedding, ``cache`` its branch cache
    (already holding ``x_t``'s k/v row) and ``shifted`` the verify
    plan's max-subtracted scores of ``x_t`` against that cache,
    ``(heads, kv_len)`` — computed once at plan time, so drafting never
    re-projects the token or re-reads its keys.  Every branch of one
    level sits at the same position over the same KV span length.
    """

    x_t: np.ndarray
    cache: KVCache
    shifted: np.ndarray


def _truncate(x: np.ndarray, bits: int | None) -> np.ndarray:
    """Round to ``bits`` fraction bits (``None`` keeps full precision)."""
    if bits is None:
        return x
    return np.ldexp(np.round(np.ldexp(x, bits)), -bits)


def host_level_outputs(
    request: DecodeRequest,
    branches: Sequence[DraftBranch],
    drop_bits: Sequence[Sequence[int | None]],
    exp_table: QuantizedPwl,
    recip_table: QuantizedPwl,
) -> list[list[np.ndarray]]:
    """One tree level's host step outputs, every branch and alternative.

    ``drop_bits[b][j]`` is alternative ``j`` of branch ``b`` (at least
    one alternative overall): ``None`` reproduces the verification pass
    **bit for bit** (the helpers are the single shared copies the engine
    executes — :func:`~repro.core.attention.softmax_reduction`, ... —
    and ``QuantizedPwl.evaluate`` is the golden model the overlay is
    bit-exact against, read from the same code table as the overlay
    kernel); an integer ``n`` rounds both non-linear results to ``n``
    fraction bits — the same LUTs at reduced precision, which
    is how the in-tree drafts model a lower-fidelity draft.

    The level streams like the overlay does: **one** exp evaluation over
    every branch's stacked scores, the per-alternative truncation, one
    row-wise softmax reduction, and **one** reciprocal evaluation over
    every (branch, alternative) mantissa.  Each evaluation is one
    gather from the table's code table (quantise to the 16-bit input
    code, then read the tabulated output), not a search and a MAC.
    All of these are element-wise or reduce along the last axis only,
    so each row is bit-identical to evaluating it alone.  The context
    GEMV and output projection run per row, over a view of the
    branch's cached values (no copy; see
    :func:`~repro.core.decode.context_for_query`).
    """
    raw = exp_table.evaluate(np.stack([b.shifted for b in branches]))
    rows = [
        (b, bits) for b, alternatives in enumerate(drop_bits)
        for bits in alternatives
    ]
    numer, mantissa, exponent = softmax_reduction(
        np.stack([_truncate(raw[b], bits) for b, bits in rows])
    )
    inv = recip_table.evaluate(mantissa)
    for i, (_, bits) in enumerate(rows):
        inv[i] = _truncate(inv[i], bits)
    probs = iter(assemble_probabilities(numer, inv, exponent))
    outputs: list[list[np.ndarray]] = []
    for branch, alternatives in zip(branches, drop_bits):
        values = branch.cache.values
        outputs.append([
            context_for_query(next(probs), values) @ request.wo
            for _ in alternatives
        ])
    return outputs


def host_step_output(
    request: DecodeRequest,
    cache: KVCache,
    x_t: np.ndarray,
    exp_table: QuantizedPwl,
    recip_table: QuantizedPwl,
    drop_to_bits: int | None = None,
) -> np.ndarray:
    """One decode step's attention output, computed entirely on the host.

    ``cache`` must already hold ``x_t``'s k/v row (the engine appends
    before asking for a proposal).  This is the one-branch,
    one-alternative case of :func:`host_level_outputs`: it projects
    ``x_t`` and scores it against the cache itself, then runs the same
    numerics — bit-identical to the verification pass with the engine's
    own tables and ``drop_to_bits=None``.
    """
    x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
    q, _, _ = project_token(
        x_t, request.wq, request.wk, request.wv, request.n_heads
    )
    branch = DraftBranch(
        x_t, cache, shift_scores(scores_for_query(q, cache.keys))
    )
    ((output,),) = host_level_outputs(
        request, [branch], [[drop_to_bits]], exp_table, recip_table
    )
    return output


# ----------------------------------------------------------------------
# Draft trees.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DraftTree:
    """The branching plan of one tree-speculative verification pass.

    ``widths[i]`` is how many alternative drafts every surviving branch
    proposes at depth ``i + 1`` (the root ``u_0`` is depth 0 and always
    a single true token).  ``DraftTree.linear(k)`` — all widths 1, spec
    ``"1xk"`` — is the degenerate tree: a linear chain of ``k`` drafts,
    fork-free.  ``DraftTree(())`` has no levels at all: every pass is
    just ``u_0``, which is plain decode.  Identical sibling proposals
    are deduplicated at plan time, so a draft that cannot produce
    ``widths[i]`` distinct alternatives simply grows a narrower level —
    the tree is a budget, not a quota.
    """

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if any(w < 1 for w in widths):
            raise ValueError(
                f"draft-tree widths must be >= 1, got {widths}"
            )
        if widths:
            # Reuse the spec parser's node cap (it validates the same
            # sum).
            parse_tree_spec(self.spec)

    @classmethod
    def parse(cls, spec: str) -> DraftTree:
        """Build from a ``"2x2,1x4"``-style spec string
        (:func:`repro.core.config.parse_tree_spec`)."""
        return cls(parse_tree_spec(spec))

    @classmethod
    def linear(cls, k: int) -> DraftTree:
        """The degenerate width-1 tree: a linear chain of ``k`` drafts."""
        if k < 1:
            raise ValueError(f"a linear chain needs k >= 1, got {k}")
        return cls((1,) * k)

    @property
    def depth(self) -> int:
        """Draft levels planned below the root."""
        return len(self.widths)

    @property
    def max_nodes(self) -> int:
        """Draft nodes a full (no-dedup, no-limit) tree would plan."""
        nodes = 0
        level = 1
        for width in self.widths:
            level *= width
            nodes += level
        return nodes

    @property
    def is_linear(self) -> bool:
        """Whether this is the degenerate (fork-free) chain."""
        return all(w == 1 for w in self.widths)

    @property
    def spec(self) -> str:
        """The canonical ``WIDTHxCOUNT`` spec string (run-length form;
        empty for the depth-0 tree)."""
        segments: list[str] = []
        for width in self.widths:
            prior = segments[-1] if segments else None
            if prior is not None and prior.startswith(f"{width}x"):
                count = int(prior.split("x")[1]) + 1
                segments[-1] = f"{width}x{count}"
            else:
                segments.append(f"{width}x1")
        return ",".join(segments)

    def __str__(self) -> str:
        return self.spec

    def __repr__(self) -> str:
        return f"DraftTree({self.spec!r})"


# ----------------------------------------------------------------------
# Draft models.
# ----------------------------------------------------------------------


@runtime_checkable
class DraftModel(Protocol):
    """What the speculative engine needs from a draft.

    ``propose_candidates(request, branches, position, width)`` is called
    **once per tree level**: ``branches`` holds every live frontier node
    of the level (:class:`DraftBranch`, in planning order), all at
    absolute ``position`` (each cache already holds its ``x_t``'s k/v
    row).  It returns one list per branch of at most ``width``
    alternative predictions of that branch's attention output; each
    becomes a drafted input of the next level.  A linear chain is the
    width-1 case.  ``observe(x_t, output, position)`` feeds back every
    *committed* (input, true output) pair so stateful drafts can learn
    the trajectory; ``reset()`` clears per-request state.  Proposals
    must be deterministic in ``(cache state, x_t, position)`` — the
    continuous batcher relies on that to stay result-identical to
    one-at-a-time speculative decode.
    """

    def propose_candidates(
        self,
        request: DecodeRequest,
        branches: Sequence[DraftBranch],
        position: int,
        width: int,
    ) -> list[list[np.ndarray]]: ...

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None: ...

    def reset(self) -> None: ...


class TruncatedTableDraft:
    """Draft by re-running the engine's compiled LUTs on the host.

    At ``fidelity=1.0`` (the default) every proposal runs the exact
    per-token numerics through the very table objects the engine
    compiled — bit-identical to the verification output, so every draft
    is accepted: the draft pays host arithmetic, the overlay pays one
    packed pass per ``k + 1`` tokens of a ``"1xk"`` chain.  At
    ``fidelity < 1.0`` a seeded per-position coin drafts the
    complementary fraction through the same LUTs truncated to
    ``reduced_bits`` output fraction bits; those proposals miss
    verification, so ``fidelity`` is the long-run acceptance rate of a
    uniformly-mixed workload — the knob standing in for draft-model
    quality in the serving studies.  The coin is
    keyed on ``(seed, absolute position)``, never on pass boundaries,
    so acceptance decisions are identical no matter how steps are
    grouped into passes or scheduler steps.
    """

    def __init__(
        self,
        config: NovaConfig | str | None = None,
        fidelity: float = 1.0,
        seed: int = 0,
        reduced_bits: int = 4,
    ) -> None:
        if not 0.0 <= fidelity <= 1.0:
            raise ValueError(f"fidelity must be in [0, 1], got {fidelity}")
        if reduced_bits < 0:
            raise ValueError(
                f"reduced_bits must be >= 0, got {reduced_bits}"
            )
        cfg = as_config(config)
        self.fidelity = float(fidelity)
        self.seed = int(seed)
        self.reduced_bits = int(reduced_bits)
        self._exp = cfg.table("exp")
        self._recip = cfg.table("reciprocal")
        #: Memoised fidelity coins by ``(position, alternative)``.
        self._coins: dict[tuple[int, int], bool] = {}

    def _exact(self, position: int, alternative: int) -> bool:
        if self.fidelity >= 1.0:
            return True
        if self.fidelity <= 0.0:
            return False
        coin = self._coins.get((position, alternative))
        if coin is None:
            # Alternative 0 keeps the historical (seed, position) key so
            # a width-1 tree draws the exact coins the linear chain
            # always has; siblings flip independent coins.
            key = (
                (self.seed, position)
                if alternative == 0
                else (self.seed, position, alternative)
            )
            coin = bool(np.random.default_rng(key).random() < self.fidelity)
            self._coins[(position, alternative)] = coin
        return coin

    def propose_candidates(
        self,
        request: DecodeRequest,
        branches: Sequence[DraftBranch],
        position: int,
        width: int,
    ) -> list[list[np.ndarray]]:
        """``width`` alternative proposals for every branch of a level.

        Alternative ``j`` flips its own fidelity coin (independent per
        sibling, keyed on absolute position only, so acceptance is
        pass-grouping invariant and every branch of the level draws the
        same coins) and, when inexact, truncates to ``reduced_bits + j``
        fraction bits — distinct wrong siblings rather than ``width``
        copies of the same miss.  The whole level is one
        :func:`host_level_outputs` call.
        """
        drops = [
            None if self._exact(position, j) else self.reduced_bits + j
            for j in range(width)
        ]
        return host_level_outputs(
            request, branches, [drops] * len(branches),
            self._exp, self._recip,
        )

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None:
        pass

    def reset(self) -> None:
        self._coins.clear()

    def __repr__(self) -> str:
        return (
            f"TruncatedTableDraft(fidelity={self.fidelity:g}, "
            f"seed={self.seed}, reduced_bits={self.reduced_bits})"
        )


class NGramDraft:
    """Model-free draft: replay the output last seen after this input.

    Committed ``(input, output)`` pairs are memoised under a
    reduced-precision key of the input embedding
    (``round(x * 2**key_bits)``); a proposal is the stored follower of
    the matching key, falling back to persistence (propose ``x_t``
    itself) on a miss.  Deterministic and overlay-free; it starts
    earning acceptances when a self-fed trajectory converges or revisits
    states bit-exactly — otherwise every pass still commits its one
    guaranteed token and the engine degrades gracefully toward plain
    decode (plus the rolled-back draft work).
    """

    def __init__(self, key_bits: int = 10, max_history: int = 65536) -> None:
        if key_bits < 0:
            raise ValueError(f"key_bits must be >= 0, got {key_bits}")
        if max_history < 1:
            raise ValueError(f"max_history must be >= 1, got {max_history}")
        self.key_bits = int(key_bits)
        self.max_history = int(max_history)
        self._history: dict[bytes, np.ndarray] = {}

    def _key(self, x: np.ndarray) -> bytes:
        return (
            np.round(np.ldexp(np.asarray(x, dtype=np.float64), self.key_bits))
            .astype(np.int64)
            .tobytes()
        )

    def propose_candidates(
        self,
        request: DecodeRequest,
        branches: Sequence[DraftBranch],
        position: int,
        width: int,
    ) -> list[list[np.ndarray]]:
        """Up to two alternatives per branch: the learned follower, then
        persistence.

        An n-gram table has exactly one follower per key, so the only
        extra hedge a tree buys it is proposing ``x_t`` itself alongside
        a history hit (on a miss the two coincide).  Narrower than
        ``width`` is fine — the tree prunes.
        """
        proposals: list[list[np.ndarray]] = []
        for branch in branches:
            x_t = branch.x_t
            hit = self._history.get(self._key(x_t))
            candidates = [
                np.array(x_t if hit is None else hit, dtype=np.float64)
            ]
            if hit is not None and width > 1:
                candidates.append(np.array(x_t, dtype=np.float64))
            proposals.append(candidates)
        return proposals

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None:
        key = self._key(x_t)
        if key not in self._history and len(self._history) >= self.max_history:
            # Evict the single oldest entry (dict insertion order), not
            # the whole history: a full wipe cratered acceptance to zero
            # every time a long generation crossed the max_history
            # boundary.
            del self._history[next(iter(self._history))]
        self._history[key] = np.array(output, dtype=np.float64)

    def reset(self) -> None:
        self._history.clear()

    def __repr__(self) -> str:
        return (
            f"NGramDraft(key_bits={self.key_bits}, "
            f"history={len(self._history)})"
        )


class ScheduledDraft:
    """Follow an explicit accept/reject program (test/golden instrument).

    Entry ``i`` of ``program`` decides draft ``i`` of the run (cycling):
    ``True`` proposes through the exact host numerics (bit-identical —
    accepted at verification), ``False`` through the reduced-precision
    path (rejected).  This turns "arbitrary accept/reject/rollback
    sequences" into data the property suite can draw with hypothesis and
    the golden fixtures can pin per preset.
    """

    def __init__(
        self,
        config: NovaConfig | str | None,
        program: Iterable[object],
        reduced_bits: int = 4,
    ) -> None:
        cfg = as_config(config)
        self.program = tuple(bool(p) for p in program)
        if not self.program:
            raise ValueError("program must contain at least one decision")
        self.reduced_bits = int(reduced_bits)
        self._exp = cfg.table("exp")
        self._recip = cfg.table("reciprocal")
        self._cursor = 0

    def propose_candidates(
        self,
        request: DecodeRequest,
        branches: Sequence[DraftBranch],
        position: int,
        width: int,
    ) -> list[list[np.ndarray]]:
        """``width`` alternatives per branch, each consuming one program
        decision, branch-major.

        Trees visit nodes level by level in planning order, so the
        program maps onto tree nodes deterministically — which is what
        lets the golden fixtures pin an exact acceptance trace per
        preset.  Inexact alternatives truncate to ``reduced_bits + j``
        so two ``False`` decisions yield two *distinct* wrong siblings;
        duplicate ``True`` decisions dedup to one accepted child.
        """
        drops: list[list[int | None]] = []
        for _ in branches:
            row: list[int | None] = []
            for j in range(width):
                exact = self.program[self._cursor % len(self.program)]
                self._cursor += 1
                row.append(None if exact else self.reduced_bits + j)
            drops.append(row)
        return host_level_outputs(
            request, branches, drops, self._exp, self._recip
        )

    def observe(
        self, x_t: np.ndarray, output: np.ndarray, position: int
    ) -> None:
        pass

    def reset(self) -> None:
        self._cursor = 0

    def __repr__(self) -> str:
        bits = "".join("1" if p else "0" for p in self.program)
        return f"ScheduledDraft(program={bits}, cursor={self._cursor})"


# ----------------------------------------------------------------------
# Results.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class VerifyPassResult:
    """One draft-and-verify round trip through the overlay.

    ``tokens`` positions went through the packed pass (``drafted`` of
    them provisional); ``committed = accepted + 1`` survived (``u_0`` is
    always committed), ``rolled_back`` were truncated from the cache.
    ``vector_cycles`` / ``counters`` are what the overlay actually
    charged for the whole pass, rolled-back work included.  A
    draft-free pass (plain decode) is one token: ``tokens ==
    committed == 1`` and nothing drafted.
    """

    tokens: int
    drafted: int
    accepted: int
    committed: int
    rolled_back: int
    vector_cycles: int
    nonlinear_queries: int
    counters: EventCounters


def _draft_level(
    draft: DraftModel,
    request: DecodeRequest,
    branches: list[DraftBranch],
    position: int,
    width: int,
) -> list[list[np.ndarray]]:
    """One tree level's validated, deduplicated proposals, per branch.

    The draft answers the whole level in one
    :meth:`~DraftModel.propose_candidates` call.  A wrong number of
    branch lists, more than ``width`` alternatives for a branch or a
    wrong-width embedding raises ``ValueError`` before any of the
    level's appends (the plan's rollback then restores cache, pool and
    position).  Bit-identical siblings collapse to one child: they
    would verify identically, so planning both buys nothing.
    """
    answer = draft.propose_candidates(request, branches, position, width)
    if len(answer) != len(branches):
        raise ValueError(
            f"draft answered {len(answer)} branch lists for a level of "
            f"{len(branches)} branches"
        )
    level: list[list[np.ndarray]] = []
    for proposals in answer:
        if len(proposals) > width:
            raise ValueError(
                f"draft proposed {len(proposals)} alternatives for a "
                f"width-{width} level"
            )
        candidates: list[np.ndarray] = []
        seen: set[bytes] = set()
        for proposal in proposals:
            d = np.asarray(proposal, dtype=np.float64).reshape(-1)
            if d.shape[0] != request.hidden:
                raise ValueError(
                    f"draft proposed an embedding of width {d.shape[0]}, "
                    f"expected {request.hidden}"
                )
            key = d.tobytes()
            if key not in seen:
                seen.add(key)
                candidates.append(d)
        level.append(candidates)
    return level


class _TreeNode:
    """One planned pass token: the root ``u_0`` or a provisional draft.

    ``state`` is the branch this node's k/v row was appended through —
    the request's live :class:`~repro.core.decode.DecodeState` for the
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


def tree_causal_mask(spec_pass: _SpecPass) -> np.ndarray:
    """The pass's tree-causal attention mask over its planned tokens.

    ``mask[i, j]`` is True exactly when pass token ``i`` attends to
    pass token ``j`` — i.e. when ``j`` is ``i`` or one of its tree
    ancestors (every token also attends to the whole committed prefix,
    which is shared by construction).  The packed verification launch
    realises this mask *structurally*: each branch's forked cache holds
    only that branch's ancestor rows, so the single whole-batch
    ``table_gather_mac`` call per phase scores every branch with no
    masking arithmetic.  Exposed for tests and docs; the engine never
    materialises it.  A draft-free pass's mask is the one-token
    identity.
    """
    n = len(spec_pass.job.tokens)
    mask = np.eye(n, dtype=bool)
    for node in spec_pass.nodes:
        ancestor: int | None = node.token_index
        while ancestor is not None:
            mask[node.token_index, ancestor] = True
            ancestor = spec_pass.nodes[ancestor].parent
    return mask


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


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


class SpeculativeDecodeEngine:
    """Draft-and-verify decode wrapping one :class:`NovaDecodeEngine`.

    ``engine`` is an existing decode engine (shared with the plain
    paths — same unit, same tables, same caches) or anything its
    constructor accepts (a :class:`~repro.core.config.NovaConfig`, a
    preset name, ``None``).  ``tree`` is the :class:`DraftTree` every
    pass drafts (a tree object or a ``"2x2,1x4"`` spec string; defaults
    to ``config.spec_tree``, e.g. the preset's linear ``"1x4"`` chain);
    ``DraftTree(())`` is plain decode.  The engine holds no draft: every
    pass-level method takes ``draft=`` per call, and on a drafting tree
    ``None`` means a fresh exact-LUT ``TruncatedTableDraft(config)``.

    The primitive pair :meth:`plan_verify_pass` /
    :meth:`finish_verify_pass` is what the continuous batcher fuses
    across requests; :meth:`run_pass` runs one pass alone and
    :meth:`generate` is the solo loop (the only decode loop).
    """

    def __init__(
        self,
        engine: NovaDecodeEngine | NovaConfig | str | None = None,
        tree: DraftTree | str | None = None,
    ) -> None:
        if not isinstance(engine, NovaDecodeEngine):
            engine = NovaDecodeEngine(engine)
        self.engine = engine
        if tree is None:
            tree = engine.config.spec_tree
        self.tree = DraftTree.parse(tree) if isinstance(tree, str) else tree

    def start(
        self,
        request: DecodeRequest,
        cache: KVCache | None = None,
        pool: BlockPool | None = None,
        prefix: bool = False,
    ) -> DecodeState:
        """Open a decode state (delegates to the wrapped engine).

        ``prefix=True`` adopts cached prompt blocks exactly as the
        plain engine does; speculative rollback composes with sharing
        because :meth:`~repro.core.paging.PagedKVCache.truncate` only
        drops this request's *references* on shared tail blocks.
        """
        return self.engine.start(request, cache=cache, pool=pool,
                                 prefix=prefix)

    # ------------------------------------------------------------------
    # The draft-and-verify primitives.
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
        max_drafts: int | None = None,
    ) -> _SpecPass:
        """Stage one verification pass: ``x_t`` plus the draft tree's
        provisional tokens, all appended as cached k/v rows.

        The tree grows level by level.  An only child extends its
        parent's branch cache in place; siblings each append under a
        ``fork()`` of the parent cache (copy-on-write block sharing on
        the paged layer), so every node's KV span is exactly its
        ancestor chain — the tree-causal mask, structurally
        (:func:`tree_causal_mask`).  All planned tokens form **one**
        job: the engine's packed execute scores the whole tree in a
        single ``table_gather_mac`` launch per phase.  The draft is
        asked once per level, for every live branch at once, before any
        of that level's appends.  A width-1 tree plans no forks; a pass
        clipped to no levels (the depth-0 tree, a budget of 1 or
        ``max_drafts=0``) plans just ``u_0`` with no tree and no draft
        call.

        ``budget`` caps the pass at the tokens still owed (a pass never
        commits more than ``budget``, so the tree is clipped to
        ``budget - 1`` levels; ``max_drafts`` clips levels the same
        way — ``0`` plans just ``u_0``).  A branch stops growing at its
        cache's window limit — provisional tokens must never evict,
        because eviction cannot be rolled back.  The plan is
        **atomic**: any failure (a malformed draft answer,
        ``BlockPoolExhausted`` on a provisional block or fork, a
        raising draft model) releases every fork and rolls the cache,
        the pool and the position back to their pre-pass state before
        the exception propagates.
        """
        if budget < 1:
            raise ValueError(f"pass budget must be >= 1, got {budget}")
        engine = self.engine
        widths = self.tree.widths
        if max_drafts is not None:
            widths = widths[: max(0, max_drafts)]
        widths = widths[: budget - 1]
        if not widths:
            # Draft-free: the one true token is a plain decode step
            # (shape-checked, then appended atomically).
            token = engine._plan_token(state, x_t)
            return _SpecPass(_Job(state, [token]), x_t)
        request = state.request
        x_t = np.asarray(x_t, dtype=np.float64).reshape(-1)
        if draft is None:
            draft = TruncatedTableDraft(engine.config)
        tokens: list[_TokenPlan] = []
        nodes: list[_TreeNode] = []
        forks: list[KVCache] = []
        in_state = 0
        try:
            tokens.append(engine._plan_token(state, x_t))
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
                # appends: one proposal call per level.
                level = _draft_level(
                    draft, request,
                    [
                        DraftBranch(
                            node.embedding, node.state.cache,
                            tokens[node.token_index].shifted,
                        )
                        for node in live
                    ],
                    tokens[live[0].token_index].position, width,
                )
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
                        tokens.append(engine._plan_token(child_state, d))
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

        ``result`` is the pass's ``_JobResult`` from
        :meth:`NovaDecodeEngine._execute`.  The walk starts at the root
        and, at each depth, descends into the child whose drafted
        embedding equals the parent's true output bit for bit (siblings
        are deduplicated at plan time, so at most one can match); the
        walked path is the longest accepted branch.  Returns its
        committed steps (at least one — ``u_0``'s input is the true
        previous output by construction) and the pass accounting.
        Before returning, every branch fork releases its block
        references, the live cache truncates the in-place tokens the
        path does not cover, and the path's fork-resident rows are
        re-appended to the live cache (recomputing the k/v projection
        is deterministic, hence bit-identical to the rows the released
        fork held) — zero pool blocks leak for any accept pattern.  A
        draft-free pass commits its one token as is: nothing to walk,
        release or roll back.  ``draft`` observes every committed step;
        ``None`` (the exact-LUT default, whose ``observe`` is a no-op)
        observes nothing.
        """
        tokens = spec_pass.job.tokens
        outputs = result.outputs
        if spec_pass.root is None:
            path = [(0, spec_pass.x0)]  # draft-free: u_0 commits as is
        else:
            path = self._commit_longest_branch(spec_pass, outputs)
        lanes = self.engine.n_lanes
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
            counters=result.counters,
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
        # Forks first (shared tail blocks drop to their surviving
        # refcounts), then the in-place suffix beyond the accepted
        # in-place prefix truncates — the accepted path can only leave
        # the live cache for a fork, never come back, so the in-place
        # tokens it covers are exactly a prefix.
        for fork in spec_pass.forks:
            fork.reset()
        state = spec_pass.job.state
        kept_in_state = sum(1 for n in path if n.in_state)
        self._rollback(state, spec_pass.in_state_tokens - kept_in_state)
        request = state.request
        for n in path:
            if not n.in_state:
                _, k_t, v_t = project_token(
                    n.embedding, request.wq, request.wk, request.wv,
                    request.n_heads,
                )
                state.cache.append(k_t, v_t)
                state.position += 1
        return [(n.token_index, n.embedding) for n in path]

    def plan_with_fallback(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        budget: int,
        draft: DraftModel | None = None,
    ) -> _SpecPass:
        """Plan a pass, degrading to draft-free on pool exhaustion.

        Speculation is opportunistic: when the block pool cannot hold
        the provisional tokens, a pass of just ``u_0`` (one plain decode
        step's worth of memory) still makes progress.  Only when even
        that cannot allocate does :class:`~repro.core.paging.
        BlockPoolExhausted` propagate (with cache and pool untouched) —
        the scheduler's cue to defer or preempt.  A plan that had no
        drafts to shed (the depth-0 tree or a budget of 1) is not
        retried.
        """
        try:
            return self.plan_verify_pass(state, x_t, budget, draft=draft)
        except BlockPoolExhausted:
            if not self.tree.depth or budget < 2:
                raise
            return self.plan_verify_pass(
                state, x_t, budget, draft=draft, max_drafts=0
            )

    def run_pass(
        self,
        state: DecodeState,
        x_t: np.ndarray,
        budget: int,
        draft: DraftModel | None = None,
    ) -> tuple[list[DecodeStepResult], VerifyPassResult]:
        """Plan, execute and commit one pass on its own streams."""
        spec_pass = self.plan_with_fallback(state, x_t, budget, draft=draft)
        (result,), _ = self.engine._execute([spec_pass.job])
        return self.finish_verify_pass(spec_pass, result, draft=draft)

    # ------------------------------------------------------------------
    # The solo loop.
    # ------------------------------------------------------------------

    def generate(
        self,
        request: DecodeRequest,
        max_new_tokens: int | None = None,
        state: DecodeState | None = None,
        draft: DraftModel | None = None,
    ) -> GenerateResult:
        """Prefill, then run passes until the budget is met.

        ``max_new_tokens`` defaults to the request's budget (an override
        beyond the request's capacity fails before any work); ``state``
        optionally supplies a pre-opened state; ``draft`` drafts every
        pass (``None``: each drafting pass plans with a fresh exact-LUT
        :class:`TruncatedTableDraft`, which keeps no state between
        calls).  Outputs are bit-identical to plain decode for any tree
        and any draft.
        """
        engine = self.engine
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
            state = engine.start(request)
        before = engine.unit._lifetime_counters()
        pre = engine.prefill(state)
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
                state, x_t, new_tokens - len(steps), draft=draft
            )
            steps.extend(new_steps)
            passes.append(pass_result)
            x_t = new_steps[-1].output
        return GenerateResult.from_passes(
            pre, steps, passes,
            engine.unit._lifetime_counters().diff(before),
        )
