"""Speculative decode on the NOVA overlay: the drafts and the draft tree.

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

The engine
----------
:class:`~repro.core.decode.NovaDecodeEngine` plans, executes and
commits every pass and takes the :class:`DraftTree` and the
:class:`DraftModel` per call (``tree=``, ``draft=``), the way one NOVA
unit serves every non-linear function by retargeting its table.  This
module holds what a pass is planned from — the drafts, the tree, the
pass record — and imports nothing from :mod:`repro.core.decode` at
runtime.

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
Its coins are ``default_rng(key).random()`` values, computed without a
generator per coin: the first level to reach a position draws each
alternative's coins for every position the request has left in one
vectorised :func:`~repro.utils.rng.first_random` call, and memoises
them.
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
true token ``u_0``, i.e. a plain decode step.  It is what ``tree=None``
means on every engine method and on the scheduler, so there is one
decode loop; its passes build no tree nodes or forks and never touch a
draft.  Only the session's ``speculative=True`` reads the config's
``spec_tree`` as a default.

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
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.core.attention import (
    assemble_probabilities,
    context_for_query,
    project_token,
    scores_for_query,
    shift_scores,
    softmax_reduction,
)
from repro.core.config import NovaConfig, as_config, parse_tree_spec
from repro.core.paging import KVCache
from repro.noc.stats import EventCounters
from repro.utils.rng import first_random

if TYPE_CHECKING:
    from repro.approx.quantize import QuantizedPwl
    from repro.core.decode import DecodeRequest, _SpecPass

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
]


def __getattr__(name: str) -> Any:
    """``SpeculativeDecodeEngine``: the retired pass engine's name, now
    :class:`~repro.core.decode.NovaDecodeEngine`.

    The repo benchmark's tracer (``perfbench/layers.py``, ``PATCHES``)
    still wraps ``plan_with_fallback`` and ``finish_verify_pass`` under
    this name.  Delete this alias in the benchmark change that re-points
    ``PATCHES`` at ``repro.core.decode.NovaDecodeEngine``.
    """
    if name == "SpeculativeDecodeEngine":
        from repro.core.decode import NovaDecodeEngine

        return NovaDecodeEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# The exact per-token step on the host (the draft models' substrate).
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class DraftBranch:
    """One live frontier node of a tree level, as a draft sees it.

    ``x_t`` is the node's input embedding, ``cache`` its branch cache
    (already holding ``x_t``'s k/v row) and ``shifted`` the max-shifted
    scores of ``x_t`` against that cache, ``(heads, kv_len)`` — the
    verify plan's scores, shifted once per level for all of its
    branches, so drafting never re-projects the token or re-reads its
    keys.  Every branch of one
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
    :func:`~repro.core.attention.context_for_query`).
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
    def of(cls, tree: DraftTree | str | None) -> DraftTree:
        """``tree`` as a tree: a spec string is parsed, and ``None`` is
        the depth-0 tree (plain decode)."""
        if tree is None:
            return _DEPTH_0
        return cls.parse(tree) if isinstance(tree, str) else tree

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


#: The depth-0 tree: every pass is the one true token (plain decode).
_DEPTH_0 = DraftTree(())


# ----------------------------------------------------------------------
# Draft models.
# ----------------------------------------------------------------------


@runtime_checkable
class DraftModel(Protocol):
    """What the decode engine needs from a draft.

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
    keyed on ``(seed, absolute position)`` (``(seed, position,
    alternative)`` for a sibling alternative), never on pass
    boundaries, so acceptance decisions are identical no matter how
    steps are grouped into passes or scheduler steps.  A coin is
    ``np.random.default_rng(key).random() < fidelity``, but no
    generator is built: the first proposal at a position draws each
    missing alternative's coins for every position in ``[position,
    request.total_tokens)`` with one :func:`~repro.utils.rng.
    first_random` call (byte-identical to the generators) and memoises
    them.  ``seed`` must be a non-negative integer.
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
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {seed!r}"
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
        """Whether alternative ``alternative`` drafts ``position`` exactly
        (memoised; a miss draws just this coin)."""
        if self.fidelity >= 1.0:
            return True
        if self.fidelity <= 0.0:
            return False
        if (position, alternative) not in self._coins:
            self._draw(alternative, position, position + 1)
        return self._coins[(position, alternative)]

    def _draw(self, alternative: int, start: int, stop: int) -> None:
        """Memoise ``alternative``'s coins for positions ``[start, stop)``
        in one vectorised :func:`~repro.utils.rng.first_random` call."""
        positions = np.arange(start, stop)
        # Alternative 0 keeps the historical (seed, position) key so a
        # width-1 tree draws the exact coins the linear chain always
        # has; siblings flip independent coins.
        key = (
            (self.seed, positions)
            if alternative == 0
            else (self.seed, positions, alternative)
        )
        coins = (first_random(*key) < self.fidelity).tolist()
        self._coins.update(
            zip([(p, alternative) for p in range(start, stop)], coins)
        )

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
        if 0.0 < self.fidelity < 1.0:
            # The first level to reach a position draws each missing
            # alternative's coins for every position the request has
            # left, in one call.
            stop = max(request.total_tokens, position + 1)
            for j in range(width):
                if (position, j) not in self._coins:
                    self._draw(j, position, stop)
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
    ``vector_cycles`` / ``counter_row`` are what the overlay actually
    charged for the whole pass, rolled-back work included, the events
    as an int64 row indexed by :data:`~repro.noc.stats.OVERLAY_EVENTS`
    (``counters`` builds their bag on access).  A draft-free pass
    (plain decode) is one token: ``tokens == committed == 1`` and
    nothing drafted.
    """

    tokens: int
    drafted: int
    accepted: int
    committed: int
    rolled_back: int
    vector_cycles: int
    nonlinear_queries: int
    counter_row: np.ndarray

    @property
    def counters(self) -> EventCounters:
        """The pass's events as a counter bag."""
        return EventCounters.from_vector(self.counter_row)


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
