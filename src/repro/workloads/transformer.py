"""Lowering a transformer encoder into the op-graph vocabulary.

The per-layer structure follows the standard BERT encoder block:

1. QKV projections — three ``(S x H) @ (H x H)`` GEMMs,
2. attention scores — per head, ``(S x d) @ (d x S)``,
3. **softmax** over every ``(S x S)`` score matrix — the dominant
   non-linear op: ``A * S * S`` exponential queries plus ``A * S``
   reciprocal queries for the normaliser,
4. attention context — per head, ``(S x S) @ (S x d)``,
5. output projection — ``(S x H) @ (H x H)``,
6. FFN up + **GeLU** (``S * I`` queries) + FFN down,
7. two LayerNorms — ``2 * S`` rsqrt queries (the reductions run on the
   host's accumulators; only the rsqrt hits the vector unit).

This matches the operator inventory NN-LUT and Softermax use when they
report that non-linear ops reach ~40% of runtime on attention models
(paper §I cites [22][18]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.ops import MatMulOp, NonLinearOp, OpGraph

__all__ = [
    "TransformerConfig",
    "build_encoder_graph",
    "attention_request",
    "decode_request",
]


@dataclass(frozen=True)
class TransformerConfig:
    """Shape of a transformer encoder (or causal decoder) stack.

    ``causal=True`` models GPT-style masked self-attention (the intro's
    "ChatGPT is now the talk of the town"): the softmax runs over the
    lower triangle only, halving the exponential query volume while the
    score GEMMs still compute full tiles on a systolic array (masking
    discards, it does not skip).
    """

    name: str
    layers: int
    hidden: int
    heads: int
    intermediate: int
    seq_len: int
    causal: bool = False

    def __post_init__(self) -> None:
        if min(self.layers, self.hidden, self.heads, self.intermediate,
               self.seq_len) < 1:
            raise ValueError(f"all dimensions must be >= 1: {self}")
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) must divide evenly by heads "
                f"({self.heads})"
            )

    @property
    def head_dim(self) -> int:
        """Per-head projection width."""
        return self.hidden // self.heads

    @property
    def softmax_queries_per_layer(self) -> int:
        """Exp queries per layer: the full or lower-triangular score set."""
        full = self.heads * self.seq_len * self.seq_len
        if not self.causal:
            return full
        return self.heads * self.seq_len * (self.seq_len + 1) // 2


def attention_request(
    config: TransformerConfig,
    seq_len: int | None = None,
    seed: int = 0,
):
    """One synthetic attention request shaped like ``config``.

    Inputs are unit-normal and weights are ``1/sqrt(hidden)``-scaled
    normal (the standard init), which keeps attention logits in the
    approximators' calibrated operating range.  Returns an
    :class:`repro.core.attention.AttentionRequest` for the
    serving engines; the same seed always yields the same request.
    """
    # Imported here so the workloads package stays importable without
    # pulling in the simulator stack (core already imports workloads.ops).
    from repro.core.attention import AttentionRequest

    seq = config.seq_len if seq_len is None else seq_len
    if seq < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq}")
    hidden = config.hidden
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden)
    weights = {
        name: rng.normal(0.0, scale, size=(hidden, hidden))
        for name in ("wq", "wk", "wv", "wo")
    }
    return AttentionRequest(
        x=rng.normal(0.0, 1.0, size=(seq, hidden)),
        n_heads=config.heads,
        **weights,
    )


def decode_request(
    config: TransformerConfig,
    prompt_len: int | None = None,
    max_new_tokens: int = 8,
    seed: int = 0,
    window: int | None = None,
):
    """One synthetic autoregressive decode request shaped like ``config``.

    ``config`` must be causal (GPT-style masked attention) — decode over
    a KV cache is undefined for bidirectional models and this raises
    ``ValueError`` otherwise.  The prompt defaults to a quarter of the
    model's context (at least one token); the KV-cache capacity is the
    model's ``seq_len`` (its context window), so a prompt plus budget
    longer than the context fails at engine admission.  Same
    inputs-and-weights construction (and seeding) as
    :func:`attention_request`, returning a
    :class:`repro.core.decode.DecodeRequest`.
    """
    from repro.core.decode import DecodeRequest

    if not config.causal:
        raise ValueError(
            f"decode_request needs a causal model, got {config.name!r} with "
            "causal=False (decode over a KV cache is GPT-style masked "
            "attention by definition)"
        )
    if max_new_tokens < 0:
        raise ValueError(
            f"max_new_tokens must be >= 0, got {max_new_tokens}"
        )
    prompt = (
        max(1, config.seq_len // 4) if prompt_len is None else prompt_len
    )
    base = attention_request(config, seq_len=prompt, seed=seed)
    return DecodeRequest(
        x=base.x,
        wq=base.wq,
        wk=base.wk,
        wv=base.wv,
        wo=base.wo,
        n_heads=base.n_heads,
        max_new_tokens=max_new_tokens,
        max_seq_len=config.seq_len,
        window=window,
        causal=config.causal,
    )


def build_encoder_graph(config: TransformerConfig) -> OpGraph:
    """The full encoder stack as one ordered op graph."""
    s, h = config.seq_len, config.hidden
    a, d, i = config.heads, config.head_dim, config.intermediate
    graph = OpGraph(name=config.name)
    for layer in range(config.layers):
        prefix = f"{config.name}.L{layer}"
        for proj in ("q", "k", "v"):
            graph.add(MatMulOp(f"{prefix}.{proj}_proj", m=s, k=h, n=h))
        # Scores and context are per-head GEMMs; emit one op per head so
        # the systolic model sees the true (small) tile shapes.
        for head in range(a):
            graph.add(MatMulOp(f"{prefix}.scores.h{head}", m=s, k=d, n=s))
        graph.add(
            NonLinearOp(
                f"{prefix}.softmax_exp",
                function="exp",
                queries=config.softmax_queries_per_layer,
            )
        )
        graph.add(
            NonLinearOp(
                f"{prefix}.softmax_recip", function="reciprocal", queries=a * s
            )
        )
        for head in range(a):
            graph.add(MatMulOp(f"{prefix}.context.h{head}", m=s, k=s, n=d))
        graph.add(MatMulOp(f"{prefix}.out_proj", m=s, k=h, n=h))
        graph.add(
            NonLinearOp(f"{prefix}.ln1_rsqrt", function="rsqrt", queries=s)
        )
        graph.add(MatMulOp(f"{prefix}.ffn_up", m=s, k=h, n=i))
        graph.add(NonLinearOp(f"{prefix}.gelu", function="gelu", queries=s * i))
        graph.add(MatMulOp(f"{prefix}.ffn_down", m=s, k=i, n=h))
        graph.add(
            NonLinearOp(f"{prefix}.ln2_rsqrt", function="rsqrt", queries=s)
        )
    return graph
