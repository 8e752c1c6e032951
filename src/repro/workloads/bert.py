"""The five Fig. 8 attention benchmarks.

"We ran five attention benchmarks namely MobileBERT-base, MobileBERT-tiny,
RoBERTa, BERT-tiny and BERT-mini which are representative of real-world
NLP based tasks" (§V-F).  Dimensions follow the published configurations:
BERT-tiny/mini from Turc et al. (the paper's [3] citing Devlin et al.),
MobileBERT from Sun et al. [19] (128-wide tiny / 512-wide base bottleneck,
24 layers), RoBERTa-base from Liu et al. [11].
"""

from __future__ import annotations

from collections.abc import Sequence
from numbers import Integral

import numpy as np

from repro.workloads.ops import OpGraph
from repro.workloads.transformer import (
    TransformerConfig,
    attention_request,
    build_encoder_graph,
    decode_request,
)

__all__ = [
    "BERT_MODELS",
    "SERVING_MODELS",
    "bert_graph",
    "serving_config",
    "bert_attention_batch",
    "decode_batch",
    "mixed_decode_batch",
    "shared_prefix_decode_batch",
]

BERT_MODELS: dict[str, TransformerConfig] = {
    config.name: config
    for config in [
        TransformerConfig(
            "BERT-tiny", layers=2, hidden=128, heads=2, intermediate=512,
            seq_len=1024,
        ),
        TransformerConfig(
            "BERT-mini", layers=4, hidden=256, heads=4, intermediate=1024,
            seq_len=1024,
        ),
        TransformerConfig(
            "MobileBERT-tiny", layers=24, hidden=128, heads=4, intermediate=512,
            seq_len=1024,
        ),
        TransformerConfig(
            "MobileBERT-base", layers=24, hidden=512, heads=4, intermediate=512,
            seq_len=1024,
        ),
        TransformerConfig(
            "RoBERTa", layers=12, hidden=768, heads=12, intermediate=3072,
            seq_len=1024,
        ),
    ]
}


#: Serving-benchmark configurations: the Fig. 8 zoo plus BERT-base
#: (Devlin et al.), the canonical serving workload batched attention's
#: throughput benchmark is written against, GPT-2-small (Radford et
#: al.), the causal decoder the KV-cached decode path serves, and
#: gpt2-mini, the default model of the paged, prefix-caching and
#: speculative serving studies.  Kept out of ``BERT_MODELS`` so the
#: Fig. 8 reproduction keeps exactly the paper's five benchmarks.
SERVING_MODELS: dict[str, TransformerConfig] = {
    **BERT_MODELS,
    "BERT-base": TransformerConfig(
        "BERT-base", layers=12, hidden=768, heads=12, intermediate=3072,
        seq_len=512,
    ),
    "GPT-2-small": TransformerConfig(
        "GPT-2-small", layers=12, hidden=768, heads=12, intermediate=3072,
        seq_len=1024, causal=True,
    ),
    # GPT-2 family shape scaled down: at full width numpy GEMVs dominate
    # every serving path and a study would measure numpy, not the
    # serving machinery.  The real 256-token context makes worst-case
    # pages 10-60x the tokens a short request actually caches.
    "gpt2-mini": TransformerConfig(
        "gpt2-mini", layers=1, hidden=64, heads=4, intermediate=256,
        seq_len=256, causal=True,
    ),
}


def serving_config(model_name: str | TransformerConfig) -> TransformerConfig:
    """Look up a :data:`SERVING_MODELS` entry by name; a
    :class:`TransformerConfig` passes through unchanged."""
    if isinstance(model_name, TransformerConfig):
        return model_name
    try:
        return SERVING_MODELS[model_name]
    except KeyError:
        available = ", ".join(sorted(SERVING_MODELS))
        raise KeyError(
            f"unknown model {model_name!r}; available: {available}"
        ) from None


def bert_attention_batch(
    model_name: str | TransformerConfig,
    batch_size: int,
    seq_len: int | Sequence[int] | None = None,
    seed: int = 0,
) -> list:
    """A batch of independent attention requests for one serving model.

    ``seq_len`` may be a single length for the whole batch, a
    per-request sequence of lengths (batched attention supports mixed
    lengths), or ``None`` for the model's configured length.  Request
    ``i`` is seeded with ``seed + i`` so batches are reproducible and
    requests are mutually independent.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    config = serving_config(model_name)
    # Integral (not int) so numpy integers from sweep arrays count as
    # scalars rather than being mistaken for per-request length lists.
    if seq_len is None or isinstance(seq_len, Integral):
        lengths = [None if seq_len is None else int(seq_len)] * batch_size
    else:
        lengths = list(seq_len)
        if len(lengths) != batch_size:
            raise ValueError(
                f"got {len(lengths)} sequence lengths for batch_size "
                f"{batch_size}"
            )
    return [
        attention_request(config, seq_len=length, seed=seed + i)
        for i, length in enumerate(lengths)
    ]


def decode_batch(
    model_name: str | TransformerConfig,
    batch_size: int,
    prompt_len: int | None = None,
    max_new_tokens: int = 8,
    seed: int = 0,
    shared_weights: bool = True,
) -> list:
    """A batch of causal decode requests for one serving model.

    ``model_name`` is a causal :data:`SERVING_MODELS` key (or a
    :class:`TransformerConfig` directly).  With ``shared_weights=True``
    (the default) every request holds the *same* weight arrays — one
    deployment serves one model, and sharing the objects keeps the
    working set of a continuously batched run equal to a single
    request's, as it is on real hardware — while request ``i``'s prompt
    is seeded ``seed + i``.  ``shared_weights=False`` gives every
    request its own weights (seeded ``seed + i``, matching
    :func:`bert_attention_batch`'s independence convention).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    config = serving_config(model_name)
    if not shared_weights:
        return [
            decode_request(
                config, prompt_len=prompt_len, max_new_tokens=max_new_tokens,
                seed=seed + i,
            )
            for i in range(batch_size)
        ]
    from repro.core.decode import DecodeRequest

    first = decode_request(
        config, prompt_len=prompt_len, max_new_tokens=max_new_tokens,
        seed=seed,
    )
    requests = [first]
    for i in range(1, batch_size):
        rng = np.random.default_rng(seed + i)
        requests.append(
            DecodeRequest(
                x=rng.normal(0.0, 1.0, size=(first.seq, first.hidden)),
                wq=first.wq, wk=first.wk, wv=first.wv, wo=first.wo,
                n_heads=first.n_heads,
                max_new_tokens=first.max_new_tokens,
                max_seq_len=first.max_seq_len,
                window=first.window,
            )
        )
    return requests


def shared_prefix_decode_batch(
    model_name: str | TransformerConfig,
    batch_size: int,
    prefix_len: int,
    suffix_len: int = 2,
    max_new_tokens: int = 8,
    seed: int = 0,
) -> list:
    """A batch of decode requests sharing weights *and* a prompt prefix.

    The prefix-caching workload: every request's first ``prefix_len``
    prompt rows are identical (seeded ``seed`` — think a shared system
    prompt or few-shot preamble) while each request appends its own
    ``suffix_len`` rows (seeded ``seed + i``).  With
    ``prefix_caching=True`` the paged scheduler stores the shared
    rows once — ``batch_size`` requests pay roughly one prefix's pool
    residency between them — with bit-identical outputs; without it
    every request writes its own copy.  Weights are shared, matching
    :func:`decode_batch`.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if prefix_len < 1:
        raise ValueError(f"prefix_len must be >= 1, got {prefix_len}")
    if suffix_len < 0:
        raise ValueError(f"suffix_len must be >= 0, got {suffix_len}")
    config = serving_config(model_name)
    from repro.core.decode import DecodeRequest

    first = decode_request(
        config, prompt_len=prefix_len + suffix_len,
        max_new_tokens=max_new_tokens, seed=seed,
    )
    requests = [first]
    for i in range(1, batch_size):
        rng = np.random.default_rng(seed + i)
        x = first.x.copy()
        x[prefix_len:] = rng.normal(
            0.0, 1.0, size=(suffix_len, first.hidden)
        )
        requests.append(
            DecodeRequest(
                x=x,
                wq=first.wq, wk=first.wk, wv=first.wv, wo=first.wo,
                n_heads=first.n_heads,
                max_new_tokens=first.max_new_tokens,
                max_seq_len=first.max_seq_len,
                window=first.window,
            )
        )
    return requests


def mixed_decode_batch(
    model_name: str | TransformerConfig,
    batch_size: int,
    prompt_lens: Sequence[int] = (4, 8, 12, 16),
    new_tokens: Sequence[int] = (4, 8, 12),
    seed: int = 0,
) -> list:
    """A heterogeneous batch of causal decode requests (shared weights).

    The serving-realistic mix the paged-KV experiments use: request
    ``i`` takes ``prompt_lens[i % len]`` prompt tokens and
    ``new_tokens[i % len]`` generation budget, so lengths vary across
    the batch while every request still carries the model's full
    ``max_seq_len`` worst case — exactly the regime where contiguous
    worst-case pages strand memory and fixed-size blocks don't.
    Prompts are seeded ``seed + i``; weights are shared (seeded
    ``seed``), matching :func:`decode_batch`.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not prompt_lens or not new_tokens:
        raise ValueError("prompt_lens and new_tokens must be non-empty")
    config = serving_config(model_name)
    from repro.core.decode import DecodeRequest

    first = decode_request(
        config, prompt_len=prompt_lens[0], max_new_tokens=new_tokens[0],
        seed=seed,
    )
    requests = [first]
    for i in range(1, batch_size):
        rng = np.random.default_rng(seed + i)
        prompt = prompt_lens[i % len(prompt_lens)]
        requests.append(
            DecodeRequest(
                x=rng.normal(0.0, 1.0, size=(prompt, first.hidden)),
                wq=first.wq, wk=first.wk, wv=first.wv, wo=first.wo,
                n_heads=first.n_heads,
                max_new_tokens=new_tokens[i % len(new_tokens)],
                max_seq_len=config.seq_len,
            )
        )
    return requests


def fidelity_for_acceptance(acceptance_rate: float, depth: int) -> float:
    """Per-draft fidelity yielding a target long-run acceptance rate.

    With the position-wise fidelity coin of
    :class:`repro.core.speculative.TruncatedTableDraft`, a full pass of
    a linear chain of ``depth`` drafts accepts the leading exact prefix
    only — a draft after the first miss fails regardless of its own coin
    (its input was already wrong) — so the expected accepted fraction at
    fidelity ``f`` is ``sum(f**i for i in 1..depth) / depth``.  This
    inverts that by bisection so workload builders can speak in the
    quantity the studies sweep (the acceptance rate) instead of the
    mechanism knob.
    """
    if not 0.0 <= acceptance_rate <= 1.0:
        raise ValueError(
            f"acceptance_rate must be in [0, 1], got {acceptance_rate}"
        )
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if acceptance_rate in (0.0, 1.0):
        return acceptance_rate

    def expected(f: float) -> float:
        return sum(f ** i for i in range(1, depth + 1)) / depth

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if expected(mid) < acceptance_rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def speculative_decode_batch(
    model_name: str | TransformerConfig,
    batch_size: int,
    acceptance_rate: float = 0.8,
    prompt_len: int | None = None,
    max_new_tokens: int = 16,
    seed: int = 0,
    config=None,
):
    """A decode batch plus a draft factory tuned to an acceptance rate.

    The speculative-serving workload builder: the requests are a plain
    :func:`decode_batch` (shared weights, per-request seeded prompts)
    and the second return value is a zero-argument factory producing one
    :class:`repro.core.speculative.TruncatedTableDraft` per sequence,
    its fidelity solved from ``acceptance_rate`` via
    :func:`fidelity_for_acceptance` at the depth of the config's
    ``spec_tree``, which must be a linear ``"1xN"`` chain
    (``ValueError`` otherwise: the draft trees have their own study,
    ``--speculative-tree``).
    Successive factory calls draw successive draft seeds (``seed``,
    ``seed + 1``, ...): the fidelity coin is keyed on
    ``(draft seed, position)``, so seeding every request's draft
    identically would make the whole batch replay one short coin
    sequence and the measured acceptance a single sample instead of the
    long-run rate the fidelity was solved for.  ``config`` names the
    serving geometry (a :class:`repro.core.config.NovaConfig` or
    preset; its compiled LUTs back the draft) and defaults to the stock
    configuration.  Returns ``(requests, draft_factory)``.
    """
    import itertools

    from repro.core.config import as_config, parse_tree_spec

    cfg = as_config(config)
    widths = parse_tree_spec(cfg.spec_tree)
    if any(w != 1 for w in widths):
        raise ValueError(
            "the acceptance model solves a linear draft chain, but "
            f"spec_tree is {cfg.spec_tree!r}; pass a '1xN' chain, or run "
            "the draft-tree study (--speculative-tree) instead"
        )
    fidelity = fidelity_for_acceptance(acceptance_rate, len(widths))
    requests = decode_batch(
        model_name, batch_size, prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, seed=seed,
    )
    draft_seeds = itertools.count(seed)

    def draft_factory():
        from repro.core.speculative import TruncatedTableDraft

        return TruncatedTableDraft(
            cfg, fidelity=fidelity, seed=next(draft_seeds)
        )

    return requests, draft_factory


def bert_graph(model_name: str, seq_len: int | None = None) -> OpGraph:
    """Op graph for one registered model, optionally at another sequence
    length (REACT is evaluated at 128, the systolic configs at 1024)."""
    try:
        config = BERT_MODELS[model_name]
    except KeyError:
        available = ", ".join(sorted(BERT_MODELS))
        raise KeyError(
            f"unknown model {model_name!r}; available: {available}"
        ) from None
    if seq_len is not None:
        config = TransformerConfig(
            name=config.name,
            layers=config.layers,
            hidden=config.hidden,
            heads=config.heads,
            intermediate=config.intermediate,
            seq_len=seq_len,
        )
    return build_encoder_graph(config)
