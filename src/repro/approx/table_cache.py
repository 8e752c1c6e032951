"""Process-wide cache of compiled NN-LUT tables.

The paper's compile flow trains one small MLP per non-linear function
(§IV) and extracts its exact PWL table; that table is then *content*, not
hardware — NOVA broadcasts it over the wires, the LUT baselines write it
into SRAM.  Nothing about the table depends on which engine instance uses
it, so training it more than once per process is pure waste: a serving
deployment spinning up one engine per worker, or an experiment sweep
constructing many engines, would otherwise re-run the identical Adam fit
for the identical ``(function, n_segments, seed)`` triple every time.

This module is the single compile-time entry point.  Tables are keyed on
``(function, n_segments, seed)`` and built at most once per process; the
*same object* is returned for every identical key, which callers may rely
on (``compiled_table(k) is compiled_table(k)``).  :class:`QuantizedPwl`
is a frozen dataclass and every consumer treats its arrays as read-only,
so sharing one instance across engines — and across threads — is safe.

Determinism: :func:`repro.approx.nnlut_mlp.train_nnlut_mlp` is seeded
numpy, so a cache hit is bit-identical to a fresh training run; caching
changes *when* work happens, never *what* is computed.
"""

from __future__ import annotations

import threading

from repro.approx.functions import get_function
from repro.approx.nnlut_mlp import train_nnlut_mlp
from repro.approx.quantize import QuantizedPwl

__all__ = [
    "compiled_table",
    "compiled_tables",
    "clear_table_cache",
    "table_cache_info",
]

_LOCK = threading.Lock()
_CACHE: dict[tuple[str, int, int], QuantizedPwl] = {}
_HITS = 0
_MISSES = 0


def compiled_table(
    function: str, n_segments: int = 16, seed: int = 0
) -> QuantizedPwl:
    """The compiled (trained + quantised) table for one function.

    Trains on first use of a ``(function, n_segments, seed)`` key and
    returns the cached :class:`QuantizedPwl` object itself afterwards.
    Unknown function names raise ``KeyError`` from the function registry,
    and ``n_segments < 2`` raises ``ValueError`` (a table needs at least
    one breakpoint), before anything is trained or cached.
    """
    global _HITS, _MISSES
    if n_segments < 2:
        raise ValueError(f"n_segments must be >= 2, got {n_segments}")
    key = (function, int(n_segments), int(seed))
    with _LOCK:
        table = _CACHE.get(key)
        if table is not None:
            _HITS += 1
            return table
        # Build under the lock: training is sub-second at paper table
        # sizes and holding the lock preserves the same-object guarantee
        # under concurrent first use.
        spec = get_function(function)
        mlp = train_nnlut_mlp(spec, n_segments=n_segments, seed=seed)
        table = QuantizedPwl(mlp.to_piecewise_linear(n_segments=n_segments))
        _CACHE[key] = table
        _MISSES += 1
        return table


def compiled_tables(
    functions: tuple[str, ...] | list[str],
    n_segments: int = 16,
    seed: int = 0,
) -> dict[str, QuantizedPwl]:
    """Compiled tables for several functions at one table size/seed."""
    return {
        name: compiled_table(name, n_segments=n_segments, seed=seed)
        for name in functions
    }


def clear_table_cache() -> None:
    """Drop every cached table (tests and memory-pressure hooks)."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0


def table_cache_info() -> dict[str, int]:
    """Cache statistics: ``{"entries", "hits", "misses"}``."""
    with _LOCK:
        return {"entries": len(_CACHE), "hits": _HITS, "misses": _MISSES}
