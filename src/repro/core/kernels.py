"""The two whole-batch primitives under NOVA.

Everything the serving stack executes on the overlay — attention
nonlinearities, decode softmax phases, speculative verification passes —
bottoms out in exactly two whole-batch operations:

* :func:`table_gather_mac` — quantise a stream of PE outputs, address
  the PWL table (segment-index gather) and apply the fused fixed-point
  ``slope * x + bias`` MAC, returning the outputs and the lookup
  addresses in one launch.  Every result depends on the 16-bit input
  code alone, so both are read from the table's precomputed code table
  (:meth:`~repro.approx.quantize.QuantizedPwl.gather_mac`).
* :func:`tag_match_totals` — the closed-form per-router ``tag_match``
  accounting for those addresses: a lane whose address selects beat
  ``b`` performs one tag comparison on each of beats ``0..b``, so its
  exact contribution is ``(address & (n_beats - 1)) + 1``.

Both are bit-identical to
:meth:`~repro.approx.quantize.QuantizedPwl.lookup` +
:meth:`~repro.utils.fixed_point.FixedPointFormat.mac` and to the
beat-level NoC simulation (``run_stream(..., simulate=True)``);
``tests/test_kernels.py`` enforces this per preset, and exhaustively
over every input code of every compiled table.

Kernel code is *pure* by construction (novalint rule NV009): these
functions never touch :class:`~repro.noc.stats.EventCounters`, the NoC,
or any engine/pool state, and the module holds no state of its own —
counter charging stays with the owning
:class:`~repro.core.vector_unit.NovaVectorUnit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.approx.quantize import QuantizedPwl

__all__ = ["table_gather_mac", "tag_match_totals"]


def table_gather_mac(
    table: "QuantizedPwl", xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quantise, gather and MAC a whole stream at once.

    Elementwise over any float shape.  Returns ``(outputs, addresses)``
    of the same shape, float64 and int64 segment indices.  NaN has no
    input code and raises ``ValueError``.
    """
    return table.gather_mac(xs)


def tag_match_totals(addresses: np.ndarray, n_beats: int) -> np.ndarray:
    """Per-router ``tag_match`` totals for a stream of addresses.

    ``addresses`` has shape ``(n_batches, n_routers, n_neurons)``;
    returns int64 totals of shape ``(n_routers,)`` — the sum over the
    router's lanes of ``(address & (n_beats - 1)) + 1``.
    """
    addresses = np.asarray(addresses)
    beats = addresses & (n_beats - 1)
    per_router = addresses.shape[0] * addresses.shape[2]
    totals: np.ndarray = beats.sum(axis=(0, 2), dtype=np.int64)
    return totals + per_router
