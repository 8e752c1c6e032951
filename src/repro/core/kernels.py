"""Pluggable kernel backends: the two whole-batch primitives under NOVA.

Everything the serving stack executes on the overlay — attention
nonlinearities, decode softmax phases, speculative verification passes —
bottoms out in exactly two whole-batch operations:

* :meth:`KernelBackend.table_gather_mac` — quantise a stream of PE
  outputs, address the PWL table (segment-index gather) and apply the
  fused fixed-point ``slope * x + bias`` MAC, returning the outputs and
  the lookup addresses in one launch.  Every result depends on the
  16-bit input code alone, so the numpy path reads both from the
  table's precomputed code table
  (:meth:`~repro.approx.quantize.QuantizedPwl.gather_mac`).
* :meth:`KernelBackend.tag_match_totals` — the closed-form per-router
  ``tag_match`` accounting for those addresses: a lane whose address
  selects beat ``b`` performs one tag comparison on each of beats
  ``0..b``, so its exact contribution is ``(address & (n_beats - 1)) + 1``.

:class:`NumpyBackend` is the default vectorised path: per launch, one
code computation and two gathers from the table's code table.
:class:`NumbaBackend` is an optional drop-in behind a lazy import: when
numba is missing, :func:`resolve_backend` warns and falls back to numpy
rather than failing, so a config that names it stays runnable
everywhere.  The numerics reference for both is the
beat-level NoC simulation (``run_stream(..., simulate=True)``).

Exactness is the contract, not a goal: every backend must be
bit-identical to :meth:`~repro.approx.quantize.QuantizedPwl.lookup` +
:meth:`~repro.utils.fixed_point.FixedPointFormat.mac` (and therefore to
the beat-level NoC simulation) on all inputs.  That direct pair is the
definition the code table is built from; neither is on the fast path.
The backend-equivalence suite in ``tests/test_kernels.py`` enforces
this per installed backend per preset, and exhaustively over every
input code of every compiled table; the per-preset goldens enforce it
transitively for whatever backend the config selects.

Kernel code is *pure* by construction (novalint rule NV009): backends
never touch :class:`~repro.noc.stats.EventCounters`, the NoC, or any
engine/pool state — counter charging stays with the owning
:class:`~repro.core.vector_unit.NovaVectorUnit`.  The only state in this
module is the process-wide launch/element tally surfaced through
:func:`kernel_cache_info` (and ``NovaSession.cache_info()["kernels"]``).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:
    from repro.approx.quantize import QuantizedPwl

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "BACKENDS",
    "resolve_backend",
    "available_backends",
    "kernel_cache_info",
    "reset_kernel_stats",
]


@runtime_checkable
class KernelBackend(Protocol):
    """The two whole-batch primitives every execution backend provides.

    Implementations are stateless value transformers: arrays in, arrays
    out, no counter or engine mutation (NV009).  ``table_gather_mac``
    must be bit-identical to
    ``table.lookup(xs)`` + ``table.output_format.mac`` for every
    non-NaN input (NaN has no input code; the numpy path raises
    ``ValueError``); ``tag_match_totals`` must equal what per-beat
    simulation accumulates.
    """

    #: Registry name (``config.kernel_backend`` value).
    name: str

    def table_gather_mac(
        self, table: "QuantizedPwl", xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quantise, gather and MAC a whole stream at once.

        ``xs`` has shape ``(n_batches, n_routers, n_neurons)`` (any
        float shape is accepted — the primitive is elementwise).
        Returns ``(outputs, addresses)`` of the same shape, ``outputs``
        float64 and ``addresses`` int64 segment indices — by definition
        ``table.lookup`` + ``output_format.mac``, which the numpy
        backend reads as one gather from ``table.gather_mac``'s code
        table.
        """
        ...

    def tag_match_totals(
        self, addresses: np.ndarray, n_beats: int
    ) -> np.ndarray:
        """Per-router ``tag_match`` totals for a stream of addresses.

        ``addresses`` has shape ``(n_batches, n_routers, n_neurons)``;
        returns int64 totals of shape ``(n_routers,)`` — the sum over
        the router's lanes of ``(address & (n_beats - 1)) + 1``.
        """
        ...


# ----------------------------------------------------------------------
# Launch/element accounting (the only state this module holds)
# ----------------------------------------------------------------------

#: Per-backend launch and element tallies, process-wide.  These are
#: observability stats, not hardware event counters: EventCounters stay
#: with the engines that own them (NV006/NV009).
_STATS: dict[str, dict[str, int]] = {}


def _record_launch(name: str, elements: int) -> None:
    stats = _STATS.setdefault(name, {"launches": 0, "elements": 0})
    stats["launches"] += 1
    stats["elements"] += elements


def reset_kernel_stats() -> None:
    """Clear the process-wide launch/element tallies (test isolation)."""
    _STATS.clear()


def _closed_form_tag_totals(addresses: np.ndarray, n_beats: int) -> np.ndarray:
    """Vectorised per-router ``tag_match`` totals (int64, exact).

    Shared by every vectorised backend: the reduction is integer, so
    there is no summation-order subtlety to mirror per backend.
    """
    addresses = np.asarray(addresses)
    beats = addresses & (n_beats - 1)
    per_router = addresses.shape[0] * addresses.shape[2]
    totals: np.ndarray = beats.sum(axis=(0, 2), dtype=np.int64)
    return totals + per_router


def kernel_cache_info() -> dict[str, Any]:
    """Registry and launch stats, for ``NovaSession.cache_info()``.

    ``registered`` lists every name the registry accepts;
    ``available`` the subset whose dependencies import in this process
    (numpy always; numba only when installed);
    ``backends`` maps each backend that has launched to its cumulative
    ``launches`` / ``elements`` tallies.
    """
    return {
        "registered": sorted(BACKENDS),
        "available": list(available_backends()),
        "backends": {
            name: dict(stats) for name, stats in sorted(_STATS.items())
        },
    }


# ----------------------------------------------------------------------
# numpy: the default path, one gather from the code table
# ----------------------------------------------------------------------


class NumpyBackend:
    """One gather per launch from the table's code table, in numpy."""

    name = "numpy"

    def table_gather_mac(
        self, table: "QuantizedPwl", xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        outputs, idx = table.gather_mac(xs)
        _record_launch(self.name, idx.size)
        return outputs, idx

    def tag_match_totals(
        self, addresses: np.ndarray, n_beats: int
    ) -> np.ndarray:
        return _closed_form_tag_totals(addresses, n_beats)


# ----------------------------------------------------------------------
# numba: JIT-compiled elementwise kernel (optional dependency)
# ----------------------------------------------------------------------


def _numba_compile() -> Callable[..., None]:
    """Build the njit gather/MAC kernel (raises ImportError sans numba)."""
    import numba  # noqa: F401 — probes the optional dependency

    @numba.njit(cache=False)
    def gather_mac(  # type: ignore[no-any-unimported]
        x: np.ndarray,
        cuts: np.ndarray,
        slopes: np.ndarray,
        biases: np.ndarray,
        dom_lo: float,
        dom_hi: float,
        in_scale: float,
        in_min_raw: float,
        in_max_raw: float,
        out_scale: float,
        out_min_raw: float,
        out_max_raw: float,
        out: np.ndarray,
        idx: np.ndarray,
    ) -> None:
        n_cuts = cuts.shape[0]
        for i in range(x.shape[0]):
            # PiecewiseLinear.clamp: np.clip into the domain (NaN passes)
            c = x[i]
            if c < dom_lo:
                c = dom_lo
            elif c > dom_hi:
                c = dom_hi
            # FixedPointFormat.quantize: round-half-even, saturate, rescale
            raw = np.rint(c / in_scale)
            if raw < in_min_raw:
                raw = in_min_raw
            elif raw > in_max_raw:
                raw = in_max_raw
            xq = raw * in_scale
            # segment_index re-clamps the representable value into the
            # domain before the comparator search (quantisation can step
            # just past an endpoint)
            c2 = xq
            if c2 < dom_lo:
                c2 = dom_lo
            elif c2 > dom_hi:
                c2 = dom_hi
            # searchsorted(cuts, c2, side="right"): count of cuts <= c2
            lo = 0
            hi = n_cuts
            while lo < hi:
                mid = (lo + hi) // 2
                if c2 < cuts[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            idx[i] = lo
            # FixedPointFormat.mac: full-precision product + bias,
            # rounded and saturated back into the output format
            total = slopes[lo] * xq + biases[lo]
            oraw = np.rint(total / out_scale)
            if oraw < out_min_raw:
                oraw = out_min_raw
            elif oraw > out_max_raw:
                oraw = out_max_raw
            out[i] = oraw * out_scale

    return gather_mac


class NumbaBackend:
    """JIT-compiled elementwise gather/MAC (requires ``numba``).

    The kernel mirrors the golden numerics op for op in scalar IEEE
    double arithmetic — clamp, round-half-even quantise, bisect-right
    comparator search, fused MAC with output saturation — so results
    are bit-identical to :class:`NumpyBackend` (enforced by the
    equivalence suite on installs that have numba).
    """

    name = "numba"

    def __init__(self) -> None:
        # Raises ImportError when numba is absent; resolve_backend turns
        # that into a warning + numpy fallback.
        self._gather_mac = _numba_compile()

    def table_gather_mac(
        self, table: "QuantizedPwl", xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=np.float64)
        quantized = table.quantized_pwl
        flat = np.ascontiguousarray(xs.reshape(-1))
        out = np.empty_like(flat)
        idx = np.empty(flat.shape, dtype=np.int64)
        dom_lo, dom_hi = quantized.domain
        in_fmt = table.input_format
        out_fmt = table.output_format
        self._gather_mac(
            flat,
            np.ascontiguousarray(quantized.cuts, dtype=np.float64),
            np.ascontiguousarray(quantized.slopes, dtype=np.float64),
            np.ascontiguousarray(quantized.biases, dtype=np.float64),
            float(dom_lo),
            float(dom_hi),
            in_fmt.scale,
            float(in_fmt.min_raw),
            float(in_fmt.max_raw),
            out_fmt.scale,
            float(out_fmt.min_raw),
            float(out_fmt.max_raw),
            out,
            idx,
        )
        _record_launch(self.name, xs.size)
        return out.reshape(xs.shape), idx.reshape(xs.shape)

    def tag_match_totals(
        self, addresses: np.ndarray, n_beats: int
    ) -> np.ndarray:
        # int64 reduction — numpy is already exact and optimal here
        return _closed_form_tag_totals(addresses, n_beats)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Backend name -> zero-arg factory.  ``config.kernel_backend`` values
#: validate against these keys (mirrored in
#: :data:`repro.core.config.KERNEL_BACKENDS`).
BACKENDS: dict[str, Callable[[], KernelBackend]] = {
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
}

#: Memoised instances (numba compiles a kernel once per process).
_INSTANCES: dict[str, KernelBackend] = {}


def resolve_backend(name: str) -> KernelBackend:
    """Instantiate the named backend, falling back gracefully.

    Unknown names raise ``ValueError`` listing the registry (config
    validation catches these earlier; this is the backstop for direct
    callers).  Optional backends whose dependency is missing warn
    (``RuntimeWarning``) and return the numpy backend, so serving a
    config that names numba degrades instead of crashing on hosts
    without the package.
    """
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown kernel backend {name!r}; known: {known}")
    if name in _INSTANCES:
        return _INSTANCES[name]
    try:
        backend = BACKENDS[name]()
    except ImportError as err:
        warnings.warn(
            f"kernel backend {name!r} needs an optional dependency that "
            f"is not installed ({err}); falling back to the numpy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        backend = resolve_backend("numpy")
    _INSTANCES[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registry names whose dependencies import in this process.

    This is what the equivalence tests parametrise over: numpy always
    qualifies; numba only where installed.
    """
    names = []
    for name, factory in sorted(BACKENDS.items()):
        if name in _INSTANCES and _INSTANCES[name].name == name:
            names.append(name)
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                backend = factory()
        except ImportError:
            continue
        _INSTANCES.setdefault(name, backend)
        names.append(name)
    return tuple(names)
