"""NOVA: NoC-based Vector Unit for Mapping Attention Layers on a CNN
Accelerator — a full reproduction of the DATE 2024 paper.

NOVA computes non-linear activation functions (Softmax, GeLU, ...) with a
piecewise-linear approximation whose slope/bias table is *broadcast over a
line NoC* instead of stored in per-neuron SRAM LUTs: each PE's comparator
bank turns its value into a lookup address, the router tag-matches the
address against the in-flight 257-bit beat, and a local MAC finishes
``slope * x + bias``.

Typical use — a :class:`~repro.core.session.NovaSession` is the front
door to every execution mode, configured by a typed
:class:`~repro.core.config.NovaConfig` (or a Table II preset name)::

    import numpy as np
    from repro import NovaSession

    session = NovaSession("tpu-v4")      # 8 routers x 128 lanes @ 1.4 GHz
    unit = session.unit("gelu")          # raw vector-unit access
    y = unit.approximate(np.zeros((8, 128))).outputs
    result = session.attention_layer(x, wq, wk, wv, wo, n_heads=12)
    batch = session.serve(requests)      # batched serving, one overlay

Lower-level construction (custom tables on a custom geometry)::

    from repro import (
        NovaConfig, get_function, train_nnlut_mlp, QuantizedPwl,
        NovaVectorUnit,
    )

    spec = get_function("gelu")
    mlp = train_nnlut_mlp(spec, n_segments=16, seed=0)
    table = QuantizedPwl(mlp.to_piecewise_linear(n_segments=16))
    unit = NovaVectorUnit(table, NovaConfig(n_routers=8,
                                            neurons_per_router=128))
    y = unit.approximate(np.zeros((8, 128))).outputs

Subpackages: :mod:`repro.approx` (PWL machinery), :mod:`repro.core`
(NOVA), :mod:`repro.luts` (baselines), :mod:`repro.noc` (NoC substrate),
:mod:`repro.hw` (cost models), :mod:`repro.accelerators` (hosts),
:mod:`repro.workloads`, :mod:`repro.ml` (Table I harness),
:mod:`repro.eval` (per-table/figure experiments).
"""

from repro.approx import (
    FUNCTIONS,
    get_function,
    PiecewiseLinear,
    train_nnlut_mlp,
    NnLutMlp,
    QuantizedPwl,
    pack_beats,
    unpack_beats,
    exact_softmax,
    approx_softmax,
    make_softmax_approximator,
)
from repro.core import (
    NovaConfig,
    NovaSession,
    PRESETS,
    preset,
    NovaVectorUnit,
    NovaDecodeEngine,
    DecodeRequest,
    KVCache,
    BlockPool,
    PagedKVCache,
    ContinuousBatchScheduler,
    NGramDraft,
    TruncatedTableDraft,
    NovaMapper,
    NovaNoc,
    NovaRouter,
    BroadcastSchedule,
    ReactOverlay,
    SystolicOverlay,
    NvdlaOverlay,
)
from repro.luts import PerNeuronLutUnit, PerCoreLutUnit, NvdlaSdp
from repro.hw import (
    TECH_22NM,
    TECH_28NM,
    nova_router_cost,
    per_neuron_lut_cost,
    per_core_lut_cost,
    calibrated_cost,
)
from repro.utils.fixed_point import FixedPointFormat, Q5_10

__version__ = "1.0.0"

__all__ = [
    "FUNCTIONS",
    "get_function",
    "PiecewiseLinear",
    "train_nnlut_mlp",
    "NnLutMlp",
    "QuantizedPwl",
    "pack_beats",
    "unpack_beats",
    "exact_softmax",
    "approx_softmax",
    "make_softmax_approximator",
    "NovaConfig",
    "NovaSession",
    "PRESETS",
    "preset",
    "NovaVectorUnit",
    "NovaDecodeEngine",
    "DecodeRequest",
    "KVCache",
    "BlockPool",
    "PagedKVCache",
    "ContinuousBatchScheduler",
    "NGramDraft",
    "TruncatedTableDraft",
    "NovaMapper",
    "NovaNoc",
    "NovaRouter",
    "BroadcastSchedule",
    "ReactOverlay",
    "SystolicOverlay",
    "NvdlaOverlay",
    "PerNeuronLutUnit",
    "PerCoreLutUnit",
    "NvdlaSdp",
    "TECH_22NM",
    "TECH_28NM",
    "nova_router_cost",
    "per_neuron_lut_cost",
    "per_core_lut_cost",
    "calibrated_cost",
    "FixedPointFormat",
    "Q5_10",
    "__version__",
]
