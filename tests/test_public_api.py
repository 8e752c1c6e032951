"""Public API surface tests: everything in __all__ imports and exists."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.approx",
    "repro.core",
    "repro.noc",
    "repro.luts",
    "repro.hw",
    "repro.accelerators",
    "repro.workloads",
    "repro.ml",
    "repro.eval",
    "repro.eval.experiments",
    "repro.serving",
    "repro.utils",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    """Every name a package advertises must actually be importable."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_top_level_quickstart_path():
    """The README quickstart's imports, verbatim."""
    from repro import (
        get_function,
        train_nnlut_mlp,
        NovaConfig,
        QuantizedPwl,
        NovaVectorUnit,
    )

    spec = get_function("gelu")
    mlp = train_nnlut_mlp(spec, n_segments=8, seed=0, epochs=20)
    table = QuantizedPwl(mlp.to_piecewise_linear(n_segments=8))
    unit = NovaVectorUnit(table, NovaConfig(
        n_routers=2, neurons_per_router=4, pe_frequency_ghz=1.0,
        hop_mm=1.0))
    import numpy as np

    result = unit.approximate(np.zeros((2, 4)))
    assert result.outputs.shape == (2, 4)


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"


def test_extension_symbols_reachable():
    """The extension features are first-class API, not buried internals."""
    from repro.approx import ibert_exp, softermax, encode_beat
    from repro.noc import LinkFault, compare_topologies
    from repro.core import NovaAttentionEngine, TableScheduler
    from repro.ml import quantize_model

    assert callable(ibert_exp) and callable(softermax)
    assert callable(encode_beat) and callable(compare_topologies)
    assert callable(quantize_model)
    assert LinkFault is not None
    assert NovaAttentionEngine is not None and TableScheduler is not None
