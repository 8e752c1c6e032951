"""The kernel path: stream equivalence, code tables, the surface.

:mod:`repro.core.kernels` is two pure numpy functions — the whole-batch
gather/MAC and the closed-form tag-match totals — and the fast path of
every vector unit.  It is an execution strategy, never a numerics
choice: its outputs, addresses and event-counter totals must be
bit-identical to the beat-level simulation on every preset geometry.
Three test families pin that contract:

* whole-stream equivalence — vectorised ``run_stream`` vs
  ``simulate=True`` on every preset, byte-exact in outputs and
  addresses (so a zero's sign bit counts) and exact in counters, plus a
  hypothesis property sweeping random stream shapes and out-of-domain
  values,
* the code tables the gather reads — on every reachable input code,
  every rounding tie, every cut edge and the non-finite extremes, the
  tabulated ``evaluate`` and ``table_gather_mac`` equal direct
  ``lookup`` + MAC bit for bit, and a NaN input raises a typed error
  naming the table,
* the surface — ``NovaConfig.kernel_backend`` accepts only ``"numpy"``,
  and every unit launches both primitives through the one module.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.kernels as kernels
from repro.approx.functions import get_function
from repro.approx.pwl import PiecewiseLinear
from repro.approx.quantize import QuantizedPwl
from repro.core.attention import ATTENTION_FUNCTIONS
from repro.core.config import PRESETS, NovaConfig
from repro.core.vector_unit import NovaVectorUnit
from repro.utils.fixed_point import FixedPointFormat, Q5_10, Q7_8

#: Small geometry for the data-heavy tests (tables compile once).
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)

_UNIT_CACHE: dict = {}


def make_unit(cfg: NovaConfig, n_segments: int = 16) -> NovaVectorUnit:
    key = (cfg.n_routers, cfg.neurons_per_router, cfg.pe_frequency_ghz,
           cfg.hop_mm, n_segments)
    if key not in _UNIT_CACHE:
        spec = get_function("gelu")
        table = QuantizedPwl(
            PiecewiseLinear.fit(spec.fn, spec.domain, n_segments)
        )
        _UNIT_CACHE[key] = NovaVectorUnit(table, cfg)
    return _UNIT_CACHE[key]


def _assert_bit_identical(got, want) -> None:
    assert np.shape(got) == np.shape(want)
    assert got.dtype == want.dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ----------------------------------------------------------------------
# Whole-stream equivalence: the vectorised path vs the beat-level
# simulation, byte for byte.
# ----------------------------------------------------------------------


class TestStreamEquivalence:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_run_stream_matches_simulation(self, preset_name):
        cfg = PRESETS[preset_name]
        unit = make_unit(cfg)
        xs = np.random.default_rng(7).normal(
            0.0, 3.0, size=(4, cfg.n_routers, cfg.neurons_per_router)
        )
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        _assert_bit_identical(vec.outputs, sim.outputs)
        _assert_bit_identical(vec.addresses, sim.addresses)
        assert vec.counters.as_dict() == sim.counters.as_dict()
        assert vec.total_pe_cycles == sim.total_pe_cycles

    def test_out_of_domain_values_clamp_identically(self):
        unit = make_unit(SMALL)
        xs = np.array(
            [[[1e9, -1e9, 0.0, 1e-300, -1e-300, 2.5, -2.5, 0.1]] * 2]
        )
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        _assert_bit_identical(vec.outputs, sim.outputs)
        _assert_bit_identical(vec.addresses, sim.addresses)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_vectorised_equals_simulated(self, data):
        n_batches = data.draw(st.integers(1, 4), label="n_batches")
        xs = data.draw(
            hnp.arrays(
                np.float64,
                (n_batches, 2, 8),
                elements=st.floats(
                    -100.0, 100.0, allow_nan=False, allow_infinity=False
                ),
            ),
            label="xs",
        )
        unit = make_unit(SMALL)
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        _assert_bit_identical(vec.outputs, sim.outputs)
        _assert_bit_identical(vec.addresses, sim.addresses)
        assert vec.counters.as_dict() == sim.counters.as_dict()

    def test_simulate_path_populates_addresses(self):
        # Satellite regression: the cycle-simulated path used to leave
        # StreamResult.addresses as None, forcing consumers to branch.
        unit = make_unit(SMALL)
        xs = np.random.default_rng(11).normal(size=(3, 2, 8))
        sim = unit.run_stream(xs, simulate=True)
        assert sim.addresses is not None
        assert np.array_equal(sim.addresses, unit.table.segment_index(xs))


# ----------------------------------------------------------------------
# Code tables: the tabulated fast path vs direct lookup + MAC.
# ----------------------------------------------------------------------


def _preset_tables() -> dict[str, QuantizedPwl]:
    """Every table the presets compile, keyed like the table cache."""
    return {
        f"{name}-n{cfg.n_segments}-s{cfg.seed}": cfg.table(name)
        for cfg in PRESETS.values()
        for name in ATTENTION_FUNCTIONS
    }


def _gelu_table(fmt: FixedPointFormat, input_format=None) -> QuantizedPwl:
    spec = get_function("gelu")
    return QuantizedPwl(
        PiecewiseLinear.fit(spec.fn, spec.domain, 16),
        input_format=input_format or fmt,
        coeff_format=fmt,
        output_format=fmt,
    )


#: name -> (table, tabulated?).  The four ablation formats span 4,097
#: to 65,536 reachable codes; a 20-bit input word (262,145 codes) is
#: past the size test and must stay direct.
CODE_TABLES = {
    **{name: (table, True) for name, table in _preset_tables().items()},
    "gelu-Q7.8": (_gelu_table(Q7_8), True),
    "gelu-Q5.10": (_gelu_table(Q5_10), True),
    "gelu-Q4.11": (_gelu_table(FixedPointFormat(4, 11)), True),
    "gelu-Q3.12": (_gelu_table(FixedPointFormat(3, 12)), True),
    "gelu-Q5.14-input": (
        _gelu_table(Q5_10, input_format=FixedPointFormat(5, 14)), False
    ),
}


def _probe_inputs(table: QuantizedPwl) -> np.ndarray:
    """Every reachable code, every half-LSB tie, cut edges, extremes."""
    fmt = table.input_format
    low, high = fmt.to_raw(table.quantized_pwl.domain)
    codes = np.arange(low, high + 1)
    lsb = fmt.scale
    cuts = table.quantized_pwl.cuts
    return np.concatenate([
        codes * lsb,
        (np.arange(low - 1, high + 1) + 0.5) * lsb,
        cuts, cuts - lsb, cuts + lsb, table.pwl.cuts,
        [np.inf, -np.inf, 1e300, -1e300, -0.0],
    ])


def _direct(table: QuantizedPwl, x) -> tuple[np.ndarray, np.ndarray]:
    xq, idx = table.lookup(x)
    quantized = table.quantized_pwl
    return (
        table.output_format.mac(
            quantized.slopes[idx], xq, quantized.biases[idx]
        ),
        idx,
    )


class TestCodeTables:
    @pytest.mark.parametrize("name", sorted(CODE_TABLES))
    def test_size_test_picks_the_tabulated_path(self, name):
        table, tabulated = CODE_TABLES[name]
        assert (table._codes is not None) == tabulated
        if tabulated:
            _, _, outputs, addresses = table._codes
            low, high = table.input_format.to_raw(
                table.quantized_pwl.domain
            )
            assert len(outputs) == len(addresses) == high - low + 1
            # shared by every engine through the process-wide cache
            assert not outputs.flags.writeable
            assert not addresses.flags.writeable

    @pytest.mark.parametrize("name", sorted(CODE_TABLES))
    def test_exhaustive_equivalence_with_direct_lookup_mac(self, name):
        table, _ = CODE_TABLES[name]
        xs = _probe_inputs(table)
        for x in (xs, xs.reshape(1, 1, -1), np.float64(-0.0),
                  np.array(0.5), np.empty(0), np.empty((2, 0, 3))):
            outputs, addresses = _direct(table, x)
            _assert_bit_identical(table.evaluate(x), outputs)
            got, got_addresses = kernels.table_gather_mac(table, x)
            _assert_bit_identical(got, outputs)
            _assert_bit_identical(got_addresses, addresses)

    @pytest.mark.parametrize("name", sorted(CODE_TABLES))
    def test_nan_input_raises_a_typed_error(self, name):
        table, _ = CODE_TABLES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (np.array([0.0, np.nan]), np.nan):
                with pytest.raises(ValueError, match=table.pwl.name):
                    table.evaluate(x)
                with pytest.raises(ValueError, match="NaN"):
                    kernels.table_gather_mac(table, np.asarray(x))


# ----------------------------------------------------------------------
# The surface: config validation, overrides, the one launch point.
# ----------------------------------------------------------------------


class TestSurface:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            NovaConfig(n_routers=2, neurons_per_router=8,
                       kernel_backend="bogus")

    def test_config_rejects_non_string_backend(self):
        with pytest.raises(TypeError):
            NovaConfig(n_routers=2, neurons_per_router=8, kernel_backend=3)

    def test_override_parses_the_knob(self):
        cfg = SMALL.with_overrides(["kernel_backend=numpy"])
        assert cfg.kernel_backend == "numpy"
        assert NovaConfig.from_dict(cfg.to_dict()) == cfg
        for name in ("numba", "bogus"):
            with pytest.raises(ValueError, match="kernel_backend"):
                SMALL.with_overrides([f"kernel_backend={name}"])

    def test_units_launch_through_the_kernels_module(self):
        # one attribute every launch goes through, so tracing can wrap
        # both primitives; the module itself is stateless
        assert make_unit(SMALL).backend is kernels
        assert kernels.__all__ == ["table_gather_mac", "tag_match_totals"]
