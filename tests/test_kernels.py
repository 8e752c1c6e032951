"""Kernel backends: registry, equivalence, and the serving surface.

The pluggable backends (:mod:`repro.core.kernels`) are an execution
strategy, never a numerics choice: every backend must produce
bit-identical outputs, addresses and event-counter totals to the
beat-level simulation, on every preset geometry, under every serving
mode.  Four test families pin that contract:

* whole-stream equivalence — ``run_stream`` through each installed
  backend vs ``simulate=True`` on every preset, exact in outputs,
  addresses and counters, plus a hypothesis property sweeping random
  stream shapes and out-of-domain values,
* scheduler-step equivalence — contiguous, paged, prefix-cached and
  speculative decode runs bit/cycle/counter-identical across backends,
* the registry — unknown names fail fast with the known list, missing
  optional dependencies degrade to numpy with a ``RuntimeWarning``,
  and the config/registry name sets never drift apart,
* the surface — ``NovaConfig`` validation, ``--override`` parsing, and
  the launch tallies in ``NovaSession.cache_info()["kernels"]``.

A fifth family pins the code tables the numpy path reads: on every
reachable input code, every rounding tie, every cut edge and the
non-finite extremes, the tabulated ``evaluate`` and each backend's
``table_gather_mac`` equal direct ``lookup`` + MAC bit for bit, and a
NaN input raises a typed error naming the table.
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
from repro.core.config import KERNEL_BACKENDS, PRESETS, NovaConfig
from repro.core.decode import (
    ContinuousBatchScheduler,
    DecodeRequest,
    NovaDecodeEngine,
)
from repro.core.kernels import (
    BACKENDS,
    available_backends,
    kernel_cache_info,
    resolve_backend,
)
from repro.core.session import NovaSession
from repro.core.speculative import ScheduledDraft, TruncatedTableDraft
from repro.core.vector_unit import NovaVectorUnit
from repro.utils.fixed_point import FixedPointFormat, Q5_10, Q7_8

INSTALLED = available_backends()

#: Small geometry for the data-heavy tests (tables compile once).
SMALL = NovaConfig(n_routers=2, neurons_per_router=8)

_UNIT_CACHE: dict = {}


def make_unit(cfg: NovaConfig, n_segments: int = 16) -> NovaVectorUnit:
    key = (cfg.n_routers, cfg.neurons_per_router, cfg.pe_frequency_ghz,
           cfg.hop_mm, cfg.kernel_backend, n_segments)
    if key not in _UNIT_CACHE:
        spec = get_function("gelu")
        table = QuantizedPwl(
            PiecewiseLinear.fit(spec.fn, spec.domain, n_segments)
        )
        _UNIT_CACHE[key] = NovaVectorUnit(table, cfg)
    return _UNIT_CACHE[key]


def toy_requests(
    n: int = 2,
    prompt_len: int = 6,
    new_tokens: int = 4,
    hidden: int = 4,
    n_heads: int = 2,
    seed: int = 0,
) -> list[DecodeRequest]:
    """Small causal decode requests sharing one set of weights."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(hidden)
    weights = {
        name: rng.normal(0.0, scale, size=(hidden, hidden))
        for name in ("wq", "wk", "wv", "wo")
    }
    return [
        DecodeRequest(
            x=rng.normal(0.0, 1.0, size=(prompt_len, hidden)),
            n_heads=n_heads,
            max_new_tokens=new_tokens,
            max_seq_len=prompt_len + new_tokens + 2,
            **weights,
        )
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# Whole-stream equivalence: every backend vs the beat-level simulation.
# ----------------------------------------------------------------------


class TestStreamEquivalence:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    @pytest.mark.parametrize("backend", INSTALLED)
    def test_run_stream_matches_simulation(self, backend, preset_name):
        cfg = PRESETS[preset_name].replace(kernel_backend=backend)
        unit = make_unit(cfg)
        xs = np.random.default_rng(7).normal(
            0.0, 3.0, size=(4, cfg.n_routers, cfg.neurons_per_router)
        )
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        assert np.array_equal(vec.outputs, sim.outputs)
        assert vec.addresses is not None and sim.addresses is not None
        assert np.array_equal(vec.addresses, sim.addresses)
        assert vec.counters.as_dict() == sim.counters.as_dict()
        assert vec.total_pe_cycles == sim.total_pe_cycles

    @pytest.mark.parametrize("backend", INSTALLED)
    def test_out_of_domain_values_clamp_identically(self, backend):
        unit = make_unit(SMALL.replace(kernel_backend=backend))
        xs = np.array(
            [[[1e9, -1e9, 0.0, 1e-300, -1e-300, 2.5, -2.5, 0.1]] * 2]
        )
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        assert np.array_equal(vec.outputs, sim.outputs)
        assert np.array_equal(vec.addresses, sim.addresses)

    @pytest.mark.parametrize("backend", INSTALLED)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_vectorised_equals_simulated(self, backend, data):
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
        unit = make_unit(SMALL.replace(kernel_backend=backend))
        vec = unit.run_stream(xs)
        sim = unit.run_stream(xs, simulate=True)
        assert np.array_equal(vec.outputs, sim.outputs)
        assert np.array_equal(vec.addresses, sim.addresses)
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


def _assert_bit_identical(got, want) -> None:
    assert np.shape(got) == np.shape(want)
    assert got.dtype == want.dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
    @pytest.mark.parametrize("backend", INSTALLED)
    def test_exhaustive_equivalence_with_direct_lookup_mac(
        self, backend, name
    ):
        table, _ = CODE_TABLES[name]
        kernel = resolve_backend(backend)
        xs = _probe_inputs(table)
        for x in (xs, xs.reshape(1, 1, -1), np.float64(-0.0),
                  np.array(0.5), np.empty(0), np.empty((2, 0, 3))):
            outputs, addresses = _direct(table, x)
            _assert_bit_identical(table.evaluate(x), outputs)
            got, got_addresses = kernel.table_gather_mac(table, x)
            if backend != "numpy":
                # the numba kernel rounds in float, so a zero output
                # may carry a sign bit the fixed-point path never sets
                got = got + 0.0
            _assert_bit_identical(got, outputs)
            _assert_bit_identical(got_addresses, addresses)

    @pytest.mark.parametrize("name", sorted(CODE_TABLES))
    def test_nan_input_raises_a_typed_error(self, name):
        table, _ = CODE_TABLES[name]
        kernel = resolve_backend("numpy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (np.array([0.0, np.nan]), np.nan):
                with pytest.raises(ValueError, match=table.pwl.name):
                    table.evaluate(x)
                with pytest.raises(ValueError, match="NaN"):
                    kernel.table_gather_mac(table, np.asarray(x))


# ----------------------------------------------------------------------
# Scheduler-step equivalence across backends, under every serving mode.
# ----------------------------------------------------------------------


def _run_mode(cfg: NovaConfig, mode: str):
    engine = NovaDecodeEngine(cfg.replace(kv_block_size=4))
    requests = toy_requests()
    if mode == "contiguous":
        sched = ContinuousBatchScheduler(engine)
    elif mode == "paged":
        sched = ContinuousBatchScheduler(engine, paged=True)
    elif mode == "prefix-cached":
        sched = ContinuousBatchScheduler(
            engine, paged=True, prefix_caching=True
        )
    else:
        raise AssertionError(mode)
    return sched.run(requests)


@pytest.mark.parametrize("mode", ["contiguous", "paged", "prefix-cached"])
@pytest.mark.parametrize(
    "backend", [name for name in INSTALLED if name != "numpy"]
)
def test_scheduler_steps_bit_exact_across_backends(backend, mode):
    want = _run_mode(SMALL.replace(kernel_backend="numpy"), mode)
    got = _run_mode(SMALL.replace(kernel_backend=backend), mode)
    for ref, out in zip(want.results, got.results):
        assert np.array_equal(out.generated, ref.generated)
        assert np.array_equal(out.prefill.outputs, ref.prefill.outputs)
        assert out.vector_cycles == ref.vector_cycles
        assert out.counters.as_dict() == ref.counters.as_dict()
    assert got.packed_vector_cycles == want.packed_vector_cycles


@pytest.mark.parametrize(
    "backend", [name for name in INSTALLED if name != "numpy"]
)
def test_speculative_decode_bit_exact_across_backends(backend):
    """A linear chain and a tree (whose levels draft in one batched
    call each) stay bit-exact on every backend."""
    request = toy_requests(n=1)[0]

    def runs(name):
        cfg = SMALL.replace(kernel_backend=name)
        session = NovaSession(cfg)
        return (
            session.generate(
                request,
                speculative=True,
                draft=ScheduledDraft(cfg, (True, False, True)),
            ),
            session.generate(
                request,
                speculative=True,
                spec_tree="4x1,2x1",
                draft=TruncatedTableDraft(cfg, fidelity=0.45),
            ),
        )

    for want, got in zip(runs("numpy"), runs(backend)):
        assert np.array_equal(got.generated, want.generated)
        assert got.vector_cycles == want.vector_cycles
        assert got.counters.as_dict() == want.counters.as_dict()


# ----------------------------------------------------------------------
# The registry: names, fallback, and the config pin.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_registry_and_config_names_never_drift(self):
        assert set(BACKENDS) == set(KERNEL_BACKENDS)

    def test_unknown_backend_lists_the_registry(self):
        with pytest.raises(ValueError, match="numba.*numpy"):
            resolve_backend("bogus")

    def test_numpy_always_available(self):
        assert "numpy" in INSTALLED

    def test_available_backends_is_a_registry_subset(self):
        assert set(INSTALLED) <= set(BACKENDS)

    def test_resolved_instances_are_memoised(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    @pytest.mark.parametrize("missing", ["numba"])
    def test_missing_optional_dep_degrades_to_numpy(self, missing):
        if missing in INSTALLED:
            pytest.skip(f"{missing} is installed in this process")
        kernels._INSTANCES.pop(missing, None)
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = resolve_backend(missing)
        assert backend.name == "numpy"
        # the fallback is memoised too: the warning fires once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(missing).name == "numpy"
        kernels._INSTANCES.pop(missing, None)

    def test_fallback_instances_do_not_count_as_available(self):
        for name in BACKENDS:
            cached = kernels._INSTANCES.get(name)
            if cached is not None and cached.name != name:
                assert name not in available_backends()


# ----------------------------------------------------------------------
# The surface: config validation, overrides, session cache_info.
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
        cfg = SMALL.with_overrides(["kernel_backend=numba"])
        assert cfg.kernel_backend == "numba"
        with pytest.raises(ValueError):
            SMALL.with_overrides(["kernel_backend=bogus"])

    def test_unit_resolves_the_configured_backend(self):
        for name in INSTALLED:
            unit = make_unit(SMALL.replace(kernel_backend=name))
            assert unit.backend.name == name

    def test_unavailable_backend_resolves_to_numpy_on_the_unit(self):
        if "numba" in INSTALLED:
            pytest.skip("numba is installed in this process")
        kernels._INSTANCES.pop("numba", None)
        with pytest.warns(RuntimeWarning, match="falling back"):
            unit = make_unit(SMALL.replace(kernel_backend="numba"))
        assert unit.backend.name == "numpy"
        kernels._INSTANCES.pop("numba", None)

    def test_session_cache_info_surfaces_kernel_stats(self):
        session = NovaSession(SMALL)
        info = session.cache_info()["kernels"]
        assert info["registered"] == sorted(BACKENDS)
        assert set(info["available"]) == set(INSTALLED)
        before = info["backends"].get("numpy", {}).get("launches", 0)
        session.generate(toy_requests(n=1)[0])
        after = session.cache_info()["kernels"]["backends"]["numpy"]
        assert after["launches"] > before
        assert after["elements"] > 0

    def test_kernel_cache_info_stats_are_copies(self):
        resolve_backend("numpy")
        info = kernel_cache_info()
        for stats in info["backends"].values():
            stats["launches"] = -1
        fresh = kernel_cache_info()
        assert all(
            stats["launches"] >= 0 for stats in fresh["backends"].values()
        )
