"""Unit tests for the NN-LUT compile-time MLP trainer."""

import numpy as np
import pytest

from repro.approx.functions import FUNCTIONS, get_function
from repro.approx.nnlut_mlp import NnLutMlp, train_nnlut_mlp
from repro.approx.pwl import PiecewiseLinear
from repro.approx.quantize import QuantizedPwl
from repro.utils.rng import make_rng


class TestMlpForward:
    def test_relu_expansion_is_exact_pwl(self):
        # f(x) = relu(x - 1) with skip 0 -> kink at 1, slopes {0, 1}
        mlp = NnLutMlp(
            w=np.array([1.0]),
            c=np.array([-1.0]),
            v=np.array([1.0]),
            skip_slope=0.0,
            skip_bias=0.0,
            domain=(-2.0, 4.0),
        )
        assert mlp.forward(np.array([0.0]))[0] == 0.0
        assert mlp.forward(np.array([3.0]))[0] == pytest.approx(2.0)
        pwl = mlp.to_piecewise_linear()
        assert pwl.n_segments == 2
        assert pwl.cuts[0] == pytest.approx(1.0)
        assert pwl.slopes.tolist() == [0.0, 1.0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NnLutMlp(
                w=np.ones(3), c=np.ones(2), v=np.ones(3),
                skip_slope=0.0, skip_bias=0.0, domain=(-1, 1),
            )

    def test_extraction_matches_forward_exactly(self):
        spec = get_function("gelu")
        mlp = train_nnlut_mlp(spec, n_segments=16, seed=1, epochs=50)
        pwl = mlp.to_piecewise_linear()
        xs = np.linspace(*spec.domain, 1001)
        # analytic extraction == MLP forward, to float precision
        assert np.allclose(pwl.evaluate(xs), mlp.forward(xs), atol=1e-9)

    def test_kinks_sorted_and_inside_domain(self):
        spec = get_function("sigmoid")
        mlp = train_nnlut_mlp(spec, n_segments=16, seed=2, epochs=50)
        kinks = mlp.kinks()
        assert np.all(np.diff(kinks) > 0)
        assert np.all(kinks > spec.domain[0]) and np.all(kinks < spec.domain[1])


class TestTraining:
    @pytest.mark.parametrize("name", ["exp", "gelu", "tanh", "sigmoid"])
    def test_fit_quality_close_to_direct(self, name):
        spec = get_function(name)
        mlp = train_nnlut_mlp(spec, n_segments=16, seed=0)
        mlp_pwl = mlp.to_piecewise_linear(n_segments=16)
        direct = PiecewiseLinear.fit(spec.fn, spec.domain, 16)
        # the trained table is at worst ~2x the direct interpolation error
        assert mlp_pwl.max_error(spec.fn) < 2.0 * direct.max_error(spec.fn) + 1e-4

    def test_table_padded_to_exact_size(self):
        spec = get_function("tanh")
        mlp = train_nnlut_mlp(spec, n_segments=16, seed=3)
        pwl = mlp.to_piecewise_linear(n_segments=16)
        assert pwl.n_segments == 16

    def test_padding_preserves_function(self):
        spec = get_function("tanh")
        mlp = train_nnlut_mlp(spec, n_segments=8, seed=4, epochs=100)
        raw = mlp.to_piecewise_linear()
        padded = mlp.to_piecewise_linear(n_segments=16)
        xs = np.linspace(*spec.domain, 501)
        assert np.allclose(raw.evaluate(xs), padded.evaluate(xs), atol=1e-9)

    def test_deterministic_given_seed(self):
        spec = get_function("gelu")
        a = train_nnlut_mlp(spec, n_segments=8, seed=5, epochs=60)
        b = train_nnlut_mlp(spec, n_segments=8, seed=5, epochs=60)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.v, b.v)

    def test_raw_callable_needs_domain(self):
        with pytest.raises(ValueError, match="domain"):
            train_nnlut_mlp(np.exp, n_segments=8)

    def test_raw_callable_with_domain(self):
        mlp = train_nnlut_mlp(
            np.exp, domain=(-4.0, 0.0), n_segments=8, seed=6, epochs=100
        )
        pwl = mlp.to_piecewise_linear(n_segments=8)
        assert pwl.max_error(np.exp) < 0.05

    def test_invalid_n_segments(self):
        spec = get_function("exp")
        with pytest.raises(ValueError):
            train_nnlut_mlp(spec, n_segments=0)

    def test_single_segment_rejected(self):
        # one segment has no kink for a hidden unit to learn: the
        # trainer raises instead of training a two-segment MLP
        with pytest.raises(ValueError, match="n_segments must be >= 2, got 1"):
            train_nnlut_mlp(get_function("exp"), n_segments=1)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            train_nnlut_mlp(get_function("exp"), n_segments=8, epochs=-1)

    def test_zero_epochs_is_the_seed_fit(self):
        spec = get_function("exp")
        mlp = train_nnlut_mlp(spec, n_segments=8, epochs=0)
        seed_fit = PiecewiseLinear.fit(spec.fn, spec.domain, 8, strategy="curvature")
        assert mlp.skip_slope == seed_fit.slopes[0]
        assert np.array_equal(mlp.v, np.diff(seed_fit.slopes))

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_too_few_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            train_nnlut_mlp(get_function("exp"), n_segments=8, n_samples=n_samples)

    def test_oversized_extraction_rejected(self):
        spec = get_function("tanh")
        mlp = train_nnlut_mlp(spec, n_segments=16, seed=7, epochs=60)
        realized = mlp.to_piecewise_linear().n_segments
        if realized > 4:
            with pytest.raises(ValueError, match="exceeds"):
                mlp.to_piecewise_linear(n_segments=4)

    def test_paper_budget_16_breakpoints_good_enough(self):
        # Table I uses 16 breakpoints because "they are sufficient for the
        # commonly used non-linear functions" — check the error is small.
        for name in ("exp", "gelu", "tanh", "sigmoid"):
            spec = get_function(name)
            pwl = train_nnlut_mlp(spec, n_segments=16, seed=8).to_piecewise_linear(16)
            span = np.ptp(spec.fn(spec.sample(1000)))
            assert pwl.max_error(spec.fn) < 0.02 * span + 1e-3, name


def _reference_train(spec, n_segments, seed, epochs=400):
    """The trainer as it was before its loop trained in place: fresh
    (samples, hidden) arrays and five per-parameter Adam updates every
    epoch.  Kept verbatim as the oracle for :class:`TestInPlaceTrainer`.
    """
    fn_callable, domain = spec.fn, spec.domain
    n_samples, learning_rate = 2048, 0.01
    n_hidden = max(n_segments - 1, 1)
    rng = make_rng(seed)
    low, high = domain
    span = high - low

    xs = np.linspace(low, high, n_samples)
    ys = fn_callable(xs)

    seed_fit = PiecewiseLinear.fit(
        fn_callable, domain, n_segments=n_hidden + 1, strategy="curvature"
    )
    kink_targets = seed_fit.cuts  # length n_hidden
    slope_deltas = np.diff(seed_fit.slopes)  # length n_hidden
    w = np.ones(n_hidden)
    c = -kink_targets + rng.normal(0.0, span * 1e-6, size=n_hidden)
    v = slope_deltas.copy()
    skip_slope = float(seed_fit.slopes[0])
    skip_bias = float(seed_fit.biases[0])

    params = [w, c, v, np.array([skip_slope]), np.array([skip_bias])]
    moments_m = [np.zeros_like(p) for p in params]
    moments_v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    n = len(xs)
    for epoch in range(1, epochs + 1):
        lr = learning_rate * 0.5 * (1.0 + np.cos(np.pi * (epoch - 1) / epochs))
        w, c, v, ss, sb = params
        pre = np.outer(xs, w) + c  # (N, H)
        active = pre > 0
        hidden = np.where(active, pre, 0.0)
        pred = hidden @ v + ss[0] * xs + sb[0]
        err = pred - ys  # (N,)

        grad_v = hidden.T @ err * (2.0 / n)
        grad_hidden = np.outer(err, v) * active  # (N, H)
        grad_w = grad_hidden.T @ xs * (2.0 / n)
        grad_c = grad_hidden.sum(axis=0) * (2.0 / n)
        grad_ss = np.array([float(err @ xs) * (2.0 / n)])
        grad_sb = np.array([float(err.sum()) * (2.0 / n)])

        grads = [grad_w, grad_c, grad_v, grad_ss, grad_sb]
        for i, (p, g) in enumerate(zip(params, grads)):
            moments_m[i] = beta1 * moments_m[i] + (1 - beta1) * g
            moments_v[i] = beta2 * moments_v[i] + (1 - beta2) * g * g
            m_hat = moments_m[i] / (1 - beta1 ** epoch)
            v_hat = moments_v[i] / (1 - beta2 ** epoch)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)

    w, c, v, ss, sb = params
    return NnLutMlp(
        w=w, c=c, v=v, skip_slope=float(ss[0]), skip_bias=float(sb[0]),
        domain=domain, name=spec.name,
    )


def _assert_byte_identical(name, n_segments, seed, epochs):
    spec = get_function(name)
    want = _reference_train(spec, n_segments, seed, epochs=epochs)
    got = train_nnlut_mlp(spec, n_segments=n_segments, seed=seed, epochs=epochs)
    for field in ("w", "c", "v"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    for field in ("skip_slope", "skip_bias"):
        assert np.float64(getattr(got, field)).tobytes() == np.float64(
            getattr(want, field)
        ).tobytes(), field
    got_table = QuantizedPwl(got.to_piecewise_linear(n_segments)).quantized_pwl
    want_table = QuantizedPwl(want.to_piecewise_linear(n_segments)).quantized_pwl
    for field in ("cuts", "slopes", "biases"):
        assert getattr(got_table, field).tobytes() == getattr(
            want_table, field
        ).tobytes(), field


class TestInPlaceTrainer:
    """The in-place epoch loop reproduces the allocate-per-epoch loop
    byte for byte: parameters and the quantised tables built from them.
    """

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_every_function_at_paper_size(self, name):
        _assert_byte_identical(name, n_segments=16, seed=0, epochs=400)

    # a shorter schedule keeps the sweep cheap; it still runs the cosine
    # decay to zero and Adam's bias correction
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("n_segments", [2, 8, 32])
    @pytest.mark.parametrize("name", ["exp", "reciprocal"])
    def test_table_sizes_and_seeds(self, name, n_segments, seed):
        _assert_byte_identical(name, n_segments, seed, epochs=60)
