"""NN-LUT compile-time MLP: learns the PWL breakpoints (paper §IV).

NN-LUT (Yu et al., DAC 2022) trains a small 2-layer MLP on the target
non-linear function at compile time.  With ReLU hidden units a 1-D MLP

    f(x) = sum_j v_j * relu(w_j * x + c_j) + s * x + d

is *exactly* a piecewise-linear function: each hidden unit contributes one
kink at ``x_j = -c_j / w_j``, so an MLP with ``H`` hidden units realises up
to ``H`` breakpoints / ``H + 1`` segments.  "The number of nodes in the
hidden layer represent the number of breakpoints required for non-linear
approximation" (paper §IV).  After training we extract the exact segment
table — the slope/bias pairs that the LUT baselines store in SRAM and that
NOVA broadcasts over its NoC.

The trainer is plain numpy Adam; it runs in well under a second for the
table sizes the paper uses (8/16 breakpoints) because the "dataset" is just
a dense sample of a scalar function.  The epoch loop trains in place: its
(samples, hidden) arrays are allocated once and rewritten every epoch, and
one flat parameter vector takes one Adam update per epoch.  The table bytes
depend on the order of each gradient reduction (``hidden.T @ err``,
``grad_hidden.T @ xs``, ``grad_hidden.sum(axis=0)``, ``err @ xs``,
``err.sum()``), so keep them in these forms;
``tests/test_approx_nnlut_mlp.py`` checks the loop byte for byte against a
reference that allocates every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.approx.functions import FunctionSpec
from repro.approx.pwl import PiecewiseLinear
from repro.utils.rng import make_rng

__all__ = ["NnLutMlp", "train_nnlut_mlp"]


@dataclass
class NnLutMlp:
    """A trained (or initialised) 1-D ReLU MLP with a linear skip term.

    Parameters follow the decomposition in the module docstring.  The skip
    term ``s * x + d`` lets the MLP represent the function's linear trend
    without spending hidden units on it, which measurably improves the fit
    for functions like GeLU whose tails are linear.
    """

    w: np.ndarray  # hidden weights, shape (H,)
    c: np.ndarray  # hidden biases,  shape (H,)
    v: np.ndarray  # output weights, shape (H,)
    skip_slope: float
    skip_bias: float
    domain: tuple[float, float]
    name: str = "mlp"

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if not (self.w.shape == self.c.shape == self.v.shape):
            raise ValueError("w, c, v must all have shape (H,)")
        if self.w.ndim != 1:
            raise ValueError("parameters must be 1-D arrays")

    @property
    def n_hidden(self) -> int:
        """Number of hidden ReLU units (maximum breakpoint count)."""
        return len(self.w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the MLP (float64 reference)."""
        x = np.asarray(x, dtype=np.float64)
        pre = np.outer(x, self.w) + self.c  # (N, H)
        hidden = np.maximum(pre, 0.0)
        return hidden @ self.v + self.skip_slope * x + self.skip_bias

    __call__ = forward

    # ------------------------------------------------------------------
    # Exact PWL extraction.
    # ------------------------------------------------------------------

    def kinks(self) -> np.ndarray:
        """Sorted kink positions that fall strictly inside the domain."""
        low, high = self.domain
        active = np.abs(self.w) > 1e-12
        positions = -self.c[active] / self.w[active]
        inside = positions[(positions > low) & (positions < high)]
        if len(inside) == 0:
            return np.zeros(0)
        inside = np.sort(inside)
        # Merge kinks closer than float resolution of the domain span.
        merged = [inside[0]]
        min_gap = (high - low) * 1e-9
        for pos in inside[1:]:
            if pos - merged[-1] > min_gap:
                merged.append(pos)
        return np.asarray(merged)

    def to_piecewise_linear(self, n_segments: int | None = None) -> PiecewiseLinear:
        """Extract the exact PWL table realised by this MLP.

        The slope of each segment is the sum of ``v_j * w_j`` over the
        hidden units active in that segment plus the skip slope; the bias
        is derived analytically the same way — no sampling error.

        If ``n_segments`` is given and extraction yields fewer segments
        (kinks may coincide or leave the domain during training), the
        widest segments are split with duplicated coefficients so the table
        has exactly ``n_segments`` rows.  A duplicated row is functionally
        identical and matches how a fixed-size hardware table is filled.
        """
        cuts = self.kinks()
        low, high = self.domain
        edges = np.concatenate([[low], cuts, [high]])
        slopes = []
        biases = []
        for i in range(len(edges) - 1):
            mid = 0.5 * (edges[i] + edges[i + 1])
            active = (self.w * mid + self.c) > 0
            slope = float(np.sum(self.v[active] * self.w[active]) + self.skip_slope)
            bias = float(np.sum(self.v[active] * self.c[active]) + self.skip_bias)
            slopes.append(slope)
            biases.append(bias)
        pwl = PiecewiseLinear(
            cuts=cuts,
            slopes=np.asarray(slopes),
            biases=np.asarray(biases),
            domain=self.domain,
            name=self.name,
        )
        if n_segments is not None:
            if pwl.n_segments > n_segments:
                raise ValueError(
                    f"MLP realises {pwl.n_segments} segments which exceeds the "
                    f"requested table size {n_segments}; train with fewer "
                    "hidden units"
                )
            while pwl.n_segments < n_segments:
                pwl = _split_widest_segment(pwl)
        return pwl


def _split_widest_segment(pwl: PiecewiseLinear) -> PiecewiseLinear:
    """Split the widest segment in two, duplicating its coefficients."""
    edges = pwl.edges()
    widths = np.diff(edges)
    i = int(np.argmax(widths))
    new_cut = 0.5 * (edges[i] + edges[i + 1])
    cuts = np.sort(np.concatenate([pwl.cuts, [new_cut]]))
    slopes = np.insert(pwl.slopes, i, pwl.slopes[i])
    biases = np.insert(pwl.biases, i, pwl.biases[i])
    return PiecewiseLinear(
        cuts=cuts, slopes=slopes, biases=biases, domain=pwl.domain, name=pwl.name
    )


def train_nnlut_mlp(
    fn: Callable[[np.ndarray], np.ndarray] | FunctionSpec,
    domain: tuple[float, float] | None = None,
    n_segments: int = 16,
    n_samples: int = 2048,
    epochs: int = 400,
    learning_rate: float = 0.01,
    seed: int = 0,
    name: str | None = None,
) -> NnLutMlp:
    """Train an NN-LUT MLP with ``n_segments - 1`` hidden units.

    Initialisation: any continuous PWL function with cuts ``k_j`` and
    segment slopes ``m_i`` has the exact ReLU expansion

        f(x) = m_0 * x + b_0 + sum_j (m_{j+1} - m_j) * relu(x - k_j),

    so the MLP is seeded with the curvature-equalising interpolation fit
    (each hidden unit's kink at an error-equalising cut) and Adam with
    cosine learning-rate decay fine-tunes kink positions and coefficients
    jointly.  This matches NN-LUT's observation that good breakpoint
    initialisation is essential for the small MLP, and guarantees the
    trained table is no worse than the direct fit.

    Accepts either a raw callable plus ``domain`` or a
    :class:`~repro.approx.functions.FunctionSpec`.
    """
    if isinstance(fn, FunctionSpec):
        spec = fn
        fn_callable = spec.fn
        domain = spec.domain if domain is None else domain
        name = spec.name if name is None else name
    else:
        fn_callable = fn
        if domain is None:
            raise ValueError("domain is required when fn is a raw callable")
        name = name or getattr(fn, "__name__", "mlp")

    if n_segments < 2:
        raise ValueError(f"n_segments must be >= 2, got {n_segments}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    n_hidden = n_segments - 1
    rng = make_rng(seed)
    low, high = domain
    span = high - low

    xs = np.linspace(low, high, n_samples)
    ys = fn_callable(xs)
    y_scale = max(float(np.max(np.abs(ys))), 1e-9)

    # Seed with the curvature-equalising interpolation fit expressed in
    # ReLU form (see docstring); a tiny jitter breaks exact ties between
    # units so Adam can move kinks independently.
    from repro.approx.pwl import PiecewiseLinear

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

    # One flat parameter vector ``[w, c, v, skip_slope, skip_bias]`` with
    # its Adam moments beside it, so one update per epoch covers every
    # parameter; ``w``, ``c`` and ``v`` are views into it.
    theta = np.concatenate([w, c, v, [skip_slope, skip_bias]])
    w, c, v = np.split(theta[:-2], 3)
    grad = np.empty_like(theta)
    moment_m = np.zeros_like(theta)
    moment_v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    # (N, H) work buffers, written in place every epoch.
    n = len(xs)
    pre = np.empty((n, n_hidden))
    active = np.empty((n, n_hidden), dtype=bool)
    hidden = np.empty((n, n_hidden))
    grad_hidden = np.empty((n, n_hidden))
    for epoch in range(1, epochs + 1):
        lr = learning_rate * 0.5 * (1.0 + np.cos(np.pi * (epoch - 1) / epochs))
        np.multiply.outer(xs, w, out=pre)
        pre += c
        np.greater(pre, 0, out=active)
        hidden.fill(0.0)
        np.copyto(hidden, pre, where=active)
        pred = hidden @ v + theta[-2] * xs + theta[-1]
        err = pred - ys  # (N,)

        grad[2 * n_hidden:-2] = hidden.T @ err * (2.0 / n)
        np.multiply.outer(err, v, out=grad_hidden)
        grad_hidden *= active
        grad[:n_hidden] = grad_hidden.T @ xs * (2.0 / n)
        grad[n_hidden:2 * n_hidden] = grad_hidden.sum(axis=0) * (2.0 / n)
        grad[-2] = float(err @ xs) * (2.0 / n)
        grad[-1] = float(err.sum()) * (2.0 / n)

        moment_m = beta1 * moment_m + (1 - beta1) * grad
        moment_v = beta2 * moment_v + (1 - beta2) * grad * grad
        m_hat = moment_m / (1 - beta1 ** epoch)
        v_hat = moment_v / (1 - beta2 ** epoch)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

    return NnLutMlp(
        w=w.copy(),
        c=c.copy(),
        v=v.copy(),
        skip_slope=float(theta[-2]),
        skip_bias=float(theta[-1]),
        domain=domain,
        name=name,
    )
