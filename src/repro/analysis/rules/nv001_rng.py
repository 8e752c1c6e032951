"""NV001 — every random number has a seed.

Bit-exactness against the golden traces is the repo's core promise,
and it dies the moment any code path draws from global or entropy-fed
RNG state.  The sanctioned entry points live in ``repro.utils.rng``
(:func:`make_rng`, :func:`derive_seed`, :func:`first_random`);
everywhere else, drawing randomness requires an explicitly seeded
``numpy`` Generator.

Flagged:

* any ``random.*`` module-level call (the stdlib global Mersenne
  Twister), plus unseeded ``random.Random()`` and ``SystemRandom``
  (OS entropy);
* legacy ``np.random.*`` global-state functions (``rand``, ``randn``,
  ``seed``, ``shuffle``, ...);
* ``np.random.default_rng()`` called with **no** arguments (entropy
  seeded).

Allowed: ``default_rng(seed)``, ``np.random.Generator(...)``,
``np.random.SeedSequence(...)``, and anything in ``repro.utils.rng``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.analysis.rules._common import ImportMap

__all__ = ["UnseededRngRule"]

#: stdlib ``random`` module-level functions that draw from (or mutate)
#: the hidden global generator.
_STDLIB_GLOBAL = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}

#: legacy ``numpy.random`` functions backed by the global RandomState.
_NUMPY_LEGACY = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
}


class UnseededRngRule(Rule):
    rule_id = "NV001"
    title = "no unseeded or global-state RNG outside repro.utils.rng"
    severity = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.utils.rng"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve_call(node)
            if target is None:
                continue
            message = _judge(target, node)
            if message is not None:
                yield ctx.finding(self, node, message)


def _judge(target: str, call: ast.Call) -> str | None:
    """Message when ``target`` (a resolved dotted path) violates NV001."""
    head, _, tail = target.partition(".")
    if head == "random":
        if tail in _STDLIB_GLOBAL:
            return (
                f"stdlib global RNG call random.{tail}(); route randomness "
                "through repro.utils.rng.make_rng(seed) instead"
            )
        if tail == "SystemRandom":
            return (
                "random.SystemRandom draws OS entropy and can never be "
                "seeded; use repro.utils.rng.make_rng(seed)"
            )
        if tail == "Random" and not call.args and not call.keywords:
            return (
                "random.Random() without a seed is entropy-seeded; pass an "
                "explicit seed or use repro.utils.rng.make_rng(seed)"
            )
        return None
    if target.startswith("numpy.random."):
        leaf = target.rsplit(".", 1)[1]
        if leaf == "default_rng" and not call.args and not call.keywords:
            return (
                "np.random.default_rng() without a seed is entropy-seeded; "
                "pass a seed or use repro.utils.rng.make_rng(seed)"
            )
        if leaf in _NUMPY_LEGACY:
            return (
                f"legacy np.random.{leaf}() uses hidden global RandomState; "
                "use a seeded Generator (repro.utils.rng.make_rng)"
            )
    return None
