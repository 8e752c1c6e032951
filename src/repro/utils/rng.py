"""Deterministic random number generation helpers.

Every stochastic component in the reproduction (dataset synthesis, MLP
weight initialisation, workload sampling) takes a seed and obtains its
generator through :func:`make_rng`, so experiments are reproducible
run-to-run and machine-to-machine.  Keyed coins that need only the
first draw of a fresh generator per key (the speculative drafts'
fidelity coins) take :func:`first_random`, which computes that draw for
a whole batch of keys at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "derive_seed", "first_random"]

_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT32 = np.uint32(16)
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves.
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))
_U64 = {n: np.uint64(n) for n in (1, 11, 32, 58, 63, 64)}
_LOW32 = np.uint64(_MASK32)


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator for ``seed``.

    Accepts an existing Generator (returned unchanged) so functions can be
    composed without reseeding, an integer seed, or ``None`` for an
    OS-entropy generator (only sensible in exploratory use, never in tests).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *components: str | int) -> int:
    """Derive a stable sub-seed from a base seed and a component path.

    Used to give independent streams to independent subsystems (e.g. the
    dataset generator and the model initialiser) while keeping everything a
    pure function of one top-level seed.
    """
    seq = np.random.SeedSequence(
        base_seed, spawn_key=tuple(_component_key(c) for c in components)
    )
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def first_random(*key: int | np.ndarray) -> np.ndarray:
    """``np.random.default_rng(key).random()`` for a batch of keys at once.

    Each entry of ``key`` is a non-negative integer or an integer array
    of values below ``2**32``; arrays broadcast, and the result has
    their broadcast shape.  Element ``i`` equals, byte for byte, the
    first ``random()`` of ``default_rng`` seeded with the tuple of the
    entries' ``i``-th values.  The function replays numpy's seeding as
    pure arithmetic on uint32/uint64 arrays, with no generator objects:

    * ``SeedSequence`` coerces the key to little-endian uint32 entropy
      words (an integer ``n >= 2**32`` is several words) and mixes them
      into a 4-word pool; a key of more than 4 words runs the extra
      mixing loop;
    * ``generate_state(4, uint64)`` hashes the pool into PCG64's 128-bit
      seed and increment;
    * PCG64 seeds with two LCG steps, and ``random()`` takes one more
      step and returns ``(xsl_rr(state) >> 11) * 2**-53``.
    """
    words = [w for part in key for w in _entropy_words(part)]
    if not words:
        raise ValueError("first_random needs at least one key entry")
    shape = np.broadcast_shapes(*(np.shape(w) for w in words))
    n = int(np.prod(shape))
    entropy = [
        np.broadcast_to(w, shape).reshape(n).astype(np.uint32) for w in words
    ]
    pool = _mix_entropy(entropy, n)
    # generate_state(4, np.uint64): 8 hashed words cycling over the
    # pool, paired little-endian into (seed_hi, seed_lo, inc_hi, inc_lo).
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT32)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        state[2 * k] | (state[2 * k + 1] << _U64[32]) for k in range(4)
    )
    # pcg_setseq_128_srandom_r: inc = (initseq << 1) | 1; state = 0,
    # step (state = inc), state += seed, step.  random(): step, output.
    inc = (
        (inc_hi << _U64[1]) | (inc_lo >> _U64[63]),
        (inc_lo << _U64[1]) | _U64[1],
    )
    s = _add128(inc, (seed_hi, seed_lo))
    s = _add128(_mul128(s), inc)
    hi, lo = _add128(_mul128(s), inc)
    # XSL-RR: rotate (hi ^ lo) right by the top 6 bits of the state.
    xored, rot = hi ^ lo, hi >> _U64[58]
    out = (xored >> rot) | (xored << ((_U64[64] - rot) & _U64[63]))
    return ((out >> _U64[11]).astype(np.float64) * 2.0**-53).reshape(shape)


def _entropy_words(part: int | np.ndarray) -> list[np.ndarray]:
    """One key entry as SeedSequence's little-endian uint32 words."""
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ValueError(f"key entries must be non-negative, got {value}")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return [np.array(w, dtype=np.uint32) for w in words]
    array = np.asarray(part)
    if array.dtype.kind not in "iu":
        raise ValueError(f"key entries must be integers, got {array.dtype}")
    if array.size and (array.min() < 0 or array.max() > _MASK32):
        raise ValueError("key arrays must hold values in [0, 2**32)")
    return [array]


def _hashmix(
    value: np.ndarray, hash_const: int
) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT32), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT32)


def _mix_entropy(entropy: list[np.ndarray], n: int) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over ``n`` keys of equal word count."""
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros(n, np.uint32)
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    return pool


def _mulhi64(x: np.ndarray, c: np.uint64) -> np.ndarray:
    """High 64 bits of ``x * c`` (uint64), from 32-bit partial products."""
    x0, x1 = x & _LOW32, x >> _U64[32]
    c0, c1 = c & _LOW32, c >> _U64[32]
    p00, p01, p10 = x0 * c0, x0 * c1, x1 * c0
    mid = (p00 >> _U64[32]) + (p01 & _LOW32) + (p10 & _LOW32)
    return x1 * c1 + (p01 >> _U64[32]) + (p10 >> _U64[32]) + (mid >> _U64[32])


def _mul128(
    a: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """``a * PCG64 multiplier`` mod 2**128, on (high, low) halves."""
    hi, lo = a
    m_hi, m_lo = _PCG_MULT
    return _mulhi64(lo, m_lo) + lo * m_hi + hi * m_lo, lo * m_lo


def _add128(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` mod 2**128, on (high, low) halves."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]).astype(np.uint64), lo


def _component_key(component: str | int) -> int:
    if isinstance(component, int):
        return component & 0xFFFFFFFF
    # Stable string hash (Python's hash() is salted per-process).
    value = 2166136261
    for byte in component.encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value
