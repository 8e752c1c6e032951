"""Unit tests for repro.utils.validation and repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, first_random, make_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
)


class TestValidation:
    def test_check_positive_accepts(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    def test_check_positive_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ValueError):
            check_non_negative("x", -0.5)

    def test_check_power_of_two(self):
        for good in (1, 2, 4, 8, 1024):
            check_power_of_two("x", good)
        for bad in (0, 3, 6, -4):
            with pytest.raises(ValueError):
                check_power_of_two("x", bad)

    def test_check_in_range(self):
        check_in_range("x", 5, 0, 10)
        check_in_range("x", 0, 0, 10)
        check_in_range("x", 10, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).random(8)
        b = make_rng(42).random(8)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "dataset") == derive_seed(7, "dataset")

    def test_derive_seed_distinguishes_components(self):
        assert derive_seed(7, "dataset") != derive_seed(7, "model")

    def test_derive_seed_distinguishes_base(self):
        assert derive_seed(7, "x") != derive_seed(8, "x")

    def test_derive_seed_accepts_ints(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


def _default_rng_first(key):
    return np.array(np.random.default_rng(key).random())


class TestFirstRandom:
    """``first_random`` is ``default_rng(key).random()`` by bytes, for a
    batch of keys at once."""

    POSITIONS = np.array([0, 1, 2, 17, 143, 2**31, 2**32 - 1])
    #: 2**64 is three entropy words, so its 3-entry keys are five words:
    #: more than SeedSequence's 4-word pool, which runs its extra mixing
    #: loop.
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("alternative", [None, 1, 3, 2**32 - 1])
    def test_matches_default_rng_by_bytes(self, seed, alternative):
        if alternative is None:
            got = first_random(seed, self.POSITIONS)
            keys = [(seed, int(p)) for p in self.POSITIONS]
        else:
            got = first_random(seed, self.POSITIONS, alternative)
            keys = [(seed, int(p), alternative) for p in self.POSITIONS]
        assert got.dtype == np.float64
        assert got.shape == self.POSITIONS.shape
        for value, key in zip(got, keys):
            assert value.tobytes() == _default_rng_first(key).tobytes()

    def test_many_random_keys(self):
        rng = np.random.default_rng(2024)
        seeds = rng.integers(0, 2**32, 64, dtype=np.uint64)
        positions = rng.integers(0, 2**32, 64, dtype=np.uint64)
        got = first_random(seeds, positions, 2)
        for value, s, p in zip(got, seeds, positions):
            want = _default_rng_first((int(s), int(p), 2))
            assert value.tobytes() == want.tobytes()

    def test_scalar_and_broadcast_keys(self):
        assert first_random(5, 3).shape == ()
        assert first_random(5, 3).tobytes() == (
            _default_rng_first((5, 3)).tobytes()
        )
        assert first_random(9).tobytes() == _default_rng_first(9).tobytes()
        grid = first_random(
            np.arange(3)[:, None], np.arange(4)[None, :]
        )
        assert grid.shape == (3, 4)
        assert grid[2, 3].tobytes() == _default_rng_first((2, 3)).tobytes()

    def test_rejects_keys_default_rng_cannot_take(self):
        with pytest.raises(ValueError):
            first_random(-1, 0)
        with pytest.raises(ValueError):
            first_random(0, np.array([1, -1]))
        with pytest.raises(ValueError):
            first_random(0, np.array([2**32]))
        with pytest.raises(ValueError):
            first_random(0, np.array([0.5]))
        with pytest.raises(ValueError):
            first_random()
