"""A fixed calibration loop that measures how fast the host is right now.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by tens of percent within minutes: every pass of a
run, and every run of a set, is slowed by whatever else the host is
doing.  :func:`block` times a fixed amount of work in the same mix as
the program's hot paths — interpreter-bound object and dict churn,
small-array numpy (gather, fixed-point clip/round, tiny matmuls,
``exp``), and mid-size gathers and ``exp``, all on one thread — and the
benchmark interleaves such blocks with its timed passes.  Host-time metrics are then scaled to a
reference host, one on which a block takes :data:`REFERENCE_S` seconds:

    scaled seconds = measured seconds * REFERENCE_S / block seconds

A change to the program moves the scaled figure exactly as it moves the
raw one, because this loop is the benchmark's own code and never calls
the program.  What the scaling removes is the share of the drift that
slows the loop and the program alike.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :func:`block` takes on the reference host (a quiet
#: 2-vCPU Intel Xeon VM, Python 3.11).
REFERENCE_S = 0.4

_RNG = np.random.default_rng(0)
_ROWS = _RNG.normal(size=(64, 16))
_INDEX = _RNG.integers(0, 64, size=24)
_LONG = _RNG.normal(size=1 << 16)
_SHUFFLE = _RNG.permutation(1 << 16)


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key, self.value = key, value


def _interpreter(n: int) -> int:
    table: dict[int, _Slot] = {}
    acc = 0
    for i in range(n):
        slot = _Slot(i, i >> 1)
        table[i & 63] = slot
        acc += slot.value + len(table)
        if i % 7 == 0:
            acc += sum([x for x in (1, 2, 3, 4)])
    return acc


def _small_numpy(n: int) -> float:
    acc = 0.0
    for i in range(n):
        rows = _ROWS[_INDEX[: 8 + i % 16]]
        raw = np.clip(np.round(rows * 256.0), -32768, 32767).astype(np.int64)
        scores = raw @ raw[0]
        acc += float(np.exp((scores - scores.max()) / 65536.0).sum())
    return acc


def _mid_numpy(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        acc += float(np.exp(_LONG[_SHUFFLE] * 1e-3).sum())
    return acc


def block(scale: float = 1.0) -> float:
    """Seconds the host takes for one calibration block.

    ``scale`` shrinks the work (for a warm-up); the benchmark compares
    only full blocks with :data:`REFERENCE_S`.
    """
    start = time.perf_counter()
    _interpreter(int(260_000 * scale))
    _small_numpy(int(6_000 * scale))
    _mid_numpy(int(200 * scale))
    return time.perf_counter() - start


def scale_to_reference(seconds: float, blocks: list[float]) -> float:
    """``seconds`` measured alongside ``blocks``, on the reference host."""
    return seconds * REFERENCE_S * len(blocks) / sum(blocks)
