"""Fixed-point PWL tables and NOVA link-beat packing.

The NOVA link is 257 bits: 16 16-bit words (8 slope/bias pairs) plus one
tag bit (paper, Fig. 3).  With ``B`` slope/bias pairs and 8 pairs per beat
the mapper serialises the table into ``ceil(B / 8)`` beats.  The paper's
tag-matching rule (§III-A.1) is:

    "the LSB of each lookup address is used to match against the tag bit of
    the incoming packet.  The remaining bits are used to retrieve the slope
    and bias values"

i.e. for a 16-entry table, beat 0 carries the pairs for even addresses and
beat 1 the pairs for odd addresses; a router with address ``a`` grabs slot
``a >> 1`` from the beat whose tag equals ``a & 1``.  For an 8-entry table
there is a single beat (tag 0) and the full address selects the slot.  The
generalisation to ``2^k`` beats uses the low ``k`` address bits as the tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.pwl import PiecewiseLinear
from repro.utils.fixed_point import FixedPointFormat, Q5_10

__all__ = [
    "QuantizedPwl",
    "LinkBeat",
    "pack_beats",
    "unpack_beats",
    "beat_of_address",
    "slot_of_address",
    "PAIRS_PER_BEAT",
]

#: Pairs broadcast per NoC beat — fixed by the 257-bit link width.
PAIRS_PER_BEAT = 8

#: Largest input-code range a table tabulates: every 16-bit input word.
MAX_TABULATED_CODES = 1 << 16

#: Codes tabulated per slice at construction.  Each slice's temporaries
#: (8 bytes per code) stay under glibc's default 128 KiB mmap threshold,
#: so building a table frees no mmapped block; freeing one would raise
#: the allocator's dynamic mmap and trim thresholds for the rest of the
#: process.
_BUILD_SLICE = 1 << 13


@dataclass(frozen=True)
class QuantizedPwl:
    """A PWL table with all coefficients held in fixed point.

    ``cuts``, ``slopes`` and ``biases`` are stored as the *representable
    values* (floats that are exact multiples of the respective format's
    LSB) so functional evaluation stays in plain numpy while matching the
    bit-level behaviour; raw integer codes are available via the format's
    ``to_raw``.

    The table's output and lookup address depend on the input code
    alone, so construction tabulates both over every code a clamped
    input can quantise to (``to_raw(domain low)`` .. ``to_raw(domain
    high)``): 16,385 codes, about 256 KB, for a serving table at Q5.10.
    :meth:`gather_mac` then answers any input with one code computation
    and two gathers.  Only code ranges of at most
    :data:`MAX_TABULATED_CODES` (every 16-bit input word) are tabulated;
    wider formats answer through the direct quantise, search and MAC
    that also builds the table.  :meth:`lookup`, :meth:`segment_index`
    and the hardware models stay direct, so they remain an independent
    check of the table.
    """

    pwl: PiecewiseLinear
    input_format: FixedPointFormat = Q5_10
    coeff_format: FixedPointFormat = Q5_10
    output_format: FixedPointFormat = Q5_10

    def __post_init__(self) -> None:
        cuts = np.asarray(self.pwl.cuts, dtype=np.float64)
        fmt = self.input_format
        if len(cuts) and (
            cuts.min() <= fmt.min_value or cuts.max() >= fmt.max_value
        ):
            raise ValueError(
                f"input format {fmt} (range [{fmt.min_value}, "
                f"{fmt.max_value}]) saturates the table's cut points "
                f"({cuts.min():.4g}..{cuts.max():.4g}); choose a format "
                "with more integer bits"
            )
        try:
            quantized = PiecewiseLinear(
                cuts=fmt.quantize(cuts),
                slopes=self.coeff_format.quantize(self.pwl.slopes),
                biases=self.coeff_format.quantize(self.pwl.biases),
                domain=self.pwl.domain,
                name=self.pwl.name,
            )
        except ValueError as err:
            raise ValueError(
                f"input format {fmt} cannot resolve adjacent cut points "
                f"of table {self.pwl.name!r} (LSB {fmt.scale:.3g}); "
                "increase fraction bits or reduce the segment count"
            ) from err
        object.__setattr__(self, "_quantized", quantized)
        low, high = (int(code) for code in fmt.to_raw(quantized.domain))
        codes = None
        if high - low < MAX_TABULATED_CODES:
            n_codes = high - low + 1
            outputs = np.empty(n_codes)
            addresses = np.empty(n_codes, dtype=np.int64)
            for start in range(0, n_codes, _BUILD_SLICE):
                stop = min(start + _BUILD_SLICE, n_codes)
                outputs[start:stop], addresses[start:stop] = self._direct(
                    fmt.from_raw(np.arange(low + start, low + stop))
                )
            outputs.flags.writeable = False
            addresses.flags.writeable = False
            codes = (float(low), float(high), outputs, addresses)
        object.__setattr__(self, "_codes", codes)

    @property
    def quantized_pwl(self) -> PiecewiseLinear:
        """The table after coefficient quantisation (cuts/slopes/biases)."""
        return self._quantized

    @property
    def n_segments(self) -> int:
        """Number of slope/bias pairs."""
        return self.pwl.n_segments

    @property
    def n_beats(self) -> int:
        """NoC beats needed to broadcast the full table."""
        return -(-self.n_segments // PAIRS_PER_BEAT)

    def segment_index(self, x: np.ndarray | float) -> np.ndarray:
        """Comparator model on the quantised input and cuts."""
        return self.lookup(x)[1]

    def lookup(self, x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Quantise and address the whole input in one vectorised pass.

        Returns ``(xq, idx)``: the quantised (clamped, representable)
        inputs and their segment indices, for any input shape — clamp,
        round to the input format, then one ``searchsorted`` over the
        cuts.  Together with ``output_format.mac`` this *defines* the
        code table :meth:`gather_mac` reads, and it stays direct so the
        table can be checked against it.
        """
        xq = self.input_format.quantize(self._quantized.clamp(x))
        return xq, self._quantized.segment_index(xq)

    def _direct(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantise, look up and MAC: the definition of :meth:`gather_mac`."""
        xq, idx = self.lookup(x)
        outputs = self.output_format.mac(
            self._quantized.slopes[idx], xq, self._quantized.biases[idx]
        )
        return outputs, idx

    def reject_nan(self, x: np.ndarray | float) -> np.ndarray:
        """``x`` as float64; ``ValueError`` naming the table on any NaN.

        NaN has no input code, so no path through the table — code
        table, comparators or MAC lanes — has an output for it.
        """
        x = np.asarray(x, dtype=np.float64)
        if np.isnan(x).any():
            raise ValueError(
                f"table {self.pwl.name!r}: NaN input has no input code"
            )
        return x

    def gather_mac(self, x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """``(outputs, addresses)`` for any input shape, from the code table.

        Bit-identical to :meth:`lookup` + ``output_format.mac`` (the
        table holds exactly what they compute per input code): one
        quantise to the input code, then two gathers.  NaN has no input
        code and raises ``ValueError`` (:meth:`reject_nan`).
        """
        x = self.reject_nan(x)
        if self._codes is None:
            return self._direct(x)
        low, high, outputs, addresses = self._codes
        codes = np.clip(np.rint(x / self.input_format.scale), low, high)
        index = (codes - low).astype(np.intp)
        return outputs[index], addresses[index]

    def evaluate(self, x: np.ndarray | float) -> np.ndarray:
        """Bit-accurate functional evaluation: quantise, look up, MAC.

        This is the golden model that both the cycle-accurate NOVA pipeline
        and the LUT baselines must match exactly; it reads the code table
        (:meth:`gather_mac`).
        """
        return self.gather_mac(x)[0]

    __call__ = evaluate

    def coefficient_words(self) -> np.ndarray:
        """Raw (slope, bias) integer codes, shape ``(n_segments, 2)``."""
        slope_raw = self.coeff_format.to_raw(self._quantized.slopes)
        bias_raw = self.coeff_format.to_raw(self._quantized.biases)
        return np.stack([slope_raw, bias_raw], axis=1)


@dataclass(frozen=True)
class LinkBeat:
    """One beat on the NOVA link: 8 slope/bias raw pairs plus a tag.

    ``pairs[slot] = (slope_raw, bias_raw)``.  Unused slots in the final
    beat of a short table are zero-filled, as unused wires would idle.
    """

    tag: int
    pairs: tuple[tuple[int, int], ...]
    word_bits: int = 16

    def __post_init__(self) -> None:
        if len(self.pairs) != PAIRS_PER_BEAT:
            raise ValueError(
                f"a beat carries exactly {PAIRS_PER_BEAT} pairs, got {len(self.pairs)}"
            )
        if self.tag < 0:
            raise ValueError(f"tag must be non-negative, got {self.tag}")

    @property
    def bit_width(self) -> int:
        """Payload width: 16 words plus tag bits (257 for 16-bit words)."""
        tag_bits = max(1, (max(self.tag, 1)).bit_length()) if self.tag else 1
        return 2 * PAIRS_PER_BEAT * self.word_bits + tag_bits

    def pair_for_slot(self, slot: int) -> tuple[int, int]:
        """Return the (slope_raw, bias_raw) pair at ``slot``."""
        return self.pairs[slot]


def beat_of_address(address: int, n_beats: int) -> int:
    """Which beat carries the pair for ``address`` (low address bits)."""
    if n_beats < 1:
        raise ValueError(f"n_beats must be >= 1, got {n_beats}")
    if n_beats & (n_beats - 1):
        raise ValueError(f"n_beats must be a power of two, got {n_beats}")
    return address & (n_beats - 1)


def slot_of_address(address: int, n_beats: int) -> int:
    """Which slot within the beat carries the pair for ``address``."""
    if n_beats < 1:
        raise ValueError(f"n_beats must be >= 1, got {n_beats}")
    if n_beats & (n_beats - 1):
        raise ValueError(f"n_beats must be a power of two, got {n_beats}")
    return address >> (n_beats - 1).bit_length()


def pack_beats(qpwl: QuantizedPwl) -> list[LinkBeat]:
    """Serialise a quantised table into link beats (the mapper's job).

    Beat ``t`` carries the pairs for every address ``a`` with
    ``a % n_beats == t``, at slot ``a // n_beats`` — the address-LSB
    tag-matching layout of §III-A.1.
    """
    words = qpwl.coefficient_words()
    n_beats_padded = 1
    while n_beats_padded * PAIRS_PER_BEAT < qpwl.n_segments:
        n_beats_padded *= 2
    beats = []
    for tag in range(n_beats_padded):
        pairs = []
        for slot in range(PAIRS_PER_BEAT):
            address = slot * n_beats_padded + tag
            if address < qpwl.n_segments:
                pairs.append((int(words[address, 0]), int(words[address, 1])))
            else:
                pairs.append((0, 0))
        beats.append(
            LinkBeat(tag=tag, pairs=tuple(pairs), word_bits=qpwl.coeff_format.word_bits)
        )
    return beats


def unpack_beats(beats: list[LinkBeat], n_segments: int) -> np.ndarray:
    """Reassemble (slope_raw, bias_raw) per address from link beats.

    Inverse of :func:`pack_beats`; used by tests to prove the serialisation
    is lossless.
    """
    n_beats = len(beats)
    if n_beats & (n_beats - 1):
        raise ValueError(f"number of beats must be a power of two, got {n_beats}")
    words = np.zeros((n_segments, 2), dtype=np.int64)
    for address in range(n_segments):
        beat = beats[beat_of_address(address, n_beats)]
        slot = slot_of_address(address, n_beats)
        slope_raw, bias_raw = beat.pair_for_slot(slot)
        words[address, 0] = slope_raw
        words[address, 1] = bias_raw
    return words
