"""The NOVA vector unit: comparators + line NoC + MAC lanes.

This is the unit that overlays an accelerator (one router per core /
MXU / convolution engine, ``n`` neurons per router) and replaces its
LUT-based vector unit for non-linear operations.

Two APIs:

* :meth:`NovaVectorUnit.approximate` — one lookup across all routers,
  cycle-accurate through the NoC, returning outputs **bit-exact** against
  the :class:`~repro.approx.quantize.QuantizedPwl` golden model (this is
  the property the functional-verification tests pin down, standing in
  for the paper's Synopsys VCS verification).
* :meth:`NovaVectorUnit.run_stream` — a pipelined stream of lookups (one
  batch of PE outputs per PE cycle), reporting total PE cycles, per-batch
  latency and the event counters the energy model consumes.  Fault-free
  streams are evaluated by one gather from the table's code table, whose
  outputs and counter totals are exact against the beat-level
  simulation (``simulate=True`` forces the cycle-by-cycle path).

Throughput: one approximation per neuron per PE cycle once the 2-stage
pipeline (fetch, MAC) is full — identical to the LUT baseline, which is
why the paper compares the two at equal latency and puts the entire
difference in area/power.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING

import numpy as np

from repro.approx.quantize import (
    LinkBeat,
    QuantizedPwl,
    beat_of_address,
    pack_beats,
)
from repro.core.comparator import ComparatorBank
from repro.core.config import NovaConfig, preset
from repro.core import kernels
from repro.core.mac import MacLane
from repro.core.mapper import BroadcastSchedule, NovaMapper
from repro.core.noc import NovaNoc
from repro.noc.link import RepeatedWire
from repro.noc.stats import OVERLAY_EVENTS, EventCounters
from repro.noc.topology import LineTopology

if TYPE_CHECKING:
    from repro.noc.faults import LinkFault

__all__ = ["NovaVectorUnit", "ApproximationResult", "StreamResult"]

#: Events every lane of a stream charges exactly once: its comparator
#: evaluation, MAC and pair capture.  Its ``tag_match`` count depends on
#: its address, and the rest are charged per broadcast.
_LANE_EVENTS = np.array(
    [
        event in ("comparator_eval", "mac_op", "pair_capture")
        for event in OVERLAY_EVENTS
    ],
    dtype=np.int64,
)
_TAG_MATCH = OVERLAY_EVENTS.index("tag_match")


@dataclass(frozen=True)
class ApproximationResult:
    """One batch through the unit.

    ``outputs`` has shape ``(n_routers, n_neurons)``; latency is in PE
    cycles (fetch + MAC); ``noc_cycles`` is the broadcast duration.
    """

    outputs: np.ndarray
    latency_pe_cycles: int
    noc_cycles: int
    counters: EventCounters


@dataclass(frozen=True)
class FaultedResult:
    """Outcome of a fault-injected batch.

    ``corrupted_lanes`` marks every lane whose output differs from the
    fault-free golden model (including uncaptured lanes).
    """

    outputs: np.ndarray
    captured: np.ndarray
    corrupted_lanes: np.ndarray
    golden: np.ndarray

    @property
    def n_corrupted(self) -> int:
        """Number of lanes the fault actually disturbed."""
        return int(np.count_nonzero(self.corrupted_lanes))


@dataclass(frozen=True)
class StreamResult:
    """A pipelined stream of ``n_batches`` batches.

    ``total_pe_cycles`` counts from the first batch entering the
    comparators to the last MAC retiring; at the paper's operating point
    it equals ``n_batches + 1`` (two-stage pipeline).
    """

    outputs: np.ndarray  # (n_batches, n_routers, n_neurons)
    total_pe_cycles: int
    batch_latency_pe_cycles: int
    #: The events the stream charged the unit, as one int64 row indexed
    #: by :data:`~repro.noc.stats.OVERLAY_EVENTS`: closed form on the
    #: vectorised path, the lifetime-counter delta on the simulated one.
    counter_row: np.ndarray
    #: Per-lane lookup addresses (segment indices), same shape as
    #: ``outputs``.  Filled on both paths: the vectorised kernel returns
    #: them as a free by-product of the whole-stream gather, and the
    #: cycle-simulated path re-derives them through the pure golden
    #: table (bit-identical, no extra counter charges) so consumers and
    #: the stream-equivalence tests never have to branch on the path.
    addresses: np.ndarray | None = None

    @property
    def counters(self) -> EventCounters:
        """:attr:`counter_row` as a counter bag (built on each access)."""
        return EventCounters.from_vector(self.counter_row)


@dataclass(frozen=True)
class _TableProgram:
    """What the unit derives from one table: its provenance config, the
    broadcast schedule, the serialised beats and the per-table constants
    of closed-form event accounting.  Computed once per table so that
    switching back and forth between tables only swaps references."""

    table: QuantizedPwl
    config: NovaConfig
    schedule: BroadcastSchedule
    beats: list[LinkBeat]
    #: Address-independent NoC events of one broadcast (one lane batch),
    #: indexed by :data:`~repro.noc.stats.OVERLAY_EVENTS`.
    per_batch: np.ndarray
    #: The beat a zero-padded lane's address selects.
    pad_beat: int


class NovaVectorUnit:
    """A configured NOVA overlay instance.

    The constructor takes a table plus a
    :class:`~repro.core.config.NovaConfig` (or a preset name)::

        NovaVectorUnit(table, NovaConfig(n_routers=8, neurons_per_router=128))
        NovaVectorUnit(table, "tpu-v4")

    The unit only consumes the config's geometry: the table itself fixes
    the segment count, so ``config.n_segments``/``config.seed`` are
    recorded on :attr:`config` for provenance, not re-derived.
    """

    def __init__(
        self,
        table: QuantizedPwl,
        config: NovaConfig | str | None = None,
        *,
        wire: RepeatedWire | None = None,
        grid_shape: tuple[int, int] | None = None,
    ) -> None:
        if isinstance(config, str):
            config = preset(config)
        if not isinstance(config, NovaConfig):
            raise TypeError(
                "NovaVectorUnit needs a NovaConfig or a preset name, got "
                f"{type(config).__name__}"
            )
        self.neurons_per_router = config.neurons_per_router
        self.pe_frequency_ghz = config.pe_frequency_ghz
        self.hop_mm = config.hop_mm
        self.mapper = NovaMapper(wire=wire)
        #: One program per table this unit has been pointed at, keyed by
        #: table identity (the entry holds the table, so its id stays
        #: unique while cached).
        self._programs: dict[int, _TableProgram] = {}
        program = self._program(table, config)
        self.config = program.config
        self.table = table
        self.schedule: BroadcastSchedule = program.schedule
        self.beats = program.beats
        self.topology = LineTopology(
            n_routers=config.n_routers,
            hop_mm=config.hop_mm,
            grid_shape=grid_shape,
        )
        self.noc = NovaNoc(
            topology=self.topology,
            schedule=self.schedule,
            neurons_per_router=config.neurons_per_router,
        )
        self.comparators = [
            ComparatorBank(table=table, n_neurons=config.neurons_per_router)
            for _ in range(config.n_routers)
        ]
        self.macs = [
            MacLane(
                n_neurons=config.neurons_per_router,
                output_format=table.output_format,
            )
            for _ in range(config.n_routers)
        ]
        #: The module both primitives launch through, held as one
        #: attribute so a tracer can wrap every launch of every unit.
        self.backend: ModuleType = kernels

    @property
    def n_routers(self) -> int:
        """Routers (= accelerator cores) served by this unit."""
        return self.topology.n_routers

    def _program(self, table: QuantizedPwl, base: NovaConfig) -> _TableProgram:
        """The cached program for ``table`` on this unit's geometry."""
        program = self._programs.get(id(table))
        if program is None:
            schedule = self.mapper.schedule(
                n_routers=base.n_routers,
                pe_frequency_ghz=base.pe_frequency_ghz,
                n_pairs=table.n_segments,
                hop_mm=base.hop_mm,
            )
            per_batch = schedule.broadcast_event_counts(1)
            program = _TableProgram(
                table=table,
                config=dataclasses.replace(base, n_segments=table.n_segments),
                schedule=schedule,
                beats=pack_beats(table),
                per_batch=np.array(
                    [per_batch.get(event, 0) for event in OVERLAY_EVENTS],
                    dtype=np.int64,
                ),
                pad_beat=beat_of_address(
                    int(table.segment_index(0.0)), schedule.n_beats
                ),
            )
            self._programs[id(table)] = program
        return program

    def retarget(self, table: QuantizedPwl) -> None:
        """Switch the active function table in place.

        On NOVA the table is broadcast content, not stored state — the
        paper's table switching is free — so retargeting the overlay to a
        different function only swaps what the mapper feeds onto the
        wires: the serialised beats, the comparator cut points and the
        MAC output format.  The physical unit (routers, repeaters,
        comparator banks, MAC lanes) and all lifetime event counters are
        untouched; if the new table's segment count changes the beat
        count, the broadcast schedule is re-derived and the buffering
        switches are re-programmed, exactly as the runtime mapper would.

        The beats, schedule and config the unit derives from a table are
        computed the first time the unit sees that table and reused
        afterwards, so alternating between a fixed set of tables (the
        decode step's exp and reciprocal) costs a handful of reference
        swaps.
        """
        if table is self.table:
            return
        program = self._program(table, self.config)
        if program.schedule is not self.schedule:
            self.schedule = program.schedule
            self.noc.schedule = program.schedule
            buffering = set(program.schedule.buffering_routers)
            for router in self.noc.routers:
                router.set_buffering(router.router_id in buffering)
        self.table = table
        self.config = program.config
        self.beats = program.beats
        for bank in self.comparators:
            bank.table = table
        for mac in self.macs:
            mac.output_format = table.output_format

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expected = (self.n_routers, self.neurons_per_router)
        if x.shape != expected:
            raise ValueError(f"expected input shape {expected}, got {x.shape}")
        return self.table.reject_nan(x)

    def approximate(self, x: np.ndarray) -> ApproximationResult:
        """Run one batch of PE outputs through the full pipeline."""
        x = self._check_input(x)
        addresses = np.stack(
            [
                self.comparators[r].lookup_addresses(x[r])
                for r in range(self.n_routers)
            ]
        )
        result = self.noc.broadcast(self.beats, addresses)
        coeff_scale = self.table.coeff_format.scale
        xq = self.table.input_format.quantize(
            self.table.quantized_pwl.clamp(x)
        )
        outputs = np.stack(
            [
                self.macs[r].approximate(
                    result.slopes_raw[r] * coeff_scale,
                    xq[r],
                    result.biases_raw[r] * coeff_scale,
                )
                for r in range(self.n_routers)
            ]
        )
        lanes = self.n_routers * self.neurons_per_router
        counters = result.counters.merge(
            EventCounters(counts={"comparator_eval": lanes, "mac_op": lanes})
        )
        return ApproximationResult(
            outputs=outputs,
            latency_pe_cycles=self.schedule.total_latency_pe_cycles,
            noc_cycles=result.noc_cycles,
            counters=counters,
        )

    def run_stream(self, xs: np.ndarray, simulate: bool = False) -> StreamResult:
        """Run a pipelined stream of batches (one per PE cycle).

        ``xs`` has shape ``(n_batches, n_routers, n_neurons)``.  The fetch
        of batch ``t + 1`` overlaps the MAC of batch ``t``, so total time
        is ``n_batches - 1 + total_latency_pe_cycles`` PE cycles.

        By default the stream takes the vectorised path: one gather from
        the table's code table computes every output and address at
        once, and event counters are charged in closed form.
        Both are exact — the outputs are bit-identical to the beat-level
        simulation (the property the functional-verification tests pin
        down) and the counter totals equal what per-cycle simulation
        accumulates, including the address-dependent ``tag_match`` count.
        Pass ``simulate=True`` to drive every batch through the
        cycle-level NoC model instead (the reference path, and the one
        the fault-injection machinery extends).
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 3:
            raise ValueError(
                f"expected (n_batches, n_routers, n_neurons), got shape {xs.shape}"
            )
        n_batches = xs.shape[0]
        if n_batches < 1:
            raise ValueError("need at least one batch")
        expected = (self.n_routers, self.neurons_per_router)
        if xs.shape[1:] != expected:
            raise ValueError(
                f"expected batch shape {expected}, got {xs.shape[1:]}"
            )
        if simulate:
            # before any batch charges a counter (the vectorised path
            # raises from the gather itself)
            self.table.reject_nan(xs)
            before = self._lifetime_counters()
            outputs = np.zeros_like(xs)
            for t in range(n_batches):
                outputs[t] = self.approximate(xs[t]).outputs
            # Re-derive the addresses through the pure golden table:
            # bit-identical to what the comparators computed beat by
            # beat, with no extra counter charges (the simulation above
            # already accounted every comparator_eval).
            addresses = self.table.segment_index(xs)
            row = self._lifetime_counters().diff(before).to_vector()
        else:
            outputs, addresses, row = self._stream_vectorized(xs)
        latency = self.schedule.total_latency_pe_cycles
        return StreamResult(
            outputs=outputs,
            total_pe_cycles=n_batches - 1 + latency,
            batch_latency_pe_cycles=latency,
            counter_row=row,
            addresses=addresses,
        )

    def _stream_vectorized(
        self, xs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole-stream gather with closed-form event accounting.

        Per lookup, a lane whose address selects beat ``b`` performs one
        tag comparison on each of beats ``0..b`` (it stays pending until
        its beat arrives, and beats arrive in tag order), so its exact
        ``tag_match`` contribution is ``(address & (n_beats - 1)) + 1``.
        Everything else is address-independent per broadcast.

        The gather/MAC itself and the tag-match reduction are the pure
        primitives of :mod:`repro.core.kernels`; counter charging stays
        here with the unit that owns the counters (NV006/NV009).  Returns
        the stream's events alongside the outputs and addresses, as one
        int64 row indexed by :data:`~repro.noc.stats.OVERLAY_EVENTS`:
        the same closed form that charges the components, built from
        the table program's ``per_batch`` constants, so the stream
        never has to diff two lifetime snapshots or build a bag.
        """
        n_batches, n_routers, n_neurons = xs.shape
        outputs, idx = self.backend.table_gather_mac(self.table, xs)
        per_router = n_batches * n_neurons
        for bank in self.comparators:
            bank.counters.add("comparator_eval", per_router)
        for mac in self.macs:
            mac.counters.add("mac_op", per_router)
        tag_matches = self.backend.tag_match_totals(idx, self.schedule.n_beats)
        pair_captures = np.full(n_routers, per_router, dtype=np.int64)
        self.noc.charge_broadcasts(n_batches, tag_matches, pair_captures)
        row = (
            per_router * n_routers * _LANE_EVENTS
            + n_batches * self._programs[id(self.table)].per_batch
        )
        row[_TAG_MATCH] = tag_matches.sum()
        return outputs, idx, row

    def golden_reference(self, x: np.ndarray) -> np.ndarray:
        """The bit-exact functional model the hardware must match."""
        x = self._check_input(x)
        return self.table.evaluate(x)

    def approximate_with_fault(
        self, x: np.ndarray, fault: "LinkFault"
    ) -> "FaultedResult":
        """One batch with a single-bit link fault injected.

        ``fault`` is a :class:`repro.noc.faults.LinkFault`.  Returns the
        (possibly corrupted) outputs plus the mask of lanes whose tag
        match fired; uncaptured lanes carry a zero coefficient (slope 0,
        bias 0 -> output 0), the natural hardware default.
        """
        x = self._check_input(x)
        addresses = np.stack(
            [
                self.comparators[r].lookup_addresses(x[r])
                for r in range(self.n_routers)
            ]
        )
        result = self.noc.broadcast(self.beats, addresses, fault=fault)
        coeff_scale = self.table.coeff_format.scale
        xq = self.table.input_format.quantize(
            self.table.quantized_pwl.clamp(x)
        )
        outputs = np.stack(
            [
                self.macs[r].approximate(
                    result.slopes_raw[r] * coeff_scale,
                    xq[r],
                    result.biases_raw[r] * coeff_scale,
                )
                for r in range(self.n_routers)
            ]
        )
        captured = (
            result.captured
            if result.captured is not None
            else np.ones_like(outputs, dtype=bool)
        )
        golden = self.table.evaluate(x)
        corrupted = (outputs != golden) | ~captured
        return FaultedResult(
            outputs=outputs,
            captured=captured,
            corrupted_lanes=corrupted,
            golden=golden,
        )

    def _lifetime_counters(self) -> EventCounters:
        merged = self.noc.merged_counters()
        for bank in self.comparators:
            merged = merged.merge(bank.counters)
        for mac in self.macs:
            merged = merged.merge(mac.counters)
        return merged
