"""Typed NOVA geometry: one configuration object for every engine.

The paper's Table II defines NOVA as a handful of *named* geometries —
routers x lanes, PE frequency, router pitch — attached to different host
accelerators.  :class:`NovaConfig` makes that geometry a first-class,
serializable artifact instead of six loose kwargs repeated at every
engine constructor:

* **One schema.**  ``n_routers``, ``neurons_per_router``,
  ``pe_frequency_ghz``, ``hop_mm`` (the overlay geometry) plus
  ``n_segments`` and ``seed`` (the compile-time table parameters), all
  validated at construction.
* **Named presets.**  :data:`PRESETS` carries the Table II
  configurations (``"jetson-nx"``, ``"react"``, ``"tpu-v3"``,
  ``"tpu-v4"``), each paired with its host accelerator so
  :meth:`NovaConfig.build_host` can instantiate the matching
  :class:`~repro.accelerators.base.HostAccelerator`.
* **Round-trip serialization.**  :meth:`NovaConfig.to_dict` /
  :meth:`from_dict` (and the JSON twins) let experiment manifests, CLI
  overrides and future multi-geometry fleets treat a geometry as data.

Engines (:class:`~repro.core.vector_unit.NovaVectorUnit`,
:class:`~repro.core.attention.NovaAttentionEngine`,
:class:`~repro.core.decode.NovaDecodeEngine`)
accept a ``NovaConfig`` — or a preset name — as their constructor
argument.  The recommended front door for running anything is
:class:`~repro.core.session.NovaSession`.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any, cast

if TYPE_CHECKING:
    from repro.accelerators import HostAccelerator
    from repro.approx.quantize import QuantizedPwl
    from repro.core.mapper import BroadcastSchedule
    from repro.eval.paper_data import AcceleratorConfig

__all__ = [
    "NovaConfig",
    "PRESETS",
    "preset",
    "as_config",
    "GEOMETRY_FIELDS",
    "ENGINE_FIELDS",
    "parse_tree_spec",
]

#: The overlay-geometry fields (what a :class:`NovaVectorUnit` needs).
GEOMETRY_FIELDS = (
    "n_routers", "neurons_per_router", "pe_frequency_ghz", "hop_mm",
)

#: Geometry plus the compile-time table parameters (what the attention
#: engines need).
ENGINE_FIELDS = GEOMETRY_FIELDS + ("n_segments", "seed")

#: Fields an override string may set, with their value parsers.
_FIELD_PARSERS: dict[str, Callable[[str], object]] = {
    "n_routers": int,
    "neurons_per_router": int,
    "pe_frequency_ghz": float,
    "hop_mm": float,
    "n_segments": int,
    "seed": int,
    "kv_block_size": int,
    "spec_tree": str,
    "kernel_backend": str,
    "host": lambda s: None if s.lower() in ("", "none", "null") else s,
}


#: Safety cap on draft-tree size: the sum of nodes over every level of a
#: ``spec_tree`` may not exceed this (a runaway ``"4x8"`` would plan
#: 87k provisional tokens per pass).  Far above any tree that pays off.
MAX_TREE_NODES = 256


def parse_tree_spec(spec: str) -> tuple[int, ...]:
    """Parse a draft-tree spec into per-level branching widths.

    The spec is comma-separated ``WIDTHxCOUNT`` segments (a bare
    ``WIDTH`` means ``WIDTHx1``): ``"2x2"`` branches twice at width 2,
    ``"1x4"`` is a linear chain of four drafts (the degenerate tree),
    ``"3,1x3"`` tries three alternatives for the first draft and extends
    each survivor linearly for three more.
    Level ``i`` of the returned tuple is how many alternative drafts
    every surviving branch proposes at depth ``i + 1``.  The full tree
    (every level's node count is the product of the widths so far) is
    capped at :data:`MAX_TREE_NODES` nodes.
    """
    if not isinstance(spec, str):
        raise TypeError(
            f"tree spec must be a str, got {type(spec).__name__}"
        )
    widths: list[int] = []
    for segment in spec.split(","):
        segment = segment.strip()
        if not segment:
            raise ValueError(
                f"empty segment in tree spec {spec!r}; expected "
                "comma-separated WIDTHxCOUNT segments like '2x2,1x4'"
            )
        width_text, sep, count_text = segment.partition("x")
        try:
            if sep and not count_text:
                raise ValueError(segment)
            width = int(width_text)
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(
                f"malformed tree-spec segment {segment!r} in {spec!r}; "
                "expected WIDTHxCOUNT (e.g. '2x2') or a bare WIDTH"
            ) from None
        if width < 1 or count < 1:
            raise ValueError(
                f"tree-spec widths and counts must be >= 1, got "
                f"{segment!r} in {spec!r}"
            )
        widths.extend([width] * count)
    if not widths:
        raise ValueError("tree spec must name at least one level")
    nodes = 0
    level = 1
    for width in widths:
        level *= width
        nodes += level
        if nodes > MAX_TREE_NODES:
            raise ValueError(
                f"tree spec {spec!r} plans more than {MAX_TREE_NODES} "
                "nodes; use narrower widths or fewer levels"
            )
    return tuple(widths)


@dataclass(frozen=True)
class NovaConfig:
    """One NOVA overlay configuration (a Table II row, as data).

    Defaults are the TPU v4-like operating point (8 routers x 128
    lanes at 1.4 GHz, 0.5 mm pitch, 16-segment tables) — the same
    defaults the engines have always had.

    ``host`` optionally names the Table II host accelerator the geometry
    belongs to (a :func:`repro.accelerators.build_accelerator` key);
    :meth:`build_host` instantiates it.  ``seed`` seeds the compile-time
    MLP table training; units built from an explicit, pre-compiled table
    ignore it.  ``kv_block_size`` is the decode memory layer's paged-KV
    granularity — tokens per :class:`repro.core.paging.BlockPool` block
    (presets size it to their on-chip memory: small hosts get small
    blocks so short requests waste fewer slots, large hosts amortise
    block-table overhead with bigger blocks).  It is the one home of the
    block size: every serving run's pool uses it, under either
    reservation policy, and a run that wants another granularity builds
    its engine from ``config.replace(kv_block_size=N)``.  It never
    affects numerics, cycles or counters — only where K/V rows live.
    Per-run serving choices (paged reservation, prefix caching, pool
    budgets) are call arguments of the serving surfaces, not fields.

    ``spec_tree`` is the speculative-decode default
    (:mod:`repro.core.speculative`): the draft tree one verification
    pass carries (:func:`parse_tree_spec` syntax — ``"1x4"`` is a linear
    chain of four drafts, ``"2x2,1x4"`` scores two alternative drafts at
    each of the first two depths in the same packed pass; wider overlays
    amortise deeper trees, so the presets carry ``"1x4"`` or ``"1x8"``).
    The draft model is not a field: it is a per-call argument, and the
    default is the exact-LUT draft.  Like ``kv_block_size``, the tree
    never changes what tokens are generated — speculative decode is
    bit-exact against plain decode by construction — only how many
    overlay passes it takes to generate them.

    ``kernel_backend`` names the kernel path, and ``"numpy"`` is its
    only legal value: :mod:`repro.core.kernels` is one pure numpy path.
    The field remains so configs and override strings that pin it keep
    parsing; any other name raises ``ValueError``.
    """

    n_routers: int = 8
    neurons_per_router: int = 128
    pe_frequency_ghz: float = 1.4
    hop_mm: float = 0.5
    n_segments: int = 16
    seed: int = 0
    kv_block_size: int = 16
    spec_tree: str = "1x4"
    kernel_backend: str = "numpy"
    host: str | None = None

    def __post_init__(self) -> None:
        for name in ("n_routers", "neurons_per_router", "n_segments",
                     "kv_block_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}"
                )
            object.__setattr__(self, name, int(value))
            # a compiled table needs at least one breakpoint
            floor = 2 if name == "n_segments" else 1
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise TypeError(
                f"seed must be an int, got {type(self.seed).__name__}"
            )
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("pe_frequency_ghz", "hop_mm"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise TypeError(
                    f"{name} must be a number, got {type(value).__name__}"
                )
            object.__setattr__(self, name, float(value))
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        parse_tree_spec(self.spec_tree)  # raises on a malformed spec
        if not isinstance(self.kernel_backend, str):
            raise TypeError(
                "kernel_backend must be a backend name (str), got "
                f"{type(self.kernel_backend).__name__}"
            )
        if self.kernel_backend != "numpy":
            raise ValueError(
                f"unknown kernel_backend {self.kernel_backend!r}; "
                "the only kernel path is 'numpy'"
            )
        if self.host is not None and not isinstance(self.host, str):
            raise TypeError(
                "host must be an accelerator name (str) or None, got "
                f"{type(self.host).__name__}"
            )

    # ------------------------------------------------------------------
    # Derived geometry.
    # ------------------------------------------------------------------

    @property
    def n_lanes(self) -> int:
        """Total approximator lanes (``routers x neurons``)."""
        return self.n_routers * self.neurons_per_router

    @property
    def lane_shape(self) -> tuple[int, int]:
        """The lane grid ``(n_routers, neurons_per_router)``."""
        return (self.n_routers, self.neurons_per_router)

    def schedule(self, n_pairs: int | None = None) -> "BroadcastSchedule":
        """The (cached) broadcast plan for this geometry.

        ``n_pairs`` defaults to ``n_segments``; the returned
        :class:`~repro.core.mapper.BroadcastSchedule` comes from the
        process-wide schedule cache, so identical geometries share one
        frozen object.
        """
        from repro.core.mapper import NovaMapper

        return NovaMapper().schedule(
            n_routers=self.n_routers,
            pe_frequency_ghz=self.pe_frequency_ghz,
            n_pairs=self.n_segments if n_pairs is None else n_pairs,
            hop_mm=self.hop_mm,
        )

    def table(self, function: str) -> "QuantizedPwl":
        """The compiled (process-wide cached) PWL table for ``function``."""
        from repro.approx.table_cache import compiled_table

        return compiled_table(
            function, n_segments=self.n_segments, seed=self.seed
        )

    def build_host(self) -> "HostAccelerator":
        """Instantiate this configuration's host accelerator.

        Raises ``ValueError`` when the configuration names no host.
        """
        if self.host is None:
            raise ValueError(
                "this NovaConfig names no host accelerator; set host= to a "
                "repro.accelerators.build_accelerator key"
            )
        from repro.accelerators import build_accelerator

        return build_accelerator(self.host)

    # ------------------------------------------------------------------
    # Serialization and derivation.
    # ------------------------------------------------------------------

    def replace(self, **changes: object) -> "NovaConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **cast("dict[str, Any]", changes))

    def to_dict(self) -> dict[str, object]:
        """A plain-JSON-types dict holding every field."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "NovaConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - field_names)
        if unknown:
            raise ValueError(
                f"unknown NovaConfig field(s) {unknown}; "
                f"known: {sorted(field_names)}"
            )
        return cls(**cast("dict[str, Any]", dict(data)))

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict` (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NovaConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def with_overrides(
        self, overrides: Iterable[str] | Mapping[str, object]
    ) -> "NovaConfig":
        """Apply ``FIELD=VALUE`` override strings (the CLI's ``--override``).

        ``overrides`` is either a mapping of field name to value or an
        iterable of ``"field=value"`` strings; values are parsed to the
        field's type (``"none"`` clears ``host``).
        """
        if isinstance(overrides, Mapping):
            items = list(overrides.items())
        else:
            items = []
            for text in overrides:
                key, sep, raw = str(text).partition("=")
                if not sep or not key:
                    raise ValueError(
                        f"override {text!r} is not of the form FIELD=VALUE"
                    )
                items.append((key.strip(), raw.strip()))
        changes: dict[str, object] = {}
        for key, raw in items:
            parser = _FIELD_PARSERS.get(key)
            if parser is None:
                raise ValueError(
                    f"unknown NovaConfig field {key!r}; "
                    f"known: {sorted(_FIELD_PARSERS)}"
                )
            try:
                changes[key] = parser(raw) if isinstance(raw, str) else raw
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"bad value {raw!r} for NovaConfig field {key!r}: {exc}"
                ) from None
        return self.replace(**changes)

    @classmethod
    def from_accelerator(
        cls,
        accelerator: "AcceleratorConfig",
        n_segments: int = 16,
        seed: int = 0,
    ) -> "NovaConfig":
        """Geometry of one Table II row
        (:class:`repro.eval.paper_data.AcceleratorConfig`)."""
        return cls(
            n_routers=accelerator.n_routers,
            neurons_per_router=accelerator.neurons_per_router,
            pe_frequency_ghz=accelerator.frequency_ghz,
            hop_mm=accelerator.hop_mm,
            n_segments=n_segments,
            seed=seed,
            host=accelerator.name,
        )


#: The Table II geometries by preset name.  Numbers mirror
#: :data:`repro.eval.paper_data.TABLE2_CONFIGS` (a test pins the two in
#: sync); ``host`` links each preset to its accelerator factory.
PRESETS: dict[str, NovaConfig] = {
    "jetson-nx": NovaConfig(
        n_routers=2, neurons_per_router=16, pe_frequency_ghz=1.4,
        hop_mm=0.5, kv_block_size=16,
        spec_tree="1x4", host="Jetson Xavier NX",
    ),
    "react": NovaConfig(
        n_routers=10, neurons_per_router=256, pe_frequency_ghz=0.24,
        hop_mm=1.0, kv_block_size=64,
        spec_tree="1x8", host="REACT",
    ),
    "tpu-v3": NovaConfig(
        n_routers=4, neurons_per_router=128, pe_frequency_ghz=1.4,
        hop_mm=0.5, kv_block_size=32,
        spec_tree="1x4", host="TPU v3-like",
    ),
    "tpu-v4": NovaConfig(
        n_routers=8, neurons_per_router=128, pe_frequency_ghz=1.4,
        hop_mm=0.5, kv_block_size=32,
        spec_tree="1x8", host="TPU v4-like",
    ),
}


def preset(name: str) -> NovaConfig:
    """Look up a named Table II geometry from :data:`PRESETS`."""
    try:
        return PRESETS[name]
    except KeyError:
        available = ", ".join(sorted(PRESETS))
        raise KeyError(
            f"unknown geometry preset {name!r}; available: {available}"
        ) from None


def as_config(
    config: "NovaConfig | str | Mapping[str, object] | None",
) -> NovaConfig:
    """Coerce a config-ish value: ``None`` (defaults), a preset name,
    a mapping (:meth:`NovaConfig.from_dict`) or a ``NovaConfig``."""
    if config is None:
        return NovaConfig()
    if isinstance(config, NovaConfig):
        return config
    if isinstance(config, str):
        return preset(config)
    if isinstance(config, Mapping):
        return NovaConfig.from_dict(config)
    raise TypeError(
        "config must be a NovaConfig, a preset name, a mapping or None; "
        f"got {type(config).__name__}"
    )
