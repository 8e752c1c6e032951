"""Command-line entry point: regenerate any paper table/figure.

Installed as ``nova-repro``::

    nova-repro table2            # one experiment
    nova-repro all               # every paper table/figure except Table I
    nova-repro all --with-table1 # the full paper evaluation
    nova-repro ablations         # the A1-A6 design-knob studies
    nova-repro sweeps            # the S1-S2 extension sweeps
    nova-repro geometries        # list the Table II geometry presets

    nova-repro serving-batched   # batched full-prefill attention serving
    nova-repro serve-decode      # KV-cached continuous-batching decode
    nova-repro serve-decode --paged  # paged-KV admission capacity study
    nova-repro serve-decode --speculative  # draft-and-verify speedup study
    nova-repro serve-decode --prefix-caching  # shared-prefix residency study
    nova-repro serve-async       # async front door: policies vs SLOs
    nova-repro serve-async --paged  # same trace, paged-KV memory mode

    nova-repro lint              # novalint static analysis (NV001-NV009)
    nova-repro lint --strict --format json  # the CI gate invocation

Geometry selection
------------------
Config-aware experiments (``serving-batched``, ``serve-decode``) take
their overlay geometry as a :class:`repro.core.config.NovaConfig`.  Pick a
Table II preset with ``--geometry`` — one of ``jetson-nx`` (2 routers x
16 lanes @ 1.4 GHz), ``react`` (10 x 256 @ 0.24 GHz), ``tpu-v3``
(4 x 128 @ 1.4 GHz) or ``tpu-v4`` (8 x 128 @ 1.4 GHz) — and adjust any
field with repeatable ``--override FIELD=VALUE`` flags::

    nova-repro serving-batched --geometry jetson-nx --override n_routers=16
    nova-repro serving-batched --override hop_mm=1.0 --override n_segments=8

Overridable fields: ``n_routers``, ``neurons_per_router``,
``pe_frequency_ghz``, ``hop_mm``, ``n_segments``, ``seed``,
``kv_block_size``, ``spec_tree``, ``kernel_backend``, ``host``.
``nova-repro geometries`` prints every preset with its
geometry and host accelerator.  Passing ``--geometry``/``--override``
to an experiment that has a fixed, paper-defined geometry is an error.

``kernel_backend`` has one legal value, ``numpy``: the kernels are one
pure numpy path (:mod:`repro.core.kernels`), and any other name exits 2.

``serve-decode --paged`` swaps the throughput harness for the paged-KV
memory-utilization study
(:func:`repro.eval.experiments.paged_decode_utilization`): contiguous
worst-case pages vs fixed-size blocks from one shared pool, compared at
the same pool byte budget (``--override kv_block_size=N`` picks the
block granularity).  ``serve-decode --speculative`` swaps in the
draft-and-verify study
(:func:`repro.eval.experiments.speculative_decode_speedup`): plain vs
speculative decode, solo and continuously batched, bit-identical tokens
on every path (``--override spec_tree=1xN`` picks the draft depth).
``serve-decode --prefix-caching`` swaps in the shared-prefix residency
study (:func:`repro.eval.experiments.prefix_caching_residency`): a
batch of requests sharing one prompt prefix served with the prefix
index off and on, bit-identical outputs both ways, the win reported as
peak pool residency (``--override kv_block_size=N`` picks the block
granularity).

``serve-async`` runs the scheduling-policy comparison
(:func:`repro.eval.experiments.serving_slo_comparison`): one seeded
bursty heavy-tailed trace served through the async front door
(:mod:`repro.serving`) under every policy — FCFS, priority-preemptive,
SLO-aware, tenant-fair — reporting TTFT percentiles, goodput and SLO
attainment on the deterministic virtual clock, with per-request outputs
checked bit-identical to solo generation.  ``--paged`` serves the same
trace in the paged-KV memory mode.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable

from repro.core.config import NovaConfig, PRESETS, preset
from repro.eval import ablations, experiments, sweeps
from repro.eval.report import render_experiment

__all__ = ["main"]

#: The paper's own tables and figures.
PAPER_EXPERIMENTS: dict[str, Callable[[], experiments.ExperimentResult]] = {
    "table1": experiments.table1_accuracy,
    "table2": experiments.table2_configs,
    "table3": experiments.table3_overhead,
    "table4": experiments.table4_related_work,
    "fig6": experiments.fig6_area_scaling,
    "fig7": experiments.fig7_power_scaling,
    "fig8": experiments.fig8_energy,
    "scalability": experiments.scalability_sweep,
}

#: Extension studies (see EXPERIMENTS.md).
EXTENSION_EXPERIMENTS: dict[str, Callable[[], experiments.ExperimentResult]] = {
    "ablation-breakpoints": ablations.ablation_breakpoints,
    "ablation-fit": ablations.ablation_fit_strategy,
    "ablation-fixedpoint": ablations.ablation_fixed_point,
    "ablation-reload": ablations.ablation_table_reload,
    "ablation-hop": ablations.ablation_hop_length,
    "ablation-utilization": ablations.ablation_utilization,
    "ablation-related-softmax": ablations.related_softmax_comparison,
    "ablation-topology": ablations.ablation_topology,
    "sweep-seqlen": sweeps.seq_len_sweep,
    "sweep-memory": sweeps.memory_energy_sweep,
    "sweep-lanes": sweeps.lane_sizing_sweep,
    "serving-batched": experiments.batched_serving_throughput,
    "serve-decode": experiments.decode_serving_throughput,
    "serve-async": experiments.serving_slo_comparison,
}

EXPERIMENTS: dict[str, Callable[[], experiments.ExperimentResult]] = {
    **PAPER_EXPERIMENTS,
    **EXTENSION_EXPERIMENTS,
}

#: Experiments that accept a ``config=NovaConfig`` kwarg, with the
#: preset each defaults to when only ``--override`` is given.
CONFIGURABLE_EXPERIMENTS: dict[str, str] = {
    "serving-batched": "jetson-nx",
    "serve-decode": "jetson-nx",
    "serve-async": "jetson-nx",
}


def render_geometries() -> str:
    """The ``nova-repro geometries`` listing: every preset, one line."""
    lines = ["Geometry presets (repro.core.config.PRESETS):", ""]
    header = (
        f"  {'name':<10} {'routers':>7} {'neurons':>7} {'PE GHz':>7} "
        f"{'hop mm':>7} {'segments':>8}  host accelerator"
    )
    lines.append(header)
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        lines.append(
            f"  {name:<10} {cfg.n_routers:>7} {cfg.neurons_per_router:>7} "
            f"{cfg.pe_frequency_ghz:>7.2f} {cfg.hop_mm:>7.2f} "
            f"{cfg.n_segments:>8}  {cfg.host or '-'}"
        )
    lines.append("")
    lines.append(
        "Use with a config-aware experiment, e.g.:\n"
        "  nova-repro serving-batched --geometry jetson-nx "
        "--override n_routers=16"
    )
    return "\n".join(lines)


def _resolve_config(
    names: list[str],
    geometry: str | None,
    overrides: list[str],
    parser: argparse.ArgumentParser,
) -> NovaConfig | None:
    """Build the run's NovaConfig, or None when no flags were given."""
    if geometry is None and not overrides:
        return None
    unsupported = [n for n in names if n not in CONFIGURABLE_EXPERIMENTS]
    if unsupported:
        parser.error(
            f"--geometry/--override only apply to config-aware experiments "
            f"({', '.join(sorted(CONFIGURABLE_EXPERIMENTS))}); "
            f"got: {', '.join(unsupported)}"
        )
    base = geometry if geometry is not None else (
        CONFIGURABLE_EXPERIMENTS[names[0]]
    )
    try:
        return preset(base).with_overrides(overrides)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))


def _lint_main(argv: list[str]) -> int:
    """The ``nova-repro lint`` subcommand (novalint front end).

    Imported lazily so the experiment paths never pay for it; the
    argument surface is defined once in :mod:`repro.analysis.cli` and
    shared with ``python -m repro.analysis``.
    """
    from repro.analysis.cli import add_lint_arguments, run_from_args

    parser = argparse.ArgumentParser(
        prog="nova-repro lint",
        description=(
            "novalint: AST invariant analyzer for the NOVA stack "
            "(rules NV001-NV009; see README 'Static analysis')."
        ),
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


def main(argv: list[str] | None = None) -> int:
    """Run one or all experiments and print their reports."""
    args_in = list(sys.argv[1:]) if argv is None else list(argv)
    if args_in and args_in[0] == "lint":
        return _lint_main(args_in[1:])
    argv = args_in
    parser = argparse.ArgumentParser(
        prog="nova-repro",
        description=(
            "Regenerate the NOVA paper's tables and figures.  "
            "('nova-repro lint' runs the novalint static analyzer; "
            "see 'nova-repro lint --help'.)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "ablations", "sweeps",
                                       "geometries"],
        help="which table/figure (or group) to regenerate; 'geometries' "
             "lists the NovaConfig presets",
    )
    parser.add_argument(
        "--with-table1",
        action="store_true",
        help="include Table I (trains the model zoo; ~1 minute) in 'all'",
    )
    parser.add_argument(
        "--geometry",
        choices=sorted(PRESETS),
        help="overlay geometry preset for config-aware experiments "
             "(see 'nova-repro geometries')",
    )
    parser.add_argument(
        "--override",
        metavar="FIELD=VALUE",
        action="append",
        default=[],
        help="override one NovaConfig field, e.g. n_routers=16 "
             "(repeatable; config-aware experiments only)",
    )
    parser.add_argument(
        "--paged",
        action="store_true",
        help="with serve-decode: run the paged-KV admission-capacity "
             "study (contiguous pages vs block pool at a fixed byte "
             "budget) instead of the throughput harness; with "
             "serve-async: serve the policy-comparison trace in the "
             "paged-KV memory mode",
    )
    parser.add_argument(
        "--speculative",
        action="store_true",
        help="with serve-decode: run the speculative draft-and-verify "
             "study (plain vs speculative decode, solo and continuously "
             "batched; --override spec_tree=1xN picks the draft "
             "depth) instead of the throughput harness",
    )
    parser.add_argument(
        "--speculative-tree",
        metavar="SPEC",
        help="with serve-decode: run the tree-speculation study (a "
             "draft tree, e.g. 4x1,2x1,1x1, vs a linear chain staking "
             "the same number of provisional tokens per verification "
             "pass) instead of the throughput harness",
    )
    parser.add_argument(
        "--prefix-caching",
        action="store_true",
        help="with serve-decode: run the shared-prefix residency study "
             "(the same batch served with the prefix index off and on, "
             "bit-identical outputs, the win measured in peak pool "
             "residency) instead of the throughput harness",
    )
    args = parser.parse_args(argv)

    if args.paged and args.experiment not in ("serve-decode", "serve-async"):
        parser.error("--paged only applies to serve-decode/serve-async")
    if args.speculative and args.experiment != "serve-decode":
        parser.error("--speculative only applies to serve-decode")
    if args.speculative_tree is not None and args.experiment != "serve-decode":
        parser.error("--speculative-tree only applies to serve-decode")
    if args.prefix_caching and args.experiment != "serve-decode":
        parser.error("--prefix-caching only applies to serve-decode")
    if sum(
        (
            args.paged,
            args.speculative,
            args.speculative_tree is not None,
            args.prefix_caching,
        )
    ) > 1:
        parser.error(
            "pass --paged, --speculative, --speculative-tree or "
            "--prefix-caching, not both (one study at a time)"
        )

    if args.experiment == "geometries":
        print(render_geometries())
        return 0

    if args.experiment == "all":
        names = [n for n in sorted(PAPER_EXPERIMENTS) if n != "table1"]
        if args.with_table1:
            names.insert(0, "table1")
    elif args.experiment == "ablations":
        names = sorted(n for n in EXTENSION_EXPERIMENTS if n.startswith("abl"))
    elif args.experiment == "sweeps":
        names = sorted(n for n in EXTENSION_EXPERIMENTS if n.startswith("sweep"))
    else:
        names = [args.experiment]

    config = _resolve_config(names, args.geometry, args.override, parser)

    for name in names:
        runner = EXPERIMENTS[name]
        if name == "serve-decode" and args.paged:
            runner = experiments.paged_decode_utilization
        elif name == "serve-decode" and args.speculative:
            runner = experiments.speculative_decode_speedup
        elif name == "serve-decode" and args.speculative_tree is not None:
            runner = functools.partial(
                experiments.tree_speculation_speedup,
                spec_tree=args.speculative_tree,
            )
        elif name == "serve-decode" and args.prefix_caching:
            runner = experiments.prefix_caching_residency
        elif name == "serve-async" and args.paged:
            runner = functools.partial(
                experiments.serving_slo_comparison, paged=True
            )
        if config is not None and name in CONFIGURABLE_EXPERIMENTS:
            result = runner(config=config)
        else:
            result = runner()
        print(render_experiment(result))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
