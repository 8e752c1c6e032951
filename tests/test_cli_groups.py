"""Tests for the CLI's experiment registry and group handling."""

import pytest

from repro.eval.cli import (
    EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
    PAPER_EXPERIMENTS,
    main,
)


class TestRegistry:
    def test_paper_experiments_cover_every_table_and_figure(self):
        assert set(PAPER_EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig6", "fig7", "fig8", "scalability",
        }

    def test_extensions_registered(self):
        assert "ablation-breakpoints" in EXTENSION_EXPERIMENTS
        assert "ablation-related-softmax" in EXTENSION_EXPERIMENTS
        assert "sweep-seqlen" in EXTENSION_EXPERIMENTS
        assert "sweep-memory" in EXTENSION_EXPERIMENTS

    def test_no_name_collisions(self):
        assert len(EXPERIMENTS) == len(PAPER_EXPERIMENTS) + len(
            EXTENSION_EXPERIMENTS
        )


class TestMain:
    def test_single_fast_experiment(self, capsys):
        assert main(["scalability"]) == 0
        assert "1.5" in capsys.readouterr().out

    def test_sweeps_group(self, capsys):
        assert main(["sweeps"]) == 0
        out = capsys.readouterr().out
        assert "Sweep S1" in out and "Sweep S2" in out

    def test_all_excludes_table1_and_extensions(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table I:" not in out
        assert "Ablation" not in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_fast_ablation(self, capsys):
        assert main(["ablation-hop"]) == 0
        assert "hop" in capsys.readouterr().out.lower()


class TestGeometryFlags:
    def test_geometries_lists_every_preset(self, capsys):
        from repro.core.config import PRESETS

        assert main(["geometries"]) == 0
        out = capsys.readouterr().out
        for name, cfg in PRESETS.items():
            assert name in out
            assert (cfg.host or "-") in out

    def test_geometry_flag_rejected_for_fixed_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--geometry", "jetson-nx"])
        assert "config-aware" in capsys.readouterr().err

    def test_override_flag_rejected_for_fixed_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["scalability", "--override", "n_routers=4"])
        assert "config-aware" in capsys.readouterr().err

    def test_unknown_geometry_rejected(self):
        with pytest.raises(SystemExit):
            main(["serving-batched", "--geometry", "jetson"])

    def test_bad_override_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serving-batched", "--override", "lanes=4"])
        assert "unknown" in capsys.readouterr().err

    def test_paged_flag_only_applies_to_serve_decode(self, capsys):
        with pytest.raises(SystemExit):
            main(["serving-batched", "--paged"])
        assert "serve-decode" in capsys.readouterr().err

    def test_serve_decode_paged_routes_to_utilization(self, capsys):
        from repro.eval import cli

        seen = {}

        def fake_utilization(config=None):
            seen["config"] = config
            return cli.experiments.ExperimentResult(
                experiment_id="Paged KV", title="stub",
                headers=["Memory model"], rows=[["stub"]],
            )

        original = cli.experiments.paged_decode_utilization
        cli.experiments.paged_decode_utilization = fake_utilization
        try:
            assert main(["serve-decode", "--paged"]) == 0
        finally:
            cli.experiments.paged_decode_utilization = original
        assert "config" in seen
        assert "Paged KV" in capsys.readouterr().out

    def test_speculative_flag_only_applies_to_serve_decode(self, capsys):
        with pytest.raises(SystemExit):
            main(["serving-batched", "--speculative"])
        assert "serve-decode" in capsys.readouterr().err

    def test_paged_and_speculative_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-decode", "--paged", "--speculative"])
        assert "not both" in capsys.readouterr().err

    def test_serve_decode_speculative_routes_to_speedup_study(self, capsys):
        from repro.eval import cli

        seen = {}

        def fake_speedup(config=None):
            seen["config"] = config
            return cli.experiments.ExperimentResult(
                experiment_id="Speculative decode", title="stub",
                headers=["Path"], rows=[["stub"]],
            )

        original = cli.experiments.speculative_decode_speedup
        cli.experiments.speculative_decode_speedup = fake_speedup
        try:
            assert main(["serve-decode", "--speculative"]) == 0
        finally:
            cli.experiments.speculative_decode_speedup = original
        assert "config" in seen
        assert "Speculative decode" in capsys.readouterr().out

    def test_prefix_caching_flag_only_applies_to_serve_decode(self, capsys):
        with pytest.raises(SystemExit):
            main(["serving-batched", "--prefix-caching"])
        assert "serve-decode" in capsys.readouterr().err

    def test_prefix_caching_excludes_the_other_studies(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve-decode", "--paged", "--prefix-caching"])
        assert "not both" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["serve-decode", "--speculative", "--prefix-caching"])
        assert "not both" in capsys.readouterr().err

    def test_serve_decode_prefix_caching_routes_to_residency_study(
        self, capsys
    ):
        from repro.eval import cli

        seen = {}

        def fake_residency(config=None):
            seen["config"] = config
            return cli.experiments.ExperimentResult(
                experiment_id="Prefix caching", title="stub",
                headers=["Memory model"], rows=[["stub"]],
            )

        original = cli.experiments.prefix_caching_residency
        cli.experiments.prefix_caching_residency = fake_residency
        try:
            assert main(["serve-decode", "--prefix-caching"]) == 0
        finally:
            cli.experiments.prefix_caching_residency = original
        assert "config" in seen
        assert "Prefix caching" in capsys.readouterr().out

    def test_serving_batched_accepts_geometry_and_override(self, capsys):
        # tiny workload keeps the cycle-accurate reference loop fast
        from repro.core.config import preset
        from repro.eval import cli

        seen = {}

        def fake_serving(config=None):
            seen["config"] = config
            return cli.experiments.ExperimentResult(
                experiment_id="Serving", title="stub",
                headers=["Path"], rows=[["stub"]],
            )

        original = cli.EXPERIMENTS["serving-batched"]
        cli.EXPERIMENTS["serving-batched"] = fake_serving
        try:
            assert main([
                "serving-batched", "--geometry", "jetson-nx",
                "--override", "n_routers=4",
            ]) == 0
        finally:
            cli.EXPERIMENTS["serving-batched"] = original
        assert seen["config"] == preset("jetson-nx").with_overrides(
            ["n_routers=4"]
        )

    def test_retired_spec_k_override_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-decode", "--override", "spec_k=4"])
        assert exc.value.code == 2
        assert "unknown NovaConfig field 'spec_k'" in capsys.readouterr().err

    def test_retired_prefix_caching_override_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-decode", "--override", "enable_prefix_caching=1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown NovaConfig field 'enable_prefix_caching'" in err

    def test_retired_draft_kind_override_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-decode", "--override", "draft_kind=ngram"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown NovaConfig field 'draft_kind'" in err

    def test_retired_backend_flag_exits_2(self, capsys):
        """``kernel_backend`` is set only through ``--override``; the
        old ``--backend`` shorthand is an unknown argument."""
        with pytest.raises(SystemExit) as exc:
            main(["serve-decode", "--backend", "numpy"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err


def test_docstring_lists_exactly_the_overridable_fields():
    import re

    from repro.core.config import _FIELD_PARSERS
    from repro.eval import cli

    doc = " ".join(cli.__doc__.split())
    listing = doc.split("Overridable fields:", 1)[1].split(".", 1)[0]
    assert re.findall(r"``(\w+)``", listing) == list(_FIELD_PARSERS)
