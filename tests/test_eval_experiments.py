"""Tests for the experiment harness (table/figure regeneration)."""

import pytest

from repro.core.config import preset
from repro.eval import paper_data
from repro.eval.experiments import (
    ExperimentResult,
    fig6_area_scaling,
    fig7_power_scaling,
    fig8_energy,
    nvdla_duty_cycle_estimate,
    scalability_sweep,
    table2_configs,
    table3_overhead,
    table4_related_work,
)
from repro.eval.report import render_experiment


def ratios(column):
    """Parse '3.34x'-style cells into floats."""
    return [float(str(c).rstrip("x")) for c in column]


@pytest.fixture
def solo_checks(monkeypatch):
    """Labels of every ``_check_solo_exact`` call a study makes."""
    from repro.eval import experiments

    labels = []
    check = experiments._check_solo_exact

    def spy(label, *args, **kwargs):
        labels.append(label)
        return check(label, *args, **kwargs)

    monkeypatch.setattr(experiments, "_check_solo_exact", spy)
    return labels


class TestTable2:
    def test_rows_match_paper_configs(self):
        result = table2_configs()
        assert len(result.rows) == 4
        assert result.column("Accelerator") == [
            "REACT", "TPU v3-like", "TPU v4-like", "Jetson Xavier NX",
        ]

    def test_all_configs_single_cycle(self):
        # §V-A: "all the above NOVA configurations ... having <=10 routers
        # can complete a broadcast traversal within a cycle"
        assert all(table2_configs().column("Single-cycle"))

    def test_two_beats_at_16_breakpoints(self):
        result = table2_configs()
        assert all(b == 2 for b in result.column("Beats"))
        for freq, noc in zip(result.column("Freq (MHz)"),
                             result.column("NoC clock (MHz)")):
            assert noc == 2 * freq  # "2x the frequency of the base"


class TestTable3:
    def test_covers_all_paper_cells(self):
        result = table3_overhead()
        assert len(result.rows) == len(paper_data.TABLE3_OVERHEAD)

    def test_nova_always_smallest(self):
        result = table3_overhead()
        by_acc = {}
        for row in result.rows:
            by_acc.setdefault(row[0], {})[row[1]] = (row[2], row[4])
        for acc, units in by_acc.items():
            nova_area, nova_power = units["nova"]
            for unit, (area, power) in units.items():
                if unit == "nova":
                    continue
                assert nova_area < area, (acc, unit)
                assert nova_power < power, (acc, unit)

    def test_react_area_savings_in_paper_band(self):
        result = table3_overhead()
        cells = {(r[0], r[1]): r[2] for r in result.rows}
        saving_pn = cells[("REACT", "per_neuron_lut")] / cells[("REACT", "nova")]
        saving_pc = cells[("REACT", "per_core_lut")] / cells[("REACT", "nova")]
        # paper: 3.34x and 1.78x — require the right ballpark and ordering
        assert 2.0 < saving_pn < 5.0
        assert 1.2 < saving_pc < 3.5
        assert saving_pn > saving_pc

    def test_tpu_power_savings_exceed_3x(self):
        result = table3_overhead()
        cells = {(r[0], r[1]): r[4] for r in result.rows}
        for acc in ("TPU v3-like", "TPU v4-like"):
            ratio = cells[(acc, "per_core_lut")] / cells[(acc, "nova")]
            assert ratio > 3.0  # paper: >9.4x with their per-core number

    def test_nvdla_power_saving_large(self):
        result = table3_overhead()
        cells = {(r[0], r[1]): r[4] for r in result.rows}
        ratio = (cells[("Jetson Xavier NX", "nvdla_sdp")]
                 / cells[("Jetson Xavier NX", "nova")])
        assert ratio > 10.0  # paper: 37.8x

    def test_raw_mode_differs_from_calibrated(self):
        raw = table3_overhead(calibrated=False)
        cal = table3_overhead(calibrated=True)
        assert raw.rows != cal.rows


class TestFigs67:
    def test_fig6_nova_flattest(self):
        result = fig6_area_scaling()
        nova = result.column("NOVA router")
        pn = result.column("Per-neuron LUT")
        growth_nova = nova[-1] / nova[0]
        growth_pn = pn[-1] / pn[0]
        assert growth_nova < 0.5 * growth_pn

    def test_fig6_savings_grow_with_neurons(self):
        savings = ratios(fig6_area_scaling().column("NOVA saving vs per-neuron"))
        assert savings == sorted(savings)
        assert savings[-1] > 3.0  # paper: avg 3.23x

    def test_fig7_per_core_crossover(self):
        # per-core wins at few neurons, NOVA wins big at many (paper §V-B:
        # NOVA "scales better with neuron count")
        savings = ratios(fig7_power_scaling().column("NOVA saving vs per-core"))
        assert savings[0] < 1.0
        assert savings[-1] > 5.0

    def test_fig7_monotone_curves(self):
        result = fig7_power_scaling()
        for column in ("NOVA router", "Per-neuron LUT", "Per-core LUT"):
            values = result.column(column)
            assert values == sorted(values), column


class TestFig8:
    def test_covers_all_benchmarks_and_hosts(self):
        result = fig8_energy()
        assert len(result.rows) == 3 * 5  # 3 hosts x 5 benchmarks

    def test_seq_lens_follow_paper(self):
        result = fig8_energy()
        for acc, seq in zip(result.column("Accelerator"),
                            result.column("Seq len")):
            assert seq == paper_data.FIG8_SEQ_LEN[acc]

    def test_nova_always_lowest_energy(self):
        result = fig8_energy()
        for row in result.rows:
            nova, pn, pc = row[3], row[4], row[5]
            assert nova < pn and nova < pc

    def test_paper_method_ratios_match_power_ratios(self):
        # under the paper's method the energy ratio equals the Table III
        # power ratio — TPU-v4 rows must exceed 3x (per-neuron) and 5x
        # (per-core)
        result = fig8_energy()
        for row in result.rows:
            if row[0] != "TPU v4-like":
                continue
            pn_ratio = float(str(row[8]).rstrip("x"))
            pc_ratio = float(str(row[9]).rstrip("x"))
            assert pn_ratio > 3.0
            assert pc_ratio > 5.0

    def test_tpu_overhead_percent_small(self):
        # paper §V-F: NOVA's energy overhead on TPU-v4 is ~0.5%
        result = fig8_energy()
        for row in result.rows:
            if row[0].startswith("TPU"):
                assert row[10] < 5.0


class TestOthers:
    def test_scalability_paper_point(self):
        result = scalability_sweep()
        cells = {row[0]: row[1] for row in result.rows}
        assert cells[1.5] == 10  # the §V-A claim

    def test_scalability_monotone(self):
        reach = scalability_sweep().column("Max routers in one cycle")
        assert reach == sorted(reach, reverse=True)

    def test_table4_nova_lane_smaller_than_ibert(self):
        result = table4_related_work()
        cells = {row[0]: row for row in result.rows}
        nova_area = cells["NOVA"][2]
        assert nova_area < cells["I-BERT"][3]  # our lane < I-BERT's paper area
        assert nova_area < cells["NACU"][3]

    def test_nvdla_duty_estimate_low(self):
        assert nvdla_duty_cycle_estimate() < 0.1

    def test_batched_serving_throughput_rows(self):
        from repro.eval.experiments import batched_serving_throughput

        result = batched_serving_throughput(
            model_name="BERT-tiny", batch_size=2, seq_len=16,
            config="jetson-nx",
        )
        assert result.column("Path") == [
            "sequential (cycle-accurate)", "batched (lane-packed)",
        ]
        # the experiment asserts output/cycle equality internally; the
        # table itself must carry positive throughput on both rows
        assert all(r > 0 for r in result.column("Requests/s"))

    def test_paged_decode_utilization_rows(self):
        from repro.eval.experiments import paged_decode_utilization
        from repro.workloads.transformer import TransformerConfig

        model = TransformerConfig(
            "paged-smoke", layers=1, hidden=16, heads=2, intermediate=64,
            seq_len=32, causal=True,
        )
        result = paged_decode_utilization(
            model_name=model, batch_size=4,
            config=preset("jetson-nx").replace(kv_block_size=4),
            pool_pages=2, prompt_lens=(2, 3),
            new_tokens=(1, 2), warmup=False,
        )
        assert result.column("Memory model") == [
            "contiguous pages", "paged KV blocks",
        ]
        contiguous, paged = result.column("Peak concurrent")
        # the experiment asserts bit-exactness internally; the table
        # must show the admission-capacity win at the same byte budget
        assert contiguous == 2
        assert paged > contiguous
        assert result.column("Admission gain")[0] == "1.00x"

    def test_paged_decode_utilization_pool_holds_whole_pages(self):
        """A block size that does not divide the context rounds each
        page up to whole blocks; the pool is sized in those blocks, so
        the contiguous row still admits exactly ``pool_pages``."""
        from repro.eval.experiments import paged_decode_utilization
        from repro.workloads.transformer import TransformerConfig

        model = TransformerConfig(
            "paged-smoke", layers=1, hidden=16, heads=2, intermediate=64,
            seq_len=32, causal=True,
        )
        result = paged_decode_utilization(
            model_name=model, batch_size=4,
            config=preset("jetson-nx").replace(kv_block_size=24),
            pool_pages=3, prompt_lens=(2, 3),
            new_tokens=(1, 2), warmup=False,
        )
        contiguous, paged = result.column("Peak concurrent")
        assert contiguous == 3
        assert paged == 4

    def test_paged_decode_utilization_validation(self):
        from repro.eval.experiments import paged_decode_utilization

        with pytest.raises(ValueError, match="pool_pages"):
            paged_decode_utilization(pool_pages=0)

    def test_prefix_caching_residency_rows(self):
        from repro.eval.experiments import prefix_caching_residency
        from repro.workloads.transformer import TransformerConfig

        model = TransformerConfig(
            "prefix-smoke", layers=1, hidden=8, heads=2, intermediate=32,
            seq_len=64, causal=True,
        )
        result = prefix_caching_residency(
            model_name=model, batch_size=4, prefix_tokens=8,
            suffix_tokens=1, max_new_tokens=2,
            config=preset("jetson-nx").replace(kv_block_size=4),
            warmup=False,
        )
        assert result.column("Memory model") == [
            "paged, no sharing", "paged + prefix cache",
        ]
        plain_peak, cached_peak = result.column("Peak KV slots")
        # bit-exactness is asserted inside the experiment; the table
        # must show the residency win and the sharing counters
        assert cached_peak < plain_peak
        assert result.column("Prefix hits") == [0, 3 * 2]
        assert result.column("Blocks shared")[1] >= 6
        assert result.column("Residency")[0] == "1.00x"
        assert result.column("Residency")[1].endswith("x")

    def test_prefix_caching_residency_validation(self):
        from repro.eval.experiments import prefix_caching_residency

        with pytest.raises(ValueError, match="batch_size"):
            prefix_caching_residency(batch_size=1)
        with pytest.raises(ValueError, match="full block"):
            prefix_caching_residency(
                prefix_tokens=4,
                config=preset("jetson-nx").replace(kv_block_size=8),
            )

    def test_tree_speculation_speedup_rows(self, solo_checks):
        from repro.eval.experiments import tree_speculation_speedup
        from repro.workloads.transformer import TransformerConfig

        model = TransformerConfig(
            "tree-smoke", layers=1, hidden=8, heads=2, intermediate=32,
            seq_len=64, causal=True,
        )
        result = tree_speculation_speedup(
            model_name=model, batch_size=2, prompt_len=4, max_new_tokens=4,
            config="jetson-nx", spec_tree="2x1,1x1", warmup=False,
        )
        assert result.column("Path") == [
            "linear chain (1x4)", "draft tree (2x1,1x1)",
        ]
        assert solo_checks == [
            "speculative decode (linear)", "speculative decode (tree)",
        ]
        assert result.column("vs linear")[0] == "1.00x"

    def test_tree_speculation_defaults_to_its_own_tree(self):
        """The study compares its own default tree with a chain of the
        same node count, never the config's (always linear) spec_tree."""
        from repro.core.config import preset
        from repro.eval.experiments import tree_speculation_speedup
        from repro.workloads.transformer import TransformerConfig

        model = TransformerConfig(
            "tree-smoke", layers=1, hidden=8, heads=2, intermediate=32,
            seq_len=64, causal=True,
        )
        result = tree_speculation_speedup(
            model_name=model, batch_size=1, prompt_len=4, max_new_tokens=2,
            config=preset("jetson-nx").replace(spec_tree="1x2"),
            warmup=False,
        )
        assert result.column("Path") == [
            "linear chain (1x20)", "draft tree (4x1,2x1,1x1)",
        ]

    def test_tree_speculation_speedup_validation(self):
        from repro.eval.experiments import tree_speculation_speedup

        for fidelity in (-0.1, 1.5):
            with pytest.raises(ValueError, match="fidelity"):
                tree_speculation_speedup(fidelity=fidelity)
        with pytest.raises(ValueError, match="max_new_tokens"):
            tree_speculation_speedup(max_new_tokens=0)

    def test_serving_slo_comparison_rows(self, solo_checks):
        from repro.eval.experiments import serving_slo_comparison

        result = serving_slo_comparison(
            n_requests=6, config="jetson-nx", max_active=2,
            policies=("fcfs", "slo-aware"),
        )
        assert result.column("Policy") == ["fcfs", "slo-aware"]
        assert solo_checks == ["policy 'fcfs'", "policy 'slo-aware'"]
        assert all(0.0 <= float(a) <= 1.0 for a in result.column("SLO attain"))

    def test_render_experiment(self):
        text = render_experiment(table2_configs())
        assert "Table II" in text
        assert "REACT" in text
        assert "Notes:" in text

    def test_column_accessor(self):
        result = ExperimentResult("X", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("b") == [2, 4]
        with pytest.raises(KeyError):
            result.column("c")


class TestCli:
    def test_cli_runs_fast_experiments(self, capsys):
        from repro.eval.cli import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_cli_all_without_table1(self, capsys):
        from repro.eval.cli import main

        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert "Fig 8" in out and "Table I:" not in out
