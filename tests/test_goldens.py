"""Golden-trace regression suite: per-preset cycles, counters, error.

Every Table II preset's fixture in ``tests/goldens/`` pins the full
hardware-model trace of a fixed-seed attention layer (cycle-accurate
reference engine) and a fixed-seed KV-cached decode run.  Any drift in
cycle counts, event counters or approximation error fails here; if the
change is intentional, regenerate with

    PYTHONPATH=src python -m tests.regen_goldens

and explain the drift in the commit message.  The trace computation
itself lives in :mod:`tests.regen_goldens` — the test replays exactly
the function the regen script writes with, so fixture and check can
never disagree about the workload.
"""

import json

import pytest

from repro.core.config import PRESETS
from tests.regen_goldens import GOLDEN_DIR, golden_trace

#: Integer/structural fields compared exactly, per section.  The
#: ``decode.paged`` sub-dict pins the block-pool accounting of the same
#: generate run over a paged KV cache — and its ``vector_cycles`` /
#: ``counters``, which must equal the contiguous section's (paging is
#: numerics- and accounting-neutral; the regen script asserts the
#: outputs match bit for bit before writing the fixture).
EXACT_FIELDS = {
    "attention": ("vector_cycles", "nonlinear_queries", "counters"),
    "decode": (
        "prefill_vector_cycles", "vector_cycles", "nonlinear_queries",
        "counters", "paged", "prefix_cached", "speculative",
        "speculative_tree",
    ),
}


def load_golden(preset_name: str) -> dict:
    path = GOLDEN_DIR / f"{preset_name}.json"
    assert path.exists(), (
        f"missing golden fixture {path}; run "
        "`PYTHONPATH=src python -m tests.regen_goldens`"
    )
    return json.loads(path.read_text())


class TestGoldenCoverage:
    def test_every_preset_has_a_fixture(self):
        for name in PRESETS:
            load_golden(name)

    def test_no_stale_fixtures(self):
        stale = {
            p.stem for p in GOLDEN_DIR.glob("*.json")
        } - set(PRESETS)
        assert not stale, f"golden fixtures for unknown presets: {stale}"


@pytest.mark.parametrize("preset_name", sorted(PRESETS))
class TestGoldenTraces:
    def test_trace_matches_fixture(self, preset_name):
        golden = load_golden(preset_name)
        current = golden_trace(preset_name)

        assert current["config"] == golden["config"], (
            f"{preset_name}: the preset geometry itself changed; goldens "
            "must be regenerated alongside it"
        )
        for section, fields in EXACT_FIELDS.items():
            for name in fields:
                assert current[section][name] == golden[section][name], (
                    f"{preset_name}: {section}.{name} drifted from the "
                    f"golden trace ({golden[section][name]} -> "
                    f"{current[section][name]}); if intentional, "
                    "regenerate with `python -m tests.regen_goldens` and "
                    "document why"
                )
        # The approximation error is a float: bit-identical on one
        # machine, but BLAS summation order may vary across platforms,
        # so allow a tight relative band rather than exact equality.
        assert current["attention"]["max_abs_error"] == pytest.approx(
            golden["attention"]["max_abs_error"], rel=1e-6, abs=1e-9
        ), f"{preset_name}: attention max_abs_error drifted"

    def test_paged_decode_accounting_is_neutral(self, preset_name):
        """The fixture's paged run must charge exactly the contiguous
        run's cycles and counters: paging moves K/V rows, nothing else."""
        decode = load_golden(preset_name)["decode"]
        assert decode["paged"]["vector_cycles"] == decode["vector_cycles"]
        assert decode["paged"]["counters"] == decode["counters"]

    def test_speculative_decode_is_sequential_equivalent(self, preset_name):
        """The fixture's speculative run must report a closed-form
        sequential equivalent identical to the plain decode run's cycles
        (speculation repacks work, never changes it), its acceptance
        trace must balance (one committed token per pass plus the
        accepted drafts; rollbacks are the drafted remainder), and the
        paged twin must leak no blocks (rollback frees count exactly
        like eviction frees: allocated - freed == end in_use == 0)."""
        golden = load_golden(preset_name)
        decode = golden["decode"]
        spec = decode["speculative"]
        assert spec["sequential_vector_cycles"] == decode["vector_cycles"]
        from repro.core.speculative import DraftTree

        assert (
            DraftTree.linear(spec["spec_k"]).spec
            == golden["config"]["spec_tree"]
        )
        generated = decode["max_new_tokens"]
        assert spec["verify_passes"] + spec["accepted"] == generated
        assert (
            spec["drafted"] == spec["accepted"] + spec["rolled_back"]
        )
        paged = spec["paged"]
        assert paged["end_in_use"] == 0
        assert paged["end_live_tokens"] == 0
        assert (
            paged["blocks_allocated"] - paged["blocks_freed"]
            == paged["end_in_use"]
        )

    def test_tree_speculative_decode_balances_and_drains(self, preset_name):
        """The fixture's tree-speculative run must obey the same
        contract as the linear chain — sequential equivalent identical
        to plain decode, acceptance trace balanced — with the tree
        twists: the pinned tree spec round-trips, sibling forks show up
        as copy-on-write copies in the paged twin, and every losing
        branch's blocks come home (zero blocks leaked)."""
        golden = load_golden(preset_name)
        decode = golden["decode"]
        spec = decode["speculative_tree"]
        from repro.core.speculative import DraftTree
        from tests.regen_goldens import SPECULATIVE_TREE, TREE_PROGRAM

        assert spec["tree"] == DraftTree.parse(SPECULATIVE_TREE).spec
        assert spec["program"] == "".join(
            "1" if p else "0" for p in TREE_PROGRAM
        )
        assert spec["sequential_vector_cycles"] == decode["vector_cycles"]
        assert spec["verify_passes"] + spec["accepted"] == decode[
            "max_new_tokens"
        ]
        assert spec["drafted"] == spec["accepted"] + spec["rolled_back"]
        paged = spec["paged"]
        assert paged["cow_copies"] > 0  # sibling branches really forked
        assert paged["end_in_use"] == 0
        assert paged["end_live_tokens"] == 0
        assert paged["blocks_allocated"] == paged["blocks_freed"]

    def test_prefix_cached_decode_is_a_pure_residency_win(self, preset_name):
        """The fixture's prefix-cached run must charge exactly the
        uncached cycles/counters per request (sharing is a memory
        optimisation, never a compute change), hold strictly fewer
        blocks at peak than the uncached twin run, and drain the pool
        without leaking or double-freeing a shared block."""
        golden = load_golden(preset_name)
        decode = golden["decode"]
        cached = decode["prefix_cached"]
        assert cached["kv_block_size"] == golden["config"]["kv_block_size"]
        # Request A misses once and registers; B adopts every prefix
        # block A published, so hits cover the full shared prefix.
        assert cached["prefix_hits"] >= cached["prefix_tokens"] // cached[
            "kv_block_size"
        ]
        assert cached["prefix_misses"] >= 1
        assert cached["blocks_shared"] > 0
        assert cached["cow_copies"] == 1  # the fork micro-program's copy
        assert (
            cached["peak_blocks_in_use"]
            < cached["uncached_peak_blocks_in_use"]
        )
        assert cached["end_in_use"] == 0
        assert cached["end_live_tokens"] == 0
        assert cached["blocks_allocated"] == cached["blocks_freed"]

    def test_fixture_workload_is_the_pinned_one(self, preset_name):
        """The fixture must have been generated from the same workload
        constants the replay uses (stale fixtures fail loudly)."""
        from tests.regen_goldens import ATTENTION_WORKLOAD, DECODE_WORKLOAD

        golden = load_golden(preset_name)
        for key, value in ATTENTION_WORKLOAD.items():
            assert golden["attention"][key] == value
        for key, value in DECODE_WORKLOAD.items():
            assert golden["decode"][key] == value


class TestRegenSectionValidation:
    """``--section`` typos must exit 2 with the known-section list, and
    a section the on-disk fixtures do not carry must fail *before* any
    trace is computed — never silently regenerate nothing."""

    def test_unknown_section_exits_2_and_lists_sections(self, capsys):
        from tests import regen_goldens

        assert regen_goldens.main(["--section", "decode.speculatve"]) == 2
        err = capsys.readouterr().err
        assert "unknown section 'decode.speculatve'" in err
        for name in regen_goldens.SECTIONS:
            assert name in err

    def test_unknown_section_never_touches_fixtures(self, capsys,
                                                    monkeypatch, tmp_path):
        from tests import regen_goldens

        monkeypatch.setattr(regen_goldens, "GOLDEN_DIR", tmp_path)
        assert regen_goldens.main(["--section", "nope"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_fixture_exits_2_before_computing(self, capsys,
                                                      monkeypatch, tmp_path):
        from tests import regen_goldens

        monkeypatch.setattr(regen_goldens, "GOLDEN_DIR", tmp_path)
        assert regen_goldens.main(["--section", "decode.paged"]) == 2
        assert "run without --section first" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_schema_drifted_fixture_exits_2_before_computing(
        self, capsys, monkeypatch, tmp_path
    ):
        from tests import regen_goldens

        monkeypatch.setattr(regen_goldens, "GOLDEN_DIR", tmp_path)
        for name in PRESETS:
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"decode": {}}) + "\n"
            )
        assert regen_goldens.main(["--section", "decode.paged"]) == 2
        err = capsys.readouterr().err
        assert "has no 'decode.paged' section" in err
        # Validation ran before any trace compute: fixtures untouched.
        for name in PRESETS:
            assert json.loads(
                (tmp_path / f"{name}.json").read_text()
            ) == {"decode": {}}

    def test_regenerate_rejects_unknown_section(self):
        from tests.regen_goldens import regenerate

        with pytest.raises(ValueError, match="unknown section"):
            regenerate(section="decode.speculatve")
