"""novalint (repro.analysis): per-rule fixtures, suppressions, reporters.

Each NV rule gets one *good* fixture (no finding) and one *bad* fixture
(exactly the expected finding), so a rule that silently stops firing —
or starts over-firing — fails here before it degrades the CI gate.  The
meta-test at the bottom is the gate itself: the shipped source tree must
be clean with **zero** suppressions in the strict-typed packages.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    Finding,
    ModuleContext,
    Rule,
    cli,
    main,
    render_json,
    run_lint,
)
from repro.analysis.engine import module_name_of

REPO = Path(__file__).resolve().parent.parent

RULE_IDS = tuple(rule.rule_id for rule in ALL_RULES)


def lint_source(
    tmp_path: Path, source: str, relpath: str = "snippet.py"
) -> list:
    """Lint one in-memory module; returns its (possibly empty) findings."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    findings, n_files = run_lint([target], ALL_RULES)
    assert n_files == 1
    return findings


def rule_hits(findings: list, rule_id: str) -> list:
    return [
        f for f in findings if f.rule == rule_id and not f.suppressed
    ]


# ----------------------------------------------------------------------
# One good + one bad fixture per rule.
# ----------------------------------------------------------------------

# (rule id, path the fixture pretends to live at, bad source, good source)
FIXTURES = [
    (
        "NV001",
        "snippet.py",
        "import random\nx = random.random()\n",
        "from repro.utils.rng import make_rng\nr = make_rng(0)\n",
    ),
    (
        "NV001",
        "snippet_np.py",
        "import numpy as np\nx = np.random.rand(4)\n",
        "import numpy as np\nr = np.random.default_rng(0)\n",
    ),
    (
        "NV002",
        "repro/core/scheduler.py",
        "def grab(self):\n    return self.pool.allocate(1)\n",
        "def grab(self):\n    return self.cache.append(1)\n",
    ),
    (
        "NV002",
        "repro/core/engine.py",
        "def adopt(self):\n    return self.block_pool.share(3)\n",
        "def adopt(self):\n    return self.cache.adopt_prefix(self.keys)\n",
    ),
    (
        "NV002",
        "repro/serving/router.py",
        "def pin(self):\n"
        "    self.pool.register_prefix(b'k', 3)\n"
        "    self.pool.forget_prefix(3)\n"
        "    return self.pool.lookup_prefix(b'k')\n",
        "def pin(self):\n"
        "    return self.pool.probe_prefix(self.keys)\n",
    ),
    (
        "NV002",
        "repro/core/decode.py",
        "def admit(self):\n"
        "    self.block_pool.reserve_run(self, 4)\n"
        "    self.block_pool.release_run(self)\n",
        "def admit(self):\n"
        "    return ReservedKVCache(self.block_pool, 64)\n",
    ),
    (
        "NV003",
        "snippet.py",
        "def is_half(x):\n    return x == 0.5\n",
        "def is_half(x):\n    return abs(x - 0.5) < 1e-12\n",
    ),
    (
        "NV004",
        "repro/core/session.py",
        'def poke(cfg):\n    object.__setattr__(cfg, "seed", 1)\n',
        'class C:\n    def __post_init__(self):\n'
        '        object.__setattr__(self, "seed", 1)\n',
    ),
    (
        "NV006",
        "repro/core/decode.py",
        "def bump(self):\n    self.pool.blocks_allocated += 1\n",
        "def bump(self):\n    self.blocks_allocated += 1\n",
    ),
    (
        "NV007",
        "snippet.py",
        "class Cache:\n"
        "    def append(self, k):\n"
        '        """Atomic: failed appends leave no trace."""\n'
        "        self.length += 1\n"
        "        if k < 0:\n"
        '            raise ValueError("bad row")\n',
        "class Cache:\n"
        "    def append(self, k):\n"
        '        """Atomic: failed appends leave no trace."""\n'
        "        if k < 0:\n"
        '            raise ValueError("bad row")\n'
        "        self.length += 1\n",
    ),
    (
        "NV008",
        "repro/core/sim.py",
        "import time\n\ndef stamp():\n    return time.time()\n",
        "def stamp(clock):\n    return clock.now_cycles\n",
    ),
    (
        "NV009",
        "repro/core/kernels.py",
        "def table_gather_mac(unit, xs):\n"
        "    out = unit.table.lookup(xs)\n"
        "    unit.counters.add('mac_op', out.size)\n"
        "    unit.noc.charge_broadcasts(1, [out.size])\n"
        "    return out\n",
        "def table_gather_mac(table, xs):\n"
        "    return table.gather_mac(xs)\n",
    ),
]


@pytest.mark.parametrize(
    "rule_id, relpath, bad, good",
    FIXTURES,
    ids=[f"{r}-{Path(p).stem}" for r, p, _, _ in FIXTURES],
)
def test_bad_fixture_fires_exactly(tmp_path, rule_id, relpath, bad, good):
    findings = lint_source(tmp_path, bad, relpath)
    hits = rule_hits(findings, rule_id)
    assert hits, f"{rule_id} failed to fire on its bad fixture"
    for hit in hits:
        assert hit.line >= 1 and hit.col >= 0
        assert hit.message


@pytest.mark.parametrize(
    "rule_id, relpath, bad, good",
    FIXTURES,
    ids=[f"{r}-{Path(p).stem}" for r, p, _, _ in FIXTURES],
)
def test_good_fixture_stays_clean(tmp_path, rule_id, relpath, bad, good):
    findings = lint_source(tmp_path, good, relpath)
    assert not rule_hits(findings, rule_id), (
        f"{rule_id} over-fired on its good fixture: "
        f"{[f.message for f in rule_hits(findings, rule_id)]}"
    )


def test_every_shipped_rule_has_a_fixture():
    covered = {rule_id for rule_id, _, _, _ in FIXTURES}
    assert covered == set(RULE_IDS)


def test_rule_ids_unique_and_well_formed():
    assert len(set(RULE_IDS)) == len(RULE_IDS)
    for rule in ALL_RULES:
        assert rule.rule_id.startswith("NV") and rule.title
        assert rule.severity in ("error", "warning")


# ----------------------------------------------------------------------
# Scoping: rules exempt the module that owns the invariant.
# ----------------------------------------------------------------------


def test_nv006_covers_counter_rows(tmp_path):
    """An int64 event row is a counter too: accumulating it through a
    foreign handle fires, the owner's accounting method passes."""
    bad = (
        "def land(seq, result):\n"
        "    seq.counter_total += result.counter_row\n"
    )
    findings = lint_source(tmp_path, bad, "repro/core/decode.py")
    hits = rule_hits(findings, "NV006")
    assert [hit.line for hit in hits] == [2]
    assert "seq.counter_total" in hits[0].message
    good = (
        "class Sequence:\n"
        "    def charge(self, counter_row):\n"
        "        self.counter_total += counter_row\n"
        "\n"
        "def land(seq, result):\n"
        "    seq.charge(result.counter_row)\n"
    )
    findings = lint_source(tmp_path, good, "repro/core/decode.py")
    assert not rule_hits(findings, "NV006")


def test_nv002_exempt_inside_paging(tmp_path):
    src = "def grab(self):\n    return self.pool.allocate(1)\n"
    findings = lint_source(tmp_path, src, "repro/core/paging.py")
    assert not rule_hits(findings, "NV002")


def test_nv008_only_in_simulation_paths(tmp_path):
    src = "import time\n\ndef stamp():\n    return time.time()\n"
    findings = lint_source(tmp_path, src, "repro/eval/bench.py")
    assert not rule_hits(findings, "NV008")


def test_nv008_covers_the_serving_package(tmp_path):
    # The front door's virtual clock (engine cycle counters) is the
    # only sanctioned time source in repro.serving: a wall-clock call
    # there is a finding, not an exemption.
    src = "import time\n\ndef stamp():\n    return time.time()\n"
    findings = lint_source(tmp_path, src, "repro/serving/frontdoor.py")
    assert rule_hits(findings, "NV008")


def test_module_name_of():
    assert module_name_of(Path("src/repro/core/paging.py")) == (
        "repro.core.paging"
    )
    assert module_name_of(Path("src/repro/core/__init__.py")) == "repro.core"
    assert module_name_of(Path("benchmarks/bench_decode.py")) is None


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------


def test_line_suppression_marks_not_drops(tmp_path):
    src = (
        "import random\n"
        "x = random.random()  # novalint: disable=NV001\n"
        "y = random.random()\n"
    )
    findings = lint_source(tmp_path, src)
    nv001 = [f for f in findings if f.rule == "NV001"]
    assert [f.suppressed for f in sorted(nv001, key=lambda f: f.line)] == [
        True,
        False,
    ]


def test_suppression_is_rule_specific(tmp_path):
    src = "import random\nx = random.random()  # novalint: disable=NV003\n"
    findings = lint_source(tmp_path, src)
    assert rule_hits(findings, "NV001")


def test_disable_all_and_comma_list(tmp_path):
    src = (
        "import random\n"
        "a = random.random()  # novalint: disable=all\n"
        "b = random.random()  # novalint: disable=NV001, NV003\n"
    )
    findings = lint_source(tmp_path, src)
    assert all(f.suppressed for f in findings if f.rule == "NV001")


def test_syntax_error_reports_nv999(tmp_path):
    findings = lint_source(tmp_path, "def broken(:\n")
    assert [f.rule for f in findings] == ["NV999"]
    assert findings[0].severity == "error"


# ----------------------------------------------------------------------
# Reporters and CLI.
# ----------------------------------------------------------------------


def test_json_report_schema(tmp_path):
    src = "import random\nx = random.random()\n"
    (tmp_path / "mod.py").write_text(src, encoding="utf-8")
    findings, n_files = run_lint([tmp_path], ALL_RULES)
    doc = json.loads(render_json(findings, n_files))
    assert doc["version"] == 1
    assert doc["files_checked"] == 1
    assert set(doc["summary"]) == {
        "findings", "suppressed", "errors", "warnings",
    }
    assert doc["summary"]["errors"] >= 1
    entry = doc["findings"][0]
    assert set(entry) >= {
        "rule", "severity", "path", "line", "col", "message", "suppressed",
    }
    assert entry["rule"] == "NV001"


def test_cli_exit_codes_and_output_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert main([str(clean)]) == 0

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main([str(dirty), "--format", "json",
                 "--output", str(report)]) == 1
    capsys.readouterr()
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["summary"]["errors"] >= 1

    assert main([str(tmp_path / "missing_dir")]) == 2


class _TodoRule(Rule):
    """A warning-severity rule for exercising ``--strict``."""

    rule_id = "NV900"
    title = "TODO marker"
    severity = "warning"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) and node.id == "TODO":
                yield ctx.finding(self, node, "TODO left in source")


def test_warning_fails_only_under_strict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ALL_RULES", (*ALL_RULES, _TodoRule()))
    mod = tmp_path / "todo.py"
    mod.write_text("TODO = 1\n", encoding="utf-8")
    assert main([str(mod)]) == 0
    capsys.readouterr()
    assert main([str(mod), "--strict"]) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro/analysis"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error(s)" in proc.stdout


# ----------------------------------------------------------------------
# The gate: the shipped tree is clean, strict packages unsuppressed.
# ----------------------------------------------------------------------


def test_shipped_tree_has_no_unsuppressed_findings():
    findings, n_files = run_lint(
        [REPO / "src", REPO / "benchmarks", REPO / "examples"], ALL_RULES
    )
    assert n_files > 100
    offenders = [f for f in findings if not f.suppressed]
    assert not offenders, "\n".join(
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in offenders
    )


def test_strict_packages_carry_zero_suppressions():
    findings, _ = run_lint(
        [REPO / "src" / "repro" / "core", REPO / "src" / "repro" / "analysis"],
        ALL_RULES,
    )
    assert not findings, (
        "strict-typed packages must be clean without suppressions: "
        + "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}"
            + (" (suppressed)" if f.suppressed else "")
            for f in findings
        )
    )
