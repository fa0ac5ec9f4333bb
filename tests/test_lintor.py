"""Tests for lintor, the repo-aware static analyzer (``repro lint``).

Three layers:

* **Fixture corpus** (``tests/lintor_fixtures/``): each rule fires on its
  known-bad snippet at exact locations and stays silent on the known-good
  twin.
* **Repo enforcement**: the committed baseline matches a fresh run over
  ``src/repro`` (and is empty — the debt was paid), and the guarded-by
  annotations in the real sources are live: stripping a lock from
  ``sharding.py``/``api.py``/``backends/sqlite.py`` makes R002 fire.
* **CLI**: exit codes for clean runs, new findings, stale baselines, and
  the shrink-only ``--write-baseline`` refusal.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    analyze_paths,
    analyze_source,
    compare_to_baseline,
    load_baseline,
    write_baseline,
)
from repro.cli import main
from repro.utils.validation import ValidationError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lintor_fixtures"
BASELINE = REPO_ROOT / "tools" / "lintor_baseline.json"


def analyze_fixture(name: str, relpath: str | None = None):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return analyze_source(source, relpath or name)


def rule_lines(findings, rule: str) -> list[int]:
    return [f.line for f in findings if f.rule == rule]


class TestRuleFixtures:
    """Each rule fires on its bad fixture at exact lines, never on the good."""

    def test_r001_event_loop_blocking(self):
        findings = analyze_fixture("r001_bad.py")
        assert rule_lines(findings, "R001") == [10, 11, 12, 14, 17]
        assert analyze_fixture("r001_good.py") == []

    def test_r001_messages_carry_fixits(self):
        findings = analyze_fixture("r001_bad.py")
        assert any("asyncio.sleep" in f.fixit for f in findings)
        assert any("run_in_executor" in f.fixit for f in findings)

    def test_r002_guarded_by(self):
        findings = analyze_fixture("r002_bad.py")
        assert rule_lines(findings, "R002") == [13, 17, 20, 29]
        assert analyze_fixture("r002_good.py") == []

    def test_r002_distinguishes_lock_and_loop_guards(self):
        findings = analyze_fixture("r002_bad.py")
        by_line = {f.line: f.message for f in findings}
        assert "guarded-by _lock" in by_line[13]
        assert "guarded-by event-loop" in by_line[20]
        assert "handed to a thread/executor" in by_line[29]

    def test_r003_strict_json(self):
        # Analyzed under a wire-facing relpath so the loads clause applies.
        findings = analyze_fixture("r003_bad.py", "platform/client.py")
        assert rule_lines(findings, "R003") == [12, 16, 20, 24]
        assert analyze_fixture("r003_good.py", "platform/client.py") == []

    def test_r003_loads_clause_is_wire_scoped(self):
        # The same lax loads outside a wire-facing module only trips the
        # dumps clause — raw loads of trusted local data is not the target.
        findings = analyze_fixture("r003_bad.py", "simulation/chat.py")
        assert rule_lines(findings, "R003") == [12, 16, 20]

    def test_r004_typed_errors(self):
        findings = analyze_fixture("r004_bad.py", "platform/r004_bad.py")
        assert rule_lines(findings, "R004") == [9, 15, 22]
        assert analyze_fixture("r004_good.py", "platform/r004_good.py") == []

    def test_r004_scope_is_platform_and_loadgen(self):
        assert analyze_fixture("r004_bad.py", "loadgen/r004_bad.py") != []
        assert analyze_fixture("r004_bad.py", "core/r004_bad.py") == []

    def test_r005_resource_safety(self):
        findings = analyze_fixture("r005_bad.py")
        assert rule_lines(findings, "R005") == [8, 13, 18]
        assert analyze_fixture("r005_good.py") == []

    def test_r006_frame_versioning(self):
        findings = analyze_fixture("r006_bad.py")
        assert rule_lines(findings, "R006") == [3, 4, 14]
        assert analyze_fixture("r006_good.py") == []

    def test_syntax_error_is_an_r000_finding(self):
        findings = analyze_source("def broken(:\n", "broken.py")
        assert [f.rule for f in findings] == ["R000"]
        assert "does not parse" in findings[0].message


class TestPragmas:
    def test_disable_with_reason_suppresses(self):
        findings = analyze_fixture("r000_pragma.py")
        # Line 19's pragma carries a reason: its R003 is suppressed and no
        # R000 is emitted for it.
        assert 19 not in rule_lines(findings, "R003")
        assert 19 not in rule_lines(findings, "R000")

    def test_disable_without_reason_is_r000_and_does_not_suppress(self):
        findings = analyze_fixture("r000_pragma.py")
        assert rule_lines(findings, "R000") == [7, 11, 15]
        # The malformed pragmas suppress nothing: the R003s still fire.
        assert rule_lines(findings, "R003") == [7, 11, 15]

    def test_disable_only_covers_named_rules(self):
        source = (
            "import json\n"
            "def f(p):\n"
            "    return json.dumps(p)  # lintor: disable=R001 reason=wrong rule\n"
        )
        findings = analyze_source(source, "x.py")
        assert rule_lines(findings, "R003") == [3]


class TestRepoEnforcement:
    """The analyzer is live against the real sources, not just fixtures."""

    def test_repo_is_clean_and_baseline_fresh(self):
        findings = analyze_paths([REPO_ROOT / "src" / "repro"], REPO_ROOT)
        baseline = load_baseline(BASELINE)
        delta = compare_to_baseline(findings, baseline)
        assert delta.new == [], [f.render() for f in delta.new]
        assert delta.stale == [], [f.render() for f in delta.stale]

    def test_committed_baseline_is_empty(self):
        # Every finding the initial sweep surfaced was fixed, not baselined;
        # the ratchet starts (and should stay) at zero.
        assert load_baseline(BASELINE) == []

    @pytest.mark.parametrize(
        "relpath, lock",
        [
            ("src/repro/platform/placement.py", "_lock"),
            ("src/repro/platform/api.py", "_lock"),
            ("src/repro/platform/backends/sqlite.py", "_lock"),
            ("src/repro/platform/server.py", "_cond"),
        ],
    )
    def test_guarded_by_annotations_are_enforced(self, relpath, lock):
        """Stripping the lock from the real source must make R002 fire —
        proof the annotations guard actual accesses, not dead comments."""
        source = (REPO_ROOT / relpath).read_text(encoding="utf-8")
        assert analyze_source(source, relpath) == []
        broken = source.replace(f"with self.{lock}:", "if True:")
        broken = broken.replace(f"with self.{lock}, ", "with ")
        assert broken != source, f"{relpath} never takes {lock}"
        assert rule_lines(analyze_source(broken, relpath), "R002") != []


class TestBaseline:
    def _finding_dict(self, line=3):
        return {
            "rule": "R003",
            "path": "x.py",
            "line": line,
            "col": 11,
            "message": "lax dumps",
        }

    def test_round_trip_and_compare(self, tmp_path):
        source = "import json\ndef f(p):\n    return json.dumps(p)\n"
        findings = analyze_source(source, "x.py")
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        assert compare_to_baseline(findings, load_baseline(path)).clean

    def test_new_and_stale_detection(self, tmp_path):
        source = "import json\ndef f(p):\n    return json.dumps(p)\n"
        findings = analyze_source(source, "x.py")
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        baseline = load_baseline(path)
        delta = compare_to_baseline([], baseline)
        assert delta.new == [] and len(delta.stale) == 1
        moved = analyze_source("import json\n\ndef f(p):\n    return json.dumps(p)\n", "x.py")
        delta = compare_to_baseline(moved, baseline)
        assert len(delta.new) == 1 and len(delta.stale) == 1

    def test_write_refuses_to_grow(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "findings": []}))
        source = "import json\ndef f(p):\n    return json.dumps(p)\n"
        findings = analyze_source(source, "x.py")
        with pytest.raises(ValidationError, match="refusing to grow"):
            write_baseline(path, findings)
        # Shrinking (here: staying empty) is always allowed.
        write_baseline(path, [])
        assert load_baseline(path) == []

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(ValidationError, match="version"):
            load_baseline(path)
        path.write_text(json.dumps({"version": 1, "findings": [{"rule": "R003"}]}))
        with pytest.raises(ValidationError, match="missing key"):
            load_baseline(path)


class TestLintCli:
    def test_lint_clean_repo(self, capsys):
        assert main(["lint"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_against_committed_baseline(self, capsys):
        assert main(["lint", "--baseline", str(BASELINE)]) == 0
        assert "all baselined" in capsys.readouterr().out

    def test_lint_rules_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R002", "R003", "R004", "R005", "R006"):
            assert code in out

    def test_lint_reports_findings_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import json\ndef f(p):\n    return json.dumps(p)\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R003" in out and "1 finding(s)" in out

    def test_lint_new_finding_fails_against_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import json\ndef f(p):\n    return json.dumps(p)\n")
        assert main(["lint", str(bad), "--baseline", str(BASELINE)]) == 1
        out = capsys.readouterr().out
        assert "NEW" in out and "lint failed" in out

    def test_lint_stale_baseline_fails(self, tmp_path, capsys):
        stale = tmp_path / "baseline.json"
        stale.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": [
                        {
                            "rule": "R003",
                            "path": "gone.py",
                            "line": 1,
                            "col": 0,
                            "message": "was fixed",
                        }
                    ],
                }
            )
        )
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean), "--baseline", str(stale)]) == 1
        assert "STALE" in capsys.readouterr().out

    def test_lint_missing_path_errors(self, capsys):
        assert main(["lint", "no/such/dir"]) == 1
        assert "no such path" in capsys.readouterr().out

    def test_write_baseline_refuses_growth(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import json\ndef f(p):\n    return json.dumps(p)\n")
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"version": 1, "findings": []}))
        assert main(["lint", str(bad), "--write-baseline", str(target)]) == 1
        assert "refusing to grow" in capsys.readouterr().out

    def test_help_mentions_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "--baseline" in out and "--write-baseline" in out
