"""Self-tests for the RL1xx repo-invariant lint.

Every rule is exercised against a fixture file written to violate it
(``tests/analysis/lint_fixtures/``, excluded from ruff because the
code is *supposed* to be bad), and the whole src tree must be clean —
the same gate CI runs via ``tools/run_repro_lint.py src``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import LintFinding, lint_file, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def codes(findings):
    return sorted({finding.code for finding in findings})


class TestRules:
    def test_rl101_flags_async_service_mutation(self):
        findings = lint_file(FIXTURES / "service" / "rl101_async_mutation.py")
        assert codes(findings) == ["RL101"]
        assert len(findings) == 2  # insert_all + invalidate_data
        assert all("engine-lane job" in f.message for f in findings)

    def test_rl102_flags_unbounded_caches_only(self):
        findings = lint_file(FIXTURES / "rl102_unbounded_cache.py")
        assert codes(findings) == ["RL102"]
        flagged = {f.message.split("`")[1] for f in findings}
        assert flagged == {"_plan_cache", "_result_memo"}

    def test_rl103_flags_discarded_submissions(self):
        findings = lint_file(FIXTURES / "service" / "rl103_discarded_submit.py")
        assert codes(findings) == ["RL103"]
        assert len(findings) == 2  # submit + acite_batch, not the await

    def test_rl105_flags_bare_and_swallowing_excepts(self):
        findings = lint_file(FIXTURES / "rl105_bare_except.py")
        assert codes(findings) == ["RL105"]
        assert len(findings) == 2  # bare + pass-only, not the logged one

    def test_rl101_is_scoped_to_service_paths(self, tmp_path):
        source = (
            "class H:\n"
            "    async def handle(self, engine, rows):\n"
            "        return engine.db.insert_all('R', rows)\n"
        )
        service = tmp_path / "service"
        service.mkdir()
        inside = service / "handlers.py"
        inside.write_text(source)
        outside = tmp_path / "handlers.py"
        outside.write_text(source)
        assert codes(lint_file(inside)) == ["RL101"]
        assert lint_file(outside) == []

    def test_lane_job_closure_pattern_is_sanctioned(self, tmp_path):
        # The repo's actual pattern: the mutation lives in a *sync*
        # closure submitted to the lane — RL101 must not flag it.
        service = tmp_path / "service"
        service.mkdir()
        path = service / "handlers.py"
        path.write_text(
            "class H:\n"
            "    async def handle(self, engine, lane, rows):\n"
            "        def job():\n"
            "            return engine.db.insert_all('R', rows)\n"
            "        return await lane.submit(job)\n"
        )
        assert lint_file(path) == []

    def test_syntax_error_reports_rl100(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_file(bad)
        assert codes(findings) == ["RL100"]


class TestRepoGate:
    def test_src_tree_is_clean(self):
        assert run_lint([REPO_ROOT / "src"]) == []

    def test_every_fixture_is_flagged(self):
        for fixture in sorted(FIXTURES.rglob("*.py")):
            assert lint_file(fixture), f"{fixture} raised no findings"

    def test_finding_describe_format(self):
        finding = LintFinding("RL199", "message", Path("x.py"), 7)
        assert finding.describe() == "x.py:7: RL199 message"


class TestRunnerTool:
    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "run_repro_lint.py"),
             *args],
            capture_output=True,
            text=True,
        )

    def test_clean_on_src(self):
        result = self.run_tool("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_findings_set_exit_one(self):
        result = self.run_tool("tests/analysis/lint_fixtures")
        assert result.returncode == 1
        for code in ("RL101", "RL102", "RL103", "RL105"):
            assert code in result.stdout, f"{code} missing from output"

    def test_missing_path_is_an_error(self):
        result = self.run_tool("no/such/tree")
        assert result.returncode == 2


class TestCliLintFlag:
    @pytest.fixture
    def project(self, tmp_path):
        path = tmp_path / "demo.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "init-demo", str(path)],
            check=True,
            capture_output=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        return path

    def test_analyze_lint_surfaces_rl_next_to_qa(self, project):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", str(project),
             'Q(N) :- Family(F, N, Ty), Ty = "gpcr"', "--lint"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "repro lint: clean" in result.stdout
