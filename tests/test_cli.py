"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def project(tmp_path):
    path = tmp_path / "demo.json"
    assert main(["init-demo", str(path)]) == 0
    return path


class TestInitDemo:
    def test_writes_project(self, project):
        payload = json.loads(project.read_text())
        assert "Family" in payload["schema"]
        assert len(payload["views"]) == 5


class TestViews:
    def test_lists_views(self, project, capsys):
        assert main(["views", str(project)]) == 0
        out = capsys.readouterr().out
        for name in ("V1", "V2", "V3", "V4", "V5"):
            assert name in out
        assert "λ" in out  # parameters displayed


class TestRewrite:
    def test_shows_rewritings(self, project, capsys):
        assert main([
            "rewrite", str(project),
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            'Ty = "gpcr"',
        ]) == 0
        out = capsys.readouterr().out
        assert 'V5(F, N, "gpcr", Tx)' in out
        assert out.count("[total") == 4

    def test_unsatisfiable_query(self, project, capsys):
        assert main([
            "rewrite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"',
        ]) == 0
        assert "no rewritings" in capsys.readouterr().out


class TestCite:
    def test_json_output(self, project, capsys):
        assert main([
            "cite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "focused"
        assert payload["database"][0]["Owner"] == "Tony Harmar"

    def test_text_format(self, project, capsys):
        assert main([
            "cite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "vgic"',
            "--format", "text",
        ]) == 0
        assert "CatSper" in capsys.readouterr().out

    def test_policy_choice(self, project, capsys):
        assert main([
            "cite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
            "--policy", "comprehensive",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "comprehensive"

    def test_sql_mode(self, project, capsys):
        assert main([
            "cite", str(project),
            "SELECT f.FName FROM Family f WHERE f.Type = 'gpcr'",
            "--sql",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["citations"]

    def test_explain_flag(self, project, capsys):
        assert main([
            "cite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
            "--format", "text", "--explain",
        ]) == 0
        assert "Citation explanation" in capsys.readouterr().out


class TestPlan:
    def test_shows_plan(self, project, capsys):
        assert main([
            "plan", str(project),
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            'Ty = "gpcr"',
        ]) == 0
        out = capsys.readouterr().out
        assert "plan for" in out
        assert "estimated cost" in out
        assert "Family" in out and "FamilyIntro" in out

    def test_sql_plan(self, project, capsys):
        assert main([
            "plan", str(project),
            "SELECT f.FName FROM Family f WHERE f.Type = 'gpcr'",
            "--sql",
        ]) == 0
        assert "plan for" in capsys.readouterr().out

    def test_range_query_shows_ordered_access_path(self, project, capsys):
        assert main([
            "plan", str(project),
            'Q(N) :- Family(F, N, Ty), F < "F0020"',
        ]) == 0
        out = capsys.readouterr().out
        assert "pushed predicates" in out
        assert "ordered index on" in out


class TestCiteBatch:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
            "\n"
            "# repeated shape, different variable names\n"
            'Q(M) :- Family(G, M, T2), T2 = "gpcr"\n'
            "# range-pushed plan (ordered access path)\n"
            'Q(N) :- Family(F, N, Ty), F < "F0020"\n'
        )
        return path

    def test_cites_every_query(self, project, query_file, capsys):
        assert main([
            "cite-batch", str(project), str(query_file),
            "--format", "text",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("Sources:") == 3

    def test_stats_flag_reports_cache_hits(self, project, query_file,
                                           capsys):
        assert main([
            "cite-batch", str(project), str(query_file), "--stats",
        ]) == 0
        err = capsys.readouterr().err
        assert "rewriting cache" in err and "plan cache" in err


class TestErrors:
    def test_missing_project_file(self, tmp_path, capsys):
        assert main([
            "views", str(tmp_path / "nope.json"),
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) != 0

    def test_bibtex_and_xml_formats(self, project, capsys):
        assert main([
            "cite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
            "--format", "bibtex",
        ]) == 0
        assert "@misc" in capsys.readouterr().out
        assert main([
            "cite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
            "--format", "xml",
        ]) == 0
        assert "<citation>" in capsys.readouterr().out


class TestUnionQueries:
    UNION = ('Q(N) :- Family(F, N, Ty), FC(F, C); '
             'Q(N) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)')

    def test_plan_union_shows_disjuncts_and_shared_prefix(
        self, project, capsys
    ):
        assert main(["plan", str(project), self.UNION]) == 0
        out = capsys.readouterr().out
        assert "disjunct 1/2" in out and "disjunct 2/2" in out
        assert "shared prefix:" in out

    def test_cite_union_combines_disjuncts(self, project, capsys):
        assert main([
            "cite", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"; '
            'Q(N) :- Family(F, N, Ty), Ty = "vgic"',
            "--format", "text",
        ]) == 0
        out = capsys.readouterr().out
        # Citations from both disjuncts' views appear: the gpcr type
        # page and the vgic (CatSper) family page.
        assert "gpcr" in out and "CatSper" in out


class TestAnalyze:
    CONTRADICTION = 'Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"'
    EMPTY_RANGE = 'Q(N) :- Family(F, N, Ty), F > "z", F < "a"'

    def test_clean_query_reports_findings_and_exits_zero(
        self, project, capsys
    ):
        assert main([
            "analyze", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
        ]) == 0
        out = capsys.readouterr().out
        # The singleton N-is-head case is clean; F is a join-less
        # single-use variable unless underscore-prefixed.
        assert "QA" in out or "no findings" in out

    def test_contradiction_reports_qa201_and_exits_three(
        self, project, capsys
    ):
        assert main(["analyze", str(project), self.CONTRADICTION]) == 3
        assert "QA201" in capsys.readouterr().out

    def test_empty_interval_reports_qa202(self, project, capsys):
        assert main(["analyze", str(project), self.EMPTY_RANGE]) == 3
        assert "QA202" in capsys.readouterr().out

    def test_union_analysis(self, project, capsys):
        union = (
            'Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"; '
            'Q(N) :- Family(F, N, Ty), F > "z", F < "a"'
        )
        assert main(["analyze", str(project), union]) == 3
        out = capsys.readouterr().out
        assert "QA204" in out and "QA110" in out

    def test_plan_renders_diagnostics_and_exits_three(
        self, project, capsys
    ):
        assert main(["plan", str(project), self.CONTRADICTION]) == 3
        out = capsys.readouterr().out
        assert "diagnostics:" in out
        assert "QA201" in out

    def test_plan_on_clean_query_still_exits_zero(self, project, capsys):
        assert main([
            "plan", str(project),
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
        ]) == 0

    def test_cite_refuses_provably_empty_query(self, project, capsys):
        assert main(["cite", str(project), self.CONTRADICTION]) == 3
        captured = capsys.readouterr()
        assert "QA201" in captured.err
        assert "error" in captured.err

    def test_cite_empty_interval_exit_code(self, project, capsys):
        assert main(["cite", str(project), self.EMPTY_RANGE]) == 3
        assert "QA202" in capsys.readouterr().err

    def test_cite_batch_analyze_flag_reports_counters(
        self, project, tmp_path, capsys
    ):
        query_file = tmp_path / "queries.txt"
        query_file.write_text(
            'Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"\n'
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"\n'
        )
        assert main([
            "cite-batch", str(project), str(query_file),
            "--analyze", "--stats",
        ]) == 0
        err = capsys.readouterr().err
        assert "diagnostics:" in err
        assert "QA201=1" in err
