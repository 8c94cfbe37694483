"""Integration tests: the full HTTP service over a warm engine."""

import json

import pytest

from repro.citation.generator import CitationEngine
from repro.citation.policy import focused_policy
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry
from repro.service import ServiceClient, ServiceConfig, ServiceThread

GPCR = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
VGIC = 'Q(N) :- Family(F, N, Ty), Ty = "vgic"'
JOIN = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)'
UNION = GPCR + " ; " + VGIC
EMPTY = 'Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"'


class TestCite:
    def test_cite_matches_direct_engine(self, client):
        reply = client.cite(GPCR)
        assert reply.status == 200
        registry = paper_registry()
        engine = CitationEngine(
            paper_database(), registry, policy=focused_policy(registry)
        )
        assert reply.data == engine.cite(GPCR).citation()

    def test_include_tuples(self, client):
        reply = client.cite(GPCR, include_tuples=True)
        assert reply.status == 200
        assert reply.data["tuples"]
        for entry in reply.data["tuples"]:
            assert set(entry) == {"tuple", "citations"}

    def test_union_query(self, client):
        reply = client.cite(UNION)
        assert reply.status == 200
        assert reply.data["citations"]

    def test_sql_query(self, client):
        reply = client.cite(
            "SELECT FName FROM Family WHERE Type = 'gpcr'", sql=True
        )
        assert reply.status == 200
        # Same citations as the Datalog formulation (the rendered query
        # text differs: SQL parsing names variables by column).
        assert reply.data["citations"] == client.cite(GPCR).data["citations"]

    def test_provably_empty_is_422(self, client):
        reply = client.cite(EMPTY)
        assert reply.status == 422
        assert reply.data["error"] == "query provably returns no rows"
        assert reply.data["diagnostics"]

    def test_parse_error_is_400(self, client):
        reply = client.cite("this is not datalog")
        assert reply.status == 400
        assert "kind" in reply.data

    def test_repeat_hits_plan_cache(self, client):
        client.cite(GPCR)
        before = client.stats()["engine"]["plan_cache"]
        client.cite(GPCR)
        after = client.stats()["engine"]["plan_cache"]
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]


class TestCiteBatch:
    def test_batch_matches_singles(self, client):
        reply = client.cite_batch([GPCR, VGIC, JOIN])
        assert reply.status == 200
        assert reply.data["count"] == 3
        singles = [client.cite(text).data for text in (GPCR, VGIC, JOIN)]
        assert reply.data["citations"] == singles

    def test_mixed_batch_with_union(self, client):
        reply = client.cite_batch([GPCR, UNION, VGIC])
        assert reply.status == 200
        assert reply.data["count"] == 3
        # Results come back in request order.
        assert reply.data["citations"][1] == client.cite(UNION).data

    def test_empty_member_is_422_with_index(self, client):
        reply = client.cite_batch([GPCR, EMPTY])
        assert reply.status == 422
        (bad,) = reply.data["queries"]
        assert bad["index"] == 1
        assert bad["diagnostics"]

    def test_not_a_list_is_400(self, client):
        reply = client.post("/cite-batch", {"queries": "just one"})
        assert reply.status == 400


class TestPlanAndAnalyze:
    def test_plan_returns_explain(self, client):
        reply = client.plan(GPCR)
        assert reply.status == 200
        assert reply.data["explain"].startswith("plan for ")
        assert "estimated cost" in reply.data["explain"]

    def test_plan_union(self, client):
        reply = client.plan(UNION)
        assert reply.status == 200
        assert reply.data["explain"]

    def test_plan_of_empty_query_is_422(self, client):
        reply = client.plan(EMPTY)
        assert reply.status == 422
        assert reply.data["explain"]  # the plan still renders

    def test_analyze_clean_query(self, client):
        reply = client.analyze(GPCR)
        assert reply.status == 200
        assert reply.data["provably_empty"] is False

    def test_analyze_empty_query(self, client):
        reply = client.analyze(EMPTY)
        assert reply.status == 422
        assert reply.data["provably_empty"] is True
        codes = {d["code"] for d in reply.data["diagnostics"]}
        assert any(code.startswith("QA2") for code in codes)


class TestMutations:
    def test_insert_then_cite_sees_row(self, client):
        before = client.cite(GPCR, include_tuples=True).data["tuples"]
        reply = client.insert("Family", [["F9999", "ServiceFam", "gpcr"]])
        assert reply.status == 200
        assert reply.data["inserted"] == 1
        after = client.cite(GPCR, include_tuples=True).data["tuples"]
        names = {tuple(entry["tuple"]) for entry in after}
        assert ("ServiceFam",) in names
        assert len(after) == len(before) + 1

    def test_delete_restores(self, client):
        client.insert("Family", [["F9999", "ServiceFam", "gpcr"]])
        reply = client.delete_rows(
            "Family", [["F9999", "ServiceFam", "gpcr"]]
        )
        assert reply.status == 200
        assert reply.data["deleted"] == 1
        after = client.cite(GPCR, include_tuples=True).data["tuples"]
        names = {tuple(entry["tuple"]) for entry in after}
        assert ("ServiceFam",) not in names

    def test_mutation_bumps_stats_version(self, client):
        version = client.stats()["engine"]["stats_version"]
        reply = client.insert("Family", [["F9998", "X", "gpcr"]])
        assert reply.data["stats_version"] > version

    def test_warm_caches_survive_mutation(self, client):
        """Graceful invalidation: plan-cache entries are not dropped
        wholesale — the version-keyed cache keeps serving structurally
        unaffected queries."""
        client.cite(GPCR)
        client.insert("Ligand2Family", [["L9999", "F0001"]])
        size_after = client.stats()["engine"]["plan_cache"]["size"]
        assert size_after > 0  # not flushed

    def test_unknown_relation_is_400(self, client):
        reply = client.insert("Nonexistent", [["x"]])
        assert reply.status == 400

    def test_bad_rows_are_400(self, client):
        reply = client.post("/insert", {"relation": "Family", "rows": []})
        assert reply.status == 400
        reply = client.post(
            "/insert", {"relation": "Family", "rows": ["not-a-list"]}
        )
        assert reply.status == 400


class TestStatsAndHealth:
    def test_healthz(self, client):
        assert client.get("/healthz").data == {"status": "ok"}

    def test_stats_shape(self, client):
        client.cite(GPCR)
        stats = client.stats()
        assert set(stats) == {"service", "admission", "engine"}
        engine = stats["engine"]
        for cache in ("plan_cache", "rewriting_cache", "subplan_memo"):
            assert {"hits", "misses", "evictions"} <= set(engine[cache])
        assert "reserved" in engine["subplan_memo"]
        service = stats["service"]
        assert "POST /cite" in service["endpoints"]
        latency = service["endpoints"]["POST /cite"]["latency"]
        assert latency["count"] >= 1
        assert latency["buckets"]

    def test_unknown_endpoint_404_lists_routes(self, client):
        reply = client.get("/nope")
        assert reply.status == 404
        assert "POST /cite" in reply.data["endpoints"]

    def test_wrong_method_405(self, client):
        reply = client.request("GET", "/cite")
        assert reply.status == 405


class TestKeepAlive:
    def test_many_requests_one_connection(self, service):
        client = ServiceClient(service.base_url)
        try:
            for __ in range(5):
                assert client.cite(GPCR).status == 200
            stats = client.stats()
            # All traffic rode a single accepted connection.
            assert stats["service"]["connections_accepted"] == 1
        finally:
            client.close()


class TestReplay:
    def test_replay_workload_reports_cache_deltas(self, service):
        from repro.workload import replay_workload

        report = replay_workload(
            service.base_url, [GPCR, VGIC, GPCR, GPCR]
        )
        assert report.ok_count == 4
        assert report.error_count == 0
        assert report.statuses == {200: 4}
        # The repeats hit the warm plan cache across HTTP requests.
        assert report.plan_hits >= 2
        text = report.describe()
        assert "4 requests" in text
        assert "plan" in text

    def test_replay_cli(self, service, tmp_path, capsys):
        from repro.cli import main

        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# comment\n\n" + GPCR + "\n" + VGIC + "\n"
        )
        code = main([
            "replay", str(queries), "--url", service.base_url,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 requests" in out


class TestServiceThreadLifecycle:
    def test_draining_health_and_clean_stop(self, fresh_engine):
        handle = ServiceThread(fresh_engine).start()
        client = ServiceClient(handle.base_url)
        try:
            assert client.cite(GPCR).status == 200
        finally:
            client.close()
        handle.stop()
        # Idempotent stop.
        handle.stop()

    def test_startup_failure_surfaces(self, fresh_engine):
        # An unresolvable bind host fails fast; start() must raise.
        config = ServiceConfig(host="host.invalid", port=0)
        with pytest.raises(RuntimeError, match="failed to start"):
            ServiceThread(fresh_engine, config).start()

    def test_responses_are_deterministic_json(self, client):
        first = client.cite(GPCR)
        second = client.cite(GPCR)
        assert first.body == second.body
        assert json.loads(first.body) == first.data
