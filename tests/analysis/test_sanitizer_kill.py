"""Seeded-race kill tests: each test injects a real concurrency
violation and FAILS unless the sanitizer catches it.

This mirrors the plan verifier's kill suite (PR 8): the sanitizer's
value is only proven by demonstrating that the bugs it exists for do
not slip past it.  Every scenario is deterministic — violations are
injected by monkeypatching, not by racing timers.
"""

import asyncio
import threading

import pytest

from repro.analysis.sanitizer import (
    ConcurrencySanitizerError,
    set_sanitize,
)
from repro.citation.generator import CitationEngine
from repro.cq import evaluation
from repro.cq.parser import parse_query
from repro.cq.subplan import SubplanMemo
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_views
from repro.relational.database import Database
from repro.service.batcher import EngineLane
from repro.views.registry import ViewRegistry


@pytest.fixture
def active():
    previous = set_sanitize("always")
    try:
        yield
    finally:
        set_sanitize(previous)


@pytest.fixture
def inactive():
    # Force the sanitizer off even when the suite runs --sanitize, so
    # the control test really exercises the unsanitized path.
    previous = set_sanitize("off")
    try:
        yield
    finally:
        set_sanitize(previous)


@pytest.fixture
def engine():
    db = paper_database()
    return CitationEngine(db, ViewRegistry(db.schema, paper_views()))


QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'


class TestWorkerThreadMutation:
    """Kill: a thread mutates the database mid-``cite_batch``."""

    def test_mutation_mid_batch_is_caught(
        self, active, engine, monkeypatch
    ):
        caught = []
        real = evaluation.enumerate_bindings

        def racing(query, db, *args, **kwargs):
            # Mid-evaluation (the execution region is open), another
            # thread mutates the database under the pipeline.
            def mutate():
                try:
                    db.insert("Family", "F999", "racer", "other")
                except ConcurrencySanitizerError as exc:
                    caught.append(exc)

            yielded = False
            for binding in real(query, db, *args, **kwargs):
                if not yielded:
                    yielded = True
                    worker = threading.Thread(target=mutate)
                    worker.start()
                    worker.join()
                yield binding

        monkeypatch.setattr(evaluation, "enumerate_bindings", racing)
        engine.cite_batch([parse_query(QUERY)])
        assert caught and all(
            e.check == "execution-affinity" for e in caught
        ), (
            "the sanitizer FAILED to catch a worker-thread mutation "
            "during an in-flight citation evaluation"
        )

    def test_same_mutation_passes_without_sanitizer(
        self, inactive, engine, monkeypatch
    ):
        # Control: with the sanitizer off the race goes undetected —
        # exactly the silent corruption the sanitizer exists for.
        caught = []
        real = evaluation.enumerate_bindings

        def racing(query, db, *args, **kwargs):
            def mutate():
                try:
                    db.insert("Family", "F999", "racer", "other")
                except ConcurrencySanitizerError as exc:
                    caught.append(exc)

            yielded = False
            for binding in real(query, db, *args, **kwargs):
                if not yielded:
                    yielded = True
                    worker = threading.Thread(target=mutate)
                    worker.start()
                    worker.join()
                yield binding

        monkeypatch.setattr(evaluation, "enumerate_bindings", racing)
        engine.cite_batch([parse_query(QUERY)])
        assert caught == []


class TestStaleCacheServe:
    """Kill: a version-keyed cache serves without re-validating."""

    def test_patched_out_memo_validation_is_caught(
        self, active, engine, monkeypatch
    ):
        queries = [parse_query(QUERY), parse_query(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"'
        )]
        engine.cite_batch(queries)  # populate the sub-plan memo

        def stale_lookup(self, key, db, version, fingerprint):
            entry = self._entries.get(key)
            if entry is None:
                return None
            return entry[0]  # BUG: serves without any validation

        monkeypatch.setattr(SubplanMemo, "lookup", stale_lookup)
        engine.db.insert("Family", "F998", "stale", "gpcr")
        with pytest.raises(ConcurrencySanitizerError) as err:
            engine.cite_batch(queries)
        assert err.value.check == "stale-cache", (
            "the sanitizer FAILED to catch a memo serving a stale entry"
        )

    def test_unbumped_stats_version_is_caught(
        self, active, engine, monkeypatch
    ):
        engine.cite(QUERY)  # populate the plan cache
        monkeypatch.setattr(
            Database, "_note_stats_mutations", lambda self, count: None
        )
        # The mutation lands but the version stays flat, so the plan
        # cache's own version comparison (correctly) still hits — a
        # silent stale serve only the shadow count can expose.
        engine.db.insert("Family", "F997", "unbumped", "gpcr")
        with pytest.raises(ConcurrencySanitizerError) as err:
            engine.cite(QUERY)
        assert err.value.check == "version-integrity", (
            "the sanitizer FAILED to catch a mutation path that skips "
            "the stats_version bump"
        )


class TestStaleRecordCache:
    """Kill: rendered records and materialized views outlive a write."""

    CITED = 'Q(N, P) :- Family(F, N, Ty), FC(F, P), Ty = "gpcr"'

    def cite_across_insert(self, engine, monkeypatch):
        # BUG: the engine no longer drops its data-derived state when
        # the database version moves.
        monkeypatch.setattr(
            CitationEngine, "_check_data_version", lambda self: None
        )
        engine.cite(self.CITED)
        engine.db.insert("FC", "11", "p3")
        return engine.cite(self.CITED)

    def test_stale_record_cache_is_caught(
        self, active, engine, monkeypatch
    ):
        with pytest.raises(ConcurrencySanitizerError) as err:
            self.cite_across_insert(engine, monkeypatch)
        assert err.value.check == "stale-cache", (
            "the sanitizer FAILED to catch a record cache serving "
            "records rendered before a write"
        )

    def test_same_bug_serves_stale_records_without_sanitizer(
        self, inactive, engine, monkeypatch
    ):
        # Control: with the sanitizer off the stale committee comes
        # back silently (a fresh engine renders Brown, Hay, Poyner).
        result = self.cite_across_insert(engine, monkeypatch)
        family = [r for r in result.records if r.get("ID") == "11"]
        assert [r["Committee"] for r in family] == [["Hay", "Poyner"]]


class TestEventLoopBlocking:
    """Kill: blocking calls executed on the service event loop."""

    def test_sleep_in_coroutine_is_caught(self, active):
        import time

        async def handler():
            time.sleep(0.01)  # BUG: stalls every request on the loop

        with pytest.raises(ConcurrencySanitizerError) as err:
            asyncio.run(handler())
        assert err.value.check == "event-loop-blocking", (
            "the sanitizer FAILED to catch time.sleep on the event loop"
        )

    def test_blocking_socket_in_coroutine_is_caught(self, active):
        import socket

        async def handler():
            with socket.socket() as sock:
                sock.connect(("127.0.0.1", 9))  # BUG: sync connect

        with pytest.raises(ConcurrencySanitizerError) as err:
            asyncio.run(handler())
        assert err.value.check == "event-loop-blocking", (
            "the sanitizer FAILED to catch blocking socket I/O on the "
            "event loop"
        )


class TestLaneOwnershipBypass:
    """Kill: a mutation that bypasses the engine lane."""

    def test_direct_mutation_while_lane_runs_is_caught(
        self, active, engine
    ):
        async def scenario():
            lane = EngineLane(engine)
            lane.start()
            try:
                # Sanctioned path: mutations go through lane jobs.
                await lane.submit(
                    lambda: engine.db.insert("Family", "F996", "ok", "gpcr")
                )
                # BUG: a thread writes directly, bypassing the lane.
                with pytest.raises(ConcurrencySanitizerError) as err:
                    await asyncio.to_thread(
                        engine.db.insert, "Family", "F995", "bypass", "gpcr"
                    )
                return err.value
            finally:
                await lane.stop()

        error = asyncio.run(scenario())
        assert error.check == "lane-ownership", (
            "the sanitizer FAILED to catch a mutation bypassing the "
            "engine lane"
        )
        assert "engine lane" in str(error)
