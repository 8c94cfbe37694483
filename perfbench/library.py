"""Library workload: a closed loop of ``CitationEngine.cite`` calls.

One caller cites the 40-query mix on a warm engine, pass after pass,
until the passes have lasted ``--seconds`` (whole passes only, so every
pass weighs every query equally).  The passes are split into
:data:`SETUPS` slices; before each, a set-up builds a fresh engine,
once the previous one is released (so the peak RSS covers one engine),
and warms it with one pass.  The first set-up's results are the cold
reference each engine's last warm results are checked against.  Every
time is scaled to a reference host speed by the calibration units run
after each cite (see :mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import gc
import resource
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench import inputs, layers
from perfbench.calibrate import Calibration, describe
from perfbench.stats import beyond, finite, median, percentile
from perfbench.tracing import Tracer, install

WORKLOAD = "cite-comprehensive"
FAMILIES = 800
PERSONS = 100
POLICY = "comprehensive"
SETUPS = 5
UNITS_BEFORE_SETUP = 10


def build_engine(project: Path, policy: str) -> Any:
    """Load a project file and build a citation engine over it, the way
    the command-line interface does."""
    from repro.citation.generator import CitationEngine
    from repro.citation.policy import comprehensive_policy, focused_policy
    from repro.relational.io import load_project
    from repro.views.citation_view import CitationView
    from repro.views.registry import ViewRegistry

    db, specs = load_project(project)
    registry = ViewRegistry(db.schema, [
        CitationView.from_strings(view=spec["view"],
                                  citation_query=spec["citation_query"],
                                  labels=spec.get("labels"))
        for spec in specs
    ])
    chosen = (comprehensive_policy() if policy == "comprehensive"
              else focused_policy(registry))
    return CitationEngine(db, registry, policy=chosen)


def signature(result: Any) -> tuple[Any, ...]:
    """Everything a citation carries: tuples, per-tuple polynomials and
    records, the aggregate polynomial and the aggregated records."""
    return (
        [(tc.output, repr(tc.polynomial), tc.records)
         for tc in result.tuples.values()],
        repr(result.aggregate_polynomial),
        result.records,
    )


def _bypass_checks(metrics: dict[str, Any]) -> list[str]:
    """Exact counts for layers this workload must not enter: it never
    writes, and the comprehensive policy has no order to absorb by."""
    return [f"bypass check {name} == 0: "
            f"{'ok' if metrics[name] == 0 else 'VIOLATED'} "
            f"(measured {metrics[name]})"
            for name in ("relational.writes", "citation.order.calls")]


def _counters(engine: Any) -> dict[str, int]:
    """The engine's plan- and rewriting-cache counters (the library
    engine's rewriter has none: it re-enumerates on every call)."""
    rewriter = engine.rewriting_engine
    return {
        "plan_hits": engine.planner.hits,
        "plan_misses": engine.planner.misses,
        "rewrite_hits": getattr(rewriter, "hits", 0),
        "rewrite_misses": getattr(rewriter, "misses", 0),
    }


def run(seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict[str, Any]:
    data = inputs.generate_gtopdb(seed, FAMILIES, PERSONS)
    project = workdir / "project.json"
    data.write_project(project)
    queries = inputs.query_mix(data, seed)
    report = [f"{WORKLOAD}: {FAMILIES} families, {PERSONS} persons, "
              f"policy {POLICY}, {len(queries)} queries, closed loop, "
              "1 caller"]

    tracer = Tracer()
    if trace:
        install(tracer)
    calibration = Calibration()
    counters: dict[str, int] = {}
    setup_times: list[float] = []
    setup_raw: list[float] = []
    reference: list[Any] = []
    passes: list[list[float]] = []
    pass_seconds: list[float] = []
    pass_raw: list[float] = []
    errors: dict[int, str] = {}
    wrong: set[int] = set()
    timed = 0.0
    for attempt in range(SETUPS):
        # Set-ups alternate with slices of the timed passes, so a slow
        # spell of a shared host falls on few of either.  A calibration
        # unit runs before the set-up and after every cite, outside the
        # timed spans, and scales the window's times.
        engine = None
        gc.collect()
        for __ in range(UNITS_BEFORE_SETUP):
            calibration.sample()
        started = perf_counter()
        engine = build_engine(project, POLICY)
        warm = []
        took = perf_counter() - started
        for query in queries:
            begin = perf_counter()
            warm.append(engine.cite(query))
            took += perf_counter() - begin
            calibration.sample()
        setup_raw.append(took)
        setup_times.append(took * calibration.close_window())
        if attempt == 0:
            reference = [signature(result) for result in warm]
        del warm

        before = _counters(engine)
        last: list[Any] = [None] * len(queries)
        tracer.active = trace
        while True:
            latencies = []
            for index, query in enumerate(queries):
                begin = perf_counter()
                try:
                    last[index] = engine.cite(query)
                except Exception:  # noqa: BLE001 - a failed operation
                    errors.setdefault(index, traceback.format_exc(limit=3))
                    last[index] = None
                latencies.append(perf_counter() - begin)
                calibration.sample()
            scale = calibration.close_window()
            pass_raw.append(sum(latencies))
            pass_seconds.append(pass_raw[-1] * scale)
            passes.append([value * scale for value in latencies])
            timed += pass_raw[-1]
            if timed >= seconds * (attempt + 1) / SETUPS:
                break
        tracer.active = False
        for name, value in _counters(engine).items():
            counters[name] = counters.get(name, 0) + value - before[name]
        wrong |= {index for index, result in enumerate(last)
                  if result is None or signature(result) != reference[index]}
        del last
    if trace:
        tracer.uninstall()

    for index in sorted(wrong):
        reason = errors.get(index, "warm result differs from cold engine")
        report.append(f"FAILED query {index}: {queries[index]}\n  {reason}")
    # A failed cite misses every latency limit.  Each latency is scaled
    # by its own pass's host speed; the percentiles pool every pass
    # (steadier than a median of per-pass percentiles of 40 cites, where
    # a collection of the engine's heap landing on another query moves
    # the rank) and the rate is the median over passes.
    ms = [[float("inf") if index in wrong else value * 1000.0
           for index, value in enumerate(latencies)] for latencies in passes]
    ok = len(queries) - len(wrong)
    attempted = len(queries) * len(passes)
    failed = len(wrong) * len(passes)
    pooled = [value for latencies in ms for value in latencies]
    e2e = {
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cites_per_s": median([ok / value for value in pass_seconds]),
        "cite_p50_ms": finite(percentile(pooled, 0.50)),
        "cite_p90_ms": finite(percentile(pooled, 0.90)),
    }
    report.append(
        f"timed: {attempted} cites in {timed:.2f} s ({len(passes)} "
        f"passes of {len(queries)}), {failed} failed; {beyond(pooled, 0.90)} "
        "samples beyond the pooled p90; pass times measured "
        + ", ".join(f"{value:.3f}" for value in pass_raw)
        + " s, scaled " + ", ".join(f"{value:.3f}" for value in pass_seconds)
        + " s; set-ups measured "
        + ", ".join(f"{value:.3f}" for value in setup_raw)
        + " s, scaled " + ", ".join(f"{value:.3f}" for value in setup_times)
        + f" s; {describe(calibration)}"
    )
    result: dict[str, Any] = {"attempted": attempted, "failed": failed,
                              "e2e": e2e, "report": report}
    if trace:
        totals = tracer.totals()
        per_layer = layers.library_layers(totals, counters)
        result["per_layer"] = per_layer
        result["checks"] = _bypass_checks(per_layer["metrics"])
        result["failed"] += sum("VIOLATED" in line
                                for line in result["checks"])
        result["layer_base_s"] = sum(map(sum, passes))
        spans_path = workdir / "spans.jsonl"
        tracer.dump(spans_path, {"workload": WORKLOAD, "seed": seed})
        report.append(f"spans: {totals['spans_recorded']} written to "
                      f"{spans_path}")
    return result
