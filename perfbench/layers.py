"""Per-layer metrics: names, units, and how totals become metrics.

A layer is a ``repro`` module.  Every layer reports ``<layer>.calls``
and ``<layer>.self_s`` (span duration minus child spans, summed over the
timed phase); the extras below are counts and ratios measured at the
same boundaries.  Layers a workload never enters read exactly 0.
"""

from __future__ import annotations

from typing import Any

from perfbench.stats import ratio

LAYERS = ("cq.parser", "rewriting", "cq.plan", "cq.evaluation", "views",
          "views.materialize", "views.citation_for", "semiring.polynomial",
          "citation.order", "citation.combiners", "citation.generator",
          "relational", "analysis", "service")

EXTRAS = {
    "rewriting.per_query": "1/query",
    "rewriting.cache_hit_ratio": "ratio",
    "cq.plan.cache_hit_ratio": "ratio",
    "cq.evaluation.bindings": "count",
    "semiring.polynomial.constructions": "count",
    "citation.order.comparisons": "count",
    "citation.combiners.records_in": "count",
    "citation.combiners.records_out": "count",
    "util.jsonutil.canonical_json.calls": "count",
    "relational.writes": "count",
    "analysis.per_read": "1/read",
    "service.server_ms": "ms",
    "service.transport_ms": "ms",
    "service.lane_ms": "ms",
    "service.batch_size": "1/batch",
    "service.rejected": "count",
    "service.timeouts": "count",
    "loadgen.late_p99_ms": "ms",
}


def metric_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRAS)
    return units


def _base(totals: dict[str, Any]) -> dict[str, float]:
    calls = totals["calls"]
    self_s = totals["self_s"]
    counts = totals["counts"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for part in ("views.materialize", "views.citation_for"):
        metrics["views.calls"] += calls.get(part, 0)
        metrics["views.self_s"] += self_s.get(part, 0.0)
    metrics["semiring.polynomial.constructions"] = calls.get(
        "semiring.polynomial", 0)
    for name in ("cq.evaluation.bindings", "citation.order.comparisons",
                 "citation.combiners.records_in",
                 "citation.combiners.records_out",
                 "util.jsonutil.canonical_json.calls", "relational.writes"):
        metrics[name] = counts.get(name, 0)
    metrics["rewriting.per_query"] = ratio(
        counts.get("rewriting.enumerations", 0),
        counts.get("citation.generator.queries", 0))
    return metrics


def _zero_service(metrics: dict[str, float]) -> None:
    for name in ("analysis.per_read", "service.server_ms",
                 "service.transport_ms", "service.lane_ms",
                 "service.batch_size", "service.rejected",
                 "service.timeouts", "loadgen.late_p99_ms"):
        metrics.setdefault(name, 0.0)


def library_layers(totals: dict[str, Any],
                   counters: dict[str, int]) -> dict[str, Any]:
    """Per-layer metrics of a library run plus the bases of its ratios."""
    metrics = _base(totals)
    plan_total = counters["plan_hits"] + counters["plan_misses"]
    rewrite_total = counters["rewrite_hits"] + counters["rewrite_misses"]
    metrics["cq.plan.cache_hit_ratio"] = ratio(counters["plan_hits"],
                                               plan_total)
    metrics["rewriting.cache_hit_ratio"] = ratio(counters["rewrite_hits"],
                                                 rewrite_total)
    _zero_service(metrics)
    bases = {
        "cq.plan.cache_hit_ratio": f"{counters['plan_hits']}/{plan_total}",
        "rewriting.cache_hit_ratio":
            f"{counters['rewrite_hits']}/{rewrite_total}",
        "rewriting.per_query":
            f"{totals['counts'].get('rewriting.enumerations', 0)}/"
            f"{totals['counts'].get('citation.generator.queries', 0)}",
    }
    return {"metrics": metrics, "bases": bases}


def service_layers(totals: dict[str, Any], stats: dict[str, Any],
                   client: dict[str, Any]) -> dict[str, Any]:
    """Per-layer metrics of a service run.

    ``stats`` holds ``/stats`` deltas over the timed phase; ``client``
    holds the load generator's own measurements.
    """
    metrics = _base(totals)
    self_s = totals["self_s"]
    counts = totals["counts"]
    reads = stats["cite_requests"]
    metrics["cq.plan.cache_hit_ratio"] = ratio(
        stats["plan_hits"], stats["plan_hits"] + stats["plan_misses"])
    metrics["rewriting.cache_hit_ratio"] = ratio(
        stats["rewrite_hits"], stats["rewrite_hits"] + stats["rewrite_misses"])
    metrics["analysis.per_read"] = ratio(metrics["analysis.calls"], reads)
    server_ms = ratio(stats["cite_sum_ms"], reads)
    metrics["service.server_ms"] = server_ms
    metrics["service.transport_ms"] = client["read_rtt_ms"] - server_ms
    jobs = counts.get("service.jobs", 0)
    engine_s = (self_s.get("service.batched_engine_s", 0.0)
                + self_s.get("service.lane_job_s", 0.0))
    metrics["service.lane_ms"] = ratio(
        (self_s.get("service.submit_to_done", 0.0) - engine_s) * 1000.0,
        jobs)
    metrics["service.batch_size"] = ratio(stats["batched_requests"],
                                          stats["batches"])
    metrics["service.rejected"] = stats["rejected"]
    metrics["service.timeouts"] = stats["timeouts"]
    metrics["service.calls"] = stats["requests"]
    # Request time in the server not spent in the request's own engine
    # work or parsing: queue wait, batch linger, thread hand-off, routing.
    metrics["service.self_s"] = (
        stats["sum_ms"] / 1000.0 - engine_s - self_s.get("cq.parser", 0.0))
    metrics["loadgen.late_p99_ms"] = client["late_p99_ms"]
    plans = stats["plan_hits"] + stats["plan_misses"]
    bases = {
        "cq.plan.cache_hit_ratio": f"{stats['plan_hits']}/{plans}",
        "rewriting.cache_hit_ratio":
            f"{stats['rewrite_hits']}/"
            f"{stats['rewrite_hits'] + stats['rewrite_misses']}",
        "rewriting.per_query":
            f"{counts.get('rewriting.enumerations', 0)}/"
            f"{counts.get('citation.generator.queries', 0)}",
        "analysis.per_read": f"{metrics['analysis.calls']}/{reads}",
        "service.batch_size":
            f"{stats['batched_requests']}/{stats['batches']}",
        "service.lane_ms": f"over {jobs} lane jobs",
    }
    return {"metrics": metrics, "bases": bases}


def report_lines(per_layer: dict[str, Any], base_s: float,
                 base_label: str) -> list[str]:
    """One line per metric: value, unit, and for self times the share of
    ``base_s``; ratios carry their base."""
    units = metric_units()
    metrics = per_layer["metrics"]
    bases = per_layer["bases"]
    lines = []
    for name in sorted(units):
        value = metrics[name]
        line = f"  {name:<40} {value:>14.6g} {units[name]}"
        if name.endswith(".self_s") and base_s > 0:
            line += f"  ({100.0 * value / base_s:.1f}% of {base_label})"
        if name in bases:
            line += f"  [{bases[name]}]"
        lines.append(line)
    return lines
