"""Span tracing installed from outside the program.

:func:`install` replaces each layer's public entry points with wrappers,
patching every name where its caller looks it up (a module global, a
class attribute or a dispatch table).  A wrapper does nothing but call
through until :attr:`Tracer.active` is set.  While active it records a
span (layer, start, end, span id, parent id, request id) in memory and
adds the span's self time (duration minus child spans) to per-thread
totals; the hottest tiny entry points are counted or timed without a
span record.  :meth:`Tracer.dump` writes spans and totals as JSON lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "counts", "spans", "depth")

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[Any, ...]] = []
        self.depth: dict[str, int] = defaultdict(int)


# Bounds the memory spans take; totals keep counting past it.
MAX_SPANS = 200_000


class Tracer:
    """In-memory span recorder with per-thread state."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[Any, str, Any, bool]] = []

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- wrappers ------------------------------------------------------------

    def span(self, layer: str, fn: Any, record: bool = True,
             after: Any = None) -> Any:
        """Wrap ``fn`` as a span of ``layer``; ``after(state, args,
        result, duration)`` may add counts once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            state = self.state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            frame = [0.0, span_id, parent[2] if parent else span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                state.calls[layer] += 1
                state.self_s[layer] += duration - frame[0]
                if record and len(state.spans) < MAX_SPANS:
                    state.spans.append((
                        layer, start, end, span_id,
                        parent[1] if parent else None, frame[2],
                    ))
            if after is not None:
                after(state, args, result, duration)
            return result

        return wrapper

    def outermost_count(self, name: str, fn: Any) -> Any:
        """Wrap ``fn`` to count its calls that are not nested in another
        call of the same name."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            state = self.state()
            depth = state.depth
            if depth[name] == 0:
                state.counts[name] += 1
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1

        return wrapper

    def patch(self, owner: Any, name: str, wrapper_factory: Any) -> None:
        """Replace ``owner.name`` (or ``owner[name]`` for a dict)."""
        is_dict = isinstance(owner, dict)
        original = owner[name] if is_dict else owner.__dict__[name]
        wrapped = wrapper_factory(original)
        if is_dict:
            owner[name] = wrapped
        else:
            setattr(owner, name, wrapped)
        self._restore.append((owner, name, original, is_dict))

    def uninstall(self) -> None:
        for owner, name, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, Any]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        spans = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in state.calls.items():
                calls[key] += value
            for key, value in state.self_s.items():
                self_s[key] += value
            for key, value in state.counts.items():
                counts[key] += value
            spans += len(state.spans)
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(counts), "spans_recorded": spans}

    def spans(self) -> list[tuple[Any, ...]]:
        with self._lock:
            states = list(self._states)
        return sorted((s for state in states for s in state.spans),
                      key=lambda span: span[1])

    def dump(self, path: Any, extra: dict[str, Any] | None = None) -> None:
        """Write totals (first line) and every recorded span (one per
        line: layer, start, end, id, parent id, request id)."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"totals": self.totals(),
                                     **(extra or {})}) + "\n")
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")


def _count(name: str) -> Any:
    def after(state: _ThreadState, *__: Any) -> None:
        state.counts[name] += 1
    return after


def _bindings(state: _ThreadState, __args: Any, result: Any,
              *__: Any) -> None:
    state.counts["cq.evaluation.bindings"] += sum(
        len(bindings) for bindings in result.values()
    )


def _rows(state: _ThreadState, __args: Any, result: Any, *__: Any) -> None:
    state.counts["cq.evaluation.bindings"] += len(result)


def _writes(bulk: bool) -> Any:
    """Count the rows a ``Database`` mutation writes (``insert_all``
    takes a row list, the others one row)."""
    def after(state: _ThreadState, args: Any, *__: Any) -> None:
        state.counts["relational.writes"] += len(args[2]) if bulk else 1
    return after


def _batch_queries(state: _ThreadState, args: Any, __result: Any,
                   duration: float) -> None:
    # Every query of a lane batch waits for the whole batch.
    state.counts["citation.generator.queries"] += len(args[1])
    state.self_s["service.batched_engine_s"] += len(args[1]) * duration


def _lane_job(state: _ThreadState, __args: Any, __result: Any,
              duration: float) -> None:
    state.self_s["service.lane_job_s"] += duration


def _records(counter_in: str, flat: bool) -> Any:
    def after(state: _ThreadState, args: Any, result: Any,
              *__: Any) -> None:
        records = args[0]
        state.counts[counter_in] += (
            len(records) if flat else sum(len(part) for part in records)
        )
        state.counts["citation.combiners.records_out"] += len(result)
    return after


def _neutral(state: _ThreadState, args: Any, result: Any,
             *__: Any) -> None:
    state.counts["citation.combiners.records_in"] += (
        len(args[0]) + len(args[1])
    )
    state.counts["citation.combiners.records_out"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer report names."""
    import repro.citation.combiners as combiners
    import repro.citation.generator as generator
    import repro.citation.order as order
    import repro.cq.evaluation as evaluation
    import repro.cq.parser as parser
    import repro.service.server as server
    import repro.util.jsonutil as jsonutil
    import repro.views.citation_view as citation_view
    from repro.citation.cache import CachedRewritingEngine
    from repro.cq.plan import QueryPlanner
    from repro.relational.database import Database
    from repro.rewriting.engine import RewritingEngine
    from repro.semiring.polynomial import (
        ProvenanceMonomial,
        ProvenancePolynomial,
    )
    from repro.service.batcher import EngineLane
    from repro.views.citation_view import CitationView
    from repro.views.registry import ViewRegistry

    def span(layer: str, record: bool = True, after: Any = None) -> Any:
        return lambda fn: tracer.span(layer, fn, record, after)

    for module in (parser, generator):
        tracer.patch(module, "parse_query", span("cq.parser"))
    tracer.patch(RewritingEngine, "rewrite",
                 span("rewriting", after=_count("rewriting.enumerations")))
    tracer.patch(CachedRewritingEngine, "rewrite", span("rewriting"))
    tracer.patch(QueryPlanner, "plan", span("cq.plan"))
    tracer.patch(generator, "evaluate_with_bindings",
                 span("cq.evaluation", after=_bindings))
    for module in (evaluation, citation_view):
        tracer.patch(module, "evaluate_query",
                     span("cq.evaluation", after=_rows))
    tracer.patch(ViewRegistry, "materialize", span("views.materialize"))
    tracer.patch(CitationView, "citation_for", span("views.citation_for"))
    for cls in (ProvenanceMonomial, ProvenancePolynomial):
        tracer.patch(cls, "__init__",
                     span("semiring.polynomial", record=False))
    for module in (generator, order):
        for name in ("normal_form", "absorbing_sum", "best_polynomials"):
            if name in module.__dict__:
                tracer.patch(module, name, span("citation.order"))
    for cls in vars(order).values():
        if (isinstance(cls, type) and issubclass(cls, order.MonomialOrder)
                and "leq" in cls.__dict__):
            tracer.patch(cls, "leq", lambda fn: tracer.outermost_count(
                "citation.order.comparisons", fn))
    for table, after in (
        (combiners.DOT_INTERPRETATIONS,
         _records("citation.combiners.records_in", flat=True)),
        (combiners.PLUS_INTERPRETATIONS,
         _records("citation.combiners.records_in", flat=False)),
        (combiners.AGG_INTERPRETATIONS,
         _records("citation.combiners.records_in", flat=False)),
    ):
        for name in list(table):
            tracer.patch(table, name,
                         span("citation.combiners", record=False,
                              after=after))
    tracer.patch(generator, "with_neutral",
                 span("citation.combiners", after=_neutral))
    tracer.patch(jsonutil, "canonical_json", lambda fn: tracer.outermost_count(
        "util.jsonutil.canonical_json.calls", fn))
    tracer.patch(generator.CitationEngine, "cite",
                 span("citation.generator",
                      after=_count("citation.generator.queries")))
    tracer.patch(generator.CitationEngine, "cite_batch",
                 span("citation.generator", after=_batch_queries))
    for name in ("insert", "insert_all", "delete"):
        tracer.patch(Database, name,
                     span("relational", after=_writes(name == "insert_all")))
    tracer.patch(server, "analyze_query", span("analysis"))
    tracer.patch(EngineLane, "_run_owned",
                 span("service.lane_job", after=_lane_job))
    for name in ("submit", "submit_cite"):
        tracer.patch(EngineLane, name,
                     lambda fn: _timed_future(tracer, fn))


def _timed_future(tracer: Tracer, fn: Any) -> Any:
    """Add each lane future's submit -> done time to
    ``service.submit_to_done`` and count it in ``service.jobs``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        future = fn(*args, **kwargs)
        if tracer.active:
            submitted = perf_counter()
            state = tracer.state()

            def done(__future: Any) -> None:
                state.self_s["service.submit_to_done"] += (
                    perf_counter() - submitted
                )
                state.counts["service.jobs"] += 1

            future.add_done_callback(done)
        return future

    return wrapper
