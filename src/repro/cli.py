"""Command-line interface: cite queries against a project file.

A *project file* (see :mod:`repro.relational.io`) bundles a schema, its
data, and the owner's citation views.  The CLI covers the owner/user loop
end to end:

.. code-block:: bash

    python -m repro.cli init-demo gtopdb.json       # write a demo project
    python -m repro.cli views gtopdb.json           # list citation views
    python -m repro.cli rewrite gtopdb.json 'Q(N) :- Family(F,N,Ty), Ty = "gpcr"'
    python -m repro.cli cite gtopdb.json 'Q(N) :- Family(F,N,Ty), Ty = "gpcr"'
    python -m repro.cli cite gtopdb.json --sql "SELECT FName FROM Family" \
        --policy comprehensive --format text
    python -m repro.cli plan gtopdb.json 'Q(N) :- Family(F,N,Ty), Ty = "gpcr"'
    python -m repro.cli plan gtopdb.json 'Q(N) :- Family(F,N,Ty), F < "F0020"'
    python -m repro.cli analyze gtopdb.json 'Q(N) :- Family(F,N,Ty), Ty = "x", Ty = "y"'
    python -m repro.cli cite-batch gtopdb.json queries.txt --stats
    python -m repro.cli serve --db gtopdb.json --port 8747
    python -m repro.cli replay --url http://127.0.0.1:8747 queries.txt

``serve`` starts the long-running asyncio citation service
(:mod:`repro.service`): one warm engine whose plan cache, rewriting
cache, sub-plan memo, and indexes amortize across all HTTP traffic;
``replay`` drives a query file against a live server and reports the
server-side cache hits the traffic earned.

Exit codes: 0 on success, 1 on usage errors, 2 on processing errors,
3 when static analysis proves the query can never return a row (the
``QA2xx`` diagnostics of :mod:`repro.analysis.diagnostics`, reported by
``analyze`` and by ``plan``/``cite`` on such queries; the service
answers HTTP 422 for the same condition).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.citation.formatting import (
    render_bibtex,
    render_json,
    render_text,
    render_xml,
)
from repro.citation.generator import CitationEngine
from repro.citation.policy import (
    compact_policy,
    comprehensive_policy,
    focused_policy,
)
from repro.errors import ReproError
from repro.relational.io import dump_project, load_project
from repro.rewriting.engine import enumerate_rewritings
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry

_POLICIES = {
    "comprehensive": lambda registry: comprehensive_policy(),
    "focused": focused_policy,
    "compact": compact_policy,
}

_FORMATS = {
    "json": render_json,
    "text": render_text,
    "xml": render_xml,
    "bibtex": render_bibtex,
}


def _load(path: str) -> tuple[Any, ViewRegistry]:
    db, view_specs = load_project(path)
    views = [
        CitationView.from_strings(
            view=spec["view"],
            citation_query=spec["citation_query"],
            labels=spec.get("labels"),
            description=spec.get("description", ""),
        )
        for spec in view_specs
    ]
    return db, ViewRegistry(db.schema, views)


def _build_engine(db: Any, registry: ViewRegistry,
                  policy_name: str) -> CitationEngine:
    try:
        policy_factory = _POLICIES[policy_name]
    except KeyError:
        raise ReproError(
            f"unknown policy {policy_name!r}; choose from "
            f"{sorted(_POLICIES)}"
        ) from None
    return CitationEngine(db, registry, policy=policy_factory(registry))


def cmd_init_demo(args: argparse.Namespace) -> int:
    """Write the paper's GtoPdb instance + views V1-V5 as a project file."""
    from repro.gtopdb.sample import paper_database

    db = paper_database()
    views = [
        {
            "view": "lambda F. V1(F, N, Ty) :- Family(F, N, Ty)",
            "citation_query": (
                "lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), "
                "Person(C, Pn, A)"
            ),
            "labels": ["ID", "Name", "Committee"],
        },
        {
            "view": "lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)",
            "citation_query": (
                "lambda F. CV2(F, N, Tx, Pn) :- Family(F, N, Ty), "
                "FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)"
            ),
            "labels": ["ID", "Name", "Text", "Contributors"],
        },
        {
            "view": "V3(F, N, Ty) :- Family(F, N, Ty)",
            "citation_query": (
                'CV3(X1, X2) :- MetaData(T1, X1), T1 = "Owner", '
                'MetaData(T2, X2), T2 = "URL"'
            ),
            "labels": ["Owner", "URL"],
        },
        {
            "view": "lambda Ty. V4(F, N, Ty) :- Family(F, N, Ty)",
            "citation_query": (
                "lambda Ty. CV4(Ty, N, Pn) :- Family(F, N, Ty), FC(F, C), "
                "Person(C, Pn, A)"
            ),
            "labels": ["Type", "Name", "Committee"],
        },
        {
            "view": (
                "lambda Ty. V5(F, N, Ty, Tx) :- Family(F, N, Ty), "
                "FamilyIntro(F, Tx)"
            ),
            "citation_query": (
                "lambda Ty. CV5(N, Ty, Tx, Pn) :- Family(F, N, Ty), "
                "FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)"
            ),
            "labels": ["Name", "Type", "Text", "Contributors"],
        },
    ]
    dump_project(db, args.project, views=views)
    print(f"wrote demo project to {args.project}")
    return 0


def cmd_views(args: argparse.Namespace) -> int:
    """List the project's citation views."""
    __, registry = _load(args.project)
    for view in registry:
        lambda_part = ""
        if view.is_parameterized:
            names = ", ".join(p.name for p in view.parameters)
            lambda_part = f" [λ {names}]"
        print(f"{view.name}{lambda_part}: {view.view}")
        if view.description:
            print(f"    {view.description}")
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    """Show the Def 2.2 rewritings of a query."""
    from repro.cq.parser import parse_query

    db, registry = _load(args.project)
    query = parse_query(args.query)
    rewritings = enumerate_rewritings(query, registry)
    if not rewritings:
        print("no rewritings (unsatisfiable query?)")
        return 0
    for rewriting in rewritings:
        kind = "total" if rewriting.is_total else "partial"
        print(f"[{kind}, {rewriting.view_count} view(s)] {rewriting.query}")
    return 0


def _is_union_text(text: str) -> bool:
    """True when Datalog text stacks more than one rule (a UCQ)."""
    rules = [
        chunk for chunk in text.replace(";", "\n").splitlines()
        if chunk.strip()
    ]
    return len(rules) > 1


def _parse_for_analysis(text: str, db: Any, sql: bool) -> Any:
    """The query object behind CLI text: a CQ, or a UnionQuery."""
    if sql:
        from repro.cq.sql_parser import parse_sql

        return parse_sql(text, db.schema)
    if _is_union_text(text):
        from repro.cq.ucq import parse_union_query

        return parse_union_query(text)
    from repro.cq.parser import parse_query

    return parse_query(text)


def _analyze(query: Any, db: Any) -> list:
    """Diagnostics for a parsed CQ or union (see ``repro analyze``)."""
    from repro.analysis import analyze_query, analyze_union
    from repro.cq.ucq import UnionQuery

    if isinstance(query, UnionQuery):
        return analyze_union(query, db)
    return analyze_query(query, db)


def _report_empty_query(diagnostics: list) -> int:
    """Print the error-severity findings; exit status 3 (provably empty)."""
    for finding in diagnostics:
        if finding.severity == "error":
            print(f"error: {finding.describe()}", file=sys.stderr)
    return 3


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run static analysis on a query and print the QA findings.

    ``QA1xx`` findings are warnings (legal but suspicious query shapes:
    cartesian products, subsumed union disjuncts, dangling atoms,
    mixed-type comparison risks); ``QA2xx`` findings are errors — the
    query can provably never return a row — and set exit status 3.

    ``--lint`` additionally runs the repo-invariant lint
    (:mod:`repro.analysis.lint`, the ``RL1xx`` codes) over the
    installed ``repro`` sources and prints any findings after the QA
    diagnostics; RL findings alone set exit status 1.
    """
    from repro.analysis import has_errors, render_diagnostics

    db, __ = _load(args.project)
    query = _parse_for_analysis(args.query, db, args.sql)
    diagnostics = _analyze(query, db)
    print(render_diagnostics(diagnostics))
    lint_findings = []
    if args.lint:
        from pathlib import Path

        import repro
        from repro.analysis.lint import run_lint

        lint_findings = run_lint([Path(repro.__file__).parent])
        if lint_findings:
            print()
            for finding in lint_findings:
                print(finding.describe())
            print(f"{len(lint_findings)} RL finding(s)")
        else:
            print("\nrepro lint: clean")
    if has_errors(diagnostics):
        return 3
    return 1 if lint_findings else 0


def cmd_cite(args: argparse.Namespace) -> int:
    """Cite a query (Datalog by default, SQL with --sql).

    Multi-rule Datalog text (rules separated by ``;`` or newlines) is
    cited as a union of conjunctive queries: per-tuple citations combine
    with ``+`` across the disjuncts that produce the tuple.

    A query that static analysis proves empty (contradictory equalities,
    an empty range interval, a false ground comparison) is reported with
    its QA diagnostic on stderr and exit status 3 instead of an empty
    citation.
    """
    from repro.analysis import has_errors

    db, registry = _load(args.project)
    diagnostics = _analyze(
        _parse_for_analysis(args.query, db, args.sql), db
    )
    if has_errors(diagnostics):
        return _report_empty_query(diagnostics)
    engine = _build_engine(db, registry, args.policy)
    if args.sql:
        result = engine.cite_sql(args.query)
    elif _is_union_text(args.query):
        result = engine.cite_union(args.query)
    else:
        result = engine.cite(args.query)
    renderer = _FORMATS[args.format]
    print(renderer(result))
    if args.explain:
        from repro.citation.explain import explain
        print()
        print(explain(result).describe())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Show the cost-based query plan (EXPLAIN) for a query.

    The rendering lists each step's single chosen access path — hash
    index, ordered index (ranges served by sorted indexes), or
    composite index (equality + range served by one
    hash-lookup-plus-bisect probe) — with the comparisons it absorbs,
    plus per-step residual checks.

    Multi-rule Datalog text plans as a union: one plan per disjunct,
    with the disjuncts' shared join prefixes reserved in a sub-plan
    memo so the EXPLAIN shows which steps would be evaluated once and
    shared (``shared prefix:`` lines).
    """
    from repro.analysis import has_errors
    from repro.cq.plan import plan_query
    from repro.cq.ucq import UnionQuery

    db, __ = _load(args.project)
    query = _parse_for_analysis(args.query, db, args.sql)
    diagnostics = _analyze(query, db)
    if isinstance(query, UnionQuery):
        from repro.cq.subplan import SubplanMemo

        print(query.explain(db, memo=SubplanMemo(),
                            diagnostics=diagnostics))
    else:
        print(plan_query(query, db).explain(diagnostics=diagnostics))
    if has_errors(diagnostics):
        return _report_empty_query(diagnostics)
    return 0


def cmd_cite_batch(args: argparse.Namespace) -> int:
    """Cite a file of queries (one Datalog query per line) as one batch.

    Blank lines and ``#`` comments are skipped.  Plans, rewritings, and
    materialized-view indexes are shared across the whole batch;
    --analyze runs the QA diagnostics over every query and folds
    per-code counters into the report; --stats prints the
    cache-effectiveness report afterwards.
    """
    from repro.workload.runner import run_workload

    db, registry = _load(args.project)
    engine = _build_engine(db, registry, args.policy)
    with open(args.queries, encoding="utf-8") as handle:
        queries = [
            line.strip()
            for line in handle
            if line.strip() and not line.strip().startswith("#")
        ]
    report = run_workload(engine, queries, analyze=args.analyze)
    renderer = _FORMATS[args.format]
    for result in report.results:
        print(renderer(result))
    if args.stats:
        print(report.describe(), file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio citation service over one shared warm engine.

    Binds an HTTP/1.1 front end (see :mod:`repro.service`) and serves
    ``/cite``, ``/cite-batch``, ``/plan``, ``/analyze``, ``/insert``,
    ``/delete``, and ``/stats`` until SIGTERM/SIGINT, then drains
    gracefully (stops accepting, finishes in-flight requests, exits 0).
    Concurrent single-query ``/cite`` traffic is micro-batched into
    ``cite_batch`` calls so it shares the sub-plan memo across clients.
    """
    import asyncio

    from repro.service.server import CitationService, ServiceConfig

    db, registry = _load(args.db)
    engine = _build_engine(db, registry, args.policy)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        request_timeout_s=args.timeout,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
    )
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.INFO, format="%(message)s")
    service = CitationService(engine, config)

    async def main() -> None:
        await service.start()
        # Parseable by wrappers (the smoke harness reads the port off
        # this line when --port 0 binds an ephemeral one).
        print(
            f"serving {args.db} on http://{config.host}:{service.port} "
            f"(policy={args.policy})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        import signal as signal_module

        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        finally:
            await service.shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a query file against a live citation service.

    POSTs every query (one Datalog query per line; blank lines and
    ``#`` comments skipped) to the server's ``/cite`` endpoint in order
    and prints the replay report: per-status counts, latency, and the
    *server-side* cache-hit deltas the traffic earned — the warm-cache
    amortization a long-running service exists for.  Exits 2 when any
    request failed with a 5xx or transport error.
    """
    from repro.workload.runner import replay_workload

    with open(args.queries, encoding="utf-8") as handle:
        queries = [
            line.strip()
            for line in handle
            if line.strip() and not line.strip().startswith("#")
        ]
    report = replay_workload(args.url, queries, timeout=args.timeout)
    print(report.describe())
    server_errors = sum(
        count for status, count in report.statuses.items()
        if status >= 500
    )
    return 2 if server_errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fine-grained data citation (Davidson et al., CIDR'17)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    init_demo = commands.add_parser(
        "init-demo", help="write the GtoPdb demo project file"
    )
    init_demo.add_argument("project")
    init_demo.set_defaults(func=cmd_init_demo)

    views = commands.add_parser("views", help="list citation views")
    views.add_argument("project")
    views.set_defaults(func=cmd_views)

    rewrite = commands.add_parser(
        "rewrite", help="show rewritings of a query"
    )
    rewrite.add_argument("project")
    rewrite.add_argument("query")
    rewrite.set_defaults(func=cmd_rewrite)

    cite = commands.add_parser("cite", help="cite a query")
    cite.add_argument("project")
    cite.add_argument("query")
    cite.add_argument("--sql", action="store_true",
                      help="interpret the query as SQL")
    cite.add_argument("--policy", default="focused",
                      choices=sorted(_POLICIES))
    cite.add_argument("--format", default="json", choices=sorted(_FORMATS))
    cite.add_argument("--explain", action="store_true",
                      help="append a human-readable explanation")
    cite.set_defaults(func=cmd_cite)

    plan = commands.add_parser(
        "plan", help="show the cost-based query plan (EXPLAIN)"
    )
    plan.add_argument("project")
    plan.add_argument("query")
    plan.add_argument("--sql", action="store_true",
                      help="interpret the query as SQL")
    plan.set_defaults(func=cmd_plan)

    analyze = commands.add_parser(
        "analyze",
        help="static analysis: QA diagnostics for a query "
             "(exit 3 when provably empty)",
    )
    analyze.add_argument("project")
    analyze.add_argument("query")
    analyze.add_argument("--sql", action="store_true",
                         help="interpret the query as SQL")
    analyze.add_argument("--lint", action="store_true",
                         help="also run the RL1xx repo-invariant lint "
                              "over the installed repro sources "
                              "(exit 1 on findings)")
    analyze.set_defaults(func=cmd_analyze)

    cite_batch = commands.add_parser(
        "cite-batch",
        help="cite a file of queries as one batch (shared plans/rewritings)",
    )
    cite_batch.add_argument("project")
    cite_batch.add_argument("queries",
                            help="file with one Datalog query per line")
    cite_batch.add_argument("--policy", default="focused",
                            choices=sorted(_POLICIES))
    cite_batch.add_argument("--format", default="json",
                            choices=sorted(_FORMATS))
    cite_batch.add_argument("--stats", action="store_true",
                            help="print cache-effectiveness statistics")
    cite_batch.add_argument("--analyze", action="store_true",
                            help="aggregate per-query QA diagnostics "
                                 "into the --stats report")
    cite_batch.set_defaults(func=cmd_cite_batch)

    serve = commands.add_parser(
        "serve",
        help="run the asyncio citation service (one warm shared engine)",
    )
    serve.add_argument("--db", required=True, metavar="PROJECT",
                       help="project file (schema + data + views)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8747,
                       help="bind port (0 picks an ephemeral port, "
                            "printed on startup)")
    serve.add_argument("--policy", default="focused",
                       choices=sorted(_POLICIES))
    serve.add_argument("--timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-request deadline (expiry answers 504)")
    serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                       help="admission-queue bound; beyond it requests "
                            "get 429 + Retry-After")
    serve.add_argument("--max-batch", type=int, default=16, metavar="N",
                       help="largest cross-client micro-batch")
    serve.add_argument("--verbose", action="store_true",
                       help="structured request logging to stderr")
    serve.set_defaults(func=cmd_serve)

    replay = commands.add_parser(
        "replay",
        help="replay a query file against a live citation service",
    )
    replay.add_argument("queries",
                        help="file with one Datalog query per line")
    replay.add_argument("--url", required=True,
                        help="service base URL, e.g. "
                             "http://127.0.0.1:8747")
    replay.add_argument("--timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="client-side timeout per request")
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
