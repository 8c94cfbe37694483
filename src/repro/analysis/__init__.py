"""Static and dynamic analysis over the engine.

Three layers, all purely observational (they never change what a query
computes):

- :mod:`repro.analysis.verifier` — a rulebook of structural invariants
  checked against any :class:`~repro.cq.plan.QueryPlan`; violations
  raise :class:`~repro.analysis.verifier.PlanVerificationError` with
  step-indexed messages.  ``QueryPlanner(verify="always")`` (or the
  ``REPRO_VERIFY_PLANS=always`` sanitizer switch) runs it on every plan
  produced, turning the optimizer's implicit correctness contract into
  machine-checked rules.
- :mod:`repro.analysis.diagnostics` — stable-coded lint findings
  (``QA1xx`` warnings, ``QA2xx`` errors) for query shapes that are
  legal but almost certainly wrong: cartesian products, contradictory
  closures, subsumed union disjuncts, dangling atoms, mixed-type
  comparison risk.  Surfaced through ``repro analyze``, EXPLAIN, and
  the workload report.
- :mod:`repro.analysis.sanitizer` — the runtime concurrency sanitizer
  (``REPRO_SANITIZE=always`` / ``pytest --sanitize``): lane-ownership
  and thread-affinity checks on database mutations, independent
  re-validation of version-keyed cache serves, and event-loop
  blocking detection, raising
  :class:`~repro.analysis.sanitizer.ConcurrencySanitizerError` with
  both sides' stacks.  :mod:`repro.analysis.lint` is its static
  counterpart: AST rules with stable ``RL1xx`` codes enforcing the
  same conventions on the source tree (``tools/run_repro_lint.py``,
  ``repro analyze --lint``).

This package is imported lazily (PEP 562): the runtime modules it
instruments (``relational``, ``cq``, ``service``) import
``repro.analysis.sanitizer`` at module top, so this ``__init__`` must
not eagerly pull in the analysis layers that import *them* back.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "Diagnostic": "repro.analysis.diagnostics",
    "analyze_query": "repro.analysis.diagnostics",
    "analyze_union": "repro.analysis.diagnostics",
    "has_errors": "repro.analysis.diagnostics",
    "render_diagnostics": "repro.analysis.diagnostics",
    "PlanVerificationError": "repro.analysis.verifier",
    "check_plan": "repro.analysis.verifier",
    "verify_plan": "repro.analysis.verifier",
    "verify_plans": "repro.analysis.verifier",
    "ConcurrencySanitizerError": "repro.analysis.sanitizer",
    "sanitize_mode": "repro.analysis.sanitizer",
    "set_sanitize": "repro.analysis.sanitizer",
    "LintFinding": "repro.analysis.lint",
    "run_lint": "repro.analysis.lint",
}

_SUBMODULES = ("diagnostics", "lint", "sanitizer", "verifier")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str) -> Any:
    import importlib

    if name in _EXPORTS:
        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        module = importlib.import_module(f"{__name__}.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
