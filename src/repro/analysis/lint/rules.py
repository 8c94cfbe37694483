"""The ``RL1xx`` rule implementations.

Each rule is a visitor pass over one file's AST.  Rules are
deliberately narrow: they encode *this repository's* conventions (the
ones ARCHITECTURE.md's concurrency model documents and the runtime
sanitizer enforces dynamically), not general Python style — ruff owns
that.  Codes are stable: tooling and suppressions may rely on them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: Database/engine mutators that must go through the engine lane in
#: service code (RL101).
MUTATOR_NAMES = frozenset({
    "insert",
    "insert_all",
    "insert_batch",
    "insert_many",
    "delete",
    "invalidate_data",
    "refresh",
})

#: Receiver names that identify the shared engine/database state.
ENGINE_RECEIVERS = frozenset({"engine", "db", "database"})

#: Awaitable lane/engine entry points whose result must not be
#: discarded (RL103).
MUST_USE_NAMES = frozenset({
    "submit",
    "submit_cite",
    "acite_batch",
    "acite_union",
    "wait_bounded",
})

#: Attribute-name fragments that mark a dict as a cache (RL102).
CACHE_NAME_FRAGMENTS = ("cache", "memo")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation: stable code, message, and location."""

    code: str
    message: str
    path: Path
    line: int

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _receiver_names(node: ast.expr) -> set[str]:
    """Every bare name in an attribute chain (``a.b.c`` -> {a, b, c})."""
    names: set[str] = set()
    while isinstance(node, ast.Attribute):
        names.add(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.add(node.id)
    return names


def _is_dict_constructor(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"dict", "OrderedDict"} and not node.args
    return False


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: Path) -> None:
        self.path = path
        self.findings: list[LintFinding] = []
        #: Stack of enclosing function nodes (innermost last).
        self._functions: list[ast.AST] = []
        self._in_service = "service" in path.parts

    def _flag(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            LintFinding(code, message, self.path, node.lineno)
        )

    # -- function nesting ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    # -- RL101: service mutations outside the lane --------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self._in_service
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_NAMES
            and self._functions
            and isinstance(self._functions[-1], ast.AsyncFunctionDef)
            and _receiver_names(node.func.value) & ENGINE_RECEIVERS
        ):
            self._flag(
                "RL101",
                f"engine/database mutation `{node.func.attr}` called "
                "directly from async service code; queue it as an "
                "engine-lane job (a sync closure passed to "
                "`lane.submit`) so writes stay serialized with reads",
                node,
            )
        self.generic_visit(node)

    # -- RL102: unbounded cache construction --------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cache_assigns: list[tuple[str, ast.AST]] = []
        has_bound = False
        for statement in ast.walk(node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign):
                targets, value = [statement.target], statement.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                name = target.attr.lower()
                if "max" in name:
                    has_bound = True
                elif (
                    any(part in name for part in CACHE_NAME_FRAGMENTS)
                    and value is not None
                    and _is_dict_constructor(value)
                ):
                    cache_assigns.append((target.attr, statement))
        if not has_bound:
            for name, statement in cache_assigns:
                self._flag(
                    "RL102",
                    f"cache attribute `{name}` constructed without any "
                    "`*max*` bound in the class; long-lived engines "
                    "must not accumulate cache entries without limit "
                    "(see repro.util.lru)",
                    statement,
                )
        self.generic_visit(node)

    # -- RL103: discarded lane submissions ----------------------------------

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in MUST_USE_NAMES
        ):
            self._flag(
                "RL103",
                f"result of `{value.func.attr}(...)` discarded; lane "
                "submissions and async engine calls return a "
                "future/coroutine that must be awaited (or stored) or "
                "the job's outcome — including its errors — is lost",
                node,
            )
        self.generic_visit(node)

    # -- RL105: bare / swallowing excepts ------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                "RL105",
                "bare `except:` catches KeyboardInterrupt and "
                "SystemExit; name the exceptions (engine errors derive "
                "from ReproError)",
                node,
            )
        elif (
            isinstance(node.type, ast.Name)
            and node.type.id in {"Exception", "BaseException"}
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)
        ):
            self._flag(
                "RL105",
                f"`except {node.type.id}: pass` silently swallows "
                "engine failures; handle or at least log them",
                node,
            )
        self.generic_visit(node)


def lint_file(path: Path) -> list[LintFinding]:
    """Run every rule over one Python file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintFinding(
                "RL100",
                f"file does not parse: {exc.msg}",
                path,
                exc.lineno or 1,
            )
        ]
    linter = _FileLinter(path)
    linter.visit(tree)
    return linter.findings


def run_lint(paths: list[Path]) -> list[LintFinding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[LintFinding] = []
    for file in files:
        findings.extend(lint_file(file))
    return findings
