#!/usr/bin/env python
"""Engine-invariant linter: AST checks for rules the engine relies on but
that no type checker or generic linter enforces.

Rules
-----
ENG001 operator-checkpoint
    Every ``Operator`` subclass in ``sqlengine/plan.py`` that defines
    ``execute`` must call ``ctx.checkpoint()`` so cooperative
    cancellation/timeout fires at operator boundaries.  Operators doing
    O(1) work (``DualScan``, ``Limit``) are allowlisted.

ENG002 typed-errors
    Engine code must raise ``repro.errors`` types, never bare builtins —
    callers (the fuzz differential harness, the server admission layer)
    dispatch on the typed hierarchy.  ``NotImplementedError`` is exempt
    (abstract methods); deliberate internal control-flow raises are
    allowlisted.

ENG003 silent-broad-except
    A bare ``except:`` / ``except Exception:`` whose body is only ``pass``
    hides real engine bugs.  Broad excepts with an explicit conservative
    fallback (zone-map pruning, selectivity sampling) are fine and not
    flagged.

ENG004 lock-order
    ``PreparedStatement._refresh_lock`` is acquired *before*
    ``Database._cache_lock`` (refresh → plan-entry rebuild).  Acquiring
    ``_refresh_lock`` while holding ``_cache_lock`` inverts that order and
    can deadlock under concurrent DDL.

ENG005 duration-clock
    Durations and deadlines must use ``time.perf_counter()`` /
    ``time.monotonic()``; ``time.time()`` jumps with wall-clock
    adjustments.  Genuine wall-clock timestamps are allowlisted.

ENG006 mutable-default
    List/dict/set literals as parameter defaults are shared across calls.

ENG007 eager-analysis-import
    ``repro.analysis`` imports the SQL engine and the IR, so engine and
    core modules must import it lazily (inside the function that needs
    it).  A module-level import reintroduces the cycle
    ``analysis → core → backends → …``.

ENG008 executor-private-access
    Operators (``sqlengine/``) and the spill path (``storage/``) talk to
    the per-execution driver through its public surface (``note``,
    ``check_runtime``, ``execute_body``, ``params``, ``stats`` …).  An
    ``executor._x`` / ``<expr>.executor._x`` attribute access outside
    ``sqlengine/executor.py`` grows the operator→driver cycle back.

ENG009 distribution-in-planner
    The planner alone decides what a query distributes (it places
    ``plan.Exchange``); the serving tier ships plans, never SQL.  No
    module under ``src/repro/server/`` may import
    ``repro.sqlengine.parser`` or anything from ``repro.sqlengine.sqlast``
    — at any level, lazily included: a server module that can parse or
    take apart a ``Select`` is a second, syntactic analyzer in the making.

ENG010 ast-shape-in-sqlast
    ``sqlengine/sqlast.py`` alone says which fields of a SQL AST node hold
    its children (``sqlast.children`` / ``bodies`` / ``clauses`` /
    ``map_children`` / ``walk`` / ``expr_key`` derive from that).  Anywhere
    else, ``getattr(x, "<name>")`` with a literal child-field name
    (``left right operand low high arg args items branches default
    partition_by order_by query``), or a ``for attr in ("left", "right",
    ...)`` loop that feeds such names to ``getattr``, is a second,
    hand-written copy of a node's shape — the kind that forgot
    ``InList.items`` in one walker and ``negated`` in one key.

ENG011 groupby-reverse-dependency
    The grouped reducer (``GroupLayout`` / ``GroupedColumn``) lives in
    ``sqlengine/grouping.py`` and ``DataFrame.groupby`` calls it, not the
    reverse.  No module under ``src/repro/sqlengine/`` may import
    ``repro.dataframe.groupby`` — at any level, lazily included: an engine
    that reaches into the DataFrame library for its kernels grows a second
    copy of them there.

ENG012 tondir-shape-in-ir
    ``core/tondir/ir.py`` alone says which fields of a TondIR term or atom
    hold terms, variables or nested bodies (``children`` / ``walk`` /
    ``map_children`` / ``atom_terms`` / ``atom_vars`` / ``rename_atom``
    derive from that).  Anywhere else, a function that ``isinstance``-tests
    three or more TondIR term classes (``Var Const BinOp If Agg Ext Win``)
    and calls itself is a second, hand-written walk of the term tree — the
    kind that forgot ``Win`` in one ladder and NULLs in another.

ENG013 chunk-arrays-in-operators
    ``Chunk.arrays`` gathers every pending column of a chunk (late
    materialization, ``sqlengine/table.py``).  In the operator modules —
    ``sqlengine/{plan,joins,expressions,executor,setops,window,grouping}.py``
    — an operator reads the columns it uses through ``Chunk.column`` /
    ``kind`` / ``dtype``, so that a column no operator reads is never
    gathered; any ``.arrays`` read there is flagged.  The places that need
    every column (set operations, ``Distinct``) are allowlisted.

ENG014 method-ladder-in-translator
    The translator declares its pandas/NumPy surface once: one emitter
    ``_<kind>__<method>`` per supported call, found by its name
    (``core/translate/engine.py``).  Under ``src/repro/core/translate/``, a
    function with three or more ``if`` / ``elif`` branches that each test
    the same name against string literals (``name == "lit"``,
    ``name in ("a", "b")``, or an ``or`` of those) is a hand-written
    dispatch ladder growing back beside that declaration.

Findings are identified as ``path:RULE:symbol`` (symbol = nearest
enclosing ``Class.function``, or ``<module>``); adding that line to
``tools/lint_engine_allow.txt`` suppresses the finding.  Run:

    python tools/lint_engine.py          # lint src/repro
    python tools/lint_engine.py --list   # show every finding id, even allowed
"""
from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ALLOWLIST = REPO / "tools" / "lint_engine_allow.txt"

# Packages whose raises must come from the repro.errors hierarchy.
TYPED_ERROR_PACKAGES = ("sqlengine", "backends", "storage", "analysis", "server")
BUILTIN_EXCEPTIONS = {
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "RuntimeError", "OSError", "IOError", "ArithmeticError",
    "ZeroDivisionError", "AttributeError", "LookupError", "StopIteration",
}
# Operators whose execute does O(1) work; a checkpoint would be pure noise.
CHECKPOINT_EXEMPT = {"DualScan", "Limit"}
BROAD_EXCEPTS = {"Exception", "BaseException"}
# Packages that must not reach into Executor privates, and the one module
# that owns them.
EXECUTOR_CLIENT_PACKAGES = ("sqlengine", "storage")
EXECUTOR_MODULE = "src/repro/sqlengine/executor.py"
# Modules the serving tier must not import (ENG009).
SERVER_FORBIDDEN_MODULES = ("repro.sqlengine.parser", "repro.sqlengine.sqlast")
# The module the SQL engine must not import (ENG011).
ENGINE_FORBIDDEN_MODULE = "repro.dataframe.groupby"
# The module that declares the SQL AST's shape, and the child-field names
# nothing else may probe for (ENG010).
AST_MODULE = "src/repro/sqlengine/sqlast.py"
AST_CHILD_FIELDS = frozenset(
    "left right operand low high arg args items branches default "
    "partition_by order_by query".split())
# The operator modules that read chunk columns one at a time (ENG013).
CHUNK_READER_MODULES = frozenset(
    f"src/repro/sqlengine/{m}.py" for m in
    "plan joins expressions executor setops window grouping".split())
# The module that declares TondIR's shape, and its term classes (ENG012).
TONDIR_IR_MODULE = "src/repro/core/tondir/ir.py"
TONDIR_TERM_CLASSES = frozenset("Var Const BinOp If Agg Ext Win".split())
# The package that declares the translator's surface (ENG014), and how many
# literal-test branches on one name make a ladder.
TRANSLATE_PACKAGE = "src/repro/core/translate/"
LADDER_BRANCHES = 3


class Finding:
    def __init__(self, rule: str, path: Path, line: int, symbol: str, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.symbol = symbol
        self.message = message

    @property
    def ident(self) -> str:
        rel = self.path.relative_to(REPO).as_posix()
        return f"{rel}:{self.rule}:{self.symbol}"

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO).as_posix()
        return f"{rel}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


def _symbol_of(stack: list[str]) -> str:
    return ".".join(stack) if stack else "<module>"


def _is_name(node: ast.expr, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _is_getattr(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id == "getattr" \
        and len(call.args) >= 2


def _child_field(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in AST_CHILD_FIELDS


def _calls_in(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _own_nodes(func):
    """The nodes of a function body, not descending into nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _is_str(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _literal_test_name(test: ast.expr) -> str | None:
    """The name an ``if`` test compares with string literals, if any."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        names = {_literal_test_name(v) for v in test.values}
        return names.pop() if len(names) == 1 else None
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Name)):
        return None
    op, right = test.ops[0], test.comparators[0]
    if isinstance(op, ast.Eq) and _is_str(right):
        return test.left.id
    if isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.List, ast.Set)) \
            and right.elts and all(_is_str(e) for e in right.elts):
        return test.left.id
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: Path, findings: list[Finding]):
        self.path = path
        self.findings = findings
        self.stack: list[str] = []
        self.rel = path.relative_to(REPO).as_posix()
        self.in_engine = any(f"repro/{pkg}/" in self.rel
                             for pkg in TYPED_ERROR_PACKAGES)
        self.executor_client = self.rel != EXECUTOR_MODULE and any(
            f"repro/{pkg}/" in self.rel for pkg in EXECUTOR_CLIENT_PACKAGES)

    def emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(rule, self.path, node.lineno,
                                     _symbol_of(self.stack), message))

    # -- scope tracking ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_operator_checkpoint(node)
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def _visit_func(self, node) -> None:
        self._check_mutable_defaults(node)
        self._check_term_walk(node)
        self._check_method_ladder(node)
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- ENG001 -----------------------------------------------------------
    def _check_operator_checkpoint(self, node: ast.ClassDef) -> None:
        if self.rel != "src/repro/sqlengine/plan.py":
            return
        if not any(_is_name(b, "Operator") for b in node.bases):
            return
        if node.name in CHECKPOINT_EXEMPT:
            return
        execute = next((s for s in node.body
                        if isinstance(s, ast.FunctionDef)
                        and s.name == "execute"), None)
        if execute is None:
            return
        for call in _calls_in(execute):
            if isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "checkpoint":
                return
        self.findings.append(Finding(
            "ENG001", self.path, execute.lineno, node.name,
            "Operator.execute without a ctx.checkpoint() call — "
            "cancellation/timeout cannot interrupt this operator"))

    # -- ENG002 -----------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        if self.in_engine and node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            if name in BUILTIN_EXCEPTIONS:
                self.emit("ENG002", node,
                          f"raises builtin {name} — engine errors must "
                          f"subclass repro.errors.ReproError")
        self.generic_visit(node)

    # -- ENG003 -----------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name) and node.type.id in BROAD_EXCEPTS
        )
        silent = all(isinstance(s, ast.Pass) for s in node.body)
        if broad and silent:
            self.emit("ENG003", node,
                      "broad except with a pass-only body swallows "
                      "engine bugs silently")
        self.generic_visit(node)

    # -- ENG004 -----------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        holds_cache = any(_is_name(item.context_expr, "_cache_lock")
                          for item in node.items)
        if holds_cache:
            for sub in ast.walk(node):
                if sub is node:
                    continue
                if isinstance(sub, ast.With) and any(
                    _is_name(item.context_expr, "_refresh_lock")
                    for item in sub.items
                ):
                    self.emit("ENG004", sub,
                              "_refresh_lock acquired while holding "
                              "_cache_lock — inverts the documented "
                              "refresh-before-cache order (deadlock risk)")
        self.generic_visit(node)

    # -- ENG005 -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "time" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "time":
            self.emit("ENG005", node,
                      "time.time() — use time.perf_counter() (or "
                      "time.monotonic()) for durations/deadlines")
        if self.rel != AST_MODULE and _is_getattr(node) \
                and _child_field(node.args[1]):
            self.emit("ENG010", node,
                      f"getattr(..., {node.args[1].value!r}) probes an AST "
                      f"node's shape — use the traversals sqlast derives "
                      f"from its declaration")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        names = node.iter.elts \
            if isinstance(node.iter, (ast.Tuple, ast.List, ast.Set)) else []
        if self.rel != AST_MODULE and isinstance(node.target, ast.Name) \
                and any(_child_field(n) for n in names) and any(
                    _is_getattr(call) and _is_name(call.args[1], node.target.id)
                    for call in _calls_in(node)):
            self.emit("ENG010", node,
                      "loop over literal AST child-field names feeding "
                      "getattr — use the traversals sqlast derives from "
                      "its declaration")
        self.generic_visit(node)

    # -- ENG006 -----------------------------------------------------------
    def _check_mutable_defaults(self, node) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for d in defaults:
            if isinstance(d, (ast.List, ast.Dict, ast.Set)):
                self.findings.append(Finding(
                    "ENG006", self.path, d.lineno,
                    _symbol_of(self.stack + [node.name]),
                    "mutable literal as parameter default is shared "
                    "across calls"))

    # -- ENG012 -----------------------------------------------------------
    def _check_term_walk(self, node) -> None:
        if self.rel == TONDIR_IR_MODULE:
            return
        tested: set[str] = set()
        recursive = False
        for call in _calls_in(node):
            if isinstance(call.func, ast.Name) and call.func.id == "isinstance" \
                    and len(call.args) == 2:
                classes = call.args[1]
                for c in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
                    if isinstance(c, ast.Name) and c.id in TONDIR_TERM_CLASSES:
                        tested.add(c.id)
            recursive |= _is_name(call.func, node.name)
        if len(tested) >= 3 and recursive:
            self.findings.append(Finding(
                "ENG012", self.path, node.lineno,
                _symbol_of(self.stack + [node.name]),
                f"recursive isinstance ladder over TondIR terms "
                f"({', '.join(sorted(tested))}) — use the traversals "
                f"core/tondir/ir.py derives from its declaration"))

    # -- ENG014 -----------------------------------------------------------
    def _check_method_ladder(self, node) -> None:
        if not self.rel.startswith(TRANSLATE_PACKAGE):
            return
        branches: dict[str, int] = {}
        for sub in _own_nodes(node):
            name = _literal_test_name(sub.test) if isinstance(sub, ast.If) else None
            if name is not None:
                branches[name] = branches.get(name, 0) + 1
        for name, count in branches.items():
            if count >= LADDER_BRANCHES:
                self.findings.append(Finding(
                    "ENG014", self.path, node.lineno,
                    _symbol_of(self.stack + [node.name]),
                    f"{count} branches test {name!r} against string literals "
                    f"— declare each call as a _<kind>__<method> emitter "
                    f"instead of a dispatch ladder"))

    # -- ENG008, ENG013 ---------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.rel in CHUNK_READER_MODULES and node.attr == "arrays" \
                and isinstance(node.ctx, ast.Load):
            self.emit("ENG013", node,
                      ".arrays gathers every column of a chunk — read the "
                      "columns the operator uses with Chunk.column / kind / "
                      "dtype")
        if self.executor_client and node.attr.startswith("_") \
                and not node.attr.startswith("__") \
                and _is_name(node.value, "executor"):
            self.emit("ENG008", node,
                      f"executor.{node.attr} — private Executor member "
                      f"reached from outside sqlengine/executor.py; use "
                      f"the driver's public surface")
        self.generic_visit(node)

    # -- ENG007 -----------------------------------------------------------
    def _resolved_module(self, module: str, level: int) -> str:
        """Absolute dotted path of an import as seen from this file."""
        if level == 0:
            return module
        # src/repro/sqlengine/planner.py → package repro.sqlengine
        parts = self.rel.removeprefix("src/").removesuffix(".py").split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        else:
            parts = parts[:-1]
        base = parts[: len(parts) - (level - 1)] if level > 1 else parts
        return ".".join(base + ([module] if module else []))

    def _check_import(self, node, resolved: str, names: tuple = ()) -> None:
        # ENG009 (any nesting level): the module itself, or — for
        # "from ..sqlengine import parser" — one of the imported names.
        if self.rel.startswith("src/repro/server/"):
            for target in (resolved, *(f"{resolved}.{n}" for n in names)):
                if target in SERVER_FORBIDDEN_MODULES:
                    self.emit("ENG009", node,
                              f"import of {target!r} from the serving tier "
                              f"— distribution is decided by the planner "
                              f"on operators, not on SQL text or AST")
        if self.rel.startswith("src/repro/sqlengine/") and ENGINE_FORBIDDEN_MODULE in (
                resolved, *(f"{resolved}.{n}" for n in names)):
            self.emit("ENG011", node,
                      f"import of {ENGINE_FORBIDDEN_MODULE!r} from the SQL "
                      f"engine — the grouped reducer lives in "
                      f"sqlengine/grouping.py and the DataFrame calls it")
        if self.stack:
            return  # lazy (function-level) import: exactly what we want
        if resolved == "repro.analysis" \
                or resolved.startswith("repro.analysis."):
            if not self.rel.startswith("src/repro/analysis/"):
                self.emit("ENG007", node,
                          f"module-level import of {resolved!r} from engine "
                          f"code — import repro.analysis lazily to avoid "
                          f"the analysis → core → backends import cycle")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_import(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # "from ..analysis import x" / "from repro.analysis import x"
        self._check_import(
            node, self._resolved_module(node.module or "", node.level),
            tuple(alias.name for alias in node.names))


def lint_file(path: Path, findings: list[Finding]) -> None:
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        findings.append(Finding("ENG000", path, exc.lineno or 0, "<module>",
                                f"syntax error: {exc.msg}"))
        return
    _Linter(path, findings).visit(tree)


def load_allowlist() -> set[str]:
    if not ALLOWLIST.exists():
        return set()
    entries = set()
    for line in ALLOWLIST.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.split("#")[0].strip())
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--list", action="store_true",
                        help="print every finding id including allowlisted ones")
    args = parser.parse_args(argv)

    roots = args.paths or [SRC]
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)

    findings: list[Finding] = []
    for path in files:
        lint_file(path.resolve(), findings)

    allow = load_allowlist()
    active = [f for f in findings if f.ident not in allow]
    stale = allow - {f.ident for f in findings}

    if args.list:
        for f in findings:
            mark = "allowed " if f.ident in allow else ""
            print(f"{mark}{f}")
    else:
        for f in active:
            print(f)
    for ident in sorted(stale):
        print(f"stale allowlist entry (no matching finding): {ident}")

    if active or stale:
        print(f"\n{len(active)} violation(s), {len(stale)} stale "
              f"allowlist entr(ies)", file=sys.stderr)
        return 1
    print(f"lint_engine: clean ({len(files)} files, "
          f"{len(findings)} finding(s) allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
