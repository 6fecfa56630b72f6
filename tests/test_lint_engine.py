"""Engine-invariant linter tests: each ENG rule fires on a minimal
synthetic source fragment and stays quiet on the idiomatic counterpart;
allowlist and stale-entry behaviour are exercised through ``main``.

Fragments are parsed directly and visited with the real ``_Linter``
against a *virtual* repo path, so path-scoped rules (ENG001 only in
``sqlengine/plan.py``, ENG002 only in engine packages, ENG007 relative
import resolution, ENG008 only in ``sqlengine/`` and ``storage/``, ENG009
only in ``server/``, ENG010 everywhere but ``sqlengine/sqlast.py``, ENG011
only in ``sqlengine/``, ENG012 everywhere but ``core/tondir/ir.py``, ENG013
only in the operator modules of ``sqlengine/``, ENG014 only in
``core/translate/``) see the same inputs they do in production.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_engine  # noqa: E402

PLAN = REPO / "src/repro/sqlengine/plan.py"
ENGINE = REPO / "src/repro/sqlengine/somemodule.py"
STORAGE = REPO / "src/repro/storage/somemodule.py"
CORE = REPO / "src/repro/core/somemodule.py"
TONDIR = REPO / "src/repro/core/tondir/optimize.py"


def lint(source: str, path: Path = ENGINE):
    findings: list[lint_engine.Finding] = []
    tree = ast.parse(source)
    lint_engine._Linter(path, findings).visit(tree)
    return findings


def rules(findings):
    return [f.rule for f in findings]


class TestOperatorCheckpoint:
    SRC = """
class MyScan(Operator):
    def execute(self, ctx):
        return ctx.env["t"]
"""

    def test_missing_checkpoint_in_plan_py(self):
        (finding,) = lint(self.SRC, PLAN)
        assert finding.rule == "ENG001"
        assert finding.symbol == "MyScan"

    def test_checkpoint_call_satisfies(self):
        src = self.SRC.replace('return ctx.env["t"]',
                               'ctx.checkpoint()\n        return 1')
        assert lint(src, PLAN) == []

    def test_exempt_operator(self):
        src = self.SRC.replace("MyScan", "DualScan")
        assert lint(src, PLAN) == []

    def test_only_applies_to_plan_py(self):
        assert lint(self.SRC, ENGINE) == []

    def test_non_operator_class_ignored(self):
        src = self.SRC.replace("(Operator)", "")
        assert lint(src, PLAN) == []


class TestTypedErrors:
    def test_builtin_raise_in_engine_code(self):
        (finding,) = lint("def f():\n    raise ValueError('x')\n")
        assert finding.rule == "ENG002"
        assert finding.symbol == "f"

    def test_typed_raise_passes(self):
        assert lint("def f():\n    raise SQLBindError('x')\n") == []

    def test_not_implemented_exempt(self):
        assert lint("def f():\n    raise NotImplementedError\n") == []

    def test_bare_reraise_exempt(self):
        assert lint("def f():\n    try:\n        g()\n"
                    "    except KeyError:\n        raise\n") == []

    def test_non_engine_package_ignored(self):
        assert lint("def f():\n    raise ValueError('x')\n", CORE) == []


class TestSilentBroadExcept:
    def test_bare_except_pass(self):
        (finding,) = lint("try:\n    f()\nexcept:\n    pass\n")
        assert finding.rule == "ENG003"

    def test_broad_exception_pass(self):
        (finding,) = lint("try:\n    f()\nexcept Exception:\n    pass\n")
        assert finding.rule == "ENG003"

    def test_broad_with_fallback_passes(self):
        # An explicit conservative fallback is the documented idiom.
        assert lint("try:\n    x = f()\nexcept Exception:\n    x = None\n") \
            == []

    def test_narrow_except_pass_passes(self):
        assert lint("try:\n    f()\nexcept KeyError:\n    pass\n") == []


class TestLockOrder:
    def test_refresh_inside_cache(self):
        src = ("def f(self):\n"
               "    with self._cache_lock:\n"
               "        with self._refresh_lock:\n"
               "            pass\n")
        (finding,) = lint(src)
        assert finding.rule == "ENG004"

    def test_documented_order_passes(self):
        src = ("def f(self):\n"
               "    with self._refresh_lock:\n"
               "        with self._cache_lock:\n"
               "            pass\n")
        assert lint(src) == []


class TestDurationClock:
    def test_time_time(self):
        (finding,) = lint("import time\nstart = time.time()\n")
        assert finding.rule == "ENG005"

    def test_perf_counter_passes(self):
        assert lint("import time\nstart = time.perf_counter()\n") == []


class TestMutableDefault:
    def test_list_default(self):
        (finding,) = lint("def f(xs=[]):\n    return xs\n")
        assert finding.rule == "ENG006"
        assert finding.symbol == "f"

    def test_dict_kwonly_default(self):
        (finding,) = lint("def f(*, m={}):\n    return m\n")
        assert finding.rule == "ENG006"

    def test_none_default_passes(self):
        assert lint("def f(xs=None):\n    return xs\n") == []

    def test_tuple_default_passes(self):
        assert lint("def f(xs=()):\n    return xs\n") == []


class TestEagerAnalysisImport:
    def test_absolute_module_level_import(self):
        (finding,) = lint("from repro.analysis import verify_plan\n")
        assert finding.rule == "ENG007"
        assert finding.symbol == "<module>"

    def test_relative_module_level_import(self):
        # from ..analysis import x, seen from src/repro/sqlengine/,
        # resolves to repro.analysis.
        (finding,) = lint("from ..analysis import verify_plan\n")
        assert finding.rule == "ENG007"

    def test_lazy_import_passes(self):
        assert lint("def f():\n"
                    "    from repro.analysis import verify_plan\n"
                    "    return verify_plan\n") == []

    def test_analysis_package_itself_exempt(self):
        assert lint("from repro.analysis import ir_checker\n",
                    REPO / "src/repro/analysis/__init__.py") == []

    def test_sibling_analysis_module_not_flagged(self):
        # core/tondir has its own analysis module; "from .analysis import"
        # there resolves to repro.core.tondir.analysis, not repro.analysis.
        assert lint("from .analysis import references\n", TONDIR) == []


class TestExecutorPrivateAccess:
    def test_private_reach_in_from_operator_code(self):
        src = "def f(ctx):\n    return ctx.executor._project_plain()\n"
        (finding,) = lint(src, PLAN)
        assert finding.rule == "ENG008"
        assert finding.symbol == "f"

    def test_bare_executor_name_in_storage(self):
        src = "def g(executor):\n    executor._note('x')\n"
        assert rules(lint(src, STORAGE)) == ["ENG008"]

    def test_public_surface_passes(self):
        src = ("def f(ctx):\n    ctx.executor.note('x')\n"
               "    return ctx.executor.stats\n")
        assert lint(src, PLAN) == []

    def test_executor_module_and_other_packages_exempt(self):
        src = "def f(executor):\n    return executor._processes\n"
        assert lint(src, REPO / "src/repro/sqlengine/executor.py") == []
        assert lint(src, REPO / "src/repro/server/shard.py") == []


class TestDistributionInPlanner:
    SERVER = REPO / "src/repro/server/somemodule.py"

    @pytest.mark.parametrize("src", [
        "from ..sqlengine.parser import parse\n",
        "from repro.sqlengine.sqlast import Select, AggCall\n",
        "from ..sqlengine import parser\n",
        "import repro.sqlengine.sqlast\n",
        # Lazy imports count too: the worker path must not parse either.
        "def run(task):\n    from ..sqlengine.parser import parse\n"
        "    return parse(task)\n",
    ])
    def test_server_module_importing_parser_or_ast(self, src):
        (finding,) = lint(src, self.SERVER)
        assert finding.rule == "ENG009"

    def test_plans_and_executor_are_the_serving_tiers_interface(self):
        src = ("from ..sqlengine.plan import Exchange\n"
               "from ..sqlengine.executor import EngineConfig, Executor\n"
               "from ..sqlengine.database import Database\n"
               "from ..sqlengine import EngineConfig\n")
        assert lint(src, self.SERVER) == []

    def test_other_packages_may_import_the_ast(self):
        src = "from .sqlast import Select\nfrom .parser import parse\n"
        assert lint(src, ENGINE) == []
        assert lint("from ..sqlengine.sqlast import Select\n", STORAGE) == []


class TestAstShapeInSqlast:
    SQLAST = REPO / "src/repro/sqlengine/sqlast.py"
    PROBES = [
        "def f(e):\n    return getattr(e, 'operand', None)\n",
        "def f(e):\n    return getattr(e, \"branches\")\n",
        "def f(e):\n"
        "    for attr in ('left', 'right', 'low'):\n"
        "        child = getattr(e, attr, None)\n",
    ]

    @pytest.mark.parametrize("src", PROBES)
    def test_probing_for_child_fields(self, src):
        for path in (ENGINE, STORAGE, REPO / "src/repro/analysis/x.py"):
            (finding,) = lint(src, path)
            assert finding.rule == "ENG010" and finding.symbol == "f"

    @pytest.mark.parametrize("src", PROBES)
    def test_sqlast_itself_may(self, src):
        assert lint(src, self.SQLAST) == []

    def test_declared_traversal_and_unrelated_names_are_fine(self):
        src = ("def f(node, table):\n"
               "    for name, kind in type(node)._slots:\n"
               "        value = getattr(node, name)\n"
               "    for side in ('left', 'right'):\n"
               "        print(side)\n"
               "    for attr in ('nrows', 'stored'):\n"
               "        print(getattr(table, attr))\n"
               "    return getattr(table, 'has_zone_maps', False), node.left\n")
        assert lint(src, ENGINE) == []


class TestGroupbyReverseDependency:
    @pytest.mark.parametrize("src", [
        "from ..dataframe.groupby import group_reduce\n",
        "from repro.dataframe.groupby import GroupBy\n",
        "from ..dataframe import groupby\n",
        "import repro.dataframe.groupby\n",
        # Lazy imports count too: the parent tree's one violation was one.
        "def f(values):\n    from ..dataframe.groupby import group_reduce\n"
        "    return group_reduce(values)\n",
    ])
    def test_engine_module_importing_dataframe_groupby(self, src):
        for path in (ENGINE, PLAN):
            (finding,) = lint(src, path)
            assert finding.rule == "ENG011"

    def test_other_dataframe_modules_and_other_packages_are_fine(self):
        assert lint("from ..dataframe._common import isna_array\n"
                    "from ..dataframe import DataFrame\n", ENGINE) == []
        src = "from ..sqlengine.grouping import GroupLayout\n"
        assert lint(src, REPO / "src/repro/dataframe/groupby.py") == []
        assert lint("from ..dataframe.groupby import GroupBy\n", STORAGE) == []

    def test_no_allowlist_entry(self):
        assert not any(":ENG011:" in entry
                       for entry in lint_engine.load_allowlist())


class TestTondirShapeInIr:
    IR = REPO / "src/repro/core/tondir/ir.py"
    LADDER = ("def walk_term(term, pred):\n"
              "    if isinstance(term, BinOp):\n"
              "        return walk_term(term.left, pred)\n"
              "    if isinstance(term, (If, Agg)):\n"
              "        return any(walk_term(c, pred) for c in children(term))\n"
              "    return pred(term)\n")

    def test_recursive_ladder_over_three_term_classes(self):
        for path in (TONDIR, CORE, REPO / "src/repro/analysis/x.py"):
            (finding,) = lint(self.LADDER, path)
            assert finding.rule == "ENG012" and finding.symbol == "walk_term"

    def test_method_calling_itself_counts(self):
        src = ("class G:\n"
               "    def render(self, t):\n"
               "        if isinstance(t, (Var, Const, Win)):\n"
               "            return self.render(t.args[0])\n")
        (finding,) = lint(src, CORE)
        assert finding.rule == "ENG012" and finding.symbol == "G.render"

    def test_ir_module_itself_may(self):
        assert lint(self.LADDER, self.IR) == []

    def test_dispatch_without_recursion_and_short_ladders_are_fine(self):
        dispatch = ("def render(t):\n"
                    "    if isinstance(t, Var): return name(t)\n"
                    "    if isinstance(t, Const): return lit(t)\n"
                    "    if isinstance(t, BinOp): return binop(t)\n")
        derived = ("def collapse(t):\n"
                   "    if not isinstance(t, Agg):\n"
                   "        return map_children(t, collapse)\n"
                   "    return t.arg if isinstance(t.arg, Var) "
                   "else collapse(t.arg)\n")
        assert lint(dispatch, CORE) == [] and lint(derived, TONDIR) == []

    def test_no_allowlist_entry(self):
        assert not any(":ENG012:" in entry
                       for entry in lint_engine.load_allowlist())


class TestChunkArraysInOperators:
    JOINS = REPO / "src/repro/sqlengine/joins.py"
    EXPRESSIONS = REPO / "src/repro/sqlengine/expressions.py"
    # The parent tree's sites: the Evaluator and the join's combine_chunks
    # read every column to use one (or to gather them all eagerly).
    EVALUATOR = ("class Evaluator:\n"
                 "    def __init__(self, chunk):\n"
                 "        self._has_dict = DictColumn in map(type, chunk.arrays)\n"
                 "    def _column(self, slot):\n"
                 "        return self.chunk.arrays[slot]\n")
    COMBINE = ("def combine_chunks(left, right, lp, rp):\n"
               "    return [gather(a, lp) for a in left.arrays] + \\\n"
               "        [gather(a, rp) for a in right.arrays]\n")

    def test_arrays_reads_in_operator_modules(self):
        found = lint(self.EVALUATOR, self.EXPRESSIONS)
        assert rules(found) == ["ENG013", "ENG013"]
        assert [f.symbol for f in found] == ["Evaluator.__init__",
                                             "Evaluator._column"]
        found = lint(self.COMBINE, self.JOINS)
        assert rules(found) == ["ENG013", "ENG013"]
        assert {f.symbol for f in found} == {"combine_chunks"}
        for module in ("plan", "executor", "setops", "window", "grouping"):
            path = REPO / f"src/repro/sqlengine/{module}.py"
            assert rules(lint("x = chunk.arrays[0]\n", path)) == ["ENG013"]

    def test_column_reads_and_other_modules_are_fine(self):
        src = ("def probe(chunk, n):\n"
               "    kinds = [chunk.kind(i) for i in range(chunk.ncols)]\n"
               "    return chunk.column(0), chunk.dtype(1), kinds\n")
        assert lint(src, self.EXPRESSIONS) == []
        # The boundaries outside the operator modules: the chunk itself,
        # result conversion, spill and shard serialization.
        for path in ("src/repro/sqlengine/table.py",
                     "src/repro/sqlengine/database.py",
                     "src/repro/storage/spill.py",
                     "src/repro/server/shard.py"):
            assert lint("x = chunk.arrays\n", REPO / path) == []
        # Only reads count: a class of its own may keep an ``arrays`` field.
        assert lint("self.arrays = []\n", self.JOINS) == []

    def test_allowlisted_sites_are_the_whole_row_operators(self):
        entries = {e for e in lint_engine.load_allowlist() if ":ENG013:" in e}
        assert entries == {
            "src/repro/sqlengine/setops.py:ENG013:execute_set_op",
            "src/repro/sqlengine/plan.py:ENG013:Distinct.execute"}


class TestMethodLadderInTranslator:
    TRANSLATE = REPO / "src/repro/core/translate/engine.py"
    # The parent tree's shape: one ladder of literal method tests per
    # receiver type, each branch calling that method's code.
    LADDER = ("class Translator:\n"
              "    def _frame_call(self, frame, method, args):\n"
              "        if method == 'merge':\n"
              "            return self._merge(frame, args)\n"
              "        if method == 'aggregate' or method == 'agg':\n"
              "            return self._frame_aggregate(frame, args)\n"
              "        if method in ('sum', 'all'):\n"
              "            return self._array_call(frame, method, args)\n"
              "        raise TranslationError(method)\n")

    def test_ladder_in_translate_package(self):
        for module in ("engine", "einsum_planner", "symbols"):
            path = REPO / f"src/repro/core/translate/{module}.py"
            (finding,) = lint(self.LADDER, path)
            assert finding.rule == "ENG014"
            assert finding.symbol == "Translator._frame_call"

    def test_elif_chain_counts(self):
        src = ("def field_of(attr):\n"
               "    if attr == 'year':\n"
               "        return 1\n"
               "    elif attr == 'month':\n"
               "        return 2\n"
               "    elif attr in ['day']:\n"
               "        return 3\n")
        (finding,) = lint(src, self.TRANSLATE)
        assert finding.rule == "ENG014" and finding.symbol == "field_of"

    def test_short_combined_and_other_ladders_are_fine(self):
        two = self.LADDER.replace("if method in ('sum', 'all')", "if frame")
        # einsum_planner's shape: each branch tests several names at once.
        combined = ("def lower(idx, output):\n"
                    "    if idx == 'i' and output == '':\n        return 1\n"
                    "    if idx == 'ij' and output == '':\n        return 2\n"
                    "    if idx == 'ij' and output == 'i':\n        return 3\n")
        names = ("def f(a, b, c):\n"
                 "    if a == 'x':\n        return 1\n"
                 "    if b == 'y':\n        return 2\n"
                 "    if c == 'z':\n        return 3\n")
        non_literal = self.LADDER.replace("'merge'", "other").replace(
            "method in ('sum', 'all')", "method in names")
        for src in (two, combined, names, non_literal):
            assert lint(src, self.TRANSLATE) == []
        # A nested function is its own scope: two branches in each.
        nested = ("def outer(m):\n"
                  "    if m == 'a':\n        return 1\n"
                  "    def inner(m):\n"
                  "        if m == 'b':\n            return 2\n"
                  "        if m == 'c':\n            return 3\n"
                  "    if m == 'd':\n        return inner(m)\n")
        assert lint(nested, self.TRANSLATE) == []
        # Outside the translator a literal dispatch is not its business.
        assert lint(self.LADDER, CORE) == []
        assert lint(self.LADDER, ENGINE) == []

    def test_no_allowlist_entry(self):
        assert not any(":ENG014:" in entry
                       for entry in lint_engine.load_allowlist())


class TestRunner:
    def test_repo_tree_is_clean(self, capsys):
        assert lint_engine.main([]) == 0
        assert "lint_engine: clean" in capsys.readouterr().out

    def test_violation_fails(self, tmp_path, capsys, monkeypatch):
        # A file with a finding and an empty allowlist: exit 1.
        bad = REPO / "src" / "repro" / "_lint_selftest_tmp.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        try:
            assert lint_engine.main([str(bad)]) == 1
            assert "ENG006" in capsys.readouterr().out
        finally:
            bad.unlink()

    def test_allowlist_suppresses(self, tmp_path, capsys, monkeypatch):
        bad = REPO / "src" / "repro" / "_lint_selftest_tmp.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        allow = tmp_path / "allow.txt"
        allow.write_text("# justified for the self-test\n"
                         "src/repro/_lint_selftest_tmp.py:ENG006:f\n")
        monkeypatch.setattr(lint_engine, "ALLOWLIST", allow)
        try:
            assert lint_engine.main([str(bad)]) == 0
        finally:
            bad.unlink()

    def test_stale_allowlist_entry_fails(self, tmp_path, capsys, monkeypatch):
        # An allowlist entry with no matching finding must fail the run so
        # suppressions cannot outlive their violations.
        allow = tmp_path / "allow.txt"
        allow.write_text("src/repro/nonexistent.py:ENG002:ghost\n")
        monkeypatch.setattr(lint_engine, "ALLOWLIST", allow)
        clean = REPO / "src" / "repro" / "errors.py"
        assert lint_engine.main([str(clean)]) == 1
        assert "stale allowlist entry" in capsys.readouterr().out


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
