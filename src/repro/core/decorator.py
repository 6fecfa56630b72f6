"""The ``@pytond`` decorator: the user-facing entry point of the framework.

Adding ``@pytond(...)`` to a Pandas/NumPy function captures its source
statically (the function still runs normally in Python when called), and
exposes:

* ``fn.tondir(level)``  — the (optimized) TondIR program;
* ``fn.sql(backend, level)`` — the generated SQL for a backend dialect;
* ``fn.run(db, backend, threads, level)`` — in-database execution.

Contextual information (schemas, uniqueness, pivot domains) comes from the
database catalog and/or the decorator arguments — Section III-A.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
import weakref

from ..backends import Backend, ExecutionBackend, get_backend
from ..errors import BackendError, TranslationError
from .codegen.sqlgen import generate_sql
from .tondir.ir import Program
from .tondir.optimize import OPT_LEVELS, optimize
from .translate.engine import TableInfo, Translator

__all__ = ["pytond", "PytondFunction"]


def _function_ast(fn) -> ast.FunctionDef:
    source = textwrap.dedent(inspect.getsource(fn))
    module = ast.parse(source)
    for node in module.body:
        if isinstance(node, ast.FunctionDef) and node.name == fn.__name__:
            return node
    raise TranslationError(f"could not find function definition for {fn.__name__!r}")


class PytondFunction:
    """A Python function plus its static SQL compilation pipeline."""

    def __init__(
        self,
        fn,
        db=None,
        tables: dict[str, str] | None = None,
        table_info: dict[str, TableInfo] | None = None,
        layout: str = "dense",
        pivot_values: dict[str, list] | None = None,
        opt_level: str = "O4",
    ):
        functools.update_wrapper(self, fn)
        self._fn = fn
        self._db = db
        self._tables = tables or {}
        self._table_info = table_info or {}
        self._layout = layout
        self._pivot_values = pivot_values or {}
        self._opt_level = opt_level
        self._func_ast: ast.FunctionDef | None = None
        self._raw_program: Program | None = None
        self._programs: dict[str, Program] = {}
        self._base_unique: dict[str, set[str]] | None = None

    # -- normal Python execution -----------------------------------------------
    def __call__(self, *args, **kwargs):
        return self._fn(*args, **kwargs)

    @property
    def python(self):
        """The original, undecorated Python function."""
        return self._fn

    # -- translation -----------------------------------------------------------
    def _resolve_tables(self, db=None) -> dict[str, TableInfo]:
        cached = getattr(self, "_resolved_tables", None)
        if cached is not None and db is None:
            return cached
        db = db or self._db
        func_ast = self._ast()
        params = [a.arg for a in func_ast.args.args]
        out: dict[str, TableInfo] = {}
        for param in params:
            if param in self._table_info:
                out[param] = self._table_info[param]
                continue
            table_name = self._tables.get(param, param)
            if db is None:
                raise TranslationError(
                    f"no schema for parameter {param!r}: pass db= or table_info="
                )
            out[param] = TableInfo.from_schema(db.schema(table_name))
        self._resolved_tables = out
        return out

    def _ast(self) -> ast.FunctionDef:
        if self._func_ast is None:
            self._func_ast = _function_ast(self._fn)
        return self._func_ast

    def tondir(self, level: str | None = None, db=None) -> Program:
        """The TondIR program at optimization *level* ('O0'..'O4')."""
        level = level or self._opt_level
        if level not in OPT_LEVELS:
            raise TranslationError(f"unknown optimization level {level!r}")
        tables = self._resolve_tables(db)
        signature = tuple(
            (info.name, tuple(info.columns)) for info in tables.values()
        )
        if signature != getattr(self, "_schema_signature", None):
            # The catalog schema changed (e.g. a sweep re-registered a table
            # with a different width): invalidate the cached translation.
            self._schema_signature = signature
            self._raw_program = None
            self._programs = {}
        if level in self._programs:
            return self._programs[level]
        if self._raw_program is None:
            probe_db = db or self._db
            pivot_probe = None
            if probe_db is not None:
                # Weakly: the Translator is cyclic garbage once it returns,
                # and must not keep a Database (and the column encodings
                # cached on its tables) alive until the next full GC.
                db_ref = weakref.ref(probe_db)

                def pivot_probe(rel, column):
                    result = db_ref().execute(f"SELECT DISTINCT {column} FROM {rel}")
                    values = result.to_dict()[column]
                    return sorted(v for v in values if v is not None)
            translator = Translator(
                tables=tables, pivot_values=self._pivot_values, layout=self._layout,
                pivot_probe=pivot_probe,
            )
            self._raw_program = translator.translate(self._ast())
            self._base_unique = translator.base_unique()
        program = optimize(self._raw_program, level, base_unique=self._base_unique or {})
        self._programs[level] = program
        return program

    def sql(self, backend: str | ExecutionBackend = "duckdb",
            level: str | None = None, db=None) -> str:
        """Generate SQL for *backend* at optimization *level*."""
        program = self.tondir(level, db)
        backend_obj = get_backend(backend) if isinstance(backend, str) else backend
        schemas = self._catalog_schemas(db)
        return generate_sql(program, schemas, backend_obj.dialect)

    def _catalog_schemas(self, db=None) -> dict[str, list[str]]:
        tables = self._resolve_tables(db)
        return {info.name: list(info.columns) for info in tables.values()}

    # -- in-database execution ----------------------------------------------------
    def run(
        self,
        db=None,
        backend: str | ExecutionBackend = "duckdb",
        threads: int = 1,
        level: str | None = None,
    ):
        """Execute the generated SQL on *db* and return a DataFrame.

        *backend* may name any registered backend: native-engine profiles
        run in-process under their :class:`EngineConfig`; oracle backends
        (``sqlite``, ``duckdb_real``) compile the generated SQL into their
        own dialect and execute it against a mirror of *db*'s tables.
        """
        db = db or self._db
        if db is None:
            raise TranslationError("run() requires a database connection")
        backend_obj = get_backend(backend) if isinstance(backend, str) else backend
        sql = self.sql(backend_obj, level, db)
        if isinstance(backend_obj, Backend):
            return db.execute(sql, config=backend_obj.config(threads=threads))
        # Protocol path: sql() already generated text in the backend's own
        # dialect, so compile() must not rewrite it a second time.
        artifact = backend_obj.compile(sql, dialect=backend_obj.dialect.name)
        return backend_obj.execute(db, artifact).to_dataframe()

    def explain(
        self,
        db=None,
        backend: str | ExecutionBackend = "duckdb",
        threads: int = 1,
        level: str | None = None,
    ) -> str:
        """EXPLAIN ANALYZE the generated SQL: the backend's physical plan."""
        db = db or self._db
        if db is None:
            raise TranslationError("explain() requires a database connection")
        backend_obj = get_backend(backend) if isinstance(backend, str) else backend
        sql = self.sql(backend_obj, level, db)
        if isinstance(backend_obj, Backend):
            return db.explain(sql, config=backend_obj.config(threads=threads))
        explain = getattr(backend_obj, "explain", None)
        if explain is None:
            raise BackendError(
                f"backend {backend_obj.name!r} does not support explain()")
        artifact = backend_obj.compile(sql, dialect=backend_obj.dialect.name)
        return explain(db, artifact)


def pytond(
    db=None,
    tables: dict[str, str] | None = None,
    table_info: dict[str, TableInfo] | None = None,
    layout: str = "dense",
    pivot_values: dict[str, list] | None = None,
    opt_level: str = "O4",
):
    """Decorator factory: ``@pytond(db=...)`` marks a function for translation.

    Parameters mirror the paper's decorator arguments: *layout* selects the
    dense/sparse tensor representation (Section II-B), *pivot_values*
    supplies the distinct-value domains pivot translation needs
    (Section III-C), and schema/uniqueness metadata is read from the *db*
    catalog or given explicitly via *table_info*.
    """

    def wrap(fn):
        return PytondFunction(
            fn, db=db, tables=tables, table_info=table_info,
            layout=layout, pivot_values=pivot_values, opt_level=opt_level,
        )

    return wrap
