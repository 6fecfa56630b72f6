"""Bind-parameter collection and run-time binding with type checking.

A parsed statement carries :class:`~.sqlast.Parameter` placeholders
(positional ``?`` or named ``:name``).  :func:`signature_of` derives the
statement's :class:`ParamSignature` once at prepare time by walking the
whole AST; :func:`bind_parameters` validates user-supplied values against
that signature on every execution (missing/extra parameters, mixed styles,
unsupported value types) *before* any operator runs, so binding errors never
surface as mid-query failures.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import SQLBindError
from .sqlast import Parameter, walk

__all__ = ["ParamSignature", "signature_of", "bind_parameters",
           "iter_parameters"]


def iter_parameters(query) -> list[Parameter]:
    """Every Parameter node in the statement, in AST order (subqueries,
    CTEs, and compound-select operands included)."""
    return [n for n in walk(query, deep=True) if isinstance(n, Parameter)]


@dataclass(frozen=True)
class ParamSignature:
    """The placeholder shape of one statement.

    Exactly one of the two styles may be used per statement: ``positional``
    counts ``?`` placeholders, ``names`` lists distinct ``:name``
    placeholders (first-occurrence order).
    """

    positional: int = 0
    names: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return self.positional == 0 and not self.names


def signature_of(query) -> ParamSignature:
    """Derive the statement's parameter signature; rejects statements that
    mix ``?`` and ``:name`` styles (the binding call could not be both a
    sequence and a mapping)."""
    positional = 0
    names: list[str] = []
    for param in iter_parameters(query):
        if param.name is not None:
            if param.name not in names:
                names.append(param.name)
        else:
            positional += 1
    if positional and names:
        raise SQLBindError(
            "cannot mix positional (?) and named (:name) parameters "
            "in one statement"
        )
    return ParamSignature(positional=positional, names=tuple(names))


# Scalar types accepted as bound parameter values.  Anything else (lists,
# arrays, arbitrary objects) is rejected at bind time: placeholders stand
# for SQL scalar literals, never for expression lists or relations.
_SCALAR_TYPES = (bool, int, float, str, np.bool_, np.integer, np.floating,
                 np.datetime64, np.str_)


def _check_value(key, value):
    """Validate/normalize one bound value; raises SQLBindError otherwise."""
    if value is None:
        return None
    if isinstance(value, datetime.datetime):
        raise SQLBindError(
            f"parameter {key!r}: datetime values are not supported "
            "(bind a datetime.date or numpy.datetime64)"
        )
    if isinstance(value, datetime.date):
        return np.datetime64(value, "D")
    if isinstance(value, _SCALAR_TYPES):
        return value
    raise SQLBindError(
        f"parameter {key!r}: unsupported value type "
        f"{type(value).__name__} (expected a SQL scalar: None, bool, int, "
        "float, str, date, or numpy scalar)"
    )


def bind_parameters(signature: ParamSignature, params) -> dict | None:
    """Validate *params* against *signature*, returning the binding map
    consumed by the evaluator (``{index_or_name: value}``), or ``None`` for
    a parameterless statement.

    Raises :class:`~repro.errors.SQLBindError` on missing or extra
    parameters, a sequence given for named placeholders (and vice versa),
    or non-scalar values.
    """
    if signature.empty:
        if params:
            raise SQLBindError(
                f"statement takes no parameters but {len(params)} were given"
            )
        return None

    if signature.names:
        if params is None or not isinstance(params, Mapping):
            raise SQLBindError(
                f"statement uses named parameters {list(signature.names)}; "
                "bind them with a mapping, got "
                f"{type(params).__name__ if params is not None else 'None'}"
            )
        missing = [n for n in signature.names if n not in params]
        if missing:
            raise SQLBindError(f"missing values for parameters {missing}")
        extra = [k for k in params if k not in signature.names]
        if extra:
            raise SQLBindError(f"unknown parameters {extra} "
                               f"(statement declares {list(signature.names)})")
        return {n: _check_value(n, params[n]) for n in signature.names}

    if params is None or isinstance(params, (str, Mapping)) or not isinstance(params, Sequence):
        raise SQLBindError(
            f"statement uses {signature.positional} positional parameter(s); "
            "bind them with a sequence, got "
            f"{type(params).__name__ if params is not None else 'None'}"
        )
    if len(params) != signature.positional:
        raise SQLBindError(
            f"statement takes {signature.positional} parameter(s) "
            f"but {len(params)} were given"
        )
    return {i: _check_value(i, v) for i, v in enumerate(params)}
