"""Per-construct translator tests: Python baseline vs generated SQL.

Each test defines a small @pytond function exercising one Pandas/NumPy
construct and checks that in-database execution matches the eager Python
baseline on the same data.
"""

import inspect

import numpy as np
import pytest

import repro.dataframe as rpd
from repro import connect, pytond
from repro.errors import TranslationError

from tests.helpers import assert_frame_matches, rows


@pytest.fixture()
def env():
    data = {
        "sales": {
            "sid": np.arange(1, 11, dtype=np.int64),
            "product": np.array(list("abcab" "cabca"), dtype=object),
            "qty": np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], dtype=np.int64),
            "price": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            "day": np.array(["1994-01-0%d" % (i % 9 + 1) for i in range(10)], dtype="datetime64[D]"),
        },
        "products": {
            "product": np.array(["a", "b", "c"], dtype=object),
            "label": np.array(["Alpha", "Beta", "Gamma"], dtype=object),
        },
    }
    db = connect()
    db.register("sales", data["sales"], primary_key="sid")
    db.register("products", data["products"], primary_key="product")
    frames = {k: rpd.DataFrame(v) for k, v in data.items()}
    return db, frames


def check(fn, env, tables=("sales",), scalar=False, sort=False, backend="hyper"):
    db, frames = env
    py = fn(*[frames[t] for t in tables])
    res = fn.run(db, backend)
    if scalar:
        got = list(res.to_dict().values())[0][0]
        assert float(got) == pytest.approx(float(py), rel=1e-9)
    else:
        assert_frame_matches(py, res, sort=sort)


class TestFiltersProjections:
    def test_filter_gt(self, env):
        @pytond()
        def f(sales):
            return sales[sales.qty > 5]
        check(f, env)

    def test_filter_and_or(self, env):
        @pytond()
        def f(sales):
            return sales[((sales.qty > 2) & (sales.qty < 8)) | (sales.product == 'a')]
        check(f, env)

    def test_filter_negation(self, env):
        @pytond()
        def f(sales):
            return sales[~(sales.product == 'a')]
        check(f, env)

    def test_projection(self, env):
        @pytond()
        def f(sales):
            return sales[['product', 'qty']]
        check(f, env)

    def test_column_attribute_and_subscript_equivalent(self, env):
        @pytond()
        def f(sales):
            return sales[sales['qty'] >= sales.qty]
        check(f, env)

    def test_between(self, env):
        @pytond()
        def f(sales):
            return sales[sales.qty.between(3, 7)]
        check(f, env)

    def test_isin_list(self, env):
        @pytond()
        def f(sales):
            return sales[sales.product.isin(['a', 'c'])]
        check(f, env)

    def test_date_filter(self, env):
        @pytond()
        def f(sales):
            return sales[sales.day >= '1994-01-05']
        check(f, env)

    def test_series_to_series_compare(self, env):
        @pytond()
        def f(sales):
            return sales[sales.qty > sales.price]
        check(f, env)


class TestComputedColumns:
    def test_arithmetic_setitem(self, env):
        @pytond()
        def f(sales):
            s = sales.copy()
            s['total'] = s.qty * s.price * (1 - 0.1)
            return s[['sid', 'total']]
        check(f, env)

    def test_np_where(self, env):
        @pytond()
        def f(sales):
            s = sales.copy()
            s['big'] = np.where(s.qty > 5, 1, 0)
            return s[['sid', 'big']]
        check(f, env)

    def test_dt_year(self, env):
        @pytond()
        def f(sales):
            s = sales.copy()
            s['y'] = s.day.dt.year
            return s[['sid', 'y']]
        check(f, env)

    def test_str_methods(self, env):
        @pytond()
        def f(products):
            p = products.copy()
            p['u'] = p.label.str.upper()
            p['pre'] = p.label.str.slice(0, 2)
            return p[['product', 'u', 'pre']]
        check(f, env, tables=("products",))

    def test_str_contains_startswith(self, env):
        @pytond()
        def f(products):
            return products[products.label.str.contains('et') | products.label.str.startswith('Al')]
        check(f, env, tables=("products",))

    def test_round_abs(self, env):
        @pytond()
        def f(sales):
            s = sales.copy()
            s['r'] = (s.price * 1.2345).round(2)
            return s[['sid', 'r']]
        check(f, env)

    def test_apply_lambda(self, env):
        @pytond()
        def f(sales):
            s = sales.copy()
            s['score'] = s.apply(lambda r: r['qty'] * 2 + r['price'], axis=1)
            return s[['sid', 'score']]
        check(f, env)

    def test_apply_lambda_conditional(self, env):
        @pytond()
        def f(sales):
            s = sales.copy()
            s['cls'] = s.apply(lambda r: 1 if r['qty'] > 5 else 0, axis=1)
            return s[['sid', 'cls']]
        check(f, env)


class TestAggregation:
    def test_scalar_sum(self, env):
        @pytond()
        def f(sales):
            return (sales.qty * sales.price).sum()
        check(f, env, scalar=True)

    def test_scalar_mean_on_filter(self, env):
        @pytond()
        def f(sales):
            return sales[sales.product == 'a'].price.mean()
        check(f, env, scalar=True)

    def test_scalar_in_filter(self, env):
        @pytond()
        def f(sales):
            avg = sales.price.mean()
            return sales[sales.price > avg]
        check(f, env)

    def test_scalar_arithmetic(self, env):
        @pytond()
        def f(sales):
            return sales.qty.sum() / sales.qty.count() * 100.0
        check(f, env, scalar=True)

    def test_groupby_agg_named(self, env):
        @pytond()
        def f(sales):
            return sales.groupby('product').agg(
                total=('price', 'sum'), n=('qty', 'count'),
                hi=('price', 'max'), avg=('qty', 'mean'),
            ).reset_index().sort_values('product')
        check(f, env)

    def test_groupby_dict_spec(self, env):
        @pytond()
        def f(sales):
            return sales.groupby('product').agg({'qty': 'sum'}).reset_index().sort_values('product')
        check(f, env)

    def test_groupby_series(self, env):
        @pytond()
        def f(sales):
            return sales.groupby('product')['price'].sum().reset_index().sort_values('product')
        check(f, env)

    def test_groupby_nunique(self, env):
        @pytond()
        def f(sales):
            return sales.groupby('product').agg(n=('qty', 'nunique')).reset_index().sort_values('product')
        check(f, env)

    def test_groupby_multi_key(self, env):
        @pytond()
        def f(sales):
            s = sales.copy()
            s['y'] = s.day.dt.year
            return s.groupby(['product', 'y']).agg(t=('qty', 'sum')).reset_index() \
                    .sort_values(['product', 'y'])
        check(f, env)

    def test_filter_on_grouped(self, env):
        @pytond()
        def f(sales):
            g = sales.groupby('product').agg(t=('qty', 'sum')).reset_index()
            return g[g.t > 10].sort_values('product')
        check(f, env)

    def test_unique_distinct(self, env):
        @pytond()
        def f(sales):
            u = sales.product.unique()
            return u
        db, frames = env
        py = sorted(f(frames["sales"]).tolist())
        got = sorted(v for v in f.run(db, "hyper").to_dict()["product"])
        assert py == got

    def test_drop_duplicates(self, env):
        @pytond()
        def f(sales):
            return sales[['product']].drop_duplicates().sort_values('product')
        check(f, env)


class TestSortHeadMerge:
    def test_sort_multi(self, env):
        @pytond()
        def f(sales):
            return sales.sort_values(['product', 'qty'], ascending=[True, False])
        check(f, env)

    def test_sort_then_head_single_cte(self, env):
        @pytond()
        def f(sales):
            return sales.sort_values('price', ascending=False).head(3)
        check(f, env)
        sql = f.sql("hyper")
        assert "LIMIT 3" in sql

    def test_merge_inner(self, env):
        @pytond()
        def f(sales, products):
            return sales.merge(products, on='product').sort_values('sid')
        check(f, env, tables=("sales", "products"))

    def test_merge_left(self, env):
        @pytond()
        def f(sales, products):
            small = products[products.product == 'a']
            return sales.merge(small, on='product', how='left').sort_values('sid')
        check(f, env, tables=("sales", "products"))

    def test_merge_left_right_on(self, env):
        @pytond()
        def f(sales, products):
            p = products.rename(columns={'product': 'p'})
            return sales.merge(p, left_on='product', right_on='p').sort_values('sid')
        check(f, env, tables=("sales", "products"))

    def test_merge_suffix_renaming(self, env):
        @pytond()
        def f(sales, products):
            p = products.rename(columns={'label': 'qty'})  # force collision
            out = sales.merge(p, on='product').sort_values('sid')
            return out[['sid', 'qty_x', 'qty_y']]
        check(f, env, tables=("sales", "products"))

    def test_isin_frame_semi_join(self, env):
        @pytond()
        def f(sales, products):
            chosen = products[products.label != 'Beta']
            return sales[sales.product.isin(chosen.product)].sort_values('sid')
        check(f, env, tables=("sales", "products"))

    def test_not_isin_anti_join(self, env):
        @pytond()
        def f(sales, products):
            chosen = products[products.label == 'Beta']
            return sales[~sales.product.isin(chosen.product)].sort_values('sid')
        check(f, env, tables=("sales", "products"))

    def test_isin_sql_plans_as_semi_join(self, env):
        # The translator emits an EXISTS predicate for isin-over-frame-column;
        # the engine's planner must lift it into a parallel SemiJoin rather
        # than interpreting it row-by-row (no materialized inner relation).
        db, _ = env

        @pytond()
        def f(sales, products):
            chosen = products[products.label != 'Beta']
            return sales[sales.product.isin(chosen.product)]

        sql = f.sql("duckdb", db=db)
        assert "EXISTS" in sql
        plan = db.explain_plan(sql)
        assert "SemiJoin EXISTS" in plan
        assert "Filter(residual)" not in plan

    def test_not_isin_sql_plans_as_anti_join(self, env):
        db, _ = env

        @pytond()
        def f(sales, products):
            chosen = products[products.label == 'Beta']
            return sales[~sales.product.isin(chosen.product)]

        sql = f.sql("duckdb", db=db)
        plan = db.explain_plan(sql)
        assert "AntiJoin NOT EXISTS" in plan

    def test_implicit_join_via_column_assignment(self, env):
        # Appending a column whose series comes from a *different* frame
        # triggers the UID-based implicit join of Section III-C.
        @pytond()
        def g(sales):
            out = sales[['sid', 'qty']]
            out['double_qty'] = sales.qty * 2
            return out.sort_values('sid')
        check(g, env)
        db, _ = env
        sql = g.sql("hyper", db=db)
        assert "ROW_NUMBER" in sql  # the implicit join generated UIDs


class TestErrorsAndLevels:
    def test_unknown_method_raises(self, env):
        db, _ = env

        @pytond()
        def f(sales):
            return sales.melt()
        with pytest.raises(TranslationError):
            f.sql("hyper", db=db)

    def test_mixed_frame_arithmetic_rejected(self, env):
        db, _ = env

        @pytond()
        def f(sales, products):
            return sales[sales.qty > products.product]
        with pytest.raises(TranslationError):
            f.sql("hyper", db=db)

    def test_all_levels_agree(self, env):
        db, frames = env

        @pytond()
        def f(sales):
            s = sales[sales.qty > 2]
            g = s.groupby('product').agg(t=('price', 'sum')).reset_index()
            return g.sort_values('product')
        expected = rows(f(frames["sales"]).reset_index(drop=True))
        for level in ("O0", "O1", "O2", "O3", "O4"):
            got = rows(f.run(db, "hyper", level=level))
            assert got == expected, level

    def test_o0_has_rule_per_operation(self, env):
        db, _ = env

        @pytond()
        def f(sales):
            a = sales[sales.qty > 1]
            b = a[['sid', 'qty']]
            return b[b.qty < 9]
        o0 = f.tondir("O0", db=db)
        o4 = f.tondir("O4", db=db)
        assert len(o0.rules) > len(o4.rules)


# -- series output variables ----------------------------------------------------
# A Series projected out of its frame gets its own output variable.  Reusing
# the column's name, which the frame's atom binds in the same rule body, reads
# as an equality: ``SELECT price FROM sales WHERE price = ROUND(price, 1)``.

@pytond()
def _rounded(sales):
    return sales.price.round(1)


@pytond()
def _rounded_unique(sales):
    return sales.price.round(0).unique()


@pytond()
def _rounded_counts(sales):
    return sales.price.round(0).value_counts()


@pytond()
def _rounded_head(sales):
    return sales.price.round(1).head(3)


@pytest.fixture()
def fractional_env():
    # No price sits halfway between two roundings: Python and SQL agree.
    data = {
        "sales": {
            "sid": np.arange(1, 11, dtype=np.int64),
            "product": np.array(list("abcab" "cabca"), dtype=object),
            "qty": np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], dtype=np.int64),
            "price": np.array([1.234, 2.0, 3.141, 4.4, 5.0, 6.667, 7.0, 8.049,
                               9.999, 10.0]),
            "disc": np.array([0.1, np.nan, 0.2, 0.05, np.nan, 0.0, 0.1, np.nan,
                              0.3, 0.2]),
        },
        "products": {
            "product": np.array(["a", "b", "c"], dtype=object),
            "qty": np.array([10, 20, 30], dtype=np.int64),
        },
    }
    db = connect()
    db.register("sales", data["sales"], primary_key="sid")
    db.register("products", data["products"], primary_key="product")
    return db, {k: rpd.DataFrame(v) for k, v in data.items()}


def _null_rows(result) -> list[tuple]:
    """``rows(result)`` with NaN as None, so missing values compare equal."""
    return [tuple(None if v != v else v for v in row) for row in rows(result)]


def _python_rows(result) -> list[tuple]:
    """A Python result (Series, ndarray or DataFrame) as row tuples."""
    if isinstance(result, (np.ndarray, rpd.Series)):
        return _null_rows({"v": np.asarray(result)})
    return _null_rows(result.reset_index(drop=True))


@pytest.mark.parametrize("fn, python_rows", [
    (_rounded, _python_rows),
    (_rounded_unique, _python_rows),
    (_rounded_counts, lambda s: _null_rows({"k": s.index.values, "n": s.values})),
    (_rounded_head, _python_rows),
])
def test_series_output_is_not_an_equality_filter(fractional_env, fn, python_rows):
    db, frames = fractional_env
    want = sorted(python_rows(fn(frames["sales"])))
    for backend in ("native", "sqlite"):
        assert sorted(_null_rows(fn.run(db, backend))) == want, backend


# -- argument binding -----------------------------------------------------------
# Each call binds its arguments with the emitter's signature: keywords mean
# what they mean in Python, and anything outside the signature is refused at
# translate time instead of being dropped.

@pytond()
def _head_n(sales):
    return sales.sort_values(by='qty').head(n=3)


@pytond()
def _round_decimals(sales):
    return sales.price.round(decimals=1)


@pytond()
def _fillna_value(sales):
    return sales.disc.fillna(value=0.0)


@pytond()
def _nlargest_keywords(sales):
    return sales.nlargest(n=3, columns='price')


@pytond()
def _merge_suffixes(sales, products):
    return sales.merge(products, on='product', suffixes=('_l', '_r')).sort_values('sid')


@pytest.mark.parametrize("fn", [_head_n, _round_decimals, _fillna_value,
                                _nlargest_keywords, _merge_suffixes])
def test_keyword_arguments_bind_like_python(fractional_env, fn):
    db, frames = fractional_env
    py = fn(*[frames[name] for name in inspect.signature(fn.python).parameters])
    got = fn.run(db, "native")
    assert _null_rows(got) == _python_rows(py)
    if isinstance(py, rpd.DataFrame):
        assert list(got.to_dict()) == list(py.columns)


@pytond()
def _unknown_keyword_kind(sales):
    return sales.sort_values('qty', kind='stable')


@pytond()
def _unknown_keyword_keep(sales):
    return sales.drop_duplicates(keep='last')


@pytond()
def _unknown_keyword_case(sales):
    return sales[sales.product.str.contains('a', case=False)]


@pytond()
def _missing_argument(sales):
    return sales[sales.qty.between(1)]


@pytond()
def _extra_argument(sales):
    return sales.head(3, 4)


@pytond()
def _unsupported_aggregate(sales):
    return sales.agg('median')


@pytond()
def _symbol_for_a_constant(sales):
    n = sales.qty.max()
    return sales.head(n)


@pytond()
def _none_for_an_integer(sales):
    return sales.price.round(decimals=None)


@pytond()
def _string_for_an_integer(sales):
    return sales[sales.product.str.slice(0, 'x') == 'a']


@pytest.mark.parametrize("fn, where, why", [
    (_unknown_keyword_kind, "frame.sort_values", "'kind'"),
    (_unknown_keyword_keep, "frame.drop_duplicates", "'keep'"),
    (_unknown_keyword_case, "str.contains", "'case'"),
    (_missing_argument, "series.between", "'high'"),
    (_extra_argument, "frame.head", "too many positional arguments"),
    (_unsupported_aggregate, "'median'", "supported: sum, mean"),
    (_symbol_for_a_constant, "frame.head", "'n' must be int, not SymScalarRel"),
    (_none_for_an_integer, "series.round", "'decimals' must be int, not NoneType"),
    (_string_for_an_integer, "str.slice", "'stop' must be int or None, not str"),
])
def test_unsupported_arguments_fail_at_translate_time(fractional_env, fn, where, why):
    db, _ = fractional_env
    with pytest.raises(TranslationError) as err:
        fn.tondir("O0", db=db)
    assert where in str(err.value) and why in str(err.value)


def test_unsupported_method_lists_the_kind_surface(env):
    db, _ = env

    @pytond()
    def f(sales):
        return sales.qty.str.zfill(3)
    with pytest.raises(TranslationError, match=r"str\.zfill: unsupported method; str supports "
                                                r"contains\(pat\), endswith\(suffix\)"):
        f.sql("native", db=db)
