"""Property-based tests: both stores must return identical query results.

The storage advisor only makes sense if moving a table between stores never
changes query semantics — only costs.  These tests generate random data and
random queries and assert that the row store and the column store agree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.column_store import ColumnStoreTable
from repro.engine.row_store import RowStoreTable
from repro.engine.schema import TableSchema
from repro.engine.types import DataType
from repro.query.predicates import Between, CompareOp, Comparison

SCHEMA = TableSchema.build(
    "events",
    [
        ("id", DataType.INTEGER),
        ("category", DataType.VARCHAR),
        ("amount", DataType.DOUBLE),
        ("priority", DataType.INTEGER),
    ],
    primary_key=["id"],
)


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=120,
).map(
    lambda triples: [
        {"id": i, "category": c, "amount": float(a), "priority": p}
        for i, (c, a, p) in enumerate(triples)
    ]
)


def build_both(rows):
    row_store = RowStoreTable(SCHEMA)
    row_store.bulk_load(rows)
    column_store = ColumnStoreTable(SCHEMA)
    column_store.bulk_load(rows)
    return row_store, column_store


class TestStoreEquivalence:
    @given(rows=rows_strategy, value=st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=40, deadline=None)
    def test_equality_filter_agrees(self, rows, value):
        row_store, column_store = build_both(rows)
        predicate = Comparison("amount", CompareOp.EQ, float(value))
        row_positions = set(int(p) for p in row_store.filter_positions(predicate))
        column_positions = set(int(p) for p in column_store.filter_positions(predicate))
        assert row_positions == column_positions

    @given(
        rows=rows_strategy,
        low=st.integers(min_value=0, max_value=500),
        width=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_filter_agrees(self, rows, low, width):
        row_store, column_store = build_both(rows)
        predicate = Between("amount", float(low), float(low + width))
        row_positions = set(int(p) for p in row_store.filter_positions(predicate))
        column_positions = set(int(p) for p in column_store.filter_positions(predicate))
        assert row_positions == column_positions

    @given(rows=rows_strategy, op=st.sampled_from(list(CompareOp)),
           threshold=st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_comparison_operators_agree(self, rows, op, threshold):
        row_store, column_store = build_both(rows)
        predicate = Comparison("priority", op, threshold)
        row_positions = set(int(p) for p in row_store.filter_positions(predicate))
        column_positions = set(int(p) for p in column_store.filter_positions(predicate))
        assert row_positions == column_positions

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_full_materialisation_agrees(self, rows):
        row_store, column_store = build_both(rows)
        assert row_store.all_rows() == column_store.all_rows()

    @given(rows=rows_strategy, category=st.sampled_from(["a", "b", "c", "d"]))
    @settings(max_examples=30, deadline=None)
    def test_column_values_after_filter_agree(self, rows, category):
        row_store, column_store = build_both(rows)
        predicate = Comparison("category", CompareOp.EQ, category)
        row_positions = row_store.filter_positions(predicate)
        column_positions = column_store.filter_positions(predicate)
        assert row_store.column_values("amount", row_positions) == (
            column_store.column_values("amount", column_positions)
        )

    @given(rows=rows_strategy, new_priority=st.integers(min_value=10, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_updates_agree(self, rows, new_priority):
        row_store, column_store = build_both(rows)
        predicate = Comparison("category", CompareOp.EQ, "a")
        row_store.update_rows(
            row_store.filter_positions(predicate) if rows else [], {"priority": new_priority}
        )
        column_store.update_rows(
            column_store.filter_positions(predicate) if rows else [], {"priority": new_priority}
        )
        assert row_store.all_rows() == column_store.all_rows()

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_integer_sum_stays_integral_on_every_path(self, rows):
        """SUM over an int column is an int everywhere — including the
        scalar reference (whose accumulator historically started at the
        float 0.0 and drifted to float where the vectorized paths kept
        ints) and the code-domain reduction, with identical values."""
        from repro.engine.database import HybridDatabase
        from repro.engine.executor.aggregates import aggregate_values
        from repro.engine.features import use_features
        from repro.engine.types import Store
        from repro.query.ast import AggregateFunction
        from repro.query.builder import aggregate

        expected = sum(row["priority"] for row in rows)
        scalar = aggregate_values(
            AggregateFunction.SUM, [row["priority"] for row in rows]
        )
        assert scalar == expected and type(scalar) is int
        query = aggregate("events").sum("priority").build()
        for store in Store:
            database = HybridDatabase()
            database.create_table(SCHEMA, store=store)
            database.load_rows("events", rows)
            for pushdown in (False, True):
                with use_features(aggregate_pushdown=pushdown):
                    value = database.execute(query).rows[0]["sum_priority"]
                assert value == expected, store
                assert type(value) is int, (store, pushdown)
