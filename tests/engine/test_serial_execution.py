"""Serial execution: every query runs on the serial operators in one process.

The contracts pinned here:

* on every layout (row store, column store, horizontal and vertical
  partitions), grouped and ungrouped aggregations, filtered selections and
  zero-scan answers return the rows a plain-Python evaluation of the loaded
  data gives, with ``shard_stats`` empty and no child process started.

The differential fuzzers compare layouts with each other; this suite pins
each of them to an answer computed without the engine.
"""

import math
import multiprocessing

import pytest

from repro.engine.database import HybridDatabase
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.query.builder import aggregate, select
from repro.query.predicates import between, eq, ge

SCHEMA = TableSchema(
    "metrics",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("bucket", DataType.VARCHAR),
        Column("value", DataType.DOUBLE, nullable=True),
        Column("hits", DataType.INTEGER),
    ),
)

NUM_ROWS = 1_200


def make_rows(num_rows):
    return [
        {
            "id": i,
            "bucket": f"b{i % 5}",
            "value": None if i % 11 == 0 else round((i % 97) * 0.5, 2),
            "hits": i % 13,
        }
        for i in range(num_rows)
    ]


ROWS = make_rows(NUM_ROWS)


def build_database(layout):
    database = HybridDatabase()
    store = Store.ROW if layout == "row" else Store.COLUMN
    database.create_table(SCHEMA, store=store)
    database.load_rows("metrics", ROWS)
    if layout == "horizontal":
        database.apply_partitioning(
            "metrics",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(predicate=ge("hits", 10))
            ),
        )
    elif layout == "vertical":
        database.apply_partitioning(
            "metrics",
            TablePartitioning(
                vertical=VerticalPartitionSpec(
                    row_store_columns=("hits",),
                    column_store_columns=("bucket", "value"),
                )
            ),
        )
    return database


# -- the query shapes and their plain-Python answers -----------------------------------


def _sum(values):
    values = [value for value in values if value is not None]
    return sum(values) if values else None


def _grouped(rows, key):
    groups = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row)
    return groups


def grouped_with_predicate():
    query = (
        aggregate("metrics")
        .sum("value").count().min("hits")
        .group_by("bucket")
        .where(ge("hits", 3))
        .build()
    )
    kept = [row for row in ROWS if row["hits"] >= 3]
    expected = [
        {
            "bucket": bucket,
            "sum_value": _sum(row["value"] for row in rows),
            "count_star": len(rows),
            "min_hits": min(row["hits"] for row in rows),
        }
        for bucket, rows in _grouped(kept, "bucket").items()
    ]
    return query, expected


def ungrouped_without_predicate():
    query = aggregate("metrics").sum("value").avg("hits").min("bucket").build()
    expected = [{
        "sum_value": _sum(row["value"] for row in ROWS),
        "avg_hits": sum(row["hits"] for row in ROWS) / len(ROWS),
        "min_bucket": min(row["bucket"] for row in ROWS),
    }]
    return query, expected


def grouped_over_nullable_key():
    query = (
        aggregate("metrics")
        .count().sum("hits")
        .group_by("value")
        .where(between("hits", 2, 9))
        .build()
    )
    kept = [row for row in ROWS if 2 <= row["hits"] <= 9]
    expected = [
        {
            "value": value,
            "count_star": len(rows),
            "sum_hits": sum(row["hits"] for row in rows),
        }
        for value, rows in _grouped(kept, "value").items()
    ]
    return query, expected


def select_with_predicate():
    query = select("metrics").columns("id", "bucket").where(eq("bucket", "b2")).build()
    expected = [
        {"id": row["id"], "bucket": row["bucket"]}
        for row in ROWS if row["bucket"] == "b2"
    ]
    return query, expected


def zero_scan_answer():
    query = aggregate("metrics").count().max("hits").build()
    expected = [{"count_star": len(ROWS), "max_hits": max(r["hits"] for r in ROWS)}]
    return query, expected


SHAPES = {
    "grouped_with_predicate": grouped_with_predicate,
    "ungrouped_without_predicate": ungrouped_without_predicate,
    "grouped_over_nullable_key": grouped_over_nullable_key,
    "select_with_predicate": select_with_predicate,
    "zero_scan_answer": zero_scan_answer,
}


def _sort_token(value):
    if value is None:
        return (0, "")
    return (1, repr(value)) if isinstance(value, str) else (2, f"{value:020.6f}")


def _canonical(rows):
    return sorted(
        rows, key=lambda row: [(key, _sort_token(row[key])) for key in sorted(row)]
    )


def assert_rows_match_oracle(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(_canonical(actual), _canonical(expected)):
        assert set(got) == set(want)
        for key, value in want.items():
            if isinstance(value, float) and not math.isnan(value):
                assert got[key] == pytest.approx(value, rel=1e-9), key
            else:
                assert got[key] == value, key


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("layout", ["row", "column", "horizontal", "vertical"])
def test_serial_operators_match_the_oracle(layout, shape):
    database = build_database(layout)
    query, expected = SHAPES[shape]()
    result = database.execute(query)

    assert_rows_match_oracle(result.rows, expected)
    assert result.shard_stats == {}
    assert multiprocessing.active_children() == []
