"""Query deadlines and matview refresh atomicity.

The contracts pinned here:

* **Deadlines** — ``Session.execute(timeout=...)`` cancels a query whose
  deadline expired, raises ``QueryTimeoutError`` and records no execution.
* **Matview refresh atomicity** — a crash at any declared
  ``matview.refresh.*`` point never installs a partial merge: the next
  serve returns rows identical to the ``matview_disabled()`` reference.
* **Registration** — the declared crash-point counts are pinned so new
  crash points cannot land without landing here too.
"""

import pytest

from repro.engine.deadline import deadline_check, query_deadline
from repro.engine.matview import matview_disabled
from repro.engine.schema import Column, TableSchema
from repro.errors import QueryTimeoutError
from repro.testing.faults import (
    CRASH_POINTS,
    MATVIEW_CRASH_POINTS,
    CrashError,
    FaultPlan,
    inject,
)
from repro.engine.types import DataType, Store
from repro.query.builder import aggregate, insert, select
from repro.query.predicates import ge

pytestmark = pytest.mark.resilience

SCHEMA = TableSchema(
    "metrics",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("bucket", DataType.VARCHAR),
        Column("value", DataType.DOUBLE, nullable=True),
        Column("hits", DataType.INTEGER),
    ),
)

NUM_ROWS = 2_000


def make_rows(num_rows, offset=0):
    """NULL-bearing (never NaN) rows, so partial merges stay provably safe."""
    return [
        {
            "id": offset + i,
            "bucket": f"b{i % 5}",
            "value": None if i % 11 == 0 else round((i % 97) * 0.5, 2),
            "hits": i % 13,
        }
        for i in range(num_rows)
    ]


def grouped_query():
    return (
        aggregate("metrics")
        .sum("value").count().min("hits")
        .group_by("bucket")
        .where(ge("hits", 3))
        .build()
    )


def rows_key(row):
    return sorted((key, repr(value)) for key, value in row.items())


def assert_same_rows(left, right):
    assert sorted(left, key=rows_key) == sorted(right, key=rows_key)


# -- deadlines and cancellation --------------------------------------------------------


def _session_with_data(num_rows=NUM_ROWS):
    from repro.api import connect

    session = connect()
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("metrics", make_rows(num_rows))
    return session


def test_zero_timeout_cancels_serial_queries_too():
    session = _session_with_data(200)
    session.execute(grouped_query())  # plan once
    with pytest.raises(QueryTimeoutError):
        session.execute(grouped_query(), timeout=0.0)
    assert session.stats().query_timeouts == 1
    session.close()


def test_prepared_statement_timeout_passthrough():
    session = _session_with_data(200)
    prepared = session.prepare("SELECT count(*) FROM metrics")
    assert prepared.execute().rows
    with pytest.raises(QueryTimeoutError):
        prepared.execute(timeout=0.0)
    session.close()


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT id, bucket FROM metrics WHERE hits >= 3",
        "SELECT bucket, sum(value) FROM metrics GROUP BY bucket",
        "UPDATE metrics SET hits = 99 WHERE id = 3",
        "DELETE FROM metrics WHERE hits = 4",
        "INSERT INTO metrics (id, bucket, value, hits) VALUES (9001, 'b9', 1.5, 2)",
    ],
    ids=["select", "aggregate", "update", "delete", "insert"],
)
def test_expired_deadline_changes_nothing(sql):
    session = _session_with_data(200)
    before = session.execute(select("metrics").build()).rows
    executed = session.stats().queries_executed
    with pytest.raises(QueryTimeoutError) as raised:
        session.sql(sql, timeout=0.0)
    assert raised.value.timeout_s == 0.0
    stats = session.stats()
    assert stats.query_timeouts == 1
    assert stats.queries_executed == executed
    # A cancelled statement, DML included, leaves the table as it was.
    assert session.execute(select("metrics").build()).rows == before
    session.close()


def test_generous_deadline_bills_like_no_deadline():
    session = _session_with_data(200)
    reference = session.execute(grouped_query())
    result = session.execute(grouped_query(), timeout=60.0)
    assert_same_rows(result.rows, reference.rows)
    assert result.cost.components == reference.cost.components
    assert session.stats().query_timeouts == 0
    session.close()


def test_no_deadline_is_a_noop():
    with query_deadline(None):
        deadline_check()


def test_nested_deadline_only_tightens():
    with query_deadline(0.0):
        # A longer inner deadline cannot extend the expired outer one.
        with query_deadline(60.0):
            with pytest.raises(QueryTimeoutError) as raised:
                deadline_check()
            assert raised.value.timeout_s == 0.0
    with query_deadline(60.0):
        with query_deadline(0.0):
            with pytest.raises(QueryTimeoutError):
                deadline_check()
        # Leaving the inner scope restores the outer, unexpired deadline.
        deadline_check()
    deadline_check()


# -- matview refresh atomicity ---------------------------------------------------------


def _stale_view_session():
    session = _session_with_data(600)
    session.create_view("metrics_by_bucket", grouped_query())
    # New rows leave the view stale; the next serve must refresh first.
    session.execute(insert("metrics", make_rows(200, offset=NUM_ROWS)))
    return session


@pytest.mark.parametrize("crash_at", MATVIEW_CRASH_POINTS)
def test_matview_refresh_crash_never_installs_partial_state(crash_at):
    session = _stale_view_session()
    query = grouped_query()
    with inject(FaultPlan(crash_at=crash_at)):
        with pytest.raises(CrashError):
            session.execute(query)
    # The interrupted refresh installed nothing: the next serve (which
    # refreshes again) matches the base-table reference bit-for-bit.
    with matview_disabled():
        reference = session.execute(query)
    served = session.execute(query)
    assert_same_rows(served.rows, reference.rows)
    assert served.view_hits
    session.close()


def test_matview_refresh_deadline_cancellation():
    session = _stale_view_session()
    query = grouped_query()
    with pytest.raises(QueryTimeoutError):
        session.execute(query, timeout=0.0)
    # The cancelled refresh installed nothing; the view still serves fresh.
    with matview_disabled():
        reference = session.execute(query)
    served = session.execute(query)
    assert_same_rows(served.rows, reference.rows)
    session.close()


def test_matview_workload_reaches_every_declared_crash_point():
    session = _stale_view_session()
    plan = FaultPlan(crash_at=None)  # record hits, never fire
    with inject(plan):
        session.execute(grouped_query())
    assert set(MATVIEW_CRASH_POINTS) <= set(plan.hits)
    session.close()


# -- registration ---------------------------------------------------------------------


def test_declared_fault_registrations_are_pinned():
    """New crash points must land with their coverage."""
    assert len(CRASH_POINTS) == 13
    assert len(MATVIEW_CRASH_POINTS) == 3
    everything = CRASH_POINTS + MATVIEW_CRASH_POINTS
    assert len(set(everything)) == len(everything)
    assert all(point.startswith("matview.") for point in MATVIEW_CRASH_POINTS)
