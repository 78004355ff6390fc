"""Session surface of the durability subsystem, and close/failure hygiene.

* ``connect(wal_path=...)`` attaches a WAL so every statement is durable;
  ``repro.api.recover(path)`` rebuilds the database and re-opens the log.
* :meth:`Session.close` is idempotent and exception-safe: double close is a
  no-op, ``with`` closes on exceptions, listeners are dropped, and the WAL
  is flushed and closed (so ``off``-mode buffers become durable at close).
* A statement that fails mid-execution leaves no stale session state: no
  listener fires for it, the plan cache is not poisoned, and the session
  keeps executing — the regression net for the failing-UPDATE-mid-``sql()``
  class of bugs.
* Layout changes — store moves, horizontal and vertical partitioning, a
  collapse back to one store, a dropped table and an applied advisor
  recommendation — are logged, and recovery rebuilds the same layout with
  the same rows and the same charges.
"""

import pytest

from repro.api import connect, recover
from repro.config import DurabilityConfig
from repro.engine import DataType, Store, TableSchema
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.errors import ExecutionError
from repro.query.builder import aggregate, update
from repro.query.predicates import eq, ge
from repro.query.workload import Workload

SCHEMA = TableSchema.build(
    "t",
    [("id", DataType.INTEGER), ("v", DataType.VARCHAR)],
    primary_key=["id"],
)


def populated_session(wal_path=None, durability=None):
    session = connect(wal_path=wal_path, durability=durability)
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("t", [{"id": i, "v": f"v{i}"} for i in range(6)])
    return session


class TestClose:
    def test_close_is_idempotent(self):
        session = populated_session()
        assert not session.closed
        session.close()
        assert session.closed
        session.close()  # second close: no-op, no error
        assert session.closed

    def test_close_drops_listeners(self):
        session = populated_session()
        session.add_plan_listener(lambda *args: None)
        session.close()
        assert session._plan_listeners == []

    def test_context_manager_closes_on_exception(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with pytest.raises(RuntimeError, match="boom"):
            with populated_session(wal_path=path) as session:
                raise RuntimeError("boom")
        assert session.closed
        assert session.database.wal.closed

    def test_close_flushes_an_off_mode_wal(self, tmp_path):
        path = str(tmp_path / "db.wal")
        session = populated_session(
            wal_path=path, durability=DurabilityConfig(wal_sync_mode="off")
        )
        session.sql("INSERT INTO t (id, v) VALUES (100, 'late')")
        lost, _ = recover(str(tmp_path / "probe.wal"))  # unrelated fresh log
        lost.close()
        session.close()  # flush happens here
        recovered, report = recover(path)
        assert report.records_applied == 3
        ids = {row["id"] for row in recovered.sql("SELECT id FROM t").rows}
        assert 100 in ids
        recovered.close()

    def test_database_stays_usable_after_close(self):
        session = populated_session()
        session.close()
        assert session.database.table_names() == ["t"]


class TestFailedStatementHygiene:
    def test_failing_update_leaves_no_stale_state(self):
        session = populated_session()
        notified = []
        session.add_plan_listener(lambda query, plan, result: notified.append(query))

        failing = "UPDATE t SET id = 1 WHERE id = 5"
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            session.sql(failing)
        # No listener fired for the failed statement, none was leaked.
        assert notified == []
        assert len(session._plan_listeners) == 1

        # The session keeps working, and the cached plan for the failing
        # statement re-executes (and re-fails) rather than serving junk.
        assert session.sql("SELECT v FROM t WHERE id = 5").rows == [{"v": "v5"}]
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            session.sql(failing)
        session.sql("UPDATE t SET id = 50 WHERE id = 5")
        assert session.sql("SELECT v FROM t WHERE id = 50").rows == [{"v": "v5"}]
        # Exactly the successful statements notified the listener.
        assert len(notified) == 3

    def test_failing_dml_is_still_durable(self, tmp_path):
        # The engine's partial-state contract: a failed statement may have
        # committed a prefix, so it is logged and replays to the same state.
        path = str(tmp_path / "db.wal")
        session = populated_session(wal_path=path)
        with pytest.raises(ExecutionError):
            session.sql("UPDATE t SET id = 1 WHERE id = 5")
        session.close()
        recovered, report = recover(path)
        assert [lsn for lsn, _ in report.replay_errors] == [3]
        assert "duplicate primary key" in report.replay_errors[0][1]
        assert recovered.sql("SELECT v FROM t WHERE id = 5").rows == [{"v": "v5"}]
        recovered.close()


class TestDurabilitySurface:
    def test_connect_recover_roundtrip(self, tmp_path):
        path = str(tmp_path / "db.wal")
        session = populated_session(wal_path=path)
        session.sql("INSERT INTO t (id, v) VALUES (10, 'ten')")
        session.close()
        recovered, report = recover(path)
        assert report.clean
        assert report.records_applied == 3
        rows = recovered.sql("SELECT * FROM t WHERE id = 10").rows
        assert rows == [{"id": 10, "v": "ten"}]
        # The recovered session is durable again: its statements land in
        # the same log and survive another recovery.
        recovered.sql("INSERT INTO t (id, v) VALUES (11, 'eleven')")
        recovered.close()
        again, _ = recover(path)
        assert again.sql("SELECT v FROM t WHERE id = 11").rows == [{"v": "eleven"}]
        again.close()

    def test_session_checkpoint(self, tmp_path):
        path = str(tmp_path / "db.wal")
        session = populated_session(wal_path=path)
        lsn = session.checkpoint()
        assert lsn == 2
        session.sql("INSERT INTO t (id, v) VALUES (10, 'ten')")
        session.close()
        recovered, report = recover(path)
        assert report.snapshot_restored
        assert report.snapshot_lsn == 2
        assert report.records_applied == 1
        assert len(recovered.sql("SELECT * FROM t").rows) == 7
        recovered.close()

    def test_durability_config_reaches_the_backends(self):
        session = populated_session(
            durability=DurabilityConfig(delta_merge_threshold=4)
        )
        backend = session.database.table_object("t").backend
        assert backend.merge_threshold == 4
        for i in range(4):
            session.sql(f"INSERT INTO t (id, v) VALUES ({20 + i}, 'd')")
        assert backend.delta_rows == 0  # threshold crossed: merged

    def test_session_snapshot_and_merge(self):
        session = populated_session()
        session.sql("INSERT INTO t (id, v) VALUES (10, 'ten')")
        snapshot = session.snapshot("t")
        before = snapshot.rows()
        assert session.merge_deltas("t") == 1
        session.sql("DELETE FROM t WHERE id >= 0")
        assert snapshot.rows() == before
        assert session.sql("SELECT * FROM t").rows == []


class TestLayoutDurability:
    REPORT = (
        "SELECT region, sum(revenue), count(*) FROM sales "
        "WHERE quantity >= 3 GROUP BY region"
    )

    def wal_session(self, path, sales_schema, sales_rows):
        session = connect(wal_path=path)
        session.create_table(sales_schema, Store.ROW)
        session.load_rows("sales", sales_rows)
        return session

    def layout(self, session):
        """Everything recovery must rebuild: layout, rows and charges."""
        catalog = session.database.catalog
        if not catalog.has_table("sales"):
            return catalog.table_names(), None
        report = session.sql(self.REPORT)
        rows = sorted(
            session.sql("SELECT * FROM sales").rows, key=lambda row: row["id"]
        )
        return (
            catalog.table_names(),
            catalog.store_of("sales"),
            catalog.partitioning_of("sales"),
            rows,
            sorted(report.rows, key=lambda row: row["region"]),
            report.cost.components,
        )

    @pytest.mark.parametrize(
        "change", ["move", "horizontal", "vertical", "collapse", "drop"]
    )
    def test_layout_change_survives_recovery(
        self, tmp_path, sales_schema, sales_rows, change
    ):
        path = str(tmp_path / "db.wal")
        session = self.wal_session(path, sales_schema, sales_rows)
        horizontal = TablePartitioning(
            horizontal=HorizontalPartitionSpec(predicate=ge("quantity", 18))
        )
        if change == "move":
            session.move_table("sales", Store.COLUMN)
        elif change == "horizontal":
            session.apply_partitioning("sales", horizontal)
        elif change == "vertical":
            session.apply_partitioning("sales", TablePartitioning(
                vertical=VerticalPartitionSpec(
                    row_store_columns=("status",),
                    column_store_columns=("region", "product", "revenue", "quantity"),
                )
            ))
        elif change == "collapse":
            session.apply_partitioning("sales", horizontal)
            session.remove_partitioning("sales", Store.COLUMN)
        else:
            session.drop_table("sales")
        # Writes after the change land in the new layout and replay there too.
        if change != "drop":
            session.sql("UPDATE sales SET status = 'late' WHERE id = 3")
        expected = self.layout(session)
        session.close()

        recovered, report = recover(path)
        assert report.clean and not report.replay_errors
        assert self.layout(recovered) == expected
        recovered.close()

    def test_applied_recommendation_survives_recovery(
        self, tmp_path, sales_schema, sales_rows
    ):
        path = str(tmp_path / "db.wal")
        session = self.wal_session(path, sales_schema, sales_rows)
        workload = Workload(
            [aggregate("sales").sum("revenue").group_by("region").build()] * 20
            + [update("sales", {"status": "x"}, eq("id", i)) for i in range(5)],
            name="olap-heavy",
        )
        recommendation = session.recommend(workload, include_partitioning=False)
        assert recommendation.choice_for("sales") is Store.COLUMN
        session.apply(recommendation)
        assert session.database.catalog.store_of("sales") is Store.COLUMN
        expected = self.layout(session)
        session.close()

        recovered, report = recover(path)
        assert report.clean and not report.replay_errors
        assert self.layout(recovered) == expected
        recovered.close()
