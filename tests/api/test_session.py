"""Session basics: the parse → bind → plan → execute pipeline."""

import pytest

from repro.api import connect
from repro.engine import Store
from repro.errors import BindError, ParseError
from repro.query import aggregate, eq, select


@pytest.fixture
def session(database_factory):
    return connect(database=database_factory(Store.ROW))


class TestSql:
    def test_select(self, session):
        result = session.sql("SELECT id, status FROM sales WHERE id = 3")
        assert result.rows == [{"id": 3, "status": "open"}]

    def test_aggregation(self, session, row_database):
        result = session.sql("SELECT sum(revenue) FROM sales GROUP BY region")
        legacy = row_database.execute(
            aggregate("sales").sum("revenue").group_by("region").build()
        )
        assert result.rows == legacy.rows

    def test_dml_roundtrip(self, session):
        session.sql("UPDATE sales SET status = 'x' WHERE id = 5")
        assert session.sql("SELECT status FROM sales WHERE id = 5").rows == [
            {"status": "x"}
        ]
        deleted = session.sql("DELETE FROM sales WHERE id = 5")
        assert deleted.affected_rows == 1
        inserted = session.sql(
            "INSERT INTO sales (id, region, product, revenue, quantity, status) "
            "VALUES (5, 'region_5', 1, 9.5, 2, 'open')"
        )
        assert inserted.affected_rows == 1

    def test_costs_match_legacy_execute(self, session, database_factory):
        query = aggregate("sales").sum("revenue").avg("quantity").group_by(
            "region"
        ).build()
        legacy = database_factory(Store.ROW).execute(query)
        via_session = session.execute(query)
        assert via_session.cost.components == legacy.cost.components

    def test_ast_queries_accepted(self, session):
        result = session.execute(select("sales").where(eq("id", 1)).build())
        assert len(result.rows) == 1


class TestBindErrors:
    def test_unknown_table(self, session):
        with pytest.raises(BindError, match="unknown table"):
            session.sql("SELECT * FROM nope")

    def test_unknown_column(self, session):
        with pytest.raises(BindError, match="no column"):
            session.sql("SELECT nope FROM sales")

    def test_unknown_predicate_column(self, session):
        with pytest.raises(BindError, match="no column"):
            session.sql("SELECT id FROM sales WHERE nope = 3")

    def test_literal_type_mismatch(self, session):
        with pytest.raises(BindError, match="type-check"):
            session.sql("SELECT id FROM sales WHERE id = 'abc'")

    def test_parse_errors_carry_position(self, session):
        with pytest.raises(ParseError) as excinfo:
            session.sql("SELECT id FROM sales WHERE id = 1 AND")
        assert excinfo.value.line == 1
        assert excinfo.value.column is not None


class TestPreparedStatements:
    def test_positional_parameters(self, session):
        statement = session.prepare("SELECT id, revenue FROM sales WHERE id = ?")
        assert len(statement.parameters) == 1
        assert statement.execute([3]).rows[0]["id"] == 3
        assert statement.execute([7]).rows[0]["id"] == 7

    def test_named_parameters(self, session):
        statement = session.prepare(
            "SELECT count(*) FROM sales WHERE quantity BETWEEN :low AND :high"
        )
        all_rows = statement.execute({"low": 1, "high": 20}).rows[0]["count_star"]
        some = statement.execute({"low": 1, "high": 3}).rows[0]["count_star"]
        assert 0 < some < all_rows

    def test_parameters_are_coerced(self, session):
        statement = session.prepare("SELECT id FROM sales WHERE id = ?")
        # A float parameter value coerces through the INTEGER column type.
        assert statement.execute([3.0]).rows == [{"id": 3}]

    def test_parameter_type_mismatch(self, session):
        statement = session.prepare("SELECT id FROM sales WHERE id = ?")
        with pytest.raises(BindError, match="not valid"):
            statement.execute(["abc"])

    def test_missing_parameters(self, session):
        statement = session.prepare("SELECT id FROM sales WHERE id = ?")
        with pytest.raises(BindError, match="parameter"):
            statement.execute()
        with pytest.raises(BindError, match="positional"):
            statement.execute([1, 2])

    def test_extra_named_parameters_rejected(self, session):
        statement = session.prepare("SELECT id FROM sales WHERE id = :id")
        with pytest.raises(BindError, match="does not use"):
            statement.execute({"id": 1, "typo": 2})

    def test_insert_with_placeholders(self, session):
        statement = session.prepare(
            "INSERT INTO sales (id, region, product, revenue, quantity, status) "
            "VALUES (?, ?, ?, ?, ?, ?)"
        )
        result = statement.execute([50_000, "region_9", 1, 1.5, 2, "open"])
        assert result.affected_rows == 1
        assert session.sql("SELECT region FROM sales WHERE id = 50000").rows == [
            {"region": "region_9"}
        ]

    def test_prepared_plan_is_reused(self, session):
        statement = session.prepare("SELECT id FROM sales WHERE id = ?")
        before = session.stats()
        statement.execute([1])
        statement.execute([2])
        statement.execute([3])
        after = session.stats()
        assert after.plan_cache_hits - before.plan_cache_hits == 3
        assert after.plan_cache_misses == before.plan_cache_misses


class TestSessionStats:
    def test_counters_move(self, session):
        session.sql("SELECT count(*) FROM sales")
        session.sql("SELECT count(*) FROM sales")
        stats = session.stats()
        assert stats.queries_executed == 2
        assert stats.parse_cache_hits == 1
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hit_rate == pytest.approx(0.5)

    def test_estimate_memo_counters_exposed(self, session):
        session.sql("SELECT count(*) FROM sales")
        stats = session.stats()
        assert stats.estimate_memo_misses >= 1

    def test_advisor_shares_the_estimate_memo(self, session, sales_rows):
        # Planning a query estimates it under the current layout; the
        # advisor's evaluation of that same layout hits the shared memo.
        query = aggregate("sales").sum("revenue").build()
        session.execute(query)
        memo = session.advisor().cost_model.memo
        before_hits = memo.hits
        profiles = session.advisor().cost_model.profiles_from_catalog(
            session.database.catalog
        )
        session.advisor().cost_model.estimate_query_ms(
            query, {"sales": Store.ROW}, profiles
        )
        assert memo.hits == before_hits + 1


class TestNullsAndNaN:
    def test_nan_parameter(self, database_factory):
        session = connect(database=database_factory(Store.COLUMN))
        statement = session.prepare("SELECT count(*) FROM sales WHERE revenue > ?")
        count = statement.execute([float("nan")]).rows[0]["count_star"]
        assert count == 0  # NaN never compares


class TestWorkloads:
    def test_run_workload(self, session, row_database):
        from repro.query import Workload

        queries = [
            aggregate("sales").sum("revenue").group_by("region").build(),
            select("sales").where(eq("id", 5)).build(),
        ]
        run = session.run_workload(Workload(queries, name="w"))
        legacy = row_database.run_workload(Workload(queries, name="w"))
        assert run.num_queries == 2
        assert run.total_runtime_ms == pytest.approx(legacy.total_runtime_ms)


class TestSerialExecution:
    def test_no_query_starts_a_process_even_below_the_shard_floor(
        self, database_factory
    ):
        """Execution is serial: lowering the shard floor changes nothing."""
        import multiprocessing

        from repro.engine.shard import shard_config

        session = connect(database=database_factory(Store.COLUMN))
        queries = [
            "SELECT sum(quantity), count(*) FROM sales WHERE quantity >= 3 "
            "GROUP BY region",
            "SELECT id, status FROM sales WHERE quantity >= 15",
        ]
        references = [session.sql(sql) for sql in queries]
        with shard_config(min_rows=1):
            results = [session.sql(sql) for sql in queries]
        assert multiprocessing.active_children() == []
        for result, reference in zip(results, references):
            assert result.shard_stats == {}
            assert result.rows == reference.rows
            assert result.cost.components == reference.cost.components
        session.close()

    def test_explain_analyze_shows_no_shard_lines(self, database_factory):
        from repro.engine.shard import shard_config

        session = connect(database=database_factory(Store.COLUMN))
        with shard_config(min_rows=1):
            text = session.explain(
                "SELECT sum(quantity), count(*) FROM sales WHERE quantity >= 3 "
                "GROUP BY region",
                analyze=True,
            )
        assert "Scan sales" in text
        for removed in ("shards:", "ladder:", "degraded:", "shard execution"):
            assert removed not in text
        session.close()

    def test_names_the_session_benchmark_reaches_are_inert(self, database_factory):
        """``sessionbench/`` still calls or traces these; they do nothing."""
        import importlib
        import importlib.util
        from pathlib import Path

        from repro.engine.executor import operators
        from repro.engine.shard import audit_shared_segments, shutdown_worker_pool

        session = connect(database=database_factory(Store.COLUMN))
        session.sql("SELECT count(*) FROM sales WHERE quantity >= 3")
        assert session.stats().shard_degradations == 0
        assert shutdown_worker_pool() is None
        assert audit_shared_segments() == ([], [])
        assert operators.try_sharded_aggregation() is None
        assert operators.try_sharded_select() is None
        session.close()

        # A traced benchmark run resolves every entry point it wraps.
        path = Path(__file__).resolve().parents[2] / "sessionbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("sessionbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module_name, attribute, _ in tracing.SPANS:
            owner = importlib.import_module(module_name)
            for part in attribute.split("."):
                owner = getattr(owner, part)
            assert callable(owner), attribute
