"""Tests for the storage advisor: calibration, table-level and partition-level
recommendations, DDL generation, application and the online monitor."""

import pytest

from repro.config import AdvisorConfig
from repro.core import (
    CostModel,
    CostModelCalibrator,
    OnlineAdvisorMonitor,
    StorageAdvisor,
    WorkloadStatistics,
)
from repro.core.advisor.ddl import statement_for_partitioning, statement_for_store, statements_for_layout
from repro.core.advisor.partition_advisor import PartitionAdvisor
from repro.core.advisor.recommendation import StorageLayout
from repro.core.advisor.table_level import TableLevelAdvisor
from repro.core.cost_model.estimator import TableProfile
from repro.engine import HybridDatabase, Store, TablePartitioning, VerticalPartitionSpec
from repro.engine.schema import Column, TableSchema
from repro.engine.shard import shard_bounds, shard_config, shard_min_rows
from repro.engine.statistics import compute_table_statistics
from repro.engine.types import DataType
from repro.errors import AdvisorError
from repro.query import (
    QueryType,
    Workload,
    aggregate,
    between,
    delete,
    eq,
    ge,
    insert,
    select,
    update,
)


def olap_heavy_workload(n_olap=20, n_oltp=5) -> Workload:
    queries = [aggregate("sales").sum("revenue").group_by("region").build()] * n_olap
    queries += [update("sales", {"status": "x"}, eq("id", i)) for i in range(n_oltp)]
    return Workload(queries, name="olap-heavy")


def oltp_heavy_workload(n_olap=1, n_oltp=200) -> Workload:
    queries = [aggregate("sales").sum("revenue").build()] * n_olap
    queries += [update("sales", {"status": "x"}, eq("id", i)) for i in range(n_oltp)]
    queries += [select("sales").where(eq("id", i)).build() for i in range(n_oltp // 2)]
    return Workload(queries, name="oltp-heavy")


class TestCalibration:
    def test_calibration_produces_samples_and_fits_groups(self):
        calibrator = CostModelCalibrator(sizes=(500, 1_500))
        report = calibrator.calibrate()
        assert report.num_samples > 30
        assert len(report.fitted_groups) >= 8  # both stores, several query types
        for weights in report.parameters.per_store_and_type.values():
            assert all(value >= 0 for value in weights.weights.values())

    def test_calibrated_model_estimates_accurately(self, database_factory):
        report = CostModelCalibrator(sizes=(500, 1_500, 4_000)).calibrate()
        cost_model = CostModel(parameters=report.parameters)
        query = aggregate("sales").sum("revenue").avg("quantity").group_by("region").build()
        for store in Store:
            database = database_factory(store)
            actual = database.execute(query).runtime_ms
            profiles = CostModel.profiles_from_catalog(database.catalog)
            estimate = cost_model.estimate_query_ms(query, {"sales": store}, profiles)
            assert estimate == pytest.approx(actual, rel=0.30)


class TestTableLevelAdvisor:
    def test_olap_heavy_workload_prefers_column_store(self, row_database):
        advisor = TableLevelAdvisor(CostModel())
        profiles = CostModel.profiles_from_catalog(row_database.catalog)
        result = advisor.recommend(olap_heavy_workload(), profiles)
        assert result.assignment["sales"] is Store.COLUMN

    def test_oltp_heavy_workload_prefers_row_store(self, row_database):
        advisor = TableLevelAdvisor(CostModel())
        profiles = CostModel.profiles_from_catalog(row_database.catalog)
        result = advisor.recommend(oltp_heavy_workload(), profiles)
        assert result.assignment["sales"] is Store.ROW

    def test_join_groups_are_optimised_together(self):
        advisor = TableLevelAdvisor(CostModel())
        workload = Workload([
            aggregate("fact").sum("fact.v").group_by("dim.label")
            .join("dim", "dim_id", "id").build()
        ])
        groups = advisor._join_groups(workload, ["fact", "dim"])
        assert len(groups) == 1 and groups[0] == {"fact", "dim"}

    def test_empty_workload_rejected(self, row_database):
        advisor = StorageAdvisor()
        with pytest.raises(AdvisorError):
            advisor.recommend(row_database, Workload([]))


class TestPartitionAdvisor:
    def build_profile(self, database):
        return TableProfile(
            schema=database.schema("sales"),
            statistics=compute_table_statistics(database.table_object("sales")),
        )

    def test_pure_oltp_table_is_not_partitioned(self, row_database):
        advisor = PartitionAdvisor()
        workload = Workload([update("sales", {"status": "x"}, eq("id", 1))] * 50)
        decision = advisor.recommend_for_table("sales", workload, self.build_profile(row_database))
        assert decision.partitioning is None

    def test_vertical_split_moves_oltp_attributes_to_row_store(self, row_database):
        advisor = PartitionAdvisor()
        queries = [aggregate("sales").sum("revenue").group_by("region").build()] * 10
        queries += [update("sales", {"status": "s"}, eq("id", i)) for i in range(30)]
        decision = advisor.recommend_for_table(
            "sales", Workload(queries), self.build_profile(row_database)
        )
        assert decision.partitioning is not None
        vertical = decision.partitioning.vertical
        assert vertical is not None
        assert "status" in vertical.row_store_columns
        assert "revenue" in vertical.column_store_columns

    def test_hot_update_region_triggers_horizontal_split(self, row_database):
        advisor = PartitionAdvisor()
        queries = [aggregate("sales").sum("revenue").build()] * 10
        # Updates concentrate on the last ~10 % of the id range.
        queries += [
            update("sales", {"quantity": 1}, between("id", 900 + i, 905 + i))
            for i in range(0, 90, 5)
        ]
        decision = advisor.recommend_for_table(
            "sales", Workload(queries), self.build_profile(row_database)
        )
        assert decision.partitioning is not None
        horizontal = decision.partitioning.horizontal
        assert horizontal is not None
        assert decision.hot_region[0] == "id"
        assert decision.hot_region[1] >= 850

    def test_insert_heavy_workload_gets_new_rows_partition(self, row_database):
        advisor = PartitionAdvisor(AdvisorConfig(insert_fraction_threshold=0.05))
        queries = [aggregate("sales").sum("revenue").build()] * 5
        queries += [
            insert("sales", [{"id": 10_000 + i, "region": "r", "product": 0,
                              "revenue": 0.0, "quantity": 1, "status": "new"}])
            for i in range(20)
        ]
        decision = advisor.recommend_for_table(
            "sales", Workload(queries), self.build_profile(row_database)
        )
        assert decision.partitioning is not None
        assert decision.partitioning.horizontal is not None
        assert decision.insert_fraction > 0.05


class TestDdl:
    def test_statements_for_stores_and_partitionings(self):
        assert statement_for_store("sales", Store.COLUMN) == (
            "ALTER TABLE sales MOVE TO COLUMN STORE;"
        )
        partitioning = TablePartitioning(
            vertical=VerticalPartitionSpec(("status",), ("revenue",))
        )
        statement = statement_for_partitioning("sales", partitioning)
        assert "PARTITION BY" in statement
        assert "status" in statement

    def test_statements_skip_tables_already_in_place(self):
        layout = StorageLayout({"a": Store.ROW, "b": Store.COLUMN})
        statements = statements_for_layout(layout, current_layout={"a": Store.ROW})
        assert statements == ["ALTER TABLE b MOVE TO COLUMN STORE;"]


class TestStorageAdvisorFacade:
    def test_recommend_and_apply_improves_olap_workload(self, row_database):
        advisor = StorageAdvisor()
        workload = olap_heavy_workload()
        before = row_database.run_workload(workload).total_runtime_ms
        recommendation = advisor.recommend(row_database, workload)
        assert recommendation.choice_for("sales") is not Store.ROW or \
            recommendation.layout.partitioned_tables()
        advisor.apply(row_database, recommendation)
        after = row_database.run_workload(workload).total_runtime_ms
        assert after < before
        assert recommendation.ddl_statements
        assert "sales" in recommendation.describe()

    def test_offline_recommendation_from_schema_and_statistics(self, sales_schema):
        from repro.engine.statistics import statistics_from_schema

        advisor = StorageAdvisor()
        statistics = statistics_from_schema(sales_schema, num_rows=50_000)
        recommendation = advisor.recommend_offline(
            {"sales": sales_schema}, {"sales": statistics}, olap_heavy_workload(),
            include_partitioning=False,
        )
        assert recommendation.choice_for("sales") is Store.COLUMN
        assert recommendation.estimated_row_only_ms > recommendation.estimated_total_ms

    def test_estimated_improvements_are_consistent(self, row_database):
        advisor = StorageAdvisor()
        recommendation = advisor.recommend(row_database, olap_heavy_workload(),
                                           include_partitioning=False)
        assert 0.0 <= recommendation.estimated_improvement_vs_row <= 1.0
        assert recommendation.estimated_total_ms <= recommendation.estimated_row_only_ms
        assert recommendation.estimated_total_ms <= recommendation.estimated_column_only_ms


class TestWorkloadStatistics:
    def test_from_workload_counts(self):
        statistics = WorkloadStatistics.from_workload(olap_heavy_workload(10, 5))
        table_stats = statistics.table("sales")
        assert table_stats.num_aggregations == 10
        assert table_stats.num_updates == 5
        assert table_stats.attribute("revenue").aggregations == 10
        assert table_stats.attribute("status").updates == 5
        assert statistics.total_queries == 15

    def test_deletes_and_inserts_are_counted(self):
        workload = Workload(
            [delete("sales", eq("id", i)) for i in range(3)]
            + [insert("sales", [{"id": 100 + i}, {"id": 200 + i}]) for i in range(2)]
            + [aggregate("sales").sum("revenue").build()]
        )
        statistics = WorkloadStatistics.from_workload(workload)
        table_stats = statistics.table("sales")
        assert table_stats.queries_by_type[QueryType.DELETE] == 3
        assert table_stats.num_inserts == 2
        assert table_stats.rows_inserted == 4
        assert table_stats.attribute("id").point_selections == 3
        assert table_stats.olap_fraction == pytest.approx(1 / 6)
        assert statistics.total_queries == 6

    def test_join_counts(self):
        workload = Workload([
            aggregate("fact").sum("v").join("dim", "d", "id").build()
        ] * 3)
        statistics = WorkloadStatistics.from_workload(workload)
        assert statistics.joins_between("fact", "dim") == 3
        assert statistics.joined_tables("fact") == ("dim",)

    def test_summary_text(self):
        statistics = WorkloadStatistics.from_workload(olap_heavy_workload(2, 1))
        assert "sales" in statistics.summary()


class TestOnlineMonitor:
    def test_monitor_records_and_recommends_adaptation(self, row_database):
        advisor = StorageAdvisor(AdvisorConfig(online_reevaluation_interval=30))
        adaptations = []
        monitor = OnlineAdvisorMonitor(
            advisor, row_database,
            include_partitioning=False,
            on_adaptation=adaptations.append,
        )
        with monitor:
            for _ in range(35):
                row_database.execute(
                    aggregate("sales").sum("revenue").group_by("region").build()
                )
        assert monitor.state.total_queries == 35
        assert monitor.state.evaluations >= 1
        # The OLAP-only stream should trigger a row -> column adaptation.
        assert adaptations
        assert adaptations[0].choice_for("sales") is Store.COLUMN
        assert monitor.apply_pending()
        assert row_database.store_of("sales") is Store.COLUMN

    def test_monitor_is_quiet_when_layout_is_already_optimal(self, column_database):
        advisor = StorageAdvisor(AdvisorConfig(online_reevaluation_interval=20))
        adaptations = []
        monitor = OnlineAdvisorMonitor(
            advisor, column_database,
            include_partitioning=False,
            on_adaptation=adaptations.append,
        )
        with monitor:
            for _ in range(25):
                column_database.execute(
                    aggregate("sales").sum("revenue").group_by("region").build()
                )
        assert not adaptations

    def test_detached_monitor_stops_recording(self, row_database):
        advisor = StorageAdvisor()
        monitor = OnlineAdvisorMonitor(advisor, row_database)
        monitor.attach()
        monitor.detach()
        row_database.execute(select("sales").where(eq("id", 1)).build())
        assert monitor.state.total_queries == 0


# -- shard-key what-if ---------------------------------------------------------------------

SHARD_SCHEMA = TableSchema(
    "metrics",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("bucket", DataType.VARCHAR),
        Column("value", DataType.DOUBLE, nullable=True),
        Column("hits", DataType.INTEGER),
    ),
)


def make_metrics_rows(num_rows):
    return [
        {
            "id": i,
            "bucket": f"b{i % 5}",
            "value": None if i % 11 == 0 else round((i % 97) * 0.5, 2),
            "hits": i % 13,
        }
        for i in range(num_rows)
    ]


def build_metrics_database(num_rows):
    database = HybridDatabase()
    database.create_table(SHARD_SCHEMA, store=Store.COLUMN)
    database.load_rows("metrics", make_metrics_rows(num_rows))
    return database


def grouped_metrics_query():
    return (
        aggregate("metrics")
        .sum("value").count().min("hits")
        .group_by("bucket")
        .where(ge("hits", 3))
        .build()
    )


@pytest.mark.parametrize(
    "num_rows, fan_out",
    [(0, 4), (1, 4), (3, 2), (5, 1), (7, 7), (10, 4), (4_001, 4)],
)
def test_shard_bounds_cover_and_balance(num_rows, fan_out):
    bounds = shard_bounds(num_rows, fan_out)
    assert len(bounds) == fan_out
    assert bounds[0][0] == 0 and bounds[-1][1] == num_rows
    sizes = [stop - start for start, stop in bounds]
    assert min(sizes) >= 0 and sum(sizes) == num_rows
    assert max(sizes) - min(sizes) <= 1
    # Larger ranges come first, so a remainder never lands on the last shard.
    assert sizes == sorted(sizes, reverse=True)
    for (_, stop), (start, _) in zip(bounds, bounds[1:]):
        assert stop == start


class TestShardAdvisor:
    def test_recommends_group_aligned_key_via_memo(self):
        database = build_metrics_database(60_000)
        advisor = StorageAdvisor()
        workload = Workload(
            [grouped_metrics_query()] * 10
            + [select("metrics").where(ge("hits", 10)).build()] * 5,
            name="shardable",
        )
        with shard_config(min_rows=1):
            recommendations = advisor.recommend_shard_keys(database, workload)
            assert set(recommendations) == {"metrics"}
            recommendation = recommendations["metrics"]
            assert recommendation.shard_key == "bucket"
            assert recommendation.fan_out == 4
            assert recommendation.estimated_speedup > 1.0
            assert "shard by bucket x4" in recommendation.describe()
            # The what-if plan renders through the EXPLAIN renderer.
            assert recommendation.whatif_plan is not None
            text = recommendation.explain()
            assert "AggregationQuery" in text
            assert "Scan metrics" in text
            # Re-advising is served from the EstimateMemo.
            hits_before = advisor.cost_model.cache_hits
            again = advisor.recommend_shard_keys(database, workload)
        assert advisor.cost_model.cache_hits > hits_before
        assert again["metrics"].shard_key == "bucket"
        assert again["metrics"].estimated_sharded_ms == pytest.approx(
            recommendation.estimated_sharded_ms
        )

    def test_declines_when_dispatch_eats_the_gain(self):
        database = build_metrics_database(300)
        advisor = StorageAdvisor()
        workload = Workload([grouped_metrics_query()], name="tiny")
        with shard_config(min_rows=1):
            assert advisor.recommend_shard_keys(database, workload) == {}

    def test_session_wrapper_respects_row_floor(self):
        from repro.api import connect

        session = connect()
        session.create_table(SHARD_SCHEMA, Store.COLUMN)
        session.load_rows("metrics", make_metrics_rows(2_000))
        # Default 200k floor: the table is never shard-eligible.
        assert session.recommend_shard_keys(Workload([grouped_metrics_query()])) == {}
        session.close()

    # -- what-if knobs and eligibility ---------------------------------------------------

    WHATIF_ROWS = 20_000

    def shardable_workload(self):
        return Workload(
            [grouped_metrics_query()] * 10
            + [select("metrics").where(ge("hits", 10)).build()] * 5,
            name="shardable",
        )

    def test_fan_out_defaults_to_four_and_scales_the_estimate(self):
        database = build_metrics_database(self.WHATIF_ROWS)
        advisor = StorageAdvisor()
        with shard_config(min_rows=1):
            two = advisor.recommend_shard_keys(
                database, self.shardable_workload(), fan_out=2
            )
            four = advisor.recommend_shard_keys(database, self.shardable_workload())
        assert two["metrics"].fan_out == 2
        assert "shard by bucket x2" in two["metrics"].describe()
        assert four["metrics"].fan_out == 4
        # The same serial estimate, a smaller crew: less of it is divided.
        assert two["metrics"].estimated_serial_ms == pytest.approx(
            four["metrics"].estimated_serial_ms
        )
        assert (
            four["metrics"].estimated_sharded_ms
            < two["metrics"].estimated_sharded_ms
            < two["metrics"].estimated_serial_ms
        )

    def test_row_floor_is_inclusive(self):
        database = build_metrics_database(self.WHATIF_ROWS)
        advisor = StorageAdvisor()
        with shard_config(min_rows=self.WHATIF_ROWS):
            assert set(
                advisor.recommend_shard_keys(database, self.shardable_workload())
            ) == {"metrics"}
        with shard_config(min_rows=self.WHATIF_ROWS + 1):
            assert advisor.recommend_shard_keys(
                database, self.shardable_workload()
            ) == {}

    def test_row_store_assignment_is_never_sharded(self):
        database = build_metrics_database(self.WHATIF_ROWS)
        with shard_config(min_rows=1):
            recommendations = StorageAdvisor().recommend_shard_keys(
                database, self.shardable_workload(),
                assignment={"metrics": Store.ROW},
            )
        assert recommendations == {}

    def test_unfiltered_selects_and_joins_are_not_shardable(self):
        database = build_metrics_database(self.WHATIF_ROWS)
        workload = Workload(
            [select("metrics").build()] * 5
            + [aggregate("metrics").count().join("other", "id", "id").build()] * 5,
            name="unshardable",
        )
        with shard_config(min_rows=1):
            assert StorageAdvisor().recommend_shard_keys(database, workload) == {}

    def test_dispatch_overhead_decides(self):
        from repro.config import DeviceModelConfig

        database = build_metrics_database(self.WHATIF_ROWS)
        costly = DeviceModelConfig(shard_dispatch_ns=1e9)
        with shard_config(min_rows=1):
            assert StorageAdvisor().recommend_shard_keys(
                database, self.shardable_workload()
            )
            assert StorageAdvisor(device_config=costly).recommend_shard_keys(
                database, self.shardable_workload()
            ) == {}

    def test_empty_workload_rejected(self):
        database = build_metrics_database(100)
        with pytest.raises(AdvisorError):
            StorageAdvisor().recommend_shard_keys(database, Workload([]))


class TestShardConfig:
    def test_row_floor_override_is_scoped(self):
        assert shard_min_rows() == 200_000
        with shard_config(min_rows=10):
            assert shard_min_rows() == 10
            # ``None`` keeps whatever floor is in force.
            with shard_config(min_rows=None):
                assert shard_min_rows() == 10
        assert shard_min_rows() == 200_000

    def test_restored_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with shard_config(min_rows=1):
                raise RuntimeError("boom")
        assert shard_min_rows() == 200_000
