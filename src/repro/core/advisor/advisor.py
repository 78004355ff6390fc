"""The storage advisor façade (offline and online working modes, Section 4).

Typical offline usage::

    advisor = StorageAdvisor()
    advisor.initialize_cost_model()              # calibrate against the system
    recommendation = advisor.recommend(database, workload)
    print(recommendation.describe())
    advisor.apply(database, recommendation)      # or hand the DDL to the DBA

The online mode is provided by
:class:`~repro.core.advisor.monitor.OnlineAdvisorMonitor`, which records the
executed workload through an execution listener and periodically asks this
advisor for adaptation recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.config import AdvisorConfig, DeviceModelConfig
from repro.core.advisor.ddl import apply_recommendation, statements_for_layout
from repro.core.advisor.partition_advisor import PartitionAdvisor, PartitioningDecision
from repro.core.advisor.recommendation import (
    Recommendation,
    ShardKeyRecommendation,
    StorageLayout,
    TableRecommendation,
    ViewRecommendation,
)
from repro.core.advisor.table_level import TableLevelAdvisor
from repro.core.cost_model.calibration import CalibrationReport, CostModelCalibrator
from repro.core.cost_model.estimator import (
    CostContribution,
    TableProfile,
    query_contributions,
)
from repro.core.cost_model.model import CostModel
from repro.engine.database import HybridDatabase
from repro.engine.matview import view_serve_bytes
from repro.engine.schema import TableSchema
from repro.engine.shard import shard_min_rows
from repro.engine.statistics import TableStatistics
from repro.engine.timing import CostBreakdown, DeviceModel
from repro.engine.types import Store
from repro.errors import AdvisorError
from repro.query.ast import AggregationQuery, SelectQuery, split_qualified
from repro.query.workload import Workload

#: Estimator terms a shard crew divides among itself (each worker touches
#: ``1/fan_out`` of the rows and bytes).  Everything else — per-query
#: overheads, index probes, join build/probe work, conversions — stays
#: serial in the parent.
_SHARDABLE_TERMS = frozenset({
    "row_scan_bytes", "column_scan_bytes", "pred_evals", "vector_compares",
    "decodes", "reconstructions", "agg_updates", "random_fetches",
})


class StorageAdvisor:
    """Recommends the storage layout of a hybrid-store database."""

    def __init__(
        self,
        config: Optional[AdvisorConfig] = None,
        cost_model: Optional[CostModel] = None,
        device_config: Optional[DeviceModelConfig] = None,
    ) -> None:
        self.config = config or AdvisorConfig()
        self.device_config = device_config
        self.cost_model = cost_model or CostModel(device_config=device_config)
        self._table_level = TableLevelAdvisor(self.cost_model, self.config)
        self._partition_advisor = PartitionAdvisor(self.config)
        self.last_calibration: Optional[CalibrationReport] = None

    # -- cost model initialisation (offline mode, step 1) --------------------------------

    def initialize_cost_model(
        self, calibrator: Optional[CostModelCalibrator] = None
    ) -> CalibrationReport:
        """Calibrate the cost model against the execution engine.

        This is the paper's "initialize cost model" step: representative tests
        are run so that base costs and adjustment functions reflect the
        current system.  The fitted parameters replace the analytic defaults.
        """
        calibrator = calibrator or CostModelCalibrator(self.device_config)
        report = calibrator.calibrate()
        # The memo carries over: its keys include a parameters fingerprint,
        # so entries priced under the old parameters can never be served.
        self.cost_model = CostModel(parameters=report.parameters,
                                    device_config=self.device_config,
                                    memo=self.cost_model.memo)
        self._table_level = TableLevelAdvisor(self.cost_model, self.config)
        self.last_calibration = report
        return report

    # -- offline recommendation -------------------------------------------------------------

    def recommend(
        self,
        database: HybridDatabase,
        workload: Workload,
        include_partitioning: bool = True,
    ) -> Recommendation:
        """Recommend a storage layout for *database* under *workload*."""
        database.refresh_statistics()
        profiles = self.cost_model.profiles_from_catalog(database.catalog)
        return self.recommend_from_profiles(workload, profiles, include_partitioning)

    def recommend_offline(
        self,
        schemas: Mapping[str, TableSchema],
        statistics: Mapping[str, TableStatistics],
        workload: Workload,
        include_partitioning: bool = True,
    ) -> Recommendation:
        """Offline-mode recommendation from schema + basic statistics only.

        This is the cheap input path of Figure 4: no running database is
        needed, only the schema, (expected) table statistics and a recorded or
        expected workload.
        """
        profiles = {
            name: TableProfile(schema=schemas[name], statistics=statistics[name])
            for name in schemas
        }
        return self.recommend_from_profiles(workload, profiles, include_partitioning)

    def recommend_from_profiles(
        self,
        workload: Workload,
        profiles: Mapping[str, TableProfile],
        include_partitioning: bool = True,
    ) -> Recommendation:
        """Core recommendation logic shared by the offline and online modes."""
        if len(workload) == 0:
            raise AdvisorError("cannot recommend a layout for an empty workload")
        relevant = [table for table in workload.tables() if table in profiles]
        if not relevant:
            raise AdvisorError("the workload does not reference any known table")

        table_result = self._table_level.recommend(workload, profiles)
        layout = StorageLayout(dict(table_result.assignment))

        decisions: Dict[str, PartitioningDecision] = {}
        if include_partitioning:
            decisions = self._partition_advisor.recommend(
                workload, profiles, table_result.assignment
            )
            for table, decision in decisions.items():
                if decision.partitioning is not None:
                    layout.choices[table] = decision.partitioning

        table_recommendations = []
        for table in sorted(table_result.assignment):
            costs = table_result.per_table_costs.get(table, {})
            reason = ""
            decision = decisions.get(table)
            if decision is not None and decision.partitioning is not None:
                reason = decision.reason
            table_recommendations.append(
                TableRecommendation(
                    table=table,
                    choice=layout.choices[table],
                    estimated_ms_row=costs.get(Store.ROW, 0.0),
                    estimated_ms_column=costs.get(Store.COLUMN, 0.0),
                    reason=reason,
                )
            )

        row_only = {table: Store.ROW for table in table_result.assignment}
        column_only = {table: Store.COLUMN for table in table_result.assignment}
        recommendation = Recommendation(
            layout=layout,
            table_recommendations=table_recommendations,
            estimated_total_ms=self.cost_model.estimate_workload_ms(
                workload, layout.store_assignment(), profiles
            ),
            estimated_row_only_ms=self.cost_model.estimate_workload_ms(
                workload, row_only, profiles
            ),
            estimated_column_only_ms=self.cost_model.estimate_workload_ms(
                workload, column_only, profiles
            ),
        )
        recommendation.ddl_statements = statements_for_layout(layout)
        return recommendation

    # -- shard-key recommendation -----------------------------------------------------------------

    def recommend_shard_keys(
        self,
        database: HybridDatabase,
        workload: Workload,
        fan_out: Optional[int] = None,
        assignment: Optional[Mapping[str, Store]] = None,
    ) -> Dict[str, ShardKeyRecommendation]:
        """Recommend a shard key (and fan-out) per shard-eligible table.

        *fan_out* defaults to 4.

        The what-if reuses the store decision's machinery: each candidate
        key reprices the workload's :func:`query_contributions` with the
        crew-divisible terms scaled by ``1/fan_out`` — ``group_rows``
        additionally shrinks only when the shard key aligns with a query's
        grouping (aligned shards keep their group state disjoint) — plus the
        device's dispatch overhead.  Results are memoized in the shared
        :class:`~repro.core.cost_model.memo.EstimateMemo` under keys composed
        from :meth:`CostModel.estimate_key`, so repeated advising is served
        from cache and every invalidation rule (parameters, statistics)
        carries over.  *assignment* fixes per-table stores (e.g. from a
        prior :meth:`recommend`); only column-store tables at or above the
        shard row floor are considered.
        """
        if len(workload) == 0:
            raise AdvisorError("cannot recommend shard keys for an empty workload")
        fan_out = fan_out or 4
        database.refresh_statistics()
        profiles = self.cost_model.profiles_from_catalog(database.catalog)
        stores = dict(assignment or {})
        device = DeviceModel(self.device_config)
        dispatch_ms = device.shard_dispatch(fan_out) / 1e6
        recommendations: Dict[str, ShardKeyRecommendation] = {}
        for table in workload.tables():
            profile = profiles.get(table)
            if profile is None:
                continue
            if stores.get(table, Store.COLUMN) is not Store.COLUMN:
                continue
            if profile.num_rows < shard_min_rows():
                continue
            queries = [
                query for query in workload.queries_for_table(table)
                if query.table == table and self._shardable_query(query)
            ]
            if not queries:
                continue
            candidates = self._shard_key_candidates(table, queries, profile)
            best_key, best_serial, best_sharded = None, 0.0, float("inf")
            for candidate in candidates:
                serial_ms = sharded_ms = 0.0
                for query in queries:
                    serial, sharded = self._shard_whatif(
                        query, table, candidate, fan_out,
                        stores, profiles, dispatch_ms,
                    )
                    serial_ms += serial
                    sharded_ms += sharded
                # Ties favour plain row ranges (candidates start with None).
                if sharded_ms < best_sharded:
                    best_key, best_serial, best_sharded = (
                        candidate, serial_ms, sharded_ms
                    )
            if best_sharded >= best_serial:
                continue  # dispatch overhead eats the gain: stay serial
            if best_key is None:
                reason = "row-range shards"
            else:
                reason = f"aligns with group-by on {best_key!r}"
            recommendations[table] = ShardKeyRecommendation(
                table=table, shard_key=best_key, fan_out=fan_out,
                estimated_serial_ms=best_serial,
                estimated_sharded_ms=best_sharded, reason=reason,
                whatif_plan=self._hypothetical_plan(database, queries[0]),
            )
        return recommendations

    def _hypothetical_plan(self, database: HybridDatabase, query):
        """A renderable :class:`~repro.api.plan.PhysicalPlan` of *query*.

        What-if output used to be cost scalars only; recommendations now
        carry the representative query's physical plan so their ``explain()``
        renders through the same renderer as ``EXPLAIN``.  Imported lazily:
        the api layer depends on the advisor, not the other way around.
        """
        from repro.api.plan import Planner

        return Planner(database, lambda: self.cost_model).plan(query)

    # -- materialized-view recommendation ---------------------------------------------------------

    def recommend_views(
        self,
        database: HybridDatabase,
        workload: Workload,
        min_occurrences: int = 2,
    ) -> "list[ViewRecommendation]":
        """Propose materialized views for *workload*'s recurring aggregations.

        Recurrence is counted by query fingerprint — the same key the online
        monitor records and the planner's rewrite matches on.  Each eligible
        shape (aggregation, no joins, no placeholders, not already
        materialized) is priced through the shared
        :class:`~repro.core.cost_model.memo.EstimateMemo` exactly like store
        moves: base cost = the cost model's estimate under the current
        layout, view cost = query overhead plus a sequential read of the
        estimated materialized rows (the same byte formula the session
        charges when serving).  Proposals with positive total benefit are
        returned best-first, each carrying renderable base/rewritten plans.
        """
        if len(workload) == 0:
            raise AdvisorError("cannot recommend views for an empty workload")
        database.refresh_statistics()
        profiles = self.cost_model.profiles_from_catalog(database.catalog)
        device = DeviceModel(self.device_config)
        from repro.query.fingerprint import fingerprint_tokens, query_fingerprint

        shapes: Dict[str, list] = {}
        for query in workload:
            if not isinstance(query, AggregationQuery) or query.joins:
                continue
            if query.table not in profiles:
                continue
            if "v:param:" in fingerprint_tokens(query):
                continue
            fingerprint = query_fingerprint(query)
            shape = shapes.get(fingerprint)
            if shape is None:
                shapes[fingerprint] = [query, 1]
            else:
                shape[1] += 1

        recommendations: list = []
        for fingerprint in sorted(shapes):
            query, occurrences = shapes[fingerprint]
            if occurrences < min_occurrences:
                continue
            if database.catalog.view_for_fingerprint(fingerprint) is not None:
                continue
            assignment: Dict[str, Store] = {}
            for name in query.tables:
                entry = database.catalog.entry(name)
                assignment[name] = (
                    entry.store if not entry.is_partitioned else Store.COLUMN
                )
            base_ms = self.cost_model.estimate_query_ms(query, assignment, profiles)
            rows = self._estimated_view_rows(query, profiles[query.table])
            base_key = self.cost_model.estimate_key(query, assignment, profiles)
            view_ms = None
            if base_key is not None:
                view_ms = self.cost_model.memo.get(("matview-whatif",) + base_key)
            if view_ms is None:
                view_ms = (
                    device.query_overhead()
                    + device.sequential_read(view_serve_bytes(rows, query))
                ) / 1e6
                if base_key is not None:
                    self.cost_model.memo.put(
                        ("matview-whatif",) + base_key, view_ms
                    )
            if base_ms <= view_ms:
                continue  # serving the view would not beat the base plan
            name = f"mv_{query.table}_{fingerprint[:8]}"
            base_plan, view_plan = self._view_whatif_plans(
                database, query, name, fingerprint, view_ms
            )
            recommendations.append(
                ViewRecommendation(
                    view=name,
                    table=query.table,
                    fingerprint=fingerprint,
                    query=query,
                    occurrences=occurrences,
                    estimated_base_ms=base_ms,
                    estimated_view_ms=view_ms,
                    estimated_rows=rows,
                    base_plan=base_plan,
                    view_plan=view_plan,
                )
            )
        recommendations.sort(
            key=lambda item: item.estimated_benefit_ms, reverse=True
        )
        return recommendations

    @staticmethod
    def _estimated_view_rows(query: AggregationQuery, profile: TableProfile) -> int:
        """Estimated materialized row count: the group-key cardinality product."""
        if not query.group_by:
            return 1
        distinct = 1
        for name in query.group_by:
            _, column = split_qualified(name)
            statistics = profile.statistics.columns.get(column)
            if statistics is not None and statistics.num_distinct > 0:
                distinct *= statistics.num_distinct
        return max(1, min(distinct, max(profile.num_rows, 1)))

    def _view_whatif_plans(self, database, query, name, fingerprint, view_ms):
        """Hypothetical (base, rewritten) plans for a proposed view.

        Imported lazily — the api layer depends on the advisor, not the
        other way around.  The rewritten plan is the base plan with the
        :class:`~repro.api.plan.ViewRewrite` recorded and the estimate
        replaced by the view-serve price, so rendering both shows exactly
        what ``EXPLAIN`` would print before and after ``create_view``.
        """
        import dataclasses

        from repro.api.plan import CostEstimate, Planner, ViewRewrite

        planner = Planner(database, lambda: self.cost_model)
        base_plan = planner.plan(query)
        view_plan = dataclasses.replace(
            base_plan,
            view_rewrite=ViewRewrite(view=name, fingerprint=fingerprint),
            estimate=CostEstimate(
                total_ms=view_ms,
                per_table_ms={query.table: view_ms},
                per_term_ms={"view_scan": view_ms},
                assignment=dict(base_plan.estimate.assignment),
            ),
        )
        return base_plan, view_plan

    @staticmethod
    def _shardable_query(query) -> bool:
        if isinstance(query, AggregationQuery):
            return not query.joins
        if isinstance(query, SelectQuery):
            return query.predicate is not None
        return False

    @staticmethod
    def _shard_key_candidates(table, queries, profile) -> list:
        """``None`` (row ranges) plus every grouped/filtered base column."""
        names = set()
        for query in queries:
            for name in getattr(query, "group_by", ()):
                owner, column = split_qualified(name)
                if owner in (None, table):
                    names.add(column)
            if query.predicate is not None:
                for name in query.predicate.columns():
                    owner, column = split_qualified(name)
                    if owner in (None, table):
                        names.add(column)
        return [None] + sorted(
            name for name in names if profile.schema.has_column(name)
        )

    def _shard_whatif(
        self, query, table, candidate, fan_out, stores, profiles, dispatch_ms,
    ) -> "tuple[float, float]":
        """``(serial_ms, sharded_ms)`` of *query* with *table* sharded on *candidate*."""
        in_group = candidate is not None and any(
            split_qualified(name)[1] == candidate
            and split_qualified(name)[0] in (None, table)
            for name in getattr(query, "group_by", ())
        )
        full_assignment = {
            name: stores.get(name, Store.COLUMN) for name in query.tables
        }
        base_key = self.cost_model.estimate_key(query, full_assignment, profiles)
        memo_key = None
        if base_key is not None:
            memo_key = ("shard-whatif", fan_out, candidate, in_group) + base_key
            cached = self.cost_model.memo.get(memo_key)
            if cached is not None:
                return cached
        serial_ms = sharded_ms = 0.0
        for contribution in query_contributions(query, full_assignment, profiles):
            priced = self.cost_model.price_contribution_ms(contribution)
            serial_ms += priced
            if contribution.table != table:
                sharded_ms += priced  # dimension work stays in the parent
                continue
            terms = {}
            for term, amount in contribution.terms.items():
                if term in _SHARDABLE_TERMS or (term == "group_rows" and in_group):
                    amount /= fan_out
                terms[term] = amount
            sharded_ms += self.cost_model.price_contribution_ms(
                CostContribution(contribution.table, contribution.store,
                                 contribution.query_type, terms)
            )
        sharded_ms += dispatch_ms
        value = (serial_ms, sharded_ms)
        if memo_key is not None:
            self.cost_model.memo.put(memo_key, value)
        return value

    # -- table-level only shortcut ----------------------------------------------------------------

    def recommend_table_level(
        self, database: HybridDatabase, workload: Workload
    ) -> Recommendation:
        """Recommendation restricted to whole-table store decisions."""
        return self.recommend(database, workload, include_partitioning=False)

    # -- applying recommendations ------------------------------------------------------------------

    def apply(
        self, database: HybridDatabase, recommendation: Recommendation
    ) -> Dict[str, CostBreakdown]:
        """Apply *recommendation* to *database* (the "automatic" option)."""
        return apply_recommendation(database, recommendation)
