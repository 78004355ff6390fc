"""Logical and physical plans, the planner and the session plan cache.

The session pipeline makes the formerly implicit planning work explicit:

* a :class:`LogicalPlan` is the bound query plus its content fingerprint,
* a :class:`PhysicalPlan` additionally captures the *resolved access path*
  of every referenced table (store, partitioning, index choice, vertical-
  partition pruning), the estimated :class:`CostEstimate` from the cost
  model, and the layout/statistics fingerprint the plan was built under,
* the :class:`Planner` turns queries into physical plans, and
* the :class:`PlanCache` memoizes plans per ``(query fingerprint,
  layout/statistics fingerprint)`` — DDL, store moves, repartitioning and
  statistics refresh bump the participating tables' versions (see
  :meth:`repro.engine.database.HybridDatabase.table_version`), so stale
  plans become unreachable without any explicit invalidation hook.

Executing a plan charges *bit-identical* costs to the legacy
``HybridDatabase.execute`` path: the plan only pre-resolves the access
paths; every cost is still charged by the stores and operators during
execution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.cost_model.estimator import TableProfile
from repro.core.cost_model.model import CostModel
from repro.engine.database import HybridDatabase
from repro.engine.executor.agg_pushdown import AggregateStrategy
from repro.engine.executor.executor import QueryResult
from repro.engine.partitioning import PartitionedTable
from repro.engine.types import Store
from repro.engine.zonemap import ScanDecision
from repro.query.ast import Query, QueryType
from repro.query.fingerprint import query_fingerprint
from repro.query.predicates import Between, CompareOp, Comparison, Predicate


@dataclass(frozen=True)
class LogicalPlan:
    """The bound query plus its content fingerprint."""

    query: Query
    fingerprint: str

    @property
    def query_type(self) -> QueryType:
        return self.query.query_type

    @property
    def tables(self) -> Tuple[str, ...]:
        return self.query.tables


@dataclass
class TableAccessPlan:
    """Resolved physical access of one table."""

    table: str
    store: Optional[Store]          # None for partitioned tables
    partitioned: bool
    num_rows: int
    access: str                     # e.g. "full scan", "hash-index lookup(id)"
    layout: str                     # human-readable layout description
    pruning: Optional[str] = None   # vertical-partition pruning note
    #: Zone-map pruning decision of this table's scan (base table of a
    #: filtered read only); the executor consumes the same object.
    scan_decision: Optional[ScanDecision] = None
    #: Aggregate-pushdown strategy (base table of an aggregation only); the
    #: executor consumes the same object, so EXPLAIN and execution coincide.
    aggregate_strategy: Optional[AggregateStrategy] = None

    def describe(self) -> str:
        text = f"{self.table}: {self.layout}, {self.num_rows} rows, {self.access}"
        if self.pruning:
            text += f" [{self.pruning}]"
        decision = self.scan_decision
        if decision is not None and decision.skipped:
            text += f" [zone pruning: {decision.describe()}]"
        return text


@dataclass(frozen=True)
class ViewRewrite:
    """A planner rewrite: answer the query from a materialized view.

    Recorded in the :class:`PhysicalPlan` whenever the catalog holds a view
    whose defining-query fingerprint equals the plan's — regardless of the
    ``matview_disabled()`` toggle, which gates *serving*, not detection, so
    EXPLAIN can always show what the planner would do.  A stale view is
    refreshed before serving (never serve stale rows); the session falls back
    to base-table execution when views are disabled or the view disappeared.
    """

    view: str
    fingerprint: str

    def describe(self) -> str:
        return f"materialized view {self.view} [view {self.fingerprint}]"


@dataclass
class CostEstimate:
    """The cost model's estimate for one physical plan.

    ``per_term_ms`` is the estimated cost broken down by cost-model term
    (the estimator's vocabulary: scanned bytes, decodes, hash probes, ...),
    summed over the participating tables — the estimated counterpart of the
    executor's :class:`~repro.engine.timing.CostBreakdown`.
    """

    total_ms: float
    per_table_ms: Dict[str, float] = field(default_factory=dict)
    per_term_ms: Dict[str, float] = field(default_factory=dict)
    assignment: Dict[str, Store] = field(default_factory=dict)


@dataclass
class PhysicalPlan:
    """An executable physical plan.

    Holds the resolved access paths (ready to execute), the per-table access
    descriptions, the cost estimate, and the fingerprints that key the plan
    cache.  ``executions`` counts how often this plan object ran.
    """

    logical: LogicalPlan
    paths: Dict[str, Any]
    table_plans: List[TableAccessPlan]
    estimate: CostEstimate
    layout_fingerprint: tuple
    statistics_fingerprints: Dict[str, str]
    executions: int = 0
    last_actual: Optional[QueryResult] = None
    #: Materialized-view rewrite (aggregations only); the session serves the
    #: query from the named view when views are enabled.
    view_rewrite: Optional[ViewRewrite] = None

    @property
    def query(self) -> Query:
        return self.logical.query

    @property
    def fingerprint(self) -> str:
        return self.logical.fingerprint

    @property
    def estimated_ms(self) -> float:
        return self.estimate.total_ms

    @property
    def scan_decisions(self) -> Dict[str, ScanDecision]:
        """Per-table zone-pruning decisions recorded at plan time."""
        return {
            table_plan.table: table_plan.scan_decision
            for table_plan in self.table_plans
            if table_plan.scan_decision is not None
        }

    def record_execution(self, result: QueryResult) -> None:
        self.executions += 1
        self.last_actual = result


class Planner:
    """Builds physical plans against a database's current layout."""

    def __init__(
        self,
        database: HybridDatabase,
        cost_model_provider: Callable[[], CostModel],
    ) -> None:
        self.database = database
        self._cost_model_provider = cost_model_provider

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model_provider()

    def logical(self, query: Query) -> LogicalPlan:
        return LogicalPlan(query=query, fingerprint=query_fingerprint(query))

    def plan(self, query: Query) -> PhysicalPlan:
        """Build a physical plan for *query* under the current layout."""
        logical = self.logical(query)
        database = self.database
        paths = database.resolve_access_paths(query)
        table_plans = [
            self._table_access_plan(name, query, paths) for name in query.tables
        ]
        estimate = self._estimate(query)
        return PhysicalPlan(
            logical=logical,
            paths=paths,
            table_plans=table_plans,
            estimate=estimate,
            layout_fingerprint=database.layout_fingerprint(query.tables),
            statistics_fingerprints={
                name: database.catalog.statistics_of(name).fingerprint
                for name in query.tables
            },
            view_rewrite=self._view_rewrite(query),
        )

    def _view_rewrite(self, query: Query) -> Optional[ViewRewrite]:
        """A rewrite to a materialized view matching *query*, if one exists.

        Matching is by defining-query fingerprint (the recurrence key the
        online monitor counts too).  The plan cache keys plans by the view
        catalog's version, so CREATE/DROP/refresh of any view makes plans
        that recorded (or skipped) a rewrite unreachable.
        """
        view = self.database.matching_view(query)
        if view is None:
            return None
        return ViewRewrite(view=view.name, fingerprint=view.fingerprint)

    # -- access-path description ---------------------------------------------------

    def _table_access_plan(
        self, name: str, query: Query, paths: Dict[str, Any]
    ) -> TableAccessPlan:
        database = self.database
        entry = database.catalog.entry(name)
        table = database.table_object(name)
        predicate = getattr(query, "predicate", None) if name == query.table else None
        # The access path derived (and recorded) its zone-pruning decision
        # and aggregate-pushdown strategy while the paths were resolved; the
        # plan carries the same objects the executor will consume, so
        # EXPLAIN and execution provably coincide.
        decision = getattr(paths.get(name), "scan_decision", None)
        strategy = (
            getattr(paths.get(name), "aggregate_strategy", None)
            if name == query.table else None
        )
        if isinstance(table, PartitionedTable):
            return TableAccessPlan(
                table=name,
                store=None,
                partitioned=True,
                num_rows=table.num_rows,
                access=self._partitioned_access(table, query, predicate),
                layout=f"partitioned ({table.partitioning.describe()})",
                pruning=self._pruning_note(table, query),
                scan_decision=decision,
                aggregate_strategy=strategy,
            )
        return TableAccessPlan(
            table=name,
            store=entry.store,
            partitioned=False,
            num_rows=table.num_rows,
            access=self._stored_access(table, predicate),
            layout=entry.describe_layout(),
            scan_decision=decision,
            aggregate_strategy=strategy,
        )

    @staticmethod
    def _stored_access(table, predicate: Optional[Predicate]) -> str:
        if predicate is None:
            return "full scan"
        if table.store is Store.COLUMN:
            if isinstance(predicate, (Comparison, Between)):
                return f"dictionary-coded scan({next(iter(predicate.columns()))})"
            return "column scan + predicate"
        # Row store: mirror the executor's index selection statically.
        if isinstance(predicate, Comparison) and table.has_index(predicate.column):
            if predicate.op is CompareOp.EQ:
                return f"index lookup({predicate.column})"
            if predicate.op in (CompareOp.LT, CompareOp.LE, CompareOp.GT,
                                CompareOp.GE):
                return f"index range scan({predicate.column})"
        if isinstance(predicate, Between) and table.has_index(predicate.column):
            return f"index range scan({predicate.column})"
        return "full scan + predicate"

    @staticmethod
    def _partitioned_access(table: PartitionedTable, query: Query,
                            predicate: Optional[Predicate]) -> str:
        segments = len(table.main_parts) + (1 if table.hot is not None else 0)
        return f"partition union over {segments} segment(s)"

    @staticmethod
    def _pruning_note(table: PartitionedTable, query: Query) -> Optional[str]:
        if not table.has_vertical_split:
            return None
        needed = sorted(query.columns_of(table.name))
        if not needed:
            return None
        parts = table.main_parts_for_columns(needed)
        return (
            f"vertical pruning: {len(parts)} of {len(table.main_parts)} "
            "main part(s) touched"
        )

    # -- estimation ----------------------------------------------------------------

    def _estimate(self, query: Query) -> CostEstimate:
        from repro.core.cost_model.estimator import query_contributions

        database = self.database
        model = self.cost_model
        assignment: Dict[str, Store] = {}
        profiles: Dict[str, TableProfile] = {}
        for name in query.tables:
            entry = database.catalog.entry(name)
            # Partitioned tables have no single store; the cost model prices
            # them as column store (their historic portion's usual layout).
            assignment[name] = entry.store if not entry.is_partitioned else Store.COLUMN
            profiles[name] = TableProfile(
                schema=entry.schema, statistics=database.catalog.statistics_of(name)
            )
        total_ms = model.estimate_query_ms(query, assignment, profiles)
        per_table: Dict[str, float] = {}
        per_term: Dict[str, float] = {}
        for contribution in query_contributions(query, assignment, profiles):
            table_ms = model.price_contribution_ms(contribution)
            per_table[contribution.table] = per_table.get(contribution.table, 0.0) + table_ms
            weights = model.parameters.weights_for(
                contribution.store, contribution.query_type
            )
            for term, amount in contribution.terms.items():
                term_ms = weights.weights.get(term, 0.0) * amount / 1_000_000.0
                if term_ms:
                    per_term[term] = per_term.get(term, 0.0) + term_ms
        return CostEstimate(
            total_ms=total_ms,
            per_table_ms=per_table,
            per_term_ms=per_term,
            assignment=assignment,
        )


class PlanCache:
    """LRU cache of physical plans keyed by (query, layout/statistics) fingerprints."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._plans: "OrderedDict[tuple, PhysicalPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: tuple) -> Optional[PhysicalPlan]:
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: tuple, plan: PhysicalPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._plans.clear()
