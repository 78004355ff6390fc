"""Query executor: dispatches queries and assembles results with their costs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.executor.operators import (
    execute_aggregation,
    execute_delete,
    execute_insert,
    execute_select,
    execute_update,
)
from repro.engine.executor.rewrite import access_path_for
from repro.engine.deadline import deadline_check
from repro.engine.integrity import integrity_counters
from repro.engine.timing import CostAccountant, CostBreakdown, DeviceModel
from repro.errors import QueryError
from repro.query.ast import (
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    Query,
    SelectQuery,
    UpdateQuery,
)


@dataclass
class QueryResult:
    """Result of executing one query."""

    rows: List[Dict[str, Any]] = field(default_factory=list)
    affected_rows: int = 0
    cost: CostBreakdown = field(default_factory=CostBreakdown)
    #: Per-table ``(partitions scanned, partitions skipped)`` — the access
    #: paths' zone-pruning telemetry, reported by ``EXPLAIN ANALYZE``.
    scan_stats: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Per-table aggregate-pushdown strategy execution consumed — pinned by
    #: ``EXPLAIN ANALYZE`` against the plan's recorded strategy.
    agg_strategies: Dict[str, str] = field(default_factory=dict)
    #: Per-table ``(main rows, delta rows)`` scanned — the delta/main split's
    #: telemetry, reported by ``EXPLAIN ANALYZE`` when a scan read a delta.
    delta_scans: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Always empty: sessionbench/workloads.py still reads it; goes with the
    #: next benchmark change.
    shard_stats: Dict[str, Any] = field(default_factory=dict)
    #: Materialized-view serves: view name -> how it was served ("served", or
    #: "served after <kind> refresh" when the view was stale).  Empty when the
    #: query ran against base tables; reported by ``EXPLAIN ANALYZE``.
    view_hits: Dict[str, str] = field(default_factory=dict)
    #: Integrity-counter movements this query caused (checksum
    #: verifications, detections, quarantines) — empty for the common
    #: all-clean, already-verified case; reported by ``EXPLAIN ANALYZE``.
    #: Verification charges no simulated cost, so this is telemetry only.
    integrity: Dict[str, int] = field(default_factory=dict)

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime of the query in milliseconds."""
        return self.cost.total_ms

    def __len__(self) -> int:
        return len(self.rows)


class QueryExecutor:
    """Executes queries against the table objects of a database.

    The executor asks *table_provider* (the :class:`HybridDatabase`) for the
    physical table object of each referenced table and wraps it in the
    appropriate access path, so partitioned tables are handled transparently.
    """

    def __init__(self, table_provider, device: Optional[DeviceModel] = None) -> None:
        self._tables = table_provider
        self.device = device or DeviceModel()

    def resolve_paths(self, query: Query) -> Dict[str, "AccessPath"]:
        """Resolve the access path of every table the query references.

        This is the physical half of planning: the returned paths capture the
        store and partitioning each table is currently read through, and —
        for a filtered read — the zone-map pruning decision of the base
        table's scan (:meth:`AccessPath.plan_scan`), so that EXPLAIN and
        execution consume one and the same decision.  The session planner
        calls it once per (query, layout) and caches the result inside a
        :class:`~repro.api.plan.PhysicalPlan`; the legacy :meth:`execute`
        entry point re-resolves per query.
        """
        paths = {
            name: access_path_for(self._tables.table_object(name))
            for name in query.tables
        }
        if isinstance(query, (SelectQuery, AggregationQuery,
                              UpdateQuery, DeleteQuery)):
            # DML predicate scans reuse the read path's decision machinery:
            # a provably-empty UPDATE/DELETE scan is skipped (with its
            # charges replayed, so write-path accounting stays identical).
            predicate = query.predicate
            if predicate is not None:
                paths[query.table].plan_scan(predicate)
        if isinstance(query, AggregationQuery):
            paths[query.table].plan_aggregate(query)
        return paths

    def execute(self, query: Query) -> QueryResult:
        return self.execute_with_paths(query, self.resolve_paths(query))

    def execute_with_paths(
        self, query: Query, paths: Dict[str, "AccessPath"]
    ) -> QueryResult:
        """Execute *query* over already-resolved access *paths*.

        The cost charges are exactly those of :meth:`execute` — re-using a
        plan's paths never changes what a query costs.
        """
        deadline_check()
        accountant = CostAccountant(self.device)
        accountant.charge_query_overhead()
        # Integrity counters are process-wide; the per-query movement (for
        # EXPLAIN ANALYZE) is the delta around this execution.
        integrity_base = integrity_counters().snapshot()

        if isinstance(query, AggregationQuery):
            rows = execute_aggregation(query, paths, accountant)
            return QueryResult(rows=rows, affected_rows=0, cost=accountant.breakdown,
                               scan_stats=accountant.scan_stats,
                               agg_strategies=accountant.aggregate_strategies,
                               delta_scans=accountant.delta_scans,
                               integrity=integrity_counters().delta(integrity_base))
        path = paths[query.table]
        if isinstance(query, SelectQuery):
            rows = execute_select(query, path, accountant)
            return QueryResult(rows=rows, affected_rows=0, cost=accountant.breakdown,
                               scan_stats=accountant.scan_stats,
                               delta_scans=accountant.delta_scans,
                               integrity=integrity_counters().delta(integrity_base))
        if isinstance(query, InsertQuery):
            affected = execute_insert(query, path, accountant)
        elif isinstance(query, UpdateQuery):
            affected = execute_update(query, path, accountant)
        elif isinstance(query, DeleteQuery):
            affected = execute_delete(query, path, accountant)
        else:  # pragma: no cover - defensive
            raise QueryError(f"unsupported query type: {type(query).__name__}")
        return QueryResult(rows=[], affected_rows=affected, cost=accountant.breakdown,
                           scan_stats=accountant.scan_stats,
                           delta_scans=accountant.delta_scans,
                           integrity=integrity_counters().delta(integrity_base))
