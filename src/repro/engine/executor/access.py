"""Access paths: the store-aware data-access layer of the executor.

An *access path* hides from the operators whether a table lives in the row
store, the column store, or is split across partitions.  The store-specific
behaviour that the paper's cost model captures lives here:

* the row store answers multi-column reads with a single full-width tuple
  scan,
* the column store answers them with one compressed scan per column and pays
  tuple reconstruction when materialising rows,
* partitioned tables additionally pay union/join assembly costs (see
  :mod:`repro.engine.executor.rewrite`).

Access paths are also where the plan's pruning decisions execute.
:meth:`AccessPath.plan_scan` derives a :class:`~repro.engine.zonemap
.ScanDecision` for a read predicate from the current zone maps and records
it on the path; the planner embeds the same object in the physical plan.  At
execution the path *consumes* the recorded decision instead of re-deriving
it — unless the decision's zone-epoch token went stale (DML since planning)
or a different bound predicate arrives (parameterized plans), in which case
it is re-derived so pruning can never skip rows it must not.  Every prunable
unit consulted is counted on the accountant (scanned vs. skipped), which is
what ``EXPLAIN ANALYZE`` reports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.engine.batch import ColumnBatch
from repro.engine.executor.agg_pushdown import (
    AggregateStrategy,
    AggregateUnit,
    derive_aggregate_strategy,
)
from repro.engine.table import StoredTable
from repro.engine.timing import CostAccountant
from repro.engine.types import Store
from repro.engine.zonemap import (
    PartitionScan,
    ScanDecision,
    zone_can_match,
    zone_pruning_enabled,
)
from repro.query.ast import AggregationQuery
from repro.query.predicates import Predicate


def empty_batch(columns: Sequence[str]) -> ColumnBatch:
    """A zero-row batch that still carries the requested column set."""
    return ColumnBatch(
        {name: np.empty(0, dtype=object) for name in columns}, num_rows=0
    )


def validate_assignments(schema, assignments: Mapping[str, Any]) -> None:
    """Coerce UPDATE assignment values against *schema* (raising as the
    backends' ``update_rows`` would).

    A zone-pruned UPDATE skips ``update_rows`` entirely, but the seed path
    validates the SET values even when zero rows match — an invalid value
    must keep raising ``SchemaError`` whether or not the scan was pruned.
    """
    for name, value in assignments.items():
        schema.column(name).dtype.coerce(value)


def part_zones(part: StoredTable, predicate: Predicate) -> Dict[str, Any]:
    """The zone synopses of *part* for the columns *predicate* references."""
    zones: Dict[str, Any] = {}
    for name in predicate.columns():
        if part.schema.has_column(name):
            zone = part.column_zone(name)
            if zone is not None:
                zones[name] = zone
    return zones


class AccessPath:
    """Interface used by the operators to read and modify one table."""

    #: Human-readable description used in traces and tests.
    description: str = "access path"

    #: The most recent :class:`ScanDecision` (set by :meth:`plan_scan` or a
    #: re-derivation at execution time); ``None`` until a predicate is seen.
    scan_decision: Optional[ScanDecision] = None

    #: The most recent :class:`AggregateStrategy` (set by
    #: :meth:`plan_aggregate` or re-derived at execution time).
    aggregate_strategy: Optional[AggregateStrategy] = None

    #: Whether this path can serve per-partition batches for the
    #: partition-partial aggregation tier.
    supports_partition_partial: bool = False

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    @property
    def primary_store(self) -> Store:
        """The store whose layout dominates this table's data (for joins)."""
        raise NotImplementedError

    # -- scan planning -----------------------------------------------------------

    def plan_scan(self, predicate: Optional[Predicate]) -> ScanDecision:
        """Derive (and record) the pruning decision for *predicate*.

        Called once by the planner/executor when resolving paths; execution
        re-uses the recorded decision as long as its zone-epoch token and
        predicate still match.
        """
        decision = self._derive_decision(predicate)
        self.scan_decision = decision
        return decision

    def decision_for(self, predicate: Optional[Predicate]) -> ScanDecision:
        """The valid decision for *predicate* — recorded if fresh, else re-derived."""
        decision = self.scan_decision
        if decision is not None and decision.matches(predicate, self._zone_token()):
            return decision
        return self.plan_scan(predicate)

    def _zone_token(self) -> tuple:
        raise NotImplementedError

    def _derive_decision(self, predicate: Optional[Predicate]) -> ScanDecision:
        raise NotImplementedError

    # -- aggregate pushdown planning ----------------------------------------------

    def plan_aggregate(self, query: AggregationQuery) -> AggregateStrategy:
        """Derive (and record) the aggregate-pushdown strategy for *query*.

        Called by the planner/executor when resolving paths; execution
        re-uses the recorded strategy as long as its zone-epoch token, the
        query and the pushdown toggle still match.
        """
        strategy = derive_aggregate_strategy(self, query)
        self.aggregate_strategy = strategy
        return strategy

    def aggregate_decision_for(self, query: AggregationQuery) -> AggregateStrategy:
        """The valid strategy for *query* — recorded if fresh, else re-derived."""
        strategy = self.aggregate_strategy
        if strategy is not None and strategy.matches(query, self._zone_token()):
            return strategy
        return self.plan_aggregate(query)

    def aggregate_units(self) -> List[AggregateUnit]:
        """The prunable units the aggregate derivation reasons over."""
        raise NotImplementedError

    # Never called: sessionbench/tracing.py still traces this name; it goes
    # with the next benchmark change.
    def plan_shards(self, query) -> None:
        return None

    # -- reads -------------------------------------------------------------------

    def collect_batch(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        encode_columns: Sequence[str] = (),
    ) -> ColumnBatch:
        """Return a columnar batch of *columns*, filtered by *predicate*.

        This is the operators' read entry point: data stays in aligned numpy
        arrays from the storage backend to the aggregation/join operators.
        *encode_columns* lists columns the consumer prefers dictionary-
        encoded (group-by keys): stores that can serve an interned
        ``(codes, dictionary)`` pair for them do so; plain value arrays
        remain a correct fallback.  Cost charges never depend on it.
        """
        raise NotImplementedError

    def collect_columns(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
    ) -> Dict[str, List[Any]]:
        """Return aligned value lists for *columns*, filtered by *predicate*.

        Scalar convenience wrapper around :meth:`collect_batch` (identical
        cost charges); kept for callers that want plain Python lists.
        """
        batch = self.collect_batch(columns, predicate, accountant)
        return {name: batch.column_list(name) for name in columns}

    def select_rows(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        limit: Optional[int],
        accountant: CostAccountant,
    ) -> List[Dict[str, Any]]:
        """Return matching rows as dicts (projected to *columns* if given)."""
        raise NotImplementedError

    def insert(self, rows: Sequence[Mapping[str, Any]], accountant: CostAccountant) -> int:
        raise NotImplementedError

    def update(
        self,
        assignments: Mapping[str, Any],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
    ) -> int:
        raise NotImplementedError

    def delete(self, predicate: Optional[Predicate], accountant: CostAccountant) -> int:
        raise NotImplementedError


class SimpleAccessPath(AccessPath):
    """Access path over an unpartitioned :class:`StoredTable`.

    ``inner=True`` marks paths a :class:`~repro.engine.executor.rewrite
    .PartitionedAccessPath` builds around its own parts: the outer path owns
    pruning and partition counting for them, so inner paths do neither.
    """

    def __init__(self, table: StoredTable, inner: bool = False) -> None:
        self.table = table
        self._inner = inner
        self.scan_decision = None
        self.description = f"{table.name} ({table.store.value} store)"

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def primary_store(self) -> Store:
        return self.table.store

    # -- scan planning ------------------------------------------------------------

    def _zone_token(self) -> tuple:
        return (self.table.zone_epoch,)

    def _derive_decision(self, predicate: Optional[Predicate]) -> ScanDecision:
        scan = True
        reason = ""
        if predicate is not None and zone_pruning_enabled():
            zones = part_zones(self.table, predicate)
            if not zone_can_match(predicate, zones, self.table.num_rows):
                scan = False
                reason = "zone disjoint"
        return ScanDecision(
            table=self.table.name,
            predicate=predicate,
            token=self._zone_token(),
            partitions=(PartitionScan(self.table.name, scan, reason),),
            pruning=zone_pruning_enabled(),
        )

    def aggregate_units(self) -> List[AggregateUnit]:
        table = self.table

        def zone_of(column: str):
            if not table.schema.has_column(column):
                return None
            return table.column_zone(column)

        return [AggregateUnit(table.name, table.num_rows, zone_of)]

    def _scan_allowed(
        self, predicate: Optional[Predicate], accountant: CostAccountant
    ) -> bool:
        """Consume the scan decision; count the table's single partition."""
        if self._inner:
            return True
        if predicate is None:
            accountant.count_partition(self.table.name, scanned=True)
            return True
        scan = self.decision_for(predicate).partitions[0].scan
        accountant.count_partition(self.table.name, scanned=scan)
        return scan

    def _dml_scan_pruned(
        self, predicate: Optional[Predicate], accountant: CostAccountant
    ) -> bool:
        """Whether a DML predicate scan is provably empty and may be skipped.

        Inner paths never prune (the partitioned path owns the decision).
        The skipped scan's charges are replayed so the write-path
        :class:`~repro.engine.timing.CostBreakdown` stays bit-identical to
        the seed accounting — pruning DML is a wall-clock optimisation only.
        """
        if predicate is None or self._inner or not zone_pruning_enabled():
            return False
        if self.decision_for(predicate).partitions[0].scan:
            return False
        self.table.charge_filter_scan(predicate, accountant)
        return True

    # -- reads -------------------------------------------------------------------

    def collect_batch(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        encode_columns: Sequence[str] = (),
    ) -> ColumnBatch:
        if not self._scan_allowed(predicate, accountant):
            return empty_batch(columns)
        positions = self.table.filter_positions(predicate, accountant)
        if self.table.store is Store.ROW:
            # One full-width pass delivers every requested column; group-by
            # keys come interned from the factorization cache when possible.
            return self.table.scan_batch(columns, positions, accountant,
                                         encode=encode_columns)
        # Column store: one compressed scan (or reconstruction) per column.
        # The batch carries the (codes, dictionary) pairs undecoded — values
        # materialise only where the query result actually needs them.
        num_rows = self.table.num_rows if positions is None else len(positions)
        return ColumnBatch(
            {
                name: self.table.column_batched(name, positions, accountant)
                for name in columns
            },
            num_rows=num_rows,
        )

    def select_rows(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        limit: Optional[int],
        accountant: CostAccountant,
    ) -> List[Dict[str, Any]]:
        if not self._scan_allowed(predicate, accountant):
            return []
        positions = self.table.filter_positions(predicate, accountant)
        if positions is not None and limit is not None:
            positions = positions[:limit]
        rows = self.table.fetch_rows(positions, columns or None, accountant)
        if positions is None and limit is not None:
            rows = rows[:limit]
        return rows

    # -- writes -------------------------------------------------------------------

    def insert(self, rows: Sequence[Mapping[str, Any]], accountant: CostAccountant) -> int:
        self.table.insert_rows(rows, accountant)
        return len(rows)

    def update(
        self,
        assignments: Mapping[str, Any],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
    ) -> int:
        if self._dml_scan_pruned(predicate, accountant):
            validate_assignments(self.table.schema, assignments)
            return 0
        positions = self.table.filter_positions(predicate, accountant)
        if positions is None:
            positions = np.arange(self.table.num_rows, dtype=np.int64)
        return self.table.update_rows(positions, assignments, accountant)

    def delete(self, predicate: Optional[Predicate], accountant: CostAccountant) -> int:
        if self._dml_scan_pruned(predicate, accountant):
            return 0
        positions = self.table.filter_positions(predicate, accountant)
        if positions is None:
            positions = np.arange(self.table.num_rows, dtype=np.int64)
        return self.table.delete_rows(positions, accountant)
