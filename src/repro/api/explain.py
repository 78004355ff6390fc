"""EXPLAIN: rendering physical plans as deterministic text.

:func:`render_plan` produces a stable, human-readable tree for a
:class:`~repro.api.plan.PhysicalPlan` — the resolved access path per table,
the predicate, and the cost model's estimate broken down by cost term.  With
an actual :class:`~repro.engine.executor.executor.QueryResult` (``EXPLAIN
ANALYZE``), the measured :class:`~repro.engine.timing.CostBreakdown` is
rendered next to the estimate, which makes estimation drift directly
visible.  The output contains no volatile values (object ids, wall-clock),
so it can be pinned by golden tests.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.api.plan import PhysicalPlan
from repro.engine.executor.executor import QueryResult
from repro.query.ast import (
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    Parameter,
    Query,
    SelectQuery,
    UpdateQuery,
)
from repro.query.predicates import (
    And,
    Between,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
)


def render_plan(plan: PhysicalPlan, actual: Optional[QueryResult] = None) -> str:
    """Render *plan* as an EXPLAIN tree (estimated, plus actual if given)."""
    lines: List[str] = []
    query = plan.query
    lines.append(f"{_query_label(query)} [query {plan.fingerprint}]")
    lines.append(f"  estimated: {plan.estimate.total_ms:.3f} ms")
    if actual is not None:
        lines.append(f"  actual:    {actual.cost.total_ms:.3f} ms")
    for line in _operator_tree(plan):
        lines.append("  " + line)
    if actual is not None and actual.scan_stats:
        # Zone-map pruning telemetry: how many prunable partitions each
        # table's access path actually scanned vs. skipped.  The plan's
        # predicted counts live in the Scan lines' decisions; a pinned test
        # holds the two equal.
        lines.append("  partitions (scanned/skipped):")
        for table in sorted(actual.scan_stats):
            scanned, skipped = actual.scan_stats[table]
            lines.append(f"    {table:<22}{scanned:>4} / {skipped}")
    if actual is not None and actual.delta_scans:
        # Delta/main telemetry: rows each scan read from the write-optimised
        # delta vs the dictionary-encoded main.  Only rendered when a scan
        # actually touched a delta, so merge pressure is visible without
        # changing the EXPLAIN output of merged (or load-only) tables.
        lines.append("  delta scan (main/delta rows):")
        for table in sorted(actual.delta_scans):
            main_rows, delta_rows = actual.delta_scans[table]
            lines.append(f"    {table:<22}{main_rows:>4} / {delta_rows}")
    if actual is not None and actual.view_hits:
        # Materialized-view telemetry: the query was answered from the named
        # view — after a refresh when the view had gone stale (the refresh
        # cost is part of the actual cost above; stale rows never serve).
        lines.append("  materialized view:")
        for view in sorted(actual.view_hits):
            lines.append(f"    {view:<22}{actual.view_hits[view]}")
    if actual is not None and actual.agg_strategies:
        # Aggregate-pushdown telemetry: the strategy execution consumed —
        # pinned equal to the plan's recorded strategy in the Aggregate line.
        lines.append("  aggregate pushdown:")
        for table in sorted(actual.agg_strategies):
            lines.append(f"    {table:<22}{actual.agg_strategies[table]}")
    if actual is not None and actual.integrity:
        # Integrity telemetry: checksum verifications (and any detections or
        # quarantines) this execution performed.  Verification is billed
        # zero simulated cost, so the block never shifts the numbers above;
        # it exists so corruption handling never happens silently.
        lines.append("  integrity:")
        for event in sorted(actual.integrity):
            lines.append(f"    {event:<22}{actual.integrity[event]}")
    if plan.estimate.per_term_ms:
        lines.append("  estimated cost terms (ms):")
        for term in sorted(plan.estimate.per_term_ms):
            lines.append(f"    {term:<22}{plan.estimate.per_term_ms[term]:>10.4f}")
    if actual is not None and actual.cost.components:
        lines.append("  actual cost components (ms):")
        for component, _ in actual.cost.items():
            lines.append(
                f"    {component:<22}{actual.cost.component_ms(component):>10.4f}"
            )
    return "\n".join(lines)


def describe_predicate(predicate: Optional[Predicate]) -> str:
    """SQL-ish rendering of a predicate tree."""
    if predicate is None or isinstance(predicate, TruePredicate):
        return "TRUE"
    if isinstance(predicate, Comparison):
        return f"{predicate.column} {predicate.op.value} {_literal(predicate.value)}"
    if isinstance(predicate, Between):
        low = _literal(predicate.low) if predicate.low is not None else "-inf"
        high = _literal(predicate.high) if predicate.high is not None else "+inf"
        return f"{predicate.column} BETWEEN {low} AND {high}"
    if isinstance(predicate, InList):
        values = ", ".join(_literal(value) for value in predicate.values)
        return f"{predicate.column} IN ({values})"
    if isinstance(predicate, IsNull):
        return f"{predicate.column} IS NULL"
    if isinstance(predicate, And):
        return " AND ".join(_child(child) for child in predicate.predicates)
    if isinstance(predicate, Or):
        return " OR ".join(_child(child) for child in predicate.predicates)
    if isinstance(predicate, Not):
        return f"NOT {_child(predicate.predicate)}"
    return repr(predicate)  # pragma: no cover - future predicates


def _child(predicate: Predicate) -> str:
    text = describe_predicate(predicate)
    if isinstance(predicate, (And, Or)):
        return f"({text})"
    return text


def _literal(value: Any) -> str:
    if isinstance(value, Parameter):
        return value.label
    if isinstance(value, str):
        return f"'{value}'"
    if value is None:
        return "NULL"
    return repr(value)


def _query_label(query: Query) -> str:
    return type(query).__name__


def _operator_tree(plan: PhysicalPlan) -> List[str]:
    query = plan.query
    access = {table_plan.table: table_plan for table_plan in plan.table_plans}
    lines: List[str] = []

    def scan_lines(table: str, depth: int, predicate: Optional[Predicate]) -> None:
        table_plan = access[table]
        pad = "   " * depth
        lines.append(f"{pad}-> Scan {table_plan.describe()}")
        if predicate is not None:
            lines.append(f"{pad}   predicate: {describe_predicate(predicate)}")

    if isinstance(query, AggregationQuery):
        specs = ", ".join(
            f"{spec.function.value}({spec.column})"
            + (f" AS {spec.alias}" if spec.alias else "")
            for spec in query.aggregates
        )
        lines.append(f"-> Aggregate {specs}")
        if query.group_by:
            lines.append(f"   group by: {', '.join(query.group_by)}")
        strategy = access[query.table].aggregate_strategy
        if strategy is not None:
            lines.append(f"   strategy: {strategy.describe()}")
        if plan.view_rewrite is not None:
            lines.append(f"   rewrite: {plan.view_rewrite.describe()}")
        depth = 1
        for join in query.joins:
            pad = "   " * depth
            lines.append(
                f"{pad}-> HashJoin {join.table} "
                f"ON {query.table}.{join.left_column} = "
                f"{join.table}.{join.right_column}"
            )
            scan_lines(join.table, depth + 1, None)
        scan_lines(query.table, depth, query.predicate)
    elif isinstance(query, SelectQuery):
        columns = ", ".join(query.columns) if query.columns else "*"
        suffix = f" LIMIT {query.limit}" if query.limit is not None else ""
        lines.append(f"-> Project {columns}{suffix}")
        scan_lines(query.table, 1, query.predicate)
    elif isinstance(query, InsertQuery):
        lines.append(f"-> Insert into {query.table} ({query.num_rows} row(s))")
        table_plan = access[query.table]
        lines.append(f"   target: {table_plan.describe()}")
    elif isinstance(query, UpdateQuery):
        assigned = ", ".join(sorted(query.assignments))
        lines.append(f"-> Update {query.table} SET {assigned}")
        scan_lines(query.table, 1, query.predicate)
    elif isinstance(query, DeleteQuery):
        lines.append(f"-> Delete from {query.table}")
        scan_lines(query.table, 1, query.predicate)
    return lines
