"""The session API: one entry point over the hybrid-store engine.

``connect()`` opens a :class:`Session`, which drives every statement through
the explicit pipeline

    parse → bind → plan (LogicalPlan → PhysicalPlan) → execute

with a plan cache keyed by ``(query fingerprint, layout/statistics
fingerprint)``: repeated and prepared statements skip re-planning, and any
DDL, store move, repartitioning or statistics refresh makes the affected
plans unreachable.  The same :class:`~repro.api.plan.PhysicalPlan` objects
feed ``EXPLAIN`` (:meth:`Session.explain`), the storage advisor
(:meth:`Session.advisor` — estimates share one content-keyed memo with the
planner) and the online monitor
(:meth:`repro.core.advisor.monitor.OnlineAdvisorMonitor.attach_session`).

Executing through a session charges *bit-identical*
:class:`~repro.engine.timing.CostBreakdown` costs to the legacy
``HybridDatabase.execute`` path — plans pre-resolve access paths, they never
change what a query costs.

Typical usage::

    from repro.api import connect

    session = connect()
    session.create_table(schema, Store.ROW)
    session.load_rows("sales", rows)

    result = session.sql("SELECT sum(revenue) FROM sales GROUP BY region")
    lookup = session.prepare("SELECT * FROM sales WHERE id = ?")
    row = lookup.execute([42])
    print(session.explain("SELECT sum(revenue) FROM sales GROUP BY region"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.api.binder import Params, bind, statement_parameters
from repro.api.explain import render_plan
from repro.api.plan import PhysicalPlan, PlanCache, Planner
from repro.config import (
    AdvisorConfig,
    DeviceModelConfig,
    DurabilityConfig,
    IntegrityConfig,
)
from repro.core.advisor.advisor import StorageAdvisor
from repro.core.advisor.recommendation import Recommendation
from repro.engine.database import HybridDatabase, WorkloadRunResult
from repro.engine.matview import (
    REFRESH_INCREMENTAL,
    MaterializedView,
    RefreshResult,
    matview_enabled,
    view_serve_bytes,
)
from repro.engine.deadline import query_deadline
from repro.engine.integrity import (
    IntegrityReport,
    apply_integrity_config,
    integrity_counters,
    scrub,
)
from repro.engine.wal import RecoveryReport, WriteAheadLog, recover as wal_recover
from repro.engine.executor.executor import QueryResult
from repro.engine.partitioning import TablePartitioning
from repro.engine.schema import TableSchema
from repro.engine.statistics import TableStatistics
from repro.engine.timing import CostAccountant, CostBreakdown
from repro.engine.types import Store
from repro.errors import BindError, CatalogError, QueryTimeoutError, WalError
from repro.query.ast import Parameter, Query
from repro.query.parser import parse
from repro.query.workload import Workload

#: Signature of session plan listeners: (bound query, plan, result).
PlanExecutionListener = Callable[[Query, PhysicalPlan, QueryResult], None]

_PARSE_CACHE_LIMIT = 1024


@dataclass
class SessionStats:
    """Counter snapshot of one session (see :meth:`Session.stats`)."""

    queries_executed: int
    statements_parsed: int
    parse_cache_hits: int
    prepared_statements: int
    plan_cache_size: int
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_evictions: int
    estimate_memo_hits: int
    estimate_memo_misses: int
    #: Aggregations served from a materialized view.
    view_rewrite_hits: int = 0
    #: Plans that recorded a view rewrite but fell back to base-table
    #: execution (views disabled, view dropped, defining-query mismatch).
    view_rewrite_misses: int = 0
    #: Serve-time refreshes that merged cached unit partials.
    view_incremental_refreshes: int = 0
    #: Serve-time refreshes that recomputed from scratch (incl. initial).
    view_full_refreshes: int = 0
    #: Always 0: sessionbench/tracing.py still reads it; goes with the next
    #: benchmark change.
    shard_degradations: int = 0
    #: Queries cancelled by an expired ``execute(timeout=...)`` deadline.
    query_timeouts: int = 0
    #: Checksum verifications performed (integrity layer, this session's
    #: lifetime — deltas of the process-wide counters).
    integrity_units_verified: int = 0
    #: Checksum mismatches detected (scan-time or scrub).
    integrity_corruption_detected: int = 0
    #: Partition units placed in quarantine.
    integrity_units_quarantined: int = 0
    #: Quarantined units rebuilt by :meth:`Session.repair`.
    integrity_units_repaired: int = 0

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class PreparedStatement:
    """A parsed, validated statement whose plan survives re-execution.

    Produced by :meth:`Session.prepare`.  The plan is built from the
    *template* (placeholders contribute default selectivities) and cached by
    the session's plan cache, so ``execute`` only binds the parameter values
    and runs — no re-parse, no re-plan, until DDL/store moves/statistics
    refresh invalidate the plan.
    """

    def __init__(self, session: "Session", sql: str, template: Query) -> None:
        self.session = session
        self.sql = sql
        self.template = template
        #: The statement's placeholders (positional first, in index order).
        self.parameters: Tuple[Parameter, ...] = statement_parameters(template)

    def execute(self, params: Params = None,
                timeout: Optional[float] = None) -> QueryResult:
        """Bind *params* and execute through the cached plan."""
        return self.session.execute(self.template, params=params,
                                    timeout=timeout)

    __call__ = execute

    def plan(self) -> PhysicalPlan:
        """The statement's current physical plan (re-planned if stale)."""
        return self.session.plan_for(self.template)

    def explain(self, params: Params = None, analyze: bool = False) -> str:
        return self.session.explain(self.template, params=params, analyze=analyze)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreparedStatement({self.sql!r})"


class Session:
    """A connection-like façade over one :class:`HybridDatabase`."""

    def __init__(
        self,
        database: Optional[HybridDatabase] = None,
        device_config: Optional[DeviceModelConfig] = None,
        advisor_config: Optional[AdvisorConfig] = None,
        plan_cache_capacity: int = 512,
        wal_path: Optional[str] = None,
        durability: Optional[DurabilityConfig] = None,
        integrity: Optional[IntegrityConfig] = None,
    ) -> None:
        self.database = database if database is not None else HybridDatabase(device_config)
        self._advisor = StorageAdvisor(
            config=advisor_config, device_config=self.database.device.config
        )
        self._planner = Planner(self.database, lambda: self._advisor.cost_model)
        self._plan_cache = PlanCache(capacity=plan_cache_capacity)
        self._parse_cache: Dict[str, Query] = {}
        self._plan_listeners: List[PlanExecutionListener] = []
        self._queries_executed = 0
        self._statements_parsed = 0
        self._parse_cache_hits = 0
        self._prepared_statements = 0
        self._view_rewrite_hits = 0
        self._view_rewrite_misses = 0
        self._view_incremental_refreshes = 0
        self._view_full_refreshes = 0
        self._query_timeouts = 0
        # Integrity counters are process-wide; the session reports its own
        # lifetime as deltas from this snapshot.
        self._integrity_baseline = integrity_counters().snapshot()
        self._closed = False
        if integrity is not None:
            apply_integrity_config(integrity)
        if durability is not None:
            self.database.delta_merge_threshold = durability.delta_merge_threshold
        if wal_path is not None and self.database.wal is None:
            durability = durability or DurabilityConfig()
            self.database.attach_wal(
                WriteAheadLog(
                    wal_path,
                    sync_mode=durability.wal_sync_mode,
                    batch_size=durability.wal_batch_size,
                )
            )

    # -- context management -------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        # Close unconditionally: an exception inside the ``with`` body must
        # not leak the WAL file handle or cached plans.
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release cached plans and close an attached WAL.

        Idempotent and exception-safe: calling it twice (or after a failed
        statement) is a no-op the second time, listeners are dropped so a
        half-torn-down monitor cannot be re-notified, and the WAL is flushed
        and closed even if clearing a cache were to fail.  The database
        itself stays usable.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.clear_caches()
            self._plan_listeners.clear()
        finally:
            wal = self.database.wal
            if wal is not None and not wal.closed:
                wal.close()

    def clear_caches(self) -> None:
        """Drop every cached parse, plan and cost estimate (cold starts, tests).

        The session stays fully usable: the next statement runs the whole
        parse -> bind -> plan pipeline again and re-populates the caches.
        The shared :class:`EstimateMemo` is cleared too, so stale estimates
        priced against superseded physical state cannot outlive the plans
        that consumed them.
        """
        self._plan_cache.clear()
        self._parse_cache.clear()
        self._advisor.cost_model.reset_cache()

    # -- the pipeline -------------------------------------------------------------

    def parse(self, statement: str) -> Query:
        """Parse *statement* (cached by its exact text)."""
        cached = self._parse_cache.get(statement)
        if cached is not None:
            self._parse_cache_hits += 1
            return cached
        query = parse(statement)
        self._statements_parsed += 1
        if len(self._parse_cache) >= _PARSE_CACHE_LIMIT:
            self._parse_cache.clear()
        self._parse_cache[statement] = query
        return query

    def bind(self, query_or_sql: Union[Query, str], params: Params = None,
             partial: bool = False) -> Query:
        """Bind a statement against the catalog (names, types, parameters)."""
        template = self._template(query_or_sql)
        return bind(template, self.database.catalog, params, partial=partial)

    def plan_for(self, query_or_sql: Union[Query, str]) -> PhysicalPlan:
        """The physical plan of a statement under the current layout.

        Served from the plan cache when the statement's fingerprint and the
        participating tables' layout/statistics versions both match;
        re-planned otherwise.
        """
        template = self._template(query_or_sql)
        return self._cached_plan(template)

    def execute(self, query_or_sql: Union[Query, str], params: Params = None,
                timeout: Optional[float] = None) -> QueryResult:
        """Run one statement through parse → bind → plan → execute.

        *timeout* (seconds) arms a cooperative deadline over the execution:
        on expiry :class:`~repro.errors.QueryTimeoutError` is raised, no
        result is recorded and no cost is billed (the cancelled execution's
        accountant dies with it).
        """
        template = self._template(query_or_sql)
        bound = bind(template, self.database.catalog, params)
        plan = self._cached_plan(template)
        try:
            with query_deadline(timeout):
                result = self._run_plan(bound, plan)
        except QueryTimeoutError:
            self._query_timeouts += 1
            raise
        plan.record_execution(result)
        self._queries_executed += 1
        for listener in self._plan_listeners:
            listener(bound, plan, result)
        return result

    def _run_plan(self, bound: Query, plan: PhysicalPlan) -> QueryResult:
        """Execute *bound* through *plan* — from its view when one matches."""
        result = self._serve_from_view(bound, plan)
        if result is None:
            result = self.database.execute_with_paths(bound, plan.paths)
        return result

    def _serve_from_view(self, bound: Query, plan: PhysicalPlan) -> Optional[QueryResult]:
        """Answer *bound* from the plan's materialized view, if possible.

        ``None`` falls back to base-table execution.  A stale view is
        refreshed first — incrementally when the partial-merge contract
        allows, from scratch otherwise — and the refresh cost is charged to
        this query's :class:`CostBreakdown`: freshness is never traded for
        speed, the rewrite only amortizes the recompute across the recurring
        executions that *don't* follow a write.
        """
        rewrite = plan.view_rewrite
        if rewrite is None:
            return None
        if not matview_enabled():
            self._view_rewrite_misses += 1
            return None
        database = self.database
        try:
            view = database.view(rewrite.view)
        except CatalogError:
            self._view_rewrite_misses += 1
            return None
        if view.query != bound:
            # Defensive: binding rewrote the query (e.g. DATE literal
            # coercion), so the materialized state answers a different
            # question than the one being asked.
            self._view_rewrite_misses += 1
            return None
        table_object = database.table_object(view.table)
        accountant = CostAccountant(database.device)
        accountant.charge_query_overhead()
        served = "served"
        if not view.is_fresh(table_object):
            refresh = view.refresh(table_object, database.device)
            if refresh.kind == REFRESH_INCREMENTAL:
                self._view_incremental_refreshes += 1
            else:
                self._view_full_refreshes += 1
            accountant.breakdown.merge(refresh.cost)
            served = f"served after {refresh.kind} refresh"
        accountant.charge_ns(
            "view_scan",
            database.device.sequential_read(
                view_serve_bytes(view.num_rows, view.query)
            ),
        )
        self._view_rewrite_hits += 1
        return QueryResult(
            rows=[dict(row) for row in view.result_rows],
            affected_rows=0,
            cost=accountant.breakdown,
            view_hits={view.name: served},
        )

    def sql(self, statement: str, params: Params = None,
            timeout: Optional[float] = None) -> QueryResult:
        """Execute a SQL-ish statement.

        ``EXPLAIN <statement>`` (optionally ``EXPLAIN ANALYZE``) returns the
        rendered plan as rows with a single ``plan`` column instead of
        executing the statement (``ANALYZE`` executes it once to show actual
        costs).  *timeout* arms a cooperative deadline exactly like
        :meth:`execute`.
        """
        stripped = statement.strip()
        lowered = stripped.lower()
        if lowered.startswith("explain"):
            rest = stripped[len("explain"):].strip()
            analyze = rest.lower().startswith("analyze")
            if analyze:
                rest = rest[len("analyze"):].strip()
            text = self.explain(rest, params=params, analyze=analyze)
            return QueryResult(
                rows=[{"plan": line} for line in text.splitlines()],
                affected_rows=0,
                cost=CostBreakdown(),
            )
        return self.execute(stripped, params=params, timeout=timeout)

    def prepare(self, statement: str) -> PreparedStatement:
        """Parse, validate and plan *statement* once for repeated execution."""
        template = self.parse(statement)
        # Validate names/types now; placeholders stay unbound until execute.
        bind(template, self.database.catalog, None, partial=True)
        self._cached_plan(template)  # warm the plan cache
        self._prepared_statements += 1
        return PreparedStatement(self, statement, template)

    def explain(self, query_or_sql: Union[Query, str], params: Params = None,
                analyze: bool = False) -> str:
        """Render the physical plan (``analyze=True`` also executes once)."""
        template = self._template(query_or_sql)
        bound = bind(template, self.database.catalog, params,
                     partial=params is None)
        plan = self._cached_plan(template)
        actual: Optional[QueryResult] = None
        if analyze:
            if statement_parameters(bound):
                raise BindError(
                    "EXPLAIN ANALYZE needs parameter values for a "
                    "parameterized statement"
                )
            actual = self._run_plan(bound, plan)
            plan.record_execution(actual)
            self._queries_executed += 1
            for listener in self._plan_listeners:
                listener(bound, plan, actual)
        return render_plan(plan, actual)

    # -- workloads ---------------------------------------------------------------

    def run_workload(self, workload: Workload) -> WorkloadRunResult:
        """Execute every workload query through the session pipeline."""
        run = WorkloadRunResult(workload_name=workload.name)
        for query in workload:
            result = self.execute(query)
            run.record(query, result)
        return run

    # -- advisor ------------------------------------------------------------------

    def advisor(self) -> StorageAdvisor:
        """The session's storage advisor.

        It shares the planner's cost model (and therefore the content-keyed
        estimate memo): estimates computed while planning pre-warm the
        advisor's evaluation of the current layout, and vice versa.
        """
        return self._advisor

    def recommend(self, workload: Workload,
                  include_partitioning: bool = True) -> Recommendation:
        return self._advisor.recommend(
            self.database, workload, include_partitioning=include_partitioning
        )

    def recommend_shard_keys(self, workload: Workload, fan_out=None,
                             assignment=None):
        """Per-table shard-key recommendations (see the advisor's docstring)."""
        return self._advisor.recommend_shard_keys(
            self.database, workload, fan_out=fan_out, assignment=assignment
        )

    def recommend_views(self, workload: Workload, min_occurrences: int = 2):
        """Materialized views worth creating for *workload*'s recurring shapes.

        Pass the online monitor's recorded workload
        (:attr:`~repro.core.advisor.monitor.OnlineAdvisorMonitor.recorded`)
        to recommend from live traffic.  Each proposal is priced through the
        shared :class:`EstimateMemo` exactly like store moves — base-table
        cost vs. serving the materialized rows — and carries both physical
        plans, renderable via
        :meth:`~repro.core.advisor.recommendation.ViewRecommendation.explain`.
        """
        return self._advisor.recommend_views(
            self.database, workload, min_occurrences=min_occurrences
        )

    def apply(self, recommendation: Recommendation) -> None:
        """Apply a recommendation (DDL bumps versions → plans invalidate)."""
        self._advisor.apply(self.database, recommendation)

    # -- plan listeners (consumed by the online monitor) ---------------------------

    def add_plan_listener(self, listener: PlanExecutionListener) -> None:
        self._plan_listeners.append(listener)

    def remove_plan_listener(self, listener: PlanExecutionListener) -> None:
        self._plan_listeners.remove(listener)

    # -- statistics ----------------------------------------------------------------

    def stats(self) -> SessionStats:
        """Counter snapshot: pipeline, plan-cache and estimate-memo activity."""
        memo = self._advisor.cost_model.memo
        integrity_live = integrity_counters()
        integrity_base = self._integrity_baseline
        return SessionStats(
            queries_executed=self._queries_executed,
            statements_parsed=self._statements_parsed,
            parse_cache_hits=self._parse_cache_hits,
            prepared_statements=self._prepared_statements,
            plan_cache_size=len(self._plan_cache),
            plan_cache_hits=self._plan_cache.hits,
            plan_cache_misses=self._plan_cache.misses,
            plan_cache_evictions=self._plan_cache.evictions,
            estimate_memo_hits=memo.hits,
            estimate_memo_misses=memo.misses,
            view_rewrite_hits=self._view_rewrite_hits,
            view_rewrite_misses=self._view_rewrite_misses,
            view_incremental_refreshes=self._view_incremental_refreshes,
            view_full_refreshes=self._view_full_refreshes,
            query_timeouts=self._query_timeouts,
            integrity_units_verified=(
                integrity_live.units_verified - integrity_base.units_verified
            ),
            integrity_corruption_detected=(
                integrity_live.corruption_detected
                - integrity_base.corruption_detected
            ),
            integrity_units_quarantined=(
                integrity_live.units_quarantined
                - integrity_base.units_quarantined
            ),
            integrity_units_repaired=(
                integrity_live.units_repaired - integrity_base.units_repaired
            ),
        )

    # -- DDL / data conveniences (delegation) --------------------------------------

    def create_table(self, schema: TableSchema, store: Store = Store.ROW):
        return self.database.create_table(schema, store)

    def drop_table(self, name: str) -> None:
        self.database.drop_table(name)

    def load_rows(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        return self.database.load_rows(name, rows)

    # -- materialized views ---------------------------------------------------------

    def create_view(self, name: str,
                    query_or_sql: Union[Query, str]) -> MaterializedView:
        """Create a materialized view of an aggregation statement.

        The defining statement is parsed and bound like any query, the view
        materializes immediately, and the planner starts rewriting matching
        statements to it (the view-catalog version bump invalidates every
        cached plan).
        """
        template = self._template(query_or_sql)
        bound = bind(template, self.database.catalog, None)
        return self.database.create_view(name, bound)

    def drop_view(self, name: str) -> None:
        self.database.drop_view(name)

    def refresh_view(self, name: str) -> RefreshResult:
        """Explicitly bring one materialized view up to date."""
        return self.database.refresh_view(name)

    def views(self) -> List[str]:
        return self.database.view_names()

    def view(self, name: str) -> MaterializedView:
        return self.database.view(name)

    def move_table(self, name: str, store: Store) -> CostBreakdown:
        return self.database.move_table(name, store)

    def apply_partitioning(self, name: str,
                           partitioning: TablePartitioning) -> CostBreakdown:
        return self.database.apply_partitioning(name, partitioning)

    def remove_partitioning(self, name: str, store: Store) -> CostBreakdown:
        return self.database.remove_partitioning(name, store)

    def refresh_statistics(
        self, name: Optional[str] = None
    ) -> Dict[str, TableStatistics]:
        return self.database.refresh_statistics(name)

    # -- durability ----------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the database into the attached WAL and reset the log."""
        return self.database.checkpoint()

    def snapshot(self, name: str):
        """A consistent read view of table *name* (snapshot isolation)."""
        return self.database.snapshot(name)

    def merge_deltas(self, name: Optional[str] = None) -> int:
        """Merge column-store delta rows into main (one table, or all)."""
        return self.database.merge_deltas(name)

    # -- integrity -----------------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        """Scrub every table's partition units against their checksums.

        Walks every column-store unit (per partition for partitioned
        tables), verifies each against the checksum recorded when it was
        last legitimately mutated, and quarantines any mismatch: later
        access raises :class:`~repro.errors.DataCorruptionError` naming the
        exact table/partition/column until :meth:`repair` rebuilds the
        unit.  The scrub itself charges no simulated cost.
        """
        return scrub(
            self.database.table_object(name)
            for name in self.database.table_names()
        )

    def repair(self) -> int:
        """Rebuild quarantined units from the WAL; returns units repaired.

        Requires an attached write-ahead log: the committed state is
        recovered from it (latest checkpoint snapshot plus replay, exactly
        the crash-recovery path) and every table holding quarantined units
        is swapped for its recovered — pristine — copy, restoring rows and
        query costs bit-identical to the uncorrupted state.  Tables without
        quarantined units are untouched.  A no-op (returning 0) when
        nothing is quarantined.
        """
        database = self.database
        wal = database.wal
        if wal is None:
            raise WalError(
                "repair() needs an attached write-ahead log to rebuild "
                "quarantined units from (connect with wal_path=...)"
            )
        damaged: Dict[str, int] = {}
        for name in database.table_names():
            count = 0
            for _label, backend in database.table_object(name).integrity_units():
                state = getattr(backend, "integrity", None)
                if state is not None:
                    count += len(state.quarantined_columns())
            if count:
                damaged[name] = count
        if not damaged:
            return 0
        wal.flush()
        recovered = wal_recover(wal.path, database.device.config)
        repaired = 0
        for name, count in damaged.items():
            if name not in recovered.database.table_names():
                raise WalError(
                    f"cannot repair table {name!r}: the write-ahead log "
                    "does not cover it"
                )
            database.adopt_table(name, recovered.database.table_object(name))
            repaired += count
        integrity_counters().units_repaired += repaired
        # Plans and estimates priced against the replaced objects must go.
        self.clear_caches()
        return repaired

    def describe(self) -> str:
        return self.database.describe()

    def table_names(self) -> List[str]:
        return self.database.table_names()

    # -- internals ------------------------------------------------------------------

    def _template(self, query_or_sql: Union[Query, str]) -> Query:
        if isinstance(query_or_sql, str):
            return self.parse(query_or_sql)
        return query_or_sql

    def _cached_plan(self, template: Query) -> PhysicalPlan:
        planner = self._planner
        key = (
            planner.logical(template).fingerprint,
            self.database.layout_fingerprint(template.tables),
            self._advisor.cost_model.parameters_fingerprint,
            # View DDL (and explicit refreshes) bump this version: a plan
            # that recorded — or skipped — a view rewrite must not outlive
            # the view catalog it was planned against.
            self.database.catalog.view_catalog_version,
        )
        plan = self._plan_cache.get(key)
        if plan is None:
            # Planning needs the tables to exist; surface a BindError (not a
            # CatalogError) so callers see one error family for bad names.
            for name in template.tables:
                if not self.database.catalog.has_table(name):
                    raise BindError(f"unknown table {name!r}")
            plan = planner.plan(template)
            self._plan_cache.put(key, plan)
        return plan


def connect(
    database: Optional[HybridDatabase] = None,
    device_config: Optional[DeviceModelConfig] = None,
    advisor_config: Optional[AdvisorConfig] = None,
    plan_cache_capacity: int = 512,
    wal_path: Optional[str] = None,
    durability: Optional[DurabilityConfig] = None,
    integrity: Optional[IntegrityConfig] = None,
) -> Session:
    """Open a :class:`Session` over a new (or an existing) database.

    With a *wal_path*, every DDL/DML statement is logged to a write-ahead
    log at that path so the database can be rebuilt with :func:`recover`
    after a crash.  *durability* tunes the WAL sync mode and the delta
    merge threshold (see :class:`~repro.config.DurabilityConfig`).
    *integrity* tunes the checksum layer process-wide (see
    :class:`~repro.config.IntegrityConfig`).
    """
    return Session(
        database=database,
        device_config=device_config,
        advisor_config=advisor_config,
        plan_cache_capacity=plan_cache_capacity,
        wal_path=wal_path,
        durability=durability,
        integrity=integrity,
    )


def recover(
    path: str,
    device_config: Optional[DeviceModelConfig] = None,
    advisor_config: Optional[AdvisorConfig] = None,
    plan_cache_capacity: int = 512,
    durability: Optional[DurabilityConfig] = None,
) -> Tuple[Session, RecoveryReport]:
    """Rebuild a database from the WAL at *path* and open a session over it.

    Replays the log (restoring the latest checkpoint snapshot first, when
    one exists), then re-opens the log for appending — truncating any torn
    tail — so the returned session is durable again.  The report describes
    what replay found: corrupt records skipped, torn bytes dropped, LSNs
    applied, and whether the checkpoint snapshot itself was corrupt
    (``report.snapshot_corrupt`` — bad magic, framing, checksum or payload):
    a corrupt snapshot is never restored from; recovery falls back to
    replaying the full log instead.  Recovery itself is read-only and
    idempotent; only the re-open for appending trims the file.
    """
    result = wal_recover(path, device_config)
    durability = durability or DurabilityConfig()
    result.database.attach_wal(
        WriteAheadLog(
            path,
            sync_mode=durability.wal_sync_mode,
            batch_size=durability.wal_batch_size,
        )
    )
    session = Session(
        database=result.database,
        advisor_config=advisor_config,
        plan_cache_capacity=plan_cache_capacity,
        durability=durability,
    )
    return session, result.report
