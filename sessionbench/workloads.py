"""The three workloads of the session benchmark, all through ``repro.api.connect()``.

Every workload is a closed loop with one client in one thread: the next
statement is sent only when the previous one has returned.  Each statement's
wall time is taken with ``perf_counter_ns`` around the call into the session,
and its answer is checked against the benchmark's shadow copy of the table
outside that interval.  Simulated ``CostBreakdown`` time is summed as a check
value only; it is never reported as speed.

* ``oltp_point`` — prepared point select / update / insert (40/40/20) on a
  100k-row column-store table with a commit-synced WAL; ends with a timed
  recovery and a durability check.
* ``olap_reports`` — ad-hoc reports with literal ranges over a read-only,
  delta-free 400k-row column-store table that is large enough to shard.
* ``hybrid_advised`` — the paper's DBA flow: row-store load plus cost-model
  calibration, the advisor's layout and view proposals applied from a
  training sample, then a fresh sample of the mixed workload.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.api import connect, recover
from repro.config import DurabilityConfig
from repro.core.cost_model.calibration import CostModelCalibrator
from repro.engine.shard import shard_config
from repro.engine.types import Store
from repro.query.parser import parse
from repro.query.workload import Workload

from inputs import (
    DASHBOARDS,
    NARROW,
    PAPER,
    POINT_COLUMNS,
    REPORT_KINDS,
    TABLE,
    WRITE_DECK,
    Shadow,
    Statement,
    ad_hoc_report,
    point_mix,
    point_statement,
    prepared_sql,
    report_statement,
    shuffled_deck,
)

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WAL_SYNC_MODE = "commit"
#: Writes logged after the post-loop checkpoint.  Recovery replays exactly
#: these, so ``recover_s`` does not grow with the loop's throughput.
RECOVERY_TAIL_WRITES = 200
#: ``connect()``'s default plan-cache capacity.
PLAN_CACHE_CAPACITY = 512
#: Seed of the report templates' column choices (see ``inputs.ad_hoc_report``).
REPORT_COLUMNS_SEED = 20120827


@dataclass(frozen=True)
class Size:
    rows: int
    #: Minimum samples per statement kind before the loop may stop: 1,000
    #: for a reported p99, 100 for a reported p90.
    floors: Dict[str, int]
    warmup: int
    #: Distinct reports in the olap pool / statements in the advisor's
    #: training sample.
    pool: int = 0
    training: int = 0
    #: Shard floor for the run; ``None`` keeps the program's (200k rows).
    shard_min_rows: Optional[int] = None


SIZES = {
    "oltp_point": Size(100_000, {"select": 1000, "update": 1000, "insert": 100}, 50),
    "olap_reports": Size(400_000, {"report": 100}, 20, pool=2048),
    "hybrid_advised": Size(100_000, {"select": 1000, "update": 1000, "insert": 100,
                                     "report": 100}, 200, training=3000),
}
TINY = {
    "oltp_point": Size(3_000, {"select": 10, "update": 10}, 5),
    # Lower the shard floor, so the tiny table shards (and starts the
    # worker processes the benchmark must stop) as the full-size one does.
    "olap_reports": Size(3_000, {"report": 10}, 5, pool=64, shard_min_rows=1_000),
    "hybrid_advised": Size(3_000, {"select": 10, "report": 5}, 20, training=600),
}


class NoTracer:
    """Stand-in for :class:`tracing.Tracer` in untraced runs."""

    def __enter__(self) -> "NoTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def mark(self, name: str) -> None:
        pass


class Recorder:
    """Latency samples per statement kind, correctness counts and telemetry.

    Only statements of the timed loop (``timed = True``) contribute samples
    and telemetry; every statement of every phase is checked and counted in
    ``attempted``/``failed``.  A failed statement's sample is the run length,
    so it misses every latency limit.
    """

    def __init__(self, seconds: float) -> None:
        self.timed = False
        self.samples: Dict[str, List[int]] = defaultdict(list)
        #: Every sample of the loop in execution order.
        self.timeline: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.simulated_ms = 0.0
        self.telemetry: Counter = Counter()
        self._failure_ns = int(seconds * 1e9)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def execute(self, statement: Statement, run: Callable[[Statement], Any]) -> None:
        self.attempted += 1
        start = perf_counter_ns()
        try:
            result = run(statement)
        except Exception as error:  # any raised error is a failed statement
            elapsed = perf_counter_ns() - start
            if self.timed:
                self._sample(statement.kind, max(elapsed, self._failure_ns))
            self.fail(f"{statement.sql[:80]!r}: {type(error).__name__}: {error}")
            return
        elapsed = perf_counter_ns() - start
        if self.timed:
            self._sample(statement.kind, elapsed)
            self._observe(statement.kind, result)
        if statement.check(result):
            statement.apply()
        else:
            self.fail(f"{statement.sql[:80]!r}: wrong answer")

    def _sample(self, kind: str, elapsed_ns: int) -> None:
        self.samples[kind].append(elapsed_ns)
        self.timeline.append(elapsed_ns)

    def _observe(self, kind: str, result) -> None:
        telemetry = self.telemetry
        self.simulated_ms += result.cost.total_ms
        for scanned, skipped in result.scan_stats.values():
            telemetry["partitions_scanned"] += scanned
            telemetry["partitions_skipped"] += skipped
        for strategy in result.agg_strategies.values():
            telemetry["agg_tier." + strategy.split(" ")[0]] += 1
        if result.agg_strategies:
            telemetry["aggregations"] += 1
        if result.shard_stats:
            telemetry["sharded"] += 1
        if result.view_hits:
            telemetry["view_hits"] += 1
        if kind in ("update", "insert"):
            telemetry[kind + "_rows"] += result.affected_rows

    @property
    def loop_ops(self) -> int:
        return len(self.timeline)


@dataclass
class Outcome:
    """Everything a workload run measured, for the report and the trace."""

    recorder: Recorder
    setup_s: List[float]
    phases: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, Any] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)


def _timed_setups(build: Callable[[int], Any], discard: Callable[[Any], None]):
    """Run *build* :data:`SETUP_REPEATS` times; keep the last, discard the rest."""
    times = []
    built = None
    for index in range(SETUP_REPEATS):
        if built is not None:
            discard(built)
            built = None
        gc.collect()
        start = perf_counter()
        built = build(index)
        times.append(perf_counter() - start)
    return built, times


def _stats_delta(before, after) -> Dict[str, int]:
    return {key: value - getattr(before, key) for key, value in vars(after).items()
            if isinstance(value, int)}


def _loop(outcome: Outcome, session, stream: Iterator[Statement], run,
          seconds: float, size: Size, tracer) -> None:
    """Warm up, then the timed closed loop; records its check values."""
    recorder = outcome.recorder
    for _ in range(size.warmup):
        recorder.execute(next(stream), run)
    # Start every loop from the same collector state, so when the cyclic
    # collector runs inside the loop does not depend on the set-up history.
    gc.collect()
    before = session.stats()
    tracer.mark("loop_start")
    recorder.timed = True
    start = perf_counter()
    # The loop runs for *seconds* and on until every percentile it reports
    # has enough samples; the hard stop keeps a slow commit inside the
    # benchmark's time limit (too few samples then show in the report).
    hard_stop = start + 3 * seconds
    while True:
        now = perf_counter()
        if now >= hard_stop or (now - start >= seconds and all(
                len(recorder.samples[kind]) >= floor
                for kind, floor in size.floors.items())):
            break
        recorder.execute(next(stream), run)
    outcome.phases["loop_s"] = perf_counter() - start
    recorder.timed = False
    tracer.mark("loop_end")
    outcome.checks["simulated_total_ms"] = recorder.simulated_ms
    outcome.checks["session_stats"] = _stats_delta(before, session.stats())


def oltp_point(seed: int, seconds: float, size: Size, tracer, workdir: str) -> Outcome:
    rng = np.random.default_rng(seed)
    shadow = Shadow(PAPER, size.rows, rng)
    rows = shadow.rows()

    def build(index: int):
        directory = os.path.join(workdir, f"setup{index}")
        os.makedirs(directory)
        path = os.path.join(directory, "facts.wal")
        session = connect(wal_path=path,
                          durability=DurabilityConfig(wal_sync_mode=WAL_SYNC_MODE))
        session.create_table(PAPER.schema(), Store.COLUMN)
        session.load_rows(TABLE, rows)
        session.checkpoint()
        return session, path

    def discard(built) -> None:
        built[0].close()
        shutil.rmtree(os.path.dirname(built[1]))

    (session, wal_path), setup_s = _timed_setups(build, discard)
    tracer.mark("setup_end")
    del rows
    recorder = Recorder(seconds)
    outcome = Outcome(recorder, setup_s)
    outcome.info.update(table_rows_at_start=shadow.num_rows, table_store="column",
                        wal_flush_policy=f"{WAL_SYNC_MODE} (fsync after every statement)")
    try:
        prepared = {kind: session.prepare(sql) for kind, sql in prepared_sql(PAPER).items()}

        def run(statement: Statement):
            return prepared[statement.sql].execute(statement.params)

        wal_bytes = os.path.getsize(wal_path)
        _loop(outcome, session, point_mix(shadow, rng, True), run, seconds, size, tracer)
        outcome.phases["wal_bytes"] = os.path.getsize(wal_path) - wal_bytes
        # A checkpoint, then a fixed tail of writes: recovery restores the
        # snapshot and replays exactly the tail.
        session.checkpoint()
        tail = point_mix(shadow, rng, True, WRITE_DECK)
        for _ in range(min(RECOVERY_TAIL_WRITES, size.rows // 100)):
            recorder.execute(next(tail), run)
    finally:
        session.close()
    outcome.info["table_rows_at_end"] = shadow.num_rows
    # Let the closed database go before recovery builds its replacement, so
    # the peak RSS does not depend on when the collector would reach it.
    del session, prepared, run
    gc.collect()

    start = perf_counter()
    recovered, report = recover(wal_path)
    outcome.phases["recover_s"] = perf_counter() - start
    outcome.phases["replayed_records"] = report.records_applied
    try:
        # Durability: every acknowledged insert and update reads back.
        recorder.attempted += 1
        if not report.clean or report.replay_errors:
            recorder.fail(f"recovery not clean: {report}")
        columns = ", ".join(POINT_COLUMNS)
        recorder.attempted += 1
        rows = recovered.sql(f"SELECT {columns} FROM {TABLE}").rows
        expected = [shadow.row(i, POINT_COLUMNS) for i in range(shadow.num_rows)]
        if sorted(rows, key=lambda row: row["id"]) != expected:
            recorder.fail("durability: recovered rows differ from acknowledged writes")
        outcome.checks["recovered_rows"] = len(rows)
    finally:
        recovered.close()
    return outcome


def _zipf_stream(pool: List, rng: np.random.Generator, exponent: float) -> Iterator:
    """Endless draws from *pool*, the i-th entry with weight ``1 / (i + 1) ** exponent``."""
    weights = 1.0 / np.arange(1, len(pool) + 1) ** exponent
    cumulative = np.cumsum(weights / weights.sum())
    while True:
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        yield pool[min(index, len(pool) - 1)]


def olap_reports(seed: int, seconds: float, size: Size, tracer, workdir: str) -> Outcome:
    with shard_config(min_rows=size.shard_min_rows):
        return _olap_reports(seed, seconds, size, tracer)


def _olap_reports(seed: int, seconds: float, size: Size, tracer) -> Outcome:
    rng = np.random.default_rng(seed)
    shadow = Shadow(NARROW, size.rows, rng)
    rows = shadow.rows()

    def build(index: int):
        session = connect()
        session.create_table(NARROW.schema(), Store.COLUMN)
        session.load_rows(TABLE, rows)
        return session

    session, setup_s = _timed_setups(build, lambda built: built.close())
    tracer.mark("setup_end")
    del rows
    recorder = Recorder(seconds)
    outcome = Outcome(recorder, setup_s)
    outcome.info.update(table_rows_at_start=shadow.num_rows, table_store="column",
                        wal_flush_policy="none (no WAL)", report_pool=size.pool)
    # The pool is four times the plan cache; the skew makes the head repeat
    # while the tail still evicts.
    columns = np.random.default_rng(REPORT_COLUMNS_SEED)
    pool = [ad_hoc_report(NARROW, REPORT_KINDS[i % len(REPORT_KINDS)], rng, columns)
            for i in range(size.pool)]
    memo: Dict = {}
    stream = (report_statement(report, shadow, memo)
              for report in _zipf_stream(pool, rng, 0.8))
    try:
        # Fill the plan cache with the pool's least popular reports (planned,
        # not run), as a long-running server's would be: every miss in the
        # loop then evicts, which a 15-second loop alone would not reach.
        for report in pool[-PLAN_CACHE_CAPACITY:]:
            session.plan_for(report.sql)
        _loop(outcome, session, stream, lambda st: session.sql(st.sql), seconds,
              size, tracer)
    finally:
        session.close()
    outcome.info["table_rows_at_end"] = shadow.num_rows
    return outcome


#: Per 100 statements of the hybrid mix: point statements in 40/40/20 and
#: three reports, two of them dashboards.
HYBRID_DECK = (("select",) * 39 + ("update",) * 39 + ("insert",) * 19
               + ("dashboard",) * 2 + ("ad_hoc",))


def _hybrid_stream(shadow: Shadow, rng: np.random.Generator) -> Iterator[Statement]:
    """Literal point statements plus 3% reports, dashboards and ad-hoc in turn."""
    dashboards = itertools.cycle(DASHBOARDS)
    ad_hoc_kinds = itertools.cycle(REPORT_KINDS)
    columns = np.random.default_rng(REPORT_COLUMNS_SEED)
    for kind in shuffled_deck(HYBRID_DECK, rng):
        if kind == "dashboard":
            yield report_statement(next(dashboards), shadow)
        elif kind == "ad_hoc":
            report = ad_hoc_report(PAPER, next(ad_hoc_kinds), rng, columns)
            yield report_statement(report, shadow)
        else:
            yield point_statement(kind, shadow, rng, False)


def hybrid_advised(seed: int, seconds: float, size: Size, tracer, workdir: str) -> Outcome:
    rng = np.random.default_rng(seed)
    shadow = Shadow(PAPER, size.rows, rng)
    rows = shadow.rows()

    def build(index: int):
        session = connect()
        session.create_table(PAPER.schema(), Store.ROW)
        session.load_rows(TABLE, rows)
        session.advisor().initialize_cost_model(
            CostModelCalibrator(sizes=(1_000, 3_000, 8_000))
        )
        return session

    session, setup_s = _timed_setups(build, lambda built: built.close())
    tracer.mark("setup_end")
    del rows
    recorder = Recorder(seconds)
    outcome = Outcome(recorder, setup_s)
    outcome.info.update(table_rows_at_start=shadow.num_rows, table_store="row",
                        wal_flush_policy="none (no WAL)",
                        training_statements=size.training)
    stream = _hybrid_stream(shadow, rng)
    # The training sample is drawn from the same stream but never executed,
    # so its inserts all carry the next free id.
    training = Workload([parse(next(stream).sql) for _ in range(size.training)],
                        name="hybrid-training")
    try:
        tracer.mark("advise_start")
        before = session.stats()
        start = perf_counter()
        recommendation = session.recommend(training, include_partitioning=True)
        session.apply(recommendation)
        views = session.recommend_views(training)
        for view in views:
            session.create_view(view.view, view.query)
        outcome.phases["advise_s"] = perf_counter() - start
        tracer.mark("advise_end")
        outcome.checks["advise_session_stats"] = _stats_delta(before, session.stats())
        outcome.checks["layout"] = session.describe()
        outcome.checks["views"] = sorted(view.fingerprint for view in views)

        _loop(outcome, session, stream, lambda st: session.sql(st.sql), seconds,
              size, tracer)
        # The dashboards must still agree with the shadow after the loop's
        # writes (each is served from its view when one exists).
        for report in DASHBOARDS:
            recorder.execute(report_statement(report, shadow),
                             lambda st: session.sql(st.sql))
    finally:
        session.close()
    outcome.info["table_rows_at_end"] = shadow.num_rows
    return outcome


WORKLOADS = {
    "oltp_point": oltp_point,
    "olap_reports": olap_reports,
    "hybrid_advised": hybrid_advised,
}
