"""Per-layer tracing from the benchmark's own code.

The program has no tracer of its own yet, so :class:`Tracer` wraps the
public entry points of each layer at run time: it replaces the attribute
that callers look up (``repro.api.session.parse``, a class's method, ...)
with a wrapper that records one span per call.  A span's self time is its
duration minus the time of the traced spans it caused; a layer's self time
is the sum over its spans.  Counts come from ``Session.stats()`` and the
``QueryResult`` fields the recorder already collects.

Per-op metrics cover the timed loop only (between the ``loop_start`` and
``loop_end`` marks); set-up and advise metrics cover their own phases.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import zlib
from collections import Counter
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: (module, attribute path, layer).  Module-level functions are patched in
#: the module their caller imported them into.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.session", "parse", "query.parser"),
    ("repro.api.session", "bind", "api.binder"),
    ("repro.api.plan", "Planner.plan", "api.plan"),
    ("repro.engine.executor.access", "AccessPath.plan_scan", "api.plan"),
    ("repro.engine.executor.access", "AccessPath.plan_aggregate", "api.plan"),
    ("repro.engine.executor.access", "AccessPath.plan_shards", "api.plan"),
    ("repro.engine.database", "HybridDatabase.execute_with_paths", "engine.executor"),
    ("repro.engine.executor.executor", "execute_aggregation", "engine.executor"),
    ("repro.engine.executor.executor", "execute_select", "engine.executor"),
    ("repro.engine.executor.executor", "execute_insert", "engine.executor"),
    ("repro.engine.executor.executor", "execute_update", "engine.executor"),
    ("repro.engine.executor.executor", "execute_delete", "engine.executor"),
    ("repro.engine.column_store", "ColumnStoreTable.update_rows", "engine.column_store"),
    ("repro.engine.column_store", "ColumnStoreTable.insert_rows", "engine.column_store"),
    ("repro.engine.column_store", "ColumnStoreTable.merge_delta", "engine.column_store"),
    ("repro.engine.column_store", "ColumnStoreTable.filter_positions", "engine.column_store"),
    ("repro.engine.column_store", "ColumnStoreTable.fetch_rows", "engine.column_store"),
    ("repro.engine.row_store", "RowStoreTable.update_rows", "engine.row_store"),
    ("repro.engine.row_store", "RowStoreTable.insert_rows", "engine.row_store"),
    ("repro.engine.row_store", "RowStoreTable.filter_positions", "engine.row_store"),
    ("repro.engine.row_store", "RowStoreTable.fetch_rows", "engine.row_store"),
    ("repro.engine.integrity", "TableIntegrity.verify", "engine.integrity"),
    ("repro.engine.integrity", "TableIntegrity.expected", "engine.integrity"),
    ("repro.engine.integrity", "unit_checksum", "engine.integrity"),
    ("repro.engine.integrity", "codes_checksum", "engine.integrity"),
    ("repro.engine.wal", "WriteAheadLog.append", "engine.wal"),
    ("repro.engine.wal", "WriteAheadLog.flush", "engine.wal"),
    ("repro.api.session", "wal_recover", "engine.wal"),
    ("repro.engine.executor.operators", "try_sharded_aggregation", "engine.shard"),
    ("repro.engine.executor.operators", "try_sharded_select", "engine.shard"),
    ("repro.engine.matview", "MaterializedView.refresh", "engine.matview"),
    ("repro.core.advisor.advisor", "StorageAdvisor.recommend", "core.advisor"),
    ("repro.core.advisor.advisor", "StorageAdvisor.recommend_views", "core.advisor"),
    ("repro.core.advisor.advisor", "StorageAdvisor.apply", "core.advisor"),
    ("repro.core.cost_model.model", "CostModel.estimate_query_ms", "core.cost_model"),
    ("repro.core.cost_model.calibration", "CostModelCalibrator.calibrate", "core.cost_model"),
    ("repro.engine.database", "HybridDatabase.load_rows", "engine.database"),
    ("repro.engine.database", "HybridDatabase.checkpoint", "engine.database"),
)

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("query.parser.calls_per_op", "count", "lower"),
    ("query.parser.self_us_per_op", "us", "lower"),
    ("api.binder.self_us_per_op", "us", "lower"),
    ("api.plan.plans_per_op", "count", "lower"),
    ("api.plan.self_us_per_op", "us", "lower"),
    ("api.plan.cache_hit_ratio", "fraction", "higher"),
    ("api.plan.decision_derivations_per_op", "count", "lower"),
    ("engine.executor.self_us_per_op", "us", "lower"),
    ("engine.executor.zone_skip_ratio", "fraction", "higher"),
    ("engine.executor.agg_tier.zero_scan", "fraction", "higher"),
    ("engine.executor.agg_tier.partition_partial", "fraction", "higher"),
    ("engine.executor.agg_tier.code_domain", "fraction", "higher"),
    ("engine.executor.agg_tier.operator", "fraction", "lower"),
    ("engine.column_store.update_us_per_call", "us", "lower"),
    ("engine.column_store.insert_us_per_call", "us", "lower"),
    ("engine.column_store.filter_us_per_call", "us", "lower"),
    ("engine.column_store.fetch_us_per_call", "us", "lower"),
    ("engine.column_store.merge_delta_calls_per_op", "count", "lower"),
    ("engine.column_store.merge_delta_us_per_call", "us", "lower"),
    ("engine.column_store.rows_changed_per_update", "count", "lower"),
    ("engine.row_store.update_us_per_call", "us", "lower"),
    ("engine.row_store.insert_us_per_call", "us", "lower"),
    ("engine.row_store.filter_us_per_call", "us", "lower"),
    ("engine.row_store.fetch_us_per_call", "us", "lower"),
    ("engine.integrity.verify_calls_per_op", "count", "lower"),
    ("engine.integrity.self_us_per_op", "us", "lower"),
    ("engine.integrity.bytes_checksummed_per_row_changed", "B", "lower"),
    ("engine.wal.appends_per_op", "count", "lower"),
    ("engine.wal.append_us_per_op", "us", "lower"),
    ("engine.wal.flush_us_per_op", "us", "lower"),
    ("engine.wal.bytes_per_op", "B", "lower"),
    ("engine.wal.replayed_records", "count", "lower"),
    ("engine.wal.recover_s", "s", "lower"),
    ("engine.shard.sharded_ratio", "fraction", "higher"),
    ("engine.shard.self_us_per_report", "us", "lower"),
    ("engine.shard.degradations", "count", "lower"),
    ("engine.matview.hit_ratio", "fraction", "higher"),
    ("engine.matview.incremental_refresh_ratio", "fraction", "higher"),
    ("engine.matview.refresh_us_per_call", "us", "lower"),
    ("core.advisor.advise_s", "s", "lower"),
    ("core.advisor.recommend_s", "s", "lower"),
    ("core.advisor.recommend_views_s", "s", "lower"),
    ("core.advisor.apply_s", "s", "lower"),
    ("core.cost_model.estimates", "count", "lower"),
    ("core.cost_model.estimate_us_per_call", "us", "lower"),
    ("core.cost_model.memo_hit_ratio", "fraction", "higher"),
    ("core.cost_model.calibrate_s", "s", "lower"),
    ("engine.database.load_rows_s", "s", "lower"),
    ("engine.database.checkpoint_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

_LAYER_OF = {attribute: layer for _, attribute, layer in SPANS}


class _Totals:
    """Calls, inclusive and self nanoseconds per span, plus crc32 bytes."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.crc_bytes = 0

    def copy(self) -> "_Totals":
        totals = _Totals()
        totals.calls, totals.total_ns = Counter(self.calls), Counter(self.total_ns)
        totals.self_ns, totals.crc_bytes = Counter(self.self_ns), self.crc_bytes
        return totals

    def minus(self, earlier: "_Totals") -> "_Totals":
        totals = _Totals()
        totals.calls = self.calls - earlier.calls
        totals.total_ns = self.total_ns - earlier.total_ns
        totals.self_ns = self.self_ns - earlier.self_ns
        totals.crc_bytes = self.crc_bytes - earlier.crc_bytes
        return totals

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for span, ns in self.self_ns.items() if _LAYER_OF[span] == layer)


class _CountingZlib:
    """Stands in for ``zlib`` inside the integrity module to count crc32 input."""

    def __init__(self, totals: _Totals) -> None:
        self._totals = totals

    def crc32(self, data, value=0):
        self._totals.crc_bytes += len(data)
        return zlib.crc32(data, value)

    def __getattr__(self, name):
        return getattr(zlib, name)


class Tracer:
    """Wraps the entry points in :data:`SPANS`; use as a context manager."""

    def __init__(self) -> None:
        self.totals = _Totals()
        self.marks: Dict[str, _Totals] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attribute, _ in SPANS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, name, self._wrap(attribute, getattr(owner, name)))
        integrity = importlib.import_module("repro.engine.integrity")
        self._patch(integrity, "zlib", _CountingZlib(self.totals))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, span: str, function):
        stack, totals = self._stack, self.totals

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                totals.calls[span] += 1
                totals.total_ns[span] += elapsed
                totals.self_ns[span] += elapsed - children
                if stack:
                    stack[-1] += elapsed
        return traced

    def mark(self, name: str) -> None:
        self.marks[name] = self.totals.copy()

    def between(self, first: str, second: str) -> _Totals:
        if first not in self.marks or second not in self.marks:
            return _Totals()
        return self.marks[second].minus(self.marks[first])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, outcome, trace_overhead: float) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` for one traced workload run."""
    recorder = outcome.recorder
    loop = tracer.between("loop_start", "loop_end")
    advise = tracer.between("advise_start", "advise_end")
    setups = tracer.marks["setup_end"]
    repeats = len(outcome.setup_s)
    ops = recorder.loop_ops
    telemetry = recorder.telemetry
    stats = outcome.checks["session_stats"]
    advise_stats = outcome.checks.get("advise_session_stats", {})
    reports = len(recorder.samples.get("report", ()))
    rows_changed = telemetry["update_rows"] + telemetry["insert_rows"]

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def us_per_call(span: str, totals=loop) -> float:
        return _ratio(totals.self_ns[span] / 1e3, totals.calls[span])

    def seconds(span: str, totals=advise) -> float:
        return totals.total_ns[span] / 1e9

    derivations = sum(loop.calls[f"AccessPath.plan_{kind}"]
                      for kind in ("scan", "aggregate", "shards"))
    scanned, skipped = telemetry["partitions_scanned"], telemetry["partitions_skipped"]
    metrics = {
        "query.parser.calls_per_op": per_op(loop.calls["parse"]),
        "query.parser.self_us_per_op": per_op(loop.layer_self_ns("query.parser") / 1e3),
        "api.binder.self_us_per_op": per_op(loop.layer_self_ns("api.binder") / 1e3),
        "api.plan.plans_per_op": per_op(loop.calls["Planner.plan"]),
        "api.plan.self_us_per_op": per_op(loop.layer_self_ns("api.plan") / 1e3),
        "api.plan.cache_hit_ratio": _ratio(
            stats["plan_cache_hits"], stats["plan_cache_hits"] + stats["plan_cache_misses"]),
        "api.plan.decision_derivations_per_op": per_op(derivations),
        "engine.executor.self_us_per_op": per_op(loop.layer_self_ns("engine.executor") / 1e3),
        "engine.executor.zone_skip_ratio": _ratio(skipped, scanned + skipped),
        "engine.column_store.update_us_per_call": us_per_call("ColumnStoreTable.update_rows"),
        "engine.column_store.insert_us_per_call": us_per_call("ColumnStoreTable.insert_rows"),
        "engine.column_store.filter_us_per_call": us_per_call("ColumnStoreTable.filter_positions"),
        "engine.column_store.fetch_us_per_call": us_per_call("ColumnStoreTable.fetch_rows"),
        "engine.column_store.merge_delta_calls_per_op": per_op(
            loop.calls["ColumnStoreTable.merge_delta"]),
        "engine.column_store.merge_delta_us_per_call": _ratio(
            loop.total_ns["ColumnStoreTable.merge_delta"] / 1e3,
            loop.calls["ColumnStoreTable.merge_delta"]),
        "engine.column_store.rows_changed_per_update": _ratio(
            telemetry["update_rows"], len(recorder.samples.get("update", ()))),
        "engine.row_store.update_us_per_call": us_per_call("RowStoreTable.update_rows"),
        "engine.row_store.insert_us_per_call": us_per_call("RowStoreTable.insert_rows"),
        "engine.row_store.filter_us_per_call": us_per_call("RowStoreTable.filter_positions"),
        "engine.row_store.fetch_us_per_call": us_per_call("RowStoreTable.fetch_rows"),
        "engine.integrity.verify_calls_per_op": per_op(loop.calls["TableIntegrity.verify"]),
        "engine.integrity.self_us_per_op": per_op(loop.layer_self_ns("engine.integrity") / 1e3),
        "engine.integrity.bytes_checksummed_per_row_changed": _ratio(
            loop.crc_bytes, rows_changed),
        "engine.wal.appends_per_op": per_op(loop.calls["WriteAheadLog.append"]),
        "engine.wal.append_us_per_op": per_op(loop.self_ns["WriteAheadLog.append"] / 1e3),
        "engine.wal.flush_us_per_op": per_op(loop.total_ns["WriteAheadLog.flush"] / 1e3),
        "engine.wal.bytes_per_op": per_op(outcome.phases.get("wal_bytes", 0)),
        "engine.wal.replayed_records": outcome.phases.get("replayed_records", 0),
        "engine.wal.recover_s": outcome.phases.get("recover_s", 0.0),
        "engine.shard.sharded_ratio": _ratio(telemetry["sharded"], reports),
        "engine.shard.self_us_per_report": _ratio(
            loop.layer_self_ns("engine.shard") / 1e3, reports),
        "engine.shard.degradations": stats["shard_degradations"],
        "engine.matview.hit_ratio": _ratio(telemetry["view_hits"], reports),
        "engine.matview.incremental_refresh_ratio": _ratio(
            stats["view_incremental_refreshes"],
            stats["view_incremental_refreshes"] + stats["view_full_refreshes"]),
        "engine.matview.refresh_us_per_call": _ratio(
            loop.total_ns["MaterializedView.refresh"] / 1e3,
            loop.calls["MaterializedView.refresh"]),
        "core.advisor.advise_s": outcome.phases.get("advise_s", 0.0),
        "core.advisor.recommend_s": seconds("StorageAdvisor.recommend"),
        "core.advisor.recommend_views_s": seconds("StorageAdvisor.recommend_views"),
        "core.advisor.apply_s": seconds("StorageAdvisor.apply"),
        "core.cost_model.estimates": advise.calls["CostModel.estimate_query_ms"],
        "core.cost_model.estimate_us_per_call": _ratio(
            advise.total_ns["CostModel.estimate_query_ms"] / 1e3,
            advise.calls["CostModel.estimate_query_ms"]),
        "core.cost_model.memo_hit_ratio": _ratio(
            advise_stats.get("estimate_memo_hits", 0),
            advise_stats.get("estimate_memo_hits", 0)
            + advise_stats.get("estimate_memo_misses", 0)),
        "core.cost_model.calibrate_s": _ratio(
            seconds("CostModelCalibrator.calibrate", setups), repeats),
        "engine.database.load_rows_s": _ratio(
            seconds("HybridDatabase.load_rows", setups), repeats),
        "engine.database.checkpoint_s": _ratio(
            seconds("HybridDatabase.checkpoint", setups), repeats),
        "bench.trace_overhead": trace_overhead,
    }
    aggregations = telemetry["aggregations"]
    for tier in ("zero-scan", "partition-partial", "code-domain", "operator"):
        metrics["engine.executor.agg_tier." + tier.replace("-", "_")] = _ratio(
            telemetry["agg_tier." + tier], aggregations)
    return {name: metrics[name] for name, _, _ in LAYER_METRICS}
