"""Shard-key what-if settings for the storage advisor.

Execution is serial: no query is ever split across workers.  What remains of
sharding is an advisor feature —
:meth:`~repro.core.advisor.advisor.StorageAdvisor.recommend_shard_keys`
prices each column-store table of a workload as if its crew-divisible cost
terms were split ``fan_out`` ways, adds the device's per-shard dispatch
overhead, and recommends a shard key where that estimate beats serial.
Tables below ``ExecutionFeatures.shard_min_rows`` are never recommended one;
``use_features(shard_min_rows=...)`` scopes that floor.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.features import use_features

__all__ = ["audit_shared_segments", "shard_config", "shutdown_worker_pool"]


# Stand-in for use_features(shard_min_rows=): sessionbench/workloads.py still
# imports it; goes with the next benchmark change.
def shard_config(min_rows: Optional[int] = None):
    return use_features() if min_rows is None else use_features(shard_min_rows=min_rows)


# No-op: sessionbench/run.py still calls it; goes with the next benchmark change.
def shutdown_worker_pool() -> None:
    return None


# Always clean: sessionbench/run.py still calls it; goes with the next benchmark change.
def audit_shared_segments() -> Tuple[List[str], List[str]]:
    return [], []
