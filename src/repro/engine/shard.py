"""Shard-key what-if settings for the storage advisor.

Execution is serial: no query is ever split across workers.  What remains of
sharding is an advisor feature —
:meth:`~repro.core.advisor.advisor.StorageAdvisor.recommend_shard_keys`
prices each column-store table of a workload as if its crew-divisible cost
terms were split ``fan_out`` ways, adds the device's per-shard dispatch
overhead, and recommends a shard key where that estimate beats serial.
:func:`shard_config` scopes the what-if's row floor.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

__all__ = [
    "audit_shared_segments",
    "shard_bounds",
    "shard_config",
    "shard_min_rows",
    "shutdown_worker_pool",
]

#: Tables below this row count are never recommended a shard key.
_SHARD_MIN_ROWS = 200_000


def shard_min_rows() -> int:
    return _SHARD_MIN_ROWS


@contextmanager
def shard_config(min_rows: Optional[int] = None):
    """Temporarily override the shard-key what-if's row floor (``None`` keeps it)."""
    global _SHARD_MIN_ROWS
    previous = _SHARD_MIN_ROWS
    if min_rows is not None:
        _SHARD_MIN_ROWS = min_rows
    try:
        yield
    finally:
        _SHARD_MIN_ROWS = previous


def shard_bounds(num_rows: int, fan_out: int) -> Tuple[Tuple[int, int], ...]:
    """Balanced contiguous ``[start, stop)`` row ranges covering the table."""
    base, extra = divmod(num_rows, fan_out)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(fan_out):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


# No-op: sessionbench/run.py still calls it; goes with the next benchmark change.
def shutdown_worker_pool() -> None:
    return None


# Always clean: sessionbench/run.py still calls it; goes with the next benchmark change.
def audit_shared_segments() -> Tuple[List[str], List[str]]:
    return [], []
