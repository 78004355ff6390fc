"""Fault-injection harness: crash points, torn writes and corruption.

**Crash points** — the WAL, the delta merge, the checkpoint and the
materialized-view refresh call :func:`fault_point` at every step that a
crash could separate from its neighbours, naming the point (see
:data:`CRASH_POINTS` and :data:`MATVIEW_CRASH_POINTS`).  Tests arm a
:class:`FaultPlan` with :func:`inject`; an armed plan can

* **crash** at a named point (``CrashError`` propagates out of the engine,
  standing in for the process dying at exactly that instruction), optionally
  only at the *n*-th hit,
* **tear a write**: the WAL routes every buffer flush through
  :func:`filter_write`, and a plan with ``torn_bytes`` set lets only that
  many bytes of the flush reach the file before crashing — the classic
  torn-page failure a recovery log must tolerate.

Post-hoc corruption does not need an armed plan: :func:`flip_bit` and
:func:`truncate_file` edit a log file directly, :func:`flip_snapshot_bit` a
checkpoint snapshot and :func:`flip_code_bit` a live in-memory code array.

With no plan armed every hook is a cheap no-op, so the engine code can call
them unconditionally.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

#: Every durability crash point the engine declares, in rough execution
#: order.  The recovery fuzzer iterates this list and a test asserts each
#: name is actually reached by the workload that claims to cover it.
CRASH_POINTS: Tuple[str, ...] = (
    "wal.append.before",
    "wal.append.buffered",
    "wal.flush.before_write",
    "wal.flush.after_write",
    "wal.flush.after_fsync",
    "merge.before",
    "merge.after_build",
    "merge.after_swap",
    "checkpoint.before_snapshot",
    "checkpoint.after_snapshot",
    "checkpoint.after_replace",
    "checkpoint.after_truncate",
    "checkpoint.after_reset",
)

#: Crash points inside :meth:`MaterializedView.refresh`.  Kept separate from
#: :data:`CRASH_POINTS` because the recovery fuzzer's WAL workload does not
#: reach them; the resilience suite covers them instead and pins that a
#: crash anywhere in a refresh never installs a partial merge — the view
#: serves its pre-refresh state (or recomputes) on the next query.
MATVIEW_CRASH_POINTS: Tuple[str, ...] = (
    "matview.refresh.before",
    "matview.refresh.after_unit",
    "matview.refresh.before_install",
)

class CrashError(RuntimeError):
    """Raised by an armed fault plan; models the process dying at the point."""


@dataclass
class FaultPlan:
    """One armed failure: crash at *crash_at* (on its *at_hit*-th hit).

    ``torn_bytes`` only applies when ``crash_at`` names a flush point routed
    through :func:`filter_write` (``wal.flush.after_write``): the flush
    writes just ``torn_bytes`` bytes of its buffer and then crashes.
    A plan fires exactly once, at its *at_hit*-th hit.
    """

    crash_at: Optional[str] = None
    at_hit: int = 1
    torn_bytes: Optional[int] = None
    #: Every point name hit while this plan was armed (coverage telemetry).
    hits: List[str] = field(default_factory=list)

    _countdown: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._countdown = self.at_hit

    def should_crash(self, name: str) -> bool:
        self.hits.append(name)
        if name != self.crash_at:
            return False
        self._countdown -= 1
        return self._countdown == 0


_PLAN: Optional[FaultPlan] = None


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm *plan* for the duration of the block (plans do not nest)."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


def fault_point(name: str) -> None:
    """Declare a crash point; raises :class:`CrashError` when a plan says so."""
    if _PLAN is not None and _PLAN.should_crash(name):
        raise CrashError(name)


def filter_write(name: str, data: bytes) -> bytes:
    """Route a buffer flush through the armed plan.

    Returns the bytes that should actually reach the file.  A plan crashing
    at *name* with ``torn_bytes`` set truncates the flush; the caller writes
    the returned prefix and then :func:`fault_point` (called by the caller
    *after* the write) raises.  Without an armed plan the data passes
    through untouched.
    """
    plan = _PLAN
    if (
        plan is not None
        and plan.crash_at == name
        and plan.torn_bytes is not None
        and plan._countdown == 1
    ):
        return data[: plan.torn_bytes]
    return data


# -- post-hoc file corruption helpers ------------------------------------------------


def flip_bit(path: str, offset: int, bit: int = 0) -> None:
    """Flip one bit of the file at *path* (checksum-corruption injector)."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            raise ValueError(f"offset {offset} is past the end of {path!r}")
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (1 << bit)]))
        handle.flush()
        os.fsync(handle.fileno())


def truncate_file(path: str, num_bytes: int) -> None:
    """Cut the file at *path* down to *num_bytes* (torn-tail injector)."""
    with open(path, "r+b") as handle:
        handle.truncate(num_bytes)
        handle.flush()
        os.fsync(handle.fileno())


#: Regions of a framed checkpoint snapshot :func:`flip_snapshot_bit` can
#: target.  Offsets are computed from the WAL module's frame layout, so the
#: injector cannot drift from the writer.
SNAPSHOT_REGIONS = ("magic", "header", "payload")


def flip_snapshot_bit(path: str, region: str = "payload", bit: int = 0) -> None:
    """Flip one bit in a chosen *region* of a checkpoint snapshot file.

    ``"magic"`` corrupts the file identification, ``"header"`` the
    length/crc frame, ``"payload"`` the pickled state itself — recovery must
    report every one of them as ``snapshot_corrupt``, never restore from the
    file, and never crash with a raw pickle error.  (Imported lazily:
    :mod:`repro.engine.wal` imports this module.)
    """
    from repro.engine.wal import _HEADER, SNAPSHOT_MAGIC

    if region == "magic":
        offset = 0
    elif region == "header":
        offset = len(SNAPSHOT_MAGIC)
    elif region == "payload":
        offset = len(SNAPSHOT_MAGIC) + _HEADER.size
    else:
        raise ValueError(
            f"unknown snapshot region {region!r}; expected one of "
            f"{SNAPSHOT_REGIONS}"
        )
    flip_bit(path, offset, bit)


def flip_code_bit(backend, column: str, index: int = 0, bit: int = 0) -> None:
    """Flip one bit of a live in-memory code array (silent-corruption injector).

    Mutates ``backend``'s main code array for *column* directly — crucially
    *without* bumping the zone epoch, which is exactly what distinguishes
    corruption from a legitimate mutation.  The integrity layer must detect
    the flip on the next verified read (or scrub) and quarantine the unit.
    """
    codes = backend.compressed_column(column).codes  # live view of main
    if index >= len(codes):
        raise ValueError(
            f"index {index} is past the end of column {column!r}"
        )
    codes[index] = int(codes[index]) ^ (1 << bit)
