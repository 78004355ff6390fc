"""End-to-end data integrity: content checksums, quarantine, scrub.

PR 6 gave WAL records crc32 framing, but everything *after* the log was
trusted blindly: checkpoint snapshots and the in-memory code arrays would
serve a flipped bit silently (or surface it as a raw pickle/numpy error far
from its cause).
This module is the common core of the integrity layer:

* **Unit checksums** — a partition unit here is one column of one
  column-store backend: crc32 over the main code array's bytes, extended
  over the pickled dictionary payload (:func:`unit_checksum`).  The
  :class:`TableIntegrity` state each :class:`ColumnStoreTable` carries
  caches checksums per zone epoch, exactly like the zone-synopsis cache:
  a mutation bumps the epoch, the stale entry is discarded, and the next
  read records a fresh baseline.  The delta buffer is not checksummed —
  it is uncompressed, short-lived, and re-encoded (and re-checksummed)
  by the next merge.

* **Lazy scan verification** — the column store calls
  :meth:`TableIntegrity.verify_on_read` from its read entry points: a
  cheap quarantine gate on every read, plus one full checksum comparison
  per (column, zone epoch).  A mismatch quarantines the unit and raises
  :class:`~repro.errors.DataCorruptionError` naming the exact
  table/partition/column; every later access raises until
  ``Session.repair()`` rebuilds the unit.  Verification is billed **zero
  simulated cost** — no :class:`~repro.engine.timing.CostAccountant`
  interaction — so every differential fuzzer stays bit-identical with
  integrity on or off.

* **The scrubber** — :func:`scrub` walks every table's partition units
  (``integrity_units()`` on ``StoredTable``/``PartitionedTable``),
  verifies each against its recorded baseline and returns an
  :class:`IntegrityReport`; ``Session.verify_integrity()`` is the public
  entry point and ``Session.repair()`` consumes the report.

Process-wide counters (:func:`integrity_counters`): sessions snapshot them
at construction and report lifetime deltas in ``SessionStats``; the executor
diffs them around each query for the ``EXPLAIN ANALYZE`` ``integrity:``
lines.
"""

from __future__ import annotations

import pickle
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import IntegrityConfig
from repro.errors import DataCorruptionError

# -- checksums -------------------------------------------------------------------------


# Never called: sessionbench/tracing.py still wraps it; goes with the next benchmark change.
def codes_checksum(codes: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(codes, dtype=np.int64).tobytes()) & 0xFFFFFFFF


def unit_checksum(codes: np.ndarray, dictionary) -> int:
    """Full content checksum of one unit: code array + dictionary payload.

    The dictionary payload is the pickled tuple of its (sorted) values —
    deterministic for equal values, NULL/NaN entries included — continued
    from the code-array crc so a flip in either part changes the result.
    """
    crc = zlib.crc32(np.ascontiguousarray(codes, dtype=np.int64).tobytes())
    payload = pickle.dumps(
        tuple(dictionary.values), protocol=pickle.HIGHEST_PROTOCOL
    )
    return zlib.crc32(payload, crc) & 0xFFFFFFFF


# -- process-wide configuration --------------------------------------------------------

_CONFIG = IntegrityConfig()


def apply_integrity_config(config: IntegrityConfig) -> None:
    """Install *config* as the process-wide integrity policy."""
    global _CONFIG
    _CONFIG = config


def integrity_config() -> IntegrityConfig:
    return _CONFIG


def integrity_enabled() -> bool:
    """Whether checksum maintenance and verification run at all."""
    return _CONFIG.enabled


def verify_on_scan_enabled() -> bool:
    return _CONFIG.enabled and _CONFIG.verify_on_scan


@contextmanager
def integrity_disabled() -> Iterator[None]:
    """Scope with all checksum verification off (reference runs, tests).

    Quarantine state already recorded keeps raising — disabling
    verification must never un-quarantine corrupt data.
    """
    global _CONFIG
    previous = _CONFIG
    _CONFIG = replace(previous, enabled=False)
    try:
        yield
    finally:
        _CONFIG = previous


# -- counters --------------------------------------------------------------------------


@dataclass
class IntegrityCounters:
    """Process-wide integrity telemetry (sessions report deltas)."""

    #: Checksum verifications performed (baseline establishment included).
    units_verified: int = 0
    #: Checksum mismatches detected (scan-time or scrub).
    corruption_detected: int = 0
    #: Units placed in quarantine.
    units_quarantined: int = 0
    #: Quarantined units rebuilt by ``Session.repair()``.
    units_repaired: int = 0

    def snapshot(self) -> "IntegrityCounters":
        return replace(self)

    def delta(self, baseline: "IntegrityCounters") -> Dict[str, int]:
        """Non-zero counter movements since *baseline*, by field name."""
        moved = {}
        for spec in fields(self):
            diff = getattr(self, spec.name) - getattr(baseline, spec.name)
            if diff:
                moved[spec.name] = diff
        return moved


_COUNTERS = IntegrityCounters()


def integrity_counters() -> IntegrityCounters:
    """The live process-wide counters (snapshot before mutating state)."""
    return _COUNTERS


# -- per-backend state -----------------------------------------------------------------


class TableIntegrity:
    """Checksum and quarantine state of one column-store backend.

    Owned by :class:`~repro.engine.column_store.ColumnStoreTable`; the
    partitioning layer labels the instance with its partition (``"main"``,
    ``"hot"``, ``"main.row"``/``"main.column"`` for vertical halves) so
    corruption errors name the exact unit.  Checksums are cached per zone
    epoch: every mutator bumps the epoch, which invalidates the entry, and
    the next read records a fresh baseline — detection therefore means "the
    content changed *without* a mutation", exactly the definition of silent
    corruption.
    """

    __slots__ = ("table", "partition", "_checksums", "_scan_verified",
                 "_quarantined")

    def __init__(self, table: str) -> None:
        self.table = table
        self.partition: Optional[str] = None
        #: column -> (zone epoch, full unit crc)
        self._checksums: Dict[str, Tuple[int, int]] = {}
        #: column -> zone epoch at which the lazy scan check last ran
        self._scan_verified: Dict[str, int] = {}
        #: column -> reason; entries survive until repair replaces the unit
        self._quarantined: Dict[str, str] = {}

    # -- quarantine ----------------------------------------------------------------

    def location(self, column: str) -> str:
        if self.partition is None:
            return f"table {self.table!r}, column {column!r}"
        return (f"table {self.table!r}, partition {self.partition!r}, "
                f"column {column!r}")

    def quarantined_columns(self) -> List[str]:
        return sorted(self._quarantined)

    def quarantine_reason(self, column: str) -> Optional[str]:
        return self._quarantined.get(column)

    def check_quarantine(self, column: str) -> None:
        """Raise :class:`DataCorruptionError` if *column* is quarantined."""
        reason = self._quarantined.get(column)
        if reason is not None:
            raise DataCorruptionError(
                f"quarantined unit ({self.location(column)}): {reason}",
                table=self.table, partition=self.partition, column=column,
            )

    def quarantine(self, column: str, reason: str) -> None:
        if column not in self._quarantined:
            self._quarantined[column] = reason
            _COUNTERS.units_quarantined += 1

    # -- checksums -----------------------------------------------------------------

    def expected(self, column: str, codes: np.ndarray, dictionary,
                 epoch: int) -> int:
        """The unit crc recorded for *column* at *epoch*.

        Records a fresh baseline when the epoch moved (a mutation
        legitimately changed the content).
        """
        cached = self._checksums.get(column)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        unit_crc = unit_checksum(codes, dictionary)
        self._checksums[column] = (epoch, unit_crc)
        return unit_crc

    def verify(self, column: str, codes: np.ndarray, dictionary,
               epoch: int) -> bool:
        """Recompute the unit checksum and compare with the recorded one.

        Establishes the baseline (and trivially passes) when none exists
        for the current epoch.  A mismatch quarantines the unit and returns
        ``False`` — the caller decides whether to raise.
        """
        _COUNTERS.units_verified += 1
        cached = self._checksums.get(column)
        if cached is None or cached[0] != epoch:
            self.expected(column, codes, dictionary, epoch)
            return True
        actual = unit_checksum(codes, dictionary)
        if actual == cached[1]:
            return True
        _COUNTERS.corruption_detected += 1
        self.quarantine(
            column,
            f"checksum mismatch (expected {cached[1]:#010x}, "
            f"found {actual:#010x})",
        )
        return False

    def scan_pending(self, column: str, epoch: int) -> bool:
        """Whether the lazy scan check still owes a verification at *epoch*.

        Marks the epoch as checked — at most one full checksum comparison
        per (column, epoch), so repeated scans (and the insert-heavy
        benches, which never read) pay nothing.
        """
        if self._scan_verified.get(column) == epoch:
            return False
        self._scan_verified[column] = epoch
        return True


# -- the scrubber ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptUnit:
    """One quarantined partition unit found by the scrubber."""

    table: str
    partition: Optional[str]
    column: str
    reason: str


@dataclass
class IntegrityReport:
    """What one scrub pass found (see ``Session.verify_integrity``)."""

    #: Units whose checksum was verified this pass (baselines included).
    units_verified: int = 0
    #: Units checksummed for the first time this pass (no prior baseline —
    #: scrubbing cannot vouch for content it never saw intact).
    baselines_recorded: int = 0
    #: Corrupt units, newly detected and previously quarantined alike.
    corrupt: List[CorruptUnit] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt


def scrub(table_objects: Iterable) -> IntegrityReport:
    """Walk every partition unit of *table_objects* and verify checksums.

    *table_objects* are ``StoredTable``/``PartitionedTable`` instances (duck
    typed via ``integrity_units()`` to keep this module import-light).
    Row-store units carry no checksums and are skipped.  Corrupt units are
    quarantined as a side effect; already-quarantined units are re-reported,
    not re-verified.  With integrity disabled the walk only reports existing
    quarantine state.
    """
    report = IntegrityReport()
    for table_object in table_objects:
        for label, backend in table_object.integrity_units():
            state = getattr(backend, "integrity", None)
            if state is None:
                continue  # row-store unit: not checksummed
            if label is not None:
                state.partition = label
            for name in backend.schema.column_names:
                reason = state.quarantine_reason(name)
                if reason is not None:
                    report.corrupt.append(
                        CorruptUnit(state.table, state.partition, name, reason)
                    )
                    continue
                if not integrity_enabled():
                    continue
                epoch = backend.zone_epoch
                had_baseline = (
                    state._checksums.get(name, (None,))[0] == epoch
                )
                compressed = backend.compressed_column(name)
                report.units_verified += 1
                if not had_baseline:
                    report.baselines_recorded += 1
                if not state.verify(
                    name, compressed.codes, compressed.dictionary, epoch
                ):
                    report.corrupt.append(
                        CorruptUnit(state.table, state.partition, name,
                                    state.quarantine_reason(name))
                    )
    return report
