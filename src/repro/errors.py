"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-level failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table schema is invalid or violated (unknown column, bad type, ...)."""


class CatalogError(ReproError):
    """A catalog operation failed (unknown table, duplicate table, ...)."""


class QueryError(ReproError):
    """A query is malformed or references unknown tables/columns."""


class ExecutionError(ReproError):
    """A query failed during execution."""


class QueryTimeoutError(ExecutionError):
    """A query exceeded its deadline and was cooperatively cancelled.

    Raised by :func:`repro.engine.deadline.deadline_check` when
    ``Session.execute(timeout=...)`` set a deadline that expired
    mid-execution.  Cancellation is cooperative and clean: no partial result
    is returned and no cost is billed.  ``timeout_s`` carries the deadline
    that expired.
    """

    def __init__(self, message: str, timeout_s: "float | None" = None) -> None:
        super().__init__(message)
        self.timeout_s = timeout_s


class DataCorruptionError(ExecutionError):
    """A partition unit failed its content checksum and is quarantined.

    Raised when a read touches a column whose crc32 no longer matches the
    checksum recorded for the current zone epoch — a bit flip in the code
    array or dictionary payload.  The unit stays quarantined (every further
    access raises) until :meth:`repro.api.session.Session.repair` rebuilds
    it from the checkpoint snapshot + WAL replay, so corrupt data is never
    served silently.  ``table``, ``partition`` and ``column`` name the exact
    unit (``partition`` is ``None`` for an unpartitioned table).
    """

    def __init__(self, message: str, table: "str | None" = None,
                 partition: "str | None" = None,
                 column: "str | None" = None) -> None:
        super().__init__(message)
        self.table = table
        self.partition = partition
        self.column = column


class PartitioningError(ReproError):
    """A partitioning specification is invalid or cannot be applied."""


class WalError(ReproError):
    """A write-ahead log file is unusable (bad magic, wrong sync mode, ...).

    Note that *recoverable* damage — torn tails, checksum-corrupt records —
    does not raise: recovery repairs around it and reports the damage in the
    :class:`~repro.engine.wal.RecoveryReport` instead.  ``WalError`` is for
    files that cannot be a WAL at all.
    """


class SnapshotCorruptError(WalError):
    """A checkpoint snapshot file failed its frame validation.

    Raised by the snapshot reader when the file's magic, length header or
    payload crc32 does not match — a flipped bit, a truncation, or a file
    that is not a snapshot at all.  Recovery catches it and falls back to
    full-log replay (reported via
    :attr:`~repro.engine.wal.RecoveryReport.snapshot_corrupt`); it only
    propagates from direct snapshot reads.
    """


class CalibrationError(ReproError):
    """Cost-model calibration failed (insufficient samples, singular fit, ...)."""


class EstimationError(ReproError):
    """The cost model cannot produce an estimate for a query."""


class AdvisorError(ReproError):
    """The storage advisor could not produce a recommendation."""


class WorkloadError(ReproError):
    """A workload definition or generator input is invalid."""


class BindError(QueryError):
    """A query could not be bound against the catalog.

    Raised by the session layer's bind step (:mod:`repro.api.binder`) when a
    statement references unknown tables or columns, a literal or bound
    parameter does not type-check against the catalog schema, or the supplied
    parameters do not match the statement's placeholders.
    """


class ParseError(QueryError):
    """The SQL-ish parser could not parse the given statement.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    the parser can locate it (both are ``None`` otherwise).
    """

    def __init__(self, message: str, line: "int | None" = None,
                 column: "int | None" = None) -> None:
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
