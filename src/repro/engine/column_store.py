"""The column store backend.

Every column is kept dictionary-encoded (:mod:`repro.engine.compression`).
Scanning a single attribute therefore touches only that column's compressed
bytes — the source of the column store's advantage on analytical queries —
while reconstructing complete tuples, inserting rows and updating values pay
per-cell penalties (dictionary maintenance, random accesses across columns).

The sorted dictionary also provides the "implicit index" the paper mentions
for point and range predicates: :func:`compile_code_mask` translates a value
predicate — ``EQ/NE/LT/LE/GT/GE``, ``BETWEEN``, ``IN``, ``IS NULL`` and any
``AND``/``OR``/``NOT`` combination of them — into code intervals and
memberships via ``bisect`` on the dictionary, and evaluates it with
vectorised integer comparisons over the code arrays.  No value is decoded;
NULL (the reserved code 0) and NaN (sorted last) are excluded or included
exactly as the scalar evaluator would.  Predicates the compiler cannot
express (incomparable literal types, columns it does not know) fall back to
the decode-and-compare path, which mirrors the row store's evaluator.
``code_domain_disabled()`` forces that fallback everywhere — the
differential fuzzer and the scan benchmarks use it as the reference path.

**Delta/main split** (the paper's write-optimised store): DML inserts append
to an uncompressed per-column delta buffer (:class:`DeltaColumn`) — no
dictionary re-sort, no code remap, no zone rebuild — while the dictionary-
encoded *main* stays frozen between merges.  Scans union main and delta;
:meth:`ColumnStoreTable.merge_delta` re-encodes the delta into main
(explicitly, or when the delta reaches ``merge_threshold`` rows).  The merge
is modelled as asynchronous reorganisation and is charge-free; every *read*
charge and statistic is computed over the **logical** column (main rows plus
delta rows, main dictionary plus the delta's new values), so the
:class:`~repro.engine.timing.CostBreakdown` of any query is bit-identical to
the inline-write reference reachable via ``delta_writes_disabled()`` — the
delta is a wall-clock write optimisation, not a cost-model change.  Updates
and deletes merge first and then mutate main exactly as the reference does.

**Snapshot visibility**: :meth:`ColumnStoreTable.snapshot` seals the table
and returns a consistent read view; the next merge or in-place mutation
copies-on-write, so readers opened before a merge keep seeing the table as
of the snapshot while writers proceed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import (
    BatchColumn,
    ColumnBatch,
    EncodedColumn,
    evaluate_predicate_mask,
    values_to_array,
)
from repro.engine.compression import CompressedColumn, code_width_bytes
from repro.engine.integrity import TableIntegrity, verify_on_scan_enabled
from repro.engine.schema import TableSchema
from repro.engine.timing import CostAccountant
from repro.engine.types import Store
from repro.engine.zonemap import ColumnZone, is_nan, next_zone_epoch, widen_zone
from repro.errors import ExecutionError
from repro.testing import faults
from repro.query.predicates import (
    And,
    Between,
    CompareOp,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
)

#: When a position list covers more than this fraction of the table, the
#: column store materialises the requested columns with a sequential scan of
#: the code arrays (late materialisation) instead of one random access per
#: cell.  The cost-model estimator uses the same threshold so that estimated
#: and measured costs follow the same access-path choice.
SCAN_MATERIALIZATION_THRESHOLD = 0.15

_CODE_DOMAIN_ENABLED = True


def code_domain_enabled() -> bool:
    """Whether predicates compile to code-domain masks (vs decode/compare)."""
    return _CODE_DOMAIN_ENABLED


@contextmanager
def code_domain_disabled() -> Iterator[None]:
    """Force the decode-and-compare fallback for every predicate.

    The differential fuzzer runs under this to pin result equivalence of the
    two paths, and the scan benchmarks use it as the reference measurement.
    """
    global _CODE_DOMAIN_ENABLED
    previous = _CODE_DOMAIN_ENABLED
    _CODE_DOMAIN_ENABLED = False
    try:
        yield
    finally:
        _CODE_DOMAIN_ENABLED = previous


_DELTA_WRITES_ENABLED = True

#: Delta size (in rows) at which an insert triggers an automatic merge.
DEFAULT_MERGE_THRESHOLD = 65536


def delta_writes_enabled() -> bool:
    """Whether DML inserts append to the delta (vs inline dictionary encoding)."""
    return _DELTA_WRITES_ENABLED


@contextmanager
def delta_writes_disabled() -> Iterator[None]:
    """Force the inline-write reference path for every insert.

    The recovery and differential fuzzers run the reference executions under
    this toggle: results *and* ``CostBreakdown`` charges must be bit-identical
    to the delta path.  (A delta already buffered keeps serving reads — the
    toggle governs where new writes go, not how existing rows are read.)
    """
    global _DELTA_WRITES_ENABLED
    previous = _DELTA_WRITES_ENABLED
    _DELTA_WRITES_ENABLED = False
    try:
        yield
    finally:
        _DELTA_WRITES_ENABLED = previous


class DeltaColumn:
    """Uncompressed append buffer of one column — the write-optimised delta.

    Appends are O(1): the value lands in a plain list, with no dictionary
    re-sort and no code remap (the frozen main column is untouched).
    Alongside the raw values the delta maintains exactly the aggregates the
    logical statistics need:

    * ``null_count`` and ``has_nan`` (zone synopses),
    * ``new_values`` — the distinct values absent from the frozen main
      dictionary (the logical distinct count is ``main + new``), and
    * ``representative`` — one orderable value, used by the predicate
      compiler to probe literal comparability so its fallback verdict matches
      what the merged dictionary would have produced.
    """

    __slots__ = (
        "values",
        "null_count",
        "has_nan",
        "new_values",
        "representative",
        "_array",
    )

    def __init__(self) -> None:
        self.values: List[Any] = []
        self.null_count = 0
        self.has_nan = False
        self.new_values: set = set()
        self.representative: Any = None
        self._array: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.values)

    def append(self, value: Any, main_dictionary) -> None:
        self.values.append(value)
        self._array = None
        if value is None:
            self.null_count += 1
        elif is_nan(value):
            self.has_nan = True
        else:
            self.representative = value
            if (
                value not in self.new_values
                and main_dictionary.encode_existing(value) is None
            ):
                self.new_values.add(value)

    def truncate(self, length: int, main_dictionary) -> None:
        """Roll back to the first *length* values (aborted batch insert)."""
        survivors = self.values[:length]
        self.__init__()
        for value in survivors:
            self.append(value, main_dictionary)

    def array(self) -> np.ndarray:
        """The buffered values as a numpy array (cached until the next append)."""
        if self._array is None:
            self._array = values_to_array(list(self.values))
        return self._array

    @property
    def new_null(self) -> bool:
        """Whether the delta introduces NULL to a NULL-free main dictionary."""
        return self.null_count > 0


class ColumnStoreSnapshot:
    """Consistent read view of a column-store table at snapshot time.

    Shares the (frozen) main column objects and copies the small delta
    buffers; :meth:`ColumnStoreTable.snapshot` seals the table so any later
    merge or in-place mutation swaps in fresh column objects (copy-on-write)
    instead of touching the shared ones.
    """

    __slots__ = ("schema", "_columns", "_delta_values", "num_rows")

    def __init__(
        self,
        schema: TableSchema,
        columns: Dict[str, CompressedColumn],
        delta_values: Dict[str, Tuple[Any, ...]],
        num_rows: int,
    ) -> None:
        self.schema = schema
        self._columns = columns
        self._delta_values = delta_values
        self.num_rows = num_rows

    def column_values(self, column: str) -> List[Any]:
        main = self._columns[column].values_array_at(None).tolist()
        return main + list(self._delta_values[column])

    def rows(self) -> List[Dict[str, Any]]:
        names = self.schema.column_names
        lists = [self.column_values(name) for name in names]
        return [dict(zip(names, values)) for values in zip(*lists)] if lists else []


def _concat_values(main: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Concatenate a main decode with a delta buffer, keeping object-ness.

    ``np.concatenate`` of an object part with a native part would try to
    coerce; building an object array preserves the exact values (NULLs
    included) the way a merged-dictionary decode would.
    """
    if main.dtype == object or delta.dtype == object:
        result = np.empty(len(main) + len(delta), dtype=object)
        result[: len(main)] = main
        result[len(main):] = delta
        return result
    return np.concatenate([main, delta])


#: A charge record of one compiled predicate leaf: the compressed column it
#: scans and whether it performed a dictionary (bisect) probe.
CodeLeaf = Tuple[CompressedColumn, bool]


def compile_code_mask(
    predicate: Predicate,
    columns: Mapping[str, CompressedColumn],
    num_rows: int,
) -> Optional[Tuple[np.ndarray, List[CodeLeaf]]]:
    """Compile *predicate* to a boolean mask over the code arrays.

    Returns ``(mask, leaves)`` or ``None`` when any part of the predicate
    cannot be answered in the code domain (unknown column, incomparable
    literal type) — compilation is all-or-nothing and charge-free, so a
    failed attempt never double-charges against the fallback path.  The
    *leaves* list one entry per simple predicate evaluated, for the caller
    to convert into cost charges.

    NULL awareness: a dictionary holding NULL reserves code 0 for it.  Value
    comparisons and ranges never include code 0 (``range_codes`` offsets its
    interval past it; ``NE`` masks it out explicitly), ``IS NULL`` is exactly
    ``codes == 0``, and an ``IN``-list containing NULL picks code 0 up
    through ``encode_existing(None)`` — all matching the scalar evaluator's
    row-at-a-time semantics.
    """
    leaves: List[CodeLeaf] = []
    mask = _compile_mask(predicate, columns, num_rows, leaves)
    if mask is None:
        return None
    return mask, leaves


def compile_code_leaves(
    predicate: Predicate, columns: Mapping[str, CompressedColumn]
) -> Optional[List[CodeLeaf]]:
    """Dry compilation: the leaves :func:`compile_code_mask` would evaluate.

    Performs exactly the dictionary translations of a real compilation (the
    only operations that can fail) but never touches a code array, so the
    success verdict and the leaf list — and therefore the cost charges
    derived from them — are guaranteed identical to the wet compilation.
    Used to replay scan charges for scans that zone maps proved unnecessary.
    """
    leaves: List[CodeLeaf] = []
    if _compile_mask(predicate, columns, 0, leaves, dry=True) is None:
        return None
    return leaves


#: Placeholder returned for every mask during dry compilation.
_DRY_MASK: Any = "dry"


def _compile_mask(
    predicate: Predicate,
    columns: Mapping[str, CompressedColumn],
    num_rows: int,
    leaves: List[CodeLeaf],
    dry: bool = False,
) -> Optional[np.ndarray]:
    if isinstance(predicate, TruePredicate):
        return _DRY_MASK if dry else np.ones(num_rows, dtype=bool)
    if isinstance(predicate, (And, Or)):
        combined: Optional[np.ndarray] = None
        for child in predicate.predicates:
            mask = _compile_mask(child, columns, num_rows, leaves, dry)
            if mask is None:
                return None
            if dry or combined is None:
                combined = mask
            elif isinstance(predicate, And):
                combined = combined & mask
            else:
                combined = combined | mask
        return combined
    if isinstance(predicate, Not):
        # The leaf masks already encode NULL semantics (a NULL row fails
        # every comparison), so plain inversion matches the scalar
        # evaluator: NOT(amount > 5) *does* match NULL rows.
        mask = _compile_mask(predicate.predicate, columns, num_rows, leaves, dry)
        if mask is None:
            return None
        return mask if dry else ~mask
    if isinstance(predicate, IsNull):
        column = columns.get(predicate.column)
        if column is None:
            return None
        leaves.append((column, False))
        if dry:
            return _DRY_MASK
        codes = column.codes
        if column.dictionary.has_null:
            return codes == 0
        return np.zeros(len(codes), dtype=bool)
    if isinstance(predicate, (Comparison, Between, InList)):
        column = columns.get(predicate.column)
        if column is None:
            return None
        mask = _leaf_code_mask(column, predicate, dry)
        if mask is None:
            # The dictionary cannot answer this predicate (incomparable
            # literal types); the whole compilation falls back.
            return None
        leaves.append((column, True))
        return mask
    return None


def _leaf_code_mask(
    column: CompressedColumn, predicate: Predicate, dry: bool = False
) -> Optional[np.ndarray]:
    """Mask of a simple predicate over *column*'s code array, or ``None``.

    Value constants translate to code ranges through the sorted dictionary
    (``bisect``); a ``TypeError`` from comparing a literal of an
    incomparable type against the dictionary values aborts the translation
    (the caller falls back to the value-level evaluator, which mirrors the
    row store's behaviour exactly).  With ``dry=True`` the translations run
    but the mask itself is skipped (see :func:`compile_code_leaves`).
    """
    codes = column.codes
    dictionary = column.dictionary
    try:
        if isinstance(predicate, Comparison):
            return _comparison_code_mask(column, codes, predicate, dry)
        if isinstance(predicate, Between):
            if dictionary.holds_null:
                # BETWEEN never matches NULL, and the all-NULL dictionary
                # cannot order its bounds.
                return _DRY_MASK if dry else np.zeros(len(codes), dtype=bool)
            lo, hi = dictionary.range_codes(
                predicate.low, predicate.high,
                predicate.include_low, predicate.include_high,
            )
            if dry:
                return _DRY_MASK
            # ``range_codes`` offsets past the reserved NULL code, so NULL
            # rows (code 0) never fall inside the interval.
            mask = (codes >= lo) & (codes < hi)
            nan_code = dictionary.nan_code
            if nan_code is not None:
                # The scalar evaluator tests Between by *exclusion*
                # (value < low / value > high), which NaN never fails.
                mask |= codes == nan_code
            return mask
        # A NaN member matches nothing (IN is chained equality); it also can
        # never be *found* — ``encode_existing`` bisects only the orderable
        # values — so it simply contributes no member code.
        member_codes = [
            dictionary.encode_existing(value) for value in predicate.values
        ]
        member_codes = [code for code in member_codes if code is not None]
        if dry:
            return _DRY_MASK
        if not member_codes:
            return np.zeros(len(codes), dtype=bool)
        return np.isin(codes, np.asarray(member_codes, dtype=np.int64))
    except TypeError:
        return None


def _comparison_code_mask(
    column: CompressedColumn, codes: np.ndarray, predicate: Comparison,
    dry: bool = False,
) -> np.ndarray:
    dictionary = column.dictionary
    if predicate.value is None or dictionary.holds_null:
        # ``column <op> NULL`` never matches, and neither does any
        # comparison over an all-NULL column (row-at-a-time semantics:
        # a comparison involving NULL is false, whatever the operator).
        return _DRY_MASK if dry else np.zeros(len(codes), dtype=bool)
    has_null = dictionary.has_null
    if predicate.op is CompareOp.EQ:
        code = dictionary.encode_existing(predicate.value)
        if dry:
            return _DRY_MASK
        if code is None:
            return np.zeros(len(codes), dtype=bool)
        return codes == code
    if predicate.op is CompareOp.NE:
        code = dictionary.encode_existing(predicate.value)
        if dry:
            return _DRY_MASK
        if code is None:
            mask = np.ones(len(codes), dtype=bool)
        else:
            mask = codes != code
        if has_null:
            # NULL rows fail every comparison, != included.
            mask &= codes != 0
        return mask
    if isinstance(predicate.value, float) and predicate.value != predicate.value:
        # Ordered comparison against a NaN literal is false for every
        # value (bisect would place NaN at position 0 and wrongly match
        # everything for >=).
        return _DRY_MASK if dry else np.zeros(len(codes), dtype=bool)
    # Ordered comparisons never match NaN row-at-a-time (every comparison
    # is False); a NaN dictionary entry sorts last, so exclude its code
    # from the range masks explicitly.
    nan_code = dictionary.nan_code
    if predicate.op in (CompareOp.LT, CompareOp.LE):
        lo, hi = dictionary.range_codes(
            None, predicate.value, include_high=predicate.op is CompareOp.LE
        )
        if dry:
            return _DRY_MASK
        mask = codes < hi
        if has_null:
            # The reserved NULL code 0 is below every value code.
            mask &= codes != 0
    else:
        lo, hi = dictionary.range_codes(
            predicate.value, None, include_low=predicate.op is CompareOp.GE
        )
        if dry:
            return _DRY_MASK
        # ``lo`` is offset past the NULL code, which excludes NULL rows.
        mask = codes >= lo
    if nan_code is not None:
        mask &= codes != nan_code
    return mask


class ColumnStoreTable:
    """In-memory column-oriented, dictionary-compressed table."""

    store = Store.COLUMN

    #: Delta size at which an insert triggers an automatic merge (class-level
    #: default; tests and sessions override per instance).
    merge_threshold = DEFAULT_MERGE_THRESHOLD

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: Dict[str, CompressedColumn] = {
            column.name: CompressedColumn(column.name, column.dtype)
            for column in schema.columns
        }
        self._num_rows = 0
        # Write-optimised delta: per-column uncompressed append buffers.
        # ``_num_rows`` always counts main + delta; delta rows occupy the
        # positions ``main_rows .. num_rows-1`` in append order, which merges
        # preserve (the delta is re-encoded onto the end of main).
        self._delta: Dict[str, DeltaColumn] = {
            name: DeltaColumn() for name in self._columns
        }
        self._delta_len = 0
        # Snapshot support: a sealed table copies-on-write before any
        # in-place mutation of its main columns (see ``snapshot``).
        self._sealed = False
        self._pk_column: Optional[str] = None
        if len(schema.primary_key) == 1:
            self._pk_column = schema.primary_key[0]
        # Primary-key uniqueness is checked against this set; the dictionary
        # alone is not sufficient because several rows may share a code.
        self._pk_values: set = set()
        # Zone-map state: every mutator bumps the epoch; per-column synopses
        # are rebuilt lazily on the next consult (see ``column_zone``).
        self._zone_epoch = next_zone_epoch()
        self._zone_cache: Dict[str, Tuple[int, ColumnZone]] = {}
        # Integrity state: per-unit content checksums keyed by the same zone
        # epoch, plus quarantine bookkeeping (see ``_integrity_check``).
        self.integrity = TableIntegrity(schema.name)

    # -- basic properties --------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def delta_rows(self) -> int:
        """Rows buffered in the write-optimised delta (not yet merged)."""
        return self._delta_len

    @property
    def main_rows(self) -> int:
        """Rows in the dictionary-encoded main store."""
        return self._num_rows - self._delta_len

    @property
    def row_width_bytes(self) -> int:
        return self.schema.row_width_bytes

    @property
    def memory_bytes(self) -> float:
        return sum(
            self._logical_compressed_bytes(name) for name in self._columns
        )

    def compression_rate(self, column: Optional[str] = None) -> float:
        """Compressed-to-raw size ratio for one column or the whole table.

        Computed over the **logical** column (main plus delta) so the ratio —
        and every estimate derived from it — is independent of merge timing.
        """
        if column is not None:
            if self._num_rows == 0:
                return 1.0
            raw = self._num_rows * self.schema.column(column).dtype.width_bytes
            return min(1.0, self._logical_compressed_bytes(column) / raw) if raw else 1.0
        if self._num_rows == 0:
            return 1.0
        raw = sum(
            self._num_rows * col.dtype.width_bytes for col in self.schema.columns
        )
        compressed = sum(
            self._logical_compressed_bytes(name) for name in self._columns
        )
        return min(1.0, compressed / raw) if raw else 1.0

    def has_index(self, column: str) -> bool:
        """Every column-store column has an implicit (dictionary) index."""
        return True

    def column_compressed_bytes(self, column: str) -> float:
        return self._logical_compressed_bytes(column)

    def column_code_bytes(self, column: str) -> float:
        """Bytes a sequential scan of *column* reads (code array only)."""
        return self._logical_code_bytes(column)

    # -- logical statistics (main + delta) ---------------------------------------

    def _logical_distinct(self, column: str) -> int:
        """Distinct count of the merged column, without merging.

        Main's dictionary size (NULL and NaN entries included) plus the
        delta's genuinely new values, NULL and NaN counted once each.
        """
        compressed = self._columns[column]
        delta = self._delta[column]
        distinct = compressed.num_distinct + len(delta.new_values)
        if delta.null_count and not compressed.dictionary.has_null:
            distinct += 1
        if delta.has_nan and compressed.dictionary.nan_code is None:
            distinct += 1
        return distinct

    def _logical_code_bytes(self, column: str) -> float:
        """Code-array bytes of the merged column: total rows at merged width."""
        return self._num_rows * code_width_bytes(self._logical_distinct(column))

    def _logical_compressed_bytes(self, column: str) -> float:
        distinct = self._logical_distinct(column)
        dict_bytes = distinct * self.schema.column(column).dtype.width_bytes
        return self._num_rows * code_width_bytes(distinct) + dict_bytes

    # -- loading and modification ----------------------------------------------------

    def insert_rows(
        self, rows: Sequence[Mapping[str, Any]], accountant: Optional[CostAccountant] = None
    ) -> List[int]:
        """Insert validated rows, returning their positions.

        Every cell pays the column-store insert penalty (dictionary lookup and
        potential re-encoding, delta append); the primary key additionally
        pays a uniqueness probe.  The *charges* are per row, but the physical
        append is columnar — one :meth:`CompressedColumn.extend` per column,
        so each dictionary merges the batch's new values in a single pass.

        A validation error or duplicate primary key aborts the batch at the
        offending row: every earlier row of the batch is inserted (and
        charged), the offending and later rows are not — exactly the
        partial-state contract of the original per-row append loop.  A value
        a dictionary unexpectedly rejects aborts the whole batch cleanly:
        nothing is inserted, no primary key stays registered, and the error
        propagates.  NULL mixes freely with values — the dictionary reserves
        code 0 for it (:class:`~repro.engine.compression.ColumnDictionary`).
        """
        self._bump_zone_epoch()
        pending: List[Dict[str, Any]] = []
        failure: Optional[Exception] = None
        for raw_row in rows:
            try:
                validated = self.schema.validate_row(raw_row)
                if self._pk_column is not None:
                    key = validated[self._pk_column]
                    if accountant is not None:
                        accountant.charge_index_probe()
                    if key in self._pk_values:
                        raise ExecutionError(
                            f"duplicate primary key {key!r} in table {self.schema.name!r}"
                        )
                    self._pk_values.add(key)
            except Exception as exc:
                failure = exc
                break
            pending.append(validated)
        positions = []
        if pending:
            try:
                if _DELTA_WRITES_ENABLED:
                    self._extend_delta(pending)
                else:
                    self._unseal_for_write()
                    self._extend_columns(pending)
            except Exception:
                if self._pk_column is not None:
                    for row in pending:
                        self._pk_values.discard(row[self._pk_column])
                raise
            for _ in pending:
                if accountant is not None:
                    accountant.charge_cs_value_inserts(self.schema.num_columns)
                positions.append(self._num_rows)
                self._num_rows += 1
        if failure is not None:
            raise failure
        if self._delta_len >= self.merge_threshold:
            self.merge_delta()
        return positions

    def _extend_columns(self, pending: Sequence[Mapping[str, Any]]) -> None:
        """One :meth:`CompressedColumn.extend` per column, atomically.

        If a column unexpectedly rejects its values the already-extended
        columns are truncated back, so the table never ends up with
        misaligned column lengths.
        """
        extended: List[Tuple[CompressedColumn, int]] = []
        try:
            for name, column in self._columns.items():
                extended.append((column, len(column)))
                column.extend([row[name] for row in pending])
        except Exception:
            for column, old_size in extended:
                column.truncate(old_size)
            raise

    def _extend_delta(self, pending: Sequence[Mapping[str, Any]]) -> None:
        """Delta-path twin of :meth:`_extend_columns`, with the same rollback.

        If a column rejects one of its values mid-batch the already-extended
        delta buffers are truncated back, so the buffers never end up with
        misaligned lengths.
        """
        extended: List[Tuple[str, int]] = []
        try:
            for name, delta in self._delta.items():
                extended.append((name, len(delta)))
                dictionary = self._columns[name].dictionary
                for row in pending:
                    delta.append(row[name], dictionary)
        except Exception:
            for name, old_len in extended:
                self._delta[name].truncate(old_len, self._columns[name].dictionary)
            raise
        self._delta_len += len(pending)

    def merge_delta(self) -> int:
        """Re-encode the delta into main; returns the number of rows merged.

        The merge builds aside and swaps: each main column is cloned, the
        clone absorbs the delta values in one :meth:`CompressedColumn.extend`
        pass, and only then does the table switch over.  A crash at any of
        the ``merge.*`` fault points therefore leaves the table consistent
        (either entirely pre-merge or entirely post-merge), and snapshots
        keep reading the old column objects.  Dictionary accumulation is
        history-order independent, so the post-merge physical state is
        bit-identical to inline insertion — the basis of the
        ``delta_writes_disabled()`` equivalence contract.  The merge itself
        is charge-free: it models asynchronous reorganisation, and all read
        charges are logical (main + delta) anyway.
        """
        if self._delta_len == 0:
            return 0
        faults.fault_point("merge.before")
        merged = self._delta_len
        rebuilt: Dict[str, CompressedColumn] = {}
        for name, column in self._columns.items():
            clone = column.clone()
            clone.extend(list(self._delta[name].values))
            rebuilt[name] = clone
        faults.fault_point("merge.after_build")
        self._columns = rebuilt
        self._delta = {name: DeltaColumn() for name in self._columns}
        self._delta_len = 0
        self._sealed = False
        self._bump_zone_epoch()
        faults.fault_point("merge.after_swap")
        return merged

    def _unseal_for_write(self) -> None:
        """Copy-on-write before an in-place mutation of the main columns.

        No-op unless a :meth:`snapshot` sealed the table; then every main
        column is cloned so the snapshot keeps the originals.  (Delta appends
        never need this — snapshots copy the delta values outright.)
        """
        if self._sealed:
            self._columns = {
                name: column.clone() for name, column in self._columns.items()
            }
            self._sealed = False

    def snapshot(self) -> ColumnStoreSnapshot:
        """A consistent read view of the table as of now (see module docs)."""
        self._sealed = True
        return ColumnStoreSnapshot(
            self.schema,
            dict(self._columns),
            {name: tuple(delta.values) for name, delta in self._delta.items()},
            self._num_rows,
        )

    def bulk_load(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Load rows without cost accounting (used by generators and tests).

        Rows are validated column-at-a-time and each column dictionary is
        built in one bulk pass — no intermediate row dicts.
        """
        if not rows:
            return
        self._bump_zone_epoch()
        if self._num_rows == 0:
            self._unseal_for_write()
            columns = self.schema.validate_rows_columnar(rows)
            for name, column in self._columns.items():
                column.bulk_load(columns[name])
            self._num_rows = len(rows)
            if self._pk_column is not None:
                keys = columns[self._pk_column]
                self._pk_values = set(keys)
                if len(self._pk_values) != len(keys):
                    raise ExecutionError(
                        f"duplicate primary key while bulk loading {self.schema.name!r}"
                    )
        else:
            validated = [self.schema.validate_row(row) for row in rows]
            self.insert_rows(validated, accountant=None)
            # Bulk loads are synchronous reorganisation points: merging right
            # away keeps the physical state of load paths identical to the
            # pre-delta pipeline (only DML inserts populate a lasting delta).
            self.merge_delta()

    def bulk_load_columns(self, columns: Mapping[str, Any], num_rows: int) -> None:
        """Adopt already-validated column data (store-conversion fast path).

        Each column is dictionary-encoded in one bulk pass; no row dict is
        ever built.  Values must be coerced already (they come from the other
        store's backend).
        """
        if self._num_rows:
            raise ExecutionError("bulk_load_columns requires an empty table")
        self._bump_zone_epoch()
        self._unseal_for_write()
        for name, compressed in self._columns.items():
            compressed.bulk_load(columns[name])
        self._num_rows = num_rows
        if self._pk_column is not None:
            keys = columns[self._pk_column]
            self._pk_values = set(keys.tolist() if isinstance(keys, np.ndarray) else keys)
            if len(self._pk_values) != num_rows:
                raise ExecutionError(
                    f"duplicate primary key while bulk loading {self.schema.name!r}"
                )

    def update_rows(
        self,
        positions: Sequence[int],
        assignments: Mapping[str, Any],
        accountant: Optional[CostAccountant] = None,
    ) -> int:
        """Update *assignments* on the rows at *positions*.

        Dictionary-compressed column stores cannot modify a row in place: an
        update invalidates the old row version and re-appends a complete new
        version to the delta.  Accordingly every affected row is charged the
        update penalty for *all* of the table's columns, which is the main
        reason updates favour the row store in the paper's cost model.

        Updates merge the delta first (charge-free, position-preserving) and
        then mutate main exactly as the pre-delta pipeline did — *positions*
        computed over the union before the merge stay valid.
        """
        if not assignments:
            return 0
        self.merge_delta()
        self._unseal_for_write()
        self._bump_zone_epoch()
        coerced = {
            name: self.schema.column(name).dtype.coerce(value)
            for name, value in assignments.items()
        }
        for position in positions:
            for name, value in coerced.items():
                if name == self._pk_column:
                    old = self._columns[name].value_at(position)
                    if value != old and value in self._pk_values:
                        raise ExecutionError(
                            f"duplicate primary key {value!r} in table {self.schema.name!r}"
                        )
                    self._pk_values.discard(old)
                    self._pk_values.add(value)
                self._columns[name].set_value(position, value)
            if accountant is not None:
                accountant.charge_cs_value_updates(self.schema.num_columns)
        return len(positions)

    def delete_rows(
        self, positions: Sequence[int], accountant: Optional[CostAccountant] = None
    ) -> int:
        """Physically remove the rows at *positions* (rebuilds every column).

        The rebuild is columnar: each column masks its code array and shrinks
        its dictionary to the surviving codes — no row is ever reconstructed
        as a dict.  Like updates, deletes merge the delta first.
        """
        if len(positions) == 0:
            return 0
        self.merge_delta()
        self._unseal_for_write()
        self._bump_zone_epoch()
        doomed = np.unique(np.asarray(positions, dtype=np.int64))
        if accountant is not None:
            accountant.charge_cs_value_updates(len(doomed) * self.schema.num_columns)
        in_range = doomed[(doomed >= 0) & (doomed < self._num_rows)]
        if len(in_range):
            keep_mask = np.ones(self._num_rows, dtype=bool)
            keep_mask[in_range] = False
            if self._pk_column is not None:
                removed_keys = self._columns[self._pk_column].values_at(in_range)
                self._pk_values.difference_update(removed_keys)
            for column in self._columns.values():
                kept_codes = column.codes[keep_mask]
                column.load_codes(column.dictionary.rebuild_from_codes(kept_codes)
                                  if len(kept_codes)
                                  else column.dictionary.bulk_build([]))
            self._num_rows = int(keep_mask.sum())
        return len(doomed)

    # -- reads -----------------------------------------------------------------------

    def _integrity_check(self, columns) -> None:
        """Integrity gate of every read entry point.

        Quarantined units raise :class:`~repro.errors.DataCorruptionError`
        on every access; with scan verification enabled each unit is
        additionally checksum-verified at most once per (column, zone
        epoch) — a mutation bumps the epoch and records a fresh baseline,
        so detection means the content changed *without* a mutation.
        Verification charges zero simulated cost (no accountant involved);
        only the process-wide integrity counters move.
        """
        state = self.integrity
        for name in columns:
            state.check_quarantine(name)
        if not verify_on_scan_enabled():
            return
        epoch = self._zone_epoch
        for name in columns:
            if not state.scan_pending(name, epoch):
                continue
            compressed = self._columns[name]
            if not state.verify(
                name, compressed.codes, compressed.dictionary, epoch
            ):
                state.check_quarantine(name)  # raises the typed error

    def filter_positions(
        self, predicate: Optional[Predicate], accountant: Optional[CostAccountant] = None
    ) -> Optional[np.ndarray]:
        """Return positions of rows matching *predicate* (``None`` = all rows).

        Predicates compile to vectorized integer comparisons over the code
        arrays via :func:`compile_code_mask` (the sorted dictionary is the
        implicit index); predicates the compiler cannot express fall back to
        decode-and-compare, which additionally pays per-value decode costs
        for the referenced columns.
        """
        if predicate is None:
            return None
        self._integrity_check(
            name for name in sorted(predicate.columns()) if name in self._columns
        )
        delta_len = self._delta_len
        if accountant is not None and delta_len:
            accountant.record_delta_scan(
                self.schema.name, self._num_rows - delta_len, delta_len
            )
        if _CODE_DOMAIN_ENABLED and (not delta_len or self._delta_compile_ok(predicate)):
            compiled = compile_code_mask(
                predicate, self._columns, self._num_rows - delta_len
            )
            if compiled is not None:
                mask, leaves = compiled
                if accountant is not None:
                    for column, probed in leaves:
                        if probed:
                            # Dictionary lookup of the literal(s).
                            accountant.charge_index_probe()
                        accountant.charge_sequential_read(
                            "column_scan", self._logical_code_bytes(column.name)
                        )
                        accountant.charge_vector_compares(self._num_rows)
                if delta_len:
                    # The delta portion is evaluated in the value domain —
                    # result-equivalent to the code domain (the differential
                    # fuzzer pins this) and charge-free: the charges above
                    # already cover the full logical column.
                    arrays = {
                        name: self._delta[name].array()
                        for name in predicate.columns()
                    }
                    delta_mask = evaluate_predicate_mask(predicate, arrays, delta_len)
                    mask = np.concatenate([mask, delta_mask])
                return np.nonzero(mask)[0].astype(np.int64)
        # Fallback: decode the referenced columns (vectorized gather) and
        # evaluate the predicate over the value arrays; predicates the
        # vectorized evaluator cannot express run the row-at-a-time loop.
        referenced = sorted(predicate.columns())
        if accountant is not None:
            for name in referenced:
                accountant.charge_sequential_read(
                    "column_scan", self._logical_code_bytes(name)
                )
            accountant.charge_dict_decodes(self._num_rows * len(referenced))
            accountant.charge_predicate_evals(self._num_rows)
        arrays = {name: self._union_values_array(name) for name in referenced}
        mask = evaluate_predicate_mask(predicate, arrays, self._num_rows)
        return np.nonzero(mask)[0].astype(np.int64)

    def _delta_compile_ok(self, predicate: Predicate) -> bool:
        """Whether code-domain compilation stays valid with a non-empty delta.

        Compilation over the frozen main dictionary can only diverge from the
        inline reference (which would have merged the delta's values into the
        dictionary) in its *TypeError verdict*: an ordered comparison or a
        BETWEEN bisects the literal against the dictionary values, and a
        literal comparable with main's values may be incomparable with the
        delta's (or vice versa — main empty, delta populated).  Column values
        are dtype-coerced and therefore homogeneous, so probing one
        representative delta value reproduces the merged dictionary's verdict
        exactly.  ``EQ``/``NE``/``IN``/``IS NULL`` never fall back
        (``encode_existing`` swallows the TypeError), and comparisons against
        NULL or NaN literals short-circuit before any bisect — no probe.
        """
        if isinstance(predicate, (And, Or)):
            return all(self._delta_compile_ok(child) for child in predicate.predicates)
        if isinstance(predicate, Not):
            return self._delta_compile_ok(predicate.predicate)
        if isinstance(predicate, Comparison):
            if predicate.op in (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE):
                value = predicate.value
                if value is None or (isinstance(value, float) and value != value):
                    return True
                return self._probe_orderable(predicate.column, value)
            return True
        if isinstance(predicate, Between):
            # NaN bounds do reach the bisect in the inline path, so they are
            # probed too (float vs str comparison raises regardless of NaN).
            for bound in (predicate.low, predicate.high):
                if bound is not None and not self._probe_orderable(
                    predicate.column, bound
                ):
                    return False
            return True
        return True

    def _probe_orderable(self, column: str, literal: Any) -> bool:
        delta = self._delta.get(column)
        if delta is None or delta.representative is None:
            return True
        try:
            literal < delta.representative  # noqa: B015 — probe for TypeError
            return True
        except TypeError:
            return False

    def charge_filter_scan(
        self, predicate: Predicate, accountant: Optional[CostAccountant]
    ) -> None:
        """Replay the charges of :meth:`filter_positions` without scanning.

        Zone-pruned DML uses this: when the zones prove *predicate* matches
        no row, the scan is skipped but the query must cost exactly what the
        seed pipeline charged for scanning and matching nothing.  The dry
        compilation (:func:`compile_code_leaves`) reproduces the real
        compiler's success verdict and leaf order, so the charges cannot
        drift from the scanned path.
        """
        if accountant is None or predicate is None:
            return
        if _CODE_DOMAIN_ENABLED and (
            not self._delta_len or self._delta_compile_ok(predicate)
        ):
            leaves = compile_code_leaves(predicate, self._columns)
            if leaves is not None:
                for column, probed in leaves:
                    if probed:
                        accountant.charge_index_probe()
                    accountant.charge_sequential_read(
                        "column_scan", self._logical_code_bytes(column.name)
                    )
                    accountant.charge_vector_compares(self._num_rows)
                return
        referenced = sorted(predicate.columns())
        for name in referenced:
            accountant.charge_sequential_read(
                "column_scan", self._logical_code_bytes(name)
            )
        accountant.charge_dict_decodes(self._num_rows * len(referenced))
        accountant.charge_predicate_evals(self._num_rows)

    def fetch_rows(
        self,
        positions: Optional[Sequence[int]],
        columns: Optional[Sequence[str]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> List[Dict[str, Any]]:
        """Materialise (reconstruct) tuples from the requested columns.

        Tuple reconstruction pays one random access + decode per requested
        cell, which is why selecting many attributes of many rows is the
        column store's weak spot.
        """
        selected = tuple(columns) if columns is not None else self.schema.column_names
        for name in selected:
            self.schema.column(name)
        self._integrity_check(selected)
        if positions is None:
            gather = None
            num_positions = self._num_rows
        else:
            gather = np.asarray(positions, dtype=np.int64)
            num_positions = len(gather)
        if accountant is not None:
            for name in selected:
                self._charge_materialisation(name, num_positions, accountant)
        batch = ColumnBatch(
            {name: self._union_values_array(name, gather) for name in selected},
            num_rows=num_positions,
        )
        return batch.to_rows()

    def _charge_materialisation(
        self, column: str, num_positions: int, accountant: CostAccountant
    ) -> None:
        """Charge for materialising *num_positions* values of one column.

        Sparse position lists pay one tuple-reconstruction (random access +
        decode) per value; dense position lists are served by a sequential
        scan of the code array plus a decode per qualifying value, which is
        how a real column store late-materialises wide selections.
        """
        if self._num_rows == 0:
            return
        if num_positions <= self._num_rows * SCAN_MATERIALIZATION_THRESHOLD:
            accountant.charge_tuple_reconstructions(num_positions)
        else:
            accountant.charge_sequential_read(
                "column_scan", self._logical_code_bytes(column)
            )
            accountant.charge_dict_decodes(num_positions)

    def column_values(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> List[Any]:
        """Return the values of one column, decoding from the dictionary.

        A full-column read is a sequential scan of the compressed codes plus a
        decode per value — the column store's fast path for aggregation.
        """
        return self.column_array(column, positions, accountant).tolist()

    def column_array(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`column_values`: decode straight into a numpy array.

        Charges are identical to the scalar accessor — the batch pipeline is a
        wall-clock optimisation, not a cost-model change.
        """
        self._integrity_check((column,))
        if positions is None:
            if accountant is not None:
                accountant.charge_sequential_read(
                    "column_scan", self._logical_code_bytes(column)
                )
                accountant.charge_dict_decodes(self._num_rows)
            return self._union_values_array(column, None)
        if accountant is not None:
            self._charge_materialisation(column, len(positions), accountant)
        return self._union_values_array(
            column, np.asarray(positions, dtype=np.int64)
        )

    def _union_values_array(
        self, column: str, positions: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Decoded values across main and delta (all rows or a gather).

        With an empty delta this is exactly the main column's decode.
        Otherwise main positions decode through the dictionary and delta
        positions index the raw value buffer; either part being an object
        array (NULL present, or an empty dictionary) promotes the result to
        object, mirroring what decoding the merged dictionary would yield.
        """
        compressed = self._columns[column]
        delta = self._delta[column]
        if not len(delta):
            return compressed.values_array_at(positions)
        main_size = len(compressed)
        if positions is None:
            return _concat_values(compressed.values_array_at(None), delta.array())
        positions = np.asarray(positions, dtype=np.int64)
        in_main = positions < main_size
        if in_main.all():
            return compressed.values_array_at(positions)
        delta_array = delta.array()
        if not in_main.any():
            return delta_array[positions - main_size]
        main_part = compressed.values_array_at(positions[in_main])
        delta_part = delta_array[positions[~in_main] - main_size]
        if main_part.dtype == object or delta_part.dtype == object:
            result = np.empty(len(positions), dtype=object)
        else:
            result = np.empty(
                len(positions), dtype=np.result_type(main_part, delta_part)
            )
        result[in_main] = main_part
        result[~in_main] = delta_part
        return result

    def compressed_column(self, column: str) -> CompressedColumn:
        """The main store's compressed column (the integrity scrub reads it)."""
        return self._columns[column]

    def column_encoded(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> BatchColumn:
        """Late-materialized read: the column's ``(codes, dictionary)`` pair.

        No value is decoded — downstream operators work on the codes and the
        dictionary is consulted only for the values that reach the result.
        The *charges* are identical to :meth:`column_array` (including the
        per-value decode charge): carrying codes is a wall-clock optimisation
        of the simulator, not a cost-model change — the simulated system
        still decodes each value it returns.

        With a non-empty delta the requested rows span two encodings, so the
        read degrades to a decoded value array (still a :data:`BatchColumn`;
        every consumer handles both shapes).  Charges are unaffected — they
        were always the decode charges.
        """
        self._integrity_check((column,))
        compressed = self._columns[column]
        if positions is None:
            if accountant is not None:
                accountant.charge_sequential_read(
                    "column_scan", self._logical_code_bytes(column)
                )
                accountant.charge_dict_decodes(self._num_rows)
            if self._delta_len:
                return self._union_values_array(column, None)
            return EncodedColumn(compressed.codes_at(None), compressed.dictionary)
        if accountant is not None:
            self._charge_materialisation(column, len(positions), accountant)
        if self._delta_len:
            return self._union_values_array(
                column, np.asarray(positions, dtype=np.int64)
            )
        return EncodedColumn(compressed.codes_at(positions), compressed.dictionary)

    def scan_columns(
        self,
        columns: Sequence[str],
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> Dict[str, List[Any]]:
        """Read several columns; each column is scanned (or reconstructed) separately."""
        return {
            name: self.column_values(name, positions, accountant) for name in columns
        }

    def scan_batch(
        self,
        columns: Sequence[str],
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> ColumnBatch:
        """Batch variant of :meth:`scan_columns`: one decoded array per column."""
        if positions is not None and not isinstance(positions, np.ndarray):
            positions = np.asarray(positions, dtype=np.int64)
        num_rows = self._num_rows if positions is None else len(positions)
        return ColumnBatch(
            {name: self.column_array(name, positions, accountant) for name in columns},
            num_rows=num_rows,
        )

    def all_rows(self) -> List[Dict[str, Any]]:
        """Return every row as a dict, without cost accounting (for conversions)."""
        names = self.schema.column_names
        self._integrity_check(names)
        batch = ColumnBatch(
            {name: self._union_values_array(name, None) for name in names},
            num_rows=self._num_rows,
        )
        return batch.to_rows()

    def _row_as_dict(self, position: int) -> Dict[str, Any]:
        main_size = self._num_rows - self._delta_len
        if position >= main_size:
            index = position - main_size
            return {
                name: self._delta[name].values[index]
                for name in self.schema.column_names
            }
        return {
            name: self._columns[name].value_at(position)
            for name in self.schema.column_names
        }

    # -- zone maps ----------------------------------------------------------------------

    def _bump_zone_epoch(self) -> None:
        self._zone_epoch = next_zone_epoch()

    @property
    def zone_epoch(self) -> int:
        """Monotonic counter bumped by every mutation (zone staleness token)."""
        return self._zone_epoch

    def column_zone(self, column: str) -> ColumnZone:
        """The column's zone synopsis (cached per zone epoch).

        The bounds are **exact** over the stored rows: in-place updates can
        orphan dictionary entries, so instead of trusting the dictionary's
        value bounds the synopsis reduces the live code array (one
        vectorized int64 pass, cached per zone epoch) and decodes only the
        two extreme codes — the sorted dictionary makes the smallest live
        value code the minimum value.  Exact bounds are what allows
        zero-scan MIN/MAX answers to come straight from the zone; the NULL
        count is maintained incrementally over the reserved code 0.
        """
        cached = self._zone_cache.get(column)
        if cached is not None and cached[0] == self._zone_epoch:
            return cached[1]
        compressed = self._columns[column]
        dictionary = compressed.dictionary
        live = compressed.codes
        if dictionary.has_null:
            live = live[live != 0]
        has_nan = False
        nan_code = dictionary.nan_code
        if nan_code is not None and len(live):
            nan_mask = live == nan_code
            has_nan = bool(nan_mask.any())
            if has_nan:
                live = live[~nan_mask]
        if len(live):
            low = dictionary.decode(int(live.min()))
            high = dictionary.decode(int(live.max()))
        else:
            low = high = None
        zone = ColumnZone(
            min_value=low,
            max_value=high,
            null_count=compressed.null_count,
            num_rows=self._num_rows - self._delta_len,
            has_nan=has_nan,
        )
        delta = self._delta[column]
        if len(delta):
            # Fold the delta values into the main synopsis — exact bounds,
            # exactly as if the delta had been merged.  ``widen_zone`` bails
            # only on an unorderable mix; dtype coercion makes that next to
            # impossible, but if it happens the merge makes it moot.
            widened = widen_zone(zone, delta.values, len(delta))
            if widened is None:
                self.merge_delta()
                return self.column_zone(column)
            zone = widened
        self._zone_cache[column] = (self._zone_epoch, zone)
        return zone

    # -- statistics helpers -----------------------------------------------------------

    def column_distinct_count(self, column: str) -> int:
        return self._logical_distinct(column)

    def column_min_max(self, column: str) -> Tuple[Any, Any]:
        """Bounds of the merged dictionary's entries (NaN sorts last).

        Mirrors reading ``dictionary.values[0]`` / ``values[-1]`` off the
        merged dictionary: NULL is excluded, and a NaN entry — main's or one
        the delta introduces — is the maximum because the sorted dictionary
        places it last.
        """
        compressed = self._columns[column]
        delta = self._delta[column]
        dict_values = [
            value for value in compressed.dictionary.values if value is not None
        ]
        if not len(delta):
            if not dict_values:
                return None, None
            return dict_values[0], dict_values[-1]
        nan_value = None
        if dict_values and is_nan(dict_values[-1]):
            nan_value = dict_values[-1]
            dict_values = dict_values[:-1]
        if delta.has_nan and nan_value is None:
            nan_value = float("nan")
        bounds: List[Any] = []
        if dict_values:
            bounds.extend((dict_values[0], dict_values[-1]))
        if delta.new_values:
            new_sorted = sorted(delta.new_values)
            bounds.extend((new_sorted[0], new_sorted[-1]))
        if not bounds:
            if nan_value is not None:
                return nan_value, nan_value
            return None, None
        low = min(bounds)
        high = max(bounds) if nan_value is None else nan_value
        return low, high

    def column_code_width(self, column: str) -> int:
        return code_width_bytes(self._logical_distinct(column))
