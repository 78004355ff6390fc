"""Aggregate functions and (grouped) accumulation.

The aggregation operator collects columnar batches from an access path and
feeds the value arrays through numpy reductions: ungrouped aggregates are
single reductions, grouped aggregates factorize the key columns and reduce
per group with ``bincount``/``reduceat``.  Value arrays numpy cannot reduce
(mixed objects, NULLs in object columns) fall back to the scalar
:class:`Accumulator` loop, which remains the semantic reference.

With aggregate pushdown enabled (:mod:`repro.engine.executor.agg_pushdown`),
dictionary-encoded columns never materialise per-row values:

* a single :class:`~repro.engine.batch.EncodedColumn` group key uses its
  codes directly as dense group ids — no factorization, one ``bincount``,
  groups renumbered to first-occurrence order with one reverse assignment,
  and one key decode per *group* at emit time;
* ``SUM``/``AVG`` over an encoded numeric column reduce in the dictionary
  domain — ``bincount(codes) · decoded(dictionary)`` ungrouped, a
  weight-gather ``bincount`` grouped — touching O(|dictionary|) decoded
  values instead of O(rows);
* ``COUNT``/``MIN``/``MAX`` reduce over the codes (the sorted dictionary
  makes the smallest live code the minimum value) and decode one value per
  result.

The module also hosts the partition-partial machinery: ``SUM``/``AVG`` split
into mergeable ``(sum, count)`` states so each partition aggregates
independently and :func:`merge_partition_partials` combines the states
associatively, preserving the reference first-occurrence group order.

The *cost* of aggregation is charged by the operator through the timing
model; vectorized, code-domain, partial and scalar execution all charge
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import EncodedColumn
from repro.engine.features import current_features
from repro.errors import ExecutionError
from repro.query.ast import AggregateFunction, AggregateSpec


class Accumulator:
    """Incremental accumulator for one aggregate function.

    The running sum starts as the int ``0`` so that summing an all-int
    column yields an int, exactly like the vectorized reductions — the
    scalar reference must not drift to float where numpy preserves the
    integer domain.
    """

    def __init__(self, function: AggregateFunction) -> None:
        self.function = function
        self._count = 0
        self._sum: Any = 0
        self._min: Any = None
        self._max: Any = None

    def update(self, value: Any) -> None:
        if value is None:
            return
        self._count += 1
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self._sum += value
        elif self.function is AggregateFunction.MIN:
            self._min = value if self._min is None else min(self._min, value)
        elif self.function is AggregateFunction.MAX:
            self._max = value if self._max is None else max(self._max, value)

    def result(self) -> Any:
        if self.function is AggregateFunction.COUNT:
            return self._count
        if self.function is AggregateFunction.SUM:
            return self._sum if self._count else None
        if self.function is AggregateFunction.AVG:
            return self._sum / self._count if self._count else None
        if self.function is AggregateFunction.MIN:
            return self._min
        return self._max


def aggregate_values(function: AggregateFunction, values: Iterable[Any]) -> Any:
    """Aggregate an iterable of values in one go."""
    accumulator = Accumulator(function)
    for value in values:
        accumulator.update(value)
    return accumulator.result()


class _GroupOrdering:
    """Lazy group-sorted row order of one aggregation.

    ``bincount``-served aggregates (COUNT/SUM/AVG over native arrays) never
    need the rows sorted by group; the stable argsort — the single most
    expensive step of a large group-by — runs only when a min/max ``reduceat``
    or a scalar per-group fold asks for it, and at most once.
    """

    __slots__ = ("_group_of_row", "_num_groups", "_num_rows", "_cached")

    def __init__(self, group_of_row: np.ndarray, num_groups: int, num_rows: int) -> None:
        self._group_of_row = group_of_row
        self._num_groups = num_groups
        self._num_rows = num_rows
        self._cached: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def get(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_order, bounds)``: the slice [bounds[g]:bounds[g+1]] of the
        reordered rows holds exactly group g's rows."""
        if self._cached is None:
            row_order = np.argsort(self._group_of_row, kind="stable")
            starts = np.searchsorted(
                self._group_of_row[row_order], np.arange(self._num_groups)
            )
            bounds = np.append(starts, self._num_rows)
            self._cached = (row_order, bounds)
        return self._cached


def _key_values_at(column: Any, first_rows: np.ndarray) -> List[Any]:
    """Group key values at the groups' first rows (one decode per group)."""
    if isinstance(column, EncodedColumn):
        return column.dictionary.decode_array(column.codes[first_rows]).tolist()
    array = column if isinstance(column, np.ndarray) else np.asarray(column, dtype=object)
    return array[first_rows].tolist()


def _is_reducible(values: Any) -> bool:
    """Whether numpy can reduce *values* directly (native dtype, no NULLs)."""
    return isinstance(values, np.ndarray) and values.dtype.kind in "iufb"


def _minmax_is_order_dependent(function: AggregateFunction, values: np.ndarray) -> bool:
    """Whether numpy min/max would diverge from the scalar fold.

    Python's ``min``/``max`` fold is order-dependent in the presence of NaN
    while numpy's reductions propagate NaN; such columns take the scalar
    reference path.
    """
    return (
        function in (AggregateFunction.MIN, AggregateFunction.MAX)
        and values.dtype.kind == "f"
        and bool(np.isnan(values).any())
    )


def _reduce_column(function: AggregateFunction, values: np.ndarray) -> Any:
    """Ungrouped numpy reduction over a native value array (no NULLs)."""
    count = len(values)
    if function is AggregateFunction.COUNT:
        return count
    if count == 0:
        return None
    if function is AggregateFunction.SUM:
        if values.dtype.kind in "iub":
            if _int_sum_is_safe(values):
                # Integer inputs sum to an int, like the scalar reference.
                return int(np.sum(values, dtype=np.int64))
            # int64 could wrap and float64 could round: exact scalar fold.
            return aggregate_values(function, values.tolist())
        return float(np.sum(values, dtype=np.float64))
    if function is AggregateFunction.AVG:
        return float(np.sum(values, dtype=np.float64)) / count
    if _minmax_is_order_dependent(function, values):
        return aggregate_values(function, values.tolist())
    if function is AggregateFunction.MIN:
        return values.min().item()
    return values.max().item()


def _int_sum_is_safe(values: np.ndarray, count: Optional[int] = None) -> bool:
    """Whether a vectorized sum of integer *values* is provably exact.

    The vectorized paths accumulate in float64 (``bincount`` weights) or
    int64; both are exact only while every partial sum stays inside the
    2**53 window, bounded here by ``count * max(|min|, |max|)``.  Larger
    inputs take the exact scalar fold (Python ints never wrap).  *count*
    overrides the row count when *values* is a dictionary whose codes repeat
    (encoded columns).
    """
    if count is None:
        count = len(values)
    if count == 0 or len(values) == 0 or values.dtype.kind == "b":
        return True
    peak = max(abs(int(values.min())), abs(int(values.max())), 1)
    return peak * count < 2 ** 53


# -- code/dictionary-domain reductions over encoded columns -----------------------------

#: Sentinel: the encoded fast path cannot serve this (decode and fall back).
_UNSUPPORTED = object()


def _dictionary_reals(dictionary) -> Optional[np.ndarray]:
    """The dictionary's real entries as a numeric array aligned with the
    value codes (the reserved NULL slot, if any, excluded), or ``None`` when
    the entries are not numeric."""
    values = dictionary.values_array
    if getattr(dictionary, "has_null", False):
        values = values[1:]
    if values.dtype.kind in "iufb":
        return values
    if values.dtype != object:
        return None  # strings etc.
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return None


def _normalized(value: Any) -> Any:
    return value.item() if isinstance(value, np.generic) else value


def _reduce_encoded(function: AggregateFunction, column: EncodedColumn) -> Any:
    """Ungrouped reduction in the code/dictionary domain, or ``_UNSUPPORTED``.

    ``SUM``/``AVG`` over a numeric dictionary reduce as
    ``bincount(codes) · decoded(dictionary)`` — the dot is restricted to the
    codes actually stored so an orphaned NaN dictionary entry with a zero
    count cannot poison the total.  ``MIN``/``MAX`` reduce the codes (the
    sorted dictionary makes the smallest live value code the minimum) and
    decode exactly one value; NaN-bearing columns fall back to the
    order-dependent scalar fold.
    """
    codes = column.codes
    dictionary = column.dictionary
    num_rows = len(codes)
    has_null = bool(getattr(dictionary, "has_null", False))
    null_count = int(np.count_nonzero(codes == 0)) if has_null else 0
    if function is AggregateFunction.COUNT:
        return num_rows - null_count
    if num_rows == 0:
        return None
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        if len(dictionary) * 4 > num_rows:
            # A dictionary nearly as large as the column: the per-code
            # bincount costs more than decoding and summing directly.
            return _UNSUPPORTED
        reals = _dictionary_reals(dictionary)
        if reals is None:
            return _UNSUPPORTED
        if reals.dtype.kind in "iu" and not _int_sum_is_safe(reals, num_rows):
            return _UNSUPPORTED  # the decode fallback folds exactly
        non_null = num_rows - null_count
        if non_null == 0:
            return None
        offset = 1 if has_null else 0
        counts = np.bincount(codes, minlength=len(dictionary))[offset:]
        used = counts > 0
        total = np.dot(counts[used], reals[used])
        if function is AggregateFunction.SUM:
            if reals.dtype.kind in "iub":
                return int(total)
            return float(total)
        return float(total) / non_null
    # MIN / MAX
    nan_code = dictionary.nan_code
    if nan_code is not None and bool((codes == nan_code).any()):
        return _UNSUPPORTED  # scalar fold is order-dependent around NaN
    live = codes[codes != 0] if has_null else codes
    if len(live) == 0:
        return None
    if function is AggregateFunction.MIN:
        return _normalized(dictionary.decode(int(live.min())))
    return _normalized(dictionary.decode(int(live.max())))


def _grouped_encoded(
    function: AggregateFunction,
    column: EncodedColumn,
    group_of_row: np.ndarray,
    ordering: "_GroupOrdering",
    counts: np.ndarray,
    num_groups: int,
) -> Any:
    """Per-group reduction in the code domain, or ``_UNSUPPORTED``."""
    codes = column.codes
    dictionary = column.dictionary
    has_null = bool(getattr(dictionary, "has_null", False))
    if function is AggregateFunction.COUNT:
        if not has_null:
            return counts.tolist()
        valid = codes != 0
        return np.bincount(group_of_row[valid], minlength=num_groups).tolist()
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        reals = _dictionary_reals(dictionary)
        if reals is None:
            return _UNSUPPORTED
        if reals.dtype.kind in "iu" and not _int_sum_is_safe(reals, len(codes)):
            return _UNSUPPORTED  # the decode fallback folds exactly
        weights = reals.astype(np.float64, copy=False)
        if has_null:
            # Skip NULL rows exactly like the scalar fold; ``bincount``
            # accumulates in row order, so the per-group float sums are
            # bit-identical to the scalar reference's additions.
            valid = codes != 0
            groups = group_of_row[valid]
            sums = np.bincount(
                groups, weights=weights[codes[valid] - 1], minlength=num_groups
            )
            non_null = np.bincount(groups, minlength=num_groups)
        else:
            sums = np.bincount(
                group_of_row, weights=weights[codes], minlength=num_groups
            )
            non_null = counts
        if function is AggregateFunction.SUM:
            if reals.dtype.kind in "iub":
                return [int(s) if c else None for s, c in zip(sums, non_null)]
            return [float(s) if c else None for s, c in zip(sums, non_null)]
        return [float(s / c) if c else None for s, c in zip(sums, non_null)]
    # MIN / MAX: reduce the codes per group, decode one value per group.
    nan_code = dictionary.nan_code
    if nan_code is not None and bool((codes == nan_code).any()):
        return _UNSUPPORTED  # scalar fold is order-dependent around NaN
    if has_null:
        return _UNSUPPORTED  # NULL-skipping per-group fold stays scalar
    if num_groups == 0:
        return []
    row_order, bounds = ordering.get()
    ordered = codes[row_order]
    if function is AggregateFunction.MIN:
        extremes = np.minimum.reduceat(ordered, bounds[:-1])
    else:
        extremes = np.maximum.reduceat(ordered, bounds[:-1])
    return dictionary.decode_array(extremes).tolist()


@dataclass
class GroupedAggregation:
    """Group-by aggregation over aligned column arrays."""

    aggregates: Sequence[AggregateSpec]
    group_by_names: Sequence[str]

    def run(
        self,
        aggregate_inputs: Sequence[Optional[Sequence[Any]]],
        group_key_columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> List[Dict[str, Any]]:
        """Aggregate *num_rows* rows.

        ``aggregate_inputs[i]`` is the value array feeding ``aggregates[i]``
        (``None`` for ``COUNT(*)``); ``group_key_columns`` holds one aligned
        array per group-by output name (empty for an ungrouped aggregation).
        Group key columns may be :class:`EncodedColumn` pairs, which group
        from their codes without decoding; encoded aggregate *inputs* reduce
        in the dictionary domain when pushdown is enabled and decode to
        value arrays otherwise (the decode-then-reduce reference).
        """
        if current_features().aggregate_pushdown:
            aggregate_inputs = list(aggregate_inputs)
        else:
            # Decode-then-reduce reference: encoded inputs materialise up
            # front, exactly like the pre-pushdown pipeline.
            aggregate_inputs = [
                values.values if isinstance(values, EncodedColumn) else values
                for values in aggregate_inputs
            ]
        for values in aggregate_inputs:
            if values is not None and len(values) != num_rows:
                raise ExecutionError("aggregate input length does not match row count")
        for values in group_key_columns:
            if len(values) != num_rows:
                raise ExecutionError("group-by input length does not match row count")

        if not self.group_by_names:
            row: Dict[str, Any] = {}
            for spec, values in zip(self.aggregates, aggregate_inputs):
                if spec.function is AggregateFunction.COUNT and values is None:
                    row[spec.output_name] = num_rows
                    continue
                if isinstance(values, EncodedColumn):
                    reduced = _reduce_encoded(spec.function, values)
                    if reduced is not _UNSUPPORTED:
                        row[spec.output_name] = reduced
                        continue
                    values = values.values
                if _is_reducible(values):
                    row[spec.output_name] = _reduce_column(spec.function, values)
                else:
                    source: Iterable[Any] = (
                        values if values is not None else range(num_rows)
                    )
                    if isinstance(source, np.ndarray):
                        source = source.tolist()
                    row[spec.output_name] = aggregate_values(spec.function, source)
            return [row]

        grouped = self._run_grouped_vectorized(
            aggregate_inputs, group_key_columns, num_rows
        )
        if grouped is not None:
            return grouped
        return self._run_grouped_scalar(aggregate_inputs, group_key_columns, num_rows)

    def _run_grouped_vectorized(
        self,
        aggregate_inputs: Sequence[Optional[Sequence[Any]]],
        group_key_columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> Optional[List[Dict[str, Any]]]:
        """Group-by via key factorization; ``None`` if the keys resist it.

        A single dictionary-encoded key skips factorization entirely: its
        codes serve directly as dense group ids (aggregate pushdown), with
        first-occurrence positions from one reverse assignment.  Multi-key
        groupings factorize encoded columns from their sorted codes in O(n)
        (:meth:`EncodedColumn.factorize`) and plain arrays with
        ``np.unique``.  Either way one key value decodes per *group*, and
        groups are emitted in first-occurrence order, exactly like the
        scalar accumulator loop, so all paths produce identical result
        lists.
        """
        derived = self._derive_groups(group_key_columns, num_rows)
        if derived is None:
            return None
        group_of_row, first_rows, num_groups = derived

        key_values = [
            _key_values_at(column, first_rows) for column in group_key_columns
        ]
        ordering = _GroupOrdering(group_of_row, num_groups, num_rows)

        columns: List[List[Any]] = []
        for spec, values in zip(self.aggregates, aggregate_inputs):
            columns.append(
                self._grouped_aggregate(
                    spec.function, values, group_of_row, ordering, num_groups
                )
            )
        results = []
        for group in range(num_groups):
            row = {
                name: key_values[j][group]
                for j, name in enumerate(self.group_by_names)
            }
            for spec, column in zip(self.aggregates, columns):
                row[spec.output_name] = column[group]
            results.append(row)
        return results

    @staticmethod
    def _derive_groups(
        group_key_columns: Sequence[Sequence[Any]], num_rows: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """``(group_of_row, first_rows, num_groups)`` in first-occurrence
        order, or ``None`` when the keys resist vectorization."""
        single = group_key_columns[0] if len(group_key_columns) == 1 else None
        if isinstance(single, EncodedColumn) and current_features().aggregate_pushdown:
            # Code-domain grouping: the codes *are* dense group ids — no
            # factorization, no inverse; one scatter marks the used codes,
            # one reverse assignment finds each code's first occurrence, and
            # a rank gather renumbers rows to first-occurrence group order.
            nan_code = single.dictionary.nan_code
            if nan_code is not None and bool((single.codes == nan_code).any()):
                # The scalar reference keys groups per NaN object; defer.
                return None
            codes = single.codes
            capacity = max(len(single.dictionary), 1)
            first_by_code = np.empty(capacity, dtype=np.int64)
            first_by_code[codes[::-1]] = np.arange(num_rows - 1, -1, -1,
                                                   dtype=np.int64)
            used = np.zeros(capacity, dtype=bool)
            used[codes] = True
            used_codes = np.nonzero(used)[0]
            first_occurrence = first_by_code[used_codes]
            order = np.argsort(first_occurrence, kind="stable")
            rank = np.empty(capacity, dtype=np.int64)
            num_groups = len(used_codes)
            rank[used_codes[order]] = np.arange(num_groups, dtype=np.int64)
            return rank[codes], first_occurrence[order], num_groups

        sizes: List[int] = []
        inverses: List[np.ndarray] = []
        for column in group_key_columns:
            if isinstance(column, EncodedColumn):
                nan_code = column.dictionary.nan_code
                if nan_code is not None and bool((column.codes == nan_code).any()):
                    # Decoding boxes every NaN key separately and the scalar
                    # reference keys groups per NaN object; defer to it.
                    return None
                distinct_codes, inverse = column.factorize()
                sizes.append(len(distinct_codes))
                inverses.append(inverse)
                continue
            array = column if isinstance(column, np.ndarray) else np.asarray(column, dtype=object)
            if array.dtype.kind == "f" and np.isnan(array).any():
                # np.unique would merge NaN keys into one group; the scalar
                # reference keys groups per NaN object.
                return None
            try:
                uniques, inverse = np.unique(array, return_inverse=True)
            except TypeError:
                # Unsortable key mix (e.g. NULLs in an object column).
                return None
            sizes.append(len(uniques))
            inverses.append(inverse.reshape(-1))
        if len(sizes) == 1:
            # A single key is already factorized densely (codes 0..G-1), so
            # first-occurrence positions come from one reverse assignment —
            # no second sort.  Assigning positions in reverse row order
            # leaves, per group, the smallest row index written last.
            num_groups = sizes[0]
            inverse = inverses[0]
            first_index = np.empty(num_groups, dtype=np.int64)
            first_index[inverse[::-1]] = np.arange(num_rows - 1, -1, -1)
        else:
            key_space = 1
            for size in sizes:
                key_space *= max(size, 1)
            if key_space > 2 ** 62:
                return None  # combined key would overflow int64
            combined = np.zeros(num_rows, dtype=np.int64)
            for size, inverse in zip(sizes, inverses):
                combined = combined * max(size, 1) + inverse
            _, first_index, inverse = np.unique(
                combined, return_index=True, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            num_groups = len(first_index)
        # Renumber groups by first occurrence to match scalar emission order.
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(num_groups, dtype=np.int64)
        rank[order] = np.arange(num_groups)
        return rank[inverse], first_index[order], num_groups

    @staticmethod
    def _grouped_aggregate(
        function: AggregateFunction,
        values: Optional[Sequence[Any]],
        group_of_row: np.ndarray,
        ordering: "_GroupOrdering",
        num_groups: int,
    ) -> List[Any]:
        """Per-group results for one aggregate (vectorized when possible)."""
        counts = np.bincount(group_of_row, minlength=num_groups)
        if values is None:
            # COUNT(*): every row counts.
            return counts.tolist()
        if isinstance(values, EncodedColumn):
            reduced = _grouped_encoded(
                function, values, group_of_row, ordering, counts, num_groups
            )
            if reduced is not _UNSUPPORTED:
                return reduced
            values = values.values
        if _is_reducible(values):
            if function is AggregateFunction.COUNT:
                return counts.tolist()
            if function in (AggregateFunction.SUM, AggregateFunction.AVG):
                if values.dtype.kind not in "iub" or _int_sum_is_safe(values):
                    sums = np.bincount(
                        group_of_row,
                        weights=values.astype(np.float64, copy=False),
                        minlength=num_groups,
                    )
                    if function is AggregateFunction.SUM:
                        if values.dtype.kind in "iub":
                            # Integer inputs sum to ints, like the scalar fold.
                            return [int(value) for value in sums]
                        return sums.tolist()
                    return (sums / counts).tolist()
                # Unsafe integer sums (float64 weights would round, int64
                # could wrap): fall through to the exact scalar fold.
            elif not _minmax_is_order_dependent(function, values):
                row_order, bounds = ordering.get()
                ordered = values[row_order]
                if function is AggregateFunction.MIN:
                    return np.minimum.reduceat(ordered, bounds[:-1]).tolist()
                return np.maximum.reduceat(ordered, bounds[:-1]).tolist()
        # Object/string values: scalar-aggregate each group's slice, which
        # preserves exact NULL-skipping semantics.
        row_order, bounds = ordering.get()
        ordered_values = (
            values[row_order].tolist()
            if isinstance(values, np.ndarray)
            else [values[i] for i in row_order.tolist()]
        )
        return [
            aggregate_values(
                function, ordered_values[bounds[group]: bounds[group + 1]]
            )
            for group in range(num_groups)
        ]

    def _run_grouped_scalar(
        self,
        aggregate_inputs: Sequence[Optional[Sequence[Any]]],
        group_key_columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> List[Dict[str, Any]]:
        """Reference implementation: per-row accumulator updates."""
        aggregate_inputs = [
            values.tolist() if isinstance(values, (np.ndarray, EncodedColumn)) else values
            for values in aggregate_inputs
        ]
        group_key_columns = [
            column.tolist() if isinstance(column, (np.ndarray, EncodedColumn)) else column
            for column in group_key_columns
        ]
        groups: Dict[Tuple[Any, ...], List[Accumulator]] = {}
        for position in range(num_rows):
            key = tuple(column[position] for column in group_key_columns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [Accumulator(spec.function) for spec in self.aggregates]
                groups[key] = accumulators
            for accumulator, values in zip(accumulators, aggregate_inputs):
                accumulator.update(values[position] if values is not None else 1)
        results = []
        for key, accumulators in groups.items():
            row = dict(zip(self.group_by_names, key))
            for spec, accumulator in zip(self.aggregates, accumulators):
                row[spec.output_name] = accumulator.result()
            results.append(row)
        return results


# -- partition-partial aggregation ------------------------------------------------------
#
# A partitioned table aggregates each partition independently and merges the
# per-partition states associatively (zone-pruned partitions contribute
# nothing; no batch concatenation).  ``AVG`` is the one function whose final
# value does not merge, so each original aggregate expands into mergeable
# primitives — ``AVG(x)`` becomes ``(SUM(x), COUNT(x))`` — that the
# per-partition :class:`GroupedAggregation` computes with its ordinary
# (code-domain capable) kernels.


def _expanded_specs(
    aggregates: Sequence[AggregateSpec],
) -> Tuple[List[AggregateSpec], List[List[str]]]:
    """Mergeable primitive specs plus, per original spec, their aliases."""
    expanded: List[AggregateSpec] = []
    layout: List[List[str]] = []
    for index, spec in enumerate(aggregates):
        if spec.function is AggregateFunction.AVG:
            parts = [
                AggregateSpec(AggregateFunction.SUM, spec.column,
                              alias=f"__partial_{index}_sum"),
                AggregateSpec(AggregateFunction.COUNT, spec.column,
                              alias=f"__partial_{index}_count"),
            ]
        else:
            parts = [
                AggregateSpec(spec.function, spec.column,
                              alias=f"__partial_{index}_{spec.function.value}"),
            ]
        expanded.extend(parts)
        layout.append([part.alias for part in parts])
    return expanded, layout


def partition_partial_rows(
    aggregates: Sequence[AggregateSpec],
    group_by_names: Sequence[str],
    aggregate_inputs: Sequence[Optional[Sequence[Any]]],
    group_key_columns: Sequence[Sequence[Any]],
    num_rows: int,
) -> List[Dict[str, Any]]:
    """One partition's mergeable partial states, keyed by group values."""
    expanded, layout = _expanded_specs(aggregates)
    expanded_inputs: List[Optional[Sequence[Any]]] = []
    for values, aliases in zip(aggregate_inputs, layout):
        expanded_inputs.extend([values] * len(aliases))
    aggregation = GroupedAggregation(
        aggregates=expanded, group_by_names=list(group_by_names)
    )
    return aggregation.run(expanded_inputs, group_key_columns, num_rows)


def _merge_partial(function: AggregateFunction, left: Any, right: Any) -> Any:
    """Combine two partial states of one primitive (``None`` = no values)."""
    if function is AggregateFunction.COUNT:
        return left + right
    if left is None:
        return right
    if right is None:
        return left
    if function is AggregateFunction.SUM:
        return left + right
    if function is AggregateFunction.MIN:
        return min(left, right)
    return max(left, right)


def merge_partition_partials(
    aggregates: Sequence[AggregateSpec],
    group_by_names: Sequence[str],
    per_partition_rows: Sequence[List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-partition partial states into the final result rows.

    Groups are keyed by their key values (so partitions with different
    dictionary representations merge correctly) and emitted in
    first-occurrence order across the partitions in partition order —
    exactly the order the concatenate-then-reduce reference emits.
    Unorderable partial merges raise ``TypeError``; the caller falls back to
    the reference aggregation over the concatenated batches.
    """
    expanded, layout = _expanded_specs(aggregates)
    merged: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for rows in per_partition_rows:
        for row in rows:
            key = tuple(row[name] for name in group_by_names)
            entry = merged.get(key)
            if entry is None:
                merged[key] = dict(row)
                order.append(key)
            else:
                for spec in expanded:
                    alias = spec.alias
                    entry[alias] = _merge_partial(
                        spec.function, entry[alias], row[alias]
                    )
    results: List[Dict[str, Any]] = []
    for key in order:
        entry = merged[key]
        row = {name: entry[name] for name in group_by_names}
        for spec, aliases in zip(aggregates, layout):
            partials = [entry[alias] for alias in aliases]
            if spec.function is AggregateFunction.AVG:
                total, count = partials
                row[spec.output_name] = total / count if count else None
            else:
                # COUNT/SUM/MIN/MAX partial states are the final values.
                row[spec.output_name] = partials[0]
        results.append(row)
    if not group_by_names and not results:
        # Every partition was pruned or empty: the ungrouped reference still
        # emits one row of identity aggregates.
        identity = {
            spec.output_name: 0 if spec.function is AggregateFunction.COUNT else None
            for spec in aggregates
        }
        results.append(identity)
    return results
