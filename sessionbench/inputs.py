"""Seeded inputs of the session benchmark and the shadow copy that checks them.

Everything the program receives is generated here from one
``numpy.random.Generator``: the table rows, the point statements and the
reports.  Nothing comes from ``repro.workloads``, so a change to the
program's own data generators cannot change the benchmark's inputs.

The table copies the shape of the paper's 30-attribute table: ``id``, 10
DOUBLE key figures, 9 low-cardinality VARCHAR group attributes, 8 INTEGER
filter attributes of cardinality 1,000 and 2 VARCHAR status attributes.
:class:`Shadow` keeps the benchmark's own copy of that table in numpy arrays
(VARCHAR columns as codes into a fixed vocabulary).  Every acknowledged write
is applied to it, and every read is compared with what it computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.schema import TableSchema
from repro.engine.types import DataType

TABLE = "facts"
FILTER_CARDINALITY = 1_000
STATUS_CARDINALITY = 6
#: Relative tolerance for floating-point aggregates.  SUM and AVG may add up
#: in another order than the shadow (per partition, per shard), which moves
#: the last few bits of a sum of at most a few hundred thousand values.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-6


@dataclass(frozen=True)
class Shape:
    """Column counts per role; :data:`PAPER` is the 30-attribute table."""

    keyfigures: int
    groups: int
    filters: int
    statuses: int

    def columns(self) -> List[Tuple[str, DataType]]:
        return (
            [("id", DataType.INTEGER)]
            + [(f"kf_{i}", DataType.DOUBLE) for i in range(self.keyfigures)]
            + [(f"grp_{i}", DataType.VARCHAR) for i in range(self.groups)]
            + [(f"flt_{i}", DataType.INTEGER) for i in range(self.filters)]
            + [(f"status_{i}", DataType.VARCHAR) for i in range(self.statuses)]
        )

    def schema(self) -> TableSchema:
        return TableSchema.build(TABLE, self.columns(), primary_key=["id"])


PAPER = Shape(keyfigures=10, groups=9, filters=8, statuses=2)
#: The read-only reporting table: fewer columns, so loading it stays short.
NARROW = Shape(keyfigures=4, groups=4, filters=4, statuses=1)


def _vocabulary(column: str) -> List[str]:
    if column.startswith("status_"):
        return [f"s{i}" for i in range(STATUS_CARDINALITY)]
    position = int(column.split("_")[1])
    return [f"{column}_v{i}" for i in range(25 - position)]


class Shadow:
    """The benchmark's own copy of the table, in growable numpy arrays.

    Ids are dense and equal to row positions, so ``id`` is never stored.
    VARCHAR columns hold codes into :attr:`vocab`.
    """

    def __init__(self, shape: Shape, num_rows: int, rng: np.random.Generator) -> None:
        self.shape = shape
        self.names = [name for name, _ in shape.columns()]
        self.vocab = {
            name: _vocabulary(name)
            for name, dtype in shape.columns()
            if dtype is DataType.VARCHAR
        }
        self.num_rows = num_rows
        self.arrays: Dict[str, np.ndarray] = {}
        for name in self.names[1:]:
            self.arrays[name] = self._draw(name, rng, num_rows)

    def _draw(self, name: str, rng: np.random.Generator, count: int) -> np.ndarray:
        if name.startswith("kf_"):
            return np.round(rng.random(count) * 10_000.0, 4)
        if name.startswith("flt_"):
            return rng.integers(0, FILTER_CARDINALITY, count)
        return rng.integers(0, len(self.vocab[name]), count)

    # -- rows as the program sees them ---------------------------------------------

    def value(self, name: str, row_id: int) -> Any:
        if name == "id":
            return row_id
        raw = self.arrays[name][row_id]
        if name in self.vocab:
            return self.vocab[name][raw]
        return float(raw) if name.startswith("kf_") else int(raw)

    def row(self, row_id: int, columns: Sequence[str]) -> Dict[str, Any]:
        return {name: self.value(name, row_id) for name in columns}

    def rows(self) -> List[Dict[str, Any]]:
        """Every row as a dict, for ``load_rows``."""
        lists = [list(range(self.num_rows))]
        for name in self.names[1:]:
            column = self.arrays[name][: self.num_rows]
            if name in self.vocab:
                words = np.asarray(self.vocab[name], dtype=object)
                lists.append(words[column].tolist())
            else:
                lists.append(column.tolist())
        return [dict(zip(self.names, values)) for values in zip(*lists)]

    def new_row(self, rng: np.random.Generator) -> Dict[str, Any]:
        """A fresh row with the next id (not yet applied to the shadow)."""
        row: Dict[str, Any] = {"id": self.num_rows}
        for name in self.names[1:]:
            raw = self._draw(name, rng, 1)[0]
            if name in self.vocab:
                row[name] = self.vocab[name][raw]
            else:
                row[name] = float(raw) if name.startswith("kf_") else int(raw)
        return row

    # -- acknowledged writes -----------------------------------------------------------

    def append(self, row: Dict[str, Any]) -> None:
        position = self.num_rows
        if position == len(self.arrays[self.names[1]]):
            for name, array in self.arrays.items():
                grown = np.zeros(max(16, 2 * len(array)), dtype=array.dtype)
                grown[: len(array)] = array
                self.arrays[name] = grown
        for name in self.names[1:]:
            self.arrays[name][position] = self._encode(name, row[name])
        self.num_rows += 1

    def assign(self, row_id: int, name: str, value: Any) -> None:
        self.arrays[name][row_id] = self._encode(name, value)

    def _encode(self, name: str, value: Any):
        return self.vocab[name].index(value) if name in self.vocab else value

    # -- reads --------------------------------------------------------------------------

    def live(self, name: str) -> np.ndarray:
        if name == "id":
            return np.arange(self.num_rows)
        return self.arrays[name][: self.num_rows]


# -- predicates and reports ---------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One conjunct: ``column BETWEEN a AND b`` or ``column <op> a``."""

    column: str
    op: str
    value: Any
    high: Any = None

    def sql(self) -> str:
        if self.op == "between":
            return f"{self.column} BETWEEN {self.value} AND {self.high}"
        literal = f"'{self.value}'" if isinstance(self.value, str) else self.value
        return f"{self.column} {self.op} {literal}"

    def mask(self, shadow: Shadow) -> np.ndarray:
        data = shadow.live(self.column)
        value = self.value
        if self.column in shadow.vocab:
            value = shadow.vocab[self.column].index(value)
        if self.op == "between":
            return (data >= value) & (data <= self.high)
        if self.op == "=":
            return data == value
        if self.op == ">=":
            return data >= value
        if self.op == "<":
            return data < value
        raise ValueError(f"unsupported operator {self.op!r}")


def _where(terms: Sequence[Term]) -> str:
    if not terms:
        return ""
    return " WHERE " + " AND ".join(term.sql() for term in terms)


def _mask(terms: Sequence[Term], shadow: Shadow) -> np.ndarray:
    mask = np.ones(shadow.num_rows, dtype=bool)
    for term in terms:
        mask &= term.mask(shadow)
    return mask


@dataclass(frozen=True)
class Aggregate:
    """A (grouped or ungrouped) aggregation report.

    ``aggregates`` holds ``(function, column, alias)``; ``count`` ignores its
    column and renders as ``count(*)``.
    """

    aggregates: Tuple[Tuple[str, str, str], ...]
    terms: Tuple[Term, ...] = ()
    group_by: Optional[str] = None

    @property
    def sql(self) -> str:
        items = [
            f"{func}({'*' if func == 'count' else column}) AS {alias}"
            for func, column, alias in self.aggregates
        ]
        if self.group_by:
            items.insert(0, self.group_by)
        text = f"SELECT {', '.join(items)} FROM {TABLE}{_where(self.terms)}"
        if self.group_by:
            text += f" GROUP BY {self.group_by}"
        return text

    def observed(self, rows: List[Dict[str, Any]]):
        aliases = [alias for _, _, alias in self.aggregates]
        if not self.group_by:
            return tuple(rows[0][alias] for alias in aliases) if len(rows) == 1 else rows
        return {row[self.group_by]: tuple(row[alias] for alias in aliases) for row in rows}

    def expected(self, shadow: Shadow):
        mask = _mask(self.terms, shadow)
        if self.group_by:
            codes = shadow.live(self.group_by)[mask]
            groups = len(shadow.vocab[self.group_by])
        else:
            codes = np.zeros(int(mask.sum()), dtype=np.int64)
            groups = 1
        counts = np.bincount(codes, minlength=groups)
        columns = []
        for func, column, _ in self.aggregates:
            if func == "count":
                columns.append(counts.tolist())
                continue
            values = shadow.live(column)[mask].astype(np.float64)
            if func in ("sum", "avg"):
                sums = np.bincount(codes, weights=values, minlength=groups)
                result = sums if func == "sum" else sums / np.maximum(counts, 1)
            else:
                result = np.full(groups, np.inf if func == "min" else -np.inf)
                (np.minimum if func == "min" else np.maximum).at(result, codes, values)
            columns.append(
                [float(x) if n else None for x, n in zip(result.tolist(), counts)]
            )
        per_group = [tuple(column[g] for column in columns) for g in range(groups)]
        if not self.group_by:
            return per_group[0]
        words = shadow.vocab[self.group_by]
        return {words[g]: per_group[g] for g in range(groups) if counts[g]}


@dataclass(frozen=True)
class RangeSelect:
    """A selective range select returning rows."""

    columns: Tuple[str, ...]
    terms: Tuple[Term, ...]

    @property
    def sql(self) -> str:
        return f"SELECT {', '.join(self.columns)} FROM {TABLE}{_where(self.terms)}"

    def observed(self, rows: List[Dict[str, Any]]):
        return sorted(tuple(row[name] for name in self.columns) for row in rows)

    def expected(self, shadow: Shadow):
        ids = np.nonzero(_mask(self.terms, shadow))[0].tolist()
        return sorted(tuple(shadow.value(name, i) for name in self.columns) for i in ids)


def same(observed, expected) -> bool:
    """Equality with :data:`FLOAT_REL_TOL` on floats, exact elsewhere."""
    if isinstance(expected, float) and isinstance(observed, (int, float)):
        return math.isclose(observed, expected, rel_tol=FLOAT_REL_TOL,
                            abs_tol=FLOAT_ABS_TOL)
    if isinstance(expected, dict):
        return (isinstance(observed, dict) and observed.keys() == expected.keys()
                and all(same(observed[key], expected[key]) for key in expected))
    if isinstance(expected, (list, tuple)):
        return (isinstance(observed, (list, tuple)) and len(observed) == len(expected)
                and all(same(a, b) for a, b in zip(observed, expected)))
    return observed == expected


#: Ad-hoc report kinds, in the order a stream cycles through them.
REPORT_KINDS = ("grouped", "minmax", "grouped", "average", "range")


def ad_hoc_report(shape: Shape, kind: str, rng: np.random.Generator,
                  columns: np.random.Generator):
    """One ad-hoc report of *kind*: columns from *columns*, literals from *rng*.

    ``grouped``: a grouped aggregation over a filter range; ``minmax``: an
    ungrouped MIN/MAX over a range; ``average``: a filtered AVG with a
    group-value equality; ``range``: a selective range select.  Callers
    pass a fixed-seed *columns* generator, so every seed sends the same
    report templates and differs only in literals: the advisor's layout
    then does not depend on which columns a seed happened to touch.
    """
    def column(prefix: str, count: int) -> str:
        return f"{prefix}_{int(columns.integers(count))}"

    low = int(rng.integers(0, FILTER_CARDINALITY - 100))
    if kind == "grouped":
        group = column("grp", shape.groups)
        width = int(rng.integers(50, 400))
        return Aggregate(
            (("sum", column("kf", shape.keyfigures), "total"), ("count", "", "n")),
            (Term(column("flt", shape.filters), "between", low,
                  min(low + width, FILTER_CARDINALITY - 1)),),
            group,
        )
    if kind == "minmax":
        return Aggregate(
            (("min", column("kf", shape.keyfigures), "lo"),
             ("max", column("kf", shape.keyfigures), "hi")),
            (Term(column("flt", shape.filters), "between", low, low + 100),),
        )
    if kind == "average":
        group = column("grp", shape.groups)
        word = f"{group}_v{int(rng.integers(len(_vocabulary(group))))}"
        return Aggregate(
            (("avg", column("kf", shape.keyfigures), "mean"), ("count", "", "n")),
            (Term(column("flt", shape.filters), ">=", low), Term(group, "=", word)),
        )
    first = int(columns.integers(shape.filters))
    second = (first + 1 + int(columns.integers(shape.filters - 1))) % shape.filters
    return RangeSelect(
        ("id", column("kf", shape.keyfigures), column("grp", shape.groups)),
        (Term(f"flt_{first}", "between", low, low + 1),
         Term(f"flt_{second}", "<", 100)),
    )


#: Recurring dashboard reports of the hybrid workload (no literals, so the
#: same text repeats and the advisor can propose materialized views).
DASHBOARDS = (
    Aggregate((("sum", "kf_0", "total"), ("count", "", "n")), (), "grp_0"),
    Aggregate((("count", "", "n"), ("avg", "kf_1", "mean")), (), "status_0"),
    Aggregate((("max", "kf_2", "hi"), ("min", "kf_3", "lo")), (), "grp_1"),
    Aggregate((("sum", "kf_4", "total"), ("count", "", "n"))),
)


# -- statements --------------------------------------------------------------------------


@dataclass
class Statement:
    """One statement of a stream, with its check and its shadow update.

    ``sql`` is literal text, or the key of a prepared statement when
    ``params`` is not ``None``.  ``check`` returns whether a result is right;
    ``apply`` records an acknowledged write in the shadow.
    """

    kind: str
    sql: str
    params: Optional[List[Any]]
    check: Callable[[Any], bool]
    apply: Callable[[], None] = lambda: None


POINT_COLUMNS = ("id", "flt_0", "status_0", "status_1")


def point_statement(kind: str, shadow: Shadow, rng: np.random.Generator,
                    prepared: bool) -> Statement:
    """A point select, point update or single-row insert; keys uniform over live ids."""
    if kind == "insert":
        row = shadow.new_row(rng)
        if prepared:
            sql, params = "insert", [row[name] for name in shadow.names]
        else:
            values = ", ".join(
                f"'{row[name]}'" if isinstance(row[name], str) else repr(row[name])
                for name in shadow.names
            )
            sql = f"INSERT INTO {TABLE} ({', '.join(shadow.names)}) VALUES ({values})"
            params = None
        return Statement(kind, sql, params,
                         lambda result: result.affected_rows == 1,
                         lambda: shadow.append(row))
    row_id = int(rng.integers(shadow.num_rows))
    if kind == "select":
        if prepared:
            sql, params = "select", [row_id]
        else:
            sql = f"SELECT {', '.join(POINT_COLUMNS)} FROM {TABLE} WHERE id = {row_id}"
            params = None
        return Statement(kind, sql, params,
                         lambda result: result.rows == [shadow.row(row_id, POINT_COLUMNS)])
    column = "status_0" if prepared else f"status_{int(rng.integers(shadow.shape.statuses))}"
    value = f"s{int(rng.integers(STATUS_CARDINALITY))}"
    if prepared:
        sql, params = "update", [value, row_id]
    else:
        sql = f"UPDATE {TABLE} SET {column} = '{value}' WHERE id = {row_id}"
        params = None
    return Statement(kind, sql, params,
                     lambda result: result.affected_rows == 1,
                     lambda: shadow.assign(row_id, column, value))


def prepared_sql(shape: Shape) -> Dict[str, str]:
    """The three prepared statements of ``oltp_point``, by statement kind."""
    names = [name for name, _ in shape.columns()]
    return {
        "select": f"SELECT {', '.join(POINT_COLUMNS)} FROM {TABLE} WHERE id = ?",
        "update": f"UPDATE {TABLE} SET status_0 = ? WHERE id = ?",
        "insert": (f"INSERT INTO {TABLE} ({', '.join(names)}) "
                   f"VALUES ({', '.join('?' for _ in names)})"),
    }


def report_statement(report, shadow: Shadow, memo: Optional[dict] = None) -> Statement:
    """A report checked against the shadow (*memo* caches answers of a read-only table)."""
    def check(result) -> bool:
        if memo is None:
            expected = report.expected(shadow)
        else:
            if report not in memo:
                memo[report] = report.expected(shadow)
            expected = memo[report]
        return same(report.observed(result.rows), expected)
    return Statement("report", report.sql, None, check)


def shuffled_deck(deck: Sequence[str], rng: np.random.Generator) -> Iterator[str]:
    """Endless kinds, each block of ``len(deck)`` a fresh shuffle of *deck*.

    Blocks fix the mix exactly, so two seeds differ in order and keys but not
    in how many statements of each kind they send.
    """
    while True:
        for index in rng.permutation(len(deck)):
            yield deck[index]


#: The 40/40/20 point mix, and the write-only mix of the recovery tail.
POINT_DECK = ("select", "select", "update", "update", "insert")
WRITE_DECK = ("update", "update", "insert")


def point_mix(shadow: Shadow, rng: np.random.Generator, prepared: bool,
              deck: Sequence[str] = POINT_DECK) -> Iterator[Statement]:
    """An endless stream of point statements dealt from *deck*."""
    for kind in shuffled_deck(deck, rng):
        yield point_statement(kind, shadow, rng, prepared)
