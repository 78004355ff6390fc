"""Cross-store differential fuzzing: the stores must be indistinguishable.

The storage advisor's whole premise is that moving a table between the row
store, the column store, or a partitioned hybrid layout changes *costs* and
never *semantics*.  This suite pins that with a seeded, deterministic query
fuzzer: random filters, group-bys, joins and aggregates — over data with
all-NULL columns, *mixed* NULL columns (NULL alongside values — the column
store's reserved-code-0 dictionaries), NaN values, duplicate keys, and empty
tables, interleaved with random DML (including NULL↔value updates) —
executed against all three layouts, asserting identical results everywhere.
A second differential axis pins the scan paths themselves: every layout must
return identical rows with code-domain predicates + zone-map pruning enabled
and with both disabled (the decode-and-compare reference).

Vectorized rewrites (PR 1) and the late-materialized dictionary-code
pipeline both re-implement scalar semantics in bulk form; this suite is the
net that catches any path where the two drift apart.  Results are compared
as multisets (partitioned tables return rows in partition order) with
NaN-aware float comparison (concatenating partitions permutes the summation
order of grouped aggregates).

Runs in tier-1; the ``fuzz`` marker lets CI invoke it standalone
(``pytest -m fuzz``).
"""

import math
import random

import pytest

from repro.engine.database import HybridDatabase
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.query.builder import aggregate, delete, insert, select, update
from repro.query.predicates import (
    And,
    Between,
    CompareOp,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
)

pytestmark = pytest.mark.fuzz

FACTS_SCHEMA = TableSchema(
    "facts",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("category", DataType.VARCHAR),
        Column("amount", DataType.DOUBLE),
        Column("quantity", DataType.INTEGER),
        Column("customer", DataType.INTEGER),
        Column("note", DataType.VARCHAR, nullable=True),
        # Mixed NULL/value column: exercises the reserved-code-0 dictionary.
        Column("tag", DataType.VARCHAR, nullable=True),
    ),
)

TAGS = ["t0", "t1", "t2", "t3"]

DIM_SCHEMA = TableSchema.build(
    "customers",
    [
        ("customer_id", DataType.INTEGER),
        ("segment", DataType.VARCHAR),
        ("score", DataType.DOUBLE),
    ],
    primary_key=["customer_id"],
)

CATEGORIES = ["alpha", "beta", "gamma", "delta", "epsilon"]
NUM_CUSTOMERS = 18  # facts reference ids up to 25: some rows have no partner

QUERIES_PER_SEED = 50
DML_EVERY = 12


def generate_rows(rng, num_rows, id_offset=0):
    """Fact rows with duplicate keys, NaN amounts and an all-NULL column."""
    rows = []
    for i in range(num_rows):
        amount = round(rng.uniform(-50.0, 150.0), 2)
        if rng.random() < 0.05:
            amount = float("nan")
        rows.append(
            {
                "id": id_offset + i,
                "category": rng.choice(CATEGORIES),
                "amount": amount,
                "quantity": rng.randrange(0, 7),  # few distinct: duplicates
                "customer": rng.randrange(0, 26),
                # note stays NULL: the all-NULL dictionary column.
                # tag mixes NULL with values: reserved code 0 next to codes.
                "tag": None if rng.random() < 0.3 else rng.choice(TAGS),
            }
        )
    return rows


def generate_dim_rows():
    return [
        {"customer_id": i, "segment": f"seg_{i % 5}", "score": round(i * 1.5, 2)}
        for i in range(NUM_CUSTOMERS)
    ]


def build_layouts(rng, rows, dim_rows):
    """The same logical database in three physical layouts."""
    layouts = {}
    for label, store in (("row", Store.ROW), ("column", Store.COLUMN)):
        database = HybridDatabase()
        database.create_table(FACTS_SCHEMA, store=store)
        database.create_table(DIM_SCHEMA, store=store)
        if rows:
            database.load_rows("facts", rows)
        database.load_rows("customers", dim_rows)
        layouts[label] = database

    database = HybridDatabase()
    database.create_table(FACTS_SCHEMA, store=Store.ROW)
    database.create_table(DIM_SCHEMA, store=Store.COLUMN)
    if rows:
        database.load_rows("facts", rows)
    database.load_rows("customers", generate_dim_rows())
    split_at = rng.randrange(0, 7)
    database.apply_partitioning(
        "facts",
        TablePartitioning(
            horizontal=HorizontalPartitionSpec(
                predicate=Comparison("quantity", CompareOp.GE, split_at)
            ),
            vertical=VerticalPartitionSpec(
                row_store_columns=("quantity", "customer", "note"),
                # tag goes to the column store so the partitioned layout
                # exercises the mixed-NULL dictionary.
                column_store_columns=("category", "amount", "tag"),
            ),
        ),
    )
    layouts["partitioned"] = database
    return layouts


# -- random query generation ----------------------------------------------------------


def random_predicate(rng, depth=0):
    choice = rng.random()
    if depth < 2 and choice < 0.25:
        children = tuple(random_predicate(rng, depth + 1) for _ in range(rng.randrange(2, 4)))
        return And(children) if rng.random() < 0.5 else Or(children)
    if depth < 2 and choice < 0.32:
        return Not(random_predicate(rng, depth + 1))
    pick = rng.randrange(9)
    if pick == 0:
        return Comparison("category", rng.choice(list(CompareOp)),
                          rng.choice(CATEGORIES + ["unknown"]))
    if pick == 1:
        return Comparison("amount", rng.choice(list(CompareOp)),
                          round(rng.uniform(-60.0, 160.0), 1))
    if pick == 2:
        return Comparison("quantity", rng.choice(list(CompareOp)), rng.randrange(-1, 8))
    if pick == 3:
        low = round(rng.uniform(-60.0, 100.0), 1)
        return Between("amount", low, round(low + rng.uniform(0.0, 80.0), 1),
                       include_low=rng.random() < 0.8, include_high=rng.random() < 0.8)
    if pick == 4:
        low = rng.randrange(0, 5)
        return Between("quantity", low, low + rng.randrange(0, 4))
    if pick == 5:
        return InList("category", tuple(
            rng.sample(CATEGORIES + ["unknown"], rng.randrange(1, 4))
        ))
    if pick == 6:
        return IsNull("note") if rng.random() < 0.5 else Comparison(
            "note", rng.choice([CompareOp.EQ, CompareOp.NE]), "anything"
        )
    if pick == 7:
        roll = rng.random()
        if roll < 0.3:
            return IsNull("tag")
        if roll < 0.6:
            return Comparison("tag", rng.choice(list(CompareOp)),
                              rng.choice(TAGS + ["unknown"]))
        return InList("tag", tuple(
            rng.sample(TAGS + [None], rng.randrange(1, 4))
        ))
    return InList("quantity", tuple(rng.sample(range(8), rng.randrange(1, 4))))


def random_select(rng):
    builder = select("facts")
    if rng.random() < 0.7:
        builder = builder.where(random_predicate(rng))
    if rng.random() < 0.5:
        columns = rng.sample(FACTS_SCHEMA.column_names, rng.randrange(1, 5))
        builder = builder.columns(*columns)
    return builder.build()


def random_aggregation(rng):
    builder = aggregate("facts")
    joined = rng.random() < 0.3
    if joined:
        builder = builder.join("customers", "customer", "customer_id")
    # MIN/MAX stay off the NaN-bearing float column: the scalar min/max fold
    # is order-dependent around NaN, and partitioning permutes row order.
    choices = [
        lambda b: b.count(),
        lambda b: b.sum("amount"),
        lambda b: b.avg("amount"),
        lambda b: b.sum("quantity"),
        lambda b: b.avg("quantity"),
        lambda b: b.min("quantity"),
        lambda b: b.max("quantity"),
        lambda b: b.min("category"),
        lambda b: b.max("category"),
        lambda b: b.count("note"),
        lambda b: b.min("note"),
        lambda b: b.count("tag"),
        lambda b: b.min("tag"),
        lambda b: b.max("tag"),
    ]
    if joined:
        choices.extend([
            lambda b: b.sum("customers.score"),
            lambda b: b.avg("customers.score"),
        ])
    for pick in rng.sample(choices, rng.randrange(1, 4)):
        builder = pick(builder)
    group_candidates = ["category", "quantity", "note", "amount", "tag"]
    if joined:
        group_candidates.append("customers.segment")
    if rng.random() < 0.65:
        builder = builder.group_by(
            *rng.sample(group_candidates, rng.randrange(1, 3))
        )
    if rng.random() < 0.5:
        builder = builder.where(random_predicate(rng))
    return builder.build()


def random_dml(rng, next_id):
    pick = rng.randrange(3)
    if pick == 0:
        rows = generate_rows(rng, rng.randrange(1, 6), id_offset=next_id)
        return insert("facts", rows), next_id + len(rows)
    if pick == 1:
        assignments = {}
        if rng.random() < 0.6:
            assignments["category"] = rng.choice(CATEGORIES + ["rewritten"])
        if rng.random() < 0.5:
            assignments["quantity"] = rng.randrange(0, 7)
        if rng.random() < 0.4:
            # NULL <-> value transitions on the mixed-NULL column.
            assignments["tag"] = rng.choice(TAGS + [None, "fresh"])
        if not assignments:
            assignments["amount"] = round(rng.uniform(0.0, 10.0), 2)
        return update("facts", assignments, random_predicate(rng)), next_id
    return delete("facts", random_predicate(rng)), next_id


# -- result comparison -----------------------------------------------------------------


def _sort_token(value):
    if value is None:
        return "\x00null"
    if isinstance(value, float):
        if value != value:
            return "\x01nan"
        return f"{value:.6f}"
    return f"{type(value).__name__}:{value!r}"


def _row_sort_key(row):
    return [(key, _sort_token(row[key])) for key in sorted(row)]


def _values_equal(left, right):
    if isinstance(left, float) and isinstance(right, float):
        if left != left or right != right:
            return left != left and right != right
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-9)
    return left == right


def assert_rows_equivalent(context, left, right):
    """Order-insensitive, NaN-aware row-multiset equality."""
    assert len(left) == len(right), context
    for row_left, row_right in zip(
        sorted(left, key=_row_sort_key), sorted(right, key=_row_sort_key)
    ):
        assert set(row_left) == set(row_right), context
        for key in row_left:
            assert _values_equal(row_left[key], row_right[key]), (
                f"{context}: {key}={row_left[key]!r} vs {row_right[key]!r}"
            )


# -- the fuzzer ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_layouts_agree_on_random_workload(seed):
    rng = random.Random(seed)
    num_rows = rng.choice([0, rng.randrange(1, 60), rng.randrange(60, 260)])
    rows = generate_rows(rng, num_rows)
    layouts = build_layouts(rng, rows, generate_dim_rows())
    next_id = num_rows

    for step in range(QUERIES_PER_SEED):
        if step and step % DML_EVERY == 0:
            statement, next_id = random_dml(rng, next_id)
            outcomes = {
                label: database.execute(statement)
                for label, database in layouts.items()
            }
            affected = {
                label: result.affected_rows for label, result in outcomes.items()
            }
            assert len(set(affected.values())) == 1, (
                f"seed={seed} step={step} {statement!r}: {affected}"
            )
            continue
        query = random_select(rng) if rng.random() < 0.4 else random_aggregation(rng)
        context = f"seed={seed} step={step} query={query!r}"
        results = {
            label: database.execute(query) for label, database in layouts.items()
        }
        reference = results["row"].rows
        for label in ("column", "partitioned"):
            assert_rows_equivalent(f"{context} [{label}]", reference, results[label].rows)

    # After the query/DML stream, the stores must agree cell for cell.
    final = select("facts").build()
    reference = layouts["row"].execute(final).rows
    for label in ("column", "partitioned"):
        assert_rows_equivalent(
            f"seed={seed} final state [{label}]",
            reference,
            layouts[label].execute(final).rows,
        )


@pytest.mark.parametrize("seed", range(2))
def test_pruning_and_code_domain_toggles_preserve_results(seed):
    """Scan-path differential: pruned/code-domain results == decode/compare.

    Every read query is executed twice against the same databases — once
    with code-domain predicates and zone-map pruning enabled (the default)
    and once with both disabled — and the row multisets must agree on every
    layout.  DML runs once, between the paired reads.
    """
    from repro.engine.column_store import code_domain_disabled
    from repro.engine.zonemap import zone_pruning_disabled

    rng = random.Random(1000 + seed)
    rows = generate_rows(rng, rng.randrange(40, 200))
    layouts = build_layouts(rng, rows, generate_dim_rows())
    next_id = len(rows)

    for step in range(25):
        if step and step % 8 == 0:
            statement, next_id = random_dml(rng, next_id)
            for database in layouts.values():
                database.execute(statement)
            continue
        query = random_select(rng) if rng.random() < 0.5 else random_aggregation(rng)
        for label, database in layouts.items():
            fast = database.execute(query).rows
            with code_domain_disabled(), zone_pruning_disabled():
                slow = database.execute(query).rows
            assert_rows_equivalent(
                f"seed={seed} step={step} [{label}] pruning-vs-decode "
                f"query={query!r}",
                fast,
                slow,
            )


@pytest.mark.parametrize("seed", range(2))
def test_aggregate_pushdown_toggle_preserves_results_and_charges(seed):
    """Pushdown differential: pushdown results == decode-then-reduce results.

    Every aggregation is executed twice against the same databases — once
    with aggregate pushdown enabled (zero-scan answers, code-domain grouped
    aggregation, partition-partial merging) and once under
    ``aggregate_pushdown_disabled()`` — and both the row multisets and the
    :class:`CostBreakdown` components must agree on every layout: pushdown
    is a wall-clock optimisation, never a cost-model or semantics change.
    Covers grouped + ungrouped aggregates over mixed-NULL, NaN,
    empty-partition and post-DML tables.
    """
    from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled

    rng = random.Random(2000 + seed)
    num_rows = rng.choice([0, rng.randrange(1, 60), rng.randrange(60, 260)])
    rows = generate_rows(rng, num_rows)
    layouts = build_layouts(rng, rows, generate_dim_rows())
    next_id = num_rows

    for step in range(30):
        if step and step % 7 == 0:
            statement, next_id = random_dml(rng, next_id)
            for database in layouts.values():
                database.execute(statement)
            continue
        query = random_aggregation(rng)
        for label, database in layouts.items():
            pushed = database.execute(query)
            with aggregate_pushdown_disabled():
                reference = database.execute(query)
            context = (
                f"seed={seed} step={step} [{label}] pushdown-vs-decode "
                f"query={query!r}"
            )
            assert_rows_equivalent(context, pushed.rows, reference.rows)
            assert pushed.cost.components == reference.cost.components, context


@pytest.mark.parametrize("seed", range(2))
def test_delta_writes_toggle_preserves_results_and_charges(seed):
    """Delta/main differential: buffered writes == inline writes, in full.

    Two databases per layout run the identical statement stream — one with
    delta writes on and a small merge threshold (so scans constantly read
    main+delta unions and merges fire mid-stream), one built and operated
    entirely under ``delta_writes_disabled()`` (the inline pre-split
    reference).  Every statement must agree on rows, affected counts *and*
    bit-identical :class:`CostBreakdown` components: the split is a
    wall-clock optimisation, never a semantics or cost-model change.  The
    stream includes duplicate-primary-key batches, whose mid-batch
    partial-commit contract must hold identically on both paths.
    """
    import contextlib

    from repro.engine.column_store import delta_writes_disabled
    from repro.errors import ExecutionError

    rng = random.Random(3000 + seed)
    rows = generate_rows(rng, rng.randrange(20, 120))
    dim_rows = generate_dim_rows()
    split_at = rng.randrange(0, 7)

    def construct(reference):
        guard = delta_writes_disabled() if reference else contextlib.nullcontext()
        with guard:
            databases = {}
            database = HybridDatabase()
            if not reference:
                database.delta_merge_threshold = 16
            database.create_table(FACTS_SCHEMA, store=Store.COLUMN)
            database.create_table(DIM_SCHEMA, store=Store.COLUMN)
            database.load_rows("facts", rows)
            database.load_rows("customers", dim_rows)
            databases["column"] = database

            database = HybridDatabase()
            if not reference:
                database.delta_merge_threshold = 16
            database.create_table(FACTS_SCHEMA, store=Store.ROW)
            database.create_table(DIM_SCHEMA, store=Store.COLUMN)
            database.load_rows("facts", rows)
            database.load_rows("customers", dim_rows)
            database.apply_partitioning(
                "facts",
                TablePartitioning(
                    horizontal=HorizontalPartitionSpec(
                        predicate=Comparison("quantity", CompareOp.GE, split_at)
                    ),
                    vertical=VerticalPartitionSpec(
                        row_store_columns=("quantity", "customer", "note"),
                        column_store_columns=("category", "amount", "tag"),
                    ),
                ),
            )
            databases["partitioned"] = database
            return databases

    delta_dbs = construct(reference=False)
    inline_dbs = construct(reference=True)
    next_id = 10_000  # clear of the loaded ids

    def run_both(label, statement):
        outcomes = []
        for databases, reference in ((delta_dbs, False), (inline_dbs, True)):
            guard = delta_writes_disabled() if reference else contextlib.nullcontext()
            with guard:
                try:
                    outcomes.append(("ok", databases[label].execute(statement)))
                except ExecutionError as error:
                    outcomes.append(("error", str(error)))
        return outcomes

    for step in range(36):
        if step % 11 == 5:
            # Duplicate PK mid-batch: row one commits, rows two/three do not
            # — on both paths, with identical errors and charges intact.
            batch = generate_rows(rng, 1, id_offset=next_id) * 2
            batch += generate_rows(rng, 1, id_offset=next_id + 1)
            statement = insert("facts", batch)
            next_id += 2  # id used by row one; +1 burned by the lost row
            for label in delta_dbs:
                (fast_kind, fast), (slow_kind, slow) = run_both(label, statement)
                context = f"seed={seed} step={step} [{label}] dup-pk"
                assert fast_kind == slow_kind == "error", context
                assert fast == slow, context
            continue
        if step % 4 == 3:
            statement, next_id = random_dml(rng, next_id)
            for label in delta_dbs:
                (fast_kind, fast), (slow_kind, slow) = run_both(label, statement)
                context = f"seed={seed} step={step} [{label}] {statement!r}"
                assert fast_kind == slow_kind == "ok", context
                assert fast.affected_rows == slow.affected_rows, context
                assert fast.cost.components == slow.cost.components, context
            continue
        query = random_select(rng) if rng.random() < 0.5 else random_aggregation(rng)
        for label in delta_dbs:
            (fast_kind, fast), (slow_kind, slow) = run_both(label, query)
            context = (
                f"seed={seed} step={step} [{label}] delta-vs-inline "
                f"query={query!r}"
            )
            assert fast_kind == slow_kind == "ok", context
            assert_rows_equivalent(context, fast.rows, slow.rows)
            assert fast.cost.components == slow.cost.components, context

    # Merging everything must converge on the inline physical state: the
    # same probes still charge identically afterwards.
    probe = select("facts").build()
    for label in delta_dbs:
        delta_dbs[label].merge_deltas()
        fast = delta_dbs[label].execute(probe)
        with delta_writes_disabled():
            slow = inline_dbs[label].execute(probe)
        context = f"seed={seed} [{label}] post-merge"
        assert_rows_equivalent(context, fast.rows, slow.rows)
        assert fast.cost.components == slow.cost.components, context


@pytest.mark.matview
@pytest.mark.parametrize("seed", range(2))
def test_matview_toggle_preserves_results_and_charges(seed):
    """Matview differential: served views == base execution, in full.

    Two sessions over identical databases — one with materialized views on
    the recurring aggregate shapes, one without — run the same interleaved
    stream of random DML and recurring aggregations.  Every DML must bill
    identically on both sessions (maintenance is off the DML path), every
    served aggregate must return the reference's row multiset (staleness is
    repaired before serving, never served), and re-running under
    ``matview_disabled()`` must charge the :class:`CostBreakdown`
    bit-identically to the view-free session: views are a wall-clock
    optimisation, never a cost-model or semantics change.  Seed 1 partitions
    the base table, so refreshes alternate between the incremental
    (hot-only DML) and full (main touched / NaN group keys) paths.
    """
    from repro.api import connect
    from repro.engine.matview import matview_disabled

    recurring = [
        aggregate("facts").sum("quantity").count().group_by("category").build(),
        aggregate("facts").avg("amount").count("tag").group_by("tag").build(),
        # NaN group keys: the merge hazard forces the full-recompute refresh.
        aggregate("facts").count().sum("quantity").group_by("amount").build(),
    ]

    rng = random.Random(6000 + seed)
    rows = generate_rows(rng, rng.randrange(40, 200))

    def build_database():
        database = HybridDatabase()
        database.create_table(FACTS_SCHEMA, store=Store.COLUMN)
        database.create_table(DIM_SCHEMA, store=Store.COLUMN)
        database.load_rows("facts", rows)
        database.load_rows("customers", generate_dim_rows())
        if seed % 2:
            database.apply_partitioning(
                "facts",
                TablePartitioning(
                    horizontal=HorizontalPartitionSpec(
                        predicate=Comparison("quantity", CompareOp.GE, 4)
                    )
                ),
            )
        return database

    viewful = connect(database=build_database())
    plain = connect(database=build_database())
    for index, query in enumerate(recurring):
        viewful.create_view(f"mv_{index}", query)

    next_id = len(rows)
    aggregate_steps = 0
    for step in range(24):
        if step and step % 3 == 0:
            statement, next_id = random_dml(rng, next_id)
            with_views = viewful.execute(statement)
            without = plain.execute(statement)
            context = f"seed={seed} step={step} dml={statement!r}"
            assert with_views.cost.components == without.cost.components, context
            continue
        aggregate_steps += 1
        query = recurring[step % len(recurring)]
        context = f"seed={seed} step={step} matview-vs-base query={query!r}"
        served = viewful.execute(query)
        reference = plain.execute(query)
        assert served.view_hits, context  # always rewritten, stale or not
        assert_rows_equivalent(context, served.rows, reference.rows)
        with matview_disabled():
            fallback = viewful.execute(query)
        assert not fallback.view_hits, context
        assert_rows_equivalent(context, fallback.rows, reference.rows)
        assert fallback.cost.components == reference.cost.components, context

    stats = viewful.stats()
    assert stats.view_rewrite_hits == aggregate_steps
    assert stats.view_incremental_refreshes + stats.view_full_refreshes > 0, (
        f"seed={seed}: no refresh ever ran — the DML stream never staled "
        f"the views"
    )


def test_fuzz_volume():
    """The suite executes the advertised ~200 differential queries."""
    assert 4 * QUERIES_PER_SEED >= 200
