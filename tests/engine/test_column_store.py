"""Tests for the column store backend."""

import pytest

from repro.engine.column_store import SCAN_MATERIALIZATION_THRESHOLD, ColumnStoreTable
from repro.engine.schema import TableSchema
from repro.engine.timing import CostAccountant
from repro.engine.types import DataType, Store
from repro.errors import ExecutionError
from repro.query.predicates import And, Or, between, eq, ge, in_list, lt, ne


@pytest.fixture
def schema() -> TableSchema:
    return TableSchema.build(
        "items",
        [
            ("id", DataType.INTEGER),
            ("name", DataType.VARCHAR),
            ("price", DataType.DOUBLE),
            ("stock", DataType.INTEGER),
        ],
        primary_key=["id"],
    )


@pytest.fixture
def table(schema) -> ColumnStoreTable:
    store = ColumnStoreTable(schema)
    store.bulk_load([
        {"id": i, "name": f"item_{i % 5}", "price": i * 1.5, "stock": i % 10}
        for i in range(100)
    ])
    return store


class TestBasics:
    def test_store_identity(self, table):
        assert table.store is Store.COLUMN

    def test_compression_rate_bounds(self, table):
        assert 0.0 < table.compression_rate() <= 1.0
        assert table.compression_rate("name") < 1.0  # only 5 distinct values

    def test_code_bytes_smaller_than_raw_for_low_cardinality(self, table):
        assert table.column_code_bytes("name") < 100 * DataType.VARCHAR.width_bytes

    def test_implicit_index_everywhere(self, table):
        assert table.has_index("price")
        assert table.has_index("name")


class TestInsertsUpdates:
    def test_insert_appends(self, table):
        table.insert_rows([{"id": 200, "name": "new", "price": 0.5, "stock": 3}])
        assert table.num_rows == 101
        assert table.column_values("name", [100]) == ["new"]

    def test_duplicate_primary_key_rejected(self, table):
        with pytest.raises(ExecutionError):
            table.insert_rows([{"id": 0, "name": "dup", "price": 0.0, "stock": 0}])

    def test_insert_charges_per_cell(self, schema):
        table = ColumnStoreTable(schema)
        accountant = CostAccountant()
        table.insert_rows([{"id": 1, "name": "a", "price": 1.0, "stock": 1}], accountant)
        assert accountant.snapshot()["column_insert"] == pytest.approx(
            schema.num_columns * 550.0
        )

    def test_duplicate_pk_mid_batch_keeps_earlier_rows(self, schema):
        """Partial-state contract of the columnar multi-row insert.

        A duplicate primary key aborts the batch at the offending row: the
        earlier rows of the batch are inserted (and charged per row), the
        offending and later rows are not — exactly like the per-row append
        loop behaved.
        """
        table = ColumnStoreTable(schema)
        table.insert_rows([{"id": 0, "name": "seed", "price": 0.0, "stock": 0}])
        accountant = CostAccountant()
        batch = [
            {"id": 1, "name": "a", "price": 1.0, "stock": 1},
            {"id": 2, "name": "b", "price": 2.0, "stock": 2},
            {"id": 0, "name": "dup", "price": 9.0, "stock": 9},  # duplicate
            {"id": 3, "name": "c", "price": 3.0, "stock": 3},  # never reached
        ]
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            table.insert_rows(batch, accountant)
        assert table.num_rows == 3
        assert table.column_values("id") == [0, 1, 2]
        assert table.column_values("name") == ["seed", "a", "b"]
        # The two inserted rows are charged per row; the duplicate row pays
        # its uniqueness probe but no insert, the row after it nothing.
        snapshot = accountant.snapshot()
        assert snapshot["column_insert"] == pytest.approx(
            2 * schema.num_columns * 550.0
        )
        assert snapshot["index_probe"] == pytest.approx(
            accountant.device.hash_probes(3)
        )
        # The failed batch leaves the table fully usable: re-inserting the
        # remaining rows (with a fresh id for the duplicate) succeeds and the
        # duplicate key is still taken.
        with pytest.raises(ExecutionError):
            table.insert_rows([{"id": 0, "name": "x", "price": 0.0, "stock": 0}])
        table.insert_rows([{"id": 3, "name": "c", "price": 3.0, "stock": 3}])
        assert table.column_values("id") == [0, 1, 2, 3]

    def test_intra_batch_duplicate_pk_keeps_first_occurrence(self, schema):
        table = ColumnStoreTable(schema)
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            table.insert_rows([
                {"id": 7, "name": "first", "price": 1.0, "stock": 1},
                {"id": 7, "name": "second", "price": 2.0, "stock": 2},
            ])
        assert table.num_rows == 1
        assert table.column_values("name") == ["first"]

    def test_validation_error_mid_batch_keeps_earlier_rows(self, schema):
        table = ColumnStoreTable(schema)
        with pytest.raises(Exception):
            table.insert_rows([
                {"id": 1, "name": "ok", "price": 1.0, "stock": 1},
                {"id": 2, "name": "bad", "price": "not-a-price", "stock": 2},
            ])
        assert table.num_rows == 1
        assert table.column_values("name") == ["ok"]

    def _nullable_schema(self):
        from repro.engine.schema import Column
        from repro.engine.types import DataType as DT

        return TableSchema(
            "n",
            (
                Column("id", DT.INTEGER, primary_key=True),
                Column("v", DT.DOUBLE, nullable=True),
            ),
        )

    def test_null_mixes_with_values_via_reserved_code_zero(self):
        """NULL lives alongside real values: the dictionary reserves code 0.

        Adding the first NULL shifts every stored value code up by one, and
        the value codes keep mirroring the value sort order — the property
        the code-range predicate translation relies on.
        """
        table = ColumnStoreTable(self._nullable_schema())
        table.insert_rows([{"id": 0, "v": 1.0}])
        table.insert_rows([{"id": 1, "v": None}, {"id": 2, "v": 2.0}])
        assert table.all_rows() == [
            {"id": 0, "v": 1.0}, {"id": 1, "v": None}, {"id": 2, "v": 2.0}
        ]
        table.merge_delta()  # inserts buffer in the delta; codes live in main
        compressed = table._columns["v"]
        assert compressed.dictionary.has_null
        assert compressed.dictionary.encode_existing(None) == 0
        assert compressed.dictionary.encode_existing(1.0) == 1
        assert compressed.dictionary.encode_existing(2.0) == 2
        assert compressed.null_count == 1

    def test_values_into_all_null_column(self):
        table = ColumnStoreTable(self._nullable_schema())
        table.insert_rows([{"id": 0}])
        table.insert_rows([{"id": 1, "v": 2.0}])
        table.insert_rows([{"id": 2, "v": float("nan")}])
        values = table.column_values("v")
        assert values[0] is None and values[1] == 2.0
        assert values[2] != values[2]  # NaN survives, sorted last
        table.merge_delta()
        dictionary = table._columns["v"].dictionary
        assert dictionary.nan_code == len(dictionary) - 1

    def test_mixed_null_predicates_run_in_the_code_domain(self):
        from repro.query.predicates import IsNull, ge, lt

        table = ColumnStoreTable(self._nullable_schema())
        table.insert_rows(
            [{"id": i, "v": None if i % 3 == 0 else float(i)} for i in range(12)]
        )
        assert table.filter_positions(IsNull("v")).tolist() == [0, 3, 6, 9]
        # NULL rows never match comparisons, in either direction.
        matches = set(table.filter_positions(ge("v", 5.0)).tolist())
        assert matches == {5, 7, 8, 10, 11}
        matches = set(table.filter_positions(lt("v", 5.0)).tolist())
        assert matches == {1, 2, 4}

    def test_update_charges_full_row_reinsert(self, table):
        accountant = CostAccountant()
        table.update_rows([3], {"stock": 42}, accountant)
        assert table.column_values("stock", [3]) == [42]
        assert accountant.snapshot()["column_update"] == pytest.approx(
            table.schema.num_columns * 800.0
        )

    def test_update_primary_key_checks_uniqueness(self, table):
        with pytest.raises(ExecutionError):
            table.update_rows([3], {"id": 4})
        table.update_rows([3], {"id": 1000})
        assert table.column_values("id", [3]) == [1000]

    def test_delete_rows(self, table):
        table.delete_rows([0, 1])
        assert table.num_rows == 98
        assert table.column_values("id", [0]) == [2]


class TestFilterPositions:
    def test_equality_vectorised(self, table):
        accountant = CostAccountant()
        positions = table.filter_positions(eq("name", "item_2"), accountant)
        assert len(positions) == 20
        snapshot = accountant.snapshot()
        assert snapshot.get("column_scan", 0) > 0
        assert snapshot.get("vector_compare", 0) > 0
        assert "predicate_eval" not in snapshot

    def test_between_uses_dictionary_ranges(self, table):
        positions = table.filter_positions(between("id", 10, 19))
        assert sorted(int(p) for p in positions) == list(range(10, 20))

    def test_open_comparisons(self, table):
        assert len(table.filter_positions(ge("id", 90))) == 10
        assert len(table.filter_positions(lt("id", 10))) == 10
        assert len(table.filter_positions(ne("name", "item_0"))) == 80

    def test_in_list(self, table):
        positions = table.filter_positions(in_list("stock", [0, 1]))
        assert len(positions) == 20

    def test_equality_with_unknown_literal(self, table):
        assert len(table.filter_positions(eq("name", "missing"))) == 0

    def test_and_of_simple_predicates_vectorised(self, table):
        positions = table.filter_positions(
            And((eq("name", "item_2"), ge("id", 50)))
        )
        assert all(int(p) >= 50 for p in positions)
        assert len(positions) == 10

    def test_or_compiles_to_code_domain(self, table):
        accountant = CostAccountant()
        positions = table.filter_positions(
            Or((eq("name", "item_0"), eq("name", "item_1"))), accountant
        )
        assert len(positions) == 40
        snapshot = accountant.snapshot()
        assert snapshot.get("vector_compare", 0) > 0
        assert "predicate_eval" not in snapshot
        assert "dictionary_decode" not in snapshot

    def test_nan_in_list_matches_nothing_in_code_domain(self):
        """IN is chained equality: a NaN member contributes no member code.

        The code-domain mask, the decode fallback and the scalar reference
        all agree — NaN rows are reachable only through non-NaN members.
        """
        from repro.engine.schema import Column
        from repro.engine.types import DataType as DT

        schema = TableSchema(
            "n",
            (Column("id", DT.INTEGER, primary_key=True),
             Column("v", DT.DOUBLE, nullable=True)),
        )
        table = ColumnStoreTable(schema)
        nan = float("nan")
        table.insert_rows(
            [{"id": i, "v": nan if i % 3 == 0 else float(i)} for i in range(9)]
        )
        predicate = in_list("v", [nan, 4.0])
        positions = table.filter_positions(predicate)
        assert positions.tolist() == [4]
        values = table.column_values("v")
        expected = [i for i, v in enumerate(values) if predicate.evaluate({"v": v})]
        assert positions.tolist() == expected
        from repro.engine.features import use_features

        with use_features(code_domain=False):
            assert table.filter_positions(predicate).tolist() == expected

    def test_code_domain_disabled_matches_code_path_results(self, table):
        from repro.engine.features import use_features

        predicate = And((eq("name", "item_2"), ge("id", 50)))
        fast = table.filter_positions(predicate).tolist()
        accountant = CostAccountant()
        with use_features(code_domain=False):
            slow = table.filter_positions(predicate, accountant).tolist()
        assert fast == slow
        assert accountant.snapshot().get("dictionary_decode", 0) > 0


class TestMaterialisation:
    def test_sparse_positions_pay_reconstruction(self, table):
        accountant = CostAccountant()
        table.fetch_rows([1, 2, 3], columns=["name", "price"], accountant=accountant)
        snapshot = accountant.snapshot()
        assert snapshot.get("tuple_reconstruction", 0) > 0

    def test_dense_positions_use_scan_path(self, table):
        accountant = CostAccountant()
        dense = list(range(int(100 * SCAN_MATERIALIZATION_THRESHOLD) + 5))
        table.fetch_rows(dense, columns=["name"], accountant=accountant)
        snapshot = accountant.snapshot()
        assert snapshot.get("column_scan", 0) > 0
        assert "tuple_reconstruction" not in snapshot

    def test_full_column_read_is_sequential(self, table):
        accountant = CostAccountant()
        values = table.column_values("price", None, accountant)
        assert len(values) == 100
        snapshot = accountant.snapshot()
        assert snapshot.get("column_scan", 0) > 0
        assert snapshot.get("dictionary_decode", 0) > 0

    def test_all_rows_round_trip(self, table):
        rows = table.all_rows()
        assert rows[7] == {"id": 7, "name": "item_2", "price": 10.5, "stock": 7}

    def test_statistics_helpers(self, table):
        assert table.column_distinct_count("name") == 5
        assert table.column_min_max("id") == (0, 99)
