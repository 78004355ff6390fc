"""Shared fixtures for the test suite.

Most tests use a small deterministic ``sales`` table that exists in both
stores, so that row-store and column-store behaviour can be compared
directly.  Heavier fixtures (synthetic wide tables, TPC-H data) are module
scoped to keep the suite fast.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

import pytest

from repro.engine import DataType, HybridDatabase, Store, TableSchema

SALES_NUM_ROWS = 1_000


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "fuzz: seeded cross-store differential fuzz suite (runs in tier-1; "
        "select standalone with -m fuzz)",
    )
    config.addinivalue_line(
        "markers",
        "faultinject: crash-point recovery differential suite (runs in "
        "tier-1; select standalone with -m faultinject)",
    )
    config.addinivalue_line(
        "markers",
        "matview: materialized-view subsystem suite (runs in tier-1; "
        "select standalone with -m matview)",
    )
    config.addinivalue_line(
        "markers",
        "resilience: query-deadline and matview refresh-crash suite (runs "
        "in tier-1; select standalone with -m resilience)",
    )
    config.addinivalue_line(
        "markers",
        "integrity: checksum / quarantine / scrub-and-repair corruption "
        "matrix (runs in tier-1; select standalone with -m integrity)",
    )


@pytest.fixture(scope="session")
def sales_schema() -> TableSchema:
    return TableSchema.build(
        "sales",
        [
            ("id", DataType.INTEGER),
            ("region", DataType.VARCHAR),
            ("product", DataType.INTEGER),
            ("revenue", DataType.DOUBLE),
            ("quantity", DataType.INTEGER),
            ("status", DataType.VARCHAR),
        ],
        primary_key=["id"],
    )


@pytest.fixture(scope="session")
def sales_rows() -> List[Dict]:
    rng = random.Random(42)
    return [
        {
            "id": i,
            "region": f"region_{i % 7}",
            "product": rng.randrange(50),
            "revenue": round(rng.random() * 500.0, 3),
            "quantity": rng.randint(1, 20),
            "status": ("open", "shipped", "cancelled")[i % 3],
        }
        for i in range(SALES_NUM_ROWS)
    ]


@pytest.fixture
def database_factory(sales_schema, sales_rows) -> Callable[[Store], HybridDatabase]:
    """Factory building a fresh database with the sales table in the given store."""

    def build(store: Store = Store.ROW) -> HybridDatabase:
        database = HybridDatabase()
        database.create_table(sales_schema, store)
        database.load_rows("sales", sales_rows)
        return database

    return build


@pytest.fixture
def row_database(database_factory) -> HybridDatabase:
    return database_factory(Store.ROW)


@pytest.fixture
def column_database(database_factory) -> HybridDatabase:
    return database_factory(Store.COLUMN)
