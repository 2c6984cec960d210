"""Shared fixtures: the paper's salary table and small synthetic datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import Colarm
from repro.core.mipindex import MIPIndex, build_mip_index
from repro.dataset.salary import salary_dataset
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import RelationalTable


@pytest.fixture(scope="session")
def salary() -> RelationalTable:
    return salary_dataset()


@pytest.fixture(scope="session")
def salary_index(salary) -> MIPIndex:
    # Primary 0.15 covers every query used in the tests (floor condition).
    return build_mip_index(salary, primary_support=0.15)


@pytest.fixture(scope="session")
def salary_engine(salary) -> Colarm:
    return Colarm(salary, primary_support=0.15)


def make_random_table(
    seed: int, n_records: int = 60, cardinalities: tuple[int, ...] = (3, 2, 4, 3)
) -> RelationalTable:
    """A small random relational table for brute-force comparisons."""
    rng = np.random.default_rng(seed)
    data = np.column_stack(
        [rng.integers(0, card, size=n_records) for card in cardinalities]
    ).astype(np.int32)
    attrs = tuple(
        Attribute(f"a{i}", tuple(f"v{v}" for v in range(card)))
        for i, card in enumerate(cardinalities)
    )
    return RelationalTable(Schema(attrs), data)


def rows_of(table: RelationalTable) -> list[tuple[int, ...]]:
    """The table as the row tuples ``tests/oracle.py`` scans."""
    return [tuple(row) for row in table.data.tolist()]


@pytest.fixture()
def random_table() -> RelationalTable:
    return make_random_table(seed=42)
