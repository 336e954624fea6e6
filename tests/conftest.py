"""Shared fixture seeds for the test suite.

The five benchmark seeds (rank-2 skew-symmetric, the two rank-3
examples, and the trivial seeds) are used across the semigroup,
classification, and acceptance tests; their semigroup sizes are pinned
by independent enumeration in test_semigroup.
"""

import pytest

from clusterseeds import Seed


def linear_path_seed(n: int) -> Seed:
    """Path quiver x1 -> x2 -> ... -> xn with unit weights."""
    ex = [f"x{i}" for i in range(1, n + 1)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
        rows[i + 1][i] = -1
    return Seed.from_data(ex, [], rows)


def a2_seed() -> Seed:
    return Seed.from_data(["x1", "x2"], [], [[0, 1], [-1, 0]])


def amalgam_seed() -> Seed:
    """x1 -> x2 <- x3, all weights 1."""
    return Seed.from_data(
        ["x1", "x2", "x3"], [], [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
    )


def double_arrow_seed() -> Seed:
    """x1 -> x2 <= x3 with b_(x3,x2) = 2 (skew-symmetrizable, d=(2,2,1))."""
    return Seed.from_data(
        ["x1", "x2", "x3"], [], [[0, 1, 0], [-1, 0, -1], [0, 2, 0]]
    )


def a2_y2_seed() -> Seed:
    """A2 with a frozen vertex at each end: y1 <- x1 -> x2 -> y2 (773 elements)."""
    return Seed.from_data(["x1", "x2"], ["y1", "y2"], [[0, 1, 1, 0], [-1, 0, 0, 1]])


def trivial_seed(m: int) -> Seed:
    return Seed.from_data([], [f"y{i}" for i in range(1, m + 1)], [])


@pytest.fixture
def a2():
    return a2_seed()


@pytest.fixture
def amalgam():
    return amalgam_seed()


@pytest.fixture
def double_arrow():
    return double_arrow_seed()


BENCHMARK_SEEDS = {
    "a2": a2_seed,
    "amalgam": amalgam_seed,
    "double_arrow": double_arrow_seed,
    "trivial_m1": lambda: trivial_seed(1),
    "trivial_m2": lambda: trivial_seed(2),
}

# Pinned semigroup statistics, frozen from a hand-checked enumeration
# (the independent enumerator in test_semigroup re-derives the counts
# for the seeds small enough to brute-force in full).
PINNED_STATS = {
    "a2": dict(size=19, regular=19, idempotents=11, regular_d=6, iso_classes=6),
    "amalgam": dict(size=178, regular=140, idempotents=52, regular_d=14, iso_classes=14),
    "double_arrow": dict(size=151, regular=112, idempotents=50, regular_d=18, iso_classes=18),
    "trivial_m1": dict(size=2, regular=2, idempotents=2, regular_d=2, iso_classes=2),
    "trivial_m2": dict(size=9, regular=9, idempotents=6, regular_d=3, iso_classes=3),
}

LINEAR_SIZES = {1: 3, 2: 19, 3: 162, 4: 1727}
