"""Shared fixture seeds for the test suite.

The five benchmark seeds (rank-2 skew-symmetric, the two rank-3
examples, and the trivial seeds) are used across the semigroup,
classification, and acceptance tests; their semigroup sizes are pinned
by independent enumeration in test_semigroup.
"""

import random

import numpy as np
import pytest

import clusterseeds.surface as surface_module
from clusterseeds import Seed, SurfaceData, make_surface
from oracles import enumerate_triangulations


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


def green_oracle(S):
    """Green's relations straight from the ideal definitions, with sets.

    L and R compare S¹x and xS¹ as frozensets, J compares S¹xS¹ built
    with np.unique, D is the composite L∘R, and the regular flags search
    for a witness g with xgx = x one element at a time.
    """
    P = S.product
    size = len(S)

    def reps(keys):
        first = {}
        return tuple(first.setdefault(k, i) for i, k in enumerate(keys))

    left = [frozenset(P[:, x].tolist()) | {x} for x in range(size)]
    right = [frozenset(P[x, :].tolist()) | {x} for x in range(size)]
    L, R = reps(left), reps(right)
    H = reps(zip(L, R))
    members_of_l, members_of_r = {}, {}
    for i in range(size):
        members_of_l.setdefault(L[i], []).append(i)
        members_of_r.setdefault(R[i], []).append(i)
    D = tuple(
        min(min(members_of_r[R[z]]) for z in members_of_l[L[x]]) for x in range(size)
    )
    two_sided = [
        frozenset(np.unique(P[:, np.unique(P[x, :])]).tolist()) | left[x] | right[x]
        for x in range(size)
    ]
    J = reps(two_sided)
    regular = tuple(bool(np.any(P[P[x, :], x] == x)) for x in range(size))
    idem = tuple(bool(P[x, x] == x) for x in range(size))
    return dict(L=L, R=R, H=H, D=D, J=J, regular_flags=regular, idempotent_flags=idem)


def seeded_polygons(seed: int = 9):
    """Every triangulated N-gon, N = 3..7, each with one lamination of one
    or two curves drawn from random.Random(seed)."""
    rng = random.Random(seed)
    for N in range(3, 8):
        for tri in enumerate_triangulations(N):
            curves = [tuple(rng.sample(range(N), 2)) for _ in range(rng.randint(1, 2))]
            yield make_surface(N, tri, laminations=[curves])


def two_component_surface() -> SurfaceData:
    """A hexagon and a pentagon, two laminations with curves on both; the
    upper-case lamination labels sort before the frozen diagonals."""
    return SurfaceData(
        (6, 5),
        (
            ("a", (0, (0, 2))),
            ("b", (0, (0, 3))),
            ("c", (0, (3, 5))),
            ("e", (1, (1, 3))),
            ("f", (1, (1, 4))),
        ),
        (
            ("L0", ((0, (1, 4)), (1, (0, 2)))),
            ("L1", ((0, (0, 3)), (1, (0, 3)), (1, (2, 4)))),
        ),
    )


@pytest.fixture
def fresh_surface_caches():
    """Empty every cache of the surface module before and after the test.

    A test that patches a surface builder calls the fixture's value after
    patching, so no value built before the patch is reused and none built
    under it outlives the test.  A surface keeps its own sweep memo, so
    such a test sweeps only surfaces made after the patch."""

    def clear():
        for obj in vars(surface_module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    clear()
    yield clear
    clear()
