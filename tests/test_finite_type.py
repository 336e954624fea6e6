"""Cluster searches on seeds of finite type against the closed counts.

A cluster algebra of finite type X_n, with Coxeter number h and
exponents e_1, ..., e_n, has n(h + 2)/2 cluster variables, one per
almost positive root (Fomin–Zelevinsky, Cluster algebras II, Invent.
Math. 2003), and prod (h + e_i + 1)/(e_i + 1) clusters (Fomin–Zelevinsky,
Y-systems and generalized associahedra, Ann. Math. 2003).  Each seed
below is built from the Cartan matrix of its type in linear
orientation, b_ij = -a_ij for i < j and a_ij for i > j.
"""

from fractions import Fraction
from math import prod

import pytest

from clusterseeds import Seed, enumerate_clusters, validate_seed


def cartan(n, bonds):
    """The n×n Cartan matrix with (a_ij, a_ji) = (a, b) for each bond
    (i, j, a, b) and 0 off every bond."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in bonds:
        a[i][j], a[j][i] = aij, aji
    return a


def path(n):
    return [(i, i + 1, -1, -1) for i in range(n - 1)]


def odd(n):
    return list(range(1, 2 * n, 2))


# type -> (Cartan matrix, Coxeter number h, exponents)
TYPES = {
    "A5": (cartan(5, path(5)), 6, [1, 2, 3, 4, 5]),
    "G2": (cartan(2, [(0, 1, -1, -3)]), 6, [1, 5]),
    **{
        f"B{n}": (cartan(n, path(n - 1) + [(n - 2, n - 1, -1, -2)]), 2 * n, odd(n))
        for n in (3, 4, 5)
    },
    **{
        f"C{n}": (cartan(n, path(n - 1) + [(n - 2, n - 1, -2, -1)]), 2 * n, odd(n))
        for n in (3, 4)
    },
    **{
        f"D{n}": (
            cartan(n, path(n - 1) + [(n - 3, n - 1, -1, -1)]),
            2 * n - 2,
            odd(n - 1) + [n - 1],
        )
        for n in (4, 5, 6)
    },
    "F4": (cartan(4, [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]), 12, [1, 5, 7, 11]),
    "E6": (
        cartan(6, [(0, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -1), (4, 5, -1, -1), (1, 3, -1, -1)]),
        12,
        [1, 4, 5, 7, 8, 11],
    ),
}


def linear_seed(a) -> Seed:
    n = len(a)
    rows = [[-a[i][j] if i < j else a[i][j] if i > j else 0 for j in range(n)] for i in range(n)]
    return Seed.from_data([f"x{i}" for i in range(1, n + 1)], [], rows)


def expected_counts(n, h, exponents) -> tuple[int, int]:
    clusters = prod(Fraction(h + e + 1, e + 1) for e in exponents)
    assert clusters.denominator == 1
    return int(clusters), n * (h + 2) // 2


@pytest.mark.parametrize("name", sorted(TYPES))
def test_finite_type_cluster_counts(name):
    a, h, exponents = TYPES[name]
    seed = linear_seed(a)
    assert validate_seed(seed).ok
    result = enumerate_clusters(seed, max_depth=64)
    assert result.status == "closed"
    variables = frozenset().union(*result.clusters)
    assert (len(result.clusters), len(variables)) == expected_counts(len(a), h, exponents)

