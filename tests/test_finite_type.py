"""Cluster searches on seeds of finite type against the closed counts.

A cluster algebra of finite type X_n, with Coxeter number h and
exponents e_1, ..., e_n, has n(h + 2)/2 cluster variables, one per
almost positive root (Fomin–Zelevinsky, Cluster algebras II, Invent.
Math. 2003), and prod (h + e_i + 1)/(e_i + 1) clusters (Fomin–Zelevinsky,
Y-systems and generalized associahedra, Ann. Math. 2003).  Each seed
below is built from the Cartan matrix of its type in linear
orientation, b_ij = -a_ij for i < j and a_ij for i > j.  The d-vectors
of the variables are the almost positive roots, found by reflections in
tests/oracles.py with no polynomial arithmetic, and the clusters are
those of the integer-only g-vector search there.  E8 (h = 30: 25,080
clusters, 128 variables) is the largest, at about two seconds.
"""

from fractions import Fraction
from functools import cache
from math import prod

import pytest

from clusterseeds import Seed, enumerate_clusters, validate_seed
from oracles import (
    almost_positive_roots,
    assert_matches_the_g_vector_search,
    cartan_counterpart,
    d_vectors,
)


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
    "E7": (
        cartan(
            7,
            [(0, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -1), (4, 5, -1, -1), (5, 6, -1, -1), (1, 3, -1, -1)],
        ),
        18,
        [1, 5, 7, 9, 11, 13, 17],
    ),
    "E8": (
        cartan(
            8,
            [
                (0, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -1), (4, 5, -1, -1),
                (5, 6, -1, -1), (6, 7, -1, -1), (1, 3, -1, -1),
            ],
        ),
        30,
        [1, 7, 11, 13, 17, 19, 23, 29],
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


@cache
def closed_search(name):
    """The seed of type name, its search to depth 64 and the exchange
    relations that search computed, made once per test session."""
    seed = linear_seed(TYPES[name][0])
    names = enumerate_clusters.__globals__
    compute, computed = names["exchange"], []

    def computing(state, k):
        computed.append(k)
        return compute(state, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(names, "exchange", computing)
        result = enumerate_clusters(seed, max_depth=64)
    return seed, result, len(computed)


# exchange relations computed per closed search: one per g-vector met
# that is not an initial one and not stored as the image of a computed
# variable under an automorphism of the seed.  A5 and D4-D6 have one
# automorphism besides the identity; the other types have none, so
# their counts are the variables less the n initial ones.
COMPUTED = {
    "A5": 9, "G2": 6, "B3": 9, "B4": 16, "B5": 25, "C3": 9, "C4": 16,
    "D4": 9, "D5": 16, "D6": 25, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}


@pytest.mark.parametrize("name", sorted(TYPES))
def test_finite_type_cluster_counts(name):
    a, h, exponents = TYPES[name]
    seed, result, computed = closed_search(name)
    assert validate_seed(seed).ok
    assert result.status == "closed"
    variables = frozenset().union(*result.clusters)
    assert (len(result.clusters), len(variables)) == expected_counts(len(a), h, exponents)
    assert computed == COMPUTED[name]


@pytest.mark.parametrize("name", sorted(TYPES))
def test_each_variable_is_one_object(name):
    """A variable reached through several exchange relations, or again at
    its initial slot, is the object the search made first."""
    _, result, _ = closed_search(name)
    variables = frozenset().union(*result.clusters)
    assert len({id(v) for cluster in result.clusters for v in cluster}) == len(variables)


@pytest.mark.parametrize("name", sorted(TYPES))
def test_clusters_are_those_of_the_g_vector_search(name):
    seed, result, _ = closed_search(name)
    assert_matches_the_g_vector_search(result, seed, 64)


@pytest.mark.parametrize("name", ["G2", "B4", "F4", "D6", "E6", "E7", "E8"])
def test_d_vectors_are_the_almost_positive_roots(name):
    """Fomin–Zelevinsky (Cluster algebras II, Thm. 1.9): the d-vectors of
    the cluster variables are the almost positive roots of the Cartan
    counterpart of the exchange matrix, each once."""
    seed, result, _ = closed_search(name)
    variables = frozenset().union(*result.clusters)
    roots = almost_positive_roots(cartan_counterpart(seed.matrix))
    assert d_vectors(variables) == roots
    assert len(roots) == len(variables)


def test_g2_pins_the_index_convention_of_the_cartan_counterpart():
    """a_ij = -|b_ji| gives G2's almost positive roots as d-vectors;
    a_ij = -|b_ij| gives those of the dual system, with the long and
    short roots exchanged."""
    seed, result, _ = closed_search("G2")
    found = d_vectors(frozenset().union(*result.clusters))
    assert found == almost_positive_roots(cartan_counterpart(seed.matrix))
    dual = almost_positive_roots(cartan_counterpart(seed.matrix, transpose=True))
    assert found != dual and len(found) == len(dual) == 8
    assert (3, 1) in found and (1, 3) in dual
