"""Seed construction, validation, symmetrizers, and matrix mutation."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterseeds import (
    Seed,
    SeedError,
    find_symmetrizer,
    matrix_mutation,
    require_valid,
    validate_seed,
)
from conftest import a2_seed, trivial_seed
from oracles import (
    connected_components,
    is_connected,
    matrix_mutation_entrywise,
    mutate_seed_matrix,
)


# ---------------------------------------------------------------- structure


def test_matrix_shape_is_enforced():
    with pytest.raises(SeedError, match="expected 2 rows, got 1"):
        Seed(("x1", "x2"), (), ((0, 1),))
    with pytest.raises(SeedError, match="row 0 has length 1, expected 2"):
        Seed(("x1",), ("t",), ((0,),))
    with pytest.raises(SeedError, match="row 0 contains non-integer entries"):
        Seed(("x1",), (), ((0.5,),))


class Count(int):
    pass


@pytest.mark.parametrize(
    "entry, message",
    [
        (True, None),
        (Count(1), None),
        (0.5, "row 1 contains non-integer entries"),
        ("1", "row 1 contains non-integer entries"),
    ],
    ids=["bool", "int-subclass", "float", "str"],
)
def test_entries_not_exactly_int_keep_their_outcome(entry, message):
    """Entries not exactly of type int take the isinstance test: an int
    subclass (bool too) passes it, anything else is rejected by row."""
    rows = ((0, 1), (-1, entry))
    if message is None:
        assert Seed(("x1", "x2"), (), rows).matrix == rows
    else:
        with pytest.raises(SeedError, match=message):
            Seed(("x1", "x2"), (), rows)
    # the first faulty row is reported, whatever its fault
    with pytest.raises(SeedError, match="row 0 has length 1, expected 2"):
        Seed(("x1", "x2"), (), ((0,), (-1, entry)))
    if message is not None:
        with pytest.raises(SeedError, match="row 0 contains non-integer entries"):
            Seed(("x1", "x2"), (), ((0, entry), (-1,)))


def test_a_frozen_only_seed_has_no_rows():
    seed = Seed((), ("y1", "y2"), ())
    assert (seed.n, seed.m, seed.matrix) == (0, 2, ())
    assert seed == trivial_seed(2)
    with pytest.raises(SeedError, match="expected 0 rows, got 1"):
        Seed((), ("y1", "y2"), ((0, 0),))


def test_labels_must_be_distinct():
    with pytest.raises(SeedError):
        Seed.from_data(["x", "x"], [], [[0, 0], [0, 0]])
    with pytest.raises(SeedError):
        Seed.from_data(["x"], ["x"], [[0, 0]])


def test_entry_accessors():
    seed = Seed.from_data(["x1", "x2"], ["t"], [[0, 1, 2], [-1, 0, 0]])
    assert seed.b("x1", "x2") == 1
    assert seed.b("x1", "t") == 2
    with pytest.raises(SeedError):
        seed.b("t", "x1")
    with pytest.raises(SeedError):
        seed.index("nope")
    assert seed.labels == ("x1", "x2", "t")
    assert seed.n != 0
    assert trivial_seed(2).n == 0


def test_label_index_is_cached_outside_the_fields():
    queried = Seed.from_data(["x1", "x2"], ["t"], [[0, 1, 2], [-1, 0, 0]])
    fresh = Seed.from_data(["x1", "x2"], ["t"], [[0, 1, 2], [-1, 0, 0]])
    assert queried.index("t") == 2 and queried.b("x2", "x1") == -1
    assert queried == fresh and hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh)
    with pytest.raises(SeedError, match="unknown variable"):
        queried.index("nope")
    assert queried.is_exchangeable("x2")
    assert not queried.is_exchangeable("t")
    assert not queried.is_exchangeable("nope")
    # a replaced seed answers with its own positions, not its origin's
    swapped = dataclasses.replace(queried, exchangeable_labels=("x2", "x1"))
    assert swapped.labels == ("x2", "x1", "t")
    assert (swapped.index("x1"), swapped.index("x2")) == (1, 0)
    assert swapped.b("x1", "x2") == -1
    assert swapped != queried


# ---------------------------------------------------------------- validation


def test_validate_skew_symmetric():
    report = validate_seed(a2_seed())
    assert report.ok
    assert report.symmetrizer == (1, 1)


def test_validate_rejects_same_sign_pair():
    seed = Seed.from_data(["x1", "x2"], [], [[0, 1], [1, 0]])
    report = validate_seed(seed)
    assert not report.ok
    assert any("sign-skew-symmetry" in v for v in report.violations)
    with pytest.raises(SeedError):
        require_valid(seed)


def test_validate_skew_symmetrizable():
    seed = Seed.from_data(["x1", "x2"], [], [[0, 2], [-1, 0]])
    report = validate_seed(seed)
    assert report.ok
    assert report.symmetrizer == (1, 2)


def test_symmetrizer_none_when_cycle_is_inconsistent():
    # 3-cycle whose weight products differ in the two directions
    principal = ((0, 1, -1), (-2, 0, 1), (1, -1, 0))
    assert find_symmetrizer(principal) is None


def test_symmetrizer_per_component_normalization():
    principal = ((0, 0), (0, 0))
    assert find_symmetrizer(principal) == (1, 1)


def test_trivial_seed_is_valid():
    assert validate_seed(trivial_seed(2)).ok


# ---------------------------------------------------------------- mutation


def test_mutation_rank2_example():
    assert matrix_mutation(((0, 1), (-1, 0)), 0) == ((0, -1), (1, 0))


def test_mutation_rank3_example():
    out = matrix_mutation(((0, 1, 0), (-1, 0, 1), (0, -1, 0)), 1)
    assert out == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutation_direction_bounds():
    m = ((0, 1), (-1, 0))
    with pytest.raises(IndexError):
        matrix_mutation(m, 2)
    with pytest.raises(IndexError):
        matrix_mutation(m, -1)


def test_mutation_matches_the_entrywise_formula():
    """On random integer matrices, skew-symmetrizable or not, including
    nonzero diagonals: the entrywise formula, and every row j != k with
    b_jk = 0 kept as the same tuple."""
    rng = random.Random(20161)
    for _ in range(20_000):
        n, m = rng.randint(1, 5), rng.randint(0, 3)
        rows = tuple(tuple(rng.choice((0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(n + m)) for _ in range(n))
        k = rng.randrange(n)
        out = matrix_mutation(rows, k)
        assert out == matrix_mutation_entrywise(rows, k), (rows, k)
        for j in range(n):
            assert (out[j] is rows[j]) == (j != k and rows[j][k] == 0), (rows, k, j)


def test_mutation_touches_frozen_columns():
    seed = Seed.from_data(["x1"], ["t"], [[0, 1]])
    out = mutate_seed_matrix(seed, 0)
    assert out.matrix == ((0, -1),)


# ------------------------------------------------------- property testing


def random_symmetrizable(draw, n, m):
    d = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    rows = [[0] * (n + m) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = draw(st.integers(-1, 1))
            from math import gcd

            g = gcd(d[i], d[j])
            rows[i][j] = s * (d[j] // g)
            rows[j][i] = -s * (d[i] // g)
    for i in range(n):
        for j in range(n, n + m):
            rows[i][j] = draw(st.integers(-3, 3))
    labels = [f"x{i}" for i in range(n)]
    frozen = [f"t{i}" for i in range(m)]
    return Seed.from_data(labels, frozen, rows), tuple(d)


@st.composite
def seeds_with_symmetrizer(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 3))
    return random_symmetrizable(draw, n, m)


@settings(max_examples=120, deadline=None)
@given(seeds_with_symmetrizer(), st.data())
def test_mutation_is_an_involution(seed_d, data):
    seed, d = seed_d
    assert validate_seed(seed).ok
    k = data.draw(st.integers(0, seed.n - 1))
    assert matrix_mutation(matrix_mutation(seed.matrix, k), k) == seed.matrix


@settings(max_examples=120, deadline=None)
@given(seeds_with_symmetrizer(), st.data())
def test_mutation_preserves_the_symmetrizer(seed_d, data):
    seed, d = seed_d
    k = data.draw(st.integers(0, seed.n - 1))
    n = seed.n
    p = [row[:n] for row in matrix_mutation(seed.matrix, k)]
    for i in range(n):
        for j in range(n):
            assert d[i] * p[i][j] == -d[j] * p[j][i]


@settings(max_examples=60, deadline=None)
@given(seeds_with_symmetrizer(), st.data())
def test_random_mutation_sequences_stay_valid(seed_d, data):
    seed, _ = seed_d
    seq = data.draw(
        st.lists(st.integers(0, seed.n - 1), min_size=0, max_size=20)
    )
    current = seed
    for k in seq:
        current = mutate_seed_matrix(current, k)
        assert validate_seed(current).ok


# ---------------------------------------------------------------- topology


def test_is_connected_examples():
    assert is_connected(a2_seed())
    assert is_connected(trivial_seed(1))
    two = Seed.from_data(["x1", "x2"], [], [[0, 0], [0, 0]])
    assert not is_connected(two)
    # frozen-frozen pairs never count as connected pairs
    assert not is_connected(trivial_seed(2))
    mixed = Seed.from_data(["x"], ["t"], [[0, 1]])
    assert is_connected(mixed)
    # classes in label order, each in label order; t1 joins x2 through
    # b_(x2,t1), and t2 is joined to nothing
    seed = Seed.from_data(["x1", "x2"], ["t1", "t2"], [[0, 0, 0, 0], [0, 0, 1, 0]])
    assert connected_components(seed) == [("x1",), ("x2", "t1"), ("t2",)]
    assert connected_components(trivial_seed(0)) == []
