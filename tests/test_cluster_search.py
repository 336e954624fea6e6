"""Cluster enumeration against the labeled-state search it replaced, and
the polygon model against cluster enumeration (d-vectors = crossings)."""

import inspect
import sys
from math import comb

import pytest

from clusterseeds import (
    MultiPoly,
    Seed,
    diagonals_cross,
    enumerate_clusters,
    make_surface,
    poly as poly_module,
    seed_from_surface,
)
from clusterseeds.poly import ClusterEnumeration, _memo_exchange, exchange, initial_state, mutate_state
from conftest import a2_seed, linear_path_seed, trivial_seed
from oracles import enumerate_triangulations, reference_str


def reference_enumerate_clusters(
    seed: Seed, max_depth: int, max_states: int = 100_000
) -> ClusterEnumeration:
    """Breadth-first closure of labeled seed states up to max_depth.

    Clusters are deduplicated as unordered sets of Laurent polynomials.
    The status is "closed" only when the state graph was exhausted within
    the depth and state caps.
    """
    start = initial_state(seed)
    seen_states = {(start.assignment, start.matrix)}
    clusters = {start.cluster()}
    order = [start.cluster()]
    frontier = [start]
    status = "closed" if seed.n == 0 else None
    depth = 0
    while frontier and status is None:
        if depth >= max_depth:
            status = "truncated"
            break
        depth += 1
        new_frontier = []
        for state in frontier:
            for k in range(seed.n):
                nxt = mutate_state(state, k)
                key = (nxt.assignment, nxt.matrix)
                if key in seen_states:
                    continue
                if len(seen_states) >= max_states:
                    return ClusterEnumeration(order, "truncated")
                seen_states.add(key)
                new_frontier.append(nxt)
                c = nxt.cluster()
                if c not in clusters:
                    clusters.add(c)
                    order.append(c)
        if not new_frontier:
            status = "closed"
        frontier = new_frontier
    return ClusterEnumeration(order, status or "closed")


def d4_seed():
    return Seed.from_data(
        ["x1", "x2", "x3", "x4"],
        [],
        [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]],
    )


def a3_principal_seed():
    return Seed.from_data(
        ["x1", "x2", "x3"],
        ["y1", "y2", "y3"],
        [[0, 1, 0, 1, 0, 0], [-1, 0, 1, 0, 1, 0], [0, -1, 0, 0, 0, 1]],
    )


def markov_seed():
    return Seed.from_data(["x1", "x2", "x3"], [], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


def kronecker_seed():
    return Seed.from_data(["x1", "x2"], [], [[0, 2], [-2, 0]])


def twin_seed():
    """x1 and x2 joined only to the frozen y, both by b = 2: their
    exchange relations differ only in the outgoing variable."""
    return Seed.from_data(["x1", "x2"], ["y"], [[0, 0, 2], [0, 0, 2]])


def polygon_seed(N):
    """The seed of the first triangulation of the N-gon, no laminations."""
    return seed_from_surface(make_surface(N, enumerate_triangulations(N)[0]))


# seed, pinned (or closing) depth
ORACLE_SEEDS = {
    "A1": (lambda: linear_path_seed(1), 10),
    "a2": (a2_seed, 10),
    "A3": (lambda: linear_path_seed(3), 30),
    "A4": (lambda: linear_path_seed(4), 30),
    "D4": (d4_seed, 30),
    "A3_prin": (a3_principal_seed, 30),
    "trivial": (lambda: trivial_seed(1), 3),
    "markov": (markov_seed, 6),
    "kronecker": (kronecker_seed, 20),
    "twin": (twin_seed, 3),
    **{f"polygon{N}": (lambda N=N: polygon_seed(N), 2 * N) for N in range(4, 8)},
}


def assert_matches_the_labeled_search(monkeypatch, search, name):
    """At every depth up to the pinned one: the same clusters in the same
    order, and "closed" and "truncated" never contradict the oracle."""
    # the labeled search repeats its mutations at every depth
    memo = {}
    mutate = poly_module.mutate_state

    def remembered(state, k):
        key = (state.assignment, state.matrix, k)
        if key not in memo:
            memo[key] = mutate(state, k)
        return memo[key]

    monkeypatch.setattr(sys.modules[__name__], "mutate_state", remembered)
    make_seed, pinned = ORACLE_SEEDS[name]
    seed = make_seed()
    reference = None
    for depth in range(pinned + 1):
        # a labeled search that closed stopped before its depth check,
        # so every larger depth repeats it exactly
        if reference is None or reference.status != "closed":
            reference = reference_enumerate_clusters(seed, depth)
        result = search(seed, depth)
        assert result.clusters == reference.clusters, depth
        if reference.status == "closed":
            assert result.status == "closed", depth
        if result.status == "truncated":
            assert reference.status == "truncated", depth


@pytest.mark.parametrize("name", sorted(ORACLE_SEEDS))
def test_cluster_search_matches_the_labeled_search(monkeypatch, name):
    """This checks, on these seeds, that a seed is determined by its cluster."""
    assert_matches_the_labeled_search(monkeypatch, enumerate_clusters, name)


def counted(monkeypatch, search, seed, depth):
    """search(seed, depth), the edges it took (memo lookups) and the
    exchanges it computed."""
    edges, exchanges = [], []
    names = search.__globals__
    take, compute = names["_memo_exchange"], names["exchange"]

    def taking(memo, state, k):
        edges.append(k)
        return take(memo, state, k)

    def computing(state, k):
        exchanges.append(k)
        return compute(state, k)

    with monkeypatch.context() as patch:
        patch.setitem(names, "_memo_exchange", taking)
        patch.setitem(names, "exchange", computing)
        result = search(seed, depth)
    return result, len(edges), len(exchanges)


# edges of one search: one per edge of the exchange graph between the
# clusters kept (n * N / 2 when the search closes); exchanges: one per
# distinct exchange relation among those edges
EXCHANGES = {
    "A4": (lambda: linear_path_seed(4), 30, 42, 84, 35),
    "D4": (d4_seed, 30, 50, 100, 58),
    "A3_prin": (a3_principal_seed, 30, 14, 21, 15),
    "markov": (markov_seed, 6, 190, 189, 189),
    "kronecker": (kronecker_seed, 20, 41, 40, 40),
}


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_cluster_search_exchange_counts_are_pinned(monkeypatch, name):
    make_seed, depth, count, edges, exchanges = EXCHANGES[name]
    result, taken, computed = counted(monkeypatch, enumerate_clusters, make_seed(), depth)
    assert (len(result.clusters), taken, computed) == (count, edges, exchanges)


def test_the_memo_lives_for_one_search(monkeypatch):
    """A second search of the same seed computes its 35 distinct exchange
    relations again: no relation is remembered past the call."""
    seed = linear_path_seed(4)
    for _ in range(2):
        result, edges, exchanges = counted(monkeypatch, enumerate_clusters, seed, 30)
        assert (len(result.clusters), edges, exchanges) == (42, 84, 35)


def test_markov_squares_each_variable_once(monkeypatch):
    """Each Markov exchange squares two variables, 378 square factors at
    depth 6; a square is kept on its polynomial, so 96 are computed."""
    squares = []
    square = poly_module._square

    def counting(items):
        squares.append(len(items))
        return square(items)

    monkeypatch.setattr(poly_module, "_square", counting)
    result, edges, exchanges = counted(monkeypatch, enumerate_clusters, markov_seed(), 6)
    assert (len(result.clusters), exchanges, len(squares)) == (190, 189, 96)


def test_a_search_builds_the_unit_and_each_frozen_generator_once(monkeypatch):
    """exchange reads the constant 1 and the frozen generators of its
    context from bounded caches instead of building them per call."""
    built = {}
    real_constant, real_generator = MultiPoly.constant, MultiPoly.generator

    def constant(context, value):
        built[value] = built.get(value, 0) + 1
        return real_constant(context, value)

    def generator(context, label):
        built[label] = built.get(label, 0) + 1
        return real_generator(context, label)

    monkeypatch.setattr(MultiPoly, "constant", staticmethod(constant))
    monkeypatch.setattr(MultiPoly, "generator", staticmethod(generator))
    poly_module._unit.cache_clear()
    poly_module._generator.cache_clear()
    result, edges, exchanges = counted(monkeypatch, enumerate_clusters, a3_principal_seed(), 30)
    assert (len(result.clusters), result.status, edges, exchanges) == (14, "closed", 21, 15)
    # the unit, the initial cluster x1..x3 and the frozen y1..y3, once each
    assert built == {1: 1, **dict.fromkeys(["x1", "x2", "x3", "y1", "y2", "y3"], 1)}
    for cache in (poly_module._unit, poly_module._generator):
        assert cache.cache_parameters()["maxsize"] is not None  # bounded


# the ORACLE_SEEDS of finite type, whose searches close
CLOSED = sorted(set(ORACLE_SEEDS) - {"markov", "kronecker"})


@pytest.mark.parametrize("name", CLOSED)
def test_closed_search_computes_each_edge_once(monkeypatch, name):
    """The exchange graph of a closed search is n-regular on its N
    clusters, so taking each edge once is n * N / 2 edges, and no edge
    computes more than one exchange."""
    make_seed, depth = ORACLE_SEEDS[name]
    seed = make_seed()
    result, edges, exchanges = counted(monkeypatch, enumerate_clusters, seed, depth)
    assert result.status == "closed"
    assert edges == seed.n * len(result.clusters) // 2
    assert exchanges <= edges


def patched(old, new):
    """The poly namespace with one piece of the source of enumerate_clusters
    or of the _memo_exchange it calls replaced, both defined anew there."""
    functions = (poly_module._memo_exchange, poly_module.enumerate_clusters)
    sources = [inspect.getsource(f) for f in functions]
    assert sum(source.count(old) for source in sources) == 1
    namespace = dict(vars(poly_module))
    for source in sources:
        exec(source.replace(old, new), namespace)
    return namespace


def fault(old, new):
    """enumerate_clusters with one piece of its source replaced."""
    return patched(old, new)["enumerate_clusters"]


@pytest.mark.parametrize("name, exchanges", [("A4", 106), ("D4", 118)])
def test_edge_count_catches_a_wrong_known_slot(monkeypatch, name, exchanges):
    """Recording the direction taken instead of the landing state's slot
    finds the same clusters, so only the edge count shows the fault."""
    search = fault("landing[0].assignment.index(value)", "k")
    make_seed, depth = ORACLE_SEEDS[name]
    seed = make_seed()
    result, edges, _ = counted(monkeypatch, search, seed, depth)
    assert (result.clusters, result.status) == (enumerate_clusters(seed, depth).clusters, "closed")
    assert edges == exchanges != seed.n * len(result.clusters) // 2


@pytest.mark.parametrize("name", ["A3", "A4", "D4", "A3_prin", "polygon6"])
def test_oracle_catches_a_skipped_new_cluster(monkeypatch, name):
    """A new cluster that also skips its next direction misses clusters
    that direction leads to first."""
    search = fault("assignment), {k})", "assignment), {k, (k + 1) % seed.n})")
    with pytest.raises(AssertionError):
        assert_matches_the_labeled_search(monkeypatch, search, name)


def test_oracle_catches_a_memo_key_without_the_outgoing_variable(monkeypatch):
    """On twin_seed the exchanges of x1 and x2 share their (variable, b)
    pairs, so a key without the outgoing variable computes x2's new
    variable as x1's."""
    search = fault("(state.assignment[k], frozenset(", "(frozenset(")
    with pytest.raises(AssertionError):
        assert_matches_the_labeled_search(monkeypatch, search, "twin")


def memo_matches_exchange(memo_exchange):
    """Through one memo, the exchanges in direction 0 of the rank-2 seeds
    with b_12 = b, whose variables are equal, each equal to exchange."""
    memo = {}
    for b in (1, 2, -3, 3):
        state = initial_state(Seed.from_data(["x1", "x2"], [], [[0, b], [-b, 0]]))
        assert memo_exchange(memo, state, 0) == exchange(state, 0), b


def test_memo_keys_carry_the_exponents():
    """A key without the exponents b_kt merges relations that differ only
    in them.  The labeled-search oracle does not show that fault on the
    seeds here, and need not: a mutation at a variable that is not a
    neighbour of x leaves the row of x unchanged, so among the clusters
    that hold x and its neighbours, joined by such mutations, the
    neighbours fix the exponents.  So the fault is caught here, on seeds
    with equal variables and different exponents."""
    memo_matches_exchange(_memo_exchange)
    with pytest.raises(AssertionError):
        memo_matches_exchange(patched("(variable(t), b) for", "variable(t) for")["_memo_exchange"])


@pytest.mark.parametrize("name", ["A4", "D4", "markov", "kronecker"])
def test_cluster_variables_print_like_the_oracle(name):
    """Every cluster variable's text, from packed keys and cached per
    polynomial, is the text of the tuple-sorted formatter."""
    make_seed, depth, count, *_ = EXCHANGES[name]
    result = enumerate_clusters(make_seed(), depth)
    assert len(result.clusters) == count
    for v in set().union(*result.clusters):
        assert str(v) == reference_str(v)


# ------------------------------------------- d-vectors = crossing numbers


@pytest.mark.parametrize("N", range(4, 9))
def test_polygon_d_vectors_are_crossing_numbers(N):
    """Fomin-Shapiro-Thurston (Acta Math. 2008): for the polygon seed with
    no laminations, each non-initial cluster variable has as denominator
    exponents the crossings of one arc with the initial triangulation,
    and the clusters are the triangulations, Catalan(N-2) of them."""
    data = make_surface(N, enumerate_triangulations(N)[0])
    seed = seed_from_surface(data)
    diagonal = dict(data.diagonals)
    initial = [diagonal[x][1] for x in seed.exchangeable_labels]
    arcs = [(a, b) for a in range(N) for b in range(a + 2, N) if b - a != N - 1]
    crossings = {}
    for arc in arcs:
        if arc not in initial:
            crossings.setdefault(tuple(int(diagonals_cross(arc, d)) for d in initial), []).append(arc)

    result = enumerate_clusters(seed, 2 * N)
    assert (len(result.clusters), result.status) == (comb(2 * (N - 2), N - 2) // (N - 1), "closed")
    start = initial_state(seed)
    arc_of = dict(zip(start.assignment, initial))
    for cluster in result.clusters:
        for v in cluster:
            if v not in arc_of:
                matches = crossings.get(v._den_exponents(), [])
                assert len(matches) == 1, str(v)
                arc_of[v] = matches[0]
    assert len(set(arc_of.values())) == len(arc_of) == len(arcs)
    triangulations = {frozenset(arc_of[v] for v in cluster) for cluster in result.clusters}
    assert triangulations == set(enumerate_triangulations(N))
