"""Cluster enumeration against the labeled-state search it replaced and
against an integer-only g-vector search, and the polygon model against
cluster enumeration (d-vectors = crossings)."""

import inspect
import itertools
import sys
import time
from math import comb

import pytest

from clusterseeds import (
    MultiPoly,
    PartialSeedHom,
    Seed,
    diagonals_cross,
    enumerate_clusters,
    make_surface,
    poly as poly_module,
    seed_from_surface,
)
from clusterseeds.errors import LaurentViolation, SeedError, TheoremViolation
from clusterseeds.homs import EMPTY_SPEC
from clusterseeds.poly import (
    ClusterEnumeration,
    exchange,
    initial_state,
    mutate_state,
)
import oracles
from conftest import a2_seed, linear_path_seed, trivial_seed
from oracles import (
    assert_matches_the_g_vector_search,
    enumerate_triangulations,
    g_vector_search,
    reference_str,
)


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


def triplet_seed():
    """x1, x2 and x3 joined only to the frozen y, each by b = 2: their
    exchange relations differ only in the outgoing variable, and the
    six permutations of x1, x2, x3 are automorphisms."""
    return Seed.from_data(["x1", "x2", "x3"], ["y"], [[0, 0, 0, 2]] * 3)


def two_a2_seed():
    """Two copies of A2.  Its eight automorphisms reverse either copy, an
    anti-automorphism of that copy alone, and swap the copies, so the
    sign of a row differs between the components."""
    return Seed.from_data(
        ["x1", "x2", "x3", "x4"],
        [],
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    )


def frozen_fan_seed():
    """One exchangeable label and ten zero frozen columns: 10!
    automorphisms, one per permutation of the frozen labels."""
    return Seed.from_data(["x1"], [f"y{i}" for i in range(1, 11)], [[0] * 11])


def isolated_seed():
    """Eight exchangeable labels and a zero matrix: 8! automorphisms and
    2**8 clusters."""
    return Seed.from_data([f"x{i}" for i in range(1, 9)], [], [[0] * 8] * 8)


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
    "triplet": (triplet_seed, 4),
    "two_a2": (two_a2_seed, 10),
    "frozen_fan": (frozen_fan_seed, 3),
    "isolated": (isolated_seed, 9),
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


@pytest.mark.parametrize("name", sorted(ORACLE_SEEDS))
def test_cluster_search_matches_the_g_vector_search(name):
    """At every depth up to the pinned one.  On seeds whose frozen rows
    are not principal coefficients this also checks, on that seed, that
    the exchange graph does not depend on the coefficients
    (Fomin-Zelevinsky, Cluster algebras IV, Conj. 4.3)."""
    make_seed, pinned = ORACLE_SEEDS[name]
    seed = make_seed()
    for depth in range(pinned + 1):
        assert_matches_the_g_vector_search(enumerate_clusters(seed, depth), seed, depth)


# a fault in the g-vector rule, as the piece of the source of the
# library and of the oracle it replaces, and a seed that shows it.  With
# eps swapped at every step the search still finds the clusters of the
# path quivers here, so D4 shows that fault.
G_FAULTS = {
    "wrong sign": (("[-v for v in gs[k]]", "[v for v in gs[k]]"),) * 2 + ("A4",),
    "eps swapped": (
        ("eps = 1 if hi > 0 else -1", "eps = -1 if hi > 0 else 1"),
        ("eps = 1 if any(v > 0 for v in c) else -1", "eps = -1 if any(v > 0 for v in c) else 1"),
        "D4",
    ),
    "g-vector of the wrong slot": (("for v in gs[k]]", "for v in gs[k - 1]]"),) * 2 + ("A3_prin",),
}


@pytest.mark.parametrize("fault_name", sorted(G_FAULTS))
def test_the_oracles_catch_a_wrong_g_vector_rule_in_the_search(monkeypatch, fault_name):
    """A wrong g-vector gives an edge a variable it does not exchange to
    when it meets a g-vector found before, which the labeled search
    shows; so does the g-vector search, whose clusters the wrong
    variables no longer map onto.  A wrong variable may also make a
    later division fail, which a search on these seeds never does."""
    (old, new), _, name = G_FAULTS[fault_name]
    search = fault(old, new)
    make_seed, depth = ORACLE_SEEDS[name]
    seed = make_seed()
    with pytest.raises((AssertionError, LaurentViolation)):
        assert_matches_the_labeled_search(monkeypatch, search, name)
    with pytest.raises((AssertionError, LaurentViolation)):
        assert_matches_the_g_vector_search(search(seed, depth), seed, depth)


@pytest.mark.parametrize("fault_name", sorted(G_FAULTS))
def test_a_wrong_g_vector_rule_in_the_oracle_is_caught(fault_name):
    """The same faults in the g-vector search make it disagree with the
    cluster search."""
    _, (old, new), name = G_FAULTS[fault_name]
    source = inspect.getsource(g_vector_search)
    assert source.count(old) == 1
    namespace = dict(vars(oracles))
    exec(source.replace(old, new), namespace)
    make_seed, depth = ORACLE_SEEDS[name]
    seed = make_seed()
    result = enumerate_clusters(seed, depth)
    with pytest.raises(AssertionError):
        assert_matches_the_g_vector_search(result, seed, depth, namespace["g_vector_search"])


def test_a_seed_with_no_skew_symmetrizer_is_refused():
    """The g-vector rule holds for skew-symmetrizable seeds only."""
    seed = Seed.from_data(["x1", "x2", "x3"], [], [[0, 1, -1], [-1, 0, 2], [1, -1, 0]])
    with pytest.raises(SeedError, match="no positive integer skew-symmetrizer exists"):
        enumerate_clusters(seed, 3)


def test_a_c_vector_of_mixed_signs_is_a_theorem_violation():
    """Sign-coherence fails on no seed the search admits, so only rows
    made by hand reach the check.  Slot 1 of A2 with principal
    coefficients exchanges x2 for (x1 + y2)/x2, of g-vector (1, -1)."""
    rows = ((0, 1, 1, -1), (-1, 0, 0, 1))
    with pytest.raises(TheoremViolation, match=r"c-vector \(1, -1\) of slot 0 is not sign-coherent"):
        poly_module._exchanged_g_vector(rows, ((1, 0), (0, 1)), 0)
    assert poly_module._exchanged_g_vector(rows, ((1, 0), (0, 1)), 1) == (1, -1)


def counted(monkeypatch, search, seed, depth):
    """search(seed, depth), the edges it took (g-vectors found), the
    exchanges it computed and the relabels it made."""
    edges, exchanges, relabels = [], [], []
    names = search.__globals__
    take, compute = names["_exchanged_g_vector"], names["exchange"]
    relabel = MultiPoly.relabel

    def taking(rows, gs, k):
        edges.append(k)
        return take(rows, gs, k)

    def computing(state, k):
        exchanges.append(k)
        return compute(state, k)

    def relabelling(poly, order):
        relabels.append(order)
        return relabel(poly, order)

    with monkeypatch.context() as patch:
        patch.setitem(names, "_exchanged_g_vector", taking)
        patch.setitem(names, "exchange", computing)
        patch.setattr(MultiPoly, "relabel", relabelling)
        result = search(seed, depth)
    return result, len(edges), len(exchanges), len(relabels)


# edges of one search: one per edge of the exchange graph between the
# clusters kept (n * N / 2 when the search closes); exchanges: one per
# edge with a g-vector new to the search whose relation the memo does
# not hold as the image of a computed one under an automorphism of the
# seed; relabels: one per automorphism other than the identity for each
# variable computed that is new to the search.  A3_prin has no
# automorphism but the identity, A4 and Kronecker one more, and D4 and
# Markov five more.  On Markov and Kronecker every new cluster holds a
# new variable, so there the images alone save exchanges.
EXCHANGES = {
    "A4": (lambda: linear_path_seed(4), 30, 42, 84, 8, 6),
    "D4": (d4_seed, 30, 50, 100, 7, 30),
    "A3_prin": (a3_principal_seed, 30, 14, 21, 6, 0),
    "markov": (markov_seed, 6, 190, 189, 32, 160),
    "kronecker": (kronecker_seed, 20, 41, 40, 20, 20),
}


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_cluster_search_exchange_counts_are_pinned(monkeypatch, name):
    make_seed, depth, *pinned = EXCHANGES[name]
    result, *taken = counted(monkeypatch, enumerate_clusters, make_seed(), depth)
    assert [len(result.clusters), *taken] == pinned


def test_the_memo_lives_for_one_search(monkeypatch):
    """A second search of the same seed computes its 8 exchange
    relations and 6 relabels again: no g-vector, relation or image is
    remembered past the call."""
    seed = linear_path_seed(4)
    for _ in range(2):
        result, *taken = counted(monkeypatch, enumerate_clusters, seed, 30)
        assert [len(result.clusters), *taken] == [42, 84, 8, 6]


def test_markov_squares_each_variable_once(monkeypatch):
    """Each Markov exchange squares two variables, 64 square factors for
    the 32 exchanges computed at depth 6; a square is kept on its
    polynomial and the square of a one-term polynomial is made in closed
    form, so 16 go through the square kernel."""
    squares = []
    square = poly_module._square

    def counting(items):
        squares.append(len(items))
        return square(items)

    monkeypatch.setattr(poly_module, "_square", counting)
    result, edges, exchanges, relabels = counted(monkeypatch, enumerate_clusters, markov_seed(), 6)
    assert (len(result.clusters), exchanges, relabels, len(squares)) == (190, 32, 160, 16)


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
    result, edges, exchanges, relabels = counted(monkeypatch, enumerate_clusters, a3_principal_seed(), 30)
    assert (len(result.clusters), result.status, edges, exchanges, relabels) == (14, "closed", 21, 6, 0)
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
    result, edges, exchanges, _ = counted(monkeypatch, enumerate_clusters, seed, depth)
    assert result.status == "closed"
    assert edges == seed.n * len(result.clusters) // 2
    assert exchanges <= edges


def patched(old, new, **names):
    """The poly namespace, with names added, and one piece of the source
    of enumerate_clusters, of the _exchanged_g_vector or _memo_exchange
    it calls or of the _Memo it makes replaced, all four defined anew
    there."""
    functions = (
        poly_module._Memo,
        poly_module._memo_exchange,
        poly_module._exchanged_g_vector,
        poly_module.enumerate_clusters,
    )
    sources = [inspect.getsource(f) for f in functions]
    assert sum(source.count(old) for source in sources) == 1
    namespace = {**vars(poly_module), **names}
    for source in sources:
        exec(source.replace(old, new), namespace)
    return namespace


def fault(old, new, **names):
    """enumerate_clusters with one piece of its source replaced."""
    return patched(old, new, **names)["enumerate_clusters"]


@pytest.mark.parametrize("name, exchanges", [("A4", 106), ("D4", 118)])
def test_edge_count_catches_a_wrong_known_slot(monkeypatch, name, exchanges):
    """Recording the direction taken instead of the landing state's slot
    finds the same clusters, so only the edge count shows the fault."""
    search = fault("landing[0].assignment.index(value)", "k")
    make_seed, depth = ORACLE_SEEDS[name]
    seed = make_seed()
    result, edges, *_ = counted(monkeypatch, search, seed, depth)
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
    """On triplet_seed the exchanges of x1, x2 and x3 share their
    (variable, b) pairs, so keys without the outgoing variable store the
    images of x1's relation under all five other automorphisms on one
    key, and x2 or x3 takes the other's new variable from it."""
    search = fault("(x, frozenset(pairs))", "frozenset(pairs)")
    with pytest.raises(AssertionError):
        assert_matches_the_labeled_search(monkeypatch, search, "triplet")


def memo_matches_exchange(names):
    """Through one memo of names["_Memo"] and names["_memo_exchange"]:
    A2's exchange in direction 0 stores the image of its relation under
    A2's anti-automorphism, keyed x2 and (x1, -1), and the exchanges in
    direction 1 of the rank-2 seeds with b_12 = b, keyed x2 and (x1, -b),
    each equal exchange."""
    states = [initial_state(Seed.from_data(["x1", "x2"], [], [[0, b], [-b, 0]])) for b in (1, 2, -3, 3)]
    memo, memo_exchange = names["_Memo"](states[0]), names["_memo_exchange"]
    assert memo_exchange(memo, states[0], 0) == exchange(states[0], 0)
    for state in states:
        assert memo_exchange(memo, state, 1) == exchange(state, 1), state.matrix


def test_memo_keys_carry_the_exponents():
    """A key without the exponents b_kt merges relations that differ only
    in them.  The labeled-search oracle does not show that fault on the
    seeds here, and need not: a mutation at a variable that is not a
    neighbour of x leaves the row of x unchanged, so among the clusters
    that hold x and its neighbours, joined by such mutations, the
    neighbours fix the exponents.  So the fault is caught here, on seeds
    with equal variables and different exponents."""
    memo_matches_exchange(vars(poly_module))
    with pytest.raises(AssertionError):
        memo_matches_exchange(patched("frozenset(pairs)", "frozenset(v for v, _ in pairs)"))


def searched_memo(search, seed, depth):
    """search(seed, depth) and the memo it kept."""
    names = search.__globals__
    take = names["_memo_exchange"]
    memos = []

    def taking(memo, state, k):
        memos.append(memo)
        return take(memo, state, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(names, "_memo_exchange", taking)
        result = search(seed, depth)
    assert len({id(memo) for memo in memos}) == 1
    return result, memos[0]


def relation_key(state, k):
    """The memo key of the relation in direction k of a labeled state."""
    row = state.matrix[k]
    return (state.assignment[k], frozenset((state.variable(t), b) for t, b in enumerate(row) if b))


def relation_value(key):
    """The variable of the relation keyed (x, {(v, b)}), (M+ + M-)/x, by
    plain MultiPoly arithmetic."""
    x, pairs = key
    plus = minus = MultiPoly.constant(x.context, 1)
    for v, b in pairs:
        if b > 0:
            plus = plus * v**b
        else:
            minus = minus * v**-b
    return (plus + minus) / x


def labeled_relation_keys(seed, depth):
    """The key of every relation of every labeled state the labeled search
    mutates within depth, that is, of every state at depth below it."""
    start = initial_state(seed)
    seen, level, keys = {(start.assignment, start.matrix)}, [start], set()
    for d in range(depth):
        next_level = []
        for state in level:
            for k in range(seed.n):
                keys.add(relation_key(state, k))
                if d + 1 < depth:
                    new = mutate_state(state, k)
                    if (new.assignment, new.matrix) not in seen:
                        seen.add((new.assignment, new.matrix))
                        next_level.append(new)
        level = next_level
    return keys


def assert_memo_holds_exact_relations(search, name):
    """Every relation the memo holds, the image of one it computed under
    an automorphism, equals the one recomputed from its own key, and is
    a relation the labeled search meets within the depth: an
    automorphism fixes the initial labeled seed and commutes with
    mutation, so it maps the relations met within a depth onto
    themselves.  Every variable is stored as itself."""
    make_seed, depth = ORACLE_SEEDS[name]
    seed = make_seed()
    result, memo = searched_memo(search, seed, depth)
    assert result.clusters == enumerate_clusters(seed, depth).clusters
    met = labeled_relation_keys(seed, depth)
    relations = [key for key in memo if isinstance(key, tuple)]
    for key in relations:
        value = memo[key]
        assert value == relation_value(key)
        assert memo[value] is value
        assert key in met
    for key in memo:
        if not isinstance(key, tuple):
            assert memo[key] is key


MEMO_SEEDS = sorted(EXCHANGES) + ["two_a2", "twin"]


@pytest.mark.parametrize("name", MEMO_SEEDS)
def test_memo_holds_exact_relations(name):
    assert_memo_holds_exact_relations(enumerate_clusters, name)


def every_permutation(seed, _):
    """Every bijection of the exchangeable labels with the frozen ones
    fixed, as isomorphisms: a group, mostly of non-automorphisms."""
    for image in itertools.permutations(seed.exchangeable_labels):
        yield PartialSeedHom(seed, EMPTY_SPEC, seed, image + seed.frozen_labels)


# a fault in the images, and a seed whose memo shows it
IMAGE_FAULTS = {
    "dropped sign": (("sign * b", "b"), {}, "A4"),
    "dropped sign, two components": (("sign * b", "b"), {}, "two_a2"),
    "inverse swapped": (("sorted(identity, key=p.__getitem__)", "p"), {}, "D4"),
    "inverse swapped, Markov": (("sorted(identity, key=p.__getitem__)", "p"), {}, "markov"),
    "non-automorphisms": (
        ("enumerate_seed_isos(seed, seed)", "every_permutation(seed, seed)"),
        {"every_permutation": every_permutation},
        "A4",
    ),
}


@pytest.mark.parametrize("fault_name", sorted(IMAGE_FAULTS))
def test_memo_oracle_catches_a_wrong_image(fault_name):
    """A sign dropped from an anti-automorphism's image key, sigma and its
    inverse swapped in the relabel, or images stored for label
    permutations that are not automorphisms: each stores a relation the
    labeled search never meets or a variable its key does not give; a
    wrong variable may also make a later division fail, which a search
    on these seeds never does."""
    (old, new), names, name = IMAGE_FAULTS[fault_name]
    with pytest.raises((AssertionError, LaurentViolation)):
        assert_memo_holds_exact_relations(fault(old, new, **names), name)


@pytest.mark.parametrize("name", ["frozen_fan", "isolated"])
def test_a_huge_automorphism_group_is_read_up_to_the_cap(monkeypatch, name):
    """frozen_fan has 10! automorphisms and isolated 8!: the search reads
    MAX_AUTOMORPHISMS + 1 of them, stores no image, closes well under a
    second and finds the labeled search's clusters."""
    read = []
    isos = poly_module.enumerate_seed_isos

    def reading(a, b):
        for iso in isos(a, b):
            read.append(iso)
            yield iso

    monkeypatch.setattr(poly_module, "enumerate_seed_isos", reading)
    make_seed, depth = ORACLE_SEEDS[name]
    seed = make_seed()
    started = time.perf_counter()
    result, edges, exchanges, relabels = counted(monkeypatch, enumerate_clusters, seed, depth)
    assert time.perf_counter() - started < 0.5
    assert len(read) == poly_module.MAX_AUTOMORPHISMS + 1
    assert (len(result.clusters), result.status, relabels) == (2**seed.n, "closed", 0)
    assert (exchanges, edges) == (seed.n, seed.n * 2**seed.n // 2)
    assert_matches_the_labeled_search(monkeypatch, enumerate_clusters, name)


def test_a_group_under_the_cap_stores_images(monkeypatch):
    """Four isolated labels have 24 automorphisms, under the cap: the 32
    edges compute x1 * x1' = 2 and take its images for the other labels,
    and the new variable 2/x1 is relabelled once per automorphism other
    than the identity."""
    seed = Seed.from_data(["x1", "x2", "x3", "x4"], [], [[0] * 4] * 4)
    result, *taken = counted(monkeypatch, enumerate_clusters, seed, 5)
    assert [len(result.clusters), result.status, *taken] == [16, "closed", 32, 1, 23]


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
