"""The endomorphism semigroup, its Green's relations, and regularity.

An independently coded brute-force enumerator (re-deriving the validity
condition from its raw pairwise form, with no shared code) pins the
semigroup sizes on the small seeds; everything downstream cross-checks
against it.
"""

import itertools

import numpy as np
import pytest

from clusterseeds import (
    PartialSeedHom,
    ResourceCapExceeded,
    SeedError,
    SubSeedSpec,
    check_structural_green,
    compose,
    d_by_composition,
    empty_hom,
    enumerate_endpar,
    green_relations,
    h_class_group,
    identity_inclusion,
    idempotents,
    is_id_form,
    is_linear_an,
    is_regular_element,
    partition_classes,
    projected_endpar_bound,
    regular_D_classes,
    regularity_linear_an,
    subseed_components,
)
from conftest import (
    BENCHMARK_SEEDS,
    LINEAR_SIZES,
    PINNED_STATS,
    a2_seed,
    a2_y2_seed,
    amalgam_seed,
    double_arrow_seed,
    linear_path_seed,
    trivial_seed,
)


# ----------------------------------------------- independent enumeration


def brute_force_endpar(seed):
    """Second, independent enumerator of all partial endomorphisms.

    The validity condition is written directly in its quantified form:
    over all pairs of adjacent row pairs of the sub-seed, the two sign
    products never conflict and magnitudes never shrink.  No code is
    shared with the package implementation beyond the Seed accessors.
    """
    ex = seed.exchangeable_labels
    fr = seed.frozen_labels
    labels = ex + fr
    results = set()
    for i0_size in range(len(ex) + 1):
        for I0 in itertools.combinations(ex, i0_size):
            remaining = [x for x in labels if x not in I0]
            for i1_size in range(len(remaining) + 1):
                for I1 in itertools.combinations(remaining, i1_size):
                    dom_ex = [x for x in ex if x not in I0 and x not in I1]
                    dom_fr = [x for x in ex if x in I0] + [
                        x for x in fr if x not in I1
                    ]
                    dom = dom_ex + dom_fr
                    choices = [list(ex)] * len(dom_ex) + [list(labels)] * len(dom_fr)
                    for values in itertools.product(*choices):
                        f = dict(zip(dom, values))
                        if _valid_raw(seed, dom_ex, dom, f):
                            results.add(
                                (frozenset(I0), frozenset(I1), tuple(sorted(f.items())))
                            )
    return results


def _valid_raw(seed, dom_ex, dom, f):
    # b over the sub-seed: rows only for dom_ex, columns over dom
    def b_sub(x, y):
        return seed.b(x, y)

    pairs = [(x, y) for x in dom_ex for y in dom if x != y]
    for (x, y), (z, w) in itertools.product(pairs, pairs):
        if x != z and b_sub(x, z) == 0:
            continue
        bxy, bzw = b_sub(x, y), b_sub(z, w)
        pxy = seed.b(f[x], f[y])
        pzw = seed.b(f[z], f[w])
        if pxy * bxy * pzw * bzw < 0:
            return False
    for x, y in pairs:
        if abs(seed.b(f[x], f[y])) < abs(b_sub(x, y)):
            return False
    return True


def to_key(h):
    return (h.spec.I0, h.spec.I1, tuple(sorted(h.map_dict().items())))


@pytest.mark.parametrize("name", ["a2", "trivial_m1", "trivial_m2"])
def test_enumerator_agrees_with_independent_brute_force(name):
    seed = BENCHMARK_SEEDS[name]()
    S = enumerate_endpar(seed)
    assert {to_key(h) for h in S.elements} == brute_force_endpar(seed)


@pytest.mark.parametrize("name", sorted(BENCHMARK_SEEDS))
def test_pinned_semigroup_sizes(name):
    seed = BENCHMARK_SEEDS[name]()
    S = enumerate_endpar(seed)
    assert len(S) == PINNED_STATS[name]["size"]
    assert len(S) <= projected_endpar_bound(seed)
    assert S.elements[S.zero_index].is_empty()


@pytest.mark.parametrize("n", sorted(LINEAR_SIZES))
def test_pinned_linear_path_sizes(n):
    assert len(enumerate_endpar(linear_path_seed(n))) == LINEAR_SIZES[n]


def test_cap_raises_with_partial_count():
    with pytest.raises(ResourceCapExceeded) as exc:
        enumerate_endpar(amalgam_seed(), cap=10)
    assert exc.value.partial_count == 10


def test_product_table_matches_object_composition():
    for seed in (a2_seed(), double_arrow_seed()):
        S = enumerate_endpar(seed)
        assert S.product.dtype == np.int16
        assert S.elements[S.zero_index] == empty_hom(seed)
        for i, g in enumerate(S.elements):
            for j, f in enumerate(S.elements):
                assert S.elements[S.mult(i, j)] == compose(g, f)


def test_element_code_width_is_checked():
    # 14 labels need digits in base 30, and 30**14 exceeds a 64-bit code
    from clusterseeds.semigroup import _product_table

    with pytest.raises(ResourceCapExceeded):
        _product_table([], tuple(f"y{i}" for i in range(14)))


def test_zero_absorbs():
    S = enumerate_endpar(a2_seed())
    z = S.zero_index
    assert all(S.mult(z, j) == z for j in range(len(S)))
    assert all(S.mult(i, z) == z for i in range(len(S)))


# --------------------------------------------------------- Green relations


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


ORACLE_SEEDS = {
    **BENCHMARK_SEEDS,
    **{f"A{n}": (lambda n=n: linear_path_seed(n)) for n in (1, 3)},  # A2 is a2
    "a2_y2": a2_y2_seed,
}


@pytest.mark.parametrize("name", sorted(ORACLE_SEEDS))
def test_green_relations_match_set_oracle(name):
    S = enumerate_endpar(ORACLE_SEEDS[name]())
    P = green_relations(S)
    for field, expected in green_oracle(S).items():
        assert getattr(P, field) == expected, field


@pytest.mark.parametrize("name", sorted(BENCHMARK_SEEDS))
def test_green_internal_consistency(name):
    S = enumerate_endpar(BENCHMARK_SEEDS[name]())
    P = green_relations(S)
    # H is the meet of L and R
    assert all(
        (P.H[i] == P.H[j]) == (P.L[i] == P.L[j] and P.R[i] == P.R[j])
        for i in range(len(S))
        for j in range(len(S))
    )
    # D as a closure equals D as a relational composition, both ways
    assert d_by_composition(S, P, via="LR") == P.D
    assert d_by_composition(S, P, via="RL") == P.D
    # D refines J
    assert all(P.J[i] == P.J[P.D[i]] for i in range(len(S)))


@pytest.mark.parametrize("name", sorted(BENCHMARK_SEEDS))
def test_pinned_green_statistics(name):
    S = enumerate_endpar(BENCHMARK_SEEDS[name]())
    P = green_relations(S)
    stats = PINNED_STATS[name]
    assert sum(P.regular_flags) == stats["regular"]
    assert len(idempotents(S)) == stats["idempotents"]
    assert len(regular_D_classes(S, P)) == stats["regular_d"]


def test_regular_flags_match_witness_search():
    S = enumerate_endpar(double_arrow_seed())
    P = green_relations(S)
    for i in range(len(S)):
        assert P.regular_flags[i] == (is_regular_element(S, i) is not None)


def test_idempotent_flags_include_all_id_forms():
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    for i, h in enumerate(S.elements):
        if is_id_form(h):
            assert P.idempotent_flags[i]


def test_regular_d_classes_have_idempotents_in_every_row_and_column():
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    idem = set(idempotents(S))
    for rep, _ in regular_D_classes(S, P):
        members = [i for i in range(len(S)) if P.D[i] == rep]
        for r in {P.R[i] for i in members}:
            assert any(P.R[i] == r and i in idem for i in members)
        for l in {P.L[i] for i in members}:
            assert any(P.L[i] == l and i in idem for i in members)


def test_nonregular_d_class_has_no_id_form():
    seed = double_arrow_seed()
    S = enumerate_endpar(seed)
    P = green_relations(S)
    f = PartialSeedHom.from_dict(
        seed, SubSeedSpec.of((), ["x3"]), seed, {"x1": "x3", "x2": "x2"}
    )
    i = S.index[f]
    assert not P.regular_flags[i]
    members = [j for j in range(len(S)) if P.D[j] == P.D[i]]
    assert not any(is_id_form(S.elements[j]) for j in members)


def test_idempotent_witnesses_its_own_d_class():
    # an idempotent e is a product through itself, so its D-class is regular
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    for e in idempotents(S):
        assert P.regular_flags[e]


# ---------------------------------------------------------- H-class groups


def test_h_class_group_of_trivial_m2_has_order_two():
    S = enumerate_endpar(trivial_seed(2))
    P = green_relations(S)
    e = S.index[identity_inclusion(trivial_seed(2), SubSeedSpec.of((), ()))]
    grp = h_class_group(S, P, e)
    assert grp.aut_order == 2
    assert len(grp.members) == 2


def test_h_class_group_requires_id_form_idempotent():
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    non_id = next(
        i for i in range(len(S)) if not is_id_form(S.elements[i])
    )
    with pytest.raises(SeedError):
        h_class_group(S, P, non_id)


@pytest.mark.parametrize("name", ["a2", "trivial_m2"])
def test_all_h_class_groups_verify(name):
    S = enumerate_endpar(BENCHMARK_SEEDS[name]())
    P = green_relations(S)
    for e in idempotents(S):
        if is_id_form(S.elements[e]):
            h_class_group(S, P, e)  # raises on any group-axiom failure


# ----------------------------------------------------- structural formulas


@pytest.mark.parametrize("name", ["a2", "trivial_m2"])
def test_structural_green_on_small_seeds(name):
    S = enumerate_endpar(BENCHMARK_SEEDS[name]())
    P = green_relations(S)
    report = check_structural_green(S, P)
    assert report.ok
    assert report.regular_count == PINNED_STATS[name]["regular"]


# ---------------------------------------------------- path-quiver regularity


def test_is_linear_an_classification():
    assert is_linear_an(linear_path_seed(1))
    assert is_linear_an(linear_path_seed(4))
    assert is_linear_an(amalgam_seed())  # orientation does not matter
    assert not is_linear_an(double_arrow_seed())  # weight 2
    assert not is_linear_an(trivial_seed(2))  # disconnected
    from clusterseeds import Seed

    star = [
        [0, 1, 1, 1],
        [-1, 0, 0, 0],
        [-1, 0, 0, 0],
        [-1, 0, 0, 0],
    ]
    assert not is_linear_an(Seed.from_data(["a", "b", "c", "d"], [], star))


def test_subseed_components():
    seed = linear_path_seed(3)
    comps = subseed_components(seed, SubSeedSpec.of((), ["x2"]))
    assert sorted(comps) == [("x1",), ("x3",)]
    comps = subseed_components(seed, SubSeedSpec.of(["x2"], ()))
    assert comps == [("x1", "x3", "x2")] or len(comps) == 1


def test_path_regularity_requires_a_path():
    f = identity_inclusion(double_arrow_seed(), SubSeedSpec.of((), ()))
    with pytest.raises(SeedError):
        regularity_linear_an(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_path_regularity_agrees_with_brute_force(n):
    seed = linear_path_seed(n)
    S = enumerate_endpar(seed)
    for i, f in enumerate(S.elements):
        assert regularity_linear_an(f) == (is_regular_element(S, i) is not None)


def test_empty_hom_is_regular_and_idempotent():
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    z = S.zero_index
    assert P.regular_flags[z] and P.idempotent_flags[z]
    assert is_id_form(S.elements[z])
