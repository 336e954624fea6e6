"""The endomorphism semigroup, its Green's relations, and regularity.

An independently coded brute-force enumerator (oracles.brute_force_endpar,
re-deriving the validity condition from its raw pairwise form, with no
shared code) pins the semigroup sizes on the small seeds; everything
downstream cross-checks against it.
"""

import dataclasses
import functools
import itertools
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from clusterseeds import (
    PartialSeedHom,
    ResourceCapExceeded,
    Seed,
    SeedError,
    TheoremViolation,
    check_partial_hom,
    check_structural_green,
    compose,
    enumerate_endpar,
    green_relations,
    h_class_group,
    mixing_subseed,
    partition_classes,
    projected_endpar_bound,
    regular_D_classes,
)
from clusterseeds import semigroup as semigroup_module
from clusterseeds.semigroup import (
    _BLOCK_CELLS,
    _all_specs,
    _product_table,
)
from conftest import (
    BENCHMARK_SEEDS,
    LINEAR_SIZES,
    PINNED_STATS,
    a2_seed,
    a2_y2_seed,
    amalgam_seed,
    double_arrow_seed,
    green_oracle,
    linear_path_seed,
    trivial_seed,
)
from oracles import (
    brute_force_endpar,
    d_by_closure,
    d_by_composition,
    element,
    element_index,
    elements,
    empty_hom,
    endpar_bound_by_specs,
    idempotents,
    identity_inclusion,
    image_spec,
    is_id_form,
    is_linear_an,
    is_regular_element,
    regularity_linear_an,
    spec_of,
    spec_sort_key,
    spec_universe_size,
    subseed_components,
    to_key,
)


@pytest.mark.parametrize("name", ["a2", "trivial_m1", "trivial_m2"])
def test_enumerator_agrees_with_independent_brute_force(name):
    seed = BENCHMARK_SEEDS[name]()
    S = enumerate_endpar(seed)
    assert {to_key(h) for h in elements(S)} == brute_force_endpar(seed)


@pytest.mark.parametrize("name", sorted(BENCHMARK_SEEDS))
def test_pinned_semigroup_sizes(name):
    seed = BENCHMARK_SEEDS[name]()
    S = enumerate_endpar(seed)
    assert len(S) == PINNED_STATS[name]["size"]
    assert len(S) <= projected_endpar_bound(seed)
    assert element(S, S.zero_index) == empty_hom(seed)


@pytest.mark.parametrize("n", sorted(LINEAR_SIZES))
def test_pinned_linear_path_sizes(n):
    assert len(enumerate_endpar(linear_path_seed(n))) == LINEAR_SIZES[n]


def shuffled_seed(n, m):
    """n exchangeable and m frozen labels, each kind listed in a shuffled
    order: a path on the exchangeable positions, and each frozen label
    below the exchangeable position of its index mod n."""
    rng = random.Random(10 * n + m)
    ex = rng.sample([f"x{i}" for i in range(1, n + 1)], n)
    fr = rng.sample([f"y{j}" for j in range(1, m + 1)], m)
    rows = [[0] * (n + m) for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    for j in range(m if n else 0):
        rows[j % n][n + j] = 1
    return Seed.from_data(ex, fr, rows)


SHUFFLED_SIZES = list(itertools.product(range(5), range(4)))


@pytest.mark.parametrize("n,m", SHUFFLED_SIZES)
def test_projected_bound_is_the_sum_over_specs(n, m):
    seed = shuffled_seed(n, m)
    assert projected_endpar_bound(seed) == endpar_bound_by_specs(seed)


@pytest.mark.parametrize("n,count", [(5, 161_051), (6, 4_826_809), (7, 170_859_375)])
def test_pinned_projected_bounds(n, count):
    assert projected_endpar_bound(linear_path_seed(n)) == count


@pytest.mark.parametrize("n,m", SHUFFLED_SIZES)
def test_specs_are_enumerated_in_label_order(n, m):
    """iso_classes_of_subseeds takes the first spec of each class as its
    representative, so the order of _all_specs is what it reports."""
    seed = shuffled_seed(n, m)
    specs = list(_all_specs(seed))
    assert specs == sorted(specs, key=lambda spec: spec_sort_key(seed, spec))
    assert len(set(specs)) == len(specs) == spec_universe_size(seed)


def test_cap_raises_with_partial_count():
    with pytest.raises(ResourceCapExceeded) as exc:
        enumerate_endpar(amalgam_seed(), cap=10)
    assert exc.value.partial_count == 10


def test_product_table_matches_object_composition():
    for seed in (a2_seed(), double_arrow_seed()):
        S = enumerate_endpar(seed)
        assert S.product.dtype == np.int16
        assert element(S, S.zero_index) == empty_hom(seed)
        for i, g in enumerate(elements(S)):
            for j, f in enumerate(elements(S)):
                assert element(S, int(S.product[i, j])) == compose(g, f)


def test_element_code_width_is_checked():
    # 14 labels need digits in base 30, and 30**14 exceeds a 64-bit code;
    # the check comes before any candidate is tried
    with pytest.raises(ResourceCapExceeded, match="64-bit element code") as exc:
        enumerate_endpar(trivial_seed(14))
    assert exc.value.partial_count == 0


TABLE_SEEDS = {
    **BENCHMARK_SEEDS,
    **{f"A{n}": (lambda n=n: linear_path_seed(n)) for n in (1, 3, 4)},  # A2 is a2
    "a2_y2": a2_y2_seed,
}


@functools.cache
def endpar_of(name):
    return enumerate_endpar(TABLE_SEEDS[name]())


def digit_rows(S):
    """The elements' digit rows as SemigroupTable documents them:
    2*(v+1)+f at each domain position, 0 outside the domain."""
    seed = S.seed
    rows = []
    for h in elements(S):
        frozen = set(h.dom_fr)
        rows.append(
            [0 if v is None else 2 * (seed.index(v) + 1) + (x in frozen)
             for x, v in zip(seed.labels, h.mapping)]
        )
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("name", sorted(TABLE_SEEDS))
def test_stored_rows_are_the_documented_digits(name):
    S = endpar_of(name)
    assert S.digits.dtype == np.int64
    assert np.array_equal(S.digits, digit_rows(S))
    assert S.id_form.tolist() == [is_id_form(h) for h in elements(S)]


@pytest.mark.parametrize("name", sorted(TABLE_SEEDS))
def test_index_of_finds_each_element_and_no_rejected_map(name):
    S = endpar_of(name)
    seed = S.seed
    for i, h in enumerate(elements(S)):
        assert S.index_of(h.spec, h) == i
    for spec in _all_specs(seed):
        assert S.id_form[S.index_of(spec)], spec
    # per spec, the maps of its domain into all labels up to the first one
    # that check_partial_hom rejects; condition (a) rejects some of them
    rejected = 0
    for spec in _all_specs(seed):
        dom = [p for p, x in enumerate(seed.labels) if x not in spec.I1]
        for values in itertools.product(seed.labels, repeat=len(dom)):
            mapping = [None] * len(seed.labels)
            for p, v in zip(dom, values):
                mapping[p] = v
            cand = PartialSeedHom(seed, spec, seed, tuple(mapping))
            i = S.index_of(spec, cand)
            if not check_partial_hom(cand)[0]:
                assert i is None, cand
                rejected += 1
                break
            assert element(S, i) == cand
    # every map is a partial endomorphism on A1 and on the seeds with no
    # exchangeable label
    assert (rejected == 0) == (name in ("A1", "trivial_m1", "trivial_m2"))


PATHS = ["dense", "sorted", "wide"]


def all_paths(digits):
    """The digit rows for each lookup path and code type, padded with
    all-zero columns where needed: as given, which takes the dense code
    table on every seed here and accumulates codes as int16 (width <= 4);
    to width 7, whose 16**7 codes outnumber size² on every seed here, so
    the sorted-code search, with int32 codes; and to width 8, the sorted
    search with int64 codes (18**8 > 2**31).  Padding changes no product,
    since a padded position lies outside every domain."""
    size, width = digits.shape
    assert (2 * width + 2) ** width <= min(size * size, 2**15) and size * size < 16**7
    return {
        "dense": digits,
        "sorted": np.pad(digits, ((0, 0), (0, 7 - width))),
        "wide": np.pad(digits, ((0, 0), (0, 8 - width))),
    }


@pytest.mark.parametrize("name", sorted(TABLE_SEEDS))
def test_product_table_lookup_paths_agree(name):
    S = endpar_of(name)
    for path, digits in all_paths(digit_rows(S)).items():
        product, zero = _product_table(digits)
        assert product.dtype == S.product.dtype, path
        assert np.array_equal(product, S.product), path
        assert zero == S.zero_index, path


@pytest.mark.parametrize("path, code_type", zip(PATHS, (np.int16, np.int32, np.int64)))
def test_product_table_gathers_codes_in_the_narrowest_type(monkeypatch, path, code_type):
    S = endpar_of("a2_y2")
    real_take = np.take
    gathered = set()

    def spying_take(a, indices, axis=None, out=None, mode="raise"):
        if axis == 0:  # the gathers of weighted rows, not the dense lookup
            gathered.add(out.dtype)
        return real_take(a, indices, axis=axis, out=out, mode=mode)

    monkeypatch.setattr(np, "take", spying_take)
    product, _ = _product_table(all_paths(digit_rows(S))[path])
    assert gathered == {np.dtype(code_type)}
    assert np.array_equal(product, S.product)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name, stride", [("a2", 1), ("a2_y2", 31)])
def test_product_table_closure_check_names_the_first_product_outside(name, stride, path):
    """Remove one non-zero row: the first product that lands on it, in
    the order the table is built (column by column, each top to bottom),
    is the one reported."""
    S = endpar_of(name)
    size = len(S)
    raised = []
    for r in range(1, size, stride):
        if r == S.zero_index:
            continue
        keep = [k for k in range(size) if k != r]
        digits = all_paths(digit_rows(S)[keep])[path]
        table = S.product[np.ix_(keep, keep)]
        outside = np.argwhere(table.T == r)
        if not len(outside):
            # the rows left are closed: their table, renumbered past r
            assert np.array_equal(_product_table(digits)[0], table - (table > r))
            continue
        j, i = outside[0]
        with pytest.raises(
            TheoremViolation, match=rf"^composition of elements {i} and {j} left the semigroup$"
        ):
            _product_table(digits)
        raised.append(j)
    assert len(raised) > size // stride // 2
    if name == "a2_y2":  # some first products lie past the first block of columns
        assert max(raised) >= _BLOCK_CELLS // size


@pytest.mark.parametrize("path", PATHS)
def test_product_table_rejects_a_shared_code(path):
    S = endpar_of("a2")
    digits = digit_rows(S)
    for r in (0, S.zero_index, len(S) - 1):
        twice = np.insert(digits, r + 1, digits[r], axis=0)
        with pytest.raises(TheoremViolation, match="two elements of the semigroup share a code"):
            _product_table(all_paths(twice)[path])


@pytest.mark.parametrize("path", PATHS)
def test_product_table_rejects_a_missing_zero(path):
    S = endpar_of("a2")
    digits = np.delete(digit_rows(S), S.zero_index, axis=0)
    with pytest.raises(TheoremViolation, match="the empty homomorphism is missing"):
        _product_table(all_paths(digits)[path])


def test_zero_absorbs():
    S = enumerate_endpar(a2_seed())
    z = S.zero_index
    assert all(int(S.product[z, j]) == z for j in range(len(S)))
    assert all(int(S.product[i, z]) == z for i in range(len(S)))


# --------------------------------------------------------- Green relations


ORACLE_SEEDS = {
    **BENCHMARK_SEEDS,
    **{f"A{n}": (lambda n=n: linear_path_seed(n)) for n in (1, 3)},  # A2 is a2
    "a2_y2": a2_y2_seed,
}


@pytest.mark.parametrize("name", sorted(ORACLE_SEEDS))
def test_green_relations_match_set_oracle(name):
    S = enumerate_endpar(ORACLE_SEEDS[name]())
    P = green_relations(S)
    oracle = green_oracle(S)
    # J = D in a finite semigroup: the oracle's J, from S¹xS¹, is Green's D
    assert oracle.pop("J") == P.D
    for field, expected in oracle.items():
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
    assert d_by_closure(P) == P.D
    assert d_by_composition(S, P, via="LR") == P.D
    assert d_by_composition(S, P, via="RL") == P.D
    # J = D in a finite semigroup, with J from the set oracle
    assert green_oracle(S)["J"] == P.D


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


def _perturbed_a2(i, j, k):
    """The a2 semigroup with product[i, j] set to k."""
    S = enumerate_endpar(a2_seed())
    product = S.product.copy()
    product[i, j] = k
    return dataclasses.replace(S, product=product)


def test_green_relations_rejects_l_and_r_that_do_not_commute():
    # product[0, 2] = 0 was found by a search over one-cell changes of the
    # a2 table; the set oracle's L∘R and R∘L differ at element 5 there
    S = _perturbed_a2(0, 2, 0)
    oracle = green_oracle(S)
    assert oracle["D"][5] != d_by_composition(S, SimpleNamespace(**oracle), via="RL")[5]
    with pytest.raises(TheoremViolation, match=r"^L∘R and R∘L differ at element 5$"):
        green_relations(S)


def test_green_relations_rejects_regularity_that_depends_on_the_side():
    # product[0, 1] = 0, found by the same search: by the set oracle, the
    # R-class and the L-class of element 1 do not both hold an idempotent
    S = _perturbed_a2(0, 1, 0)
    oracle = green_oracle(S)
    idem = [e for e, flag in enumerate(oracle["idempotent_flags"]) if flag]
    by_r = any(oracle["R"][e] == oracle["R"][1] for e in idem)
    by_l = any(oracle["L"][e] == oracle["L"][1] for e in idem)
    assert by_r != by_l
    with pytest.raises(
        TheoremViolation,
        match=r"^regularity differs between the R-class and the L-class of element 1$",
    ):
        green_relations(S)


def test_idempotent_flags_include_all_id_forms():
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    for i, h in enumerate(elements(S)):
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
        seed, spec_of((), ["x3"]), seed, {"x1": "x3", "x2": "x2"}
    )
    i = element_index(S)[f]
    assert not P.regular_flags[i]
    members = [j for j in range(len(S)) if P.D[j] == P.D[i]]
    assert not any(is_id_form(element(S, j)) for j in members)


@pytest.mark.parametrize("name", ["a2", "amalgam", "double_arrow"])
def test_regular_d_classes_reject_perturbed_flags(name):
    S, P = semigroup_and_green(name)
    classes = sorted(partition_classes(P.D).items())
    # one member of a class of several leaves its class's regularity
    rep, members = next((rep, members) for rep, members in classes if len(members) > 1)
    flags = list(P.regular_flags)
    flags[members[-1]] = not flags[members[-1]]
    with pytest.raises(
        TheoremViolation, match=rf"^regularity is not constant on the D-class of element {rep}$"
    ):
        regular_D_classes(S, dataclasses.replace(P, regular_flags=tuple(flags)))
    # a whole class changes its regularity, with its id-form members kept
    for rep, members in classes:
        flags = list(P.regular_flags)
        for i in members:
            flags[i] = not flags[i]
        with pytest.raises(
            TheoremViolation,
            match=rf"^D-class of element {rep}: id-form membership and regularity disagree$",
        ):
            regular_D_classes(S, dataclasses.replace(P, regular_flags=tuple(flags)))


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
    e = element_index(S)[identity_inclusion(trivial_seed(2), spec_of((), ()))]
    grp = h_class_group(S, P, e)
    assert grp.aut_order == 2
    assert len(grp.members) == 2


def test_h_class_group_requires_id_form_idempotent():
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    non_id = next(
        i for i in range(len(S)) if not is_id_form(element(S, i))
    )
    with pytest.raises(SeedError):
        h_class_group(S, P, non_id)


def test_h_class_group_rejects_an_automorphism_outside_the_h_class():
    """The other member of an H-class of order 2 leaves the class: the
    automorphism it stands for lands outside."""
    S, P = semigroup_and_green("trivial_m2")
    e = next(e for _, e in regular_D_classes(S, P) if h_class_group(S, P, e).aut_order == 2)
    (a,) = set(h_class_group(S, P, e).members) - {e}
    H = list(P.H)
    H[a] = len(S)  # the representative of no other element
    with pytest.raises(
        TheoremViolation, match="^an automorphism of the sub-seed does not land in the H-class$"
    ):
        h_class_group(S, dataclasses.replace(P, H=tuple(H)), e)


@pytest.mark.parametrize("name", ["a2", "amalgam"])
def test_h_class_group_rejects_an_h_class_larger_than_the_automorphisms(name):
    """The zero z joins the H-class {e} of an id-form idempotent with one
    automorphism, and z*z = e in the table, so that {e, z} passes the
    group axioms; the one automorphism covers e only."""
    S, P = semigroup_and_green(name)
    z = S.zero_index
    e = next(
        e for _, e in regular_D_classes(S, P) if e != z and h_class_group(S, P, e).aut_order == 1
    )
    H = list(P.H)
    H[z] = P.H[e]
    product = S.product.copy()
    product[z, z] = e
    with pytest.raises(
        TheoremViolation, match=rf"^Aut <-> H-class correspondence is not bijective at element {e}$"
    ):
        h_class_group(dataclasses.replace(S, product=product), dataclasses.replace(P, H=tuple(H)), e)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("fault", ["a*a=a", "e*a=zero", "a*e=e", "e*e=a"])
def test_h_class_group_reports_a_wrong_cell_as_not_multiplicative(m, fault):
    """One wrong cell in the H-class of order m! of the frozen-only seed
    with m labels breaks a product of lifts: no inverse, no closure, no
    identity, or e not idempotent."""
    S = enumerate_endpar(trivial_seed(m))
    P = green_relations(S)
    e = S.index_of(spec_of((), ()))
    members = h_class_group(S, P, e).members
    assert len(members) == math.factorial(m)
    a = next(a for a in members if a != e)
    cell, value = {
        "a*a=a": ((a, a), a),
        "e*a=zero": ((e, a), S.zero_index),
        "a*e=e": ((a, e), e),
        "e*e=a": ((e, e), a),
    }[fault]
    product = S.product.copy()
    product[cell] = value
    with pytest.raises(
        TheoremViolation, match=rf"^Aut -> H-class map is not multiplicative at element {e}$"
    ):
        h_class_group(dataclasses.replace(S, product=product), P, e)


@pytest.mark.parametrize("name", ["a2", "trivial_m2"])
def test_all_h_class_groups_verify(name):
    S = enumerate_endpar(BENCHMARK_SEEDS[name]())
    P = green_relations(S)
    for e in idempotents(S):
        if is_id_form(element(S, e)):
            h_class_group(S, P, e)  # raises on any group-axiom failure


# ----------------------------------------------------- structural formulas


STRUCTURAL_SEEDS = dict(
    BENCHMARK_SEEDS,
    A3=lambda: linear_path_seed(3),
    a2_y2=a2_y2_seed,
    A4=lambda: linear_path_seed(4),
)
REGULAR_COUNTS = dict(
    {name: stats["regular"] for name, stats in PINNED_STATS.items()},
    A3=132,
    a2_y2=714,
    A4=1169,
)


@functools.cache
def semigroup_and_green(name):
    S = enumerate_endpar(STRUCTURAL_SEEDS[name]())
    return S, green_relations(S)


@pytest.mark.parametrize("name", sorted(STRUCTURAL_SEEDS))
def test_structural_green_on_small_seeds(name):
    S, P = semigroup_and_green(name)
    report = check_structural_green(S, P)
    r = REGULAR_COUNTS[name]
    assert report.ok
    assert report.regular_count == r
    assert report.checked_pairs == r * (r - 1) // 2


@pytest.mark.parametrize("name,built", [("a2", 9), ("A3", 27), ("amalgam", 27), ("double_arrow", 27)])
def test_structural_green_builds_one_image_seed_per_image_spec(monkeypatch, name, built):
    S, P = semigroup_and_green(name)
    specs = []

    def counted(seed, spec):
        specs.append(spec)
        return mixing_subseed(seed, spec)

    monkeypatch.setattr(semigroup_module, "mixing_subseed", counted)
    check_structural_green(S, P)
    assert len(specs) == len(set(specs)) == built
    # the specs read off digit rows are the label-based reference's
    assert set(specs) == {image_spec(element(S, i)) for i in range(len(S)) if P.regular_flags[i]}


@pytest.mark.parametrize("move", ["merge", "split"])
@pytest.mark.parametrize("relation", ["R", "L", "H", "D"])
@pytest.mark.parametrize("name", ["a2", "A3", "amalgam", "double_arrow"])
def test_structural_green_rejects_perturbed_partitions(name, relation, move):
    S, P = semigroup_and_green(name)
    before = getattr(P, relation)
    after = list(before)
    regular = [i for i in range(len(S)) if P.regular_flags[i]]
    if move == "merge":
        # one regular element joins another element's class
        x, y = next((x, y) for x in regular for y in regular if before[x] != before[y])
        after[x] = before[y]
    else:
        # one regular element leaves its class to stand alone
        x = next(x for x in regular if any(before[y] == before[x] for y in regular if y != x))
        after[x] = len(S)  # the representative of no other element
    bad = dataclasses.replace(P, **{relation: tuple(after)})
    with pytest.raises(TheoremViolation, match=f"{relation}-characterization") as exc:
        check_structural_green(S, bad)
    a, b = map(int, re.search(r"pair \((\d+),(\d+)\)", str(exc.value)).groups())
    assert P.regular_flags[a] and P.regular_flags[b]
    assert (after[a] == after[b]) != (before[a] == before[b])


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
    comps = subseed_components(seed, spec_of((), ["x2"]))
    assert sorted(comps) == [("x1",), ("x3",)]
    comps = subseed_components(seed, spec_of(["x2"], ()))
    assert comps == [("x1", "x3", "x2")] or len(comps) == 1


def test_path_regularity_requires_a_path():
    f = identity_inclusion(double_arrow_seed(), spec_of((), ()))
    with pytest.raises(SeedError):
        regularity_linear_an(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_path_regularity_agrees_with_brute_force(n):
    seed = linear_path_seed(n)
    S = enumerate_endpar(seed)
    for i, f in enumerate(elements(S)):
        assert regularity_linear_an(f) == (is_regular_element(S, i) is not None)


def test_empty_hom_is_regular_and_idempotent():
    S = enumerate_endpar(a2_seed())
    P = green_relations(S)
    z = S.zero_index
    assert P.regular_flags[z] and P.idempotent_flags[z]
    assert is_id_form(element(S, z))
