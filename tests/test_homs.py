"""Sub-seeds, partial seed homomorphisms, composition, and isomorphisms."""

import itertools

import pytest

from clusterseeds import (
    HomError,
    PartialSeedHom,
    Seed,
    SpecError,
    automorphism_group,
    check_partial_hom,
    compose,
    enumerate_endpar,
    enumerate_seed_isos,
    find_seed_iso,
    green_relations,
    image_spec,
    iso_classes_of_subseeds,
    mixing_subseed,
    projected_endpar_bound,
    require_hom,
)
from clusterseeds import homs as homs_module, semigroup as semigroup_module
from conftest import (
    a2_seed,
    a2_y2_seed,
    amalgam_seed,
    double_arrow_seed,
    linear_path_seed,
    trivial_seed,
)
from oracles import (
    empty_hom,
    factor_through_image,
    identity_inclusion,
    image_seed,
    inverse_iso,
    is_retraction,
    is_seed_iso,
    spec_of,
)


def spec(i0=(), i1=()):
    return spec_of(i0, i1)


# ---------------------------------------------------------------- sub-seeds


def test_mixing_subseed_splits_and_restricts():
    seed = amalgam_seed()
    sub = mixing_subseed(seed, spec(["x2"], ["x3"]))
    assert sub.exchangeable_labels == ("x1",)
    assert sub.frozen_labels == ("x2",)
    assert sub.matrix == ((0, 1),)


def test_mixing_subseed_orders_newly_frozen_first():
    seed = Seed.from_data(["x1", "x2"], ["t"], [[0, 1, 1], [-1, 0, 0]])
    sub = mixing_subseed(seed, spec(["x1"]))
    assert sub.frozen_labels == ("x1", "t")


def test_spec_validation():
    seed = a2_seed()
    with pytest.raises(SpecError):
        mixing_subseed(seed, spec(["nope"]))
    with pytest.raises(SpecError):
        mixing_subseed(seed, spec(["x1"], ["x1"]))
    frozen_seed = Seed.from_data(["x1"], ["t"], [[0, 1]])
    with pytest.raises(SpecError):
        mixing_subseed(frozen_seed, spec(["t"]))  # frozen labels cannot go in I0


# ---------------------------------------------------------- validity checks


def test_identity_inclusion_is_always_valid():
    seed = double_arrow_seed()
    for s in (spec(), spec(["x1"]), spec(["x2"], ["x3"]), spec((), ["x1", "x2", "x3"])):
        ok, why = check_partial_hom(identity_inclusion(seed, s))
        assert ok, why


def test_double_arrow_f_is_valid():
    seed = double_arrow_seed()
    f = PartialSeedHom.from_dict(seed, spec((), ["x3"]), seed, {"x1": "x3", "x2": "x2"})
    ok, why = check_partial_hom(f)
    assert ok, why


def test_double_arrow_g_fails_the_magnitude_condition():
    seed = double_arrow_seed()
    g = PartialSeedHom.from_dict(seed, spec((), ["x1"]), seed, {"x2": "x2", "x3": "x1"})
    ok, why = check_partial_hom(g)
    assert not ok
    assert "magnitude" in why
    with pytest.raises(HomError):
        require_hom(g)


def test_exchangeable_must_map_to_exchangeable():
    seed = Seed.from_data(["x1"], ["t"], [[0, 0]])
    h = PartialSeedHom.from_dict(seed, spec(), seed, {"x1": "t", "t": "t"})
    ok, why = check_partial_hom(h)
    assert not ok and "condition (a)" in why


def test_frozen_may_map_to_exchangeable():
    seed = Seed.from_data(["x1"], ["t"], [[0, 0]])
    h = PartialSeedHom.from_dict(seed, spec(), seed, {"x1": "x1", "t": "x1"})
    ok, why = check_partial_hom(h)
    assert ok, why


def test_sign_coherence_within_a_row():
    seed = amalgam_seed()
    # x1 -> x2 and x3 -> x2: mapping x2 to itself but swapping its two
    # neighbours' arrow senses is fine (same sign products); flipping
    # only one neighbour against the row is not expressible here, so
    # use a map reversing one arrow: x1->x2, x2->x1 has b'_(f x2, f x1)
    # = b_(x1,x2) = 1 while b_(x2,x1) = -1.
    h = PartialSeedHom.from_dict(
        seed, spec((), ["x3"]), seed, {"x1": "x2", "x2": "x1"}
    )
    ok, why = check_partial_hom(h)
    assert ok, why  # a global arrow reversal keeps one uniform sign


def test_sign_coherence_across_adjacent_rows():
    # fold the path x1-x2-x3-x4 onto x1-x2 with mismatched senses
    ex = ["x1", "x2", "x3", "x4"]
    rows = [
        [0, 1, 0, 0],
        [-1, 0, 1, 0],
        [0, -1, 0, 1],
        [0, 0, -1, 0],
    ]
    seed = Seed.from_data(ex, [], rows)
    h = PartialSeedHom.from_dict(
        seed, spec(), seed, {"x1": "x1", "x2": "x2", "x3": "x1", "x4": "x2"}
    )
    ok, _ = check_partial_hom(h)
    okr = PartialSeedHom.from_dict(
        seed, spec(), seed, {"x1": "x1", "x2": "x2", "x3": "x3", "x4": "x4"}
    )
    assert check_partial_hom(okr)[0]
    # the folded map wraps the path around a single edge; the row of x2
    # sees opposite sign products on its two neighbours, so it must be
    # rejected
    assert not ok


def reference_check_partial_hom(candidate):
    """Reference validity check: builds the sub-seed and reads the
    condition (b) entries from it, columns in the sub-seed's label order."""
    src, sp, tgt = candidate.source, candidate.spec, candidate.target
    try:
        sp.validate(src)
    except SpecError as exc:
        return False, str(exc)
    for x, v in zip(src.labels, candidate.mapping):
        if x in sp.I1:
            if v is not None:
                return False, f"{x!r} lies in I1 but is mapped"
        elif v is None:
            return False, f"{x!r} lies in the domain but is unmapped"
        elif v not in tgt.labels:
            return False, f"{x!r} maps to unknown target label {v!r}"
    sub = mixing_subseed(src, sp)
    f = candidate.map_dict()
    dom_ex = candidate.dom_ex
    for x in dom_ex:
        if not tgt.is_exchangeable(f[x]):
            return False, f"condition (a): exchangeable {x!r} maps to frozen {f[x]!r}"
    row_sign = {}
    for x in dom_ex:
        sign = 0
        for y in sub.labels:
            bxy = sub.b(x, y)
            bpq = tgt.b(f[x], f[y])
            if abs(bpq) < abs(bxy):
                return False, (
                    f"magnitude: |b'_({f[x]},{f[y]})|={abs(bpq)} < |b_({x},{y})|={abs(bxy)}"
                )
            s = bpq * bxy
            if s > 0:
                if sign < 0:
                    return False, f"sign coherence fails within row {x!r}"
                sign = 1
            elif s < 0:
                if sign > 0:
                    return False, f"sign coherence fails within row {x!r}"
                sign = -1
        row_sign[x] = sign
    for x, z in itertools.combinations(dom_ex, 2):
        if sub.b(x, z) != 0 and row_sign[x] * row_sign[z] < 0:
            return False, f"sign coherence fails across adjacent rows {x!r}, {z!r}"
    return True, None


def all_candidates(source, target):
    """Every spec of the source with every map of its domain into the
    target's labels (exchangeable variables included, so condition (a)
    is reached too)."""
    ex = source.exchangeable_labels
    for r0 in range(len(ex) + 1):
        for I0 in itertools.combinations(ex, r0):
            pool = [x for x in source.labels if x not in I0]
            for r1 in range(len(pool) + 1):
                for I1 in itertools.combinations(pool, r1):
                    s = spec(I0, I1)
                    dom = [x for x in source.labels if x not in I1]
                    for values in itertools.product(target.labels, repeat=len(dom)):
                        yield PartialSeedHom.from_dict(source, s, target, dict(zip(dom, values)))


@pytest.mark.parametrize(
    "source, target",
    [
        ("a2", "a2"),
        ("A3", "A3"),
        ("amalgam", "amalgam"),
        ("double_arrow", "double_arrow"),
        ("a2_y2", "a2_y2"),
        ("A4", "A4"),
        ("amalgam", "double_arrow"),
        ("double_arrow", "amalgam"),
        ("a2", "a2_y2"),
    ],
)
def test_check_partial_hom_matches_subseed_reference(source, target):
    """Same verdict and same first violation as the sub-seed-building
    reference, on every candidate."""
    seeds = {
        "a2": a2_seed,
        "A3": lambda: linear_path_seed(3),
        "amalgam": amalgam_seed,
        "double_arrow": double_arrow_seed,
        "a2_y2": a2_y2_seed,
        "A4": lambda: linear_path_seed(4),
    }
    src, tgt = seeds[source](), seeds[target]()
    count = 0
    for cand in all_candidates(src, tgt):
        assert check_partial_hom(cand) == reference_check_partial_hom(cand), cand
        count += 1
    # per label: I1, or a target label (and, if exchangeable, I0 with one)
    t = len(tgt.labels)
    assert count == (2 * t + 1) ** src.n * (t + 1) ** src.m


def seed_b_check_partial_hom(candidate: PartialSeedHom) -> tuple[bool, str | None]:
    """Validate the homomorphism conditions; returns (ok, first violation).

    Condition (a): exchangeable domain variables map to exchangeable
    target variables.  Condition (b): over all adjacent pairs (x, y),
    (z, w) of the sub-seed (x = z or b_xz nonzero), the products
    b'_{f(x)f(y)} b_{xy} never take opposite signs, and magnitudes never
    shrink.  Per row the condition collapses to a single sign.  The
    sub-seed's matrix is the source matrix restricted to the domain, so
    its entries are read off the source.
    """
    src, spec, tgt = candidate.source, candidate.spec, candidate.target
    try:
        spec.validate(src)
    except SpecError as exc:
        return False, str(exc)
    tgt_labels = set(tgt.labels)
    for x, v in zip(src.labels, candidate.mapping):
        if x in spec.I1:
            if v is not None:
                return False, f"{x!r} lies in I1 but is mapped"
        elif v is None:
            return False, f"{x!r} lies in the domain but is unmapped"
        elif v not in tgt_labels:
            return False, f"{x!r} maps to unknown target label {v!r}"
    f = candidate.map_dict()
    dom_ex, dom_fr = spec.parts(src)
    for x in dom_ex:
        if not tgt.is_exchangeable(f[x]):
            return False, f"condition (a): exchangeable {x!r} maps to frozen {f[x]!r}"
    # per-row sign of b'_{f(x)f(y)} * b_{xy}, and the magnitude condition;
    # columns in sub-seed order, so the first violation is the sub-seed's
    row_sign: dict[str, int] = {}
    for x in dom_ex:
        sign = 0
        for y in dom_ex + dom_fr:
            bxy = src.b(x, y)
            bpq = tgt.b(f[x], f[y])
            if abs(bpq) < abs(bxy):
                return False, (
                    f"magnitude: |b'_({f[x]},{f[y]})|={abs(bpq)} < |b_({x},{y})|={abs(bxy)}"
                )
            s = bpq * bxy
            if s > 0:
                if sign < 0:
                    return False, f"sign coherence fails within row {x!r}"
                sign = 1
            elif s < 0:
                if sign > 0:
                    return False, f"sign coherence fails within row {x!r}"
                sign = -1
        row_sign[x] = sign
    for x, z in itertools.combinations(dom_ex, 2):
        if src.b(x, z) != 0 and row_sign[x] * row_sign[z] < 0:
            return False, f"sign coherence fails across adjacent rows {x!r}, {z!r}"
    return True, None


SEED_B_ORACLE_SEEDS = {
    "a2": a2_seed,
    "amalgam": amalgam_seed,
    "double_arrow": double_arrow_seed,
    "trivial_m1": lambda: trivial_seed(1),
    "trivial_m2": lambda: trivial_seed(2),
    "A1": lambda: linear_path_seed(1),
    "A3": lambda: linear_path_seed(3),
    "a2_y2": a2_y2_seed,
}


@pytest.mark.parametrize("name", sorted(SEED_B_ORACLE_SEEDS))
def test_check_partial_hom_matches_seed_b_oracle_on_enumerated_candidates(
    monkeypatch, name
):
    """The label-position check returns what the check through Seed.b
    returns, on every candidate enumerate_endpar tries."""
    seed = SEED_B_ORACLE_SEEDS[name]()
    verdicts = []

    def both(cand):
        got = check_partial_hom(cand)
        assert got == seed_b_check_partial_hom(cand), cand
        verdicts.append(got[0])
        return got

    monkeypatch.setattr(semigroup_module, "check_partial_hom", both)
    S = enumerate_endpar(seed)
    assert len(verdicts) == projected_endpar_bound(seed)
    assert sum(verdicts) == len(S)


def malformed_candidates(seed):
    """Candidates that fail before condition (a): a bad spec, a label of
    I1 that is mapped, a domain label that is unmapped, a target label
    the target does not have, and pairs of the last two."""
    ex, fr, labels = seed.exchangeable_labels, seed.frozen_labels, seed.labels
    ident = dict(zip(labels, labels))
    bad_specs = [spec(["zz"]), spec((), ["zz"])]
    bad_specs += [spec(ex[:1], ex[:1])] if ex else []
    bad_specs += [spec(fr[:1])] if fr else []
    for s in bad_specs:
        yield PartialSeedHom.from_dict(seed, s, seed, ident)
    for r in range(len(labels) + 1):
        for I1 in itertools.combinations(labels, r):
            base = identity_inclusion(seed, spec((), I1)).mapping
            for p, x in enumerate(labels):
                wrong = [labels[0]] if x in I1 else [None, "zz"]
                for v in wrong:
                    mapping = base[:p] + (v,) + base[p + 1 :]
                    yield PartialSeedHom(seed, spec((), I1), seed, mapping)
                for q in range(p + 1, len(labels)):
                    if x in I1 or labels[q] in I1:
                        continue
                    for v, w in ((None, "zz"), ("zz", None)):
                        mapping = list(base)
                        mapping[p], mapping[q] = v, w
                        yield PartialSeedHom(seed, spec((), I1), seed, tuple(mapping))


def set_spec_check(sp, seed):
    """The spec check on label sets, the form the label-index check replaced."""
    for bad, message in (
        (sp.I0 - set(seed.exchangeable_labels), "I0 labels not exchangeable in the seed"),
        (sp.I1 - set(seed.labels), "I1 labels not in the extended cluster"),
        (sp.I0 & sp.I1, "I0 and I1 overlap"),
    ):
        if bad:
            return f"{message}: {sorted(bad)}"
    return None


def test_spec_validation_matches_the_label_set_check():
    for seed in (a2_y2_seed(), double_arrow_seed(), trivial_seed(2)):
        labels = seed.labels + ("zz", "zy")
        subsets = [c for r in range(len(labels) + 1) for c in itertools.combinations(labels, r)]
        for I0, I1 in itertools.product(subsets, repeat=2):
            sp = spec(I0, I1)
            try:
                got = sp.validate(seed)
            except SpecError as exc:
                got = str(exc)
            assert got == set_spec_check(sp, seed), (I0, I1)


MALFORMED_KINDS = (
    "not exchangeable in the seed",
    "not in the extended cluster",
    "overlap",
    "lies in I1 but is mapped",
    "lies in the domain but is unmapped",
    "unknown target label",
)


def test_check_partial_hom_matches_seed_b_oracle_on_malformed_candidates():
    kinds = set()
    for seed in (a2_y2_seed(), double_arrow_seed(), trivial_seed(2)):
        for cand in malformed_candidates(seed):
            got = check_partial_hom(cand)
            assert got == seed_b_check_partial_hom(cand), cand
            assert not got[0]
            kinds.add(next(k for k in MALFORMED_KINDS if k in got[1]))
    assert kinds == set(MALFORMED_KINDS)


def test_check_partial_hom_matches_seed_b_oracle_into_another_seed():
    """Every candidate from one seed into another; a source whose matrix
    is not sign-skew-symmetric also reaches the adjacent-rows condition,
    which a sign-skew-symmetric source and target never break alone."""
    sign_symmetric = Seed.from_data(["x1", "x2"], [], [[0, 1], [1, 0]])
    pairs = [
        (a2_y2_seed(), double_arrow_seed()),
        (double_arrow_seed(), a2_y2_seed()),
        (trivial_seed(2), a2_y2_seed()),
        (linear_path_seed(3), a2_seed()),
        (a2_seed(), trivial_seed(1)),
        (sign_symmetric, a2_seed()),
        (a2_y2_seed(), sign_symmetric),
    ]
    kinds = set()
    for src, tgt in pairs:
        for cand in all_candidates(src, tgt):
            got = check_partial_hom(cand)
            assert got == seed_b_check_partial_hom(cand), cand
            kinds.update(k for k in CONDITION_KINDS if k in (got[1] or ""))
    assert kinds == set(CONDITION_KINDS)


CONDITION_KINDS = ("condition (a)", "magnitude", "within row", "across adjacent rows")


# ------------------------------------------------------------- composition


def test_compose_of_identities_shrinks_the_domain():
    # x1 is exchangeable on one side and frozen on the other, so it
    # survives in neither part of the composed domain
    seed = a2_seed()
    full = identity_inclusion(seed, spec())
    partial = identity_inclusion(seed, spec(["x1"]))
    assert compose(partial, full).spec == spec((), ["x1"])
    assert compose(full, partial).spec == spec((), ["x1"])
    assert compose(partial, full) != full  # no identity in the semigroup


def test_compose_zero_divisors():
    seed = Seed.from_data(["x"], ["t"], [[0, 0]])
    left = identity_inclusion(seed, spec(["x"], ["t"]))
    right = identity_inclusion(seed, spec((), ["t"]))
    z = compose(left, right)
    assert z == empty_hom(seed)
    assert compose(right, left) == empty_hom(seed)


def test_compose_rejects_mismatched_seeds():
    f = identity_inclusion(a2_seed(), spec())
    g = identity_inclusion(amalgam_seed(), spec())
    with pytest.raises(HomError):
        compose(g, f)


def test_compose_with_empty_is_empty():
    seed = a2_seed()
    z = empty_hom(seed)
    f = identity_inclusion(seed, spec())
    assert compose(z, f) == empty_hom(seed)
    assert compose(f, z) == empty_hom(seed)


def test_idempotency_of_identity_inclusions():
    seed = amalgam_seed()
    for s in (spec(), spec(["x1"]), spec(["x2"], ["x1"])):
        e = identity_inclusion(seed, s)
        assert compose(e, e) == e


# ---------------------------------------------------------------- images


def test_image_of_identity_inclusion_is_its_subseed():
    seed = amalgam_seed()
    s = spec(["x2"], ["x3"])
    e = identity_inclusion(seed, s)
    assert image_spec(e) == s
    assert image_seed(e) == mixing_subseed(seed, s)


def test_image_seed_of_the_folding_endomorphism():
    seed = amalgam_seed()
    f = PartialSeedHom.from_dict(
        seed, spec(), seed, {"x1": "x1", "x2": "x2", "x3": "x1"}
    )
    assert check_partial_hom(f)[0]
    img = image_seed(f)
    assert img.exchangeable_labels == ("x1", "x2")
    assert img.b("x1", "x2") == 1


def test_factor_through_image():
    seed = amalgam_seed()
    f = PartialSeedHom.from_dict(
        seed, spec(), seed, {"x1": "x1", "x2": "x2", "x3": "x1"}
    )
    f1, inc = f1_inc = factor_through_image(f)
    assert f1.target == image_seed(f)
    assert inc.spec == image_spec(f)
    assert {f1(x) for x in f1.domain} == set(f1.target.labels)
    g = is_retraction(f1)
    assert g is not None
    assert compose(f1, g).map_dict() == {x: x for x in f1.target.labels}


def test_double_arrow_f1_is_not_a_retraction():
    seed = double_arrow_seed()
    f = PartialSeedHom.from_dict(seed, spec((), ["x3"]), seed, {"x1": "x3", "x2": "x2"})
    f1, _ = factor_through_image(f)
    assert is_retraction(f1) is None


# ------------------------------------------------------------ isomorphisms


def test_iso_search_finds_the_arrow_reversal():
    a = a2_seed()
    b = Seed.from_data(["y1", "y2"], [], [[0, -1], [1, 0]])
    iso = find_seed_iso(a, b)
    assert iso is not None and is_seed_iso(iso)


def test_iso_respects_weight_magnitudes():
    a = a2_seed()
    b = Seed.from_data(["y1", "y2"], [], [[0, 2], [-1, 0]])
    assert find_seed_iso(a, b) is None


def test_iso_is_symmetric_and_invertible():
    a = mixing_subseed(amalgam_seed(), spec(["x1"]))
    b = mixing_subseed(amalgam_seed(), spec(["x3"]))
    iso = find_seed_iso(a, b)
    assert iso is not None
    inv = inverse_iso(iso)
    assert is_seed_iso(inv)
    assert compose(inv, iso).map_dict() == {x: x for x in a.labels}


def test_iso_separates_exchangeable_from_frozen():
    a = Seed.from_data(["x"], ["t"], [[0, 0]])
    b = Seed.from_data(["u"], ["s"], [[0, 0]])
    iso = find_seed_iso(a, b)
    assert iso.map_dict() == {"x": "u", "t": "s"}


def test_automorphisms_of_trivial_seeds_are_label_permutations():
    import math

    for m in range(4):
        assert len(automorphism_group(trivial_seed(m))) == math.factorial(m)


def test_automorphisms_of_the_amalgam():
    # swapping x1 and x3 is the only nontrivial symmetry
    auts = automorphism_group(amalgam_seed())
    maps = [sorted(a.map_dict().items()) for a in auts]
    assert len(auts) == 2
    assert [("x1", "x3"), ("x2", "x2"), ("x3", "x1")] in maps


def test_enumerate_seed_isos_counts():
    a = a2_seed()
    assert len(list(enumerate_seed_isos(a, a))) == 2  # identity and the swap


@pytest.mark.parametrize(
    "make", [a2_seed, lambda: linear_path_seed(3), amalgam_seed], ids=["a2", "A3", "amalgam"]
)
def test_enumerate_seed_isos_is_complete(make):
    """Every label bijection (ex -> ex, fr -> fr) that is_seed_iso accepts
    is yielded, and nothing else, between the image seeds of regular
    elements."""
    S = enumerate_endpar(make())
    P = green_relations(S)
    images = {image_seed(S.element(i)) for i in range(len(S)) if P.regular_flags[i]}
    for a, b in itertools.product(images, repeat=2):
        if (a.n, a.m) != (b.n, b.m):
            continue
        brute = set()
        for ex in itertools.permutations(b.exchangeable_labels):
            for fr in itertools.permutations(b.frozen_labels):
                m = dict(zip(a.exchangeable_labels + a.frozen_labels, ex + fr))
                hom = PartialSeedHom.from_dict(a, spec(), b, m)
                if is_seed_iso(hom):
                    brute.add(hom.mapping)
        found = [g.mapping for g in enumerate_seed_isos(a, b)]
        assert len(found) == len(set(found))
        assert set(found) == brute


def sign_pattern_seed(m):
    """Three exchangeable labels and m frozen ones; frozen label j has
    b = +1 or -1 from row i as bit i of j is set or not.  Every column
    has the same magnitudes, so only the row signs tell the frozen
    labels apart."""
    rows = [[0, 0, 0] + [1 if j >> i & 1 else -1 for j in range(m)] for i in range(3)]
    return Seed.from_data(["x1", "x2", "x3"], [f"y{j}" for j in range(m)], rows)


def brute_isos(a, b):
    """The mappings of every label bijection a -> b that is_seed_iso
    accepts, in the order the backtracking tries them."""
    found = []
    for ex in itertools.permutations(b.exchangeable_labels):
        for fr in itertools.permutations(b.frozen_labels):
            hom = PartialSeedHom.from_dict(a, spec(), b, dict(zip(a.labels, ex + fr)))
            if is_seed_iso(hom):
                found.append(hom.mapping)
    return found


@pytest.mark.parametrize("m", [4, 5, 6])
def test_enumerate_seed_isos_yields_the_brute_force_isos_in_order(m):
    seed = sign_pattern_seed(m)
    assert [g.mapping for g in enumerate_seed_isos(seed, seed)] == brute_isos(seed, seed)


def test_enumerate_seed_isos_prunes_on_row_signs(monkeypatch):
    """The 3! * 7! bijections of sign_pattern_seed(7) keep every column's
    magnitudes; a partial map that makes a row's signs disagree is cut at
    once, so only the 6 automorphisms reach check_partial_hom."""
    checked = []
    check = homs_module.check_partial_hom

    def counting(candidate):
        checked.append(candidate)
        return check(candidate)

    monkeypatch.setattr(homs_module, "check_partial_hom", counting)
    seed = sign_pattern_seed(7)
    assert len(list(enumerate_seed_isos(seed, seed))) == len(checked) == 6


def vf2_isos(a, b):
    """Mappings of the label bijections a -> b that networkx's VF2 matcher
    finds on the weighted quivers and is_seed_iso accepts.

    Each seed is a digraph with node class ex/fr and an edge x -> y of
    weight |b_xy| for every exchangeable x and nonzero b_xy.
    """
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def graph(seed):
        g = nx.DiGraph()
        for x in seed.labels:
            g.add_node(x, kind="ex" if seed.is_exchangeable(x) else "fr")
        for x in seed.exchangeable_labels:
            for y in seed.labels:
                if seed.b(x, y):
                    g.add_edge(x, y, weight=abs(seed.b(x, y)))
        return g

    matcher = DiGraphMatcher(
        graph(a),
        graph(b),
        node_match=lambda u, v: u["kind"] == v["kind"],
        edge_match=lambda u, v: u["weight"] == v["weight"],
    )
    out = set()
    for m in matcher.isomorphisms_iter():
        hom = PartialSeedHom.from_dict(a, spec(), b, m)
        if is_seed_iso(hom):
            out.add(hom.mapping)
    return out


@pytest.mark.parametrize("make", [lambda: linear_path_seed(4), a2_y2_seed], ids=["A4", "a2_y2"])
def test_enumerate_seed_isos_matches_vf2(make):
    """On every sub-seed: the isos onto itself and onto its class
    representative are the ones VF2 finds, and the automorphism group
    has VF2's order (which is also the number of isos onto it)."""
    seed = make()
    for cls in iso_classes_of_subseeds(seed):
        rep = mixing_subseed(seed, cls.representative)
        rep_order = len(vf2_isos(rep, rep))
        for member in cls.members:
            sub = mixing_subseed(seed, member)
            for other in (sub, rep):
                found = [g.mapping for g in enumerate_seed_isos(sub, other)]
                assert len(found) == len(set(found))
                assert set(found) == vf2_isos(sub, other)
            assert len(automorphism_group(sub)) == rep_order
