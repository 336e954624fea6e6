"""Acceptance suite: one timed criterion per test, one printed line each.

Every criterion re-derives its expectation independently of the code
path under test (random oracles, pinned counts, exhaustive sweeps) and
fails hard on any disagreement.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import gcd

import numpy as np

from clusterseeds import (
    PartialSeedHom,
    Seed,
    SubSeedSpec,
    check_structural_green,
    check_theorem_sur,
    compose,
    cut_along,
    enumerate_clusters,
    enumerate_endpar,
    find_seed_iso,
    green_relations,
    h_class_group,
    initial_state,
    make_surface,
    matrix_mutation,
    mixing_subseed,
    mutate_state,
    paunched_surface,
    regular_D_classes,
    seed_from_surface,
    surface_iso,
    theorem_number_report,
    validate_seed,
)
from conftest import (
    BENCHMARK_SEEDS,
    a2_seed,
    amalgam_seed,
    double_arrow_seed,
    green_oracle,
    linear_path_seed,
    trivial_seed,
)
from oracles import (
    d_by_closure,
    d_by_composition,
    element_index,
    elements,
    empty_hom,
    enumerate_triangulations,
    factor_through_image,
    idempotents,
    identity_inclusion,
    is_id_form,
    is_regular_element,
    is_retraction,
    regularity_linear_an,
    spec_of,
)


@contextmanager
def criterion(num, label, budget):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({label})")
        raise
    elapsed = time.monotonic() - t0
    print(f"criterion {num}: PASS ({label}, {elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _random_symmetrizable(rng, n, m):
    d = [rng.choice((1, 2)) for _ in range(n)]
    rows = [[0] * (n + m) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = rng.choice((-1, 0, 1))
            g = gcd(d[i], d[j])
            rows[i][j] = s * (d[j] // g)
            rows[j][i] = -s * (d[i] // g)
        for j in range(n, n + m):
            rows[i][j] = rng.randint(-3, 3)
    seed = Seed.from_data(
        [f"x{i}" for i in range(n)], [f"t{i}" for i in range(m)], rows
    )
    return seed, d


def test_criterion_1_mutation_involution():
    with criterion(1, "mutation involution", 1):
        rng = random.Random(20240817)
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(0, 3)
            seed, d = _random_symmetrizable(rng, n, m)
            assert validate_seed(seed).ok
            k = rng.randrange(n)
            once = matrix_mutation(seed.matrix, k)
            assert matrix_mutation(once, k) == seed.matrix
            p = [row[:n] for row in once]
            assert all(
                d[i] * p[i][j] == -d[j] * p[j][i]
                for i in range(n)
                for j in range(n)
            )


def test_criterion_2_symbolic_periodicity():
    with criterion(2, "rank-2 symbolic periodicity", 1):
        state = initial_state(a2_seed())
        for k in (0, 1, 0, 1, 0):
            state = mutate_state(state, k)
        init = initial_state(a2_seed())
        assert state.assignment == (init.assignment[1], init.assignment[0])
        r1 = enumerate_clusters(linear_path_seed(1), max_depth=10)
        assert (len(r1.clusters), r1.status) == (2, "closed")
        r2 = enumerate_clusters(a2_seed(), max_depth=10)
        assert (len(r2.clusters), r2.status) == (5, "closed")


def test_criterion_3_semigroup_soundness():
    for name, make in sorted(BENCHMARK_SEEDS.items()):
        with criterion(3, f"semigroup soundness [{name}]", 60):
            S = enumerate_endpar(make())
            P = S.product
            size = len(S)
            # closure: every product index is a valid element
            assert P.min() >= 0 and P.max() < size
            # zero absorption
            z = S.zero_index
            assert np.all(P[z, :] == z) and np.all(P[:, z] == z)
            # associativity, exhaustive whenever |S|^3 <= 10^7
            assert size**3 <= 10**7
            left = P[P, :]       # left[i,j,k] = (ij)k
            right = P[:, P]      # right[i,j,k] = i(jk)
            assert np.array_equal(left, right)
            # spot-check the table against object-level composition
            rng = random.Random(size)
            for _ in range(min(200, size * size)):
                i, j = rng.randrange(size), rng.randrange(size)
                assert S.element(int(S.product[i, j])) == compose(
                    S.element(i), S.element(j)
                )


def test_criterion_4_green_internal_consistency():
    with criterion(4, "Green partition consistency", 60):
        for name, make in sorted(BENCHMARK_SEEDS.items()):
            S = enumerate_endpar(make())
            P = green_relations(S)
            L, R, H = np.array(P.L), np.array(P.R), np.array(P.H)
            # H is exactly the meet of L and R
            assert np.array_equal(
                (H[:, None] == H[None, :]),
                (L[:, None] == L[None, :]) & (R[:, None] == R[None, :]),
            )
            # D by closure, by L∘R, and by R∘L coincide as partitions
            assert d_by_closure(P) == P.D
            assert d_by_composition(S, P, via="LR") == P.D
            assert d_by_composition(S, P, via="RL") == P.D
            # J = D in a finite semigroup, with J from the set oracle
            assert green_oracle(S)["J"] == P.D


def test_criterion_5_structural_green_crosscheck():
    with criterion(5, "structural Green predicates", 120):
        for name, make in sorted(BENCHMARK_SEEDS.items()):
            S = enumerate_endpar(make())
            P = green_relations(S)
            report = check_structural_green(S, P)  # raises on disagreement
            assert report.ok


def test_criterion_6_named_fixtures():
    with criterion(6, "named example maps", 1):
        da = double_arrow_seed()
        f = PartialSeedHom.from_dict(
            da, spec_of((), ["x3"]), da, {"x1": "x3", "x2": "x2"}
        )
        S = enumerate_endpar(da)
        assert is_regular_element(S, element_index(S)[f]) is None

        am = amalgam_seed()
        g = PartialSeedHom.from_dict(
            am, spec_of((), ()), am, {"x1": "x1", "x2": "x2", "x3": "x1"}
        )
        assert compose(g, g) == g  # idempotent
        assert not is_id_form(g)

        mixed = Seed.from_data(["x"], ["t"], [[0, 0]])
        left = identity_inclusion(mixed, spec_of(["x"], ["t"]))
        right = identity_inclusion(mixed, spec_of((), ["t"]))
        assert compose(left, right) == empty_hom(mixed)


def test_criterion_7_h_class_groups():
    with criterion(7, "H-classes of id-form idempotents", 60):
        for name, make in sorted(BENCHMARK_SEEDS.items()):
            S = enumerate_endpar(make())
            P = green_relations(S)
            checked = 0
            for e in idempotents(S):
                if is_id_form(S.element(e)):
                    h_class_group(S, P, e)  # raises on any failure
                    checked += 1
            assert checked > 0


def test_criterion_8_subseed_bijection():
    with criterion(8, "iso-classes vs regular D-classes", 120):
        report = theorem_number_report(a2_seed())
        assert report.iso_class_count == 6
        assert report.regular_d_count == 6
        for make in (
            lambda: trivial_seed(1),
            lambda: trivial_seed(2),
            amalgam_seed,
            double_arrow_seed,
        ):
            theorem_number_report(make())  # raises unless a bijection


def test_criterion_9_path_quiver_regularity():
    with criterion(9, "path-quiver regularity and retractions", 120):
        for n in range(1, 5):
            seed = linear_path_seed(n)
            S = enumerate_endpar(seed)
            for i, f in enumerate(elements(S)):
                regular = is_regular_element(S, i) is not None
                assert regularity_linear_an(f) == regular
                if regular:
                    f1, _ = factor_through_image(f)
                    assert is_retraction(f1) is not None


def test_criterion_10_surface_sweep():
    with criterion(10, "surface sub-seed sweep", 300):
        rng = random.Random(6528)
        checked = 0
        for N in range(3, 9):
            for tri in enumerate_triangulations(N):
                curves = [
                    tuple(sorted(rng.sample(range(N), 2)))
                    for _ in range(rng.randint(1, 3))
                ]
                surf = make_surface(N, tri, laminations=[curves])
                base = seed_from_surface(surf)
                # companion-curve row identity after each freeze cut
                for x in surf.diagonal_labels():
                    cut = seed_from_surface(cut_along(surf, x, mode="freeze"))
                    for y in base.exchangeable_labels:
                        if y != x:
                            assert cut.b(y, x) == base.b(y, x)
                # every spec touching at most two labels
                labels = surf.diagonal_labels() + surf.lamination_labels()
                dset = set(surf.diagonal_labels())
                for size in (0, 1, 2):
                    for chosen in itertools.combinations(labels, size):
                        diag_part = [x for x in chosen if x in dset]
                        for r in range(len(diag_part) + 1):
                            for I0 in itertools.combinations(diag_part, r):
                                I1 = frozenset(chosen) - frozenset(I0)
                                assert check_theorem_sur(surf, frozenset(I0), I1)
                                checked += 1
        assert checked > 2000


def test_criterion_11_paunched_iso_vs_subseed_iso():
    with criterion(11, "paunched surfaces vs sub-seeds", 60):
        surf = make_surface(
            6, [(0, 2), (0, 3), (0, 4)], laminations=[[(1, 4), (2, 3)]]
        )
        base = seed_from_surface(surf)
        specs = []
        for x in surf.diagonal_labels():
            specs.append((frozenset([x]), frozenset()))
            specs.append((frozenset(), frozenset([x])))
        cases = {
            (I0, I1): (
                paunched_surface(surf, I0, I1),
                mixing_subseed(base, SubSeedSpec(I0, I1)),
            )
            for I0, I1 in specs
        }
        outcomes = set()
        for a, b in itertools.combinations(specs, 2):
            surf_a, sub_a = cases[a]
            surf_b, sub_b = cases[b]
            surfaces_match = surface_iso(surf_a, surf_b)
            seeds_match = find_seed_iso(sub_a, sub_b) is not None
            assert surfaces_match == seeds_match, (a, b)
            outcomes.add(surfaces_match)
        assert outcomes == {True, False}  # both sides of the iff occur
