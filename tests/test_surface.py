"""Triangulated polygons, shear coordinates, cutting, and isomorphism."""

import gc
import hashlib
import itertools
import json
import random
import weakref

import pytest

import clusterseeds.surface as surface_module
from clusterseeds import (
    Seed,
    SeedError,
    SpecError,
    SurfaceData,
    check_theorem_sur,
    curve_crosses,
    cut_along,
    diagonals_cross,
    find_seed_iso,
    make_surface,
    matrix_mutation,
    mixing_subseed,
    paunched_surface,
    seed_from_surface,
    surface_iso,
    validate_surface,
)
from clusterseeds.cli import sweep_spec_count
from clusterseeds.fileio import surface_to_dict
from conftest import seeded_polygons, two_component_surface
from oracles import (
    cut_set_comparison_by_seeds,
    enumerate_triangulations,
    shear_contribution,
    shear_row,
    spec_of,
    triangles_of,
)


def fan(N):
    """The fan triangulation of an N-gon from vertex 0."""
    return [(0, k) for k in range(2, N - 1)]


def b_matrix(seed):
    """The exchangeable labels and the principal part of the seed, as lists."""
    return seed.exchangeable_labels, [list(row[: seed.n]) for row in seed.matrix]


def shear_column(seed, y):
    """Diagonal label -> entry of the seed's column y."""
    return {x: seed.b(x, y) for x in seed.exchangeable_labels}


# --------------------------------------------------------------- validation


def test_validation_rejects_bad_surfaces():
    with pytest.raises(SeedError):
        make_surface(2, [])
    with pytest.raises(SeedError):
        make_surface(4, [(0, 1)])  # adjacent vertices
    with pytest.raises(SeedError):
        make_surface(5, [(0, 2)])  # not maximal
    with pytest.raises(SeedError):
        make_surface(5, [(0, 2), (1, 3)])  # crossing
    with pytest.raises(SeedError):
        make_surface(4, [(0, 2)], laminations=[[(1, 1)]])  # boundary-parallel


# (diagonals of one pentagon, message with the component as {c})
TRIANGULATION_FAULTS = {
    "repeated": ([(0, 2), (0, 2)], "component {c} repeats a diagonal"),
    "crossing": ([(0, 2), (1, 3)], "diagonals (0, 2) and (1, 3) cross in component {c}"),
    "missing": ([(0, 2)], "component {c}: 1 diagonals, a triangulation needs 2"),
}


def two_pentagons(bad_component, bad_diagonals):
    diagonals = []
    for c in (0, 1):
        ds = bad_diagonals if c == bad_component else [(0, 2), (0, 3)]
        diagonals += [(f"c{c}_{i}", (c, d)) for i, d in enumerate(ds)]
    return SurfaceData((5, 5), tuple(diagonals), ())


@pytest.mark.parametrize("fault", sorted(TRIANGULATION_FAULTS))
def test_validation_messages_name_the_faulty_component(fault):
    # the same faulty pentagon in component 0, then 1, each built twice
    bad, message = TRIANGULATION_FAULTS[fault]
    for c in (0, 0, 1, 1, 0):
        with pytest.raises(SeedError) as excinfo:
            two_pentagons(c, bad)
        assert str(excinfo.value) == message.format(c=c)
    assert two_pentagons(None, bad).components == (5, 5)


def test_triangle_faces():
    assert triangles_of(3, []) == [(0, 1, 2)]
    assert triangles_of(4, [(0, 2)]) == [(0, 1, 2), (0, 2, 3)]
    assert len(triangles_of(6, fan(6))) == 4


def test_triangle_faces_are_a_fresh_list_per_call():
    faces = triangles_of(4, [(0, 2)])
    faces.append((9, 9, 9))
    faces[0] = (7, 7, 7)
    assert triangles_of(4, [(0, 2)]) == [(0, 1, 2), (0, 2, 3)]


def test_diagonal_crossing_predicate():
    assert diagonals_cross((0, 2), (1, 3))
    assert not diagonals_cross((0, 2), (0, 3))
    assert not diagonals_cross((0, 2), (2, 4))


def test_curve_crossing_predicate():
    assert curve_crosses((0, (1, 3)), 0, (0, 2))
    assert not curve_crosses((0, (2, 3)), 0, (0, 2))
    assert not curve_crosses((1, (1, 3)), 0, (0, 2))  # different component


# ------------------------------------------------------------ triangulation


def test_triangulation_counts_are_catalan():
    catalan = {3: 1, 4: 2, 5: 5, 6: 14, 7: 42, 8: 132}
    for N, expected in catalan.items():
        tris = enumerate_triangulations(N)
        assert len(tris) == expected
        for t in tris:
            make_surface(N, t)  # each one validates


def test_pentagon_fan_b_matrix():
    labels, B = b_matrix(seed_from_surface(make_surface(5, fan(5))))
    assert labels == ("d0_2", "d0_3")
    assert B == [[0, -1], [1, 0]]


def test_hexagon_zigzag_b_matrix():
    labels, B = b_matrix(seed_from_surface(make_surface(6, [(0, 2), (2, 4), (0, 4)])))
    assert labels == ("d0_2", "d0_4", "d2_4")
    # the central triangle (0,2,4) makes a 3-cycle of diagonals
    assert all(B[i][j] == -B[j][i] for i in range(3) for j in range(3))
    assert sorted(abs(B[i][j]) for i in range(3) for j in range(i + 1, 3)) == [1, 1, 1]


# ------------------------------------------------------------------- shear


def test_square_one_crossing_curve():
    surf = make_surface(4, [(0, 2)], laminations=[[(1, 3)]])
    seed = seed_from_surface(surf)
    assert seed.exchangeable_labels == ("d0_2",)
    assert seed.frozen_labels == ("L0",)
    assert abs(seed.b("d0_2", "L0")) == 1


def test_shear_sign_convention_on_the_square():
    # quadrilateral 0,1,2,3 around the diagonal (0,2): the two crossing
    # corner-to-corner passages have opposite signs
    diags = [(0, 2)]
    s = shear_contribution(4, diags, (0, 2), (0, (1, 3)))
    t = shear_contribution(4, diags, (0, 2), (0, (0, 2)))
    assert {s, t} == {1, -1}
    # a curve entering and leaving through adjacent sides contributes 0
    assert shear_contribution(4, diags, (0, 2), (0, (1, 2))) == 0
    assert shear_contribution(4, diags, (0, 2), (0, (0, 3))) == 0


def test_shear_row_sums_parallel_curves():
    surf = make_surface(4, [(0, 2)], laminations=[[(1, 3), (1, 3)]])
    row = shear_column(seed_from_surface(surf), "L0")
    assert abs(row["d0_2"]) == 2


def test_seed_reads_laminations_in_label_order():
    # laminations given out of label order, with opposite shear signs
    lams = (("M", ((0, (1, 3)),)), ("L", ((0, (0, 2)),)))
    surf = SurfaceData((4,), (("d", (0, (0, 2))),), lams)
    seed = seed_from_surface(surf)
    assert seed.frozen_labels == ("L", "M")
    lam = dict(surf.laminations)
    assert [seed.b("d", y) for y in "LM"] == [
        reference_shear_coordinates(surf, lam[y])["d"] for y in "LM"
    ]
    assert seed.b("d", "L") == -seed.b("d", "M") != 0


def test_noncrossing_curve_contributes_zero():
    surf = make_surface(5, fan(5), laminations=[[(3, 4)]])
    row = shear_column(seed_from_surface(surf), "L0")
    assert row == {"d0_2": 0, "d0_3": 0}


# ------------------------------------------------------------------ cutting


def test_cut_vertex_counts():
    surf = make_surface(6, fan(6))
    out = cut_along(surf, "d0_3")
    assert sorted(out.components) == [4, 4]
    out2 = cut_along(surf, "d0_2")
    assert sorted(out2.components) == [3, 5]


def test_cut_requires_a_diagonal():
    surf = make_surface(4, [(0, 2)])
    with pytest.raises(SeedError):
        cut_along(surf, "nope")
    with pytest.raises(SeedError):
        cut_along(surf, "d0_2", mode="fold")


def test_cut_clips_crossing_curves():
    surf = make_surface(4, [(0, 2)], laminations=[[(1, 3)]])
    out = cut_along(surf, "d0_2", mode="delete")
    lam = dict(out.laminations)["L0"]
    assert len(lam) == 2  # one fragment per side
    # each fragment ends on the freshly cut boundary segment
    for c, (s, t) in lam:
        assert out.components[c] - 2 in (s, t)


def test_freeze_cut_adds_companion_curves():
    surf = make_surface(5, fan(5))
    out = cut_along(surf, "d0_2", mode="freeze")
    lam = dict(out.laminations)
    assert "d0_2" in lam
    assert len(lam["d0_2"]) == 2  # one hugging curve per side


def test_freeze_cut_row_identity():
    # after freezing a diagonal, its companion-curve column reproduces
    # the original matrix column of that diagonal
    surf = make_surface(5, fan(5))
    base = seed_from_surface(surf)
    for x in base.exchangeable_labels:
        cut = seed_from_surface(cut_along(surf, x, mode="freeze"))
        for y in base.exchangeable_labels:
            if y == x:
                continue
            assert cut.b(y, x) == base.b(y, x)


# ----------------------------------------------------------- paunching


def test_paunch_matches_subseed():
    surf = make_surface(6, fan(6), laminations=[[(1, 4)]])
    base = seed_from_surface(surf)
    for I0, I1 in (
        ((), ()),
        (("d0_3",), ()),
        ((), ("d0_2",)),
        (("d0_2",), ("d0_4", "L0")),
    ):
        assert check_theorem_sur(surf, I0, I1)


def test_paunch_square_with_curve():
    surf = make_surface(4, [(0, 2)], laminations=[[(1, 3)]])
    assert check_theorem_sur(surf, ("d0_2",), ())
    assert check_theorem_sur(surf, (), ("d0_2",))
    assert check_theorem_sur(surf, (), ("L0",))


def reference_check_theorem_sur(data, I0, I1, base=None) -> bool:
    """The entrywise comparison: b_xy of the surface seed against b_xy of
    the paunched surface's seed, looked up by label, for every row x and
    column y of the sub-seed.  base, if given, stands for the surface
    seed on the sub-seed side."""
    if base is None:
        base = surface_module.seed_from_surface(data)
    spec = spec_of(I0, I1)
    spec.validate(base)
    ex, fr = spec.parts(base)
    right = surface_module.seed_from_surface(paunched_surface(data, I0, I1))
    if set(ex) != set(right.exchangeable_labels) or set(fr) != set(right.frozen_labels):
        return False
    return all(base.b(x, y) == right.b(x, y) for x in ex for y in ex + fr)


def sweep_specs(data, max_cut):
    """Every (I0, I1) of check-sur --all --max-cut max_cut."""
    dlabels = data.diagonal_labels()
    labels = dlabels + data.lamination_labels()
    for size in range(max_cut + 1):
        for chosen in itertools.combinations(labels, size):
            diag_part = [x for x in chosen if x in dlabels]
            for r in range(len(diag_part) + 1):
                for I0 in itertools.combinations(diag_part, r):
                    yield I0, tuple(x for x in chosen if x not in I0)


def test_sweep_spec_count_is_the_length_of_the_sweep():
    # the closed form check-sur --all checks against its cap, against the
    # specs themselves, past the largest cut set too
    rng = random.Random(5)
    surfaces = [
        make_surface(N, tri, laminations=[[tuple(rng.sample(range(N), 2))]] * rng.randint(0, 3))
        for N in range(3, 8)
        for tri in enumerate_triangulations(N)[:3]
    ]
    for surf in [*surfaces, two_component_surface()]:
        d, m = len(surf.diagonal_labels()), len(surf.lamination_labels())
        for max_cut in range(d + m + 2):
            specs = list(sweep_specs(surf, max_cut))
            assert sweep_spec_count(d, m, max_cut) == len(specs), (surf, max_cut)


def _comparison_inputs(surf, base, cuts, rng):
    """The (base, fields) pairs on which both comparisons of the cut set
    cuts are checked: the surface seed and the freeze cut, then each with
    a fault that leaves a nonempty mismatch set or unequal exchangeable
    labels: entries of base raised, the cut's last lamination dropped,
    and its first diagonal renamed with base's entries raised."""
    fields = surface_module._freeze_cut(surf, cuts)
    rows = [list(r) for r in base.matrix]
    for row in rng.sample(rows, (len(rows) + 1) // 2):
        row[rng.randrange(len(row))] += 1
    raised = Seed.from_data(base.exchangeable_labels, base.frozen_labels, rows)
    components, diagonals, laminations = fields
    yield base, fields
    yield raised, fields
    yield base, (components, diagonals, laminations[:-1])
    if diagonals:
        (lbl, d), *rest = diagonals
        yield raised, (components, ((lbl + "'", d), *rest), laminations)


def test_cut_set_comparison_matches_the_two_seed_oracle():
    # the row comparison against mixing_subseed and a cut Seed, on every
    # cut set of at most 3 diagonals, mismatch sets included
    rng = random.Random(31)
    surfaces = []
    for N in range(3, 9):
        for tri in enumerate_triangulations(N):
            curves = [tuple(rng.sample(range(N), 2)) for _ in range(rng.randint(1, 3))]
            surfaces.append(make_surface(N, tri, laminations=[curves]))
    outcomes = set()
    cut_sets = 0
    for surf in [*surfaces, *seeded_polygons(), two_component_surface()]:
        base = seed_from_surface(surf)
        for k in range(4):
            for cuts in map(frozenset, itertools.combinations(surf.diagonal_labels(), k)):
                for left, fields in _comparison_inputs(surf, base, cuts, rng):
                    got = surface_module._cut_set_comparison(left, cuts, fields)
                    assert got == cut_set_comparison_by_seeds(left, cuts, fields), (surf, cuts)
                    outcomes.add((got[0], bool(got[1])))
                cut_sets += 1
    # 1, 2, 4, 8, 15 and 26 cut sets of at most 3 of the N - 3 diagonals
    # for N = 3..8, times the triangulation counts; 26 on the two components
    per_heptagon_and_below = 1 * 1 + 2 * 2 + 5 * 4 + 14 * 8 + 42 * 15
    assert cut_sets == 2 * per_heptagon_and_below + 132 * 26 + 26
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


def test_row_comparison_matches_the_entrywise_reference():
    rng = random.Random(8)
    surfaces = []
    for N in range(4, 8):
        for tri in enumerate_triangulations(N):
            curves = [tuple(rng.sample(range(N), 2)) for _ in range(rng.randint(1, 2))]
            surfaces.append(make_surface(N, tri, laminations=[curves]))
    checked = 0
    for surf in [*surfaces, *seeded_polygons(), two_component_surface()]:
        for I0, I1 in sweep_specs(surf, 2):
            expected = reference_check_theorem_sur(surf, I0, I1)
            assert check_theorem_sur(surf, I0, I1) == expected, (surf, I0, I1)
            checked += 1
    # 2 + 2d + 2d² specs per polygon, d = N - 3, and 74 on the two components
    assert checked == (2 * 6 + 5 * 14 + 14 * 26 + 42 * 42) + (
        2 * 1 + 6 * 2 + 14 * 5 + 26 * 14 + 42 * 42
    ) + 74


def _perturbed(rows_of_fields, kind: str):
    """The (exchangeable labels, frozen labels, rows) of a seed with one
    fault of the given kind."""
    exchangeable, frozen, matrix = map(list, rows_of_fields)
    n = len(exchangeable)
    rows = [list(r) for r in matrix]
    if kind == "exchangeable entry":
        rows[0][1] += 1
    elif kind == "frozen entry":
        rows[0][n] += 1
    elif kind == "frozen columns swapped":
        for r in rows:
            r[n], r[n + 1] = r[n + 1], r[n]
    elif kind == "frozen label renamed":
        frozen[0] += "_renamed"
    else:  # an exchangeable label renamed
        exchangeable[0] += "_renamed"
    return tuple(exchangeable), tuple(frozen), tuple(map(tuple, rows))


@pytest.mark.parametrize(
    "kind",
    [
        "exchangeable entry",
        "frozen entry",
        "frozen columns swapped",
        "frozen label renamed",
        "exchangeable label renamed",
    ],
)
def test_row_comparison_rejects_a_perturbed_paunched_seed(monkeypatch, fresh_surface_caches, kind):
    surf = make_surface(6, fan(6), laminations=[[(1, 4)]])
    I0, I1 = ("d0_2",), ()
    assert check_theorem_sur(surf, I0, I1) and reference_check_theorem_sur(surf, I0, I1)
    # the rows builder of every surface seed, the cut rows of the sweep
    # and the paunched seeds of the reference included
    real = surface_module._rows_of_fields
    paunched = paunched_surface(surf, I0, I1)
    fields = paunched.components, paunched.diagonals, paunched.laminations
    seed = Seed(*real(*fields))
    assert (seed.n, seed.frozen_labels) == (2, ("L0", "d0_2"))
    assert Seed(*_perturbed(real(*fields), kind)) != seed

    def perturbed_rows_of_fields(*args):
        return _perturbed(real(*args), kind) if args == fields else real(*args)

    monkeypatch.setattr(surface_module, "_rows_of_fields", perturbed_rows_of_fields)
    fresh_surface_caches()
    # the first check kept its comparison of the cut set I0 | I1 on surf
    surf = make_surface(6, fan(6), laminations=[[(1, 4)]])
    assert reference_check_theorem_sur(surf, I0, I1) is False
    assert check_theorem_sur(surf, I0, I1) is False


def _flip_on_the_last_segment(real):
    # a wrong sign for curves ending on the last boundary segment, where
    # a cut puts the cut segment
    def crossing_sign(N, diag, apexes, curve):
        sign = real(N, diag, apexes, curve)
        return -sign if N - 1 in curve[1] else sign

    return crossing_sign


def _one_sided_hug(real, faulty):
    # the freeze cut along faulty[0] keeps only the side-1 hugging curve
    def cut(components, diagonals, laminations, x):
        comps, diags, lams = real(components, diagonals, laminations, x)
        if x == faulty[0]:
            lams = tuple((lbl, cv[:1] if lbl == x else cv) for lbl, cv in lams)
        return comps, diags, lams

    return cut


def _bumped(seed, x, y):
    """seed with b_xy raised by one, or seed itself if it has no row x or
    no column y."""
    if not seed.is_exchangeable(x) or y not in seed.labels:
        return seed
    rows = [list(r) for r in seed.matrix]
    rows[seed.index(x)][seed.index(y)] += 1
    return Seed.from_data(seed.exchangeable_labels, seed.frozen_labels, rows)


@pytest.mark.parametrize("fault", ["shear sign", "hug curve", "sub-seed entry", "cut seed entry"])
def test_sweep_verdicts_match_the_reference_under_a_fault(monkeypatch, fresh_surface_caches, fault):
    # each surface's first diagonal and first lamination: the diagonal's
    # hug curve is wrong, or the entry in its row and the lamination's
    # column is wrong in the sub-seed rows read off the surface seed, or
    # in the rows the builder makes of every cut surface (one with more
    # components than the swept one)
    faulty = [None, None, None]
    if fault == "shear sign":
        flipped = _flip_on_the_last_segment(surface_module._crossing_sign)
        monkeypatch.setattr(surface_module, "_crossing_sign", flipped)
    elif fault == "hug curve":
        monkeypatch.setattr(surface_module, "_cut", _one_sided_hug(surface_module._cut, faulty))
    elif fault == "sub-seed entry":
        real = surface_module._subseed_rows

        def bumped(base, cuts):
            rows = real(base, cuts)
            x, y = faulty[:2]
            if x in rows:
                row = list(rows[x])
                row[base.index(y)] += 1
                rows[x] = tuple(row)
            return rows

        monkeypatch.setattr(surface_module, "_subseed_rows", bumped)
    else:
        real = surface_module._rows_of_fields

        def bumped(components, diagonals, laminations):
            rows_of_fields = real(components, diagonals, laminations)
            if len(components) > faulty[2]:
                seed = _bumped(Seed(*rows_of_fields), *faulty[:2])
                return seed.exchangeable_labels, seed.frozen_labels, seed.matrix
            return rows_of_fields

        monkeypatch.setattr(surface_module, "_rows_of_fields", bumped)
    fresh_surface_caches()
    fast, reference, hidden = [], [], []
    for surf in [*seeded_polygons(), two_component_surface()]:
        faulty[:] = (
            min(surf.diagonal_labels(), default=None),
            min(surf.lamination_labels()),
            len(surf.components),
        )
        base = None
        if fault == "sub-seed entry":
            base = _bumped(seed_from_surface(surf), *faulty[:2])
        for I0, I1 in sweep_specs(surf, 2):
            fast.append(check_theorem_sur(surf, I0, I1))
            reference.append(reference_check_theorem_sur(surf, I0, I1, base))
            # a deleted hug, or a faulty entry outside the sub-seed or the
            # cut seed, or no cut seed
            if (
                faulty[0] in I1
                or fault == "sub-seed entry" and (faulty[0] in I0 or faulty[1] in I1)
                or fault == "cut seed entry"
                and (faulty[0] in I0 or faulty[1] in I1 or not set(I0 + I1) & set(surf.diagonal_labels()))
            ):
                hidden.append(fast[-1])
    assert fast == reference
    assert True in fast and False in fast, fault
    if fault != "shear sign":
        assert hidden and all(hidden)


def _frozen_instead(seed, x):
    """(exchangeable labels, frozen labels, rows) of seed with x frozen
    (its row dropped, its column kept among the frozen ones), or of seed
    itself if x is not exchangeable."""
    if not seed.is_exchangeable(x):
        return seed.exchangeable_labels, seed.frozen_labels, seed.matrix
    exchangeable = tuple(y for y in seed.exchangeable_labels if y != x)
    frozen = tuple(sorted((*seed.frozen_labels, x)))
    rows = tuple(tuple(seed.b(r, y) for y in exchangeable + frozen) for r in exchangeable)
    return exchangeable, frozen, rows


@pytest.mark.parametrize(
    "fault", ["hug column", "lamination column", "exchangeable column", "row on one side"]
)
def test_comparison_names_each_disagreement_under_a_fault(monkeypatch, fresh_surface_caches, fault):
    # one fault, fixed by label for each surface, in the rows of every cut
    # surface (one with more components than the swept one): the entry
    # b_xy raised in a column shared by both sides (a cut diagonal's hug,
    # a lamination, an exchangeable diagonal), or x's row dropped with x
    # frozen.  The oracle of the comparison and the reference sweep see
    # the same faulty rows.
    import oracles

    real = surface_module._rows_of_fields
    faulty = [None, None, None]

    def rows_of_fields(components, diagonals, laminations):
        rows = real(components, diagonals, laminations)
        x, y, size = faulty
        if len(components) == size or x is None:
            return rows
        seed = Seed(*rows)
        if fault == "row on one side":
            return _frozen_instead(seed, x)
        seed = _bumped(seed, x, y)
        return seed.exchangeable_labels, seed.frozen_labels, seed.matrix

    monkeypatch.setattr(surface_module, "_rows_of_fields", rows_of_fields)
    monkeypatch.setattr(oracles, "_rows_of_fields", rows_of_fields)
    fresh_surface_caches()
    fast, reference, outcomes = [], [], set()
    for surf in [*seeded_polygons(), two_component_surface()]:
        d = sorted(surf.diagonal_labels())
        x, y = {
            "hug column": d[1:2] + d[:1],
            "lamination column": d[:1] + [min(surf.lamination_labels())],
            "exchangeable column": d[:2],
            "row on one side": d[:1] * 2,
        }[fault] if len(d) > 1 else (None, None)
        faulty[:] = x, y, len(surf.components)
        for I0, I1 in sweep_specs(surf, 2):
            fast.append(check_theorem_sur(surf, I0, I1))
            reference.append(reference_check_theorem_sur(surf, I0, I1))
        base, comparisons, fields = surf._sweep
        for cuts, cut in fields.items():
            got = surface_module._cut_set_comparison(base, frozenset(cuts), cut)
            assert got == cut_set_comparison_by_seeds(base, frozenset(cuts), cut), (surf, cuts)
            assert got == comparisons[frozenset(cuts)]
            outcomes.add((got[0], bool(got[1])))
            if fault != "row on one side":
                # a raised entry is named by its column alone
                assert got[1] <= {y}, (surf, cuts, got)
    assert fast == reference
    assert True in fast and False in fast
    assert (False if fault == "row on one side" else True, True) in outcomes, outcomes


def test_deeper_sweep_compares_each_cut_set_once(monkeypatch, fresh_surface_caches):
    # at --max-cut 3 a cut set recurs farther apart than at depth 2; the
    # empty cut set's seed is the surface's own.  The 11-gon fan has
    # 1 + 8 + 28 + 56 = 93 cut sets, more than a cache of 64 recent ones
    # holds.  Row builds are counted at the builder, which seed_from_surface
    # and the cut sides share; comparisons are kept by cut set.
    builds = [0]
    real = surface_module._rows_of_fields

    def counting_rows_of_fields(*fields):
        builds[0] += 1
        return real(*fields)

    monkeypatch.setattr(surface_module, "_rows_of_fields", counting_rows_of_fields)
    fresh_surface_caches()
    checked = 0
    eleven_gon = make_surface(11, fan(11), laminations=[[(1, 6)]])
    for surf in [*seeded_polygons(), two_component_surface(), eleven_gon]:
        specs = list(sweep_specs(surf, 3))
        builds[0] = 0
        fast = [check_theorem_sur(surf, I0, I1) for I0, I1 in specs]
        dlabels = set(surf.diagonal_labels())
        cut_sets = {frozenset(I0 + I1) & dlabels for I0, I1 in specs}
        assert builds[0] == len(cut_sets), surf
        _, comparisons, _ = surf._sweep
        assert len(comparisons) == len(cut_sets), surf
        assert {frozenset(c) for c in comparisons} == cut_sets, surf
        assert fast == [reference_check_theorem_sur(surf, I0, I1) for I0, I1 in specs], surf
        checked += len(specs)
    # 2, 6, 18, 46 and 98 specs per polygon with d = 0..4 diagonals (the
    # sum of C(d, k) 2^k over k <= 3, plus over k <= 2 for the lamination),
    # 244 on the two components and 706 on the 11-gon fan (d = 8)
    assert checked == 1 * 2 + 2 * 6 + 5 * 18 + 14 * 46 + 42 * 98 + 244 + 706
    assert len(cut_sets) == 93


def test_sweep_memoises_each_cut_set_as_its_freeze_cut():
    # each nonempty cut set is its prefix's fields cut along its last
    # label; on every cut set the memo must hold what _freeze_cut builds
    # from the uncut surface.  Fields are kept by sorted cut set and
    # comparisons by cut set.
    eleven_gon = make_surface(11, fan(11), laminations=[[(1, 6)]])
    for surf, max_cut in [
        *((surf, 2) for surf in seeded_polygons()),
        (two_component_surface(), 3),
        (eleven_gon, 3),
    ]:
        specs = list(sweep_specs(surf, max_cut))
        for I0, I1 in specs:
            check_theorem_sur(surf, I0, I1)
        _, comparisons, fields = surf._sweep
        assert {frozenset(cuts) for cuts in fields} == comparisons.keys(), surf
        assert len(fields) == len(comparisons), surf
        for cuts, cut in fields.items():
            assert cuts == tuple(sorted(cuts)), surf
            assert cut == surface_module._freeze_cut(surf, cuts), (surf, cuts)


def swept_cuts():
    """Every (surface, sorted cut set, cut fields) that a sweep memoises:
    the seeded polygons and the two-component surface at --max-cut 2, the
    11-gon fan at --max-cut 3."""
    eleven_gon = make_surface(11, fan(11), laminations=[[(1, 6)]])
    for surf, max_cut in [
        *((surf, 2) for surf in seeded_polygons()),
        (two_component_surface(), 2),
        (eleven_gon, 3),
    ]:
        for I0, I1 in sweep_specs(surf, max_cut):
            check_theorem_sur(surf, I0, I1)
        _, _, fields = surf._sweep
        for cuts, cut in fields.items():
            yield surf, cuts, cut


def test_cut_seed_builder_matches_the_references_on_every_swept_cut():
    # the cut seed is built from the cut's fields; on every cut set it is
    # the face-scan B matrix with one shear column per lamination
    checked = 0
    for surf, cuts, cut in swept_cuts():
        seed = Seed(*surface_module._rows_of_fields(*cut))
        assert_matches_the_references(SurfaceData(*cut), seed)
        checked += bool(cuts)
    # nonempty cut sets: d + C(d, 2) per polygon, 5 + 10 on the two
    # components, 8 + 28 + 56 on the 11-gon fan
    assert checked == 2 * 1 + 5 * 3 + 14 * 6 + 42 * 10 + 15 + 92


def test_every_swept_cut_is_a_valid_surface(monkeypatch):
    # the sweep builds no SurfaceData for a cut, so none is validated
    # there: a cut of a valid surface must be valid by construction
    validated = []
    real = surface_module.validate_surface

    def counting_validate_surface(data):
        validated.append(data)
        return real(data)

    monkeypatch.setattr(surface_module, "validate_surface", counting_validate_surface)
    cuts = list(swept_cuts())
    assert len(validated) == 64 + 1 + 1  # the swept surfaces themselves
    for surf, _, cut in cuts:
        SurfaceData(*cut)  # raises SeedError if the cut is not a valid surface
    assert len(validated) == 66 + len(cuts)
    assert len(cuts) == 66 + 2 * 1 + 5 * 3 + 14 * 6 + 42 * 10 + 15 + 92  # with the empty cut sets


def test_spec_errors_are_those_of_the_spec_validation():
    # every (I0, I1) over the hexagon's labels and two unknown ones
    surf = make_surface(6, fan(6), laminations=[[(1, 4)]])
    base = seed_from_surface(surf)
    labels = (*surf.diagonal_labels(), *surf.lamination_labels(), "u", "v")
    subsets = [
        frozenset(itertools.compress(labels, bits))
        for bits in itertools.product((0, 1), repeat=len(labels))
    ]
    rejected = 0
    for I0 in subsets:
        for I1 in subsets:
            try:
                spec_of(I0, I1).validate(base)
                expected = None
            except SpecError as exc:
                expected = str(exc)
            try:
                assert check_theorem_sur(surf, I0, I1) in (True, False)
                got = None
            except SpecError as exc:
                got = str(exc)
            assert got == expected, (I0, I1)
            rejected += expected is not None
    # accepted: each diagonal in I0, in I1 or in neither, the lamination
    # in I1 or not, and no unknown label
    assert rejected == 64 * 64 - 3**3 * 2


def test_paunched_surface_validates_one_surface(monkeypatch):
    surf = two_component_surface()
    validated = []
    real = surface_module.validate_surface

    def counting_validate_surface(data):
        validated.append(data)
        return real(data)

    monkeypatch.setattr(surface_module, "validate_surface", counting_validate_surface)
    for I0, I1 in ((("a",), ("e",)), (("b", "f"), ()), (("c",), ("L1",))):
        out = paunched_surface(surf, I0, I1)
        assert validated == [out], (I0, I1)
        validated.clear()
    assert paunched_surface(surf, (), ()) is surf
    assert validated == []


def test_cut_along_is_the_one_label_paunch():
    for surf in [*seeded_polygons(), two_component_surface()]:
        for x in surf.diagonal_labels():
            assert cut_along(surf, x, "freeze") == paunched_surface(surf, (x,), ())
            assert cut_along(surf, x, "delete") == paunched_surface(surf, (), (x,))


def test_paunch_validates_labels():
    surf = make_surface(4, [(0, 2)])
    with pytest.raises(SeedError):
        paunched_surface(surf, ("nope",), ())
    with pytest.raises(SeedError):
        paunched_surface(surf, ("d0_2",), ("d0_2",))


def test_paunched_and_cut_surfaces_are_pinned():
    # one sha256 over every paunched surface of the --max-cut 2 sweep and
    # every single cut in both modes, recorded before cut_along and
    # paunched_surface shared one cut step
    digest = hashlib.sha256()
    counts = [0, 0]
    for surf in [*seeded_polygons(), two_component_surface()]:
        for I0, I1 in sweep_specs(surf, 2):
            digest.update(json.dumps(surface_to_dict(paunched_surface(surf, I0, I1))).encode())
            counts[0] += 1
        for x in surf.diagonal_labels():
            for mode in ("delete", "freeze"):
                digest.update(json.dumps(surface_to_dict(cut_along(surf, x, mode))).encode())
                counts[1] += 1
    assert counts[0] == 2 * 1 + 6 * 2 + 14 * 5 + 26 * 14 + 42 * 42 + 74  # specs
    assert counts[1] == 2 * (2 * 1 + 5 * 2 + 14 * 3 + 42 * 4 + 5)  # diagonals, both modes
    assert digest.hexdigest() == (
        "7523be97207d1dff869bd08c54d4270281a8b67a1b91d7be47158a61f4167742"
    )


# --------------------------------------------------- per-polygon tables


def reference_b_matrix_from_triangulation(data):
    """The face scan: for each triangle of each component, consecutive
    counterclockwise sides that are both diagonals add b_xy += 1."""
    diagonals = sorted(data.diagonals)  # in label order
    at = {geom: i for i, (_, geom) in enumerate(diagonals)}
    k = len(diagonals)
    B = [[0] * k for _ in range(k)]
    for c, N in enumerate(data.components):
        diags = [d for _, (cc, d) in data.diagonals if cc == c]
        for u, v, w in triangles_of(N, diags):
            sides = [(u, v), (v, w), (min(u, w), max(u, w))]
            for i in range(3):
                x = at.get((c, sides[i]))
                y = at.get((c, sides[(i + 1) % 3]))
                if x is not None and y is not None:
                    B[x][y] += 1
                    B[y][x] -= 1
    return tuple(lbl for lbl, _ in diagonals), B


def reference_shear_coordinates(data, curves):
    """Per diagonal, the sum of shear_contribution over the curves on its
    component."""
    diags = {c: [d for _, (cc, d) in data.diagonals if cc == c] for c in range(len(data.components))}
    return {
        lbl: sum(shear_contribution(data.components[c], diags[c], d, cv) for cv in curves if cv[0] == c)
        for lbl, (c, d) in data.diagonals
    }


def assert_matches_the_references(data, seed=None):
    """seed, by default the surface's own, is the reference B matrix
    with one reference shear column per lamination, in label order."""
    if seed is None:
        seed = seed_from_surface(data)
    assert b_matrix(seed) == reference_b_matrix_from_triangulation(data)
    assert seed.frozen_labels == tuple(sorted(data.lamination_labels()))
    for lbl, curves in data.laminations:
        assert shear_column(seed, lbl) == reference_shear_coordinates(data, curves), lbl


def test_polygon_tables_match_the_face_scan_on_every_paunched_surface():
    checked = 0
    for surf in seeded_polygons():
        for I0, I1 in sweep_specs(surf, 2):
            assert_matches_the_references(paunched_surface(surf, I0, I1))
            checked += 1
    assert checked == 2 * 1 + 6 * 2 + 14 * 5 + 26 * 14 + 42 * 42  # 2 + 2d + 2d² specs


def test_polygon_tables_keep_each_component_labels_apart():
    # two hexagons with the same triangulation, so one (N, diagonals) key,
    # labelled in different orders; curves on both components
    surf = SurfaceData(
        (6, 6),
        (
            ("p", (0, (0, 2))),
            ("q", (0, (0, 3))),
            ("r", (0, (3, 5))),
            ("c", (1, (0, 2))),
            ("a", (1, (0, 3))),
            ("b", (1, (3, 5))),
        ),
        (
            ("L0", ((0, (1, 4)), (1, (1, 4)), (1, (2, 5)))),
            ("L1", ((0, (0, 4)), (1, (1, 3)))),
        ),
    )
    assert_matches_the_references(surf)
    labels, B = b_matrix(seed_from_surface(surf))
    at = {x: i for i, x in enumerate(labels)}
    same = {"p": "c", "q": "a", "r": "b"}
    assert all(B[at[x]][at[y]] == B[at[same[x]]][at[same[y]]] for x in same for y in same)
    assert any(B[at[x]][at[y]] for x in same for y in same)
    assert all(B[at[x]][at[y]] == 0 for x in same for y in same.values())
    for I0, I1 in sweep_specs(surf, 2):
        assert_matches_the_references(paunched_surface(surf, I0, I1))


def test_matrix_and_shear_row_are_fresh_per_call():
    # the seed's rows are tuples, so no caller can change a cached
    # per-polygon table through them
    surf = make_surface(6, fan(6), laminations=[[(1, 4), (2, 5)]])
    curves = dict(surf.laminations)["L0"]
    seed = seed_from_surface(surf)
    labels, B = b_matrix(seed)
    row = shear_column(seed, "L0")
    expected = (labels, [r[:] for r in B]), dict(row)
    with pytest.raises(TypeError):
        seed.matrix[0][1] += 5
    B[0][1] += 5
    B[1].append(9)
    B.append([])
    row["d0_2"] += 7
    row["extra"] = 1
    # the same surface object and an equal new one
    for data in (surf, make_surface(6, fan(6), laminations=[[(1, 4), (2, 5)]])):
        again = seed_from_surface(data)
        assert (b_matrix(again), shear_column(again, "L0")) == expected
    assert expected[1] == reference_shear_coordinates(surf, curves)


def test_polygon_shear_rows_match_the_per_curve_oracle():
    # every triangulation of N = 3..8 and every segment pair s != t, in
    # either order: the table's row lists, in diagonal order, each crossed
    # diagonal with a nonzero sign (a zero adds nothing to a column)
    pairs = zeros = 0
    for N in range(3, 9):
        for tri in enumerate_triangulations(N):
            ds = tuple(sorted(tri))
            shear = surface_module._polygon_table(N, ds)[3]
            for segments in itertools.permutations(range(N), 2):
                expected = shear_row(N, ds, segments)
                row = shear[segments]
                assert {ds[i]: sign for i, sign in row} == {
                    d: sign for d, sign in expected.items() if sign
                }, (N, ds, segments)
                assert [i for i, _ in row] == sorted({i for i, _ in row})
                assert shear[segments] is row  # kept after its first lookup
                zeros += len(expected) - len(row)
                pairs += 1
            assert len(shear) == N * (N - 1)
    # N(N - 1) pairs times the Catalan number C(N - 2) of triangulations
    assert pairs == 6 * 1 + 12 * 2 + 20 * 5 + 30 * 14 + 42 * 42 + 56 * 132
    assert zeros > 0


def test_a_swept_surface_is_freed_once_dropped():
    # the sweep's memo lives on the surface, so no cache keeps a surface,
    # its seed or its comparisons alive after the sweep
    surf = make_surface(6, fan(6), laminations=[[(1, 4)]])
    assert all(check_theorem_sur(surf, I0, I1) for I0, I1 in sweep_specs(surf, 2))
    ref = weakref.ref(surf)
    del surf
    gc.collect()
    assert ref() is None


def test_surface_caches_are_bounded():
    maxsizes = {
        name: obj.cache_parameters()["maxsize"]
        for name, obj in vars(surface_module).items()
        if hasattr(obj, "cache_parameters")
    }
    # each curve's shear row lives in its polygon's table, so a table
    # holds at most N(N - 1) rows
    assert set(maxsizes) == {"_polygon_table", "_triangulation_fault"}
    assert all(isinstance(m, int) and m > 0 for m in maxsizes.values()), maxsizes


# ---------------------------------------------------------- isomorphism


def test_surface_iso_under_rotation_and_reflection():
    a = make_surface(5, [(0, 2), (0, 3)])
    b = make_surface(5, [(1, 3), (1, 4)])  # rotated copy
    assert surface_iso(a, b)
    c = make_surface(5, [(0, 2), (2, 4)])
    assert surface_iso(a, c)  # reflected fan
    assert surface_iso(a, a)


def test_surface_iso_respects_laminations():
    a = make_surface(4, [(0, 2)], laminations=[[(1, 3)]])
    b = make_surface(4, [(1, 3)], laminations=[[(0, 2)]])
    assert surface_iso(a, b)
    c = make_surface(4, [(0, 2)], laminations=[[(2, 3)]])
    assert not surface_iso(a, c)
    d = make_surface(4, [(0, 2)])
    assert not surface_iso(a, d)


def test_surface_iso_distinguishes_shapes():
    a = make_surface(6, fan(6))
    b = make_surface(6, [(0, 2), (2, 4), (0, 4)])
    assert not surface_iso(a, b)
    assert not surface_iso(make_surface(4, [(0, 2)]), make_surface(5, fan(5)))


def test_surface_iso_on_multiple_components():
    a = validate_surface(
        SurfaceData((3, 4), (("d", (1, (0, 2))),), ())
    )
    b = validate_surface(
        SurfaceData((4, 3), (("e", (0, (1, 3))),), ())
    )
    assert surface_iso(a, b)


# ------------------------------------------------------ flip = mutation


def _flip(data, x):
    """data with diagonal x of its one polygon replaced by the other
    diagonal of its quadrilateral, joining the apexes of its two
    triangles; x keeps its label."""
    (N,) = data.components
    diagonals = [d for _, (_, d) in data.diagonals]
    apexes = surface_module._polygon_table(N, tuple(sorted(diagonals)))[1]
    p, q = sorted(apexes[dict(data.diagonals)[x][1]])
    flipped = tuple((lbl, (0, (p, q)) if lbl == x else d) for lbl, d in data.diagonals)
    return SurfaceData(data.components, flipped, data.laminations)


def _noncrossing_lamination(rng, N):
    """One to three curves, no two of which cross."""
    curves = []
    for _ in range(rng.randint(1, 3)):
        curve = tuple(sorted(rng.sample(range(N), 2)))
        if not any(diagonals_cross(curve, c) for c in curves):
            curves.append(curve)
    return curves


def _mutated(seed, x):
    return Seed(seed.exchangeable_labels, seed.frozen_labels, matrix_mutation(seed.matrix, seed.index(x)))


@pytest.mark.parametrize("N", range(4, 9))
def test_flip_is_mutation(N):
    """Fomin-Shapiro-Thurston (Acta Math. 2008), Fomin-Thurston (Mem. AMS
    2018): flipping a diagonal mutates the extended exchange matrix at
    its label, shear rows included, for laminations whose curves do not
    cross.  Every diagonal of every triangulation, 0-2 laminations."""
    rng = random.Random(N)
    flips = 0
    for tri in enumerate_triangulations(N):
        laminations = [_noncrossing_lamination(rng, N) for _ in range(rng.randint(0, 2))]
        data = make_surface(N, tri, laminations)
        seed = seed_from_surface(data)
        for x in seed.exchangeable_labels:
            assert seed_from_surface(_flip(data, x)) == _mutated(seed, x), (tri, laminations, x)
            flips += 1
    assert flips == len(enumerate_triangulations(N)) * (N - 3)


def test_flip_is_not_mutation_for_crossing_curves():
    """A lamination with two crossing curves is accepted, but the flip
    oracle does not hold for it, so it is left out above."""
    data = make_surface(5, [(0, 3), (1, 3)], [[(2, 4), (0, 3)]])
    seed = seed_from_surface(data)
    assert seed_from_surface(_flip(data, "d0_3")) != _mutated(seed, "d0_3")
