"""Triangulated polygons, laminations, shear coordinates, and cutting.

Surfaces are disjoint unions of convex polygons (unpunctured disks)
with vertices numbered counterclockwise.  A triangulation is a maximal
set of noncrossing diagonals; a lamination curve is recorded purely
combinatorially by its pair of boundary-segment endpoints.  Cutting a
polygon along a diagonal splits it in two, clips the curves, and adds
the curves hugging the cut side as a lamination with the diagonal's
label.  A cut's mode only decides whether that lamination stays, and
each lamination is clipped on its own, so delete cuts, paunched surfaces
and check_theorem_sur all use one freeze cut per set of cut diagonals.
check_theorem_sur compares the sub-seed and the cut seed of each cut set
once, kept with the surface's own seed on the surface itself, and reads
every spec off that comparison.  Both sides are compared as rows
indexed by label, with no Seed built per cut set: the sub-seed's rows
are read off the surface seed, and the cut seed's rows are built
straight from the cut's fields.  Each cut set is cut once, from the
kept cut of the cut set without its last diagonal, so a sweep validates
only the surface it was given (a cut of a valid surface is valid).

The module keeps two bounded caches, each keyed by one triangulated
polygon's (N, sorted diagonals): _polygon_table holds its faces, the
apexes of each diagonal, its pairs of consecutive diagonal sides and a
table of shear rows that a curve's row is read from by its segment
pair (made on first lookup, at most N(N - 1) rows), and
_triangulation_fault whether the diagonals triangulate the polygon.
A row build looks up each polygon's table once.  Everything else a
sweep keeps (the surface seed, the cut fields and the comparison of
each cut set) is cached on the surface itself and freed with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

from .errors import SeedError
from .seeds import Seed, cached_attribute
# mixing_subseed is unused here: perfbench's WRAPS and its test name it (ROADMAP item 1)
from .homs import SubSeedSpec, mixing_subseed

__all__ = [
    "SurfaceData",
    "make_surface",
    "validate_surface",
    "diagonals_cross",
    "curve_crosses",
    "seed_from_surface",
    "cut_along",
    "paunched_surface",
    "check_theorem_sur",
    "surface_iso",
]

# Curve = (component index, (segment, segment)); Diagonal = (a, b) with a < b.


@dataclass(frozen=True)
class SurfaceData:
    """Polygon sizes, labeled diagonals, and labeled multi-laminations.

    components[c] is the vertex count of polygon c.  diagonals maps a
    label to (component, (a, b)); laminations maps a label to a sorted
    tuple of curves (parallel copies allowed, hence tuples not sets).
    Construction validates the triangulations and curves.
    """

    components: tuple[int, ...]
    diagonals: tuple[tuple[str, tuple[int, tuple[int, int]]], ...]
    laminations: tuple[tuple[str, tuple[tuple[int, tuple[int, int]], ...]], ...]

    def __post_init__(self):
        validate_surface(self)

    def diagonal_labels(self) -> tuple[str, ...]:
        return self._labels[0]

    def lamination_labels(self) -> tuple[str, ...]:
        return self._labels[1]

    # cached per instance, outside the dataclass fields, so equality,
    # hashing and repr see only the three fields
    @cached_attribute
    def _labels(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return tuple(lbl for lbl, _ in self.diagonals), tuple(lbl for lbl, _ in self.laminations)

    @cached_attribute
    def _sweep(self) -> tuple[Seed, dict, dict]:
        """The surface's own seed, check_theorem_sur's comparisons by cut
        set and its freeze-cut fields by sorted cut set, freed with the
        surface."""
        uncut = self.components, self.diagonals, self.laminations
        return seed_from_surface(self), {}, {(): uncut}


def _norm_curve(comp: int, s: int, t: int):
    return (comp, (min(s, t), max(s, t)))


def make_surface(N: int, diagonals, laminations=()) -> SurfaceData:
    """Single-polygon surface with default labels d{a}_{b} and L{i},
    diagonals and laminations each in label order."""
    diag = sorted((f"d{a}_{b}", (0, (a, b))) for a, b in map(sorted, diagonals))
    lams = sorted(
        (f"L{i}", tuple(sorted(_norm_curve(0, s, t) for s, t in curves)))
        for i, curves in enumerate(laminations)
    )
    return SurfaceData((N,), tuple(diag), tuple(lams))


def diagonals_cross(d1: tuple[int, int], d2: tuple[int, int]) -> bool:
    a, b = d1
    c, d = d2
    if {a, b} & {c, d}:
        return False
    inside = lambda v: a < v < b
    return inside(c) != inside(d)


def validate_surface(data: SurfaceData) -> SurfaceData:
    for N in data.components:
        if N < 3:
            raise SeedError(f"polygon with {N} vertices is not allowed")
    labels = data.diagonal_labels() + data.lamination_labels()
    if len(set(labels)) != len(labels):
        raise SeedError("diagonal and lamination labels must be distinct")
    per_comp: dict[int, list[tuple[int, int]]] = {c: [] for c in range(len(data.components))}
    for lbl, (c, (a, b)) in data.diagonals:
        if c not in per_comp:
            raise SeedError(f"diagonal {lbl!r} names unknown component {c}")
        N = data.components[c]
        if not (0 <= a < b < N):
            raise SeedError(f"diagonal {lbl!r}: endpoints ({a},{b}) out of range")
        if b - a == 1 or (a == 0 and b == N - 1):
            raise SeedError(f"diagonal {lbl!r} joins adjacent vertices")
        per_comp[c].append((a, b))
    for c, diags in per_comp.items():
        fault = _triangulation_fault(data.components[c], tuple(diags))
        if fault is not None:
            raise SeedError(fault.format(c=c))
    for lbl, curves in data.laminations:
        for c, (s, t) in curves:
            if not 0 <= c < len(data.components):
                raise SeedError(f"lamination {lbl!r} names unknown component {c}")
            N = data.components[c]
            if not (0 <= s < N and 0 <= t < N):
                raise SeedError(f"lamination {lbl!r}: segment out of range")
            if s == t:
                raise SeedError(f"lamination {lbl!r} has a boundary-parallel curve")
    return data


# The caches below are keyed by one polygon's (N, diagonals) and return
# values that callers only read (a table of shear rows adds a row on its
# own first lookup), so every caller can share them.


class _ShearRows(dict):
    """Segment pair (s, t) -> shear row of the curve with ends on the
    boundary segments s and t of one triangulated polygon: the pairs
    (i, sign) for each diagonals[i] the curve crosses with a nonzero
    _crossing_sign, in diagonal order.  A row is made on its first
    lookup and kept, so a table holds at most N(N - 1) rows."""

    __slots__ = ("N", "diagonals", "apexes")

    def __init__(self, N: int, diagonals, apexes):
        super().__init__()
        self.N, self.diagonals, self.apexes = N, diagonals, apexes

    def __missing__(self, segments: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        curve = (0, segments)
        row = tuple(
            (i, sign)
            for i, d in enumerate(self.diagonals)
            if curve_crosses(curve, 0, d)
            and (sign := _crossing_sign(self.N, d, self.apexes, curve))
        )
        self[segments] = row
        return row


@lru_cache(maxsize=4096)
def _polygon_table(N: int, diagonals) -> tuple[tuple, MappingProxyType, tuple, _ShearRows]:
    """Faces u < v < w, diagonal (a, b) -> apexes (p, q) of its two
    triangles (p inside the counterclockwise arc a..b, q outside), the
    positions (i, j) in diagonals of consecutive counterclockwise
    triangle sides that are both diagonals, and the shear rows of the
    curves, for the N-gon triangulated by the sorted diagonals."""
    edges = {(i, (i + 1) % N) for i in range(N)}
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    edges |= {tuple(d) for d in diagonals}
    adj: dict[int, set[int]] = {v: set() for v in range(N)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    faces = []
    for u in range(N):
        for v in sorted(adj[u]):
            if v <= u:
                continue
            for w in sorted(adj[u] & adj[v]):
                if w > v:
                    faces.append((u, v, w))
    if len(faces) != N - 2:
        raise SeedError(f"{len(faces)} triangles in an {N}-gon, expected {N - 2}")
    position = {d: i for i, d in enumerate(diagonals)}
    inner: dict[tuple[int, int], int] = {}
    outer: dict[tuple[int, int], int] = {}
    pairs = []
    for u, v, w in faces:
        sides = ((u, v), (v, w), (u, w))
        for i, apex in enumerate((w, u, v)):
            x, y = sides[i], sides[(i + 1) % 3]
            (inner if x[0] < apex < x[1] else outer)[x] = apex
            if x in position and y in position:
                pairs.append((position[x], position[y]))
    apexes = MappingProxyType({d: (p, outer[d]) for d, p in inner.items() if d in outer})
    return tuple(faces), apexes, tuple(pairs), _ShearRows(N, diagonals, apexes)


@lru_cache(maxsize=4096)
def _triangulation_fault(N: int, diagonals) -> str | None:
    """First reason the diagonals (in the given order) do not triangulate
    the N-gon, with a {c} field for the component, or None."""
    if len(set(diagonals)) != len(diagonals):
        return "component {c} repeats a diagonal"
    for d1, d2 in itertools.combinations(diagonals, 2):
        if diagonals_cross(d1, d2):
            return f"diagonals {d1} and {d2} cross in component {{c}}"
    if len(diagonals) != N - 3:
        return f"component {{c}}: {len(diagonals)} diagonals, a triangulation needs {N - 3}"
    return None


def curve_crosses(curve, comp: int, diag: tuple[int, int]) -> bool:
    c, (s, t) = curve
    if c != comp:
        return False
    a, b = diag
    return (a <= s < b) != (a <= t < b)


def _crossing_sign(N: int, diag: tuple[int, int], apexes, curve) -> int:
    """Contribution of a curve that crosses diag, with the apexes p, q of
    diag's triangles read from apexes (of a _polygon_table).

    With quadrilateral corners a, p, b, q in counterclockwise order, a
    curve leaving through sides (a,p) and (b,q) contributes -1, one
    leaving through (p,b) and (q,a) contributes +1, and one using two
    adjacent sides 0; the companion-curve row identity after a freeze
    cut pins this convention."""
    _, (s, t) = curve
    try:
        p, q = apexes[tuple(diag)]
    except KeyError:
        raise SeedError(f"diagonal {diag} is not in the triangulation") from None
    a, b = diag
    inner, outer = (s, t) if a <= s < b else (t, s)
    near_a_inner = a <= inner < p  # curve leaves through side (a, p)
    near_b_outer = (outer - b) % N < (q - b) % N  # side (b, q), cyclic arc b..q
    if near_a_inner and near_b_outer:
        return -1
    if not near_a_inner and not near_b_outer:
        return 1
    return 0


def _rows_of_fields(components, diagonals, laminations):
    """Exchangeable labels, frozen labels and matrix rows of the seed of
    the surface with these fields, diagonals exchangeable and laminations
    frozen, each in label order.  Within each triangle, consecutive
    counterclockwise diagonal sides (x, y) add b_xy += 1, and a
    lamination's column sums the shear rows of its curves; both are read
    from each polygon's table, looked up once per polygon.  The fields
    are not validated."""
    diagonals = sorted(diagonals)
    ex_labels = tuple(lbl for lbl, _ in diagonals)
    row_of: dict[int, dict[tuple[int, int], int]] = {}  # component -> diagonal -> row
    for i, (_, (c, d)) in enumerate(diagonals):
        row_of.setdefault(c, {})[d] = i
    laminations = sorted(laminations)
    width = len(ex_labels) + len(laminations)
    rows = [[0] * width for _ in ex_labels]
    polygons = {}  # component -> (its shear rows, the row of each of its sorted diagonals)
    for c, row in row_of.items():
        ds = tuple(sorted(row))
        _, _, pairs, shear = _polygon_table(components[c], ds)
        at = [row[d] for d in ds]
        for x, y in pairs:
            i, j = at[x], at[y]
            rows[i][j] += 1
            rows[j][i] -= 1
        polygons[c] = shear, at
    for col, (_, curves) in enumerate(laminations, len(ex_labels)):
        for c, segments in curves:
            polygon = polygons.get(c)
            if polygon is not None:
                shear, at = polygon
                for i, sign in shear[segments]:
                    rows[at[i]][col] += sign
    return ex_labels, tuple(lbl for lbl, _ in laminations), tuple(map(tuple, rows))


def seed_from_surface(data: SurfaceData) -> Seed:
    """Seed with diagonals exchangeable and laminations frozen."""
    return Seed(*_rows_of_fields(data.components, data.diagonals, data.laminations))


def cut_along(data: SurfaceData, x: str, mode: str = "delete") -> SurfaceData:
    """Split the component of diagonal x along it into two polygons.

    Side 1 carries the vertices a..b of the cut diagonal (a < b), side 2
    the complementary arc; each gains the copy of x as its last boundary
    segment.  Curves crossing x are clipped into one fragment per side,
    ending on the cut segment.  In freeze mode the label of x becomes a
    new lamination holding one curve per side that hugs the cut segment;
    a delete cut is the freeze cut without that lamination.
    """
    if mode not in ("delete", "freeze"):
        raise SeedError(f"unknown cut mode {mode!r}")
    if x not in data.diagonal_labels():
        raise SeedError(f"{x!r} is not a diagonal of the surface")
    components, diagonals, laminations = _freeze_cut(data, (x,))
    if mode == "delete":
        laminations = tuple(lam for lam in laminations if lam[0] != x)
    return SurfaceData(components, diagonals, laminations)


def _freeze_cut(data: SurfaceData, cuts):
    """The fields of data cut freeze-style along the diagonals labelled
    by cuts, one label at a time in sorted order, which fixes the
    component order; nothing is validated."""
    fields = data.components, data.diagonals, data.laminations
    for x in sorted(cuts):
        fields = _cut(*fields, x)
    return fields


def _cut(components, diagonals, laminations, x: str):
    """The fields of a surface cut freeze-style along diagonal x.

    Components after the cut one move up by one.  That map is strictly
    increasing, so a lamination with no curve on the cut component keeps
    its sorted order and is not sorted again.  Each lamination is
    clipped on its own, and the label of x is added as the lamination of
    the two curves hugging the cut segment.  Diagonals (u < v) and curves
    are written with their ends in order; on side 1 a diagonal's order
    is kept by the shift.
    """
    for lbl, (c, (a, b)) in diagonals:
        if lbl == x:
            break
    else:
        raise SeedError(f"{x!r} is not a diagonal of the surface")
    N = components[c]
    k1 = b - a + 1  # side-1 vertex count; cut segment k1-1
    k2 = N - (b - a) + 1  # side-2 vertex count; cut segment k2-1
    side2 = c + 1
    comps = (*components[:c], k1, k2, *components[c + 1 :])

    new_diagonals = []
    for lbl, (cc, (u, v)) in diagonals:
        if cc != c:
            new_diagonals.append((lbl, (cc + (cc > c), (u, v))))
        elif lbl == x:
            continue
        elif a <= u <= b and a <= v <= b and not (u == a and v == b):
            new_diagonals.append((lbl, (c, (u - a, v - a))))
        else:
            nu, nv = (u - b) % N, (v - b) % N
            new_diagonals.append((lbl, (side2, (nu, nv) if nu < nv else (nv, nu))))

    new_laminations = [(x, ((c, (0, k1 - 2)), (side2, (0, k2 - 2))))]
    for lbl, curves in laminations:
        clipped = []
        on_cut = False
        for cc, (s, t) in curves:
            if cc != c:
                clipped.append((cc + (cc > c), (s, t)))
                continue
            # stays on side 1 or side 2 if both segments do, else one
            # fragment per side, ending on the cut segment, which is the
            # last segment of its side
            on_cut = True
            on1, on2 = a <= s < b, a <= t < b
            if on1 and on2:
                clipped.append((c, (s - a, t - a) if s < t else (t - a, s - a)))
            elif not (on1 or on2):
                p, q = (s - b) % N, (t - b) % N
                clipped.append((side2, (p, q) if p < q else (q, p)))
            else:
                inner, outer = (s, t) if on1 else (t, s)
                clipped.append((c, (inner - a, k1 - 1)))
                clipped.append((side2, ((outer - b) % N, k2 - 1)))
        if on_cut:
            clipped.sort()
        new_laminations.append((lbl, tuple(clipped)))
    new_laminations.sort()
    return comps, tuple(new_diagonals), tuple(new_laminations)


def paunched_surface(data: SurfaceData, I0, I1) -> SurfaceData:
    """Cut freeze-style along I0 diagonals, delete I1 diagonals, and
    drop I1 laminations: the freeze cut along every diagonal of I0 | I1
    without the laminations labelled by I1, the deleted diagonals' hugs
    among them."""
    I0, I1 = frozenset(I0), frozenset(I1)
    if I0 & I1:
        raise SeedError("I0 and I1 overlap")
    dlabels = set(data.diagonal_labels())
    llabels = set(data.lamination_labels())
    if not I0 <= dlabels:
        raise SeedError(f"I0 contains non-diagonals: {sorted(I0 - dlabels)}")
    if not I1 <= dlabels | llabels:
        raise SeedError(f"unknown labels in I1: {sorted(I1 - dlabels - llabels)}")
    if not I0 | I1:
        return data
    components, diagonals, laminations = _freeze_cut(data, (I0 | I1) & dlabels)
    return SurfaceData(components, diagonals, tuple(lam for lam in laminations if lam[0] not in I1))


def _cut_fields(fields: dict, cuts: tuple[str, ...]):
    """_freeze_cut(data, cuts) for cuts in sorted order, where fields
    maps () to data's fields and keeps every cut set it is asked for:
    the cut of cuts[:-1], cut once more along cuts[-1]."""
    if cuts not in fields:
        fields[cuts] = _cut(*_cut_fields(fields, cuts[:-1]), cuts[-1])
    return fields[cuts]


def _subseed_rows(base: Seed, cuts: frozenset[str]) -> dict[str, tuple[int, ...]]:
    """Label -> row of the sub-seed of base that freezes every diagonal in
    cuts: base's row of each exchangeable label outside cuts, every
    column kept, in base's column order (mixing_subseed's restriction,
    with no Seed built)."""
    return {x: row for x, row in zip(base.exchangeable_labels, base.matrix) if x not in cuts}


def _cut_set_comparison(base: Seed, cuts: frozenset[str], fields):
    """Both sides of check_theorem_sur for the cut set cuts, compared on
    rows indexed by label, with no Seed built.

    The left side is the sub-seed of the surface seed base that freezes
    every diagonal in cuts: its rows are read off base by _subseed_rows,
    and its labels are base's, cuts among the frozen ones.  The right
    side is the seed of the surface whose freeze cut along cuts has the
    given fields, made by _rows_of_fields from the cut polygons' own
    tables (base itself when cuts is empty).  Returns whether the
    exchangeable label sets are equal, and the mismatch set: the frozen
    labels of one side only, with the column labels on which some row
    shared by both sides disagrees.  Each shared row is compared as two
    tuples of its shared columns, and its disagreeing labels are named
    only if they differ.
    """
    left_rows = _subseed_rows(base, cuts)
    if cuts:
        exchangeable, frozen, matrix = _rows_of_fields(*fields)
    else:
        exchangeable, frozen, matrix = base.exchangeable_labels, base.frozen_labels, base.matrix
    # the column map: the right side's position k of each column label
    # it shares with base, read through base's position of that label; a
    # column label of one side only is not compared
    labels = exchangeable + frozen
    position = base._position
    shared = [k for k, y in enumerate(labels) if y in position]
    disagree = set()
    if shared:
        left_key = itemgetter(*[position[labels[k]] for k in shared])
        right_key = itemgetter(*shared)
        for x, other in zip(exchangeable, matrix):
            row = left_rows.get(x)
            if row is not None and left_key(row) != right_key(other):
                disagree.update(labels[k] for k in shared if row[position[labels[k]]] != other[k])
    # the left side's frozen labels are base's labels without a left row
    one_side = base._label_sets[1].difference(left_rows).symmetric_difference(frozen)
    return left_rows.keys() == set(exchangeable), one_side | disagree


def check_theorem_sur(data: SurfaceData, I0, I1) -> bool:
    """Sub-seed of the surface seed vs seed of the paunched surface,
    compared through the canonical label correspondence.

    With C the diagonals of I0 | I1, both sides are those of the cut set
    C (see _cut_set_comparison) without the columns labelled by I1.  On
    the left, the (I0, I1) sub-seed freezes I0 and deletes C - I0, which
    lies in I1.  On the right, the paunched seed is the seed of the
    freeze cut along C without the frozen columns labelled by I1: a
    cut's mode only decides whether the hug lamination of its label
    stays, and each frozen column is computed from its own lamination.
    So the spec holds iff the exchangeable label sets are equal and the
    mismatch set lies in I1: frozen sets A and B agree off I1 iff
    A ^ B <= I1.
    """
    I0, I1 = frozenset(I0), frozenset(I1)
    base, comparisons, fields = data._sweep
    exchangeable, labels = base._label_sets
    if not (I0 <= exchangeable and I1 <= labels and I0.isdisjoint(I1)):
        SubSeedSpec(I0, I1).validate(base)  # raises the SpecError of the first failed test
    cuts = I0 | (I1 & exchangeable)
    comparison = comparisons.get(cuts)
    if comparison is None:
        cut_fields = _cut_fields(fields, tuple(sorted(cuts)))
        comparison = comparisons[cuts] = _cut_set_comparison(base, cuts, cut_fields)
    ex_equal, mismatch = comparison
    return ex_equal and mismatch <= I1


def _dihedral_maps(N: int):
    for r in range(N):
        yield (lambda v, r=r: (v + r) % N, lambda s, r=r: (s + r) % N)
        yield (lambda v, r=r: (r - v) % N, lambda s, r=r: (r - s - 1) % N)


def surface_iso(a: SurfaceData, b: SurfaceData) -> bool:
    """Combinatorial isomorphism: a bijection of components with a
    rotation or reflection of each polygon matching triangulations and
    matching the multi-laminations as unlabeled families of curve sets."""
    if sorted(a.components) != sorted(b.components):
        return False
    if len(a.diagonals) != len(b.diagonals) or len(a.laminations) != len(b.laminations):
        return False
    nc = len(a.components)
    b_diag_by_comp = [
        frozenset(d for _, (cc, d) in b.diagonals if cc == c) for c in range(nc)
    ]
    b_lams = sorted(cv for _, cv in b.laminations)
    for perm in itertools.permutations(range(nc)):
        if any(a.components[c] != b.components[perm[c]] for c in range(nc)):
            continue
        map_choices = [list(_dihedral_maps(a.components[c])) for c in range(nc)]
        for choice in itertools.product(*map_choices):
            ok = True
            for c in range(nc):
                vmap = choice[c][0]
                diag_img = frozenset(
                    (min(vmap(u), vmap(v)), max(vmap(u), vmap(v)))
                    for _, (cc, (u, v)) in a.diagonals
                    if cc == c
                )
                if diag_img != b_diag_by_comp[perm[c]]:
                    ok = False
                    break
            if not ok:
                continue
            lam_img = sorted(
                tuple(
                    sorted(
                        _norm_curve(perm[cc], choice[cc][1](s), choice[cc][1](t))
                        for cc, (s, t) in curves
                    )
                )
                for _, curves in a.laminations
            )
            if lam_img == b_lams:
                return True
    return False
