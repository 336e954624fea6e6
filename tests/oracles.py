"""Independent reference computations and paper propositions that the
tests compare the library with.

Each function here is a second, slower way to get a result the library
computes, a proposition of the paper checked on the library's objects
(retractions, the path-quiver regularity test, D as L∘R and as the
closure of L ∪ R), or an input the tests share (the empty homomorphism,
the identity inclusion of a sub-seed, every triangulation of an N-gon,
a seed file).  They live here, not in the library, because no command
needs them.
"""

import itertools
import json

import numpy as np

from clusterseeds import MultiPoly
from clusterseeds.errors import HomError, LaurentViolation, SeedError
from clusterseeds.fileio import seed_to_dict
from clusterseeds.homs import (
    EMPTY_SPEC,
    PartialSeedHom,
    SubSeedSpec,
    check_partial_hom,
    compose,
    image_spec,
    mixing_subseed,
)
from clusterseeds.seeds import Seed, matrix_mutation
from clusterseeds.semigroup import GreenPartition, SemigroupTable, _all_specs
from clusterseeds.surface import _crossing_sign, _polygon_table, _rows_of_fields, curve_crosses


def grlex_key(exponents):
    """Graded lexicographic order on exponent tuples."""
    return (sum(exponents), exponents)


def reference_str(poly: MultiPoly) -> str:
    """The text of a Laurent polynomial, from its tuple-keyed terms sorted
    by grlex_key: the formatter MultiPoly.__str__ had before it sorted
    packed keys and cached its text."""
    if not poly.terms:
        return "0"
    d = poly._den_exponents()
    if any(d):
        num = reference_str(poly.shift(d))
        if len(poly.terms) > 1:
            num = f"({num})"
        return f"{num}/{reference_str(MultiPoly(poly.context, {d: 1}))}"
    parts = []
    for e in sorted(poly.terms, key=grlex_key, reverse=True):
        c = poly.terms[e]
        factors = [
            f"{v}^{k}" if k > 1 else v
            for v, k in zip(poly.context, e)
            if k
        ]
        body = "*".join(factors)
        if not body:
            mono = str(abs(c))
        elif abs(c) == 1:
            mono = body
        else:
            mono = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, mono))
    first_sign, first = parts[0]
    out = (first if first_sign == "+" else f"-{first}")
    for sign, mono in parts[1:]:
        out += f" {sign} {mono}"
    return out


def min_exponents(poly: MultiPoly) -> tuple[int, ...]:
    """The smallest exponent of each variable, read off the terms."""
    return tuple(map(min, zip(*poly.terms)))


def cartan_counterpart(rows, transpose: bool = False) -> list[list[int]]:
    """a_ii = 2 and a_ij = -|b_ji| (-|b_ij| with transpose) for the square
    matrix rows.  The exchange in direction k reads row k here and column
    k in Fomin-Zelevinsky, so -|b_ji| is their a_ij = -|b_ij|."""
    n = len(rows)
    return [
        [2 if i == j else -abs(rows[i][j] if transpose else rows[j][i]) for j in range(n)]
        for i in range(n)
    ]


def almost_positive_roots(a) -> set[tuple[int, ...]]:
    """Phi_{>=-1} of the finite root system with Cartan matrix a, in the
    basis of simple roots: the negative simple roots and the positive
    roots.  A simple reflection s_i(beta) = beta - (sum_j a_ij beta_j)
    alpha_i permutes the positive roots other than alpha_i, so closing
    the simple roots under them finds every positive root; more than
    10,000 of them means a is not of finite type."""
    n = len(a)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, stack = set(simple), list(simple)
    while stack:
        beta = stack.pop()
        for i in range(n):
            c = sum(a[i][j] * beta[j] for j in range(n))
            image = tuple(v - c if j == i else v for j, v in enumerate(beta))
            if c and min(image) >= 0 and image not in roots:
                roots.add(image)
                stack.append(image)
        if len(roots) > 10_000:
            raise ValueError("more than 10,000 positive roots: not of finite type")
    return roots | {tuple(-v for v in alpha) for alpha in simple}


def d_vectors(variables) -> set[tuple[int, ...]]:
    """The d-vector of each cluster variable: its negated least exponents."""
    return {tuple(-v for v in min_exponents(x)) for x in variables}


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """The quotient f/g if it is a polynomial over Z (no negative
    exponent), else None."""
    try:
        quot = f / g
    except LaurentViolation:
        return None
    return quot if quot.is_zero() or min(min_exponents(quot), default=0) >= 0 else None


def dump_seed(seed: Seed, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(seed_to_dict(seed), fh, indent=2)
        fh.write("\n")


def spec_of(I0, I1) -> SubSeedSpec:
    return SubSeedSpec(frozenset(I0), frozenset(I1))


def matrix_mutation_entrywise(rows, k: int) -> tuple[tuple[int, ...], ...]:
    """Matrix mutation entry by entry (Fomin-Zelevinsky, Cluster algebras
    I, 2002, (4.3)): b'_jl = -b_jl if j = k or l = k, else b_jl +
    (|b_jk| b_kl + b_jk |b_kl|) / 2."""
    a = rows
    return tuple(
        tuple(
            -a[j][l] if j == k or l == k
            else a[j][l] + (abs(a[j][k]) * a[k][l] + a[j][k] * abs(a[k][l])) // 2
            for l in range(len(a[j]))
        )
        for j in range(len(a))
    )


def mutate_seed_matrix(seed: Seed, k: int) -> Seed:
    return Seed(seed.exchangeable_labels, seed.frozen_labels, matrix_mutation(seed.matrix, k))


def connected_components(seed: Seed) -> list[tuple[str, ...]]:
    """Classes of connected pairs, in label order, each sorted by label order.

    (x, y) is a connected pair when x = y, or x != y with
    b_{xy}^2 + b_{yx}^2 != 0 and at least one of x, y exchangeable.
    """
    labels = seed.labels
    entries = seed.matrix
    n = seed.n
    seen: set[int] = set()
    classes = []
    for root in range(len(labels)):
        if root in seen:
            continue
        seen.add(root)
        members = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for y in range(len(labels)):
                if y not in seen and ((x < n and entries[x][y]) or (y < n and entries[y][x])):
                    seen.add(y)
                    members.append(y)
                    stack.append(y)
        classes.append(tuple(labels[i] for i in sorted(members)))
    return classes


def is_connected(seed: Seed) -> bool:
    """True iff the extended cluster is joined up by connected pairs."""
    return len(connected_components(seed)) <= 1


def empty_hom(seed: Seed, target: Seed | None = None) -> PartialSeedHom:
    spec = SubSeedSpec(frozenset(), frozenset(seed.labels))
    return PartialSeedHom(seed, spec, target if target is not None else seed, (None,) * len(seed.labels))


def identity_inclusion(seed: Seed, spec: SubSeedSpec) -> PartialSeedHom:
    """The natural inclusion of the (I0, I1) sub-seed into the seed."""
    spec.validate(seed)
    mapping = tuple(None if x in spec.I1 else x for x in seed.labels)
    return PartialSeedHom(seed, spec, seed, mapping)


def is_id_form(h: PartialSeedHom) -> bool:
    """True iff h is the identity inclusion of its own sub-seed."""
    return all(v is None or v == x for x, v in zip(h.source.labels, h.mapping))


def elements(S: SemigroupTable) -> list[PartialSeedHom]:
    """Every element of the semigroup, decoded from its digit row."""
    return [S.element(i) for i in range(len(S))]


def element_index(S: SemigroupTable) -> dict[PartialSeedHom, int]:
    """Element -> its index in the semigroup."""
    return {h: i for i, h in enumerate(elements(S))}


def is_seed_iso(hom: PartialSeedHom) -> bool:
    if hom.spec != EMPTY_SPEC:
        return False
    a, b = hom.source, hom.target
    values = [hom(x) for x in a.labels]
    if len(set(values)) != len(values) or set(values) != set(b.labels):
        return False
    if {hom(x) for x in a.exchangeable_labels} != set(b.exchangeable_labels):
        return False
    ok, _ = check_partial_hom(hom)
    return ok and all(
        abs(b.b(hom(x), hom(y))) == abs(a.b(x, y))
        for x in a.exchangeable_labels
        for y in a.labels
    )


def inverse_iso(iso: PartialSeedHom) -> PartialSeedHom:
    if not is_seed_iso(iso):
        raise HomError("not a seed isomorphism")
    inv = {iso(x): x for x in iso.source.labels}
    return PartialSeedHom.from_dict(iso.target, EMPTY_SPEC, iso.source, inv)


def image_seed(f: PartialSeedHom) -> Seed:
    """Restriction of the target to the image, exchangeable part f(dom_ex)."""
    return mixing_subseed(f.target, image_spec(f))


def factor_through_image(f: PartialSeedHom) -> tuple[PartialSeedHom, PartialSeedHom]:
    """Split f as inclusion after a surjection onto its image seed."""
    img_spec = image_spec(f)
    img = mixing_subseed(f.target, img_spec)
    f1 = PartialSeedHom(f.source, f.spec, img, f.mapping)
    inclusion = identity_inclusion(f.target, img_spec)
    return f1, inclusion


def is_retraction(f1: PartialSeedHom, onto: Seed | None = None) -> PartialSeedHom | None:
    """A right inverse g with f1 composed with g the identity, or None.

    f1 should be surjective onto its target (the image-seed factor);
    the search runs over all sections of the fibers.
    """
    img = f1.target if onto is None else onto
    fibers: dict[str, list[str]] = {y: [] for y in img.labels}
    for x in f1.domain:
        v = f1(x)
        if v in fibers:
            fibers[v].append(x)
    if any(not fibers[y] for y in img.labels):
        return None
    ident = identity_inclusion(img, EMPTY_SPEC)
    labels = list(img.labels)
    for choice in itertools.product(*(fibers[y] for y in labels)):
        g = PartialSeedHom.from_dict(
            img, EMPTY_SPEC, f1.source, dict(zip(labels, choice))
        )
        ok, _ = check_partial_hom(g)
        if not ok:
            continue
        composed = compose(f1, g)
        if composed.spec == ident.spec and composed.mapping == ident.mapping:
            return g
    return None


def d_by_closure(P: GreenPartition) -> tuple[int, ...]:
    """D as the transitive closure of L union R, by union-find; each
    class is represented by its least member."""
    L, R = P.L, P.R
    size = len(L)
    # D: transitive closure of L union R via union-find
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i in range(size):
        union(i, L[i])
        union(i, R[i])
    return tuple(find(i) for i in range(size))


def d_by_composition(S: SemigroupTable, P: GreenPartition, via: str = "LR") -> tuple[int, ...]:
    """D computed as the relational composition L∘R (or R∘L)."""
    size = len(S)
    first, second = (P.L, P.R) if via == "LR" else (P.R, P.L)
    by_first: dict[int, list[int]] = {}
    for i in range(size):
        by_first.setdefault(first[i], []).append(i)
    by_second: dict[int, list[int]] = {}
    for i in range(size):
        by_second.setdefault(second[i], []).append(i)
    rep_of_first_class: dict[int, int] = {}
    for fc, members in by_first.items():
        second_reps = {second[z] for z in members}
        rep_of_first_class[fc] = min(min(by_second[r]) for r in second_reps)
    return tuple(rep_of_first_class[first[x]] for x in range(size))


def idempotents(S: SemigroupTable) -> list[int]:
    return [i for i in range(len(S)) if S.product[i, i] == i]


def is_regular_element(S: SemigroupTable, i: int) -> int | None:
    """Witness index g with i∘g∘i = i, or None."""
    row = S.product[i, :]
    hits = np.nonzero(S.product[row, i] == i)[0]
    return int(hits[0]) if hits.size else None


def is_linear_an(seed: Seed) -> bool:
    """True iff the underlying graph of the quiver is a simple path
    through the whole extended cluster with all arrow weights 1."""
    total = seed.n + seed.m
    if total == 0:
        return False
    if total == 1:
        return True
    deg = [0] * total
    edges = set()
    for i in range(seed.n):
        for j in range(total):
            b = seed.matrix[i][j]
            if b != 0:
                if abs(b) != 1:
                    return False
                edges.add((min(i, j), max(i, j)))
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    if len(edges) != total - 1:
        return False
    if sorted(deg)[:2] != [1, 1] or max(deg) > 2:
        return False
    return len(connected_components(seed)) == 1


def subseed_components(seed: Seed, spec: SubSeedSpec) -> list[tuple[str, ...]]:
    """Connected components of the (I0, I1) sub-seed's quiver."""
    return connected_components(mixing_subseed(seed, spec))


def regularity_linear_an(f: PartialSeedHom) -> bool:
    """Regularity test special to path-shaped quivers.

    (a) whenever the images of two sub-seed components are linked by a
    nonzero entry, both images lie inside the image of one component;
    (b) no fiber of the map mixes the exchangeable part of the domain
    with the frozen part.
    """
    seed = f.source
    if not is_linear_an(seed):
        raise SeedError("source quiver is not a linear path with unit weights")
    comps = subseed_components(seed, f.spec)
    images = [frozenset(f(x) for x in c) for c in comps]
    img = image_seed(f)

    def linked(A, B) -> bool:
        # linkage in the image seed: a nonzero entry needs an exchangeable end
        return any(
            img.b_or_zero(s1, s2) != 0 or img.b_or_zero(s2, s1) != 0
            for s1 in A
            for s2 in B
        )

    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            if linked(images[i], images[j]):
                merged = images[i] | images[j]
                if not any(merged <= blk for blk in images):
                    return False
    dom_ex = set(f.dom_ex)
    fibers: dict[str, set[bool]] = {}
    for x in f.domain:
        fibers.setdefault(f(x), set()).add(x in dom_ex)
    if any(len(kinds) > 1 for kinds in fibers.values()):
        return False
    return True


def spec_universe_size(seed: Seed) -> int:
    return 3**seed.n * 2**seed.m


def spec_sort_key(seed: Seed, spec: SubSeedSpec):
    """Lexicographic key in the seed's label order, I0 before I1, the
    order in which iso_classes_of_subseeds reads the specs."""
    return (
        len(spec.I0),
        sorted(map(seed.index, spec.I0)),
        len(spec.I1),
        sorted(map(seed.index, spec.I1)),
    )


def endpar_bound_by_specs(seed: Seed) -> int:
    """projected_endpar_bound spec by spec: n targets per exchangeable
    label of the sub-seed and n+m per frozen one, summed over all specs."""
    total_vars = seed.n + seed.m
    bound = 0
    for spec in _all_specs(seed):
        ex, fr = spec.parts(seed)
        bound += (seed.n ** len(ex)) * (total_vars ** len(fr))
    return bound


def triangles_of(N: int, diagonals) -> list[tuple[int, int, int]]:
    """Faces of the triangulated N-gon as vertex triples u < v < w.

    For a maximal noncrossing diagonal family the 3-cliques of the
    side graph (boundary plus diagonals) are exactly the faces; the
    count is checked.
    """
    return list(_polygon_table(N, tuple(sorted(tuple(d) for d in diagonals)))[0])


def shear_contribution(N: int, diagonals, diag: tuple[int, int], curve) -> int:
    """Signed crossing of one curve with one diagonal's quadrilateral.

    With quadrilateral corners a, p, b, q in counterclockwise order,
    a curve leaving through sides (a,p) and (b,q) contributes -1, one
    leaving through (p,b) and (q,a) contributes +1, and a curve using
    two adjacent sides contributes 0.  The convention is pinned by the
    companion-curve row identity after a freeze cut.
    """
    if not curve_crosses(curve, curve[0], diag):
        return 0
    _, apexes, _ = _polygon_table(N, tuple(sorted(tuple(d) for d in diagonals)))
    return _crossing_sign(N, diag, apexes, curve)


def cut_set_comparison_by_seeds(base: Seed, cuts: frozenset[str], fields):
    """_cut_set_comparison with both sides built as Seeds: the sub-seed
    of base freezing cuts by mixing_subseed, and the seed of the cut
    surface with these fields (base itself when cuts is empty), compared
    column by column over their shared rows.  Returns whether the
    exchangeable label sets are equal, and the mismatch set."""
    left = mixing_subseed(base, SubSeedSpec(cuts, frozenset()))
    right = Seed(*_rows_of_fields(*fields)) if cuts else base
    right_rows = dict(zip(right.exchangeable_labels, right.matrix))
    rows = [
        (row, right_rows[x])
        for x, row in zip(left.exchangeable_labels, left.matrix)
        if x in right_rows
    ]
    disagree = frozenset()
    if rows:
        left_cols, right_cols = (list(zip(*side)) for side in zip(*rows))
        at = right._position
        disagree = frozenset(
            y for j, y in enumerate(left.labels) if y in at and left_cols[j] != right_cols[at[y]]
        )
    one_side = frozenset(left.frozen_labels).symmetric_difference(right.frozen_labels)
    return set(left.exchangeable_labels) == right_rows.keys(), one_side | disagree


def enumerate_triangulations(N: int) -> list[frozenset[tuple[int, int]]]:
    """All triangulations of the convex N-gon as diagonal sets."""

    def rec(vertices: tuple[int, ...]):
        if len(vertices) < 3:
            return [frozenset()]
        v0, vlast = vertices[0], vertices[-1]
        out = []
        for i in range(1, len(vertices) - 1):
            apex = vertices[i]
            for left in rec(vertices[: i + 1]):
                for right in rec(vertices[i:]):
                    diags = set(left) | set(right)
                    for u, v in ((v0, apex), (apex, vlast)):
                        u, v = min(u, v), max(u, v)
                        if v - u not in (1, N - 1):
                            diags.add((u, v))
                    out.append(frozenset(diags))
        return out

    return rec(tuple(range(N)))
