"""The finite semigroup of partial seed endomorphisms of a seed.

Elements are all partial seed homomorphisms from mixing-type sub-seeds
of a seed back into the seed, composed with the domain-filtered rule.
The empty homomorphism is the zero.  Green's equivalences are computed
from the ideal definitions with the adjoined-element convention, since
the semigroup has no identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapExceeded, SeedError, TheoremViolation
from .homs import (
    PartialSeedHom,
    SubSeedSpec,
    check_partial_hom,
    compose,
    enumerate_seed_isos,
    automorphism_group,
    identity_inclusion,
    image_seed,
    mixing_subseed,
)
from .seeds import Seed

__all__ = [
    "SemigroupTable",
    "GreenPartition",
    "enumerate_endpar",
    "projected_endpar_bound",
    "green_relations",
    "d_by_composition",
    "partition_classes",
    "idempotents",
    "is_regular_element",
    "is_id_form",
    "regular_D_classes",
    "HClassGroup",
    "h_class_group",
    "StructuralGreenReport",
    "check_structural_green",
    "is_linear_an",
    "subseed_components",
    "regularity_linear_an",
]

DEFAULT_CAP = 50_000


@dataclass
class SemigroupTable:
    seed: Seed
    elements: list[PartialSeedHom]
    index: dict[PartialSeedHom, int]
    # product[i, j] = index of elements[i] after elements[j]; int16 below 32,768 elements
    product: np.ndarray
    zero_index: int

    def __len__(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return int(self.product[i, j])


def _all_specs(seed: Seed):
    ex = seed.exchangeable_labels
    fr = seed.frozen_labels
    for r0 in range(len(ex) + 1):
        for I0 in itertools.combinations(ex, r0):
            rest = [x for x in ex if x not in I0]
            pool = rest + list(fr)
            for r1 in range(len(pool) + 1):
                for I1 in itertools.combinations(pool, r1):
                    yield SubSeedSpec(frozenset(I0), frozenset(I1))


def projected_endpar_bound(seed: Seed) -> int:
    """Upper bound: candidate maps summed over all specs."""
    n = seed.n
    total_vars = n + seed.m
    bound = 0
    for spec in _all_specs(seed):
        ne = sum(1 for x in seed.exchangeable_labels if x not in spec.I0 and x not in spec.I1)
        nf = len(spec.I0) + sum(1 for x in seed.frozen_labels if x not in spec.I1)
        bound += (n**ne) * (total_vars**nf)
    return bound


def enumerate_endpar(seed: Seed, cap: int = DEFAULT_CAP) -> SemigroupTable:
    """All partial seed endomorphisms of the seed, with product table.

    Exchangeable domain variables may only map to exchangeable targets,
    so candidate maps range over X for the exchangeable part and over
    the whole extended cluster for the frozen part; each candidate is
    validated.  Exceeding the element cap fails loudly.
    """
    labels = seed.labels
    ex_labels = seed.exchangeable_labels
    elements: list[PartialSeedHom] = []
    index: dict[PartialSeedHom, int] = {}
    for spec in _all_specs(seed):
        dom_ex = tuple(x for x in ex_labels if x not in spec.I0 and x not in spec.I1)
        dom_fr = tuple(x for x in ex_labels if x in spec.I0) + tuple(
            x for x in seed.frozen_labels if x not in spec.I1
        )
        pools = [ex_labels] * len(dom_ex) + [labels] * len(dom_fr)
        dom = dom_ex + dom_fr
        for values in itertools.product(*pools):
            cand = PartialSeedHom.from_dict(seed, spec, seed, dict(zip(dom, values)))
            ok, _ = check_partial_hom(cand)
            if not ok:
                continue
            if len(elements) >= cap:
                raise ResourceCapExceeded(
                    f"semigroup exceeds the cap of {cap} elements",
                    partial_count=len(elements),
                )
            index[cand] = len(elements)
            elements.append(cand)
    product, zero_index = _product_table(elements, labels)
    return SemigroupTable(seed, elements, index, product, zero_index)


# Cells per block of product-table columns; bounds the int64 temporaries.
_BLOCK_CELLS = 1 << 18


def _product_table(elements: list[PartialSeedHom], labels: tuple[str, ...]) -> tuple[np.ndarray, int]:
    """Product table of the elements, and the index of the empty hom.

    Each element is coded as one int64 whose digit p, in base
    2*width+2, is 2*(v+1)+f: v is the position of the image of labels[p]
    (-1 outside the domain) and f marks labels[p] as frozen in the
    domain.  The code of each composite is assembled one position at a
    time, over a block of columns, and looked up among the sorted codes.
    """
    size = len(elements)
    width = max(len(labels), 1)
    base = 2 * width + 2
    if base**width > 2**63:
        raise ResourceCapExceeded(
            f"{width} labels do not fit the 64-bit element code", partial_count=size
        )
    pos = {x: p for p, x in enumerate(labels)}
    V = np.full((size, width), -1, dtype=np.int64)
    F = np.zeros((size, width), dtype=np.int64)
    for i, h in enumerate(elements):
        fr_set = set(h.dom_fr)
        for p, x in enumerate(labels):
            v = h.mapping[p]
            if v is not None:
                V[i, p] = pos[v]
                F[i, p] = x in fr_set
    digits = 2 * (V + 1) + F  # 0 outside the domain
    weights = base ** np.arange(width, dtype=np.int64)
    codes = digits @ weights
    order = np.argsort(codes)
    sorted_codes = codes[order]
    if np.any(sorted_codes[1:] == sorted_codes[:-1]):
        raise TheoremViolation("two elements of the semigroup share a code")
    # Composing x after y: where y sends position p to q with frozen flag f,
    # the composite takes x's digit at q if x's flag there is also f, else
    # leaves p outside the domain.  hit[x, 2q+f] is that digit; the last
    # column serves positions outside y's domain.
    hit = np.zeros((size, 2 * width + 1), dtype=np.int64)
    for f in (0, 1):
        hit[:, f : 2 * width : 2] = np.where(F == f, digits, 0)
    weighted_hit = hit[None, :, :] * weights[:, None, None]
    col = np.where(V >= 0, 2 * V + F, 2 * width)
    product = np.empty((size, size), dtype=np.int16 if size < 32768 else np.int32)
    step = max(1, _BLOCK_CELLS // max(size, 1))
    for j0 in range(0, size, step):
        j1 = min(size, j0 + step)
        acc = np.zeros((size, j1 - j0), dtype=np.int64)
        for p in range(width):
            acc += weighted_hit[p][:, col[j0:j1, p]]
        at = np.searchsorted(sorted_codes, acc)
        np.minimum(at, size - 1, out=at)
        missing = sorted_codes[at] != acc
        if missing.any():
            j, i = np.argwhere(missing.T)[0]
            raise TheoremViolation(
                f"composition of elements {i} and {j0 + j} left the semigroup"
            )
        product[:, j0:j1] = order[at]
    zero = np.flatnonzero(codes == 0)
    if not zero.size:
        raise TheoremViolation("the empty homomorphism is missing from the semigroup")
    return product, int(zero[0])


@dataclass
class GreenPartition:
    """Class representative (least member index) per element, per relation."""

    L: tuple[int, ...]
    R: tuple[int, ...]
    H: tuple[int, ...]
    D: tuple[int, ...]
    J: tuple[int, ...]
    regular_flags: tuple[bool, ...]
    idempotent_flags: tuple[bool, ...]


def _reps_from_keys(keys) -> tuple[int, ...]:
    first: dict = {}
    out = []
    for i, k in enumerate(keys):
        out.append(first.setdefault(k, i))
    return tuple(out)


def _reps_from_rows(M: np.ndarray) -> tuple[int, ...]:
    """Least index of an equal row, per row of a boolean matrix."""
    _, first, inverse = np.unique(
        np.packbits(M, axis=1), axis=0, return_index=True, return_inverse=True
    )
    return tuple(first[inverse.reshape(-1)].tolist())


def green_relations(S: SemigroupTable) -> GreenPartition:
    """L, R and J compare the incidence rows of the principal ideals
    S¹x, xS¹ and S¹xS¹; H is the meet of L and R, D the join."""
    P = S.product
    size = len(S)
    elems = np.arange(size)
    Lm = np.zeros((size, size), dtype=bool)  # Lm[x] = S¹x
    Rm = np.zeros((size, size), dtype=bool)  # Rm[x] = xS¹
    Lm[elems[:, None], P.T] = True
    Rm[elems[:, None], P] = True
    Lm[elems, elems] = True
    Rm[elems, elems] = True
    L = _reps_from_rows(Lm)
    R = _reps_from_rows(Rm)
    H = _reps_from_keys(list(zip(L, R)))
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
    D = tuple(find(i) for i in range(size))
    # S¹xS¹ is the union of S¹y over y in xS¹; a float32 sum of 0/1 terms
    # is positive exactly when some term is, so the test needs no exact count
    J = _reps_from_rows(Rm.astype(np.float32) @ Lm.astype(np.float32) > 0)
    regular = tuple((P[P, elems[:, None]] == elems[:, None]).any(axis=1).tolist())
    idem = tuple((np.diagonal(P) == elems).tolist())
    return GreenPartition(L, R, H, D, J, regular, idem)


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


def partition_classes(reps) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, r in enumerate(reps):
        out.setdefault(r, []).append(i)
    return out


def idempotents(S: SemigroupTable) -> list[int]:
    return [i for i in range(len(S)) if S.product[i, i] == i]


def is_regular_element(S: SemigroupTable, i: int) -> int | None:
    """Witness index g with i∘g∘i = i, or None."""
    row = S.product[i, :]
    hits = np.nonzero(S.product[row, i] == i)[0]
    return int(hits[0]) if hits.size else None


def is_id_form(h: PartialSeedHom) -> bool:
    """True iff h is the identity inclusion of its own sub-seed."""
    return all(
        v is None or v == x for x, v in zip(h.source.labels, h.mapping)
    )


def regular_D_classes(S: SemigroupTable, P: GreenPartition) -> list[tuple[int, int]]:
    """(D-class representative, designated id-form member) per regular class.

    A class qualifies iff it contains an id-form element; this must
    agree with the elementwise regularity flags, which are constant on
    each D-class.
    """
    classes = partition_classes(P.D)
    out = []
    for rep, members in sorted(classes.items()):
        flags = {P.regular_flags[i] for i in members}
        if len(flags) != 1:
            raise TheoremViolation(
                f"regularity is not constant on the D-class of element {rep}"
            )
        id_members = [i for i in members if is_id_form(S.elements[i])]
        if bool(id_members) != flags.pop():
            raise TheoremViolation(
                f"D-class of element {rep}: id-form membership and regularity disagree"
            )
        if id_members:
            out.append((rep, min(id_members)))
    return out


@dataclass
class HClassGroup:
    members: tuple[int, ...]
    identity: int
    table: dict[tuple[int, int], int]
    aut_order: int


def h_class_group(S: SemigroupTable, P: GreenPartition, e: int) -> HClassGroup:
    """The H-class of an id-form idempotent as a group, checked against
    the automorphism group of the corresponding sub-seed."""
    h = S.elements[e]
    if S.product[e, e] != e or not is_id_form(h):
        raise SeedError("h_class_group expects an id-form idempotent")
    members = tuple(i for i in range(len(S)) if P.H[i] == P.H[e])
    member_set = set(members)
    table = {}
    for a in members:
        for b in members:
            c = int(S.product[a, b])
            if c not in member_set:
                raise TheoremViolation(f"H-class of {e} is not closed: {a}*{b}={c}")
            table[(a, b)] = c
    for a in members:
        if table[(a, e)] != a or table[(e, a)] != a:
            raise TheoremViolation(f"{e} is not an identity of its H-class")
        if not any(table[(a, b)] == e and table[(b, a)] == e for b in members):
            raise TheoremViolation(f"element {a} has no inverse in the H-class of {e}")
    sub = mixing_subseed(S.seed, h.spec)
    auts = automorphism_group(sub)
    images = {}
    for phi in auts:
        lifted = PartialSeedHom.from_dict(
            S.seed, h.spec, S.seed, {x: phi(x) for x in sub.labels}
        )
        i = S.index.get(lifted)
        if i is None or i not in member_set:
            raise TheoremViolation(
                "an automorphism of the sub-seed does not land in the H-class"
            )
        images[phi.mapping] = i
    if len(images) != len(auts) or set(images.values()) != member_set:
        raise TheoremViolation(
            f"Aut <-> H-class correspondence is not bijective at element {e}"
        )
    for phi in auts:
        for psi in auts:
            comp_key = tuple(phi(psi(x)) for x in sub.labels)
            lhs = images[comp_key]
            rhs = S.product[images[phi.mapping], images[psi.mapping]]
            if lhs != rhs:
                raise TheoremViolation(
                    f"Aut -> H-class map is not multiplicative at element {e}"
                )
    return HClassGroup(members, e, table, len(auts))


@dataclass
class StructuralGreenReport:
    regular_count: int
    checked_pairs: int
    ok: bool


def _maps_match_under_iso(fx: PartialSeedHom, fy: PartialSeedHom, img_x: Seed, img_y: Seed) -> bool:
    for g in enumerate_seed_isos(img_x, img_y):
        if all(
            (a is None and b is None) or (a is not None and b is not None and g(a) == b)
            for a, b in zip(fx.mapping, fy.mapping)
        ):
            return True
    return False


def check_structural_green(S: SemigroupTable, P: GreenPartition) -> StructuralGreenReport:
    """Compare the structural predicates for R/L/H/D on regular pairs
    against the brute-force partitions; any disagreement is fatal.

    Predicates: R iff equal image seeds; L iff equal source sub-seeds
    and the maps differ by an isomorphism of image seeds; H iff both;
    D iff image seeds isomorphic.
    """
    regular = [i for i in range(len(S)) if P.regular_flags[i]]
    imgs = {i: image_seed(S.elements[i]) for i in regular}
    # iso-class representative of each distinct image seed
    distinct: list[Seed] = []
    iso_rep: dict[Seed, int] = {}
    for i in regular:
        s = imgs[i]
        if s in iso_rep:
            continue
        for k, t in enumerate(distinct):
            if next(enumerate_seed_isos(s, t), None) is not None:
                iso_rep[s] = k
                break
        else:
            iso_rep[s] = len(distinct)
            distinct.append(s)
    checked = 0
    for ai in range(len(regular)):
        x = regular[ai]
        for y in regular[ai + 1 :]:
            checked += 1
            r_pred = imgs[x] == imgs[y]
            if r_pred != (P.R[x] == P.R[y]):
                raise TheoremViolation(
                    f"R-characterization fails on regular pair ({x},{y})"
                )
            d_pred = iso_rep[imgs[x]] == iso_rep[imgs[y]]
            if d_pred != (P.D[x] == P.D[y]):
                raise TheoremViolation(
                    f"D-characterization fails on regular pair ({x},{y})"
                )
            fx, fy = S.elements[x], S.elements[y]
            if fx.spec == fy.spec and d_pred:
                l_pred = _maps_match_under_iso(fx, fy, imgs[x], imgs[y])
            else:
                l_pred = False
            if l_pred != (P.L[x] == P.L[y]):
                raise TheoremViolation(
                    f"L-characterization fails on regular pair ({x},{y})"
                )
            if (r_pred and l_pred) != (P.H[x] == P.H[y]):
                raise TheoremViolation(
                    f"H-characterization fails on regular pair ({x},{y})"
                )
    return StructuralGreenReport(len(regular), checked, True)


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
            b = seed.matrix.entries[i][j]
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
    # connectivity of a graph with total-1 edges and path degrees
    seen = {0}
    stack = [0]
    adj: dict[int, list[int]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == total


def subseed_components(seed: Seed, spec: SubSeedSpec) -> list[tuple[str, ...]]:
    """Connected components of the (I0, I1) sub-seed's quiver."""
    sub = mixing_subseed(seed, spec)
    labels = sub.labels
    if not labels:
        return []
    comp: dict[str, int] = {}
    comps: list[list[str]] = []
    for x in labels:
        if x in comp:
            continue
        cid = len(comps)
        comps.append([])
        stack = [x]
        comp[x] = cid
        while stack:
            u = stack.pop()
            comps[cid].append(u)
            for v in labels:
                if v in comp:
                    continue
                if sub.b_or_zero(u, v) != 0 or sub.b_or_zero(v, u) != 0:
                    comp[v] = cid
                    stack.append(v)
    return [tuple(sorted(c, key=labels.index)) for c in comps]


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
