"""The finite semigroup of partial seed endomorphisms of a seed.

Elements are all partial seed homomorphisms from mixing-type sub-seeds
of a seed back into the seed, composed with the domain-filtered rule.
The empty homomorphism is the zero.  Green's equivalences are computed
from the ideal definitions with the adjoined-element convention, since
the semigroup has no identity.  A SemigroupTable keeps its elements as
digit rows and answers id_form and index_of itself, so no caller
encodes a row.

numpy is imported inside the functions that build or read a table, so
the commands that never build one (clusters, check-sur and the rest) do
not pay the 0.11 s and about 12 MB its import costs.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import ResourceCapExceeded, SeedError, TheoremViolation
from .homs import (
    PartialSeedHom,
    SubSeedSpec,
    check_partial_hom,
    enumerate_seed_isos,
    automorphism_group,
    image_spec,
    mixing_subseed,
)
from .seeds import Seed, cached_attribute

__all__ = [
    "SemigroupTable",
    "GreenPartition",
    "enumerate_endpar",
    "projected_endpar_bound",
    "green_relations",
    "partition_classes",
    "regular_D_classes",
    "HClassGroup",
    "h_class_group",
    "StructuralGreenReport",
    "check_structural_green",
]

# The most elements a semigroup may keep: the largest index an int16
# product table holds.  It is the default cap and bounds every cap.
MAX_ELEMENTS = 32_767


@dataclass
class SemigroupTable:
    """The elements as digit rows, the only form stored: digits[i, p] is
    2*(v+1)+f when element i sends labels[p] to labels[v], where f marks
    labels[p] as frozen in the domain, and 0 when labels[p] lies outside
    the domain.  Objects are decoded on demand by element(i)."""

    seed: Seed
    digits: np.ndarray
    # product[i, j] = index of element i after element j, as int16
    product: np.ndarray
    zero_index: int

    def __len__(self) -> int:
        return len(self.digits)

    @cached_attribute
    def _label_of_digit(self) -> tuple[str | None, ...]:
        """Digit -> image label: None for 0, labels[v] for 2*(v+1)+f."""
        return (None, None) + tuple(x for x in self.seed.labels for _ in (0, 1))

    def decode(self, row: list[int]) -> tuple[tuple[str, ...], tuple[str, ...], tuple]:
        """I0, I1 (each in label order) and the image of each label (None
        outside the domain) of the element with this digit row: I0 is the
        exchangeable labels with an odd digit, I1 the labels with digit 0."""
        seed = self.seed
        I0 = tuple(itertools.compress(seed.exchangeable_labels, map((1).__and__, row)))
        I1 = tuple(itertools.compress(seed.labels, map(operator.not_, row)))
        return I0, I1, tuple(map(self._label_of_digit.__getitem__, row))

    def element(self, i: int) -> PartialSeedHom:
        """Element i as a PartialSeedHom, decoded from its digit row."""
        I0, I1, mapping = self.decode(self.digits[i].tolist())
        spec = SubSeedSpec(frozenset(I0), frozenset(I1))
        return PartialSeedHom(self.seed, spec, self.seed, mapping)

    @cached_attribute
    def id_form(self) -> np.ndarray:
        """Per element: whether it is the identity inclusion of its own
        sub-seed, that is, every digit is 0 or sends its position p to p."""
        import numpy as np

        digits = self.digits
        return ((digits == 0) | (digits // 2 - 1 == np.arange(digits.shape[1]))).all(axis=1)

    @cached_attribute
    def _index_of_row(self) -> dict[tuple[int, ...], int]:
        """Digit row -> element index; rows are unique (see _product_table)."""
        return {row: i for i, row in enumerate(map(tuple, self.digits.tolist()))}

    def index_of(self, spec: SubSeedSpec, image=None) -> int | None:
        """The index of the element with the given spec that sends each
        label x of its domain to image(x), or to x itself when image is
        None; None when no element does."""
        seed, I0, I1 = self.seed, spec.I0, spec.I1
        to = (lambda x: x) if image is None else image
        row = tuple(
            0 if x in I1 else 2 * seed.index(to(x)) + 2 + (p >= seed.n or x in I0)
            for p, x in enumerate(seed.labels)
        )
        return self._index_of_row.get(row)


def _all_specs(seed: Seed):
    """Every spec, ordered by (|I0|, I0, |I1|, I1) in the seed's label order."""
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
    """The candidate maps enumerate_endpar tries, summed over all specs.
    Each exchangeable label is frozen (n+m targets), deleted (one way) or
    kept (n targets); each frozen label is kept (n+m targets) or deleted."""
    n, m = seed.n, seed.m
    return (2 * n + m + 1) ** n * (n + m + 1) ** m


def enumerate_endpar(seed: Seed, cap: int = MAX_ELEMENTS) -> SemigroupTable:
    """All partial seed endomorphisms of the seed, with product table.

    Exchangeable domain variables may only map to exchangeable targets,
    so candidate maps range over X for the exchangeable part and over
    the whole extended cluster for the frozen part; each candidate is
    validated.  Keeping more than min(cap, MAX_ELEMENTS) elements fails
    loudly, at the first element over, so the product table always has
    int16 indices.

    Each accepted element is kept only as its row of digits (see
    SemigroupTable).  Read in base 2*width+2, a row is the element's
    int64 code in the product table.
    """
    import numpy as np

    labels = seed.labels
    ex_labels = seed.exchangeable_labels
    width = len(labels)
    if (2 * width + 2) ** width > 2**63:
        raise ResourceCapExceeded(
            f"{width} labels do not fit the 64-bit element code", partial_count=0
        )
    limit = min(cap, MAX_ELEMENTS)
    digits: list[list[int]] = []
    for spec in _all_specs(seed):
        dom_ex, dom_fr = spec.parts(seed)
        pools = [ex_labels] * len(dom_ex) + [labels] * len(dom_fr)
        dom = dom_ex + dom_fr
        places = [(seed.index(x), 2 + (x in dom_fr)) for x in dom]  # (p, 2 + f)
        # the mapping by label position: None on I1, the values on dom
        mapping = [None] * len(labels)
        for values in itertools.product(*pools):
            for (p, _), v in zip(places, values):
                mapping[p] = v
            cand = PartialSeedHom(seed, spec, seed, tuple(mapping))
            ok, _ = check_partial_hom(cand)
            if not ok:
                continue
            if len(digits) >= limit:
                what = "cap" if limit == cap else "int16 table limit"
                raise ResourceCapExceeded(
                    f"semigroup exceeds the {what} of {limit} elements",
                    partial_count=len(digits),
                )
            row = [0] * width
            for (p, d), v in zip(places, values):
                row[p] = 2 * seed.index(v) + d
            digits.append(row)
    rows = np.array(digits, dtype=np.int64)
    product, zero_index = _product_table(rows)
    return SemigroupTable(seed, rows, product, zero_index)


# Cells per block of rows or columns of a size² table; bounds the
# temporaries of _product_table and green_relations.
_BLOCK_CELLS = 1 << 18


def _block_rows(size: int) -> int:
    """Rows or columns per block of a size² table."""
    return max(1, _BLOCK_CELLS // max(size, 1))


def _blocks(size: int):
    """(start, stop) of each block of rows or columns of a size² table."""
    step = _block_rows(size)
    for start in range(0, size, step):
        yield start, min(size, start + step)


def _product_table(digits: np.ndarray) -> tuple[np.ndarray, int]:
    """Product table of the elements, given their digit rows as written
    by enumerate_endpar, and the index of the empty hom.  The code of
    each composite is assembled one position at a time, over a block of
    columns, in the narrowest signed integer type that holds every code
    (int16 up to 4 labels, int32 up to 7, int64 beyond), and looked up
    in a dense table indexed by code (-1 where no element has the code),
    or among the sorted codes when that table would have more entries
    than the product table.  enumerate_endpar keeps at most MAX_ELEMENTS
    rows, so the table, the dense lookup and the sort order are int16.
    """
    import numpy as np

    size, width = digits.shape
    base = 2 * width + 2
    V = digits // 2 - 1  # image position, -1 outside the domain
    F = digits % 2  # frozen in the domain
    weights = base ** np.arange(width, dtype=np.int64)
    codes = digits @ weights
    product = np.empty((size, size), dtype=np.int16)
    if base**width > size * size:
        order = np.argsort(codes).astype(np.int16)
        sorted_codes = codes[order]
        shared = np.any(sorted_codes[1:] == sorted_codes[:-1])

        def lookup(acc, out):
            at = np.searchsorted(sorted_codes, acc)
            np.minimum(at, size - 1, out=at)
            out[...] = np.where(sorted_codes[at] == acc, order[at], -1)
            return out

    else:
        lut = np.full(base**width, -1, dtype=np.int16)
        elems = np.arange(size, dtype=np.int16)
        lut[codes] = elems
        shared = not np.array_equal(lut[codes], elems)  # a later write won

        def lookup(acc, out):
            return np.take(lut, acc, out=out, mode="clip")  # every code < base**width

    if shared:
        raise TheoremViolation("two elements of the semigroup share a code")
    zero = np.flatnonzero(codes == 0)
    if not zero.size:
        raise TheoremViolation("the empty homomorphism is missing from the semigroup")
    code_type = next(t for t in (np.int16, np.int32, np.int64) if base**width <= np.iinfo(t).max)
    # Composing x after y: where y sends position p to q with frozen flag f,
    # the composite takes x's digit at q if x's flag there is also f, else
    # leaves p outside the domain.  hit[2q+f, x] is that digit; the last
    # row serves positions outside y's domain.  Each gather below copies
    # whole rows of weighted_hit[p] = base**p * hit, one per column y.
    hit = np.zeros((2 * width + 1, size), dtype=code_type)
    for f in (0, 1):
        hit[f : 2 * width : 2] = np.where(F == f, digits, 0).T
    weighted_hit = np.multiply.outer(weights.astype(code_type), hit)
    # the row of hit per position p and column y; it lies in [0, 2*width],
    # so mode="clip" never clips, and spares the copy of out that
    # mode="raise" makes on every gather
    col = np.where(V >= 0, 2 * V + F, 2 * width).T.astype(np.intp)
    acc = np.empty((min(size, _block_rows(size)), size), dtype=code_type)
    gathered = np.empty_like(acc)
    found = np.empty_like(acc, dtype=np.int16)
    for j0, j1 in _blocks(size):
        # acc[j, x] is the code of x after y = j0 + j
        a, g = acc[: j1 - j0], gathered[: j1 - j0]
        a.fill(0)
        for p in range(width):
            a += np.take(weighted_hit[p], col[p, j0:j1], axis=0, out=g, mode="clip")
        block = lookup(a, found[: j1 - j0])
        if block.min(initial=0) < 0:
            j, i = np.argwhere(block < 0)[0]
            raise TheoremViolation(
                f"composition of elements {i} and {j0 + j} left the semigroup"
            )
        product[:, j0:j1] = block.T
    return product, int(zero[0])


@dataclass
class GreenPartition:
    """Class representative (least member index) per element, per relation;
    J = D, since the semigroup is finite."""

    L: tuple[int, ...]
    R: tuple[int, ...]
    H: tuple[int, ...]
    D: tuple[int, ...]
    regular_flags: tuple[bool, ...]
    idempotent_flags: tuple[bool, ...]


def _reps_from_keys(keys) -> tuple[int, ...]:
    first: dict = {}
    out = []
    for i, k in enumerate(keys):
        out.append(first.setdefault(k, i))
    return tuple(out)


def _ideal_keys(P: np.ndarray, left: bool) -> list[bytes]:
    """One key per element x: the packed incidence row of S¹x (left) or
    xS¹, built over blocks of rows so no temporary exceeds _BLOCK_CELLS."""
    import numpy as np

    size = len(P)
    keys: list[bytes] = []
    for x0, x1 in _blocks(size):
        # flat indices into the block's rows: x's products, then x itself
        at = (P[:, x0:x1].T if left else P[x0:x1]).astype(np.intp)
        at += np.arange(0, (x1 - x0) * size, size)[:, None]
        M = np.zeros((x1 - x0) * size, dtype=bool)
        M[at] = True
        M[np.arange(x1 - x0) * (size + 1) + x0] = True
        keys.extend(row.tobytes() for row in np.packbits(M.reshape(x1 - x0, size), axis=1))
    return keys


def _least_in_class(classes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per element x: the least values[z] over z in the class of x, where
    classes[z] is the representative (least member) of z's class."""
    import numpy as np

    least = np.full(len(classes), len(classes))
    np.minimum.at(least, classes, values)
    return least[classes]


def green_relations(S: SemigroupTable) -> GreenPartition:
    """L and R compare the incidence rows of the principal ideals S¹x
    and xS¹, the only size² step; H is their meet.  The rest is read off
    L, R and the diagonal (Howie, Fundamentals of Semigroup Theory, 1995):
    D = L∘R = R∘L (§2.1), and x is regular iff its R-class, or equally
    its L-class, holds an idempotent (§2.3).  Each is read both ways and
    the two readings must agree."""
    import numpy as np

    P = S.product
    size = len(S)
    L = _reps_from_keys(_ideal_keys(P, left=True))
    R = _reps_from_keys(_ideal_keys(P, left=False))
    H = _reps_from_keys(list(zip(L, R)))
    Ls, Rs = np.array(L), np.array(R)
    D = _least_in_class(Ls, Rs)  # the least member of the union of R_z, z in L_x
    D_RL = _least_in_class(Rs, Ls)
    if not np.array_equal(D, D_RL):
        x = np.flatnonzero(D != D_RL)[0]
        raise TheoremViolation(f"L∘R and R∘L differ at element {x}")
    idem = np.diagonal(P) == np.arange(size)
    # a class holds an idempotent iff the least of ~idem over it is 0;
    # e R x gives x = e·x and e = x·t, so x = x·t·x (dually for L)
    regular = _least_in_class(Rs, ~idem) == 0
    regular_L = _least_in_class(Ls, ~idem) == 0
    if not np.array_equal(regular, regular_L):
        x = np.flatnonzero(regular != regular_L)[0]
        raise TheoremViolation(
            f"regularity differs between the R-class and the L-class of element {x}"
        )
    return GreenPartition(
        L, R, H, tuple(D.tolist()), tuple(regular.tolist()), tuple(idem.tolist())
    )


def partition_classes(reps) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, r in enumerate(reps):
        out.setdefault(r, []).append(i)
    return out


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
        id_members = [i for i in members if S.id_form[i]]
        if bool(id_members) != flags.pop():
            raise TheoremViolation(
                f"D-class of element {rep}: id-form membership and regularity disagree"
            )
        if id_members:
            out.append((rep, min(id_members)))
    return out


@dataclass
class HClassGroup:
    """An H-class group: its members, the lifts of the automorphisms, sorted."""

    members: tuple[int, ...]
    aut_order: int


def h_class_group(S: SemigroupTable, P: GreenPartition, e: int) -> HClassGroup:
    """The H-class of an id-form idempotent e as a group, checked only
    through the automorphisms of e's sub-seed.  Each φ lifts to the element
    with e's spec that maps as φ does.  The lifts must lie in e's H-class,
    be distinct and as many as its members, and satisfy
    lift(φ)·lift(ψ) = lift(φ∘ψ).  The identity lifts to e and the pairs
    read every cell of the class's sub-table (|Aut|² cells, no others), so
    this makes the class a group with identity e, as Green's theorem says
    (Howie, Fundamentals of Semigroup Theory, 1995, §2.2)."""
    if not S.id_form[e]:
        raise SeedError("h_class_group expects an id-form idempotent")
    spec = S.element(e).spec
    auts = automorphism_group(mixing_subseed(S.seed, spec))
    images = {}
    for phi in auts:
        i = S.index_of(spec, phi)
        if i is None or P.H[i] != P.H[e]:
            raise TheoremViolation(
                "an automorphism of the sub-seed does not land in the H-class"
            )
        images[phi.mapping] = i
    if len(set(images.values())) != len(auts) or len(auts) != P.H.count(P.H[e]):
        raise TheoremViolation(
            f"Aut <-> H-class correspondence is not bijective at element {e}"
        )
    for phi in auts:
        row = S.product[images[phi.mapping]]
        for psi in auts:
            if row[images[psi.mapping]] != images[tuple(map(phi, psi.mapping))]:
                raise TheoremViolation(
                    f"Aut -> H-class map is not multiplicative at element {e}"
                )
    return HClassGroup(tuple(sorted(images.values())), len(auts))


@dataclass
class StructuralGreenReport:
    regular_count: int
    # the regular pairs on which the predicates were shown to agree with the partitions
    checked_pairs: int
    ok: bool


def check_structural_green(S: SemigroupTable, P: GreenPartition) -> StructuralGreenReport:
    """Compare the structural predicates for R/D/L/H on regular elements
    against the brute-force partitions; any disagreement is fatal.

    Predicates: R iff equal image seeds, keyed by their specs; D iff
    image seeds isomorphic; L iff equal source sub-seeds and the maps
    differ by an isomorphism of image seeds; H iff both R and L.  Each
    predicate is equality of a key, so it holds on every regular pair
    exactly when the partition of the regular elements by that key is
    Green's partition.
    """
    regular = [i for i in range(len(S)) if P.regular_flags[i]]
    distinct: list[Seed] = []  # one image seed per iso class
    # image spec -> (iso class, every iso of its image seed onto the class
    # representative); a spec and its image seed determine each other
    to_rep: dict[SubSeedSpec, tuple[int, list[dict[str, str]]]] = {}
    R_keys, D_keys, L_keys = [], [], []
    for i in regular:
        f = S.element(i)
        img_spec = image_spec(f)
        if img_spec not in to_rep:
            img = mixing_subseed(S.seed, img_spec)
            for k, rep in enumerate(distinct):
                isos = list(enumerate_seed_isos(img, rep))
                if isos:
                    break
            else:
                k, isos = len(distinct), list(enumerate_seed_isos(img, img))
                distinct.append(img)
            to_rep[img_spec] = (k, [g.map_dict() for g in isos])
        k, isos = to_rep[img_spec]
        # Two maps with one spec differ by an iso of image seeds iff they
        # carry the same set of composites onto the representative; the
        # composites also fix the representative, through the exchangeable
        # and frozen labels they take on the spec's domain.
        orbit = frozenset(tuple(g.get(a) for a in f.mapping) for g in isos)
        R_keys.append(img_spec)
        D_keys.append(k)
        L_keys.append((f.spec, orbit))
    H_keys = list(zip(R_keys, L_keys))
    for name, keys, part in (
        ("R", R_keys, P.R),
        ("D", D_keys, P.D),
        ("L", L_keys, P.L),
        ("H", H_keys, P.H),
    ):
        by_key = _reps_from_keys(keys)
        by_part = _reps_from_keys(part[i] for i in regular)
        if by_key != by_part:
            # first element whose class differs, and a class-mate under
            # one relation that is not a class-mate under the other
            j = next(j for j, (a, b) in enumerate(zip(by_key, by_part)) if a != b)
            m = min(by_key[j], by_part[j])
            raise TheoremViolation(
                f"{name}-characterization fails on regular pair ({regular[m]},{regular[j]})"
            )
    r = len(regular)
    return StructuralGreenReport(r, r * (r - 1) // 2, True)
