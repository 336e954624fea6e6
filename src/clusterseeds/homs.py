"""Mixing-type sub-seeds, (partial) seed homomorphisms, and isomorphisms.

A sub-seed specification (I0, I1) freezes the exchangeable variables in
I0 and deletes the variables in I1.  A partial seed homomorphism is a
seed homomorphism defined on such a sub-seed of its source; the empty
homomorphism has I1 equal to the whole extended cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HomError, SpecError
from .seeds import Seed

__all__ = [
    "SubSeedSpec",
    "PartialSeedHom",
    "mixing_subseed",
    "check_partial_hom",
    "require_hom",
    "compose",
    "find_seed_iso",
    "enumerate_seed_isos",
    "automorphism_group",
]


@dataclass(frozen=True)
class SubSeedSpec:
    """A pair (I0, I1): I0 exchangeable labels to freeze, I1 labels to delete."""

    I0: frozenset[str]
    I1: frozenset[str]

    def validate(self, seed: Seed) -> None:
        exchangeable, labels = seed._label_sets
        bad = self.I0 - exchangeable
        if bad:
            raise SpecError(f"I0 labels not exchangeable in the seed: {sorted(bad)}")
        bad = self.I1 - labels
        if bad:
            raise SpecError(f"I1 labels not in the extended cluster: {sorted(bad)}")
        both = self.I0 & self.I1
        if both:
            raise SpecError(f"I0 and I1 overlap: {sorted(both)}")

    def parts(self, seed: Seed) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Exchangeable and frozen labels of the sub-seed: X minus
        (I0 union I1), then I0 followed by X_fr minus I1."""
        ex = tuple(x for x in seed.exchangeable_labels if x not in self.I0 and x not in self.I1)
        fr = tuple(x for x in seed.exchangeable_labels if x in self.I0) + tuple(
            x for x in seed.frozen_labels if x not in self.I1
        )
        return ex, fr


EMPTY_SPEC = SubSeedSpec(frozenset(), frozenset())


def mixing_subseed(seed: Seed, spec: SubSeedSpec) -> Seed:
    """The (I0, I1)-type sub-seed of the given seed.

    Exchangeable variables X minus (I0 union I1), frozen variables
    (X_fr union I0) minus I1, matrix the entrywise restriction.  The
    frozen order lists newly frozen I0 variables first.
    """
    spec.validate(seed)
    ex, fr = spec.parts(seed)
    cols = [seed.index(y) for y in ex + fr]
    rows = seed.matrix
    return Seed(ex, fr, tuple(tuple(map(rows[i].__getitem__, cols)) for i in cols[: len(ex)]))


@dataclass(frozen=True)
class PartialSeedHom:
    """A variable map defined on the (I0, I1) sub-seed of the source.

    mapping[i] is the target label of source.labels[i], or None when
    source.labels[i] lies in I1 (outside the domain).
    """

    source: Seed
    spec: SubSeedSpec
    target: Seed
    mapping: tuple[str | None, ...]

    @staticmethod
    def from_dict(source: Seed, spec: SubSeedSpec, target: Seed, map_dict) -> "PartialSeedHom":
        """The map as given, an I1 label's entry included, so that
        check_partial_hom can reject it; labels without an entry map to None."""
        mapping = tuple(map(map_dict.get, source.labels))
        return PartialSeedHom(source, spec, target, mapping)

    def __call__(self, label: str) -> str:
        v = self.mapping[self.source.index(label)]
        if v is None:
            raise HomError(f"{label!r} is outside the domain")
        return v

    def map_dict(self) -> dict[str, str]:
        return {
            x: v for x, v in zip(self.source.labels, self.mapping) if v is not None
        }

    @property
    def dom_ex(self) -> tuple[str, ...]:
        """Exchangeable part of the domain: X minus (I0 union I1)."""
        return self.spec.parts(self.source)[0]

    @property
    def dom_fr(self) -> tuple[str, ...]:
        """Frozen part of the domain: (X_fr union I0) minus I1."""
        return self.spec.parts(self.source)[1]


def hom_layout(source: Seed, spec: SubSeedSpec) -> tuple:
    """The part of the validity check that depends only on the source
    and the spec, so that a caller checking many maps of one spec builds
    it once and passes it to check_partial_hom with each.

    A tuple (source, spec, error, deleted, rows, entries, adjacent).
    source and spec are the arguments, which check_partial_hom matches
    against the candidate's.  error is the SpecError message of an
    invalid spec (and the parts after it are empty), else None.
    deleted[p] says labels[p] lies in I1.  rows are the positions of the
    exchangeable domain variables, the rows of the sub-seed.  entries[r]
    lists the nonzero entries of row rows[r] as (column position, b_xy,
    |b_xy|), in the sub-seed's column order (its exchangeable labels,
    then I0 and the kept frozen labels), so the first violation found is
    the sub-seed's; a zero b_xy can break no condition.  adjacent lists
    the pairs (r, s), r < s, of rows with b_xz nonzero, in the order of
    itertools.combinations.
    """
    try:
        spec.validate(source)
    except SpecError as exc:
        return source, spec, str(exc), (), (), (), ()
    I0, I1 = spec.I0, spec.I1
    labels, b = source.labels, source.matrix
    rows, frozen = [], []
    for p, x in enumerate(labels):
        if x not in I1:
            (rows if p < len(b) and x not in I0 else frozen).append(p)
    cols = rows + frozen
    entries, adjacent = [], []
    for r, i in enumerate(rows):
        b_row = b[i]
        entries.append(tuple([(j, b_row[j], abs(b_row[j])) for j in cols if b_row[j]]))
        for s in range(r + 1, len(rows)):
            if b_row[rows[s]]:
                adjacent.append((r, s))
    deleted = tuple(map(I1.__contains__, labels))
    return source, spec, None, deleted, tuple(rows), tuple(entries), tuple(adjacent)


def check_partial_hom(
    candidate: PartialSeedHom, layout: tuple | None = None
) -> tuple[bool, str | None]:
    """Validate the homomorphism conditions; returns (ok, first violation).

    Condition (a): exchangeable domain variables map to exchangeable
    target variables.  Condition (b): over all adjacent pairs (x, y),
    (z, w) of the sub-seed (x = z or b_xz nonzero), the products
    b'_{f(x)f(y)} b_{xy} never take opposite signs, and magnitudes never
    shrink.  Per row the condition collapses to a single sign.  The
    sub-seed's matrix is the source matrix restricted to the domain, so
    its entries are read off the source, through a hom_layout of the
    candidate's source and spec: the caller's, or one built here.  A
    layout built for another source or spec raises ValueError.  A
    mapping without exactly one entry per source label is rejected.
    """
    src, tgt, mapping = candidate.source, candidate.target, candidate.mapping
    if layout is None:
        layout = hom_layout(src, candidate.spec)
    elif layout[0] is not src or layout[1] is not candidate.spec:
        if layout[0] != src or layout[1] != candidate.spec:
            raise ValueError("the layout was built for another source or spec")
    _, _, error, deleted, rows, entries, adjacent = layout
    if error is not None:
        return False, error
    if len(mapping) != len(deleted):
        return False, f"the mapping has {len(mapping)} entries for {len(deleted)} labels"
    labels, tgt_pos = src.labels, tgt._position
    # target position of each source position's image, -1 outside the domain
    image = []
    for x, out, v in zip(labels, deleted, mapping):
        if out:
            if v is not None:
                return False, f"{x!r} lies in I1 but is mapped"
            image.append(-1)
        elif v is None:
            return False, f"{x!r} lies in the domain but is unmapped"
        elif v not in tgt_pos:
            return False, f"{x!r} maps to unknown target label {v!r}"
        else:
            image.append(tgt_pos[v])
    tgt_b = tgt.matrix  # its n rows
    for i in rows:
        if image[i] >= len(tgt_b):
            return False, (
                f"condition (a): exchangeable {labels[i]!r} maps to frozen {mapping[i]!r}"
            )
    # per-row sign of b'_{f(x)f(y)} * b_{xy}, and the magnitude condition
    row_sign = []
    for i, row in zip(rows, entries):
        t_row = tgt_b[image[i]]
        sign = 0
        for j, bxy, size in row:
            bpq = t_row[image[j]]
            if abs(bpq) < size:
                return False, (
                    f"magnitude: |b'_({mapping[i]},{mapping[j]})|={abs(bpq)} "
                    f"< |b_({labels[i]},{labels[j]})|={size}"
                )
            s = bpq * bxy
            if s > 0:
                if sign < 0:
                    return False, f"sign coherence fails within row {labels[i]!r}"
                sign = 1
            elif s < 0:
                if sign > 0:
                    return False, f"sign coherence fails within row {labels[i]!r}"
                sign = -1
        row_sign.append(sign)
    for r, s in adjacent:
        if row_sign[r] * row_sign[s] < 0:
            return False, (
                "sign coherence fails across adjacent rows "
                f"{labels[rows[r]]!r}, {labels[rows[s]]!r}"
            )
    return True, None


def require_hom(candidate: PartialSeedHom) -> PartialSeedHom:
    ok, why = check_partial_hom(candidate)
    if not ok:
        raise HomError(why)
    return candidate


def compose(g: PartialSeedHom, f: PartialSeedHom) -> PartialSeedHom:
    """g after f, with the domain-filtered composition rule.

    x survives in the exchangeable part iff x is exchangeable for f and
    f(x) is exchangeable for g, and similarly for the frozen part.  An
    empty surviving domain gives the empty homomorphism.
    """
    if f.target != g.source:
        raise HomError("target of the inner map differs from source of the outer map")
    g_ex = set(g.dom_ex)
    g_fr = set(g.dom_fr)
    new_ex = [x for x in f.dom_ex if f(x) in g_ex]
    new_fr = [x for x in f.dom_fr if f(x) in g_fr]
    dom = set(new_ex) | set(new_fr)
    I1 = frozenset(x for x in f.source.labels if x not in dom)
    I0 = frozenset(x for x in new_fr if f.source.is_exchangeable(x))
    mapping = tuple(
        g(f(x)) if x in dom else None for x in f.source.labels
    )
    return PartialSeedHom(f.source, SubSeedSpec(I0, I1), g.target, mapping)


def _vertex_signatures(seed: Seed) -> dict[str, tuple]:
    """Label -> the sorted magnitudes of its row (exchangeable and
    frozen columns apart) or, for a frozen label, of its column."""
    n, e = seed.n, seed.matrix
    sigs = {}
    for x, row in zip(seed.exchangeable_labels, e):
        sigs[x] = ("ex", tuple(sorted(map(abs, row[:n]))), tuple(sorted(map(abs, row[n:]))))
    for i, x in enumerate(seed.frozen_labels, n):
        sigs[x] = ("fr", tuple(sorted([abs(row[i]) for row in e])))
    return sigs


def enumerate_seed_isos(a: Seed, b: Seed):
    """All seed isomorphisms a -> b (magnitude-preserving sign-coherent
    bijections sending exchangeable to exchangeable).

    Backtracking over exchangeable labels first, pruned by per-vertex
    weight multisets and, at each placed label, by the magnitudes and
    the row signs that check_partial_hom requires of every completion:
    a subtree is cut only if it holds no isomorphism, so the
    isomorphisms come in the order of the unpruned search.  Each
    completed bijection is re-validated by check_partial_hom, through
    one hom_layout of a, built at the first completed bijection.  That
    check is also the magnitude test: it rules out any entry shrinking,
    and a row that never shrinks and keeps its sorted magnitudes (the
    vertex signature) keeps every magnitude.
    """
    if a.n != b.n or a.m != b.m:
        return
    sig_a = _vertex_signatures(a)
    sig_b = sig_a if b is a else _vertex_signatures(b)
    candidates = {
        x: [y for y in (b.exchangeable_labels if a.is_exchangeable(x) else b.frozen_labels)
            if sig_b[y] == sig_a[x]]
        for x in a.labels
    }
    if any(not candidates[x] for x in a.labels):
        return

    # b_xy by positions, 0 on the frozen rows
    rows_a = _signed_rows(a)
    rows_b = rows_a if b is a else _signed_rows(b)
    pos_b, n = b._position, a.n
    assignment: dict[str, str] = {}
    placed: list[tuple[int, int]] = []  # the positions of assignment's pairs
    used: set[str] = set()
    # hom_layout(a, EMPTY_SPEC), built at the first completed bijection
    layout: tuple | None = None
    # per exchangeable row x of a: the sign of b'_{f(x)f(y)} * b_xy over
    # the columns placed so far, 0 while every such product is 0
    sign = [0] * n

    def extend(i: int, j: int) -> list[int] | None:
        """The rows whose sign placing i -> j fixes, or None if the
        placement changes a magnitude or makes a row's products of both
        signs, which check_partial_hom would reject in every completion."""
        row_i, row_j = rows_a[i], rows_b[j]
        entries = [(i, row_i[i], row_j[j])]  # (row, b_xy, b'_{f(x)f(y)})
        for u, v in placed:
            e, f, g, h = row_i[u], row_j[v], rows_a[u][i], rows_b[v][j]
            if e or f:
                entries.append((i, e, f))
            if g or h:
                entries.append((u, g, h))
        fixed: list[int] = []
        for x, e, f in entries:
            if e == f:
                s = 1
            elif e == -f:
                s = -1
            else:
                break
            if not e or x >= n:
                continue
            if not sign[x]:
                sign[x] = s
                fixed.append(x)
            elif sign[x] != s:
                break
        else:
            return fixed
        for x in fixed:
            sign[x] = 0
        return None

    def backtrack(i: int):
        nonlocal layout
        if i == len(a.labels):
            if layout is None:
                layout = hom_layout(a, EMPTY_SPEC)
            hom = PartialSeedHom.from_dict(a, EMPTY_SPEC, b, assignment)
            if check_partial_hom(hom, layout)[0]:
                yield hom
            return
        x = a.labels[i]
        for y in candidates[x]:
            if y in used:
                continue
            j = pos_b[y]
            fixed = extend(i, j)
            if fixed is None:
                continue
            assignment[x] = y
            used.add(y)
            placed.append((i, j))
            yield from backtrack(i + 1)
            placed.pop()
            del assignment[x]
            used.discard(y)
            for row in fixed:
                sign[row] = 0

    yield from backtrack(0)


def _signed_rows(seed: Seed) -> list[tuple[int, ...]]:
    return list(seed.matrix) + [(0,) * len(seed.labels)] * seed.m


def find_seed_iso(a: Seed, b: Seed) -> PartialSeedHom | None:
    return next(enumerate_seed_isos(a, b), None)


def automorphism_group(seed: Seed) -> list[PartialSeedHom]:
    return list(enumerate_seed_isos(seed, seed))
