"""Mixing-type sub-seeds, (partial) seed homomorphisms, and isomorphisms.

A sub-seed specification (I0, I1) freezes the exchangeable variables in
I0 and deletes the variables in I1.  A partial seed homomorphism is a
seed homomorphism defined on such a sub-seed of its source; the empty
homomorphism has I1 equal to the whole extended cluster.
"""

from __future__ import annotations

import itertools
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
        bad = self.I0.difference(seed.exchangeable_labels)
        if bad:
            raise SpecError(f"I0 labels not exchangeable in the seed: {sorted(bad)}")
        bad = self.I1.difference(seed._position)
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


def check_partial_hom(candidate: PartialSeedHom) -> tuple[bool, str | None]:
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
    labels, mapping, n = src.labels, candidate.mapping, src.n
    tgt_pos = tgt._position
    # target position of each source position's image (-1 outside the
    # domain), and the domain's positions: exchangeable rows, then the
    # frozen part (I0 and the frozen labels, which all follow I0)
    image, rows, frozen = [], [], []
    for p, (x, v) in enumerate(zip(labels, mapping)):
        if x in spec.I1:
            if v is not None:
                return False, f"{x!r} lies in I1 but is mapped"
            image.append(-1)
        elif v is None:
            return False, f"{x!r} lies in the domain but is unmapped"
        elif v not in tgt_pos:
            return False, f"{x!r} maps to unknown target label {v!r}"
        else:
            image.append(tgt_pos[v])
            (rows if p < n and x not in spec.I0 else frozen).append(p)
    for i in rows:
        if image[i] >= tgt.n:
            return False, (
                f"condition (a): exchangeable {labels[i]!r} maps to frozen {mapping[i]!r}"
            )
    cols = rows + frozen
    # per-row sign of b'_{f(x)f(y)} * b_{xy}, and the magnitude condition;
    # columns in sub-seed order, so the first violation is the sub-seed's.
    # A zero b_{xy} can break neither.
    src_b, tgt_b = src.matrix, tgt.matrix
    row_sign = []
    for i in rows:
        x, b_row, t_row = labels[i], src_b[i], tgt_b[image[i]]
        sign = 0
        for j in cols:
            bxy = b_row[j]
            if not bxy:
                continue
            bpq = t_row[image[j]]
            if abs(bpq) < abs(bxy):
                return False, (
                    f"magnitude: |b'_({mapping[i]},{mapping[j]})|={abs(bpq)} "
                    f"< |b_({x},{labels[j]})|={abs(bxy)}"
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
        row_sign.append(sign)
    for (i, si), (k, sk) in itertools.combinations(zip(rows, row_sign), 2):
        if src_b[i][k] != 0 and si * sk < 0:
            return False, (
                f"sign coherence fails across adjacent rows {labels[i]!r}, {labels[k]!r}"
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


def _vertex_signature(seed: Seed, x: str):
    i = seed.index(x)
    n = seed.n
    e = seed.matrix
    if i < n:
        out_ex = sorted(abs(e[i][j]) for j in range(n))
        out_fr = sorted(abs(e[i][j]) for j in range(n, n + seed.m))
        return ("ex", tuple(out_ex), tuple(out_fr))
    col = sorted(abs(e[j][i]) for j in range(n))
    return ("fr", tuple(col))


def enumerate_seed_isos(a: Seed, b: Seed):
    """All seed isomorphisms a -> b (magnitude-preserving sign-coherent
    bijections sending exchangeable to exchangeable).

    Backtracking over exchangeable labels first, pruned by per-vertex
    weight multisets and, at each placed label, by the magnitudes and
    the row signs that check_partial_hom requires of every completion:
    a subtree is cut only if it holds no isomorphism, so the
    isomorphisms come in the order of the unpruned search.  Each
    completed bijection is re-validated by check_partial_hom.  That
    check is also the magnitude test: it rules out any entry shrinking,
    and a row that never shrinks and keeps its sorted magnitudes (the
    vertex signature) keeps every magnitude.
    """
    if a.n != b.n or a.m != b.m:
        return
    sig_a = {x: _vertex_signature(a, x) for x in a.labels}
    sig_b = sig_a if b is a else {x: _vertex_signature(b, x) for x in b.labels}
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
        if i == len(a.labels):
            hom = PartialSeedHom.from_dict(a, EMPTY_SPEC, b, assignment)
            if check_partial_hom(hom)[0]:
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
