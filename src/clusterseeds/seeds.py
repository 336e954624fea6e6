"""Exact integer seeds and matrix mutation.

A seed is an ordered family of exchangeable and frozen variable labels
together with an n x (n+m) integer matrix, stored as its n rows, whose
rows are indexed by the exchangeable variables and whose columns are
indexed by all variables (exchangeable first).  Labels are the identity
of variables; matrix indices are an internal ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import SeedError

__all__ = [
    "Seed",
    "ValidationReport",
    "validate_seed",
    "require_valid",
    "matrix_mutation",
    "find_symmetrizer",
]

_INT = frozenset({int})


class cached_attribute:
    """A value computed on first access and stored in the instance
    ``__dict__``, where later lookups find it before this non-data
    descriptor.  ``functools.cached_property`` does the same but, before
    Python 3.12, takes a class-wide lock on every first access."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Seed:
    """A pair (cluster, extended exchange matrix) with named variables.

    matrix is the n rows of the extended exchange matrix, row i for
    exchangeable_labels[i], each with one integer b_ij per label."""

    exchangeable_labels: tuple[str, ...]
    frozen_labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, width = self.n, len(self.labels)
        if len(self.matrix) != n:
            raise SeedError(f"expected {n} rows, got {len(self.matrix)}")
        # entries of type exactly int need no per-entry isinstance test
        exact = set(map(type, itertools.chain.from_iterable(self.matrix))) <= _INT
        for i, row in enumerate(self.matrix):
            if len(row) != width:
                raise SeedError(f"row {i} has length {len(row)}, expected {width}")
            if not exact and not all(map(isinstance, row, itertools.repeat(int))):
                raise SeedError(f"row {i} contains non-integer entries")
        if len(set(self.labels)) != width:
            raise SeedError("variable labels must be pairwise distinct")

    @staticmethod
    def from_data(exchangeable, frozen, rows) -> "Seed":
        ex = tuple(str(x) for x in exchangeable)
        fr = tuple(str(x) for x in frozen)
        return Seed(ex, fr, tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.exchangeable_labels)

    @property
    def m(self) -> int:
        return len(self.frozen_labels)

    # labels, _position and _label_sets are cached per instance, outside
    # the dataclass fields, so equality, hashing and repr see only the
    # three fields.
    @cached_attribute
    def labels(self) -> tuple[str, ...]:
        """All variables, exchangeable first (the extended cluster)."""
        return self.exchangeable_labels + self.frozen_labels

    @cached_attribute
    def _position(self) -> dict[str, int]:
        """Label -> position in labels: the one label index of the seed."""
        return {x: i for i, x in enumerate(self.labels)}

    @cached_attribute
    def _label_sets(self) -> tuple[frozenset[str], frozenset[str]]:
        """The exchangeable labels and all labels, as sets."""
        return frozenset(self.exchangeable_labels), frozenset(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise SeedError(f"unknown variable {label!r}") from None

    def is_exchangeable(self, label: str) -> bool:
        return self._position.get(label, self.n) < self.n

    def b(self, x: str, y: str) -> int:
        """Entry b_{xy}; defined whenever x is exchangeable."""
        i = self.index(x)
        if i >= self.n:
            raise SeedError(f"b_({x},{y}) undefined: {x!r} is frozen")
        return self.matrix[i][self.index(y)]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    symmetrizer: tuple[int, ...] | None = None


def find_symmetrizer(principal) -> tuple[int, ...] | None:
    """Positive integers d with d_i b_ij = -d_j b_ji, or None.

    d is propagated along a spanning forest of the nonzero-entry graph,
    then every edge is verified.  Disconnected principal parts get
    per-component values, each normalized by gcd.
    """
    n = len(principal)
    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if d[j] is not None:
                    continue
                bij, bji = principal[i][j], principal[j][i]
                if bij == 0 and bji == 0:
                    continue
                if bij == 0 or bji == 0:
                    return None  # sign-skew-symmetry already broken
                # d_i b_ij = -d_j b_ji
                d[j] = -d[i] * Fraction(bij, bji)
                if d[j] <= 0:
                    return None
                component.append(j)
                stack.append(j)
        denom = lcm(*(f.denominator for f in (d[i] for i in component))) if component else 1
        ints = [int(d[i] * denom) for i in component]
        g = gcd(*ints) if ints else 1
        for i, v in zip(component, ints):
            d[i] = Fraction(v // g)
    di = tuple(int(f) for f in d)
    for i in range(n):
        for j in range(n):
            if di[i] * principal[i][j] != -di[j] * principal[j][i]:
                return None
    return di


def validate_seed(seed: Seed) -> ValidationReport:
    """Report-style check of sign-skew-symmetry and skew-symmetrizability."""
    violations = []
    n = seed.n
    principal = tuple(row[:n] for row in seed.matrix)
    for i in range(n):
        for j in range(i, n):
            bij, bji = principal[i][j], principal[j][i]
            if not (bij == bji == 0 or bij * bji < 0):
                violations.append(
                    f"sign-skew-symmetry violated at ({i},{j})/({j},{i}): "
                    f"b={bij}, b'={bji}"
                )
    symmetrizer = None
    if not violations:
        symmetrizer = find_symmetrizer(principal)
        if symmetrizer is None:
            violations.append("no positive integer skew-symmetrizer exists")
    return ValidationReport(ok=not violations, violations=violations, symmetrizer=symmetrizer)


def require_valid(seed: Seed) -> Seed:
    report = validate_seed(seed)
    if not report.ok:
        raise SeedError("; ".join(report.violations))
    return seed


def matrix_mutation(rows: tuple[tuple[int, ...], ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Matrix mutation of a seed's rows in exchangeable direction k (an involution).

    Row k and column k change sign; an entry b_jl off them gains
    |b_jk| b_kl when b_jk and b_kl have the same sign and keeps its value
    otherwise, so a row j with b_jk = 0 is returned as the same tuple."""
    n = len(rows)
    if not 0 <= k < n:
        raise IndexError(f"mutation direction {k} out of range 0..{n - 1}")
    row_k = rows[k]
    positive = [(l, b) for l, b in enumerate(row_k) if b > 0]
    negative = [(l, b) for l, b in enumerate(row_k) if b < 0]
    out = list(rows)
    out[k] = tuple(-b for b in row_k)
    for j, row in enumerate(rows):
        c = row[k]
        if not c or j == k:
            continue
        new = list(row)
        step = abs(c)
        for l, b in positive if c > 0 else negative:
            new[l] += step * b
        new[k] = -c  # whatever b_kk is
        out[j] = tuple(new)
    return tuple(out)
