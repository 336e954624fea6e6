"""Exact integer seeds and matrix mutation.

A seed is an ordered family of exchangeable and frozen variable labels
together with an n x (n+m) integer matrix whose rows are indexed by the
exchangeable variables and whose columns are indexed by all variables
(exchangeable first).  Labels are the identity of variables; matrix
indices are an internal ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import SeedError

__all__ = [
    "ExtendedExchangeMatrix",
    "Seed",
    "ValidationReport",
    "validate_seed",
    "require_valid",
    "matrix_mutation",
    "find_symmetrizer",
]


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
class ExtendedExchangeMatrix:
    """Integer matrix of shape n x (n+m); entries[i][j] = b_{ij}."""

    n: int
    m: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise SeedError("n and m must be nonnegative")
        if len(self.entries) != self.n:
            raise SeedError(f"expected {self.n} rows, got {len(self.entries)}")
        width = self.n + self.m
        for i, row in enumerate(self.entries):
            if len(row) != width:
                raise SeedError(f"row {i} has length {len(row)}, expected {width}")
            if not all(map(isinstance, row, itertools.repeat(int))):
                raise SeedError(f"row {i} contains non-integer entries")

    def principal(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row[: self.n] for row in self.entries)


@dataclass(frozen=True)
class Seed:
    """A pair (cluster, extended exchange matrix) with named variables."""

    exchangeable_labels: tuple[str, ...]
    frozen_labels: tuple[str, ...]
    matrix: ExtendedExchangeMatrix

    def __post_init__(self):
        labels = self.exchangeable_labels + self.frozen_labels
        if len(set(labels)) != len(labels):
            raise SeedError("variable labels must be pairwise distinct")
        if self.matrix.n != len(self.exchangeable_labels):
            raise SeedError("matrix row count does not match exchangeable labels")
        if self.matrix.m != len(self.frozen_labels):
            raise SeedError("matrix frozen-column count does not match frozen labels")

    @staticmethod
    def from_data(exchangeable, frozen, rows) -> "Seed":
        ex = tuple(str(x) for x in exchangeable)
        fr = tuple(str(x) for x in frozen)
        mat = ExtendedExchangeMatrix(
            n=len(ex), m=len(fr), entries=tuple(tuple(int(v) for v in row) for row in rows)
        )
        return Seed(ex, fr, mat)

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def m(self) -> int:
        return self.matrix.m

    # labels and _position are cached per instance, outside the dataclass
    # fields, so equality, hashing and repr see only the three fields.
    @cached_attribute
    def labels(self) -> tuple[str, ...]:
        """All variables, exchangeable first (the extended cluster)."""
        return self.exchangeable_labels + self.frozen_labels

    @cached_attribute
    def _position(self) -> dict[str, int]:
        """Label -> position in labels: the one label index of the seed."""
        return {x: i for i, x in enumerate(self.labels)}

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
        return self.matrix.entries[i][self.index(y)]

    def b_or_zero(self, x: str, y: str) -> int:
        """b_{xy} when defined, else 0 (frozen row)."""
        return self.b(x, y) if self.index(x) < self.n else 0


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
    principal = seed.matrix.principal()
    n = seed.n
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


def matrix_mutation(matrix: ExtendedExchangeMatrix, k: int) -> ExtendedExchangeMatrix:
    """Matrix mutation in exchangeable direction k (an involution)."""
    n, m = matrix.n, matrix.m
    if not 0 <= k < n:
        raise IndexError(f"mutation direction {k} out of range 0..{n - 1}")
    a = matrix.entries
    rows = []
    for j in range(n):
        row = []
        for l in range(n + m):
            if j == k or l == k:
                row.append(-a[j][l])
            else:
                row.append(a[j][l] + (abs(a[j][k]) * a[k][l] + a[j][k] * abs(a[k][l])) // 2)
        rows.append(tuple(row))
    return ExtendedExchangeMatrix(n=n, m=m, entries=tuple(rows))
