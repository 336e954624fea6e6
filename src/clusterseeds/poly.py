"""Exact Laurent-polynomial arithmetic over the initial extended cluster.

By the Laurent phenomenon (Fomin-Zelevinsky, "Cluster algebras I",
2002) every cluster variable lies in Z[x^+-1], so one type serves for
all of them: a dictionary from signed exponent vectors to integer
coefficients.  Division by a one-term divisor c*x^e is a shift by -e
with a test that c divides every coefficient; every other division
shifts each operand by its own smallest exponents, runs a sparse heap
division and counts its term products against ``MAX_TERM_PRODUCTS``,
the cap of a product.  A quotient outside Z[x^+-1] raises
``LaurentViolation`` and aborts the run instead of returning a wrong
value.

A polynomial is stored in one form, packed (each exponent vector
packed into one int), together with its exact exponent ranges: it is
packed when built from terms and keeps the packing it was computed in,
so an operand is packed once however often it is squared or divided,
and the tuple-keyed ``terms`` and the printed text are made on first
use only.  The powers k >= 2 of a polynomial are kept on it once
computed, like its text, and freed with it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

from .errors import LaurentViolation, ResourceCapExceeded, TheoremViolation
from .homs import enumerate_seed_isos
from .seeds import Seed, matrix_mutation, require_valid

__all__ = [
    "MultiPoly",
    "LabeledSeedState",
    "initial_state",
    "exchange",
    "mutate_state",
    "enumerate_clusters",
    "ClusterEnumeration",
]

MAX_TERMS = 10**6
MAX_TERM_PRODUCTS = 10**7
# a seed with more automorphisms is searched without their images
MAX_AUTOMORPHISMS = 64


class _Packing:
    """Exponent vectors of length n packed into ints.

    The key of e is sum(e) in the top field and e[0], ..., e[n-1] below
    it, each in a signed field of ``bits`` bits.  Packing is linear, so
    the key of a sum or difference of vectors is the sum or difference
    of their keys; while every exponent lies in (-2**(bits-1),
    2**(bits-1)), unpacking recovers the vector and key order is grlex
    order.  The total degree sits in the unbounded top field, so it
    never overflows.
    """

    __slots__ = ("bits", "bias", "low", "nbytes", "fields")

    def __init__(self, n: int, bits: int, fmt: str):
        self.bits = bits
        half = 1 << (bits - 1)
        # half in every exponent field: adding it makes each field
        # nonnegative without a borrow from the field above
        self.bias = sum(half << (bits * i) for i in range(n))
        self.low = (1 << (bits * n)) - 1
        self.nbytes = bits * n // 8
        self.fields = struct.Struct(f">{n}{fmt}")

    def pack(self, e: tuple[int, ...]) -> int:
        key = sum(e)
        bits = self.bits
        for v in e:
            key = (key << bits) + v
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        # biased fields with the top bit flipped are two's complement fields
        key = ((key + self.bias) ^ self.bias) & self.low
        return self.fields.unpack(key.to_bytes(self.nbytes, "big"))

    def nonnegative(self, key: int) -> bool:
        """Whether every exponent field of key is at least 0."""
        return (key + self.bias) & self.bias == self.bias


@lru_cache(maxsize=None)  # one packing per (n, field width)
def _packing_of_width(n: int, bits: int, fmt: str) -> _Packing:
    return _Packing(n, bits, fmt)


def _packing(n: int, bound: int) -> _Packing:
    """The packing for n exponents of absolute value at most bound."""
    for bits, fmt in ((8, "b"), (16, "h"), (32, "i"), (64, "q")):
        if bound < 1 << (bits - 1):
            return _packing_of_width(n, bits, fmt)
    raise ResourceCapExceeded(f"exponent bound {bound} does not fit a 64-bit field")


def _bound(lo, hi) -> int:
    return max(map(abs, lo + hi), default=0)


def _square(items) -> dict[int, int]:
    """The square of the packed terms: the pairs i <= j, each cross
    term doubled, so about half the term products of a generic product."""
    out: dict[int, int] = {}
    get = out.get
    for i, (k1, c1) in enumerate(items):
        k = k1 + k1
        out[k] = get(k, 0) + c1 * c1
        c1 += c1
        for k2, c2 in items[i + 1 :]:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _product(left, right) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _monomial_text(context, e) -> str:
    return "*".join([f"{v}^{k}" if k > 1 else v for v, k in zip(context, e) if k])


class MultiPoly:
    """Integer Laurent polynomial in the ordered variables of an extended cluster.

    Besides the context, a polynomial holds its exact exponent ranges
    ``lo``..``hi`` per variable (None for zero) and its packed form: a
    dict from packed keys to nonzero coefficients in the packing sized
    by those ranges.  The ranges of a product are the sums
    of the operands' ranges and those of an exact quotient the
    differences (Newton polytopes add), so they stay exact without a
    scan; equal polynomials have equal ranges, hence one packing and
    equal packed dicts.
    """

    __slots__ = ("context", "_lo", "_hi", "_packing", "_packed", "_terms", "_hash", "_str", "_powers")

    def __init__(self, context: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        terms = {e: c for e, c in terms.items() if c != 0}
        lo = tuple(map(min, zip(*terms))) if terms else None
        hi = tuple(map(max, zip(*terms))) if terms else None
        p = _packing(len(context), _bound(lo, hi) if terms else 0)
        self._init(context, p, {p.pack(e): c for e, c in terms.items()}, lo, hi)

    def _init(self, context, packing: _Packing, packed: dict[int, int], lo, hi) -> None:
        self.context = context
        self._lo, self._hi = lo, hi
        self._packing, self._packed = packing, packed
        self._terms = self._hash = self._str = self._powers = None

    @classmethod
    def _from_packed(cls, context, packing: _Packing, packed: dict[int, int], lo, hi) -> "MultiPoly":
        if not packed:
            return cls(context, {})
        self = object.__new__(cls)
        self._init(context, packing, packed, lo, hi)
        return self

    @staticmethod
    def constant(context, value: int) -> "MultiPoly":
        if value == 0:
            return MultiPoly(context, {})
        return MultiPoly(context, {(0,) * len(context): value})

    @staticmethod
    def generator(context, label: str) -> "MultiPoly":
        i = context.index(label)
        exp = tuple(1 if j == i else 0 for j in range(len(context)))
        return MultiPoly(context, {exp: 1})

    @property
    def terms(self):
        """Exponent vector -> nonzero coefficient, as a read-only mapping."""
        if self._terms is None:
            unpack = self._packing.unpack
            self._terms = MappingProxyType({unpack(k): c for k, c in self._packed.items()})
        return self._terms

    def _keys(self, p: _Packing, shift=None) -> dict[int, int]:
        """The packed form of self * x^-shift in packing p, which must
        hold its exponents.  Packing is linear, so within self's own
        packing a shift is one subtraction per key."""
        if self._packing is p:
            if shift is None:
                return self._packed
            ks = p.pack(shift)
            return {k - ks: c for k, c in self._packed.items()}
        unpack = self._packing.unpack
        if shift is None:
            return {p.pack(unpack(k)): c for k, c in self._packed.items()}
        return {
            p.pack(tuple(map(operator.sub, unpack(k), shift))): c
            for k, c in self._packed.items()
        }

    def is_zero(self) -> bool:
        return self._lo is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return False
        # equal ranges, so one packing
        return (
            self.context == other.context
            and self._lo == other._lo
            and self._hi == other._hi
            and self._packed == other._packed
        )

    def __hash__(self):
        if self._hash is None:
            packed = self._packed
            self._hash = hash((self.context, self._lo, self._hi, len(packed), sum(packed.values())))
        return self._hash

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # the wider of the two packings holds both operands and the sum
        p = max(self._packing, other._packing, key=operator.attrgetter("bits"))
        out = dict(self._keys(p))
        cancelled = False
        for k, c in other._keys(p).items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
                cancelled = True
        if cancelled:  # the ranges may shrink: take them from the terms
            return MultiPoly(self.context, {p.unpack(k): c for k, c in out.items()})
        lo = tuple(map(min, self._lo, other._lo))
        hi = tuple(map(max, self._hi, other._hi))
        return MultiPoly._from_packed(self.context, p, out, lo, hi)

    def __neg__(self) -> "MultiPoly":
        if self.is_zero():
            return self
        negated = {k: -c for k, c in self._packed.items()}
        return MultiPoly._from_packed(self.context, self._packing, negated, self._lo, self._hi)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        """The product; ResourceCapExceeded, before any term is multiplied,
        if it would take more than MAX_TERM_PRODUCTS term products."""
        if self.is_zero() or other.is_zero():
            return MultiPoly(self.context, {})
        a = len(self._packed)
        products = a * (a + 1) // 2 if self is other else a * len(other._packed)
        if products > MAX_TERM_PRODUCTS:
            raise ResourceCapExceeded(
                f"a product of {a} by {len(other._packed)} terms needs {products} term products, "
                f"over the cap of {MAX_TERM_PRODUCTS}",
                partial_count=products,
            )
        lo = tuple(map(operator.add, self._lo, other._lo))
        hi = tuple(map(operator.add, self._hi, other._hi))
        p = _packing(len(self.context), _bound(lo, hi))
        if self is other:
            out = _square(list(self._keys(p).items()))
        else:
            out = _product(self._keys(p).items(), list(other._keys(p).items()))
        if len(out) > MAX_TERMS:
            raise ResourceCapExceeded(
                f"polynomial exceeded {MAX_TERMS} terms", partial_count=len(out)
            )
        return MultiPoly._from_packed(self.context, p, {k: c for k, c in out.items() if c}, lo, hi)

    def __truediv__(self, other: "MultiPoly") -> "MultiPoly":
        """The exact quotient in Z[x^+-1]; LaurentViolation if there is none."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return self
        quot = self._divide(other)
        if quot is None:
            raise LaurentViolation("the quotient is not a Laurent polynomial")
        return quot

    def __pow__(self, k: int) -> "MultiPoly":
        """self**k; a power k >= 2 is computed once and kept on self."""
        if k < 0:
            return MultiPoly.constant(self.context, 1) / self**-k
        if k == 0:
            return MultiPoly.constant(self.context, 1)
        if k == 1:
            return self
        if self.is_zero():
            return self
        if self._powers is None:
            self._powers = {}
        elif k in self._powers:
            return self._powers[k]
        # ResourceCapExceeded now, not k's bit count of recursion
        # later, if the power's exponents k*lo..k*hi cannot be packed
        p = _packing(len(self.context), k * _bound(self._lo, self._hi))
        if len(self._packed) == 1:
            power = self._powers[k] = self._term_power(p, k)
            return power
        half = self ** (k >> 1)
        square = half * half
        power = self._powers[k] = square * self if k & 1 else square
        return power

    def _term_power(self, p: _Packing, k: int) -> "MultiPoly":
        """(c*x^e)**k as c**k * x^(k*e) in packing p, with no product;
        ResourceCapExceeded before c**k is computed if its decimal
        digits could not pass the interpreter's str digit limit."""
        (c,) = self._packed.values()
        # 0 where the limit is off, and before Python 3.10.7, which has none
        digits = getattr(sys, "get_int_max_str_digits", int)()
        # c**k has floor(k*log10|c|) + 1 digits: past limit + 1 it has
        # more than the limit, and below it c**k is cheap to compute
        if digits and abs(c) > 1 and k > (digits + 1) / math.log10(abs(c)):
            raise ResourceCapExceeded(
                f"a one-term power has a coefficient of more than {digits} decimal digits"
            )
        lo = tuple(k * v for v in self._lo)
        return MultiPoly._from_packed(self.context, p, {p.pack(lo): c**k}, lo, lo)

    def relabel(self, order) -> "MultiPoly":
        """The polynomial whose exponent j is exponent order[j] of self,
        term by term: the image of self under the ring automorphism of
        Z[x^+-1] sending x_order[j] to x_j.  No arithmetic: the terms,
        ranges and packing are self's, permuted."""
        if self.is_zero():
            return self
        p, n = self._packing, len(order)
        # packing is linear: the new key is the dot product of the old
        # exponents with their new fields' weights, the top field included
        weights = [0] * n
        for j, i in enumerate(order):
            weights[i] = (1 << (p.bits * n)) + (1 << (p.bits * (n - 1 - j)))
        unpack, mul = p.unpack, operator.mul
        packed = {sum(map(mul, unpack(k), weights)): c for k, c in self._packed.items()}
        lo = tuple(map(self._lo.__getitem__, order))
        hi = tuple(map(self._hi.__getitem__, order))
        return MultiPoly._from_packed(self.context, p, packed, lo, hi)

    def shift(self, exponents) -> "MultiPoly":
        """self times the monomial x^exponents; the exponents may be negative."""
        if self.is_zero():
            return self
        lo = tuple(map(operator.add, self._lo, exponents))
        hi = tuple(map(operator.add, self._hi, exponents))
        p = _packing(len(self.context), _bound(lo, hi))
        keys = self._keys(p, tuple(map(operator.neg, exponents)))
        return MultiPoly._from_packed(self.context, p, keys, lo, hi)

    def _divide(self, other: "MultiPoly") -> "MultiPoly | None":
        """The quotient self/other in Z[x^+-1], or None if there is none.

        A one-term divisor c*x^e divides as the shift of self by -e with
        every coefficient divided by c, so there is a quotient iff c
        divides every coefficient of self.  Every other divisor takes the
        heap division below, whose term products (each quotient term
        times the divisor's other terms) count against
        MAX_TERM_PRODUCTS like those of a product.

        Both operands of the heap division are shifted by their exact
        smallest exponents, so an exact quotient is a polynomial in the
        box from 0 to the difference of the operands' spans, and no
        remainder term ever leaves the dividend's box; the working fields
        hold that span.
        Sparse heap division (Johnson 1974; Monagan and Pearce, JSC 46,
        2011): the remainder is one dict updated in place, and a max-heap
        of its keys yields the leading term.  A key whose coefficient
        cancels stays in the heap and is skipped when popped.  The
        division fails as soon as a leading coefficient does not divide
        or a quotient exponent leaves the box.
        """
        if len(other._packed) == 1:
            (c,) = other._packed.values()
            quot = self.shift(tuple(map(operator.neg, other._lo)))
            if c == 1:
                return quot
            if any(v % c for v in self._packed.values()):
                return None
            packed = {k: v // c for k, v in quot._packed.items()}
            return MultiPoly._from_packed(self.context, quot._packing, packed, quot._lo, quot._hi)
        lo = tuple(map(operator.sub, self._lo, other._lo))
        hi = tuple(map(operator.sub, self._hi, other._hi))
        if any(map(operator.gt, lo, hi)):  # other's span exceeds self's
            return None
        n = len(self.context)
        w = _packing(n, max(map(operator.sub, self._hi, self._lo), default=0))
        rem = self._keys(w, self._lo)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        divisor = sorted(other._keys(w, other._lo).items(), reverse=True)
        lead, lc = divisor[0]
        tail = [(k, -gc) for k, gc in divisor[1:]]  # negated once: rem += q * (-gc)
        # counted as the quotient grows, not projected: a quotient's box
        # can hold far more monomials than its support
        step, products, cap = len(tail), 0, MAX_TERM_PRODUCTS
        upper = w.pack(tuple(map(operator.sub, hi, lo)))
        nonnegative = w.nonnegative
        heappop, heappush = heapq.heappop, heapq.heappush
        quot: dict[int, int] = {}
        while heap:
            key = -heappop(heap)
            c = rem.pop(key, 0)
            if not c:
                continue
            q, r = divmod(c, lc)
            e = key - lead
            if r or not nonnegative(e) or not nonnegative(upper - e):
                return None
            quot[e] = q
            products += step
            if products > cap:
                raise ResourceCapExceeded(
                    f"a division needs more than {cap} term products",
                    partial_count=products,
                )
            for k, ngc in tail:
                m = e + k
                try:
                    v = rem[m] + q * ngc
                except KeyError:  # a new remainder key
                    rem[m] = q * ngc
                    heappush(heap, -m)
                    continue
                if v:
                    rem[m] = v
                else:
                    del rem[m]
            if len(rem) > MAX_TERMS:
                raise ResourceCapExceeded(
                    f"division remainder exceeded {MAX_TERMS} terms", partial_count=len(rem)
                )
        p = _packing(n, _bound(lo, hi))
        if p is w:
            s = w.pack(lo)
            out = {e + s: c for e, c in quot.items()}
        else:
            out = {p.pack(tuple(map(operator.add, w.unpack(e), lo))): c for e, c in quot.items()}
        return MultiPoly._from_packed(self.context, p, out, lo, hi)

    def _den_exponents(self) -> tuple[int, ...]:
        if self.is_zero():
            return (0,) * len(self.context)
        return tuple(max(0, -v) for v in self._lo)

    @property
    def den(self) -> "MultiPoly":
        """The monomial x^d, d_i = max(0, -min_i), that clears every negative exponent."""
        return MultiPoly(self.context, {self._den_exponents(): 1})

    @property
    def num(self) -> "MultiPoly":
        """The polynomial self * den."""
        return self.shift(self._den_exponents())

    def __str__(self) -> str:
        """A polynomial as is, else num/den, e.g. (x1 + x2 + 1)/x1*x2 in
        machine reports (see human_text for the bracketed form).

        Formatted once per polynomial: terms in decreasing packed-key
        (grlex) order, the numerator's exponents shifted by den."""
        return self.text({})

    __repr__ = __str__

    def text(self, monomials: dict) -> str:
        """str(self), made through the monomial table ``monomials``.

        Polynomials printed together share one table (an empty dict to
        start), so a numerator monomial they have in common is formatted
        once.  The table maps (context, field width) to a dict from the
        masked numerator key (key + pack(den)) & low to the monomial's
        text: the numerator's exponents are nonnegative and below
        2**bits, so its fields neither borrow nor overlap and the masked
        key identifies the monomial.  The text is still kept per
        polynomial, so a polynomial printed before is not looked up."""
        if self._str is None:
            self._str = self._format(monomials)
        return self._str

    def human_text(self, monomials: dict) -> str:
        """text(monomials) with a denominator of more than one factor in
        brackets, e.g. (x1 + x2 + 1)/(x1*x2).  The denominator is found
        by its own text, which ends the machine text, so a label holding
        / or * is never misread."""
        text = self.text(monomials)
        d = self._den_exponents()
        if sum(map(bool, d)) < 2:
            return text
        den = _monomial_text(self.context, d)
        return f"{text[: -len(den)]}({den})"

    def _format(self, monomials: dict) -> str:
        if self.is_zero():
            return "0"
        context = self.context
        p, packed = self._packing, self._packed
        d = self._den_exponents()
        shift = d if any(d) else None
        ks, low = p.pack(d), p.low
        table = monomials.setdefault((context, p.bits), {})
        parts = []
        for key in sorted(packed, reverse=True):
            m = (key + ks) & low
            body = table.get(m)
            if body is None:
                # the masked key is unsigned: read the signed original
                e = p.unpack(key)
                if shift:
                    e = tuple(map(operator.add, e, shift))
                body = table[m] = _monomial_text(context, e)
            c = packed[key]
            if not body:
                mono = str(abs(c))
            elif abs(c) == 1:
                mono = body
            else:
                mono = f"{abs(c)}*{body}"
            parts.append(f" - {mono}" if c < 0 else f" + {mono}")
        text = "".join(parts)
        text = text[3:] if text.startswith(" + ") else f"-{text[3:]}"
        if not shift:
            return text
        if len(packed) > 1:
            text = f"({text})"
        den = table.get(ks & low)
        if den is None:
            den = table[ks & low] = _monomial_text(context, d)
        return f"{text}/{den}"


@dataclass(frozen=True)
class LabeledSeedState:
    """A labeled seed reached from the base seed by mutations.

    Exchangeable slot i currently holds assignment[i]; frozen slots
    always hold their own generator.
    """

    seed: Seed
    matrix: tuple[tuple[int, ...], ...]
    assignment: tuple[MultiPoly, ...]

    def cluster(self) -> frozenset[MultiPoly]:
        return frozenset(self.assignment)

    def variable(self, t: int) -> MultiPoly:
        """Current value of column t (exchangeable slot or frozen generator)."""
        if t < self.seed.n:
            return self.assignment[t]
        return _generator(self.seed.labels, self.seed.labels[t])


# A MultiPoly is never changed after it is built, so the unit and the
# frozen generators of a context are built once and shared.


@lru_cache(maxsize=64)
def _unit(context) -> MultiPoly:
    return MultiPoly.constant(context, 1)


@lru_cache(maxsize=1024)
def _generator(context, label: str) -> MultiPoly:
    return MultiPoly.generator(context, label)


def initial_state(seed: Seed) -> LabeledSeedState:
    context = seed.labels
    assignment = tuple(
        MultiPoly.generator(context, x) for x in seed.exchangeable_labels
    )
    return LabeledSeedState(seed=seed, matrix=seed.matrix, assignment=assignment)


def exchange(state: LabeledSeedState, k: int) -> MultiPoly:
    """The exchange relation in direction k on the current assignment.

    The division by the outgoing variable is exact or raises
    LaurentViolation."""
    n = state.seed.n
    if not 0 <= k < n:
        raise IndexError(f"exchange direction {k} out of range 0..{n - 1}")
    row = state.matrix[k]
    plus = [state.variable(t) ** b for t, b in enumerate(row) if b > 0]
    minus = [state.variable(t) ** -b for t, b in enumerate(row) if b < 0]
    one = [_unit(state.seed.labels)]  # the product of no factors
    plus, minus = (reduce(operator.mul, side or one) for side in (plus, minus))
    return (plus + minus) / state.assignment[k]


def mutate_state(state: LabeledSeedState, k: int) -> LabeledSeedState:
    new_value = exchange(state, k)
    assignment = tuple(
        new_value if i == k else v for i, v in enumerate(state.assignment)
    )
    return LabeledSeedState(
        seed=state.seed, matrix=matrix_mutation(state.matrix, k), assignment=assignment
    )


def _automorphisms(seed: Seed) -> list:
    """The automorphisms of seed but the identity, each as the order that
    relabel takes, its first n entries and the sign of each row.

    An automorphism (homs.enumerate_seed_isos) is a label permutation
    sigma with b_{sigma x, sigma y} = eps_x * b_xy, eps constant on each
    component (-1 on an anti-automorphism of it, such as the reversal of
    a path).  As a ring automorphism of Z[x^+-1], sigma takes the
    variable w at the end of a path of mutations from B to the one at
    the end of sigma's path from B', where b'_{sigma x, sigma y} = b_xy,
    and w's g-vector for B to that one's for B'.  M+ + M- does not
    change when b flips sign, so B, -B and B' have the same exchange
    relations: sigma(w) is a variable of B, at the same depth.  On its
    component, that of sigma(x_k) for the slot k that w was computed in,
    B' is eps_k * B, so its g-vector for B is sigma applied to w's for B
    if eps_k = 1 and for -B if eps_k = -1.  GHKK (JAMS 2018) holds for -B
    as for B, and Fomin-Zelevinsky IV, Thm 3.7 carries both to geometric
    coefficients.  The automorphisms are read lazily, and a seed with
    more than MAX_AUTOMORPHISMS (one label and ten zero frozen columns
    have 10!) is searched with none.
    """
    identity = tuple(range(len(seed.labels)))
    isos = list(itertools.islice(enumerate_seed_isos(seed, seed), MAX_AUTOMORPHISMS + 1))
    if len(isos) > MAX_AUTOMORPHISMS:
        return []
    rows = seed.matrix
    found = []
    # p[t]: the position of the image of label t
    for p in (tuple(map(seed.index, iso.mapping)) for iso in isos):
        if p != identity:
            order = tuple(sorted(identity, key=p.__getitem__))
            signs = [1 if tuple(map(rows[p[k]].__getitem__, p)) == r else -1 for k, r in enumerate(rows)]
            found.append((order, order[: seed.n], signs))
    return found


def _exchanged_g_vector(row, gs, k: int) -> tuple[int, ...]:
    """The g-vector of the variable that replaces slot k.

    row is row k of a labeled seed with the c-vector of slot k as its
    last n entries (the c-rows start as the identity and are mutated
    with the rows), and gs the g-vectors of its n slots.  With eps the
    sign of c-vector k, the new g-vector is -g_k + sum_t [-eps * b_kt]_+
    g_t over the exchangeable t (Nakanishi-Zelevinsky 2012).  A c-vector
    with entries of both signs contradicts sign-coherence
    (Derksen-Weyman-Zelevinsky 2010, Gross-Hacking-Keel-Kontsevich 2018)
    and raises TheoremViolation."""
    n = len(gs)
    c = row[-n:]
    lo, hi = min(c), max(c)
    if lo < 0 < hi:
        raise TheoremViolation(f"c-vector {c} of slot {k} is not sign-coherent")
    eps = 1 if hi > 0 else -1
    g = [-v for v in gs[k]]
    for t in range(n):
        m = -eps * row[t]
        if m > 0:
            g = [a + m * v for a, v in zip(g, gs[t])]
    return tuple(g)


@dataclass
class ClusterEnumeration:
    clusters: list[frozenset[MultiPoly]]
    status: str  # "closed" | "truncated"


def enumerate_clusters(
    seed: Seed, max_depth: int, max_states: int = 100_000
) -> ClusterEnumeration:
    """Breadth-first search over unordered clusters up to max_depth.

    A seed of geometric type is determined by its cluster (conjectured
    by Fomin-Zelevinsky, Compositio 2007, Conj. 4.14; proved by
    Gekhtman-Shapiro-Vainshtein, Math. Res. Lett. 2008), so the search
    keeps one labeled state per cluster, the first that reached it, and
    the set of its slots whose exchange is known to land on a cluster
    already found.  Mutation is an involution, so a cluster reached in
    direction k starts with {k}, and an exchange that lands on a known
    cluster adds to that cluster's set the slot holding the new
    variable.  Each edge of the exchange graph is taken once, so a
    closed search takes n * N / 2 edges for N clusters.

    Each edge first finds the g-vector of the variable it brings in
    (_exchanged_g_vector) from the c-rows and g-vectors on the frontier
    entry of its state, and takes a known g-vector's variable from one
    dict.  With principal coefficients the g-vector determines the
    variable (Gross-Hacking-Keel-Kontsevich, JAMS 2018, for
    skew-symmetrizable seeds; any other raises SeedError), and the
    separation formula (Fomin-Zelevinsky, Cluster algebras IV,
    Compositio 2007, Thm 3.7) carries that to any geometric
    coefficients, where a variable is given by its g-vector and its
    F-polynomial.  The rule needs sign-coherent c-vectors
    (Derksen-Weyman-Zelevinsky, JAMS 2010; GHKK 2018), which each edge
    checks.  Only a new g-vector computes its variable, and stores in
    the same dict its image under each automorphism of the seed, by
    relabel, under the image's g-vector if that is new (see
    _automorphisms).  An anti-automorphism needs g-vectors for -B: then
    the frontier carries those of the slots, and the rows carry the
    c-rows of -B, negated, before their own, as negated they mutate with
    B's rows.  Only a new cluster finds its g-vector for -B, gets its
    rows mutated, the c-rows with them in one matrix_mutation, and its
    labeled state built.  The c-rows and g-vectors live on the frontier
    only, so a kept cluster holds no more than its state and slot set.
    The status is "closed" once a level finds no new cluster within the
    depth, and max_states caps the number of clusters kept.
    """
    require_valid(seed)
    n = seed.n
    start = initial_state(seed)
    # cluster -> (its first labeled state, the slots known to lead back),
    # in the order the clusters were found
    kept = {start.cluster(): (start, set())}
    unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    variables = dict(zip(unit, start.assignment))  # g-vector -> variable
    automorphisms = _automorphisms(seed)
    # a kept entry, then its state's rows with the c-rows appended, the
    # g-vector of each slot and, if an automorphism flips a sign, the
    # g-vector of each slot for -B (else None)
    minus = any(-1 in signs for *_, signs in automorphisms)
    negated = [tuple(-v for v in e) if minus else () for e in unit]
    rows = tuple(row + d + e for row, d, e in zip(seed.matrix, negated, unit))
    width = len(seed.labels)
    frontier = [(*kept[start.cluster()], rows, unit, unit if minus else None)] if n else []
    depth = 0
    while frontier:
        if depth >= max_depth:
            return ClusterEnumeration(list(kept), "truncated")
        depth += 1
        new_frontier = []
        for state, known, rows, gs, hs in frontier:
            for k in range(n):
                if k in known:
                    continue
                g = _exchanged_g_vector(rows[k], gs, k)
                value = variables.get(g)
                fresh = value is None
                if fresh:
                    value = variables[g] = exchange(state, k)
                assignment = state.assignment[:k] + (value,) + state.assignment[k + 1 :]
                c = frozenset(assignment)
                landing = kept.get(c)
                if landing is not None:
                    # the slot holding value in the landing state leads back here
                    landing[1].add(landing[0].assignment.index(value))
                    continue
                if len(kept) >= max_states:
                    return ClusterEnumeration(list(kept), "truncated")
                # a new cluster, as every new variable makes one; its
                # g-vector for -B is read off the c-rows of -B
                h = hs and _exchanged_g_vector(rows[k][:-n], hs, k)
                if fresh:
                    for order, on_slots, signs in automorphisms:
                        image = tuple(map((h if signs[k] < 0 else g).__getitem__, on_slots))
                        if image not in variables:
                            variables[image] = value.relabel(order)
                mutated = matrix_mutation(rows, k)
                # a row that mutation leaves is returned as the same
                # tuple, so its state row is kept as well
                matrix = tuple(
                    row if new is old else new[:width]
                    for row, new, old in zip(state.matrix, mutated, rows)
                )
                kept[c] = entry = (LabeledSeedState(state.seed, matrix, assignment), {k})
                hs_next = hs and hs[:k] + (h,) + hs[k + 1 :]
                new_frontier.append((*entry, mutated, gs[:k] + (g,) + gs[k + 1 :], hs_next))
        frontier = new_frontier
    return ClusterEnumeration(list(kept), "closed")
