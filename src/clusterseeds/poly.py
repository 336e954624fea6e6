"""Exact Laurent-polynomial arithmetic over the initial extended cluster.

By the Laurent phenomenon (Fomin-Zelevinsky, "Cluster algebras I",
2002) every cluster variable lies in Z[x^+-1], so one type serves for
all of them: a dictionary from signed exponent vectors to integer
coefficients.  Division shifts each operand by its own smallest
exponents and divides exactly; a quotient outside Z[x^+-1] raises
``LaurentViolation`` and aborts the run instead of returning a wrong
value.
"""

from __future__ import annotations

import heapq
import operator
import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain

from .errors import LaurentViolation, ResourceCapExceeded
from .seeds import ExtendedExchangeMatrix, Seed, matrix_mutation

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


def _grlex_key(exponents):
    return (sum(exponents), exponents)


def _max_abs(terms) -> int:
    return max(map(abs, chain.from_iterable(terms)), default=0)


class _Packing:
    """Exponent vectors of length n packed into ints.

    The key of e is sum(e) in the top field and e[0], ..., e[n-1] below
    it, each in a signed field of ``bits`` bits.  While every exponent
    lies in (-2**(bits-1), 2**(bits-1)), key order is grlex order and the
    key of a product of monomials is the sum of their keys.  The total
    degree sits in the unbounded top field, so it never overflows.
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


@lru_cache(maxsize=64)
def _packing_of_width(n: int, bits: int, fmt: str) -> _Packing:
    return _Packing(n, bits, fmt)


def _packing(n: int, bound: int) -> _Packing:
    """The packing for n exponents of absolute value at most bound."""
    for bits, fmt in ((8, "b"), (16, "h"), (32, "i"), (64, "q")):
        if bound < 1 << (bits - 1):
            return _packing_of_width(n, bits, fmt)
    raise ResourceCapExceeded(f"exponent bound {bound} does not fit a 64-bit field")


class MultiPoly:
    """Integer Laurent polynomial in the ordered variables of an extended cluster."""

    __slots__ = ("context", "terms", "_hash")

    def __init__(self, context: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        self.context = context
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None

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

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.context == other.context and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.context, tuple(sorted(self.terms.items()))))
        return self._hash

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.context, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        p = _packing(len(self.context), _max_abs(self.terms) + _max_abs(other.terms))
        right = [(p.pack(e), c) for e, c in other.terms.items()]
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            k1 = p.pack(e1)
            for k2, c2 in right:
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        if len(out) > MAX_TERMS:
            raise ResourceCapExceeded(
                f"polynomial exceeded {MAX_TERMS} terms", partial_count=len(out)
            )
        return MultiPoly(self.context, {p.unpack(k): c for k, c in out.items() if c})

    def __truediv__(self, other: "MultiPoly") -> "MultiPoly":
        """The exact quotient in Z[x^+-1]; LaurentViolation if there is none."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return self
        quot = self._divide(other, self.min_exponents(), other.min_exponents())
        if quot is None:
            raise LaurentViolation("the quotient is not a Laurent polynomial")
        return quot

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            return MultiPoly.constant(self.context, 1) / self**-k
        if k == 0:
            return MultiPoly.constant(self.context, 1)
        if k == 1:
            return self
        half = self ** (k >> 1)
        square = half * half
        return square * self if k & 1 else square

    def min_exponents(self) -> tuple[int, ...]:
        its = iter(self.terms)
        first = next(its)
        mins = list(first)
        for e in its:
            for i, v in enumerate(e):
                if v < mins[i]:
                    mins[i] = v
        return tuple(mins)

    def shift(self, exponents) -> "MultiPoly":
        """self times the monomial x^exponents; the exponents may be negative."""
        return MultiPoly(
            self.context,
            {tuple(a + b for a, b in zip(e, exponents)): c for e, c in self.terms.items()},
        )

    def exact_div(self, other: "MultiPoly") -> "MultiPoly | None":
        """Quotient self/other of polynomials over Z if the division is exact, else None."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = (0,) * len(self.context)
        return self._divide(other, zero, zero)

    def _divide(self, other: "MultiPoly", a, b) -> "MultiPoly | None":
        """The exact quotient (self*x^-a) / (other*x^-b), times x^(a-b), or None.

        Sparse heap division (Johnson 1974; Monagan and Pearce, JSC 46,
        2011): the remainder is one dict updated in place, and a max-heap
        of its keys yields the leading term.  A key whose coefficient
        cancels stays in the heap and is skipped when popped.  The
        division fails as soon as a leading coefficient does not divide
        or a quotient exponent would be negative.
        """
        n = len(self.context)
        # With |exponents| <= M in the operands, a and b, the shifted
        # operands lie in [-2M, 2M]; every remainder monomial is then
        # >= -2M in each variable and of total degree <= 2nM, so every
        # exponent met below, the quotient's included, lies in
        # [-4M, (4n+2)M].
        p = _packing(n, (4 * n + 2) * max(_max_abs(self.terms), _max_abs(other.terms)))
        ka, kb = p.pack(a), p.pack(b)
        rem = {p.pack(e) - ka: c for e, c in self.terms.items()}
        heap = [-k for k in rem]
        heapq.heapify(heap)
        divisor = sorted(((p.pack(e) - kb, c) for e, c in other.terms.items()), reverse=True)
        lead, lc = divisor[0]
        tail = divisor[1:]
        quot: dict[int, int] = {}
        while heap:
            key = -heapq.heappop(heap)
            c = rem.pop(key, 0)
            if not c:
                continue
            q, r = divmod(c, lc)
            e = key - lead
            if r or not p.nonnegative(e):
                return None
            quot[e] = q
            for k, gc in tail:
                m = e + k
                v = rem.get(m)
                if v is None:
                    rem[m] = -q * gc
                    heapq.heappush(heap, -m)
                else:
                    v -= q * gc
                    if v:
                        rem[m] = v
                    else:
                        del rem[m]
            if len(rem) > MAX_TERMS:
                raise ResourceCapExceeded(
                    f"division remainder exceeded {MAX_TERMS} terms", partial_count=len(rem)
                )
        shift = ka - kb
        return MultiPoly(self.context, {p.unpack(e + shift): c for e, c in quot.items()})

    def _den_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * len(self.context)
        return tuple(max(0, -v) for v in self.min_exponents())

    @property
    def den(self) -> "MultiPoly":
        """The monomial x^d, d_i = max(0, -min_i), that clears every negative exponent."""
        return MultiPoly(self.context, {self._den_exponents(): 1})

    @property
    def num(self) -> "MultiPoly":
        """The polynomial self * den."""
        return self.shift(self._den_exponents())

    def __str__(self) -> str:
        """A polynomial as is, else num/den, e.g. (x1 + x2 + 1)/x1*x2."""
        if not self.terms:
            return "0"
        d = self._den_exponents()
        if any(d):
            num = str(self.shift(d))
            if len(self.terms) > 1:
                num = f"({num})"
            return f"{num}/{MultiPoly(self.context, {d: 1})}"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = [
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.context, e)
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

    __repr__ = __str__


@dataclass(frozen=True)
class LabeledSeedState:
    """A labeled seed reached from the base seed by mutations.

    Exchangeable slot i currently holds assignment[i]; frozen slots
    always hold their own generator.
    """

    seed: Seed
    matrix: ExtendedExchangeMatrix
    assignment: tuple[MultiPoly, ...]

    def cluster(self) -> frozenset[MultiPoly]:
        return frozenset(self.assignment)

    def variable(self, t: int) -> MultiPoly:
        """Current value of column t (exchangeable slot or frozen generator)."""
        if t < self.seed.n:
            return self.assignment[t]
        return MultiPoly.generator(self.seed.labels, self.seed.labels[t])


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
    n = state.matrix.n
    if not 0 <= k < n:
        raise IndexError(f"exchange direction {k} out of range 0..{n - 1}")
    row = state.matrix.entries[k]
    plus = [state.variable(t) ** b for t, b in enumerate(row) if b > 0]
    minus = [state.variable(t) ** -b for t, b in enumerate(row) if b < 0]
    one = [MultiPoly.constant(state.seed.labels, 1)]  # the product of no factors
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
    keeps one labeled state per cluster: the first that reached it,
    with the direction k that did.  Mutation is an involution, so
    direction k only leads back to the parent and is skipped.  The
    status is "closed" once a level finds no new cluster within the
    depth, and max_states caps the number of clusters kept.
    """
    start = initial_state(seed)
    clusters = {start.cluster()}
    order = [start.cluster()]
    frontier = [(start, None)] if seed.n else []
    depth = 0
    while frontier:
        if depth >= max_depth:
            return ClusterEnumeration(order, "truncated")
        depth += 1
        new_frontier = []
        for state, back in frontier:
            for k in range(seed.n):
                if k == back:
                    continue
                nxt = mutate_state(state, k)
                c = nxt.cluster()
                if c in clusters:
                    continue
                if len(clusters) >= max_states:
                    return ClusterEnumeration(order, "truncated")
                clusters.add(c)
                order.append(c)
                new_frontier.append((nxt, k))
        frontier = new_frontier
    return ClusterEnumeration(order, "closed")
