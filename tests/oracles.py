"""Independent reference computations that the tests compare the library with.

Each oracle is a second, slower way to get a result the library
computes; it lives here, not in the library, because no command needs
it.
"""

from clusterseeds import MultiPoly


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
