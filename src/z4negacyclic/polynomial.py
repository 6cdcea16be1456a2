"""Dense univariate polynomial arithmetic over a pluggable coefficient domain.

Polynomials are plain Python lists of coefficients, constant term
first, with no trailing zeros; the zero polynomial is the empty list.
Every function takes the coefficient domain as its first argument.  A
domain provides zero, one, add, sub, neg, mul, is_unit, inv and
from_int.  The package's only domain is the Z4 singleton below; the
tests supply domains over R and K, which run their reference routines
over R[z] and K[z] through the same code.

The decoder's arithmetic does not come through here: its stages pass
polynomials as GF(2^m) int lists (see keyeq, solver and decoder), and
it takes only poly_strip.  What remains serves code construction and
encoding, all over Z4: products (graeffe_lift's squares, the product
of the generator's Graeffe lifts, codewords) and division.
"""

from __future__ import annotations

__all__ = [
    "Z4",
    "poly_strip", "poly_mul", "poly_divmod",
]


class _Z4Domain:
    """The integers mod 4 as a coefficient domain; elements are ints."""

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % 4

    def sub(self, a, b):
        return (a - b) % 4

    def neg(self, a):
        return (-a) % 4

    def mul(self, a, b):
        return a * b % 4

    def is_unit(self, a):
        return a % 2 == 1

    def inv(self, a):
        if a % 2 == 0:
            raise ZeroDivisionError(f"{a} is not a unit mod 4")
        return a % 4  # 1 and 3 are self-inverse

    def from_int(self, k):
        return k % 4

    def __repr__(self):
        return "Z4"


Z4 = _Z4Domain()


def poly_strip(f: list) -> list:
    """Drop trailing zero coefficients (normal form)."""
    while f and not f[-1]:
        f = f[:-1]
    return f


def poly_mul(dom, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [dom.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = dom.add(out[i + j], dom.mul(a, b))
    return poly_strip(out)


def poly_divmod(dom, f: list, g: list) -> tuple[list, list]:
    """Long division f = q*g + r with deg r < deg g.

    The divisor's leading coefficient must be a unit; division by
    zero-divisor leads is rejected rather than partially defined.
    """
    g = poly_strip(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not dom.is_unit(g[-1]):
        raise ValueError("divisor leading coefficient is not a unit")
    lead_inv = dom.inv(g[-1])
    r = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return [], poly_strip(r)
    q = [dom.zero] * (dq + 1)
    for i in range(dq, -1, -1):
        c = dom.mul(r[i + len(g) - 1], lead_inv)
        q[i] = c
        if c:
            for j, gj in enumerate(g):
                r[i + j] = dom.sub(r[i + j], dom.mul(c, gj))
    return poly_strip(q), poly_strip(r)
