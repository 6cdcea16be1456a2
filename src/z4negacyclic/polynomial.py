"""Dense univariate polynomial arithmetic over a pluggable coefficient domain.

Polynomials are plain Python lists of coefficients, constant term
first, with no trailing zeros; the zero polynomial is the empty list.
Every function takes the coefficient domain as its first argument.  A
domain provides zero, one, add, sub, neg, mul, is_unit, inv and
from_int; GaloisRing, GaloisField and the Z4 singleton below all
qualify, so the same code serves R[z], K[z] and Z4[x].

The decoder's per-word arithmetic does not come through here: its
stages pass polynomials as GF(2^m) int lists (see keyeq, solver and
decoder).  What remains serves code construction (products over R and
Z4, division over Z4) and the one exact root multiplicity the decoder
still computes, when its root sweep finds a residue-locator root of
multiplicity three or more and the failure reason names the number.
"""

from __future__ import annotations

__all__ = [
    "Z4",
    "poly_strip", "poly_mul",
    "poly_divmod", "poly_eval", "root_multiplicity",
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


def poly_eval(dom, f: list, x):
    """Horner evaluation."""
    acc = dom.zero
    for c in reversed(f):
        acc = dom.add(dom.mul(acc, x), c)
    return acc


def root_multiplicity(dom, f: list, c) -> int:
    """Largest k with (z - c)^k dividing f, by repeated synthetic division."""
    f = poly_strip(list(f))
    if not f:
        raise ValueError("multiplicity in the zero polynomial is undefined")
    linear = [dom.neg(c), dom.one]
    k = 0
    while f and not poly_eval(dom, f, c):
        f, rem = poly_divmod(dom, f, linear)
        assert not rem
        k += 1
    return k
