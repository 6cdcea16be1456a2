"""Dense univariate polynomial arithmetic over a pluggable coefficient domain.

Polynomials are plain Python lists of coefficients, constant term
first, with no trailing zeros; the zero polynomial is the empty list.
Every function takes the coefficient domain as its first argument.  A
domain provides zero, one, add, sub, neg, mul, is_unit, inv and
from_int; GaloisRing, GaloisField and the Z4 singleton below all
qualify, so the same code serves R[z], K[z] and Z4[x].

Truncated power series are ordinary polynomials carried together with
an explicit truncation order at the call site (see series_inverse).
"""

from __future__ import annotations

__all__ = [
    "Z4",
    "poly_strip", "poly_deg", "poly_coeff",
    "poly_add", "poly_sub", "poly_scale", "poly_mul",
    "poly_divmod", "poly_eval", "poly_shift",
    "derivative", "series_inverse", "root_multiplicity",
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


def poly_deg(f: list) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def poly_coeff(dom, f: list, k: int):
    return f[k] if 0 <= k < len(f) else dom.zero


def poly_add(dom, f: list, g: list) -> list:
    n = max(len(f), len(g))
    return poly_strip([dom.add(poly_coeff(dom, f, i), poly_coeff(dom, g, i))
                       for i in range(n)])


def poly_sub(dom, f: list, g: list) -> list:
    n = max(len(f), len(g))
    return poly_strip([dom.sub(poly_coeff(dom, f, i), poly_coeff(dom, g, i))
                       for i in range(n)])


def poly_scale(dom, c, f: list) -> list:
    return poly_strip([dom.mul(c, a) for a in f])


def poly_mul(dom, f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [dom.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = dom.add(out[i + j], dom.mul(a, b))
    return poly_strip(out)


def poly_shift(dom, f: list, k: int) -> list:
    """Multiply by z^k."""
    return [dom.zero] * k + f if f else []


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


def derivative(dom, f: list) -> list:
    """Formal derivative; integer multiples land back in the domain."""
    return poly_strip([dom.mul(dom.from_int(k), c) for k, c in enumerate(f)][1:])


def series_inverse(dom, f: list, order: int) -> list:
    """h with f*h = 1 mod z^order, by the standard coefficient recurrence.

    Requires a unit constant term.
    """
    if not f or not dom.is_unit(f[0]):
        raise ValueError("series inverse needs a unit constant term")
    c0inv = dom.inv(f[0])
    h = [c0inv]
    for k in range(1, order):
        acc = dom.zero
        for i in range(1, min(k, len(f) - 1) + 1):
            acc = dom.add(acc, dom.mul(f[i], h[k - i]))
        h.append(dom.neg(dom.mul(c0inv, acc)))
    return poly_strip(h)


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
