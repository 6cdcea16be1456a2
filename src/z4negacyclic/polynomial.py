"""Dense univariate polynomial arithmetic over Z4.

Polynomials are plain Python lists of coefficients, constant term
first, with no trailing zeros; the zero polynomial is the empty list.
poly_mul multiplies Z4 digit lists (graeffe_lift's p(x) p(-x), the
binary minimal polynomials that build_code multiplies and reduces
mod 2 into the generator's one lift, codewords); the tests keep the
domain-generic product in tests/oracles.py as its reference.
poly_divmod still takes a coefficient domain, the Z4 singleton below
being the package's only one, because the benchmark harness calls
poly_divmod(Z4, ...) (ROADMAP item 3, then item 5).  The decoder takes
only poly_strip: its stages pass GF(2^m) int lists (see keyeq, solver
and decoder).
"""

from __future__ import annotations

import numpy as np

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


def poly_mul(f: list, g: list) -> list:
    """The product over Z4 as one integer convolution reduced mod 4:
    exact, as each coefficient sums at most min(len f, len g) digit
    products, each at most 9."""
    if not f or not g:
        return []
    return poly_strip((np.convolve(f, g) & 3).tolist())


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
