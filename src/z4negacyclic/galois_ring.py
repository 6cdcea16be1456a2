"""Exact arithmetic in the Galois ring GR(4,m) = Z4[x]/<h(x)>.

h is the Graeffe lift of a primitive polynomial of degree m over GF(2)
(GaloisRing builds h as the lift), so h is basic irreducible, its root
[x] is the Teichmuller lift of x, and the quotient R is a local ring
with maximal ideal 2R and residue field K = GF(2^m).  Residue field
elements are plain ints whose bits are the GF(2) coefficients (bit i =
coefficient of x^i), in the style of most GF(2^m) libraries; the
GaloisField object carries the modulus and the log/antilog tables.

Ring elements use the 2-adic (Teichmuller) form: every element of R is
uniquely tau(a) + 2 tau(b) with a, b in K, where tau lifts K onto the
Teichmuller set {0} u {roots of unity of order dividing 2^m - 1}.
Products, sums, negations and inverses are closed formulas in a and b
(see RingElement), so each ring operation costs a few GF(2^m) table
lookups.  The Z4 coefficient vector of an element (constant term
first, reduced modulo h) is its external form: GaloisRing.pair and
GaloisRing.digits convert between it and the pair.

The decoder's per-word stages (syndromes, keyeq's odd-ratio recursion
and series inverse, the solver, the locators and the +-1 resolution)
build no RingElement: they pass every polynomial over R as its two
int lists (a, b) and run the same formulas inline on the ring's
shared tables `_log`, `_exp` and `_hlog`.  Ring and code construction
work the same way: the digit corrections, the negacyclic root and
the code's tables come from pairs, and a code's generator from one
`graeffe_lift`, of the binary BCH generator.  What the package
prints or checks, the decoder's trace strings, the bundled reference
checks and `code-info`, also comes from pairs, through
`GaloisRing.pair_str` and, for an (a, b) list pair, `pair_strs`.
RingElement's operators and inverse and GaloisField.mul stay public:
the tests use them as their oracle, and the benchmark's per-layer
timings time them.

The supported extension degrees are 2 <= m <= 10.  The built-in
modulus table is produced by Graeffe-lifting primitive polynomials
over GF(2), which makes [x] a generator of the Teichmuller group; the
table entries for m = 2 and m = 4 are x^2+x+1 and x^4+2x^2+3x+1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .polynomial import poly_mul

__all__ = [
    "GaloisRing",
    "RingElement",
    "GaloisField",
    "make_ring",
    "graeffe_lift",
    "negacyclic_root",
]

# Primitive polynomials over GF(2), constant term first.
_PRIMITIVE_GF2 = {
    2: [1, 1, 1],
    3: [1, 1, 0, 1],
    4: [1, 1, 0, 0, 1],
    5: [1, 0, 1, 0, 0, 1],
    6: [1, 1, 0, 0, 0, 0, 1],
    7: [1, 0, 0, 1, 0, 0, 0, 1],
    8: [1, 0, 1, 1, 1, 0, 0, 0, 1],
    9: [1, 0, 0, 0, 1, 0, 0, 0, 0, 1],
    10: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
}


def graeffe_lift(p: list[int]) -> list[int]:
    """The Graeffe (Hensel) lift of a GF(2) polynomial to Z4.

    Input is any monic polynomial over GF(2) with p(0) = 1, as a 0/1
    coefficient list (constant first).  The result is the monic f over
    Z4 with f(x^2) = +-p(x) p(-x), reading p over Z4: e(x)^2 - o(x)^2
    for the even and odd parts e, o of p.  f == p mod 2, as f(x^2) =
    p(x)^2 = p(x^2) mod 2, so f is basic irreducible exactly when p is
    irreducible.  The lift is multiplicative, as p(x) p(-x) is and both
    sides are monic.  For p squarefree, f's roots are the Teichmuller
    lifts of p's roots; for p irreducible of degree d, f divides
    x^(2^d - 1) - 1 over Z4.
    """
    if any(b not in (0, 1) for b in p):
        raise ValueError("coefficients must be 0 or 1")
    if not p or p[0] != 1 or p[-1] != 1:
        raise ValueError("expected a monic GF(2) polynomial with nonzero constant term")
    prod = poly_mul(p, [-c % 4 if i & 1 else c for i, c in enumerate(p)])
    assert not any(prod[1::2])
    f = prod[::2]
    if f[-1] == 3:
        f = [(-c) % 4 for c in f]
    assert f[-1] == 1
    assert all((fc - pc) % 2 == 0 for fc, pc in zip(f, p))
    return f


class GaloisField:
    """GF(2^m) with int elements; bit i of an element is the x^i coefficient.

    Products go through tables built once from the powers of x, so the
    modulus, whose degree is m, must be primitive (x of order 2^m - 1);
    the residue of every GaloisRing is.  The tables, which GaloisRing
    shares for its element arithmetic:
    - `log`: discrete log, with the sentinel 2(2^m - 1) for 0;
    - `exp`: antilog over two periods, then zeros, so that a sum of
      two logs needs no reduction and any sum with the sentinel reads 0;
    - `exp_array`: `exp` as a read-only int64 array, for the decoder's
      root sweep over all n points at once;
    - `hlog`: the log of the square root (the sentinel for 0).
    """

    def __init__(self, modulus_bits: int):
        m = modulus_bits.bit_length() - 1
        if m < 1:
            raise ValueError(f"modulus {modulus_bits:#b} must have degree at least 1")
        self.m = m
        self.modulus_bits = modulus_bits
        self.size = 1 << m
        order = self.size - 1
        zero_log = 2 * order
        exp = [0] * order
        log = [zero_log] * self.size
        a = 1
        for i in range(order):
            exp[i] = a
            log[a] = i
            a <<= 1
            if a & self.size:
                a ^= modulus_bits
        if a != 1 or len(set(exp)) != order:
            raise ValueError(f"x is not primitive modulo {modulus_bits:#b}; "
                             "the log tables need a primitive modulus")
        self.order = order
        self.exp = exp + exp + [0] * (zero_log + 1)
        self.exp_array = np.array(self.exp, dtype=np.int64)
        self.exp_array.setflags(write=False)
        self.log = log
        half = (order + 1) // 2  # the inverse of 2 mod order
        self.hlog = [zero_log] + [lg * half % order for lg in log[1:]]

    def __eq__(self, other):
        return isinstance(other, GaloisField) and self.modulus_bits == other.modulus_bits

    def __hash__(self):
        return hash(("GaloisField", self.modulus_bits))

    def __repr__(self):
        return f"GaloisField(m={self.m})"

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]


_new = object.__new__


def _make(ring: "GaloisRing", a: int, b: int) -> "RingElement":
    """The element tau(a) + 2 tau(b); a and b must be field elements."""
    el = _new(RingElement)
    _set_ring(el, ring)
    _set_a(el, a)
    _set_b(el, b)
    return el


class RingElement:
    """An element tau(a) + 2 tau(b) of GR(4,m), held as the pair (a, b).

    a and b are GF(2^m) elements (bit-packed ints) and tau is the
    Teichmuller lift; a is the residue, and the element is a unit
    exactly when a != 0.  Every ring operation is a closed formula over
    GF(2^m), read off the tables of the ring:

        (a, b) * (c, d) = (ac, ad + bc)
        (a, b) + (c, d) = (a + c, b + d + sqrt(ac))
        -(a, b) = (a, a + b),   (a, b)^-1 = (a^-1, b a^-2)

    The sum uses the carry identity tau(x) + tau(y) = tau(x + y) +
    2 tau(sqrt(xy)).  The Z4 digits in the polynomial basis (`coeffs`)
    are converted on demand.  Elements are immutable; they
    hash and compare by (a, b, modulus).
    """

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: "GaloisRing", coeffs):
        a, b = ring.pair(coeffs)
        _set_ring(self, ring)
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, *a):
        raise AttributeError("RingElement is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Z4 digits in the polynomial basis, constant term first."""
        return self.ring.digits(self.a, self.b)

    def _coerce(self, other):
        """other as an element of this ring; NotImplemented for other types."""
        if isinstance(other, RingElement):
            if other.ring.modulus != self.ring.modulus:
                raise ValueError("elements belong to different rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        ring = self.ring
        if other.__class__ is not RingElement or other.ring is not ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, c = self.a, other.a
        hlog = ring._hlog
        return _make(ring, a ^ c, self.b ^ other.b ^ ring._exp[hlog[a] + hlog[c]])

    __radd__ = __add__

    def __sub__(self, other):
        ring = self.ring
        if other.__class__ is not RingElement or other.ring is not ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # self + (c, c + d)
        a, c = self.a, other.a
        hlog = ring._hlog
        return _make(ring, a ^ c, self.b ^ c ^ other.b ^ ring._exp[hlog[a] + hlog[c]])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(self.ring, self.a, self.a ^ self.b)

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not RingElement or other.ring is not ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        log, exp = ring._log, ring._exp
        la, lc = log[self.a], log[other.a]
        return _make(ring, exp[la + lc], exp[la + log[other.b]] ^ exp[log[self.b] + lc])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.a == other.a and self.b == other.b
                and self.ring.modulus == other.ring.modulus)

    def __hash__(self):
        return hash((self.a, self.b, self.ring.modulus))

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return f"RingElement({list(self.coeffs)})"

    def inverse(self) -> "RingElement":
        """Multiplicative inverse; raises for elements of 2R.

        tau(a) + 2 tau(b) = tau(a) (1 + 2 tau(b/a)), and 1 + 2y is its
        own inverse.
        """
        if not self.a:
            raise ZeroDivisionError("element is not a unit (residue is zero)")
        ring = self.ring
        q, log, exp = ring._field.order, ring._log, ring._exp
        la = log[self.a]
        return _make(ring, exp[q - la], exp[log[self.b] + (-2 * la) % q])


# RingElement refuses attribute assignment; construction writes its slots
_set_ring, _set_a, _set_b = (RingElement.ring.__set__, RingElement.a.__set__,
                            RingElement.b.__set__)


def _digit_corrections(field: GaloisField) -> list[int]:
    """corr with P(c) = tau(c) + 2 tau(corr[c]) for every c in GF(2^m),
    where P(c) is the element whose Z4 digits are the bits of c.

    h is a Graeffe lift, so [x]^i = tau(x^i) and P(c) is the sum of the
    tau(x^i) over the bits i of c: corr holds its carries, one top bit
    at a time, as tau(rest) + tau(top) = tau(c) + 2 tau(sqrt(rest top)).
    """
    exp, hlog = field.exp, field.hlog
    corr = [0] * field.size
    for c in range(1, field.size):
        top = 1 << (c.bit_length() - 1)
        rest = c ^ top
        corr[c] = corr[rest] ^ exp[hlog[rest] + hlog[top]]
    return corr


class GaloisRing:
    """GR(4,m) = Z4[x]/(h) from the primitive GF(2) polynomial `residue`
    (a 0/1 list, constant term first): h is its Graeffe lift, so [x] is
    tau(x), and the residue field is GF(2)[x]/(residue), whose table
    build refuses a residue in which x is not primitive.

    `_log`, `_exp` and `_hlog` are the residue field's `log`, `exp` and
    `hlog` lists (see GaloisField); `_corr` is the digit correction that
    converts between the Z4 digits of an element and its (a, b) pair.
    The int-pair kernels of keyeq, solver and decoder read these tables
    directly.

    `pair` and `digits` are the one rule between an element's Z4 digits
    and its pair, one direction each, and `pair_str` prints a pair in
    the digit form the CLI documents (`pair_strs` each entry of an
    (a, b) list pair).  The package prints and checks
    elements through them, straight from the pairs.
    """

    def __init__(self, residue: list[int]):
        m = len(residue) - 1
        if m < 2:
            raise ValueError("modulus must have degree at least 2")
        self.m = m
        self.modulus = tuple(graeffe_lift(residue))
        self._field = field = GaloisField(sum(c << i for i, c in enumerate(residue)))
        self._log, self._exp, self._hlog = field.log, field.exp, field.hlog
        self._corr = _digit_corrections(field)

        self.zero = _make(self, 0, 0)
        self.one = _make(self, 1, 0)
        self.two = _make(self, 0, 1)
        self._small = (self.zero, self.one, self.two, -self.one)

    def __eq__(self, other):
        return isinstance(other, GaloisRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("GaloisRing", self.modulus))

    def __repr__(self):
        return f"GaloisRing(m={self.m}, modulus={list(self.modulus)})"

    def element(self, coeffs) -> RingElement:
        return RingElement(self, coeffs)

    def from_int(self, k: int) -> RingElement:
        return self._small[k % 4]

    # ring.from_pair(a, b): the element tau(a) + 2 tau(b) of GF(2^m) ints a, b
    from_pair = _make

    def digits(self, a: int, b: int) -> tuple[int, ...]:
        """The Z4 digits of tau(a) + 2 tau(b), constant term first: the
        low bits are a, the high bits b + corr[a]."""
        high = b ^ self._corr[a]
        return tuple((a >> i & 1) | (high >> i & 1) << 1 for i in range(self.m))

    def pair(self, coeffs) -> tuple[int, int]:
        """The pair (a, b) of the element with the m Z4 digits coeffs,
        constant term first: the inverse of digits."""
        coeffs = [int(c) % 4 for c in coeffs]
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(coeffs)}")
        low = high = 0
        for i, c in enumerate(coeffs):
            low |= (c & 1) << i
            high |= (c >> 1) << i
        # digits low + 2 high = tau(low) + 2 tau(corr[low]) + 2 tau(high)
        return low, high ^ self._corr[low]

    def pair_str(self, a: int, b: int) -> str:
        """tau(a) + 2 tau(b) as comma-separated Z4 digits, constant term first."""
        return ",".join(map(str, self.digits(a, b)))

    def pair_strs(self, poly: tuple[list, list]) -> list[str]:
        """pair_str of each entry of a polynomial or sequence held as its
        (a, b) int lists."""
        return [self.pair_str(a, b) for a, b in zip(*poly)]

    def residue_field(self) -> GaloisField:
        return self._field


@lru_cache(maxsize=None)
def make_ring(m: int) -> GaloisRing:
    """GR(4,m) over the built-in modulus for m (2 <= m <= 10): the
    Graeffe lift of the table's primitive binary polynomial."""
    if not 2 <= m <= 10:
        raise ValueError(f"unsupported extension degree m={m}; supported range is 2..10")
    return GaloisRing(_PRIMITIVE_GF2[m])


def negacyclic_root(ring: GaloisRing, n: int) -> tuple[int, int]:
    """The pair (a, b) of a root alpha with alpha^n = -1 and
    multiplicative order 2n.

    Requires n odd and dividing 2^m - 1; alpha is -beta for the
    canonical Teichmuller generator's power beta of order exactly n.
    beta = tau(b) with b = x^((2^m - 1)/n), so alpha = -(b, 0) = (b, b).
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n={n}: negacyclic roots exist only for odd n")
    full = (1 << ring.m) - 1
    if full % n != 0:
        raise ValueError(f"n={n} does not divide 2^m-1={full}")
    b = ring._exp[full // n]
    return b, b
