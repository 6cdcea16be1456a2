"""Exact arithmetic in the Galois ring GR(4,m) = Z4[x]/<h(x)>.

Ring elements are dense coefficient vectors over Z4 (constant term
first), reduced modulo a monic basic irreducible polynomial h of
degree m.  "Basic irreducible" means h stays irreducible after
reducing its coefficients mod 2; the quotient is then a local ring
with maximal ideal 2R and residue field K = GF(2^m).

Residue field elements are plain ints whose bits are the GF(2)
coefficients (bit i = coefficient of x^i), in the style of most
GF(2^m) libraries; the GaloisField object carries the modulus and the
arithmetic.  The zero element of R is the all-zero vector and every
element has a unique representation, so == on elements is exact.

The supported extension degrees are 2 <= m <= 10.  The built-in
modulus table is produced by Graeffe-lifting primitive polynomials
over GF(2), which makes [x] a generator of the Teichmuller group; the
table entries for m = 2 and m = 4 are x^2+x+1 and x^4+2x^2+3x+1.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

__all__ = [
    "GaloisRing",
    "RingElement",
    "GaloisField",
    "make_ring",
    "graeffe_lift",
    "negacyclic_root",
    "MODULUS_TABLE_ENV",
]

MODULUS_TABLE_ENV = "Z4NEGACYCLIC_MODULI"

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


def _gf2_is_irreducible(bits: list[int]) -> bool:
    """Exhaustive irreducibility test over GF(2) (fine for degree <= 16)."""
    deg = len(bits) - 1
    if deg < 1 or bits[-1] != 1:
        return False
    p = sum(b << i for i, b in enumerate(bits))

    def mod2(a, d):
        da, dd = a.bit_length() - 1, d.bit_length() - 1
        while da >= dd:
            a ^= d << (da - dd)
            da = a.bit_length() - 1
        return a

    for ddeg in range(1, deg // 2 + 1):
        for low in range(1 << ddeg):
            divisor = (1 << ddeg) | low
            if mod2(p, divisor) == 0:
                return False
    return True


def graeffe_lift(p: list[int]) -> list[int]:
    """Lift an irreducible GF(2) polynomial to its basic irreducible over Z4.

    Input is a monic polynomial over GF(2) with p(0) = 1, as a 0/1
    coefficient list (constant first).  The result f is the monic
    polynomial over Z4 whose roots are the Teichmuller lifts of the
    squares of p's roots: with e, o the even and odd parts of p read
    over Z4, f(x^2) = +-(e(x)^2 - o(x)^2), sign chosen to make f
    monic.  Since squaring permutes the conjugate roots, f == p mod 2
    and f divides x^(2^deg - 1) - 1 over Z4.
    """
    if not p or p[0] != 1 or p[-1] != 1:
        raise ValueError("expected a monic GF(2) polynomial with nonzero constant term")
    if any(b not in (0, 1) for b in p):
        raise ValueError("coefficients must be 0 or 1")
    if not _gf2_is_irreducible(p):
        raise ValueError("polynomial is reducible over GF(2)")
    deg = len(p) - 1
    even = [c if i % 2 == 0 else 0 for i, c in enumerate(p)]
    odd = [c if i % 2 == 1 else 0 for i, c in enumerate(p)]

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % 4
        return out

    e2 = times(even, even)
    o2 = times(odd, odd)
    diff = [0] * (2 * deg + 1)
    for i, c in enumerate(e2):
        diff[i] = c
    for i, c in enumerate(o2):
        diff[i] = (diff[i] - c) % 4
    assert all(c == 0 for i, c in enumerate(diff) if i % 2 == 1)
    f = [diff[2 * i] for i in range(deg + 1)]
    if f[-1] == 3:
        f = [(-c) % 4 for c in f]
    assert f[-1] == 1
    assert all((fc - pc) % 2 == 0 for fc, pc in zip(f, p))
    return f


class GaloisField:
    """GF(2^m) with int elements; bit i of an element is the x^i coefficient.

    Multiplication, inversion and powers go through log/antilog tables
    built once from the powers of x, so the modulus must be primitive
    (x of order 2^m - 1); every GaloisRing modulus is, by its order check.
    """

    def __init__(self, m: int, modulus_bits: int):
        self.m = m
        self.modulus_bits = modulus_bits
        self.size = 1 << m
        self.zero = 0
        self.one = 1
        order = self.size - 1
        exp = [0] * order
        log = [0] * self.size
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
        self.exp = exp + exp  # exp[i + j] for i, j < order needs no reduction
        self.log = log

    def __eq__(self, other):
        return (isinstance(other, GaloisField)
                and (self.m, self.modulus_bits) == (other.m, other.modulus_bits))

    def __hash__(self):
        return hash(("GaloisField", self.m, self.modulus_bits))

    def __repr__(self):
        return f"GaloisField(m={self.m})"

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        if a and b:
            return self.exp[self.log[a] + self.log[b]]
        return 0

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("0 is not invertible in GF(2^m)")
            return 0 if n else 1
        return self.exp[self.log[a] * n % self.order]

    def is_unit(self, a: int) -> bool:
        return a != 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in GF(2^m)")
        return self.exp[self.order - self.log[a]]

    def from_int(self, k: int) -> int:
        return k & 1

    def element_coeffs(self, a: int) -> tuple[int, ...]:
        """Bit vector of an element, constant term first."""
        return tuple((a >> i) & 1 for i in range(self.m))


class RingElement:
    """An element of GR(4,m): immutable Z4 coefficient vector plus its ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "GaloisRing", coeffs):
        coeffs = tuple(int(c) % 4 for c in coeffs)
        if len(coeffs) != ring.m:
            raise ValueError(f"expected {ring.m} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _make(cls, ring: "GaloisRing", coeffs: tuple) -> "RingElement":
        # fast path for arithmetic results: coefficients already reduced
        el = object.__new__(cls)
        object.__setattr__(el, "ring", ring)
        object.__setattr__(el, "coeffs", coeffs)
        return el

    def __setattr__(self, *a):
        raise AttributeError("RingElement is immutable")

    def _check(self, other) -> "RingElement":
        if not isinstance(other, RingElement):
            if isinstance(other, int):
                return self.ring.from_int(other)
            return NotImplemented
        if other.ring.modulus != self.ring.modulus:
            raise ValueError("elements belong to different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement._make(
            self.ring, tuple((a + b) & 3 for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement._make(
            self.ring, tuple((a - b) & 3 for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RingElement._make(self.ring, tuple((-a) & 3 for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement._make(self.ring, tuple(a * other & 3 for a in self.coeffs))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement._make(self.ring, self.ring._mul_raw(self.coeffs, other.coeffs))

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
                and self.coeffs == other.coeffs
                and self.ring.modulus == other.ring.modulus)

    def __hash__(self):
        return hash((self.coeffs, self.ring.modulus))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"RingElement({list(self.coeffs)})"

    def is_unit(self) -> bool:
        """Units are exactly the elements outside 2R."""
        return any(c % 2 for c in self.coeffs)

    def inverse(self) -> "RingElement":
        """Multiplicative inverse; raises for elements of 2R."""
        if not self.is_unit():
            raise ZeroDivisionError("element is not a unit (residue is zero)")
        cached = self.ring._inv_cache.get(self.coeffs)
        if cached is not None:
            return RingElement._make(self.ring, cached)
        # the unit group has exponent 2 (2^m - 1)
        k = 2 * ((1 << self.ring.m) - 1) - 1
        inv = self ** k
        assert inv * self == self.ring.one
        self.ring._inv_cache[self.coeffs] = inv.coeffs
        return inv

    def residue(self) -> int:
        """Image in the residue field K = GF(2^m), as a bit-packed int."""
        bits = 0
        for i, c in enumerate(self.coeffs):
            bits |= (c & 1) << i
        return bits

    def frobenius(self) -> "RingElement":
        """The ring automorphism a0 + 2 a1 -> a0^2 + 2 a1^2."""
        a0, a1 = self.teichmuller_decompose()
        return a0 * a0 + self.ring.from_int(2) * (a1 * a1)

    def teichmuller_decompose(self) -> tuple["RingElement", "RingElement"]:
        """Write self = a0 + 2 a1 with a0, a1 in the Teichmuller set.

        Squaring m times fixes the Teichmuller component: for a unit
        theta(1+2d) it kills the 1+2d factor, and it sends 2R to 0.
        """
        a0 = self
        for _ in range(self.ring.m):
            a0 = a0 * a0
        rest = self - a0
        assert all(c % 2 == 0 for c in rest.coeffs)
        a1 = RingElement(self.ring, [c // 2 for c in rest.coeffs])
        for _ in range(self.ring.m):
            a1 = a1 * a1
        return a0, a1

    def multiplicative_order(self) -> int:
        """Order in the unit group (raises for non-units)."""
        if not self.is_unit():
            raise ValueError("order is defined for units only")
        group = (1 << self.ring.m) * ((1 << self.ring.m) - 1)
        order = group
        for p in _prime_factors(group):
            while order % p == 0 and self ** (order // p) == self.ring.one:
                order //= p
        return order

    def to_str(self) -> str:
        """Serialize as comma-separated Z4 digits, constant term first."""
        return ",".join(str(c) for c in self.coeffs)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class GaloisRing:
    """GR(4,m) descriptor: extension degree, modulus, and element arithmetic.

    Also implements the coefficient-domain protocol used by the
    polynomial module (zero/one/add/sub/neg/mul/is_unit/inv/from_int).
    """

    def __init__(self, modulus: list[int]):
        modulus = [int(c) % 4 for c in modulus]
        m = len(modulus) - 1
        if m < 2:
            raise ValueError("modulus must have degree at least 2")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _gf2_is_irreducible([c % 2 for c in modulus]):
            raise ValueError("modulus is not basic irreducible (reducible mod 2)")
        self.m = m
        self.modulus = tuple(modulus)

        # x^(m+i) mod h for i = 0..m-2, used to fold products
        rows = []
        row = [(-c) % 4 for c in modulus[:-1]]
        rows.append(tuple(row))
        for _ in range(m - 2):
            row = [0] + row
            carry = row.pop()
            row = [(a + carry * b) % 4 for a, b in zip(row, rows[0])]
            rows.append(tuple(row))
        self._fold = rows

        self.zero = RingElement(self, [0] * m)
        self.one = RingElement(self, [1] + [0] * (m - 1))
        self.two = RingElement(self, [2] + [0] * (m - 1))
        self.gen = RingElement(self, [0, 1] + [0] * (m - 2))
        self._inv_cache: dict[tuple, tuple] = {}

        order = self.gen.multiplicative_order()
        if order not in ((1 << m) - 1, 2 * ((1 << m) - 1)):
            raise ValueError(
                f"[x] must have order 2^m-1 or 2(2^m-1); got {order}")
        # the odd part of that order is the order of the residue of [x],
        # so x is primitive in the residue field
        self._field = GaloisField(m, sum((c & 1) << i for i, c in enumerate(modulus)))

    def _mul_raw(self, a: tuple, b: tuple) -> tuple:
        m = self.m
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = prod[:m]
        for d in range(m, 2 * m - 1):
            c = prod[d] & 3
            if c:
                fold = self._fold[d - m]
                out = [o + c * f for o, f in zip(out, fold)]
        return tuple(o & 3 for o in out)

    def __eq__(self, other):
        return isinstance(other, GaloisRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("GaloisRing", self.modulus))

    def __repr__(self):
        return f"GaloisRing(m={self.m}, modulus={list(self.modulus)})"

    def element(self, coeffs) -> RingElement:
        return RingElement(self, coeffs)

    def from_int(self, k: int) -> RingElement:
        return RingElement(self, [k % 4] + [0] * (self.m - 1))

    def from_str(self, text: str) -> RingElement:
        return RingElement(self, [int(t) for t in text.split(",")])

    def residue_field(self) -> GaloisField:
        return self._field

    def teichmuller_set(self) -> list[RingElement]:
        """All 2^m Teichmuller representatives, ordered by residue value."""
        out = []
        for bits in range(1 << self.m):
            lift = RingElement(self, [(bits >> i) & 1 for i in range(self.m)])
            theta = lift
            for _ in range(self.m):
                theta = theta * theta
            out.append(theta)
        return out

    def teichmuller_generator(self) -> RingElement:
        """A Teichmuller element of full order 2^m - 1 (deterministic pick)."""
        theta, _ = self.gen.teichmuller_decompose()
        full = (1 << self.m) - 1
        if theta and theta.multiplicative_order() == full:
            return theta
        for theta in self.teichmuller_set():
            if theta and theta.multiplicative_order() == full:
                return theta
        raise AssertionError("Teichmuller group must be cyclic of order 2^m - 1")

    # domain protocol
    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a) -> bool:
        return a.is_unit()

    def inv(self, a):
        return a.inverse()


def _load_modulus_override(m: int):
    """The override entry for m, or None; ValueError on a bad table file."""
    path = os.environ.get(MODULUS_TABLE_ENV)
    if not path:
        return None
    where = f"{MODULUS_TABLE_ENV}={path}"
    try:
        with open(path) as fh:
            table = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{where}: cannot read the file ({exc.strerror})") from None
    except ValueError as exc:
        raise ValueError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(table, dict):
        raise ValueError(f"{where}: expected a JSON object {{\"m\": [digits...]}}")
    entry = table.get(str(m))
    if entry is None:
        return None
    try:
        return [int(c) for c in entry]
    except (TypeError, ValueError):
        raise ValueError(f"{where}: entry for m={m} is not a list of digits") from None


@lru_cache(maxsize=None)
def _builtin_ring(m: int) -> GaloisRing:
    return GaloisRing(graeffe_lift(_PRIMITIVE_GF2[m]))


def make_ring(m: int) -> GaloisRing:
    """GR(4,m) with the built-in verified modulus (2 <= m <= 10).

    The environment variable named by MODULUS_TABLE_ENV may point at a
    JSON file {"m": [digits...]} overriding individual table entries;
    overrides are validated like built-in moduli.
    """
    if not 2 <= m <= 10:
        raise ValueError(f"unsupported extension degree m={m}; supported range is 2..10")
    override = _load_modulus_override(m)
    if override is not None:
        ring = GaloisRing(override)
        if ring.m != m:
            raise ValueError(f"override modulus for m={m} has degree {ring.m}")
        return ring
    return _builtin_ring(m)


def negacyclic_root(ring: GaloisRing, n: int) -> RingElement:
    """A root alpha with alpha^n = -1 and multiplicative order 2n.

    Requires n odd and dividing 2^m - 1; alpha is -beta for the
    canonical Teichmuller generator's power beta of order exactly n.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n={n}: negacyclic roots exist only for odd n")
    full = (1 << ring.m) - 1
    if full % n != 0:
        raise ValueError(f"n={n} does not divide 2^m-1={full}")
    beta = ring.teichmuller_generator() ** (full // n)
    alpha = -beta
    assert alpha ** n == -ring.one
    return alpha
