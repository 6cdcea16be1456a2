import itertools
import math
import random

import pytest

from objects import from_str, gen
from oracles import (FieldDomain, digit_add, digit_mul, digit_neg, digit_sub, frobenius,
                     gf_inv_bitloop, gf_mul_bitloop, multiplicative_order,
                     teichmuller_decompose, teichmuller_set)
from z4negacyclic.galois_ring import (GaloisField, GaloisRing, graeffe_lift, make_ring,
                                      negacyclic_root)
from z4negacyclic.polynomial import Z4, poly_divmod, poly_mul


def all_elements(ring):
    return [ring.element(c) for c in itertools.product(range(4), repeat=ring.m)]


def test_make_ring_pinned_moduli():
    assert make_ring(2).modulus == (1, 1, 1)            # x^2 + x + 1
    assert make_ring(4).modulus == (1, 3, 2, 0, 1)      # x^4 + 2x^2 + 3x + 1


def test_make_ring_all_supported_degrees():
    for m in range(2, 11):
        ring = make_ring(m)
        assert ring.m == m
        assert ring.modulus[-1] == 1
        assert multiplicative_order(gen(ring)) == (1 << m) - 1


def test_make_ring_rejects_unsupported():
    with pytest.raises(ValueError):
        make_ring(1)
    with pytest.raises(ValueError):
        make_ring(11)


def test_ring_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        GaloisRing([1, 0, 1])  # x^2 + 1 = (x+1)^2 mod 2
    with pytest.raises(ValueError):
        GaloisRing([1, 1, 2])  # not a 0/1 residue, nor monic


def test_graeffe_lift_quadratic_fixed_point():
    f = graeffe_lift([1, 1, 1])
    assert f == [1, 1, 1]
    # divides x^3 - 1 over Z4
    _, rem = poly_divmod(Z4, [3, 0, 0, 1], f)
    assert rem == []


def test_graeffe_lift_degree_one():
    # x + 1 lifts to x - 1 = x + 3, the divisor of x^(2^1 - 1) - 1
    f = graeffe_lift([1, 1])
    assert f == [3, 1]
    assert all((a - b) % 2 == 0 for a, b in zip(f, [1, 1]))
    _, rem = poly_divmod(Z4, [3, 1], f)
    assert rem == []


def test_graeffe_lift_quartic():
    f = graeffe_lift([1, 1, 0, 0, 1])
    assert f == [1, 3, 2, 0, 1]
    assert all((a - b) % 2 == 0 for a, b in zip(f, [1, 1, 0, 0, 1]))
    x15_minus_1 = [3] + [0] * 14 + [1]
    _, rem = poly_divmod(Z4, x15_minus_1, f)
    assert rem == []


def _clmul(a: int, b: int) -> int:
    """The product of two GF(2) polynomials held as bit-packed ints."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def _bits(p: int) -> list[int]:
    return [p >> i & 1 for i in range(p.bit_length())]


def _gf2_irreducibles(max_degree: int) -> list[int]:
    """Every irreducible GF(2) polynomial of degree 1..max_degree, as
    bit-packed ints: those no product of two of degree >= 1 gives."""
    top = 1 << (max_degree + 1)
    reducible = {_clmul(a, b) for a in range(2, top)
                 for b in range(2, top >> (a.bit_length() - 1))}
    return [p for p in range(2, top) if p not in reducible]


def test_graeffe_lift_is_multiplicative():
    # graeffe(p q) = graeffe(p) graeffe(q): what lets build_code lift the
    # binary BCH generator once instead of each minimal polynomial
    irreducibles = [p for p in _gf2_irreducibles(10) if p & 1]  # p(0) = 1: all but x
    assert len(irreducibles) == sum((2, 1, 2, 3, 6, 9, 18, 30, 56, 99)) - 1  # less x
    rng = random.Random(28)
    for _ in range(200):
        p, q = rng.sample(irreducibles, 2)
        assert graeffe_lift(_bits(_clmul(p, q))) == poly_mul(graeffe_lift(_bits(p)),
                                                             graeffe_lift(_bits(q)))
    # not squarefree: (x + 1)^2 lifts to (x - 1)^2
    assert graeffe_lift(_bits(_clmul(0b11, 0b11))) == [1, 2, 1]
    assert poly_mul(graeffe_lift([1, 1]), graeffe_lift([1, 1])) == [1, 2, 1]


def test_mul_examples_gr42():
    ring = make_ring(2)
    a = gen(ring)
    assert a * a == a * 3 + 3
    assert a * (a * 3 + 3) == ring.one       # alpha^3 = 1
    for el in all_elements(ring):
        assert el * ring.one == el


def test_ring_mismatch_rejected():
    r2, r3 = make_ring(2), make_ring(3)
    with pytest.raises(ValueError):
        gen(r2) + gen(r3)
    with pytest.raises(ValueError):
        gen(r2) * gen(r3)


def test_inverse_examples():
    ring = make_ring(2)
    a = gen(ring)
    assert (a * 3 + 3).inverse() == a
    assert ring.one.inverse() == ring.one
    assert ring.from_int(3).inverse() == ring.from_int(3)
    with pytest.raises(ZeroDivisionError):
        ring.two.inverse()
    with pytest.raises(ZeroDivisionError):
        ring.zero.inverse()


def test_units_exactly_the_nonzero_residues():
    ring = make_ring(2)
    for el in all_elements(ring):
        if el.a:
            assert el * el.inverse() == ring.one
        else:
            with pytest.raises(ZeroDivisionError):
                el.inverse()


def test_residue_examples_and_homomorphism():
    ring = make_ring(2)
    a = gen(ring)
    assert ring.two.a == 0
    assert (a * 3 + 3).a == 0b11
    field = FieldDomain(ring.residue_field())
    rng = random.Random(11)
    els = all_elements(ring)
    for _ in range(200):
        x, y = rng.choice(els), rng.choice(els)
        assert (x * y).a == field.mul(x.a, y.a)
        assert (x + y).a == field.add(x.a, y.a)


def test_frobenius_squares_teichmuller():
    for m in (2, 3, 4):
        ring = make_ring(m)
        for theta in teichmuller_set(ring):
            assert frobenius(theta) == theta * theta
        assert frobenius(ring.two) == ring.two


def test_frobenius_is_order_m_automorphism():
    rng = random.Random(5)
    for m in (2, 3, 4):
        ring = make_ring(m)
        els = all_elements(ring) if m < 4 else None
        for _ in range(60):
            x = (rng.choice(els) if els
                 else ring.element([rng.randrange(4) for _ in range(m)]))
            y = (rng.choice(els) if els
                 else ring.element([rng.randrange(4) for _ in range(m)]))
            assert frobenius(x * y) == frobenius(x) * frobenius(y)
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            it = x
            for _ in range(m):
                it = frobenius(it)
            assert it == x


def test_teichmuller_decompose_examples():
    ring = make_ring(2)
    a = gen(ring)
    assert teichmuller_decompose(ring.two) == (ring.zero, ring.one)
    for theta in teichmuller_set(ring):
        assert teichmuller_decompose(theta) == (theta, ring.zero)
    # exhaustive-search oracle for 3a + 1
    el = a * 3 + 1
    tset = teichmuller_set(ring)
    matches = [(t0, t1) for t0 in tset for t1 in tset if t0 + t1 * 2 == el]
    assert matches == [teichmuller_decompose(el)]


def test_teichmuller_set_size_and_bijection():
    for m in (2, 3, 4):
        ring = make_ring(m)
        tset = teichmuller_set(ring)
        assert len(set(tset)) == 1 << m
        seen = set()
        for el in all_elements(ring):
            a0, a1 = teichmuller_decompose(el)
            assert a0 in tset and a1 in tset
            assert a0 + a1 * 2 == el
            seen.add((a0, a1))
        assert len(seen) == 4 ** m  # decompose hits all of T x T


def test_no_element_of_order_four():
    for m in (2, 3):
        ring = make_ring(m)
        for el in all_elements(ring):
            if el.a:
                assert multiplicative_order(el) != 4


def test_negacyclic_root_examples():
    ring = make_ring(4)
    alpha = ring.from_pair(*negacyclic_root(ring, 15))
    assert alpha ** 15 == -ring.one
    assert alpha ** 30 == ring.one
    for j in range(1, 15):
        assert alpha ** j not in (ring.one, -ring.one)

    r2 = make_ring(2)
    alpha = r2.from_pair(*negacyclic_root(r2, 3))
    beta = -alpha
    assert multiplicative_order(beta) == 3
    assert alpha ** 3 == -r2.one

    with pytest.raises(ValueError):
        negacyclic_root(ring, 4)
    with pytest.raises(ValueError):
        negacyclic_root(ring, 7)  # 7 does not divide 15


def test_element_serialization_round_trip():
    ring = make_ring(4)
    el = ring.element([3, 0, 1, 2])
    assert ring.pair_str(el.a, el.b) == "3,0,1,2"
    assert from_str(ring, ring.pair_str(el.a, el.b)) == el


@pytest.mark.parametrize("m", range(2, 11))
def test_field_tables_match_bit_loop(m):
    field = make_ring(m).residue_field()
    assert field.m == m and field == GaloisField(field.modulus_bits)
    if m <= 6:
        pairs = list(itertools.product(range(field.size), repeat=2))
        units = range(1, field.size)
    else:
        rng = random.Random(m)
        pairs = [(rng.randrange(field.size), rng.randrange(field.size))
                 for _ in range(4000)]
        units = [rng.randrange(1, field.size) for _ in range(500)]
    for a, b in pairs:
        assert field.mul(a, b) == gf_mul_bitloop(field, a, b)
    dom = FieldDomain(field)
    for a in units:
        assert dom.inv(a) == gf_inv_bitloop(field, a)
        assert dom.pow(a, -1) == dom.inv(a)
        assert dom.pow(a, 5) == gf_mul_bitloop(field, dom.pow(a, 4), a)
    assert dom.pow(0, 0) == 1 and dom.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        dom.inv(0)


def test_field_tables_need_a_primitive_modulus():
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5 in GF(16)
    with pytest.raises(ValueError, match="primitive"):
        GaloisField(0b11111)
    # a ring over it fails at its residue field's table build
    with pytest.raises(ValueError, match="primitive"):
        GaloisRing([1, 1, 1, 1, 1])


def _is_primitive(p: list[int]) -> bool:
    """Whether x has order 2^m - 1 modulo the degree-m GF(2) polynomial p
    (no order when p(0) = 0), by stepping through the powers of x."""
    m, bits = len(p) - 1, sum(c << i for i, c in enumerate(p))
    a = 1
    for k in range(1, 1 << m):
        a <<= 1
        if a >> m & 1:
            a ^= bits
        if a == 1:
            return k == (1 << m) - 1
    return False


def _primitive_residues(m: int) -> list[list[int]]:
    residues = (list(low) + [1] for low in itertools.product(range(2), repeat=m))
    return [p for p in residues if _is_primitive(p)]


# phi(2^m - 1)/m primitive residues of degree m
@pytest.mark.parametrize("m, accepted", [(2, 1), (3, 2), (4, 2)])
def test_ring_accepts_exactly_the_lifts_of_primitive_residues(m, accepted):
    # a primitive residue is irreducible: over every monic 0/1 residue p
    # of degree m (28 for m = 2..4), GaloisRing(p) raises exactly when x
    # has order below 2^m - 1 modulo p (no order when p(0) = 0), and
    # otherwise its modulus is the Graeffe lift of p
    irreducibles = set(_gf2_irreducibles(m))
    count = 0
    for low in itertools.product(range(2), repeat=m):
        p = list(low) + [1]
        if _is_primitive(p):
            assert GaloisRing(p).modulus == tuple(graeffe_lift(p))
            assert sum(c << i for i, c in enumerate(p)) in irreducibles
            count += 1
        else:
            with pytest.raises(ValueError):
                GaloisRing(p)
    assert count == accepted


@pytest.mark.parametrize("call, error, message", [
    (lambda: GaloisField(0b1), ValueError, "^modulus 0b1 must have degree at least 1$"),
    (lambda: GaloisField(0), ValueError, "^modulus 0b0 must have degree at least 1$"),
    (lambda: GaloisRing([1, 1]), ValueError, "^modulus must have degree at least 2$"),
    # a Z4 lift where its residue belongs: x^3 + 3x^2 + 2x + 3
    (lambda: GaloisRing([3, 2, 3, 1]), ValueError, "^coefficients must be 0 or 1$"),
    (lambda: make_ring(4).pair([1, 2]), ValueError, "^expected 4 coefficients, got 2$"),
    (lambda: graeffe_lift([1, 1, 0]), ValueError,
     "^expected a monic GF\\(2\\) polynomial with nonzero constant term$"),
    (lambda: graeffe_lift([1, 2, 1]), ValueError, "^coefficients must be 0 or 1$"),
    (lambda: setattr(make_ring(4).one, "a", 3), AttributeError, "^RingElement is immutable$"),
], ids=["field-degree-0", "field-zero", "ring-degree-1", "ring-lift-as-residue",
        "pair-length", "lift-not-monic", "lift-not-binary", "immutable"])
def test_validation_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


# x^3 + x^2 + 1, whose Graeffe lift x^3 + 3x^2 + 2x + 3 is a second
# presentation of GR(4,3)
OVERRIDE_MODULUS = [1, 0, 1, 1]
SMALL_RINGS = [make_ring(2), make_ring(3), make_ring(4), GaloisRing(OVERRIDE_MODULUS)]


def _check_against_digits(ring, x, y):
    X, Y = ring.element(x), ring.element(y)
    assert (X + Y).coeffs == digit_add(x, y)
    assert (X - Y).coeffs == digit_sub(x, y)
    assert (X * Y).coeffs == digit_mul(ring, x, y)


def _check_unary_against_digits(ring, x):
    X = ring.element(x)
    assert (-X).coeffs == digit_neg(x)
    if X.a:
        one = (1,) + (0,) * (ring.m - 1)
        assert digit_mul(ring, x, X.inverse().coeffs) == one
    else:
        with pytest.raises(ZeroDivisionError):
            X.inverse()


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: str(list(r.modulus)))
def test_packed_arithmetic_matches_digits_all_pairs(ring):
    digits = list(itertools.product(range(4), repeat=ring.m))
    for x in digits:
        _check_unary_against_digits(ring, x)
        for y in digits:
            _check_against_digits(ring, x, y)


@pytest.mark.parametrize("m", range(5, 11))
def test_packed_arithmetic_matches_digits_sampled(m):
    ring = make_ring(m)
    rng = random.Random(700 + m)
    for _ in range(300):
        x = tuple(rng.randrange(4) for _ in range(m))
        y = tuple(rng.randrange(4) for _ in range(m))
        _check_against_digits(ring, x, y)
        _check_unary_against_digits(ring, x)


def _check_digit_round_trip(ring):
    m = ring.m
    if m <= 8:
        for x in itertools.product(range(4), repeat=m):
            el = ring.element(x)
            assert el.coeffs == x
            a = sum((c & 1) << i for i, c in enumerate(x))
            assert el.a == a
            # x's bits read as a pair (a, b) instead: every pair once
            b = sum((c >> 1) << i for i, c in enumerate(x))
            assert ring.pair(ring.digits(a, b)) == (a, b)
    for bits in range(1 << m):
        assert (ring.from_pair(bits, ring._corr[bits]).coeffs
                == tuple(bits >> i & 1 for i in range(m)))
        assert ring.pair(ring.digits(bits, bits)) == (bits, bits)
    # the check above holds for any table, as coeffs undoes corr with
    # it; this one does not: under digit arithmetic mod h, tau(1) is 1
    # and tau(c) tau(x) = tau(c x), which forces tau(x) to have odd
    # order, so these digits are the Teichmuller lifts
    field = ring.residue_field()
    tau_x = ring.digits(2, 0)
    assert ring.digits(1, 0) == (1,) + (0,) * (m - 1)
    for c in range(1, 1 << m):
        assert digit_mul(ring, ring.digits(c, 0), tau_x) == ring.digits(field.mul(c, 2), 0)


@pytest.mark.parametrize("m", range(2, 11))
def test_digit_round_trip_all_elements(m):
    _check_digit_round_trip(make_ring(m))


# every primitive residue of degree 2 to 5 (11 rings), make_ring's and
# the others, among them OVERRIDE_MODULUS and the m = 4 override of the
# code tests: in each ring, [x] is tau(x); ids are the lifts
@pytest.mark.parametrize("residue", [p for m in range(2, 6) for p in _primitive_residues(m)],
                         ids=lambda p: str(graeffe_lift(p)))
def test_digit_round_trip_second_presentations(residue):
    ring = GaloisRing(residue)
    _check_digit_round_trip(ring)
    assert multiplicative_order(gen(ring)) == (1 << ring.m) - 1


def test_hash_and_eq_agree_between_digits_and_arithmetic():
    for ring in (make_ring(2), make_ring(3), GaloisRing(OVERRIDE_MODULUS)):
        twin = GaloisRing(_bits(ring.residue_field().modulus_bits))  # equal, distinct
        els = all_elements(ring)
        for x in els:
            for y in els:
                for value, digits in ((x * y, digit_mul(ring, x.coeffs, y.coeffs)),
                                      (x + y, digit_add(x.coeffs, y.coeffs))):
                    built = twin.element(digits)
                    assert value == built and hash(value) == hash(built)
        assert len({x * y for x in els for y in els}) == len(els)


def test_int_operands():
    ring = make_ring(3)
    for x in all_elements(ring):
        assert x * 1 == 1 * x == x + 0 == 0 + x == x
        assert x * 2 == x + x and x * -1 == -x and x * 4 == ring.zero
        assert 3 - x == -x + 3 == ring.from_int(3) - x


def test_multiplicative_order_matches_powers():
    # tau(a) has the odd order of a in K*, and 1 + 2 tau(b/a) has order
    # 2 unless b = 0
    for ring in (make_ring(2), make_ring(3), GaloisRing(OVERRIDE_MODULUS)):
        field = ring.residue_field()
        for el in all_elements(ring):
            if not el.a:
                continue
            odd = field.order // math.gcd(field.log[el.a], field.order)
            assert multiplicative_order(el) == (2 * odd if el.b else odd)
