import itertools
import json
import math
import random

import pytest

from objects import from_str, gen
from oracles import (FieldDomain, digit_add, digit_mul, digit_neg, digit_sub, frobenius,
                     gf_inv_bitloop, gf_mul_bitloop, multiplicative_order,
                     teichmuller_decompose, teichmuller_set)
from z4negacyclic.galois_ring import (MODULUS_TABLE_ENV, GaloisField, GaloisRing, graeffe_lift,
                                      make_ring, negacyclic_root)
from z4negacyclic.polynomial import Z4, poly_divmod


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
        order = multiplicative_order(gen(ring))
        assert order in ((1 << m) - 1, 2 * ((1 << m) - 1))


def test_make_ring_rejects_unsupported():
    with pytest.raises(ValueError):
        make_ring(1)
    with pytest.raises(ValueError):
        make_ring(11)


def test_ring_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        GaloisRing([1, 0, 1])  # x^2 + 1 = (x+1)^2 mod 2
    with pytest.raises(ValueError):
        GaloisRing([1, 1, 2])  # not monic


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


def test_graeffe_lift_rejects_reducible():
    with pytest.raises(ValueError):
        graeffe_lift([1, 0, 1])


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
    # the ring's own order check rejects its Graeffe lift first
    with pytest.raises(ValueError, match="order"):
        GaloisRing(graeffe_lift([1, 1, 1, 1, 1]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: GaloisField(0b1), ValueError, "^modulus 0b1 must have degree at least 1$"),
    (lambda: GaloisField(0), ValueError, "^modulus 0b0 must have degree at least 1$"),
    (lambda: GaloisRing([1, 1]), ValueError, "^modulus must have degree at least 2$"),
    (lambda: make_ring(4).pair([1, 2]), ValueError, "^expected 4 coefficients, got 2$"),
    (lambda: graeffe_lift([1, 1, 0]), ValueError,
     "^expected a monic GF\\(2\\) polynomial with nonzero constant term$"),
    (lambda: graeffe_lift([1, 2, 1]), ValueError, "^coefficients must be 0 or 1$"),
    (lambda: setattr(make_ring(4).one, "a", 3), AttributeError, "^RingElement is immutable$"),
], ids=["field-degree-0", "field-zero", "ring-degree-1", "pair-length", "lift-not-monic",
        "lift-not-binary", "immutable"])
def test_validation_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_override_of_the_wrong_degree_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "moduli.json"
    path.write_text(json.dumps({"4": OVERRIDE_MODULUS}))
    monkeypatch.setenv(MODULUS_TABLE_ENV, str(path))
    with pytest.raises(ValueError, match="^override modulus for m=4 has degree 3$"):
        make_ring(4)


# [x] has order 2(2^3 - 1) in Z4[x]/<x^3 + x^2 + 1>: not the Teichmuller lift
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


def test_override_modulus_is_not_teichmuller():
    ring = GaloisRing(OVERRIDE_MODULUS)
    x = gen(ring)
    assert multiplicative_order(x) == 2 * 7
    theta, _ = teichmuller_decompose(x)
    assert theta != x and theta.a == x.a


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


# OVERRIDE_MODULUS and the m = 4 override of the code tests, in both of
# which [x] has order 2(2^m - 1)
@pytest.mark.parametrize("modulus", [OVERRIDE_MODULUS, [1, 0, 0, 1, 1]], ids=str)
def test_digit_round_trip_non_teichmuller_moduli(modulus):
    ring = GaloisRing(modulus)
    _check_digit_round_trip(ring)
    assert multiplicative_order(gen(ring)) == 2 * ((1 << ring.m) - 1)


def test_hash_and_eq_agree_between_digits_and_arithmetic():
    for ring in (make_ring(2), make_ring(3), GaloisRing(OVERRIDE_MODULUS)):
        twin = GaloisRing(list(ring.modulus))  # equal ring, distinct object
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
