import random

import pytest

from objects import gen
from oracles import (FieldDomain, RingDomain, derivative, even_odd_split, field_gcd,
                     key_pair_from_locator, poly_add, poly_eval, poly_mul, poly_sub,
                     root_multiplicity, series_inverse)
from z4negacyclic import polynomial
from z4negacyclic.galois_ring import make_ring
from z4negacyclic.polynomial import Z4, poly_divmod, poly_strip


def rand_poly(rng, ring, deg):
    return poly_strip([ring.element([rng.randrange(4) for _ in range(ring.m)])
                       for _ in range(deg + 1)])


def test_product_example_gr42():
    ring = make_ring(2)
    one = ring.one
    f = poly_mul(RingDomain(ring), [one, one], [one, -one])  # (1+z)(1-z)
    assert f == [one, ring.zero, -one]           # 1 + 3z^2


def test_eval_example():
    ring = make_ring(2)
    a = gen(ring)
    val = poly_eval(RingDomain(ring), [ring.one, ring.from_int(3), ring.one], a)  # 1 + 3z + z^2
    assert val == a * 2


def test_z4_product_is_the_generic_product():
    rng = random.Random(27)
    pairs = [([], []), ([], [1, 3]), ([2, 1], []), ([2], [2]), ([1, 2], [3, 2]),
             ([0, 2, 2], [2, 0, 2])]  # 2 * 2 = 0: the top terms vanish
    z4, even = (0, 1, 2, 3), (0, 2)
    for lf, lg, symbols in ((1, 1, z4), (3, 5, z4), (17, 9, even), (64, 64, z4),
                            (943, 81, z4), (1024, 1024, z4), (1024, 333, even)):
        f, g = ([rng.choice(symbols) for _ in range(length - 1)] + [rng.choice(symbols[1:])]
                for length in (lf, lg))
        pairs += [(f, g), (g, f)]
    for f, g in pairs:
        prod = polynomial.poly_mul(f, g)
        assert prod == poly_mul(Z4, f, g), (f, g)
        assert all(type(c) is int for c in prod)
    assert polynomial.poly_mul([1, 2], [3, 2]) == [3]  # 3 + 8x + 4x^2


def test_divmod_example_z4():
    q, r = poly_divmod(Z4, [3, 0, 0, 1], [1, 1, 1])  # (x^3 - 1) / (x^2 + x + 1)
    assert q == [3, 1]
    assert r == []


def test_divmod_properties():
    rng = random.Random(3)
    ring = make_ring(2)
    for _ in range(100):
        f = rand_poly(rng, ring, rng.randrange(6))
        g = rand_poly(rng, ring, rng.randrange(1, 4))
        if not g or not g[-1].a:
            continue
        q, r = poly_divmod(RingDomain(ring), f, g)
        assert poly_add(RingDomain(ring), poly_mul(RingDomain(ring), q, g), r) == f
        assert len(r) < len(g)


def test_divmod_rejects_zero_divisor_lead():
    ring = make_ring(2)
    with pytest.raises(ValueError):
        poly_divmod(RingDomain(ring), [ring.one], [ring.one, ring.two])
    with pytest.raises(ZeroDivisionError):
        poly_divmod(RingDomain(ring), [ring.one], [])


@pytest.mark.parametrize("a", [0, 2])
def test_z4_refuses_to_invert_a_non_unit(a):
    with pytest.raises(ZeroDivisionError, match=f"^{a} is not a unit mod 4$"):
        Z4.inv(a)


def test_derivative_examples():
    assert derivative(Z4, [1, 0, 1]) == [0, 2]   # 1 + z^2 -> 2z
    assert derivative(Z4, [3]) == []
    ring = make_ring(2)
    a = gen(ring)
    sq = poly_mul(RingDomain(ring), [ring.one, -a], [ring.one, -a])  # (1 - az)^2
    assert derivative(RingDomain(ring), sq) == [a * (-2), a * a * 2]


def test_derivative_leibniz():
    rng = random.Random(4)
    ring = make_ring(2)
    dom = RingDomain(ring)
    for _ in range(100):
        f = rand_poly(rng, ring, rng.randrange(5))
        g = rand_poly(rng, ring, rng.randrange(5))
        lhs = derivative(dom, poly_mul(dom, f, g))
        rhs = poly_add(dom, poly_mul(dom, derivative(dom, f), g),
                       poly_mul(dom, f, derivative(dom, g)))
        assert lhs == rhs


def test_even_odd_split_examples():
    fe, fo = even_odd_split(Z4, [1, 2, 3, 1])
    assert fe == [1, 0, 3]
    assert fo == [0, 2, 0, 1]
    assert even_odd_split(Z4, []) == ([], [])


def test_even_odd_split_properties():
    rng = random.Random(5)
    ring = make_ring(4)
    dom = RingDomain(ring)
    for _ in range(60):
        f = rand_poly(rng, ring, rng.randrange(8))
        fe, fo = even_odd_split(dom, f)
        assert poly_add(dom, fe, fo) == f
        # substituting -z negates exactly the odd part
        neg = [c * (-1) ** i for i, c in enumerate(f)]
        assert poly_strip(neg) == poly_sub(dom, fe, fo)
    x0 = gen(ring)
    x1 = x0 * 3 + 1
    sigma = poly_mul(dom, [ring.one, -x0], [ring.one, -x1])
    fe, fo = even_odd_split(dom, sigma)
    assert fe == [ring.one, ring.zero, x0 * x1]
    assert fo == [ring.zero, -(x0 + x1)]


def test_series_inverse_examples():
    assert series_inverse(Z4, [1, 1], 4) == [1, 3, 1, 3]
    assert series_inverse(Z4, [1], 6) == [1, 0, 0, 0, 0, 0]
    assert series_inverse(Z4, [1, 2], 3) == [1, 2, 0]
    with pytest.raises(ValueError):
        series_inverse(Z4, [2, 1], 3)


def test_series_inverse_property():
    rng = random.Random(6)
    for m in (2, 4):
        ring = make_ring(m)
        for _ in range(60):
            f = [ring.one] + rand_poly(rng, ring, rng.randrange(4))
            n = rng.randrange(1, 8)
            h = series_inverse(RingDomain(ring), f, n)
            assert len(h) == n
            prod = poly_mul(RingDomain(ring), f, h)
            assert poly_strip(prod[:n]) == [ring.one]


def test_field_gcd_examples():
    field = FieldDomain(make_ring(2).residue_field())
    g, a, b = field_gcd(field, [1, 0, 1], [1, 1])  # z^2+1 = (z+1)^2 over GF(2)
    assert g == [1, 1]
    g, a, b = field_gcd(field, [0, 1, 1], [])
    assert g == [0, 1, 1]
    with pytest.raises(ValueError):
        field_gcd(field, [], [])


def test_field_gcd_bezout_and_divisibility():
    rng = random.Random(7)
    field = FieldDomain(make_ring(4).residue_field())
    for _ in range(100):
        f = poly_strip([rng.randrange(16) for _ in range(rng.randrange(1, 7))])
        g = poly_strip([rng.randrange(16) for _ in range(rng.randrange(1, 7))])
        if not f and not g:
            continue
        d, a, b = field_gcd(field, f, g)
        lhs = poly_add(field, poly_mul(field, a, f), poly_mul(field, b, g))
        assert lhs == d
        for h in (f, g):
            if h:
                _, rem = poly_divmod(field, h, d)
                assert rem == []


def test_gcd_shares_double_root_factor():
    rng = random.Random(8)
    ring = make_ring(4)
    field = FieldDomain(ring.residue_field())
    tau_x = ring.from_pair(2, 0)
    for _ in range(40):
        # double error at x0 plus a single at x1 (distinct residues)
        x0 = tau_x ** rng.randrange(1, 15)
        x1 = tau_x ** rng.randrange(1, 15)
        if x0.a == x1.a:
            continue
        sigma = [ring.one]
        for root in (x0, x0, x1):
            sigma = poly_mul(RingDomain(ring), sigma, [ring.one, -root])
        phi, omega = key_pair_from_locator(sigma)
        mu_phi = poly_strip([c.a for c in phi])
        mu_omega = poly_strip([c.a for c in omega])
        d, _, _ = field_gcd(field, mu_phi, mu_omega)
        # the squared factor (1 - x0 z)^2 becomes (1 + mu(x0)^2 y) in y = z^2
        expected_root = field.inv(field.mul(x0.a, x0.a))
        assert poly_eval(field, d, expected_root) == 0


def test_root_multiplicity_examples():
    field = FieldDomain(make_ring(2).residue_field())
    assert root_multiplicity(field, [1, 0, 1], 1) == 2   # (z+1)^2
    assert root_multiplicity(field, [1, 1], 0) == 0
    with pytest.raises(ValueError):
        root_multiplicity(field, [], 1)


def test_root_multiplicity_constructed():
    rng = random.Random(9)
    field = FieldDomain(make_ring(4).residue_field())
    for _ in range(50):
        roots = rng.sample(range(1, 16), 3)
        mults = [rng.randrange(1, 3) for _ in roots]
        f = [1]
        for r, m in zip(roots, mults):
            for _ in range(m):
                f = poly_mul(field, f, [r, 1])
        for r, m in zip(roots, mults):
            assert root_multiplicity(field, f, r) == m
