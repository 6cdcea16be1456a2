import random

import pytest

import numpy as np

from oracles import (RingDomain, derivative, even_odd_split, key_pair_from_locator,
                     locator_from_error, poly_add, poly_shift, poly_sub, power_sums,
                     random_error, syndromes_by_loop, z4_solve)
from objects import alpha_pow, key_series, odd_ratio_coefficients, syndromes
from z4negacyclic.negacyclic import build_code, encode
from z4negacyclic.polynomial import poly_mul, poly_strip


def test_syndromes_reference_word():
    code = build_code(15, 2)
    ring = code.ring
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]
    assert syndromes(word, code) == [ring.element([2, 3, 1, 3]),
                                     ring.element([1, 2, 1, 2])]


def test_syndromes_of_codewords_vanish():
    code = build_code(15, 2)
    rng = random.Random(1)
    for _ in range(50):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        assert not any(syndromes(word, code))


def test_single_error_syndromes_are_root_powers():
    code = build_code(15, 2)
    for j in (0, 4, 11):
        err = [0] * 15
        err[j] = 1
        synd = syndromes(err, code)
        assert synd == [alpha_pow(code, j), alpha_pow(code, 3 * j)]


@pytest.mark.parametrize("n,t", [(15, 2), (31, 5), (63, 4), (255, 4)])
def test_syndromes_match_the_loop(n, t):
    code = build_code(n, t)
    rng = random.Random(100 * n + t)
    words = [[3] * n, [0] * n]
    words += [[rng.randrange(4) for _ in range(n)] for _ in range(6)]
    words += [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(4)]
    for word in words:
        assert syndromes(word, code) == syndromes_by_loop(word, code)


def test_float_syndromes_exact_at_the_longest_code():
    """n = 1023 is the longest length build_code accepts (m <= 10), and
    the all-3 word gives every entry of the float64 product its largest
    value for the matrix, at most 9n = 9207: the result must still equal
    the ring sums."""
    code = build_code(1023, 2)
    matrix = code.syndrome_matrix
    assert matrix.dtype == np.float64
    assert not matrix.flags.writeable
    assert matrix.shape == (1023, 2 * 10)
    rng = random.Random(1023)
    words = [[3] * 1023] + [[rng.randrange(4) for _ in range(1023)] for _ in range(50)]
    for k, word in enumerate(words):
        expected = syndromes_by_loop(word, code)
        assert syndromes(word, code) == expected
        if k < 3:
            assert syndromes(np.array(word, dtype=np.uint8), code) == expected


def test_syndromes_reduce_symbols_mod_4():
    code = build_code(15, 2)
    rng = random.Random(5)
    word = [rng.randrange(-8, 12) for _ in range(15)]
    expected = syndromes_by_loop(word, code)
    assert syndromes(word, code) == expected
    assert syndromes(np.array(word, dtype=np.int16), code) == expected
    with pytest.raises(ValueError, match="length"):
        syndromes(word[:-1], code)


def test_recursion_first_coefficients():
    code = build_code(15, 3)
    ring = code.ring
    rng = random.Random(2)
    for _ in range(50):
        synd = [ring.element([rng.randrange(4) for _ in range(ring.m)])
                for _ in range(3)]
        u = odd_ratio_coefficients(ring, synd)
        s1, s3, s5 = synd
        assert u[0] == -s1
        assert u[1] == (-s3 + u[0] * u[0] * s1) * 3
        assert u[2] == (-s5 + u[0] * u[0] * s3 + u[0] * u[1] * 2 * s1) * 1


def test_zero_syndromes_give_zero_series():
    code = build_code(15, 2)
    ring = code.ring
    u = odd_ratio_coefficients(ring, [ring.zero, ring.zero])
    assert u == [ring.zero, ring.zero]
    assert key_series(ring, u) == [ring.one, ring.zero, ring.zero]


def test_key_series_reference_word():
    code = build_code(15, 2)
    ring = code.ring
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]
    u = odd_ratio_coefficients(ring, syndromes(word, code))
    assert key_series(ring, u) == [ring.one, ring.element([2, 3, 1, 3]),
                                   ring.element([0, 1, 1, 2])]


def test_single_error_key_series_and_pair():
    code = build_code(15, 2)
    ring = code.ring
    for j in (2, 9):
        err = [0] * 15
        err[j] = 1
        synd = syndromes(err, code)
        series = key_series(ring, odd_ratio_coefficients(ring, synd))
        assert series[1] == synd[0]  # T_1 = s_1
        phi, omega = key_pair_from_locator(locator_from_error(code, err))
        assert phi == [ring.one, -alpha_pow(code, j)]
        assert omega == [ring.one]
        prod = poly_mul(RingDomain(ring), series, phi)
        assert poly_strip(prod[:code.t + 1]) == omega


def test_key_pair_examples():
    code = build_code(15, 2)
    ring = code.ring
    assert key_pair_from_locator([ring.one]) == ([ring.one], [ring.one])
    x = alpha_pow(code, 5)
    # single root: sigma = 1 - x z
    phi, omega = key_pair_from_locator([ring.one, -x])
    assert phi == [ring.one, -x]
    assert omega == [ring.one]
    # doubled root: sigma = (1 - x z)^2
    sq = poly_mul(RingDomain(ring), [ring.one, -x], [ring.one, -x])
    phi, omega = key_pair_from_locator(sq)
    assert omega == [ring.one, x * x]
    assert phi == [ring.one, x * x - x * 2]
    with pytest.raises(ValueError):
        key_pair_from_locator([ring.two])


def _pattern_cases(code, count, seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        weight = rng.randint(1, code.t)
        cases.append(random_error(rng, code.n, weight))
    return cases


def test_newton_identity_property():
    # s sigma + z sigma' = 0 mod z^(2t) with s from the power sums
    for n, t, seed in ((15, 2, 10), (15, 3, 11)):
        code = build_code(n, t)
        ring = code.ring
        dom = RingDomain(ring)
        for err in _pattern_cases(code, 250, seed):
            sigma = locator_from_error(code, err)
            s_poly = [ring.zero] + power_sums(code, err, 2 * t - 1)
            lhs = poly_add(dom, poly_mul(dom, s_poly, sigma),
                           poly_shift(dom, derivative(dom, sigma), 1))
            assert not any(lhs[:2 * t])


def test_odd_series_equation_property():
    # s_o (u^2 - 1) = z u' mod z^(2t+1), checked after clearing sigma_e^2
    for n, t, seed in ((15, 2, 12), (15, 3, 13)):
        code = build_code(n, t)
        ring = code.ring
        dom = RingDomain(ring)
        for err in _pattern_cases(code, 250, seed):
            sigma = locator_from_error(code, err)
            sig_e, sig_o = even_odd_split(dom, sigma)
            full = power_sums(code, err, 2 * t + 1)
            s_odd = poly_strip([full[k - 1] if k % 2 == 1 else ring.zero
                                for k in range(2 * t + 2)][: 2 * t + 2])
            lhs = poly_mul(dom, s_odd,
                           poly_sub(dom, poly_mul(dom, sig_o, sig_o),
                                    poly_mul(dom, sig_e, sig_e)))
            rhs = poly_shift(dom, poly_sub(dom,
                                           poly_mul(dom, derivative(dom, sig_o), sig_e),
                                           poly_mul(dom, derivative(dom, sig_e), sig_o)),
                             1)
            diff = poly_sub(dom, lhs, rhs)
            assert not any(diff[: 2 * t + 1])
            # and the recursion's u agrees with the series sigma_o / sigma_e
            u = odd_ratio_coefficients(ring, syndromes(err, code))
            u_poly = [ring.zero] * (2 * t)
            for idx, uk in enumerate(u):
                u_poly[2 * idx + 1] = uk
            prod = poly_mul(dom, poly_strip(u_poly), sig_e)
            assert poly_strip(prod[: 2 * t]) == poly_strip(sig_o[: 2 * t])


def test_key_equation_property():
    # (1 + T) phi = omega mod y^(t+1) for pipeline T and ground-truth phi, omega
    for n, t, seed in ((15, 2, 14), (15, 3, 15)):
        code = build_code(n, t)
        ring = code.ring
        dom = RingDomain(ring)
        for err in _pattern_cases(code, 250, seed):
            synd = syndromes(err, code)
            series = key_series(ring, odd_ratio_coefficients(ring, synd))
            phi, omega = key_pair_from_locator(locator_from_error(code, err))
            prod = poly_mul(dom, series, phi)
            residue = poly_sub(dom, prod[: t + 1], omega)
            assert not any(residue)


def _bezout_reaches_two(ring, phi, omega, deg_bound):
    """Oracle: do a, b of degree <= deg_bound with a phi + b omega = 2 exist?

    Sets up the Z4-linear system in the unknown coefficients, one
    column per (polynomial, position, ring basis vector).
    """
    m = ring.m
    width = deg_bound + 1
    eq_len = width + max(len(phi), len(omega)) - 1
    cols = []
    for poly in (phi, omega):
        for pos in range(width):
            for basis in range(m):
                unknown = ring.element([1 if i == basis else 0 for i in range(m)])
                col = [0] * (eq_len * m)
                for q, pc in enumerate(poly):
                    contrib = unknown * pc
                    for i, digit in enumerate(contrib.coeffs):
                        col[(pos + q) * m + i] = digit
                cols.append(col)
    rhs = [0] * (eq_len * m)
    rhs[0] = 2
    matrix = [[cols[c][r] for c in range(len(cols))] for r in range(eq_len * m)]
    return z4_solve(matrix, rhs) is not None


def test_two_in_pair_ideal_property():
    # 2 is an R[z]-combination of phi and omega, at degree bound 2t (4t fallback)
    for n, t, seed in ((15, 2, 16), (15, 3, 17)):
        code = build_code(n, t)
        ring = code.ring
        for err in _pattern_cases(code, 60, seed):
            phi, omega = key_pair_from_locator(locator_from_error(code, err))
            ok = (_bezout_reaches_two(ring, phi, omega, 2 * t)
                  or _bezout_reaches_two(ring, phi, omega, 4 * t))
            assert ok, f"no Bezout pair reaching 2 for error {err}"
