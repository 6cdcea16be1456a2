import itertools
import random

import pytest

from objects import (from_str, gen, key_series, minimal_regular, odd_ratio_coefficients,
                     solve_by_approximations, syndromes, to_precision)
from oracles import (LEFT, RIGHT, RingDomain, key_pair_from_locator, leading, lm_divides,
                     locator_from_error, module_members, poly_mul, poly_sub, random_error,
                     select_by_scan, term_less)
from z4negacyclic import solver
from z4negacyclic.galois_ring import make_ring
from z4negacyclic.negacyclic import build_code
from z4negacyclic.polynomial import poly_strip
from z4negacyclic.solver import PairVector, SolutionNotFound, select_minimal_regular


def test_term_less_examples():
    assert term_less((RIGHT, 0), (LEFT, 1))        # [0,1] < [z,0]
    assert not term_less((RIGHT, 0), (LEFT, 0))    # [0,1] > [1,0]
    assert term_less((LEFT, 0), (RIGHT, 0))
    assert term_less((LEFT, 2), (LEFT, 3))
    assert not term_less((LEFT, 3), (LEFT, 2))


def test_term_less_total_order():
    terms = [(side, d) for side in (LEFT, RIGHT) for d in range(5)]
    for t1, t2 in itertools.product(terms, terms):
        if t1 == t2:
            assert not term_less(t1, t2)
        else:
            assert term_less(t1, t2) != term_less(t2, t1)
    # transitivity on triples
    for t1, t2, t3 in itertools.product(terms, repeat=3):
        if term_less(t1, t2) and term_less(t2, t3):
            assert term_less(t1, t3)


def test_degree_side_tuples_follow_term_less():
    # the solver compares terms as (degree, side) tuples
    terms = [(side, d) for side in (LEFT, RIGHT) for d in range(5)]
    for (s1, d1), (s2, d2) in itertools.product(terms, terms):
        assert ((d1, s1) < (d2, s2)) == term_less((s1, d1), (s2, d2))


def test_leading_examples():
    ring = make_ring(2)
    a = gen(ring)
    pair = PairVector([a * 3, ring.one], [a * 3])  # [z + 3a, 3a]
    assert leading(pair) == ((LEFT, 1), ring.one)
    pair = PairVector([ring.one], [ring.one])
    assert leading(pair) == ((RIGHT, 0), ring.one)
    pair = PairVector([ring.zero, ring.two], [ring.zero, ring.two])  # [2z, 2z]
    assert leading(pair) == ((RIGHT, 1), ring.two)
    with pytest.raises(ValueError):
        leading(PairVector([], []))


def test_sba_reference_run():
    ring = make_ring(2)
    a = gen(ring)
    basis = solve_by_approximations(ring, [ring.one, a * 3 + 3])
    assert basis.elements() == (
        PairVector([a * 3, ring.one], [a * 3]),
        PairVector([a * 2, ring.two], [a * 2]),
        PairVector([ring.zero, ring.one], [ring.zero, ring.one]),
        PairVector([ring.zero, ring.two], [ring.zero, ring.two]),
    )
    assert basis.shape == (1, 1, 1, 1)


def test_sba_constant_one():
    ring = make_ring(2)
    basis = solve_by_approximations(ring, [ring.one, ring.zero])
    assert basis.unit_right == PairVector([ring.one], [ring.one])
    assert basis.two_right == PairVector([ring.two], [ring.two])
    assert basis.unit_left == PairVector([ring.zero, ring.zero, ring.one], [])
    assert basis.two_left == PairVector([ring.zero, ring.zero, ring.two], [])


def test_sba_zero_series():
    ring = make_ring(2)
    basis = solve_by_approximations(ring, [ring.zero])
    assert basis.elements() == (
        PairVector([ring.one], []),
        PairVector([ring.two], []),
        PairVector([], [ring.zero, ring.one]),
        PairVector([], [ring.zero, ring.two]),
    )


def test_sba_repairs_against_smallest_candidate():
    # round 4 can repair unit_left against two_left, led by [2z^2,0], or
    # against unit_right, led by [0,z^2]; the smaller one is two_left
    ring = make_ring(2)

    def poly(text):
        return [from_str(ring, c) for c in text.split(";")]

    series = poly("1,3;0,2;0,2;3,3")
    basis = solve_by_approximations(ring, to_precision(ring, series, 5))
    assert basis.shape == (3, 3, 2, 2)
    assert basis.unit_left == PairVector(poly("3,2;2,2;2,2;1,0"), poly("1,1"))


def test_sba_rejects_zero_precision():
    ring = make_ring(2)
    with pytest.raises(ValueError):
        solve_by_approximations(ring, [])


def _random_series(ring, rng, deg):
    return poly_strip([ring.element([rng.randrange(4) for _ in range(ring.m)])
                       for _ in range(deg + 1)])


def test_sba_members_and_shape():
    ring = make_ring(2)
    rng = random.Random(20)
    for _ in range(150):
        precision = rng.randrange(1, 5)
        series = _random_series(ring, rng, rng.randrange(0, precision + 1))
        basis = solve_by_approximations(ring, to_precision(ring, series, precision))
        for pair in basis.elements():
            prod = poly_mul(RingDomain(ring), pair.a, series)
            residue = poly_sub(RingDomain(ring), prod[:precision], pair.b[:precision])
            assert not any(residue[:precision])
        i, j, r, s = basis.shape
        assert i >= j and r >= s
        _assert_carried_shape_matches_rescan(ring, basis)


def test_basis_shape_sums_to_twice_the_precision():
    """i + j + r + s = 2p for the basis at precision p, the identity that
    minimal_regular reads t = p - 1 from: R[z]^2/M has |R|^p elements,
    and the standard monomials outside the four leading terms count
    2^(m(i+j+r+s)) of them.  Random series over m = 2..5, a third of
    their terms in 2R, with unit, non-unit and zero constant terms."""
    rng = random.Random(27)
    for m in (2, 3, 4, 5):
        ring = make_ring(m)
        q = 1 << m
        for _ in range(100):
            p = rng.randint(1, 8)
            terms = [(rng.randrange(q) if rng.random() < 2 / 3 else 0, rng.randrange(q))
                     for _ in range(p)]
            for head in ((rng.randrange(1, q), rng.randrange(q)), (0, rng.randrange(1, q)),
                         (0, 0)):
                series = tuple(map(list, zip(head, *terms[1:])))
                basis = solver.solve_by_approximations(ring, series)
                assert sum(basis.shape) == 2 * p, (m, series, basis.shape)
    basis = solver.solve_by_approximations(make_ring(2), ([0], [0]))
    assert basis.shape == (0, 0, 1, 1)


def _assert_carried_shape_matches_rescan(ring, basis):
    scanned = [leading(el) for el in basis.elements()]
    assert [term for term, _ in scanned] == [(k // 2, d) for k, d in enumerate(basis.shape)]
    assert [lc for _, lc in scanned] == [ring.one, ring.two, ring.one, ring.two]
    assert select_minimal_regular(basis) is select_by_scan(basis)


def test_carried_shape_matches_rescan():
    rng = random.Random(26)
    for m in (2, 3, 4):
        ring = make_ring(m)
        for _ in range(200):
            precision = rng.randrange(1, 7)
            series = _random_series(ring, rng, rng.randrange(0, precision + 1))
            _assert_carried_shape_matches_rescan(
                ring, solve_by_approximations(ring, to_precision(ring, series, precision)))
    # key series of both passes: any error, and the same error without its 2s
    for n, t in ((15, 2), (15, 3), (31, 5), (63, 4)):
        code = build_code(n, t)
        ring = code.ring
        for _ in range(60):
            err = random_error(rng, n, rng.randint(1, t + 2))
            for e in (err, [0 if v == 2 else v for v in err]):
                synd = syndromes(e, code)
                series = key_series(ring, odd_ratio_coefficients(ring, synd))
                _assert_carried_shape_matches_rescan(
                    ring, solve_by_approximations(ring, series))


def test_sba_zero_divisor_cancellations():
    # these runs repair discrepancies lying in 2R against other 2R
    # discrepancies (the halved-quotient branch); membership and shape
    # must still hold
    ring = make_ring(2)
    for series, precision in (
        ([ring.element([3, 1]), ring.element([1, 1]),
          ring.element([1, 1]), ring.element([0, 2])], 4),
        ([ring.two, ring.element([0, 3])], 3),
    ):
        basis = solve_by_approximations(ring, to_precision(ring, series, precision))
        for pair in basis.elements():
            prod = poly_mul(RingDomain(ring), pair.a, series)
            assert not any(poly_sub(RingDomain(ring), prod[:precision],
                                    pair.b[:precision])[:precision])
        i, j, r, s = basis.shape
        assert i >= j and r >= s


def test_sba_deterministic():
    ring = make_ring(2)
    rng = random.Random(21)
    for _ in range(20):
        series = _random_series(ring, rng, 3)
        b1 = solve_by_approximations(ring, to_precision(ring, series, 4))
        b2 = solve_by_approximations(ring, to_precision(ring, series, 4))
        assert b1.elements() == b2.elements()


def test_groebner_property_shallow():
    # every enumerated module member's leading monomial is divisible by
    # some basis leading monomial
    ring = make_ring(2)
    rng = random.Random(22)
    cases = 0
    while cases < 40:
        precision = rng.randrange(1, 5)
        series = _random_series(ring, rng, rng.randrange(0, precision + 1))
        basis = solve_by_approximations(ring, to_precision(ring, series, precision))
        basis_lms = [leading(el) for el in basis.elements()]
        deg_limit = min(2, precision - 1)
        checked = 0
        for a, b in module_members(ring, series, precision, deg_limit):
            if not a and not b:
                continue
            lm = leading(PairVector(a, b))
            assert any(lm_divides(base, lm) for base in basis_lms), (
                series, precision, a, b)
            checked += 1
        assert checked
        cases += 1


def test_groebner_property_full_degree():
    # deep case: full enumeration up to component degree 3 at precision 4
    ring = make_ring(2)
    rng = random.Random(23)
    for _ in range(2):
        series = _random_series(ring, rng, 3)
        basis = solve_by_approximations(ring, to_precision(ring, series, 4))
        basis_lms = [leading(el) for el in basis.elements()]
        for a, b in module_members(ring, series, 4, 3):
            if not a and not b:
                continue
            lm = leading(PairVector(a, b))
            assert any(lm_divides(base, lm) for base in basis_lms)


def test_minimal_regular_reference_runs():
    ring = make_ring(2)
    a = gen(ring)
    series = [ring.one, a * 3 + 3]
    basis = solve_by_approximations(ring, series)
    raw = select_minimal_regular(basis)
    assert raw == PairVector([a * 3, ring.one], [a * 3])
    norm = minimal_regular(ring, basis)
    assert norm.a[0] == ring.one and norm.b == [ring.one]
    # re-substitution: a U = b mod z^2
    prod = poly_mul(RingDomain(ring), norm.a, series)
    assert not any(poly_sub(RingDomain(ring), prod[:2], norm.b)[:2])

    basis = solve_by_approximations(ring, [ring.one, ring.zero])
    assert minimal_regular(ring, basis) == PairVector([ring.one], [ring.one])


def test_minimal_regular_decode_example():
    code = build_code(15, 2)
    ring = code.ring
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]
    series = key_series(ring, odd_ratio_coefficients(ring, syndromes(word, code)))
    basis = solve_by_approximations(ring, series)
    assert select_minimal_regular(basis) == PairVector(
        [ring.element([3, 2, 3, 3]), ring.element([3, 3, 2, 1])],
        [ring.element([3, 2, 3, 3]), ring.one])


def test_minimal_regular_degree_rejection():
    # weight-(t+1) syndromes usually force degrees past the bound
    ring = make_ring(2)
    x = gen(ring)
    basis = solve_by_approximations(ring, [ring.one, x, x])
    try:
        pair = minimal_regular(ring, basis)
    except SolutionNotFound:
        return
    assert 2 * (len(pair.a) - 1) <= 3 and 2 * (len(pair.b) - 1) <= 2


def test_solution_residue_matches_locator_pair():
    # the normalized solution reduces mod 2 to (mu phi, mu omega)
    for n, t, seed in ((15, 2, 24), (15, 3, 25)):
        code = build_code(n, t)
        ring = code.ring
        rng = random.Random(seed)
        for _ in range(150):
            err = random_error(rng, code.n, rng.randint(1, t))
            synd = syndromes(err, code)
            series = key_series(ring, odd_ratio_coefficients(ring, synd))
            basis = solve_by_approximations(ring, series)
            pair = minimal_regular(ring, basis)
            phi, omega = key_pair_from_locator(locator_from_error(code, err))
            assert [c.a for c in pair.a] == [c.a for c in phi]
            assert [c.a for c in pair.b] == [c.a for c in omega]
            if all(int(e) != 2 for e in err):
                # no doubled symbols: equality holds over the full ring
                assert pair.a == phi and pair.b == omega
