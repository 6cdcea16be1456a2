"""The int-pair kernels of keyeq and solver against the object-based
oracles they replaced: equal coefficients, bases, shapes, normalized
pairs, failures and trace records."""

import random

import pytest

from oracles import (key_series_by_objects, minimal_regular_by_objects, odd_ratio_by_objects,
                     random_error, series_inverse as series_inverse_by_domain,
                     solve_by_objects)
from z4negacyclic.galois_ring import make_ring
from z4negacyclic.keyeq import key_series, odd_ratio_coefficients, series_inverse, syndromes
from z4negacyclic.negacyclic import build_code
from z4negacyclic.solver import SolutionNotFound, minimal_regular, solve_by_approximations


def _random_element(ring, rng):
    """Uniform over R half the time, else uniform over 2R, so that
    zero-divisor discrepancies and cancellations come up often."""
    el = ring.element([rng.randrange(4) for _ in range(ring.m)])
    return el if rng.random() < 0.5 else el * 2


def _outcome(fn, *args):
    """fn(*args), or the message of the SolutionNotFound it raised."""
    try:
        return fn(*args)
    except SolutionNotFound as exc:
        return str(exc)


def _assert_solver_matches(ring, series, precision, t):
    rounds, expected_rounds = [], []
    basis = solve_by_approximations(ring, series, precision, trace_log=rounds)
    expected = solve_by_objects(ring, series, precision, trace_log=expected_rounds)
    assert basis.elements() == expected.elements()
    assert basis.shape == expected.shape
    assert rounds == expected_rounds
    assert solve_by_approximations(ring, series, precision).elements() == expected.elements()
    assert (_outcome(minimal_regular, ring, basis, t)
            == _outcome(minimal_regular_by_objects, ring, expected, t))


def test_kernels_match_objects_on_random_series():
    rng = random.Random(40)
    for m in (2, 3, 4):
        ring = make_ring(m)
        for _ in range(200):
            precision = rng.randrange(1, 7)
            series = [_random_element(ring, rng) for _ in range(rng.randrange(precision + 2))]
            _assert_solver_matches(ring, series, precision, precision - 1)

            t = rng.randrange(7)
            synd = [_random_element(ring, rng) for _ in range(t)]
            u = odd_ratio_coefficients(synd, t)
            assert u == odd_ratio_by_objects(synd, t)
            assert key_series(u, t) == key_series_by_objects(u, t)

            unit = ring.element([1] + [rng.randrange(4) for _ in range(m - 1)])
            f = [unit] + series
            order = rng.randrange(1, 8)
            assert series_inverse(ring, f, order) == series_inverse_by_domain(ring, f, order)


@pytest.mark.parametrize("n, t", [(15, 2), (15, 3), (31, 5), (63, 4)])
def test_kernels_match_objects_on_key_series(n, t):
    # pass 1 sees the error, pass 2 the error without its 2s
    code = build_code(n, t)
    ring = code.ring
    rng = random.Random(41 + n + t)
    for _ in range(40):
        err = random_error(rng, n, rng.randint(1, t + 2))
        for e in (err, [0 if v == 2 else v for v in err]):
            synd = syndromes(e, code)
            u = odd_ratio_coefficients(synd, t)
            assert u == odd_ratio_by_objects(synd, t)
            tail = key_series(u, t)
            assert tail == key_series_by_objects(u, t)
            _assert_solver_matches(ring, [ring.one] + tail, t + 1, t)


def test_kernels_without_syndromes():
    assert odd_ratio_coefficients([], 0) == [] == odd_ratio_by_objects([], 0)
    assert key_series([], 0) == []
    ring = make_ring(2)
    with pytest.raises(ValueError, match="expected 2 syndromes"):
        odd_ratio_coefficients([ring.one], 2)


def test_solver_kernel_on_the_zero_series():
    ring = make_ring(3)
    for precision in range(1, 5):
        _assert_solver_matches(ring, [], precision, precision - 1)


def test_solver_kernel_on_zero_divisor_cancellations():
    ring = make_ring(2)
    for series, precision in (
        ([ring.element([3, 1]), ring.element([1, 1]),
          ring.element([1, 1]), ring.element([0, 2])], 4),
        ([ring.two, ring.element([0, 3])], 3),
        ([ring.element([2, 2]), ring.two, ring.element([0, 2])], 5),
    ):
        _assert_solver_matches(ring, series, precision, precision - 1)


def test_series_inverse_kernel_needs_a_unit_constant_term():
    ring = make_ring(3)
    for f in ([], [ring.zero], [ring.two, ring.one], [ring.element([2, 0, 2]), ring.one]):
        with pytest.raises(ValueError, match="unit constant term"):
            series_inverse(ring, f, 3)
    # a unit constant term other than 1, and an order past the length
    f = [ring.element([3, 2, 1]), ring.element([2, 1, 1])]
    assert series_inverse(ring, f, 6) == series_inverse_by_domain(ring, f, 6)
