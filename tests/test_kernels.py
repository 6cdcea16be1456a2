"""The int-list stages of keyeq, solver and decoder against the
object-based oracles they replaced: equal coefficients, bases, shapes,
normalized pairs, positions, error words, failures and trace records.
Most tests go through the RingElement boundary of tests/objects.py; the
last ones convert explicitly and check that a decode, traced or not,
builds no ring element at all, nor does construction or output."""

import itertools
import random

import pytest

from objects import (basis_elements, dense_unit_errors, elements, gen, key_series,
                     minimal_regular, odd_ratio_coefficients, pair_elements, series_inverse,
                     solve_by_approximations, syndromes, to_precision)
from oracles import (FieldDomain, RingDomain, key_series_by_objects, locate_by_scan,
                     locator_by_objects, minimal_regular_by_objects, odd_ratio_by_objects,
                     random_error, resolve_by_scan, series_inverse as series_inverse_by_domain,
                     solve_by_objects, syndromes_by_loop)
from z4negacyclic import cli, decoder, galois_ring, golden, keyeq, solver
from z4negacyclic.galois_ring import GaloisRing, RingElement, make_ring
from z4negacyclic.negacyclic import build_code, encode
from z4negacyclic.solver import SolutionNotFound


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


def _assert_solver_matches(ring, series, precision):
    """The solver on the series cut or padded to precision terms against
    the object solver on the series at that precision, and the
    normalized pairs at t = precision - 1."""
    rounds, expected_rounds = [], []
    cut = to_precision(ring, series, precision)
    basis = solve_by_approximations(ring, cut, trace_log=rounds)
    expected = solve_by_objects(ring, series, precision, trace_log=expected_rounds)
    assert basis.elements() == expected.elements()
    assert basis.shape == expected.shape
    assert rounds == expected_rounds
    assert solve_by_approximations(ring, cut).elements() == expected.elements()
    assert (_outcome(minimal_regular, ring, basis)
            == _outcome(minimal_regular_by_objects, ring, expected, precision - 1))


def test_kernels_match_objects_on_random_series():
    rng = random.Random(40)
    for m in (2, 3, 4):
        ring = make_ring(m)
        for _ in range(200):
            precision = rng.randrange(1, 7)
            series = [_random_element(ring, rng) for _ in range(rng.randrange(precision + 2))]
            _assert_solver_matches(ring, series, precision)

            t = rng.randrange(7)
            synd = [_random_element(ring, rng) for _ in range(t)]
            u = odd_ratio_coefficients(ring, synd)
            assert u == odd_ratio_by_objects(synd)
            assert key_series(ring, u) == key_series_by_objects(ring, u)

            unit = ring.element([1] + [rng.randrange(4) for _ in range(m - 1)])
            f = [unit] + series
            order = rng.randrange(1, 8)
            assert (series_inverse(ring, to_precision(ring, f, order))
                    == series_inverse_by_domain(RingDomain(ring), f, order))


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
            u = odd_ratio_coefficients(ring, synd)
            assert u == odd_ratio_by_objects(synd)
            series = key_series(ring, u)
            assert series == key_series_by_objects(ring, u)
            _assert_solver_matches(ring, series, t + 1)


def test_kernels_without_syndromes():
    ring = make_ring(2)
    assert odd_ratio_coefficients(ring, []) == [] == odd_ratio_by_objects([])
    assert key_series(ring, []) == [ring.one] == key_series_by_objects(ring, [])


def test_solver_kernel_on_the_zero_series():
    ring = make_ring(3)
    for precision in range(1, 5):
        _assert_solver_matches(ring, [], precision)


def test_solver_fixed_first_round_matches_objects():
    """Round 0 reads only the constant term U_0, through the seeded
    discrepancies U_0, 2 U_0, -1 and -2: for every head, a unit, in 2R
    or 0, the solver must give the object solver's bases, shape and
    every trace round, round 0 too.  Every constant term of GR(4,2) and
    GR(4,3) is tried at precisions 1-3."""
    rng = random.Random(45)
    for m in (2, 3, 4):
        ring = make_ring(m)
        heads = [ring.two, ring.one * 3, gen(ring), ring.element([1] + [2] * (m - 1))]
        for _ in range(60):
            precision = rng.randrange(1, 7)
            tail = [_random_element(ring, rng) for _ in range(rng.randrange(precision + 2))]
            _assert_solver_matches(ring, [ring.one] + tail, precision)
            _assert_solver_matches(ring, [rng.choice(heads)] + tail, precision)
        for precision in (1, 2, 5):
            _assert_solver_matches(ring, [], precision)
            _assert_solver_matches(ring, [ring.one], precision)
            _assert_solver_matches(ring, [ring.one, ring.zero, ring.two], precision)
    for m in (2, 3):
        ring = make_ring(m)
        for digits in itertools.product(range(4), repeat=m):
            for precision in (1, 2, 3):
                tail = [_random_element(ring, rng) for _ in range(precision - 1)]
                _assert_solver_matches(ring, [ring.element(list(digits))] + tail, precision)


def test_solver_kernel_on_zero_divisor_cancellations():
    ring = make_ring(2)
    for series, precision in (
        ([ring.element([3, 1]), ring.element([1, 1]),
          ring.element([1, 1]), ring.element([0, 2])], 4),
        ([ring.two, ring.element([0, 3])], 3),
        ([ring.element([2, 2]), ring.two, ring.element([0, 2])], 5),
    ):
        _assert_solver_matches(ring, series, precision)


def test_series_inverse_kernel_needs_a_unit_constant_term():
    ring = make_ring(3)
    for f in ([], [ring.zero], [ring.two, ring.one], [ring.element([2, 0, 2]), ring.one]):
        with pytest.raises(ValueError, match="unit constant term"):
            series_inverse(ring, to_precision(ring, f, 3))
    # a unit constant term other than 1, and an order past the length
    f = [ring.element([3, 2, 1]), ring.element([2, 1, 1])]
    assert (series_inverse(ring, to_precision(ring, f, 6))
            == series_inverse_by_domain(RingDomain(ring), f, 6))


def _seeded_words(code, rng, count):
    """Codewords plus 0 to t+2 errors, a third of them symbols 2, so
    that zero syndromes, doubled positions, pass two and failures past
    the radius all come up."""
    words = []
    for _ in range(count):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        for j in rng.sample(range(code.n), rng.randint(0, code.t + 2)):
            word[j] = (word[j] + rng.choice((1, 2, 3))) % 4
        words.append(word)
    return words


def _caught(fn, *args):
    try:
        return fn(*args)
    except (SolutionNotFound, decoder._StageFailure) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("n, t", [(15, 2), (31, 5), (63, 4), (255, 4)])
def test_int_list_stages_match_object_oracles(n, t):
    """Each int-list stage, its result converted by objects.elements,
    equals its object oracle on the converted input, along both passes."""
    code = build_code(n, t)
    ring, field = code.ring, code.field()
    rng = random.Random(43 + n + t)
    reached = set()
    for word in _seeded_words(code, rng, 40):
        synd = keyeq.syndromes(word, code)
        assert elements(ring, synd) == syndromes_by_loop(word, code)
        for pass_no in (1, 2):
            u = keyeq.odd_ratio_coefficients(ring, synd)
            assert elements(ring, u) == odd_ratio_by_objects(elements(ring, synd))
            series = keyeq.key_series(ring, u)
            assert elements(ring, series) == key_series_by_objects(ring, elements(ring, u))
            basis = solver.solve_by_approximations(ring, series)
            expected = solve_by_objects(ring, elements(ring, series), t + 1)
            assert basis_elements(ring, basis) == expected
            pair = _caught(solver.minimal_regular, ring, basis)
            expected_pair = _caught(minimal_regular_by_objects, ring, expected, t)
            if not isinstance(pair, solver.PairVector):
                assert pair == expected_pair
                reached.add("no solution")
                break
            assert pair_elements(ring, pair) == expected_pair
            if pass_no == 1:
                mu = decoder.residue_locator(pair)
                assert mu == locator_by_objects(FieldDomain(field),
                                                [c.a for c in expected_pair.a],
                                                [c.a for c in expected_pair.b])
                split = _caught(decoder.locate_error_positions, mu, code)
                assert split == _caught(locate_by_scan, mu, code)
                doubles = split[0]
                if isinstance(doubles, str):
                    reached.add("no split")
                    break
                reached.add("doubles" if doubles else "singles")
                prime = [(c - 2 * (j in doubles)) % 4 for j, c in enumerate(word)]
                synd = keyeq.syndromes(prime, code)
            else:
                sigma = decoder._ring_locator(ring, pair)
                assert elements(ring, sigma) == locator_by_objects(RingDomain(ring),
                                                                   *expected_pair)
                error = _caught(dense_unit_errors, sigma, code)
                assert error == _caught(resolve_by_scan, elements(ring, sigma), code)
                reached.add("resolved" if isinstance(error, list) else "unresolved")
    assert {"no solution", "no split", "doubles", "singles", "resolved"} <= reached


def _refuse_ring_elements(monkeypatch, code):
    """Make every way to build a RingElement raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a RingElement was built")

    # GaloisRing.from_pair is a class alias of _make: patch both
    monkeypatch.setattr(galois_ring, "_make", refuse)
    monkeypatch.setattr(GaloisRing, "from_pair", refuse)
    monkeypatch.setattr(RingElement, "__init__", refuse)
    with pytest.raises(AssertionError, match="RingElement was built"):
        code.ring.from_pair(1, 0)


@pytest.mark.parametrize("n, t", [(31, 5), (255, 4)])
def test_untraced_decode_builds_no_ring_element(n, t, monkeypatch):
    """With every way to build a RingElement made to raise, an untraced
    decode still returns the outcome it returns with them in place."""
    code = build_code(n, t)
    words = _seeded_words(code, random.Random(44 + n), 150)
    expected = [decoder.decode(word, code) for word in words]
    _refuse_ring_elements(monkeypatch, code)
    got = [decoder.decode(word, code) for word in words]
    assert got == expected
    assert {o.success for o in got} == {True, False}
    assert any("root multiplicity" in (o.reason or "") or "split" in (o.reason or "")
               for o in got)


@pytest.mark.parametrize("n, t", [(15, 2), (31, 5), (255, 4)])
def test_traced_decode_builds_no_ring_element(n, t, monkeypatch):
    """The trace strings come straight from the int lists: with every way
    to build a RingElement made to raise, a traced decode still returns
    the outcome, trace included, that it returns with them in place."""
    code = build_code(n, t)
    words = _seeded_words(code, random.Random(46 + n), 150)
    expected = [decoder.decode(word, code, with_trace=True) for word in words]
    _refuse_ring_elements(monkeypatch, code)
    got = [decoder.decode(word, code, with_trace=True) for word in words]
    assert got == expected
    assert {o.success for o in got} == {True, False}
    assert any("sigma_pass2" in o.trace for o in got)


def test_construction_and_output_build_no_ring_element(monkeypatch, capsys):
    """alpha and every table of a code are pairs from the start: with the
    rings built beforehand and every way to build a RingElement made to
    raise, build_code, code-info and the quick reference checks return
    what they return with them in place."""
    params = [(9, 1), (15, 2), (31, 5), (63, 4), (255, 4)]

    def run():
        codes = [build_code(n, t) for n, t in params]
        tables = [(c.generator, c.k, c.alpha, c.syndrome_matrix.tolist(),
                   c.residue_logs.tolist(), c.field_exp.tolist()) for c in codes]
        for n, t in params:
            for flags in ([], ["--json"]):
                assert cli.main(flags + ["code-info", "-n", str(n), "-t", str(t)]) == 0
        return tables, capsys.readouterr(), golden.run_all(quick=True)

    expected = run()  # builds every ring the second run needs
    _refuse_ring_elements(monkeypatch, build_code(15, 2))
    assert run() == expected
    assert all(ok for _, ok, _, _ in expected[2])
