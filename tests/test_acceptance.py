"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from objects import (gen, key_series, odd_ratio_coefficients, solve_by_approximations,
                     syndromes, to_precision)
from oracles import (RingDomain, all_codewords, all_error_patterns, derivative, frobenius,
                     key_pair_from_locator, leading, lm_divides, locator_from_error,
                     module_members, poly_add, poly_mul, poly_shift, poly_sub, power_sums,
                     random_error, teichmuller_decompose, teichmuller_set)
from test_keyeq import _bezout_reaches_two
from z4negacyclic.decoder import decode
from z4negacyclic.galois_ring import make_ring
from z4negacyclic.negacyclic import (build_code, encode, lee_distance, lee_weight,
                                     min_distance_exhaustive)
from z4negacyclic.polynomial import poly_strip
from z4negacyclic.solver import PairVector, select_minimal_regular


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_table_n15():
    t0 = time.monotonic()
    got = {}
    for t, want_k, want_d in ((1, 11, 3), (2, 7, 5), (3, 5, 10)):
        code = build_code(15, t)
        got[t] = (code.k, min_distance_exhaustive(code))
    elapsed = time.monotonic() - t0
    ok = got == {1: (11, 3), 2: (7, 5), 3: (5, 10)} and elapsed < 120
    _report(1, ok, f"n=15 ranks/distances {got} in {elapsed:.1f}s (< 120s)")


def test_criterion_2_table_n31():
    t0 = time.monotonic()
    code7 = build_code(31, 7)
    d7 = min_distance_exhaustive(code7)
    t7 = time.monotonic() - t0

    t0 = time.monotonic()
    code5 = build_code(31, 5)
    d5 = min_distance_exhaustive(code5)
    t5 = time.monotonic() - t0

    ok = code7.k == 6 and d7 == 26 and t7 < 1.0
    ok = ok and code5.k == 11 and d5 == 16 and t5 < 300

    ranks_ok = True
    decode_ok = 0
    trials_per_row = (3334, 3333, 3333)
    for (t, want_k), trials in zip(((1, 26), (2, 21), (3, 16)), trials_per_row):
        code = build_code(31, t)
        ranks_ok = ranks_ok and code.k == want_k
        rng = random.Random(100 + t)
        sampled = min(lee_weight(encode([rng.randrange(4) for _ in range(code.k)], code))
                      or 2 * t + 1
                      for _ in range(2000))
        ranks_ok = ranks_ok and sampled >= 2 * t + 1
        for _ in range(trials):
            cw = encode([rng.randrange(4) for _ in range(code.k)], code)
            err = random_error(rng, code.n, rng.randint(0, t))
            out = decode([(c + e) % 4 for c, e in zip(cw, err)], code)
            if out.success and out.codeword == cw and out.error == err:
                decode_ok += 1
    ok = ok and ranks_ok and decode_ok == 10000
    _report(2, ok, f"(31,7): d={d7} in {t7:.2f}s; (31,5): d={d5} in {t5:.1f}s; "
                   f"ranks+samples ok={ranks_ok}; decode trials {decode_ok}/10000")


def test_criterion_3_solver_reference_run():
    ring = make_ring(2)
    a = gen(ring)
    basis = solve_by_approximations(ring, [ring.one, a * 3 + 3])
    expected = (
        PairVector([a * 3, ring.one], [a * 3]),          # [z+3a, 3a]
        PairVector([a * 2, ring.two], [a * 2]),          # [2z+2a, 2a]
        PairVector([ring.zero, ring.one], [ring.zero, ring.one]),
        PairVector([ring.zero, ring.two], [ring.zero, ring.two]),
    )
    ok = basis.elements() == expected and basis.shape == (1, 1, 1, 1)
    _report(3, ok, f"solver example basis exact, shape {basis.shape}")


def test_criterion_4_decode_reference_run():
    code = build_code(15, 2)
    ring = code.ring
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]

    synd = syndromes(word, code)
    ok = synd == [ring.element([2, 3, 1, 3]), ring.element([1, 2, 1, 2])]

    series = key_series(ring, odd_ratio_coefficients(ring, synd))
    ok = ok and series == [ring.one, ring.element([2, 3, 1, 3]),
                           ring.element([0, 1, 1, 2])]

    basis = solve_by_approximations(ring, series)
    pair = select_minimal_regular(basis)
    ok = ok and pair == PairVector(
        [ring.element([3, 2, 3, 3]), ring.element([3, 3, 2, 1])],
        [ring.element([3, 2, 3, 3]), ring.one])

    out = decode(word, code)
    expected_err = [0] * 15
    expected_err[4], expected_err[13] = 1, 3
    ok = ok and out.success and out.error == expected_err
    ok = ok and not any(syndromes(out.codeword, code))
    _report(4, ok, "decode example: syndromes, series, pair, error, codeword check")


def test_criterion_5_exhaustive_low_weight_decoding():
    t0 = time.monotonic()
    code = build_code(15, 2)
    rng = random.Random(50)
    patterns = all_error_patterns(15, 2)
    assert len(patterns) == 466
    codewords = [[0] * 15]
    codewords += [encode([rng.randrange(4) for _ in range(code.k)], code)
                  for _ in range(50)]
    bad = 0
    for cw in codewords:
        for err in patterns:
            received = [(c + e) % 4 for c, e in zip(cw, err)]
            out = decode(received, code)
            if not (out.success and out.codeword == cw and out.error == err):
                bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 60
    _report(5, ok, f"51 codewords x 466 patterns, {bad} failures, "
                   f"{elapsed:.1f}s (< 60s)")


def test_criterion_6_property_suites():
    results = {}

    # Newton identity mod z^(2t), 500 cases
    cases = 0
    for n, t, seed in ((15, 2, 60), (15, 3, 61)):
        code = build_code(n, t)
        ring = code.ring
        rng = random.Random(seed)
        for _ in range(250):
            err = random_error(rng, code.n, rng.randint(1, t))
            sigma = locator_from_error(code, err)
            s_poly = [ring.zero] + power_sums(code, err, 2 * t - 1)
            dom = RingDomain(ring)
            lhs = poly_add(dom, poly_mul(dom, s_poly, sigma),
                           poly_shift(dom, derivative(dom, sigma), 1))
            assert not any(lhs[:2 * t])
            cases += 1
    results["newton"] = cases

    # key equation residue zero, 500 cases
    cases = 0
    for n, t, seed in ((15, 2, 62), (15, 3, 63)):
        code = build_code(n, t)
        ring = code.ring
        rng = random.Random(seed)
        for _ in range(250):
            err = random_error(rng, code.n, rng.randint(1, t))
            series = key_series(ring, odd_ratio_coefficients(ring, syndromes(err, code)))
            phi, omega = key_pair_from_locator(locator_from_error(code, err))
            prod = poly_mul(RingDomain(ring), series, phi)
            assert not any(poly_sub(RingDomain(ring), prod[:t + 1], omega))
            cases += 1
    results["keyeq"] = cases

    # 2 in (phi, omega) via bounded-degree Z4 linear solve, 500 cases
    cases = 0
    for n, t, seed in ((15, 2, 64), (15, 3, 65)):
        code = build_code(n, t)
        ring = code.ring
        rng = random.Random(seed)
        for _ in range(250):
            err = random_error(rng, code.n, rng.randint(1, t))
            phi, omega = key_pair_from_locator(locator_from_error(code, err))
            assert (_bezout_reaches_two(ring, phi, omega, 2 * t)
                    or _bezout_reaches_two(ring, phi, omega, 4 * t))
            cases += 1
    results["coprimality"] = cases

    # Groebner membership/divisibility against brute-force enumeration
    ring = make_ring(2)
    rng = random.Random(66)
    cases = 0
    for _ in range(500):
        precision = rng.randrange(1, 5)
        series = poly_strip([ring.element([rng.randrange(4), rng.randrange(4)])
                             for _ in range(rng.randrange(1, precision + 2))])
        basis = solve_by_approximations(ring, to_precision(ring, series, precision))
        basis_lms = [leading(el) for el in basis.elements()]
        deg_limit = min(1, precision - 1) if cases % 5 else min(2, precision - 1)
        for a, b in module_members(ring, series, precision, deg_limit):
            if not a and not b:
                continue
            lm = leading(PairVector(a, b))
            assert any(lm_divides(base, lm) for base in basis_lms)
        cases += 1
    results["groebner"] = cases

    # Frobenius automorphism and Teichmuller bijection, 500 cases + exhaustive
    rng = random.Random(67)
    cases = 0
    for m in (2, 3, 4):
        ring = make_ring(m)
        tset = teichmuller_set(ring)
        assert len(set(tset)) == 1 << m
        seen = set()
        for bits in range(4 ** m if m <= 3 else 0):
            el = ring.element([(bits >> (2 * i)) & 3 for i in range(m)])
            a0, a1 = teichmuller_decompose(el)
            assert a0 in tset and a1 in tset and a0 + a1 * 2 == el
            seen.add((a0, a1))
        if m <= 3:
            assert len(seen) == 4 ** m
        for _ in range(167):
            x = ring.element([rng.randrange(4) for _ in range(m)])
            y = ring.element([rng.randrange(4) for _ in range(m)])
            assert frobenius(x * y) == frobenius(x) * frobenius(y)
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            it = x
            for _ in range(m):
                it = frobenius(it)
            assert it == x
            cases += 1
    results["automorphism"] = cases

    ok = all(v >= 500 for k, v in results.items() if k != "groebner")
    ok = ok and results["groebner"] >= 500
    _report(6, ok, f"property suites case counts {results}")


def test_criterion_7_failure_honesty():
    code = build_code(15, 3)
    codewords = all_codewords(code)  # rank 5: 1024 words
    rng = random.Random(70)
    dishonest = 0
    checked = 0
    for _ in range(1000):
        cw = codewords[rng.randrange(len(codewords))]
        err = random_error(rng, code.n, code.t + 1)
        received = [(c + e) % 4 for c, e in zip(cw, err)]
        # verify the construction: exhaustively confirm d(received, C) > t
        assert min(lee_distance(received, c) for c in codewords) > code.t
        out = decode(received, code)
        if out.success:
            if lee_distance(received, out.codeword) > code.t:
                dishonest += 1
        checked += 1
    ok = checked == 1000 and dishonest == 0
    _report(7, ok, f"{checked} words beyond radius, {dishonest} dishonest successes")
