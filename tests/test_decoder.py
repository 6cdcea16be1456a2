import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from objects import (alpha_pow, dense_unit_errors, elements, int_lists, locator_from_pair,
                     residue_locator, resolve_unit_errors, syndromes)
from oracles import (FieldDomain, RingDomain, all_error_patterns, decode_two_bch,
                     key_pair_from_locator, locate_by_scan, locator_from_error, poly_mul,
                     random_error, resolve_by_scan, root_positions_by_loop, syndromes_by_loop)
from z4negacyclic import decoder
from z4negacyclic.decoder import _StageFailure, decode, locate_error_positions
from z4negacyclic.negacyclic import _order_of_two, build_code, encode, lee_distance, lee_weight
from z4negacyclic.solver import PairVector

CODE_15_2 = build_code(15, 2)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


def test_locator_from_pair_identity():
    code = build_code(15, 2)
    ring = code.ring
    assert locator_from_pair(ring, [ring.one], [ring.one]) == [ring.one]


def test_residue_locator_single_and_double():
    code = build_code(15, 2)
    ring = code.ring
    field = FieldDomain(code.field())
    x = alpha_pow(code, 6)
    # single error: g = 1 - x y, h = 1
    pair = PairVector([ring.one, -x], [ring.one])
    mu = residue_locator(ring, pair)
    assert mu == [1, x.a]
    # double error: g = 1 + (x^2 - 2x) y, h = 1 + x^2 y
    sq = x * x
    pair = PairVector([ring.one, sq - x * 2], [ring.one, sq])
    mu = residue_locator(ring, pair)
    mu_x = x.a
    assert mu == poly_mul(field, [1, mu_x], [1, mu_x])


def test_locate_error_positions_examples():
    code = build_code(15, 2)
    field = FieldDomain(code.field())
    assert locate_error_positions([1], code) == ([], [])

    # singles at 4 and 13
    mu = poly_mul(field, [1, alpha_pow(code, 4).a],
                  [1, alpha_pow(code, 13).a])
    assert locate_error_positions(mu, code) == ([], [4, 13])

    # constructed double at position 5
    err = [0] * 15
    err[5] = 2
    sigma = locator_from_error(code, err)
    mu = [c.a for c in sigma]
    assert locate_error_positions(mu, code) == ([5], [])


def test_resolve_unit_errors_examples():
    code = build_code(15, 2)
    ring = code.ring
    assert resolve_unit_errors([ring.one], code) == [0] * 15

    for j, val in ((4, 1), (13, 3), (0, 3)):
        err = [0] * 15
        err[j] = val
        sigma = locator_from_error(code, err)
        assert resolve_unit_errors(sigma, code) == err


def test_decode_reference_word():
    code = build_code(15, 2)
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]
    out = decode(word, code)
    expected_err = [0] * 15
    expected_err[4], expected_err[13] = 1, 3
    assert out.success
    assert out.error == expected_err
    assert out.codeword == [(v - e) % 4 for v, e in zip(word, expected_err)]
    assert not any(syndromes(out.codeword, code))


def test_decode_codeword_is_clean():
    code = build_code(15, 2)
    rng = random.Random(30)
    for _ in range(25):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        out = decode(word, code)
        assert out.success and out.error == [0] * 15 and out.codeword == word


def test_decode_all_low_weight_patterns_one_codeword():
    code = build_code(15, 2)
    codeword = encode([1, 0, 3, 2, 0, 1, 2], code)
    for err in all_error_patterns(15, 2):
        received = [(c + e) % 4 for c, e in zip(codeword, err)]
        out = decode(received, code)
        assert out.success and out.codeword == codeword and out.error == err


@pytest.mark.parametrize("n, t, count", [(15, 3, 4526), (31, 2, 1954), (31, 3, 39774)])
def test_decode_every_pattern_within_radius(n, t, count):
    # the decoder reads the error only through syndromes, which do not
    # depend on the codeword, so decoding every pattern of Lee weight
    # <= t on the zero codeword proves the radius claim for the code
    start = time.monotonic()
    code = build_code(n, t)
    patterns = all_error_patterns(n, t)
    assert len(patterns) == count
    missed = []
    for err in patterns:
        out = decode(err, code)
        if not (out.success and out.codeword == [0] * n and out.error == err):
            missed.append(err)
    elapsed = time.monotonic() - start
    assert not missed, f"{len(missed)} patterns not corrected, first {missed[0]}"
    assert elapsed < 60, f"{count} decodes took {elapsed:.1f}s"


@pytest.mark.parametrize("n, t", [(3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3),
                                  (9, 1), (15, 1), (21, 1), (31, 1),
                                  # 65,536 cosets each, opt-in: pytest -m slow
                                  pytest.param(9, 2, marks=pytest.mark.slow),
                                  pytest.param(15, 2, marks=pytest.mark.slow)])
def test_decode_is_exact_bounded_distance_on_every_coset(n, t):
    """decode succeeds on exactly the words within Lee distance t of the
    code, and then returns the error of Lee weight <= t.

    Pass one reads only S(w), pass two only S(w) - S(2 e_D) for the
    doubled positions D it found, and the final check only S(w) - S(e)
    and the Lee weight of e.  So success, error and reason depend on the
    coset w + C alone, and one word per coset decides them all.  The
    words that are zero on the first k positions are such a set: a
    codeword c zero there is x^k r with r = x^-k c in <g> of degree
    below deg g, and a multiple of the monic g of that degree is 0.  So
    they are 4^(n-k) words in distinct cosets, one per coset.  The
    independent two-binary-BCH oracle must agree with decode on each of
    them: success, codeword and error.
    """
    code = build_code(n, t)

    def keys(words):  # the syndromes of the words, one bytes key each
        synd = (np.array(words, dtype=np.float64) @ code.syndrome_matrix).astype(np.int64) & 3
        return [row.tobytes() for row in synd]

    patterns = all_error_patterns(n, t)
    by_syndrome = dict(zip(keys(patterns), patterns))
    assert len(by_syndrome) == len(patterns), "two patterns share a syndrome"
    words = [[0] * code.k + list(tail)
             for tail in itertools.product(range(4), repeat=n - code.k)]
    disagreements = []
    for word, key in zip(words, keys(words)):
        err, out = by_syndrome.get(key), decode(word, code)
        if out.success != (err is not None) or (out.success and out.error != err):
            disagreements.append((word, out.reason))
        if decode_two_bch(word, code) != ((out.codeword, out.error) if out.success else None):
            disagreements.append((word, "the two-binary-BCH oracle disagrees"))
    assert not disagreements, f"{len(disagreements)} words, first {disagreements[0]}"


def test_decode_round_trip_t3():
    code = build_code(15, 3)
    rng = random.Random(31)
    for _ in range(300):
        codeword = encode([rng.randrange(4) for _ in range(code.k)], code)
        err = random_error(rng, code.n, rng.randint(0, code.t))
        received = [(c + e) % 4 for c, e in zip(codeword, err)]
        out = decode(received, code)
        assert out.success and out.codeword == codeword and out.error == err
        # outcome contract: codeword + error = received, weight within t,
        # syndromes clean
        assert [(c + e) % 4 for c, e in zip(out.codeword, out.error)] == received
        assert lee_weight(out.error) <= code.t
        assert not any(syndromes(out.codeword, code))


def test_decode_round_trip_n31():
    for t in (1, 2, 3):
        code = build_code(31, t)
        rng = random.Random(40 + t)
        for _ in range(60):
            codeword = encode([rng.randrange(4) for _ in range(code.k)], code)
            err = random_error(rng, code.n, rng.randint(0, t))
            received = [(c + e) % 4 for c, e in zip(codeword, err)]
            out = decode(received, code)
            assert out.success and out.codeword == codeword and out.error == err


def test_decode_at_every_t():
    """No restriction on t: every code that build_code accepts with
    n <= 33, at every t with 2t - 1 < n, decodes seeded words within
    its radius to the codeword sent."""
    rng = random.Random(47)
    codes = 0
    for n in range(3, 34, 2):
        if _order_of_two(n) is None:
            continue
        for t in range(1, (n + 1) // 2):
            code = build_code(n, t)
            codes += 1
            for _ in range(20):
                codeword = encode([rng.randrange(4) for _ in range(code.k)], code)
                err = random_error(rng, n, rng.randint(0, t))
                out = decode([(c + e) % 4 for c, e in zip(codeword, err)], code)
                assert out.success and out.codeword == codeword, (n, t, err, out.reason)
    assert codes == 71


@pytest.mark.parametrize("n, t", [(63, 31), (127, 63), (255, 127), (1023, 128)])
def test_decode_at_large_t(n, t):
    """Past the n <= 33 sweep: codes with t up to (n - 1) / 2 and t past
    100 decode seeded words at Lee weight exactly t to the codeword sent."""
    code = build_code(n, t)
    rng = random.Random(48 + n)
    for _ in range(20):
        codeword = encode([rng.randrange(4) for _ in range(code.k)], code)
        err = random_error(rng, n, t)
        out = decode([(c + e) % 4 for c, e in zip(codeword, err)], code)
        assert out.success and out.codeword == codeword, (n, t, out.reason)


def test_pass_one_singles_match_support_without_doubles():
    code = build_code(15, 3)
    rng = random.Random(32)
    for _ in range(100):
        err = random_error(rng, code.n, rng.randint(1, code.t))
        if any(e == 2 for e in err):
            continue
        out = decode(err, code, with_trace=True)
        assert out.success
        assert set(out.trace["singles"]) == {i for i, e in enumerate(err) if e}
        assert out.trace["doubles"] == []


def test_decode_never_claims_distant_codeword():
    code = build_code(15, 3)
    rng = random.Random(33)
    over = 0
    for _ in range(150):
        codeword = encode([rng.randrange(4) for _ in range(code.k)], code)
        err = random_error(rng, code.n, code.t + 1)
        received = [(c + e) % 4 for c, e in zip(codeword, err)]
        out = decode(received, code)
        if out.success:
            assert lee_weight([(r - c) % 4 for r, c in zip(received, out.codeword)]) <= code.t
            assert not any(syndromes(out.codeword, code))
        else:
            over += 1
    assert over  # weight t+1 on a distance-10 code can never decode


def test_decode_final_guards_refuse_a_wrong_resolution(monkeypatch):
    """decode's last two checks catch a +-1 resolution that went wrong
    on a correctable word with no 2s: one value flipped 1 <-> 3 leaves
    syndromes behind, and errors that land on another codeword put it
    beyond the radius."""
    code = CODE_15_2
    rng = random.Random(29)
    sent = encode([rng.randrange(4) for _ in range(code.k)], code)
    received = list(sent)
    received[3], received[10] = (sent[3] + 1) % 4, (sent[10] + 3) % 4
    assert decode(received, code).codeword == sent
    resolve = decoder.resolve_unit_errors

    def one_value_flipped(*args):
        positions, values = resolve(*args)
        return positions, [4 - values[0]] + values[1:]

    monkeypatch.setattr(decoder, "resolve_unit_errors", one_value_flipped)
    out = decode(received, code)
    assert (out.success, out.reason) == (False, "candidate codeword has residual syndromes")

    shifted = encode([0, 1] + [0] * (code.k - 2), code)
    other = [(c + d) % 4 for c, d in zip(sent, shifted)]
    error = [(r - c) % 4 for r, c in zip(received, other)]
    positions = [j for j, e in enumerate(error) if e]
    monkeypatch.setattr(decoder, "resolve_unit_errors",
                        lambda *args: (positions, [error[j] for j in positions]))
    out = decode(received, code)
    assert (out.success, out.reason) == (False, "nearest candidate lies at Lee distance > 2")


def test_decode_wrong_length():
    code = build_code(15, 2)
    out = decode([0] * 14, code)
    assert not out.success and "length" in out.reason


def test_trace_fields_stable():
    code = build_code(15, 2)
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]
    out = decode(word, code, with_trace=True)
    assert out.success
    assert list(out.trace) == ["syndromes", "u", "oneplusT", "solverpair",
                               "solver_rounds", "sigma_mod2", "doubles", "singles",
                               "sigma_pass2", "error", "codeword"]
    assert len(out.trace["solver_rounds"]) == code.t + 1
    assert list(out.trace["solver_rounds"][0]) == ["round", "basis", "discrepancies"]
    assert out.trace["syndromes"] == ["2,3,1,3", "1,2,1,2"]
    assert out.trace["oneplusT"] == ["1,0,0,0", "2,3,1,3", "0,1,1,2"]
    # the trace carries the normalized pair (constant terms scaled to 1)
    assert out.trace["solverpair"] == ["1,0,0,0;2,1,0,1", "1,0,0,0;0,0,1,0"]
    assert out.trace["doubles"] == [] and out.trace["singles"] == [4, 13]
    assert out.trace["error"] == "000010000000030"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except _StageFailure as exc:
        return ("failure", str(exc))


def _residue_locators(code, rng):
    """Seeded residue locators: products of (1 + X z)^mult with X the
    residue of alpha^j and mult in 1..3, times factors that may not
    split over the code's points.  Each has constant term 1, as every
    residue locator decode builds."""
    field = code.field()
    dom = FieldDomain(field)
    out = [[1]]
    for _ in range(40):
        mu = [1]
        for j in rng.sample(range(code.n), rng.randint(1, 3)):
            x = alpha_pow(code, j).a
            for _ in range(rng.choice((1, 1, 2, 2, 3))):
                mu = poly_mul(dom, mu, [1, x])
        if rng.random() < 0.4:
            tail = [rng.randrange(1, field.size)]
            tail += [rng.randrange(field.size) for _ in range(rng.randint(1, 2))]
            mu = poly_mul(dom, mu, tail + [rng.randrange(1, field.size)])
        out.append(mu)
    return out


@pytest.mark.parametrize("n,t", [(15, 2), (31, 5), (63, 4)])
def test_locate_sweep_matches_per_position_scan(n, t):
    code = build_code(n, t)
    rng = random.Random(n + t)
    outcomes = []
    for mu in _residue_locators(code, rng):
        got = _outcome(locate_error_positions, mu, code)
        assert got == _outcome(locate_by_scan, mu, code)
        outcomes.append(got[0] if isinstance(got[0], str) else "split")
    assert "failure" in outcomes and "split" in outcomes


def _planted_locators(code, rng):
    """Residue locators with planted roots: products of (1 + X/x)^k over
    GF(2^m), x the residue of alpha^-j at one to three positions j and
    k in 1..4 (the first position cycles through 1..7), a third of
    them times a factor that need not split over the code's points;
    then single factors (1 + X/x)^k for k = 1..7, where the multiplicity
    is the degree."""
    field = code.field()
    dom = FieldDomain(field)
    out = []
    for i in range(84):
        mu = [1]
        for p, j in enumerate(rng.sample(range(code.n), rng.randint(1, 3))):
            x = field.exp[code.residue_logs[j]]
            for _ in range(i % 7 + 1 if p == 0 else rng.choice((1, 1, 2, 2, 3, 4))):
                mu = poly_mul(dom, mu, [1, dom.inv(x)])
        if i % 3 == 2:
            tail = [rng.randrange(1, field.size), rng.randrange(field.size)]
            mu = poly_mul(dom, mu, tail + [rng.randrange(1, field.size)])
        out.append(mu)
    for k in range(1, 8):
        x = field.exp[code.residue_logs[rng.randrange(code.n)]]
        mu = [1]
        for _ in range(k):
            mu = poly_mul(dom, mu, [1, dom.inv(x)])
        out.append(mu)
    return out


@pytest.mark.parametrize("n,t", [(15, 2), (31, 5), (63, 4), (255, 4)])
def test_locate_multiplicities_match_root_multiplicity(n, t):
    """The multiplicities read off the root sweep's gather (the terms of
    degree i with i & k == k for X^k D_k, D_k the k-th Hasse derivative)
    give the same positions, or the same failure reason byte for byte,
    as synthetic division at every position."""
    code = build_code(n, t)
    rng = random.Random(5 * n + t)
    seen = set()
    for mu in _planted_locators(code, rng):
        got = _outcome(locate_error_positions, mu, code)
        assert got == _outcome(locate_by_scan, mu, code)
        if got[0] == "failure":
            seen.add(got[1].rsplit(" at position", 1)[0])
        else:
            seen.add("doubles" if got[0] else "singles")
    assert {"doubles", "singles", "residue locator root multiplicity 3",
            "residue locator root multiplicity 4", "residue locator root multiplicity 5",
            "residue locator root multiplicity 6", "residue locator root multiplicity 7",
            "residue locator does not split over the error positions"} <= seen


@pytest.mark.parametrize("n,t", [(15, 2), (31, 5), (63, 4)])
def test_resolve_sweep_matches_per_position_scan(n, t):
    code = build_code(n, t)
    ring = code.ring
    rng = random.Random(2 * n + t)
    sigmas = [[], [ring.one]]
    for _ in range(30):
        err = random_error(rng, n, rng.randint(1, t))
        sigma = locator_from_error(code, err)
        sigmas.append(sigma)
        # same residues, broken ring roots
        bumped = list(sigma)
        bumped[-1] = bumped[-1] + 2
        sigmas.append(bumped)
        # an extra factor at a point off the code's roots
        x = ring.element([rng.randrange(4) for _ in range(ring.m)])
        sigmas.append(poly_mul(RingDomain(ring), sigma, [ring.one, x]))
    outcomes = []
    for sigma in sigmas:
        got = _outcome(resolve_unit_errors, sigma, code)
        assert got == _outcome(resolve_by_scan, sigma, code)
        outcomes.append(got[0] if got and isinstance(got[0], str) else "resolved")
    assert "failure" in outcomes and "resolved" in outcomes


@pytest.mark.parametrize("n,t", [(15, 2), (31, 5), (63, 4), (255, 4)])
def test_pass2_root_check_matches_full_sweep(n, t, monkeypatch):
    """Pass two's root check, its own sweep and the evaluation over R at
    the roots it finds, against a full per-position scan: on every
    pass-two locator that decode builds, from seeded words within and
    beyond the radius and from a p = 0.12 Lee channel,
    resolve_unit_errors gives the same errors, or the same failure
    reason byte for byte, as resolve_by_scan.  Both must come up."""
    code = build_code(n, t)
    rng = random.Random(7 * n + t)
    sigmas = []
    resolve = decoder.resolve_unit_errors

    def spy(sigma, code):
        sigmas.append(sigma)
        return resolve(sigma, code)

    monkeypatch.setattr(decoder, "resolve_unit_errors", spy)
    for k in range(200):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        if k % 2:
            for j in rng.sample(range(n), rng.randint(1, t + 2)):
                word[j] = (word[j] + rng.choice((1, 2, 3))) % 4
        else:
            word = [(c + rng.choice((1, 1, 3, 3, 2))) % 4 if rng.random() < 0.12 else c
                    for c in word]
        decode(word, code)
    monkeypatch.undo()
    outcomes = set()
    for sigma in sigmas:
        got = _outcome(dense_unit_errors, sigma, code)
        assert got == _outcome(resolve_by_scan, elements(code.ring, sigma), code)
        outcomes.add(got[0] if isinstance(got[0], str) else "resolved")
    assert outcomes == {"failure", "resolved"}


def test_pass2_resolves_a_plus_and_a_minus_error():
    """The (15,2) locator of +1 at position 4 and -1 at position 13:
    its residue roots are 4 and 13, and the values over R there tell
    the signs apart."""
    err = [0] * 15
    err[4], err[13] = 1, 3
    sigma = int_lists(locator_from_error(CODE_15_2, err))
    assert decoder.resolve_unit_errors(sigma, CODE_15_2) == ([4, 13], [1, 3])


@pytest.mark.parametrize("n,t", [(15, 2), (31, 5), (63, 4), (255, 4)])
def test_root_sweep_matches_per_point_loop(n, t):
    code = build_code(n, t)
    field = code.field()
    rng = random.Random(3 * n + t)
    locators = _residue_locators(code, rng)
    # the empty list and the zero polynomial vanish everywhere, nonzero
    # constants nowhere, z and z^2 at no unit; resolve_unit_errors may
    # pass a degree above t
    locators += [[], [0], [0, 0], [1], [field.size - 1], [0, 1], [0, 0, 1]]
    locators += [[rng.randrange(field.size) for _ in range(rng.randint(t + 2, 3 * t))]
                 for _ in range(20)]
    # degrees at and past the field order, up to twice it: X^order = 1 at
    # every unit, so 1 + X^order vanishes at all n points
    q = field.order
    locators += [[1] + [0] * (q - 1) + [1], [0] * q + [1, 1], [1] + [0] * (2 * q) + [3]]
    locators += [[rng.randrange(field.size) for _ in range(rng.randint(q + 1, 2 * q + 2))]
                 for _ in range(10)]
    found = 0
    for mu in locators:
        got = decoder._sweep(mu, code)[2].tolist()
        assert got == root_positions_by_loop(mu, code)
        assert all(type(j) is int for j in got)
        found += bool(got) and len(got) < n
    assert found >= 20


def _contract_words(code, rng):
    """A codeword (zero-syndrome exit) and the same word with one double
    and t - 2 unit errors (full pipeline, doubles subtracted off), as
    (word, expected codeword)."""
    sent = encode([rng.randrange(4) for _ in range(code.k)], code)
    noisy = list(sent)
    for k, j in enumerate(rng.sample(range(code.n), code.t - 1)):
        noisy[j] = (noisy[j] + (2 if k == 0 else rng.choice((1, 3)))) % 4
    return [(sent, sent), (noisy, sent)]


@pytest.mark.parametrize("form", ["list", "tuple", "int8", "uint8", "int64"])
def test_decode_outcome_holds_python_ints(form):
    code = build_code(31, 3)
    rng = random.Random(17)
    convert = {"list": list, "tuple": tuple}.get(form) or (
        lambda w: np.array(w, dtype=getattr(np, form)))
    for word, sent in _contract_words(code, rng):
        given = convert(word)
        before = np.array(given, copy=True)
        for with_trace in (False, True):
            out = decode(given, code, with_trace=with_trace)
            assert out.success and out.codeword == sent
            if with_trace:
                assert bool(out.trace.get("doubles")) == (word != sent)
            for vec in (out.codeword, out.error):
                assert type(vec) is list and all(type(c) is int for c in vec)
            json.dumps([out.success, out.reason, out.codeword, out.error, out.trace])
            assert np.array_equal(np.asarray(given), before)
    assert not code.residue_logs.flags.writeable
    field = code.field()
    q, exp_array = field.order, field.exp_array
    assert not exp_array.flags.writeable
    assert len(exp_array) == q * q
    assert exp_array.tolist() == [field.exp[k % q] for k in range(q * q)]


def test_decode_reads_numpy_bools_as_bits():
    word = [1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0]
    expected = decode(word, CODE_15_2, with_trace=True)
    assert decode(np.array(word, dtype=bool), CODE_15_2, with_trace=True) == expected
    assert decode([bool(c) for c in word], CODE_15_2, with_trace=True) == expected


def _negacyclic_shift(word: list, k: int) -> list:
    """x^k w mod x^n + 1, for k in 0..2n-1: x^n is -1."""
    n = len(word)
    shifted = [(-c if i < k % n else c) for i, c in enumerate(np.roll(word, k % n).tolist())]
    return [(-c if k >= n else c) % 4 for c in shifted]


@pytest.mark.parametrize("n,t", [(15, 2), (15, 3), (31, 3), (63, 4),
                                 (31, 5), (255, 4), (63, 15), (1023, 8)])
def test_decode_commutes_with_negacyclic_shift(n, t):
    """decode(x^k w) = x^k decode(w) for the shift w -> x^k w mod x^n + 1,
    k in 1..2n-1; k = n is the negation.

    The shift multiplies the syndrome s_k by alpha^k, so pass one sees
    the key equation with z scaled to alpha z.  That scaling keeps the
    degree of every term and maps units to units and 2R to 2R, so the
    solver takes the same branches, every discrepancy test gives the
    same answer and the solution pair is the original one with z scaled.
    Its residue locator then has each root moved from alpha^-j to
    alpha^-(j+1), which moves doubled positions by one (position n-1
    wraps to 0 with a sign flip, and -2 = 2), and pass two and the
    final checks (zero syndromes, Lee distance <= t) are shift-invariant
    in the same way.  So success agrees, and a success returns the
    shifted codeword and error; a failure reason may name a shifted
    position, or another site.
    """
    code = build_code(n, t)
    rng = random.Random(7 * n + t)
    mismatches, failures = [], 0
    for i in range(300):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        for j in rng.sample(range(n), rng.randint(1, 2 * t + 2)):
            word[j] = (word[j] + rng.randrange(1, 4)) % 4
        k = n if i % 10 == 0 else rng.randrange(1, 2 * n)
        out, shifted = decode(word, code), decode(_negacyclic_shift(word, k), code)
        failures += not out.success
        if out.success != shifted.success or out.success and (
                shifted.codeword != _negacyclic_shift(out.codeword, k)
                or shifted.error != _negacyclic_shift(out.error, k)):
            mismatches.append((word, k))
    assert not mismatches, f"{len(mismatches)} words, first {mismatches[0]}"
    assert 0 < failures < 300


@pytest.mark.parametrize("symbol,position", [
    ("x", 3), (None, 0), (7, 14), (-1, 5), (2.7, 8), (2.0, 1), ("2", 2),
])
def test_decode_rejects_bad_symbols(symbol, position):
    word = [0] * 15
    word[position] = symbol
    out = decode(word, CODE_15_2)
    assert not out.success
    assert f"position {position}" in out.reason


@pytest.mark.parametrize("symbol,position", [
    ("x", 3), (None, 0), (2.7, 6), (2.0, 1), ("3", 2), (np.float64(1.0), 4),
    (np.timedelta64(1, "D"), 5),
])
def test_encode_rejects_bad_symbols(symbol, position):
    msg = [0] * CODE_15_2.k
    msg[position] = symbol
    with pytest.raises(ValueError, match=f"^message symbol .+ at position {position} is not an "
                                         "integer$"):
        encode(msg, CODE_15_2)


def test_encode_reduces_integers_mod_4():
    msg = [7, -1, np.int8(5), np.uint64(2 ** 63 + 2), True, 0, 4]
    assert encode(msg, CODE_15_2) == encode([3, 3, 1, 2, 1, 0, 0], CODE_15_2)


def test_decode_accepts_numpy_integers():
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]
    expected = decode(word, CODE_15_2)
    for dtype in (np.int8, np.uint8, np.int64):
        out = decode(np.array(word, dtype=dtype), CODE_15_2)
        assert out == expected
        assert all(type(c) is int for c in out.codeword)
    assert not decode(None, CODE_15_2).success


_ANY_SYMBOL = st.one_of(st.integers(0, 3), st.integers(), st.none(),
                        st.text(max_size=3), st.floats())


@PROPERTY_SETTINGS
@given(st.lists(_ANY_SYMBOL, max_size=20))
# np.timedelta64 subclasses np.signedinteger, but is not a symbol
@example(np.ones(15, dtype="timedelta64[D]"))
@example(np.ones(15, dtype="timedelta64[ns]"))
def test_decode_never_raises(word):
    out = decode(word, CODE_15_2)
    valid = len(word) == 15 and all(type(c) is int and 0 <= c <= 3 for c in word)
    assert out.success or out.reason
    if not valid:
        assert not out.success


@st.composite
def _received_words(draw):
    """A codeword plus a sparse error, or a uniform word."""
    code = CODE_15_2
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(0, 3), min_size=code.n, max_size=code.n))
        return word, None
    sent = encode(draw(st.lists(st.integers(0, 3), min_size=code.k, max_size=code.k)), code)
    noise = draw(st.dictionaries(st.integers(0, code.n - 1), st.integers(1, 3), max_size=4))
    return [(c + noise.get(j, 0)) % 4 for j, c in enumerate(sent)], sent


@PROPERTY_SETTINGS
@given(_received_words())
def test_decode_success_is_honest(case):
    word, sent = case
    code = CODE_15_2
    out = decode(word, code)
    if out.success:
        assert not any(syndromes_by_loop(out.codeword, code))
        assert lee_distance(word, out.codeword) <= code.t
    if sent is not None and lee_distance(word, sent) <= code.t:
        assert out.success and out.codeword == sent


@pytest.mark.parametrize("n,t", [(31, 5), (63, 4), (255, 4), (63, 15), (255, 63), (1023, 8)])
def test_decode_agrees_with_two_binary_bch_decodings(n, t):
    """decode against oracles.decode_two_bch on words of Lee weight t - 1
    to t + 2 and on i.i.d. channel words (+1 : -1 : 2 = 2 : 2 : 1) of mean
    Lee weight t: the same successes, codewords and errors."""
    code = build_code(n, t)
    rng = random.Random(f"two-bch:{n}:{t}")
    errors = [random_error(rng, n, weight) for weight in range(t - 1, t + 3) for _ in range(8)]
    p = t / (1.2 * n)
    errors += [[rng.choice((1, 1, 3, 3, 2)) if rng.random() < p else 0 for _ in range(n)]
               for _ in range(16)]
    successes = 0
    for error in errors:
        sent = encode([rng.randrange(4) for _ in range(code.k)], code)
        received = [(c + e) % 4 for c, e in zip(sent, error)]
        outcome = decode(received, code)
        ref = decode_two_bch(received, code)
        assert outcome.success == (ref is not None), received
        if ref is not None:
            assert (outcome.codeword, outcome.error) == ref, received
            successes += 1
        if lee_weight(error) <= t:
            assert ref == (sent, error)
    assert 0 < successes < len(errors)
