import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest

from objects import alpha_pow, gen, syndromes
from oracles import (RingDomain, construction_by_objects, multiplicative_order, poly_eval,
                     poly_mul, random_error, use_modulus)
from z4negacyclic import keyeq
from z4negacyclic.decoder import decode
from z4negacyclic.galois_ring import graeffe_lift, make_ring
from z4negacyclic.golden import PARAMETER_TABLE, _lee_distance_bound
from z4negacyclic.negacyclic import (_order_of_two, build_code, encode, lambda_map,
                                     lee_distance, lee_weight, min_distance_exhaustive,
                                     word_from_str, word_to_str)
from z4negacyclic.polynomial import Z4, poly_divmod, poly_strip

# x^4 + x^3 + 1, whose Graeffe lift is a second presentation of GR(4,4):
# its Teichmuller generator [x] differs from the built-in ring's, and so
# do the (15, t) generators for t = 1, 2, 3
OVERRIDE_M4 = [1, 0, 0, 1, 1]



@pytest.fixture(params=["builtin", "override"])
def moduli(request, monkeypatch):
    """Codes over the built-in rings, or with OVERRIDE_M4 for m = 4."""
    if request.param == "override":
        use_modulus(monkeypatch, OVERRIDE_M4)
    return request.param


def test_build_code_table_ranks():
    assert build_code(15, 2).k == 7
    assert build_code(15, 3).k == 5
    assert build_code(31, 5).k == 11


def test_build_code_rejections():
    with pytest.raises(ValueError):
        build_code(14, 2)       # even length
    with pytest.raises(ValueError):
        build_code(15, 8)       # 2t-1 >= n
    with pytest.raises(ValueError):
        build_code(23, 1)       # ord_23(2) = 11 > 10


def test_generator_divides_xn_plus_1(moduli):
    for n, t in ((15, 1), (15, 2), (15, 3), (31, 5), (9, 1), (7, 1)):
        code = build_code(n, t)
        xn1 = [1] + [0] * (n - 1) + [1]
        q, rem = poly_divmod(Z4, xn1, list(code.generator))
        assert rem == []
        assert poly_mul(Z4, q, list(code.generator)) == xn1


def test_generator_vanishes_at_odd_root_powers(moduli):
    code = build_code(15, 3)
    ring = code.ring
    assert list(ring.modulus) == (graeffe_lift(OVERRIDE_M4) if moduli == "override"
                                  else list(make_ring(4).modulus))
    gen = [ring.from_int(c) for c in code.generator]
    for i in range(1, 2 * code.t, 2):
        assert poly_eval(RingDomain(ring), gen, alpha_pow(code, i)) == ring.zero


# the odd n <= 63 with order of 2 mod n at most 10, at t = 1, 2, 3, (n-1)/2
SMALL_CODES = [(n, t) for n in range(3, 64, 2) if _order_of_two(n) is not None
               for t in sorted({1, 2, 3, (n - 1) // 2}) if 2 * t - 1 < n]


def test_construction_matches_objects(moduli):
    assert len(SMALL_CODES) == 42
    for n, t in SMALL_CODES:
        code = build_code(n, t)
        ref = construction_by_objects(n, t)
        assert code.generator == ref["generator"], (n, t)
        assert code.syndrome_matrix.astype(int).tolist() == ref["syndrome_matrix"], (n, t)
        assert code.residue_logs.tolist() == ref["residue_logs"], (n, t)
        assert code.alpha == (ref["alpha"].a, ref["alpha"].b)
        assert [alpha_pow(code, j) for j in range(-1, 2 * n)] == (
            ref["alpha_pows"][-1:] + ref["alpha_pows"])


# every (n, t) build_code accepts with n <= 63, the PARAMETER_TABLE rows
# among them, and the longer codes of the benchmark and the docs
PINNED_CODES = ([(n, t) for n in range(3, 64, 2) if _order_of_two(n) is not None
                 for t in range(1, (n + 1) // 2)]
                + [(255, t) for t in (1, 2, 3, 4, 8, 63, 127)]
                + [(1023, t) for t in range(1, 9)])
# sha256 of the JSON list of their [n, t, modulus, generator], as the
# domain-generic products built them
PINNED_GENERATORS_SHA256 = "d99085805b5a899721c0bf9282ec2a27d2548c15af3afefe653f50504aeafac4"


def test_generators_are_pinned():
    assert len(PINNED_CODES) == 142
    assert {(n, t) for n, t, *_ in PARAMETER_TABLE} <= set(PINNED_CODES)
    rows = []
    for n, t in PINNED_CODES:
        code = build_code(n, t)
        rows.append([n, t, list(code.ring.modulus), list(code.generator)])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == PINNED_GENERATORS_SHA256


# sha256 of the bytes of their syndrome_matrix and residue_logs, in order
PINNED_TABLES_SHA256 = "38f467873eeb3bf209c40d2510a1399b54b3d3635b7810e534955019680814c0"


def test_code_tables_are_pinned():
    digest = hashlib.sha256()
    for n, t in PINNED_CODES:
        code = build_code(n, t)
        assert code.syndrome_matrix.dtype == np.float64 and code.residue_logs.dtype == np.int64
        assert code.syndrome_matrix.shape == (n, t * code.ring.m)
        assert code.residue_logs.shape == (n,)
        digest.update(code.syndrome_matrix.tobytes())
        digest.update(code.residue_logs.tobytes())
    assert digest.hexdigest() == PINNED_TABLES_SHA256


def test_override_changes_the_generators(monkeypatch):
    builtin = [build_code(15, t).generator for t in (1, 2, 3)]
    use_modulus(monkeypatch, OVERRIDE_M4)
    for t, g in zip((1, 2, 3), builtin):
        code = build_code(15, t)
        assert list(code.ring.modulus) == graeffe_lift(OVERRIDE_M4)
        assert multiplicative_order(gen(code.ring)) == 15
        assert code.generator != g


def test_decode_round_trip_under_override(monkeypatch):
    use_modulus(monkeypatch, OVERRIDE_M4)
    code = build_code(15, 3)
    rng = random.Random(41)
    for _ in range(200):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        err = random_error(rng, code.n, rng.randint(0, code.t))
        outcome = decode([(w + e) % 4 for w, e in zip(word, err)], code)
        assert outcome.success, outcome.reason
        assert outcome.codeword == word and outcome.error == err


def test_cyclic_preimage_has_consecutive_roots():
    # the x -> -x image of the generator vanishes at beta^1 .. beta^(2t)
    code = build_code(15, 2)
    ring = code.ring
    beta = -alpha_pow(code, 1)
    pre = lambda_map(list(code.generator), code.n)
    pre_r = [ring.from_int(c) for c in pre]
    for i in range(1, 2 * code.t + 1):
        assert poly_eval(RingDomain(ring), pre_r, beta ** i) == ring.zero


def test_encode_examples():
    code = build_code(15, 2)
    assert encode([0] * code.k, code) == [0] * 15
    unit = [1] + [0] * (code.k - 1)
    assert encode(unit, code) == list(code.generator) + [0] * (code.k - 1)
    word = encode([3] * code.k, code)
    assert type(word) is list and len(word) == 15 and all(type(c) is int for c in word)
    with pytest.raises(ValueError):
        encode([0] * (code.k + 1), code)


def test_every_codeword_has_zero_syndromes():
    # exhaustive up to rank 7, sampled beyond
    for n, t in ((15, 3), (15, 2)):
        code = build_code(n, t)
        for msg in itertools.product(range(4), repeat=code.k):
            word = encode(list(msg), code)
            assert not any(syndromes(word, code))
    code = build_code(31, 5)  # rank 11: sampled
    rng = random.Random(2)
    for _ in range(300):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        assert not any(syndromes(word, code))


def test_lee_weight_examples():
    assert lee_weight([0, 2, 3, 1]) == 4
    assert lee_weight([0] * 8) == 0
    assert lee_distance([1, 2, 3], [1, 2, 3]) == 0
    assert lee_distance([0, 0], [3, 2]) == 3
    with pytest.raises(ValueError):
        lee_distance([0], [0, 0])


_SYMBOL_READERS = {
    "encode": lambda w, code: encode(w[:code.k], code),
    "syndromes": keyeq.syndromes,
    "lee_weight": lambda w, code: lee_weight(w),
    "lee_distance": lambda w, code: lee_distance(w, [0] * len(w)),
    "lee_distance_second": lambda w, code: lee_distance([0] * len(w), w),
    "word_to_str": lambda w, code: word_to_str(w),
}


@pytest.mark.parametrize("reader", _SYMBOL_READERS)
@pytest.mark.parametrize("symbol", [2.7, "3", np.timedelta64(1)], ids=repr)
def test_word_inputs_refuse_non_integer_symbols(reader, symbol):
    """Every public word input reads a symbol by one rule: a Python or
    numpy integer, not a numpy timedelta64; anything else raises
    ValueError naming the symbol and its position."""
    word = [1] * 15
    word[4] = symbol
    with pytest.raises(ValueError, match=f"^(message )?symbol {re.escape(repr(symbol))} at "
                                         "position 4 is not an integer$"):
        _SYMBOL_READERS[reader](word, build_code(15, 2))


def test_min_distance_small_codes():
    assert min_distance_exhaustive(build_code(15, 3)) == 10
    assert min_distance_exhaustive(build_code(31, 7)) == 26


def test_min_distance_refuses_large_rank():
    code = build_code(31, 3)  # rank 16
    with pytest.raises(ValueError) as err:
        min_distance_exhaustive(code)
    assert "12" in str(err.value)


def test_min_distance_meets_designed_bound():
    for n, t in ((15, 3), (31, 7), (7, 1), (9, 1)):
        code = build_code(n, t)
        if code.k <= 7:
            assert min_distance_exhaustive(code) >= 2 * t + 1


def test_lee_distance_bound_reads_d_below_the_bound():
    # min(d, 2 radius + 1): (15, 1) has d = 3 and (31, 1) d = 4, both
    # below 5, so two words of Lee weight <= 2 share a syndrome
    assert _lee_distance_bound(build_code(15, 1), 2) == 3
    assert _lee_distance_bound(build_code(31, 1), 2) == 4
    assert _lee_distance_bound(build_code(15, 2), 2) == 5


def test_lambda_map_examples():
    assert lambda_map([1, 1], 15) == [1, 3]
    rng = random.Random(3)
    for _ in range(50):
        f = [rng.randrange(4) for _ in range(15)]
        assert lambda_map(lambda_map(f, 15), 15) == poly_strip(f)  # involution
        assert lee_weight(lambda_map(f, 15)) == lee_weight(f)      # isometry
    with pytest.raises(ValueError):
        lambda_map([1] * 16, 15)


def test_word_string_round_trip():
    word = [3, 1, 3, 0, 2, 3, 2, 2, 1, 0, 1, 0, 0, 3, 0]
    assert word_from_str(word_to_str(word), 15) == word
    with pytest.raises(ValueError) as err:
        word_from_str("0123x", 5)
    assert "position 4" in str(err.value)
    with pytest.raises(ValueError):
        word_from_str("012", 4)


def test_code_equality_and_hash_ignore_the_tables():
    a, b = build_code(15, 2), build_code(15, 2)
    assert a == b and hash(a) == hash(b)
    assert a != build_code(15, 3)
    assert a.syndrome_matrix.shape == (15, 2 * 4)
    assert not a.syndrome_matrix.flags.writeable
    field = a.field()
    assert [field.exp[lg] for lg in a.residue_logs] == [
        alpha_pow(a, -j).a for j in range(15)]
