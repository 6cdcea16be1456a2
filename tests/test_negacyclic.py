import itertools
import random

import pytest

from objects import syndromes
from z4negacyclic.negacyclic import (build_code, encode, lambda_map, lee_distance,
                                     lee_weight, min_distance_exhaustive,
                                     word_from_str, word_to_str)
from z4negacyclic.polynomial import Z4, poly_divmod, poly_eval, poly_mul, poly_strip


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


def test_generator_divides_xn_plus_1():
    for n, t in ((15, 1), (15, 2), (15, 3), (31, 5), (9, 1), (7, 1)):
        code = build_code(n, t)
        xn1 = [1] + [0] * (n - 1) + [1]
        q, rem = poly_divmod(Z4, xn1, list(code.generator))
        assert rem == []
        assert poly_mul(Z4, q, list(code.generator)) == xn1


def test_generator_vanishes_at_odd_root_powers():
    code = build_code(15, 3)
    ring = code.ring
    gen = [ring.from_int(c) for c in code.generator]
    for i in range(1, 2 * code.t, 2):
        assert poly_eval(ring, gen, code.alpha_pow(i)) == ring.zero


def test_cyclic_preimage_has_consecutive_roots():
    # the x -> -x image of the generator vanishes at beta^1 .. beta^(2t)
    code = build_code(15, 2)
    ring = code.ring
    beta = -code.alpha
    pre = lambda_map(list(code.generator), code.n)
    pre_r = [ring.from_int(c) for c in pre]
    for i in range(1, 2 * code.t + 1):
        assert poly_eval(ring, pre_r, beta ** i) == ring.zero


def test_encode_examples():
    code = build_code(15, 2)
    assert encode([0] * code.k, code) == [0] * 15
    unit = [1] + [0] * (code.k - 1)
    assert encode(unit, code) == list(code.generator) + [0] * (code.k - 1)
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
        a.alpha_pow(-j).residue() for j in range(15)]
