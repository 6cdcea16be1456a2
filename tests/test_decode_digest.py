"""Pinned SHA-256 digests of decode outcomes on a fixed seeded corpus.

Each code's corpus is about 100 words: codewords plus 0..2t+2 random
nonzero symbols, handed to `decode` as lists, tuples, uint8 arrays and
lists of np.int64 in turn, decoded with `with_trace=True`.  A further
catalogue of malformed inputs exercises every way a word can be
rejected.  Every outcome is serialised as

    json.dumps([success, reason, codeword, error, trace], sort_keys=True)

and fed to one SHA-256 per group, so any change in a codeword, error,
failure reason or trace field changes the digest, and a numpy scalar
leaking into an outcome makes `json.dumps` raise.  The untraced path,
the one the benchmark times, is held to the traced one: on every word,
`decode(w, code)` equals the traced outcome with its trace dropped.

The expected digests in tests/data/decode_digest.json were written by
this file's `__main__` from a tree whose outputs are the reference:

    PYTHONPATH=src python tests/test_decode_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from z4negacyclic.decoder import decode
from z4negacyclic.negacyclic import build_code, encode

DATA = Path(__file__).parent / "data" / "decode_digest.json"

CODES = [(15, 2), (15, 3), (31, 2), (31, 5), (63, 4), (255, 4)]
WORDS_PER_CODE = 100

INPUT_FORMS = (
    list,
    tuple,
    lambda w: np.array(w, dtype=np.uint8),
    lambda w: [np.int64(c) for c in w],
)


def corpus(n: int, t: int) -> list:
    """Seeded received words for (n, t), each in one of INPUT_FORMS."""
    code = build_code(n, t)
    rng = random.Random(1000 * n + t)
    words = []
    for i in range(WORDS_PER_CODE):
        word = encode([rng.randrange(4) for _ in range(code.k)], code)
        for j in rng.sample(range(n), i % (2 * t + 3)):
            word[j] = (word[j] + rng.randrange(1, 4)) % 4
        words.append(INPUT_FORMS[i % len(INPUT_FORMS)](word))
    return words


def _with(symbol, position: int = 7) -> list:
    word = [0] * 15
    word[position] = symbol
    return word


def malformed() -> list:
    """Inputs (for the (15,2) code) that are not a clean word of symbols."""
    return [
        None,
        5,
        "0123",
        b"\x00" * 15,
        (c for c in [1] * 15),
        {0, 1, 2, 3},
        {j: 0 for j in range(15)},
        [[0] * 15],
        [[0] * 15, [0] * 14],
        np.zeros((3, 15), dtype=np.int64),
        np.zeros(15, dtype=np.float64),
        _with(2.0),
        _with("1"),
        _with(4),
        _with(-1, 0),
        np.array(_with(-1, 14), dtype=np.int8),
        np.array(_with(3, 3), dtype=np.uint64),
        _with(2 ** 70, 0),
        [True] * 15,
        [],
    ]


def _digest(words, code) -> str:
    sha = hashlib.sha256()
    for word in words:
        out = decode(word, code, with_trace=True)
        line = json.dumps([out.success, out.reason, out.codeword, out.error, out.trace],
                          sort_keys=True)
        sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def digests() -> dict:
    out = {f"{n}-{t}": _digest(corpus(n, t), build_code(n, t)) for n, t in CODES}
    out["malformed-15-2"] = _digest(malformed(), build_code(15, 2))
    return out


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("n,t", CODES)
def test_decode_digest(n, t, expected):
    assert _digest(corpus(n, t), build_code(n, t)) == expected[f"{n}-{t}"]


def test_decode_digest_malformed(expected):
    assert _digest(malformed(), build_code(15, 2)) == expected["malformed-15-2"]


@pytest.mark.parametrize("group", [f"{n}-{t}" for n, t in CODES] + ["malformed-15-2"])
def test_untraced_decode_matches_traced(group):
    n, t = map(int, group.split("-")[-2:])
    code = build_code(n, t)
    # two fresh copies of the words: a generator input is spent by one decode
    words = malformed if group.startswith("malformed") else lambda: corpus(n, t)
    for plain, traced in zip(words(), words()):
        expected = dataclasses.replace(decode(traced, code, with_trace=True), trace=None)
        assert decode(plain, code) == expected

if __name__ == "__main__":
    DATA.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
