"""Where decode fails: every failure site in decoder.py and solver.py is
either reached through decode by a pinned word, or cannot fire from
decode (the decoder module docstring gives the arguments).  Whole-space
censuses pin how many words end at each reason."""

import ast
import re
from math import comb
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from z4negacyclic import decoder
from z4negacyclic.decoder import decode
from z4negacyclic.negacyclic import LEE, build_code, word_from_str

SOURCES = [Path(decoder.__file__).with_name(name) for name in ("decoder.py", "solver.py")]


class Witness(NamedTuple):
    name: str
    n: int
    t: int
    word: object
    passes: int  # 0 for an input check, else the pass that fails
    reason: str


# past the input checks, a witness is the first word, in lexicographic
# order, of a census below that ends at the site
WITNESSES = [
    Witness("not-a-sequence", 7, 2, None, 0, "word of type NoneType is not a sequence"),
    Witness("bad-symbol", 7, 2, [0, 0, 0, 7, 0, 0, 0], 0,
            "symbol 7 at position 3 is not an integer in 0..3"),
    Witness("wrong-length", 7, 2, [0] * 6, 0, "word length 6 != n=7"),
    Witness("degrees-exceed", 7, 2, word_from_str("0000012"), 1,
            "solution degrees (2, 1) exceed the bounds for t=2"),
    Witness("not-a-unit", 7, 2, word_from_str("0001101"), 1,
            "solution constant term is not a unit"),
    Witness("root-multiplicity", 7, 3, word_from_str("0000221"), 1,
            "residue locator root multiplicity 3 at position 6"),
    Witness("no-split", 7, 2, word_from_str("0000111"), 1,
            "residue locator does not split over the error positions"),
    Witness("both-units", 7, 2, word_from_str("0000202"), 2,
            "locator vanishes at both units for position 2"),
    Witness("degree-mismatch", 7, 2, word_from_str("0000022"), 2,
            "locator degree does not match the resolved error count"),
]

# sites that decode cannot reach, as a reason each would give
CANNOT_FIRE = [
    "pair cannot be normalized to unit constant terms",
    "candidate codeword has residual syndromes",
    "nearest candidate lies at Lee distance > 2",
]

# words per reason over all 4^n words, digits in a reason read as #
CENSUS = {
    (7, 2): {
        "residue locator does not split over the error positions": 7168,
        "locator degree does not match the resolved error count": 5360,
        "solution constant term is not a unit": 1820,
        "solution degrees (#, #) exceed the bounds for t=#": 1596,
        "locator vanishes at both units for position #": 16,
        "success": 424,
    },
    (7, 3): {
        "locator degree does not match the resolved error count": 8744,
        "solution degrees (#, #) exceed the bounds for t=#": 5320,
        "solution constant term is not a unit": 168,
        "residue locator root multiplicity # at position #": 168,
        "locator vanishes at both units for position #": 104,
        "success": 1880,
    },
    (9, 3): {
        "residue locator does not split over the error positions": 136368,
        "locator degree does not match the resolved error count": 84624,
        "solution degrees (#, #) exceed the bounds for t=#": 36912,
        "residue locator root multiplicity # at position #": 216,
        "solution constant term is not a unit": 72,
        "success": 3952,
    },
}


def _pattern(message: ast.expr) -> str | None:
    """A regex for the reasons a message expression gives, each field of
    an f-string matching any text; None for one that forwards another
    site's reason, such as str(exc)."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return re.escape(message.value)
    if isinstance(message, ast.JoinedStr):
        return "".join(re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                       for part in message.values)
    return None


def _site_patterns() -> list[str]:
    """One regex per failure site: the message of each _StageFailure(...)
    and SolutionNotFound(...) call and each reason= keyword."""
    out = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) in ("_StageFailure", "SolutionNotFound"):
                messages = node.args[:1]
            else:
                messages = [k.value for k in node.keywords if k.arg == "reason"]
            out += [p for p in map(_pattern, messages) if p is not None]
    return out


def test_every_failure_site_is_witnessed_or_cannot_fire():
    sites = _site_patterns()
    assert len(sites) == len(set(sites)) == 12
    reasons = [w.reason for w in WITNESSES] + CANNOT_FIRE
    for pattern in sites:
        matched = [r for r in reasons if re.fullmatch(pattern, r)]
        assert len(matched) == 1, (pattern, matched)
    for reason in reasons:
        assert any(re.fullmatch(p, reason) for p in sites), reason


@pytest.mark.parametrize("witness", WITNESSES, ids=lambda w: w.name)
def test_failure_site_witness(witness):
    out = decode(witness.word, build_code(witness.n, witness.t), with_trace=True)
    assert (out.success, out.reason) == (False, witness.reason)
    # pass one's locator split, and only then, when the trace names the
    # doubled positions; an input check stops before any trace
    if witness.passes == 0:
        assert out.trace is None
    else:
        assert ("doubles" in out.trace) == (witness.passes == 2)


def _all_words(n: int) -> np.ndarray:
    """Every word of Z4^n, in lexicographic order, as rows."""
    return (np.arange(4 ** n)[:, None] >> (2 * np.arange(n - 1, -1, -1))) & 3


@pytest.mark.parametrize("n, t", [(7, 2), pytest.param(7, 3, marks=pytest.mark.slow),
                                  pytest.param(9, 3, marks=pytest.mark.slow)])
def test_whole_space_census(n, t):
    """Every word of Z4^n decoded: the number that ends at each reason,
    and the successes are exactly the words within Lee distance t of a
    codeword, 4^k sum over w <= t of C(2n, w)."""
    code = build_code(n, t)
    lee = np.array(LEE)
    census = {}
    for word in _all_words(n):
        out = decode(word, code)
        if out.success:
            assert lee[out.error].sum() <= t
            key = "success"
        else:
            key = re.sub(r"\d+", "#", out.reason)
        census[key] = census.get(key, 0) + 1
    assert census == CENSUS[n, t]
    assert census["success"] == 4 ** code.k * sum(comb(2 * n, w) for w in range(t + 1))
