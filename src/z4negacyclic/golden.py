"""Bundled reference vectors: solver example, decode example, parameter table.

The decode example's received word is pinned as the unique word inside
the decoding radius whose pipeline reproduces the reference syndromes,
key series, solver pair and error vector below, all expressed over the
m=4 ring.  Elements are stated in the CLI's digit form, comma-separated
Z4 digits with the constant term first, and a polynomial as the list of
its coefficients: the stages pass int lists (a, b), and the checks print
them with GaloisRing.pair_str and compare the strings.  Each check's
expected and got values are JSON values: strings, ints, bools and lists.
"""

from __future__ import annotations

import numpy as np

from .decoder import decode
from .galois_ring import make_ring
from .keyeq import key_series, odd_ratio_coefficients, syndromes
from .negacyclic import LEE, build_code, min_distance_exhaustive, word_from_str, word_to_str
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

# full 4^k scans are run only for these rows.  For the other rows the
# distance check proves the designed bound d >= 2t+1 exactly, by the
# syndromes of the words of Lee weight <= t (see _lee_distance_bound),
# but does not compute d itself
EXACT_SCAN_ROWS = {(15, 1), (15, 2), (15, 3), (31, 5), (31, 7)}


def _check(name: str, expected, got) -> tuple[str, bool, object, object]:
    return (name, expected == got, expected, got)


def _pair_strs(ring, pair: PairVector) -> list[list[str]]:
    return [ring.pair_strs(pair.a), ring.pair_strs(pair.b)]


def solver_example_checks() -> list[tuple[str, bool, object, object]]:
    """The GR(4,2) run: basis of {[a,b] : a((3a+3)z+1) = b mod z^2}."""
    ring = make_ring(2)
    series = tuple(map(list, zip(ring.pair([1, 0]), ring.pair([3, 3]))))  # 1 + (3a+3) z
    basis = solve_by_approximations(ring, series, 2)
    expected = [
        [["0,3", "1,0"], ["0,3"]],
        [["0,2", "2,0"], ["0,2"]],
        [["0,0", "1,0"], ["0,0", "1,0"]],
        [["0,0", "2,0"], ["0,0", "2,0"]],
    ]
    checks = [_check("solver-example basis", expected,
                     [_pair_strs(ring, p) for p in basis.elements()])]
    checks.append(_check("solver-example shape", [1, 1, 1, 1], list(basis.shape)))
    return checks


def decode_example_checks() -> list[tuple[str, bool, object, object]]:
    """The (n=15, t=2) decode run over GR(4,4)."""
    code = build_code(15, 2)
    ring = code.ring
    word = word_from_str(DECODE_EXAMPLE_WORD, 15)

    synd = syndromes(word, code)
    checks = [_check("decode-example syndromes", ["2,3,1,3", "1,2,1,2"], ring.pair_strs(synd))]

    u = odd_ratio_coefficients(ring, synd, code.t)
    ta, tb = key_series(ring, u, code.t)
    series = ([1] + ta, [0] + tb)
    checks.append(_check("decode-example key series", ["1,0,0,0", "2,3,1,3", "0,1,1,2"],
                         ring.pair_strs(series)))

    basis = solve_by_approximations(ring, series, code.t + 1)
    checks.append(_check("decode-example solver pair",
                         [["3,2,3,3", "3,3,2,1"], ["3,2,3,3", "1,0,0,0"]],
                         _pair_strs(ring, select_minimal_regular(basis))))

    outcome = decode(word, code)
    checks.append(_check("decode-example error", DECODE_EXAMPLE_ERROR,
                         word_to_str(outcome.error) if outcome.success else outcome.reason))
    clean = outcome.success and not any(map(any, syndromes(outcome.codeword, code)))
    checks.append(_check("decode-example codeword syndromes", True, clean))
    return checks


def table_checks(quick: bool = False) -> list[tuple[str, bool, object, object]]:
    """Rank and minimum-distance checks for the parameter table."""
    checks = []
    for n, t, k, bound, dist in PARAMETER_TABLE:
        code = build_code(n, t)
        checks.append(_check(f"table n={n} t={t} rank", k, code.k))
        if (n, t) in EXACT_SCAN_ROWS and not quick:
            checks.append(_check(f"table n={n} t={t} distance", dist,
                                 min_distance_exhaustive(code)))
        elif (n, t) not in EXACT_SCAN_ROWS:
            checks.append(_check(f"table n={n} t={t} distance >= {bound}", bound,
                                 _lee_distance_bound(code, t)))
    return checks


def _lee_distance_bound(code, radius: int) -> int:
    """min(d, 2 radius + 1) for the minimum Lee distance d of the code.

    Two words of Lee weight <= radius with equal syndromes differ by a
    nonzero codeword of Lee weight <= 2 radius, and every such codeword
    is such a difference (split its Lee weight between two words).  So
    the least Lee weight of a difference within one syndrome class is d
    when d <= 2 radius, and there is no such difference otherwise.
    """
    lee = np.array(LEE, dtype=np.int64)
    # every word of Lee weight <= radius, built one position at a time
    words, weights = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(code.n):
        parts = [(v, weights + lee[v] <= radius) for v in range(4)]
        words = np.vstack([np.column_stack([words[keep], np.full(keep.sum(), v)])
                           for v, keep in parts])
        weights = np.concatenate([weights[keep] + lee[v] for v, keep in parts])
    synd = (words @ code.syndrome_matrix).astype(np.int64) & 3
    _, group, counts = np.unique(synd, axis=0, return_inverse=True, return_counts=True)
    by_class = words[np.argsort(group.ravel(), kind="stable")]
    best = 2 * radius + 1
    for same in np.split(by_class, np.cumsum(counts)[:-1]):
        if len(same) > 1:
            dist = lee[(same[:, None] - same[None]) & 3].sum(axis=2)
            best = min(best, int(dist[dist > 0].min()))
    return best


def run_all(quick: bool = False) -> list[tuple[str, bool, object, object]]:
    checks = solver_example_checks()
    checks += decode_example_checks()
    checks += table_checks(quick=quick)
    return checks
