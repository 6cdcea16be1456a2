"""The decoder's stage functions at a RingElement boundary.

The stages of keyeq, solver and decoder take and return every
polynomial over GR(4,m) as its (a, b) lists of GF(2^m) ints.  Each
function here has the signature of one stage, but takes and returns
RingElement lists in place of those int lists: it converts its
arguments with int_lists, calls the stage, and converts the result
back with elements.  Tests written against ring elements check the
int-list stages through these, unchanged.  from_str reads an element
back from the digit string that GaloisRing.pair_str prints, gen
gives the element [x] of a ring, and alpha_pow the element alpha^j of
a code, whose alpha is a pair.
The solver and series_inverse read their precision as the length of
their series; to_precision truncates or zero-pads a series to a given
precision.
resolve_unit_errors returns only the positions and values of the +-1
errors; dense_unit_errors spreads them into the error word that the
oracles compare.
"""

from __future__ import annotations

from z4negacyclic import decoder, keyeq, solver
from z4negacyclic.solver import GroebnerBasis, PairVector


def elements(ring, poly: tuple[list, list]) -> list:
    """The elements tau(a_i) + 2 tau(b_i) of a polynomial or sequence
    held as its (a, b) int lists, the form the decoder's stages use."""
    return [ring.from_pair(a, b) for a, b in zip(*poly)]


def int_lists(els) -> tuple[list, list]:
    """The (a, b) int lists of a sequence of ring elements."""
    return [c.a for c in els], [c.b for c in els]


def from_str(ring, text: str):
    """The element with the comma-separated Z4 digits text."""
    return ring.element([int(t) for t in text.split(",")])


def gen(ring):
    """The element [x], whose Z4 digits are 0, 1, 0, ..., 0."""
    return ring.element([0, 1] + [0] * (ring.m - 2))


def alpha_pow(code, j: int):
    """alpha^j = (-1)^j beta^j: the pair (b, b if j is odd else 0), b the
    residue of beta^j, as an element."""
    ring = code.ring
    b = ring._exp[ring._log[code.alpha[0]] * j % ring._field.order]
    return ring.from_pair(b, b if j & 1 else 0)


def pair_elements(ring, pair: PairVector) -> PairVector:
    return PairVector(elements(ring, pair.a), elements(ring, pair.b))


def pair_ints(pair: PairVector) -> PairVector:
    return PairVector(int_lists(pair.a), int_lists(pair.b))


def basis_elements(ring, basis: GroebnerBasis) -> GroebnerBasis:
    return GroebnerBasis(*(pair_elements(ring, p) for p in basis.elements()),
                         shape=basis.shape)


def basis_ints(basis: GroebnerBasis) -> GroebnerBasis:
    return GroebnerBasis(*(pair_ints(p) for p in basis.elements()), shape=basis.shape)


def syndromes(word, code) -> list:
    return elements(code.ring, keyeq.syndromes(word, code))


def odd_ratio_coefficients(ring, synd: list) -> list:
    return elements(ring, keyeq.odd_ratio_coefficients(ring, int_lists(synd)))


def key_series(ring, u: list) -> list:
    return elements(ring, keyeq.key_series(ring, int_lists(u)))


def series_inverse(ring, f: list) -> list:
    return elements(ring, keyeq.series_inverse(ring, int_lists(f)))


def solve_by_approximations(ring, series: list, trace_log: list | None = None) -> GroebnerBasis:
    basis = solver.solve_by_approximations(ring, int_lists(series), trace_log=trace_log)
    return basis_elements(ring, basis)


def minimal_regular(ring, basis: GroebnerBasis) -> PairVector:
    return pair_elements(ring, solver.minimal_regular(ring, basis_ints(basis)))


def to_precision(ring, series: list, precision: int) -> list:
    """The first precision terms of series, a missing term zero: the
    series the solver reads at that precision."""
    return (list(series) + [ring.zero] * precision)[:precision]


def locator_from_pair(ring, g: list, h: list) -> list:
    """The pass-two locator over R of the pair [g, h]."""
    pair = PairVector(int_lists(g), int_lists(h))
    return elements(ring, decoder._ring_locator(ring, pair))


def residue_locator(ring, pair: PairVector) -> list:
    return decoder.residue_locator(pair_ints(pair))


def dense_unit_errors(sigma: tuple[list, list], code, candidates=()) -> list:
    """decoder.resolve_unit_errors on (a, b) lists, its positions and
    values spread into the n-symbol error word."""
    error = [0] * code.n
    for j, value in zip(*decoder.resolve_unit_errors(sigma, code, candidates)):
        error[j] = value
    return error


def resolve_unit_errors(sigma: list, code, candidates=()) -> list:
    return dense_unit_errors(int_lists(sigma), code, candidates)
