"""The decoder's stage functions at a RingElement boundary.

The stages of keyeq, solver and decoder take and return every
polynomial over GR(4,m) as its (a, b) lists of GF(2^m) ints.  Each
function here has the signature of one stage, but takes and returns
RingElement lists in place of those int lists: it converts its
arguments with GaloisRing.int_lists, calls the stage, and converts the
result back with GaloisRing.elements.  Tests written against ring
elements check the int-list stages through these, unchanged.
resolve_unit_errors returns only the positions and values of the +-1
errors; dense_unit_errors spreads them into the error word that the
oracles compare.
"""

from __future__ import annotations

from z4negacyclic import decoder, keyeq, solver
from z4negacyclic.solver import GroebnerBasis, PairVector


def pair_elements(ring, pair: PairVector) -> PairVector:
    return PairVector(ring.elements(pair.a), ring.elements(pair.b))


def pair_ints(ring, pair: PairVector) -> PairVector:
    return PairVector(ring.int_lists(pair.a), ring.int_lists(pair.b))


def basis_elements(ring, basis: GroebnerBasis) -> GroebnerBasis:
    return GroebnerBasis(*(pair_elements(ring, p) for p in basis.elements()),
                         shape=basis.shape)


def basis_ints(ring, basis: GroebnerBasis) -> GroebnerBasis:
    return GroebnerBasis(*(pair_ints(ring, p) for p in basis.elements()), shape=basis.shape)


def syndromes(word, code) -> list:
    return code.ring.elements(keyeq.syndromes(word, code))


def odd_ratio_coefficients(ring, synd: list, t: int) -> list:
    return ring.elements(keyeq.odd_ratio_coefficients(ring, ring.int_lists(synd), t))


def key_series(ring, u: list, t: int) -> list:
    return ring.elements(keyeq.key_series(ring, ring.int_lists(u), t))


def series_inverse(ring, f: list, order: int) -> list:
    return ring.elements(keyeq.series_inverse(ring, ring.int_lists(f), order))


def solve_by_approximations(ring, series: list, precision: int,
                            trace_log: list | None = None) -> GroebnerBasis:
    basis = solver.solve_by_approximations(ring, ring.int_lists(series), precision,
                                           trace_log=trace_log)
    return basis_elements(ring, basis)


def minimal_regular(ring, basis: GroebnerBasis, t: int) -> PairVector:
    return pair_elements(ring, solver.minimal_regular(ring, basis_ints(ring, basis), t))


def locator_from_pair(ring, g: list, h: list) -> list:
    """The pass-two locator over R of the pair [g, h]."""
    pair = PairVector(ring.int_lists(g), ring.int_lists(h))
    return ring.elements(decoder._ring_locator(ring, pair))


def residue_locator(ring, pair: PairVector) -> list:
    return decoder.residue_locator(pair_ints(ring, pair))


def dense_unit_errors(sigma: tuple[list, list], code, candidates=()) -> list:
    """decoder.resolve_unit_errors on (a, b) lists, its positions and
    values spread into the n-symbol error word."""
    error = [0] * code.n
    for j, value in zip(*decoder.resolve_unit_errors(sigma, code, candidates)):
        error[j] = value
    return error


def resolve_unit_errors(sigma: list, code, candidates=()) -> list:
    return dense_unit_errors(code.ring.int_lists(sigma), code, candidates)
