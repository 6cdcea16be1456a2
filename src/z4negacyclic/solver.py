"""Groebner-basis solver for the key equation over R[z]^2.

The solution module M = {[a,b] : a U = b mod z^r} is approximated one
precision level at a time: starting from a basis of M^(0), each round
computes the k-th discrepancy of every tracked element and repairs it
by cancellation against a strictly smaller element (when the
discrepancy divides) or by multiplication with z.  Four elements are
tracked, one per leading-monomial shape [z^i,0], [2z^j,0], [0,z^r],
[0,2z^s]; the update rules preserve each element's leading monomial,
so the shapes (and leading coefficients 1, 2, 1, 2) persist, and the
solver carries the four leading terms instead of rescanning them.

Terms of R[z]^2 are ordered by <_l: within one side by degree, across
sides [0,z^j] < [z^i,0] iff j <= i + l.  term_less implements the
whole family; the solver uses l = -1, under which the sought locator
pair is the minimal element of M outside 2R[z]^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .polynomial import poly_coeff, poly_scale, poly_shift, poly_sub

__all__ = [
    "LEFT", "RIGHT",
    "PairVector", "GroebnerBasis", "SolutionNotFound",
    "term_less", "leading",
    "solve_by_approximations",
    "select_minimal_regular", "minimal_regular",
]

LEFT, RIGHT = 0, 1


class PairVector(NamedTuple):
    """An element [a, b] of R[z]^2; components are coefficient lists."""

    a: list
    b: list


class SolutionNotFound(ValueError):
    """No admissible key-equation solution: error weight exceeded t."""


def term_less(t1: tuple[int, int], t2: tuple[int, int], offset: int = -1) -> bool:
    """Strict comparison of module terms (side, degree) under <_offset."""
    s1, d1 = t1
    s2, d2 = t2
    if s1 == s2:
        return d1 < d2
    if s1 == RIGHT:  # [0,z^d1] vs [z^d2,0]
        return d1 <= d2 + offset
    return d2 > d1 + offset


def leading(ring, pair: PairVector):
    """Greatest term of a nonzero pair with its coefficient."""
    best_term = None
    best_coeff = None
    for side, poly in ((LEFT, pair.a), (RIGHT, pair.b)):
        for d, c in enumerate(poly):
            if c:
                term = (side, d)
                if best_term is None or term_less(best_term, term):
                    best_term, best_coeff = term, c
    if best_term is None:
        raise ValueError("the zero pair has no leading term")
    return best_term, best_coeff


@dataclass(frozen=True)
class GroebnerBasis:
    """The four tracked elements, keyed by leading-monomial shape."""

    unit_left: PairVector   # lm = [z^i, 0]
    two_left: PairVector    # lm = [2 z^j, 0]
    unit_right: PairVector  # lm = [0, z^r]
    two_right: PairVector   # lm = [0, 2 z^s]

    def elements(self) -> tuple[PairVector, PairVector, PairVector, PairVector]:
        return (self.unit_left, self.two_left, self.unit_right, self.two_right)

    def shape(self, ring) -> tuple[int, int, int, int]:
        """Leading degrees (i, j, r, s)."""
        return tuple(leading(ring, el)[0][1] for el in self.elements())


def _halve(ring, c):
    """The element with 0/1 digits whose double is c, for c = 2 tau(b)."""
    return ring.from_bits(c.b)


def _order_key(term: tuple[int, int], slot: int) -> tuple[int, int, int]:
    """Sort key of a tracked element: its leading term under <_-1, where
    [z^d,0] < [0,z^d] < [z^(d+1),0], then the unit-led element (slot 0
    or 2) before the one led by 2 (slot 1 or 3) on equal terms."""
    side, d = term
    return (d, side, slot)


def solve_by_approximations(ring, series: list, precision: int,
                            trace_log: list | None = None) -> GroebnerBasis:
    """Groebner basis of {[a,b] in R[z]^2 : a * series = b mod z^precision}.

    Per round k, the discrepancy of [f,g] is the k-th coefficient of
    f*series - g.  A nonzero discrepancy is repaired against the
    <-smallest strictly smaller element whose discrepancy divides it
    (unit discrepancies divide everything; a discrepancy 2e divides 2e'
    via e' e^-1), otherwise the element is multiplied by z.  Lookups
    within a round always use the round's starting basis.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    one, two = ring.one, ring.two
    slots = [
        PairVector([one], []), PairVector([two], []),
        PairVector([], [one]), PairVector([], [two]),
    ]
    # leading terms: a cancellation keeps them, a z-shift raises the degree
    lts = [(LEFT, 0), (LEFT, 0), (RIGHT, 0), (RIGHT, 0)]
    for k in range(precision):
        zetas = []
        for f, g in slots:
            coeff = ring.zero
            for i in range(max(0, k - len(series) + 1), min(k, len(f) - 1) + 1):
                coeff = coeff + f[i] * series[k - i]
            zeta = coeff - poly_coeff(ring, g, k)
            zetas.append(zeta)
        if trace_log is not None:
            order = sorted(range(4), key=lambda i: _order_key(lts[i], i))
            trace_log.append({
                "round": k,
                "basis": [_pair_strs(slots[i]) for i in order],
                "discrepancies": [z.to_str() for z in zetas],
            })
        new_slots = []
        new_lts = list(lts)
        for i, (f, g) in enumerate(slots):
            zi = zetas[i]
            if not zi:
                new_slots.append(slots[i])
                continue
            zi_even = not zi.is_unit()
            candidates = [j for j in range(4)
                          if j != i and zetas[j] and term_less(lts[j], lts[i])
                          and (zetas[j].is_unit() or zi_even)]
            if candidates:
                j = min(candidates, key=lambda jj: _order_key(lts[jj], jj))
                zj = zetas[j]
                if zj.is_unit():
                    factor = zi * zj.inverse()
                else:
                    factor = _halve(ring, zi) * _halve(ring, zj).inverse()
                fj, gj = slots[j]
                updated = PairVector(poly_sub(ring, f, poly_scale(ring, factor, fj)),
                                     poly_sub(ring, g, poly_scale(ring, factor, gj)))
                # cancellation against a strictly smaller element keeps
                # the leading monomial, so the result is never zero
                assert updated.a or updated.b
                new_slots.append(updated)
            else:
                new_slots.append(PairVector(poly_shift(ring, f, 1),
                                            poly_shift(ring, g, 1)))
                side, d = lts[i]
                new_lts[i] = (side, d + 1)
        slots, lts = new_slots, new_lts
    i, j, r, s = (d for _, d in lts)
    assert i >= j and r >= s, f"basis shape ({i},{j},{r},{s}) violates i>=j, r>=s"
    return GroebnerBasis(*slots)


def _pair_strs(pair: PairVector) -> list[str]:
    return [";".join(c.to_str() for c in pair.a),
            ";".join(c.to_str() for c in pair.b)]


def select_minimal_regular(ring, basis: GroebnerBasis) -> PairVector:
    """The <-smallest basis element with a unit leading coefficient."""
    best = None
    best_term = None
    for el in basis.elements():
        term, coeff = leading(ring, el)
        if not ring.is_unit(coeff):
            continue
        if best is None or term_less(term, best_term):
            best, best_term = el, term
    assert best is not None  # unit_left and unit_right always qualify
    return best


def minimal_regular(ring, basis: GroebnerBasis, t: int) -> PairVector:
    """The normalized locator pair, or SolutionNotFound past capability.

    Selects the minimal regular basis element, enforces the degree
    constraints 2 deg a <= t+1, 2 deg b <= t, and scales by a(0)^-1 so
    that a(0) = b(0) = 1.
    """
    pair = select_minimal_regular(ring, basis)
    a, b = pair
    if 2 * (len(a) - 1) > t + 1 or 2 * (len(b) - 1) > t:
        raise SolutionNotFound(
            f"solution degrees ({len(a) - 1}, {len(b) - 1}) exceed the bounds for t={t}")
    if not a or not ring.is_unit(a[0]):
        raise SolutionNotFound("solution constant term is not a unit")
    scale = a[0].inverse()
    a = poly_scale(ring, scale, a)
    b = poly_scale(ring, scale, b)
    if not b or b[0] != ring.one:
        raise SolutionNotFound("pair cannot be normalized to unit constant terms")
    return PairVector(a, b)
