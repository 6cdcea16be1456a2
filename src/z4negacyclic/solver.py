"""Groebner-basis solver for the key equation over R[z]^2.

The solution module M = {[a,b] : a U = b mod z^r} is approximated one
precision level at a time: starting from a basis of M^(0), each round
computes the k-th discrepancy of every tracked element and repairs it
by cancellation against a strictly smaller element (when the
discrepancy divides) or by multiplication with z.  Four elements are
tracked, one per leading-monomial shape [z^i,0], [2z^j,0], [0,z^r],
[0,2z^s]; the update rules preserve each element's leading monomial,
so the shapes (and leading coefficients 1, 2, 1, 2) persist, and the
solver carries the four leading degrees instead of rescanning them.

Terms of R[z]^2 are ordered by <_-1: within one side by degree, and
[0,z^j] < [z^i,0] iff j < i.  That is the native order of the tuples
(degree, side), with side 0 for the left component and 1 for the
right; slot k of the basis leads on side k // 2.  Under this order the
sought locator pair is the minimal element of M outside 2R[z]^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .polynomial import poly_coeff, poly_scale, poly_shift, poly_sub

__all__ = [
    "PairVector", "GroebnerBasis", "SolutionNotFound",
    "solve_by_approximations",
    "select_minimal_regular", "minimal_regular",
]


class PairVector(NamedTuple):
    """An element [a, b] of R[z]^2; components are coefficient lists."""

    a: list
    b: list


class SolutionNotFound(ValueError):
    """No admissible key-equation solution: error weight exceeded t."""


@dataclass(frozen=True)
class GroebnerBasis:
    """The four tracked elements, keyed by leading-monomial shape, and
    their leading degrees (i, j, r, s)."""

    unit_left: PairVector   # lm = [z^i, 0]
    two_left: PairVector    # lm = [2 z^j, 0]
    unit_right: PairVector  # lm = [0, z^r]
    two_right: PairVector   # lm = [0, 2 z^s]
    shape: tuple[int, int, int, int]

    def elements(self) -> tuple[PairVector, PairVector, PairVector, PairVector]:
        return (self.unit_left, self.two_left, self.unit_right, self.two_right)


def solve_by_approximations(ring, series: list, precision: int,
                            trace_log: list | None = None) -> GroebnerBasis:
    """Groebner basis of {[a,b] in R[z]^2 : a * series = b mod z^precision}.

    Per round k, the discrepancy of [f,g] is the k-th coefficient of
    f*series - g.  A nonzero discrepancy is repaired against the
    <-smallest strictly smaller element whose discrepancy divides it
    (unit discrepancies divide everything; a discrepancy 2e divides 2e'
    via e' e^-1), otherwise the element is multiplied by z.  Lookups
    within a round always use the round's starting basis.  On equal
    leading terms the unit-led element (slot 0 or 2) comes first.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    one, two = ring.one, ring.two
    slots = [
        PairVector([one], []), PairVector([two], []),
        PairVector([], [one]), PairVector([], [two]),
    ]
    # leading degrees: a cancellation keeps them, a z-shift adds 1
    degs = [0, 0, 0, 0]
    for k in range(precision):
        zetas = []
        for f, g in slots:
            coeff = ring.zero
            for i in range(max(0, k - len(series) + 1), min(k, len(f) - 1) + 1):
                coeff = coeff + f[i] * series[k - i]
            zeta = coeff - poly_coeff(ring, g, k)
            zetas.append(zeta)
        if trace_log is not None:
            order = sorted(range(4), key=lambda i: (degs[i], i))
            trace_log.append({
                "round": k,
                "basis": [_pair_strs(slots[i]) for i in order],
                "discrepancies": [z.to_str() for z in zetas],
            })
        new_slots = []
        new_degs = list(degs)
        for i, (f, g) in enumerate(slots):
            zi = zetas[i]
            if not zi:
                new_slots.append(slots[i])
                continue
            zi_even = not zi.is_unit()
            candidates = [j for j in range(4)
                          if j != i and zetas[j] and (degs[j], j // 2) < (degs[i], i // 2)
                          and (zetas[j].is_unit() or zi_even)]
            if candidates:
                j = min(candidates, key=lambda jj: (degs[jj], jj))
                zj = zetas[j]
                if zj.is_unit():
                    factor = zi * zj.inverse()
                else:
                    # zi = 2 tau(bi), zj = 2 tau(bj): divide the 0/1-digit halves
                    factor = ring.from_bits(zi.b) * ring.from_bits(zj.b).inverse()
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
                new_degs[i] += 1
        slots, degs = new_slots, new_degs
    i, j, r, s = degs
    assert i >= j and r >= s, f"basis shape ({i},{j},{r},{s}) violates i>=j, r>=s"
    return GroebnerBasis(*slots, shape=(i, j, r, s))


def _pair_strs(pair: PairVector) -> list[str]:
    return [";".join(c.to_str() for c in pair.a),
            ";".join(c.to_str() for c in pair.b)]


def select_minimal_regular(basis: GroebnerBasis) -> PairVector:
    """The <-smallest basis element with a unit leading coefficient:
    unit_right when [0,z^r] < [z^i,0], that is r < i, else unit_left."""
    i, _, r, _ = basis.shape
    return basis.unit_right if r < i else basis.unit_left


def minimal_regular(ring, basis: GroebnerBasis, t: int) -> PairVector:
    """The normalized locator pair, or SolutionNotFound past capability.

    Selects the minimal regular basis element, enforces the degree
    constraints 2 deg a <= t+1, 2 deg b <= t, and scales by a(0)^-1 so
    that a(0) = b(0) = 1.
    """
    pair = select_minimal_regular(basis)
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
