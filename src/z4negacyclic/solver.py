"""Groebner-basis solver for the key equation over R[z]^2.

The solution module M = {[a,b] : a U = b mod z^p}, p the number of
terms of the series U, is approximated one precision level at a time:
starting from a basis of M^(0), each round computes the k-th
discrepancy of every tracked element and repairs it by cancellation
against a strictly smaller element (when the discrepancy divides) or
by multiplication with z.  Four elements are tracked, one per
leading-monomial shape [z^i,0], [2z^j,0], [0,z^r], [0,2z^s]; the
update rules preserve each element's leading monomial, so the shapes
(and leading coefficients 1, 2, 1, 2) persist, and the solver carries
the four leading terms instead of rescanning them.

An element multiplied by z keeps its discrepancy for the next round,
which is therefore not computed again.  Round 0 sees only the
constant term U_0 of the series, so every element starts that way,
with its round-0 discrepancy f_0 U_0 - g_0: U_0, 2 U_0, -1 and -2 for
[1,0], [2,0], [0,1] and [0,2].  A g component reaches degree k only
by a z-shift in round k - 1, so every discrepancy the solver computes
is a coefficient of f * series alone.  Each round rewrites the basis
in place, slots in descending leading-term order: an element is
repaired only against strictly smaller ones, which are therefore
rewritten after every element that reads them.

Terms of R[z]^2 are ordered by <_-1: within one side by degree, and
[0,z^j] < [z^i,0] iff j < i.  That is the native order of the tuples
(degree, side), with side 0 for the left component and 1 for the
right, and so of the ints 2 degree + side that the solver carries;
slot k of the basis leads on side k // 2.  Under this order the
sought locator pair is the minimal element of M outside 2R[z]^2.

A polynomial over R is held as its two int lists (a, b), entry i the
coefficient tau(a_i) + 2 tau(b_i) with a_i, b_i in GF(2^m), as in
keyeq: the series comes in that way, each tracked polynomial is
updated that way, and the basis and the normalized pair go out that
way.  Discrepancies, cancellation factors, cancellations and z-shifts
run inline on the ring's log, antilog and half-log tables (the
formulas of galois_ring.RingElement), and minimal_regular scales its
pair the same way; the trace strings, when a trace_log is given, are
printed from the lists by GaloisRing.pair_strs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple

__all__ = [
    "PairVector", "GroebnerBasis", "SolutionNotFound",
    "solve_by_approximations",
    "select_minimal_regular", "minimal_regular",
]


class PairVector(NamedTuple):
    """An element [a, b] of R[z]^2; each component is a polynomial, held
    by the solver as its (a, b) int lists."""

    a: tuple[list, list]
    b: tuple[list, list]


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


def solve_by_approximations(ring, series: tuple[list, list],
                            trace_log: list | None = None) -> GroebnerBasis:
    """Groebner basis of {[a,b] in R[z]^2 : a * series = b mod z^p},
    for the series as (a, b) lists and p its number of terms.

    Per round k, the discrepancy of [f,g] is the k-th coefficient of
    f*series - g.  A nonzero discrepancy is repaired against the
    <-smallest strictly smaller element whose discrepancy divides it
    (unit discrepancies divide everything; a discrepancy 2e divides 2e'
    via e' e^-1), otherwise the element is multiplied by z.  Lookups
    within a round always use the round's starting basis.  On equal
    leading terms the unit-led element (slot 0 or 2) comes first.
    """
    precision = len(series[0])
    if not precision:
        raise ValueError("the series needs at least one term")
    log, exp, hlog, q = ring._log, ring._exp, ring._hlog, ring._field.order
    corr = ring._corr
    # the series' logs, last first: coefficient k of f*series pairs
    # f_0, f_1, ... with the entries from precision - 1 - k on
    r_la = [log[a] for a in series[0]][::-1]
    r_lb = [log[b] for b in series[1]][::-1]
    # slot k holds [f, g] as the (a, b) lists fa[k], fb[k], ga[k], gb[k]:
    # [1, 0], [2, 0], [0, 1], [0, 2]
    fa, fb = [[1], [0], [], []], [[0], [1], [], []]
    ga, gb = [[], [], [1], [0]], [[], [], [0], [1]]
    # the leading term (degree, side) of slot k, side k // 2, as the int
    # 2 degree + side, so that terms compare as ints: a cancellation keeps
    # it, a z-shift adds 2
    lead = [0, 0, 1, 1]
    # the discrepancies of the slots, and which of them a z-shift carried
    # over from the round before: coefficient k + 1 of z (f series - g)
    # is coefficient k of f series - g.  Every slot starts carried with
    # its round-0 discrepancy f_0 U_0 - g_0, for U_0 = (u, v): U_0,
    # 2 U_0 = (0, u), -1 = (1, 1) and -2 = (0, 1)
    u, v = series[0][0], series[1][0]
    za, zb = [u, 0, 1, 0], [v, u, 1, 1]
    carried = [True] * 4
    for k in range(precision):
        off = precision - 1 - k
        sa, sb = r_la[off:], r_lb[off:]
        for s in range(4):
            if carried[s]:
                continue
            xa = xb = 0
            for a, b, l2a, l2b in zip(fa[s], fb[s], sa, sb):
                la = log[a]
                ya = exp[la + l2a]
                yb = exp[la + l2b] ^ exp[log[b] + l2a]
                xa, xb = xa ^ ya, xb ^ yb ^ exp[hlog[xa] + hlog[ya]]
            za[s], zb[s] = xa, xb
        # slots by (leading degree, slot), the candidate and trace order;
        # the sort is stable, so equal leads keep slot order
        order = sorted(range(4), key=lead.__getitem__)
        if trace_log is not None:
            _trace_round(trace_log, ring, k, (fa, fb, ga, gb), order, (za, zb))
        carried = [False] * 4
        # in place, largest first: a slot's partner leads strictly lower,
        # so it is rewritten only after every slot that reads it
        for s in order[::-1]:
            ai, bi = za[s], zb[s]
            if not (ai or bi):
                continue
            # in ascending order, the first strictly smaller element whose
            # discrepancy divides: a unit divides everything, 2R only 2R
            term = lead[s]
            for j in order:
                if lead[j] < term and (za[j] or zb[j] and not ai):
                    break
            else:
                if fa[s]:
                    fa[s], fb[s] = [0] + fa[s], [0] + fb[s]
                if ga[s]:
                    ga[s], gb[s] = [0] + ga[s], [0] + gb[s]
                lead[s] += 2
                carried[s] = True
                continue
            aj, bj = za[j], zb[j]
            if not aj:
                # zeta_s = 2 tau(bi), zeta_j = 2 tau(bj): divide the
                # elements whose Z4 digits are the bits of bi and bj
                ai, bi, aj, bj = bi, corr[bi], bj, corr[bj]
            # factor = (ai, bi) (aj, bj)^-1, with (a, b)^-1 = (a^-1, b a^-2);
            # q - laj in 1..q is a log of aj^-1, as exp spans two periods
            laj = log[aj]
            lia, lib = q - laj, log[exp[log[bj] + (-2 * laj) % q]]
            lai = log[ai]
            lc = log[exp[lai + lia]]
            ld = log[exp[lai + lib] ^ exp[log[bi] + lia]]
            # x - (c, d) y on each side: with (pa, pb) = (c, d) y_i,
            # x_i - (pa, pb) = x_i + (pa, pa + pb)
            for xas, xbs in ((fa, fb), (ga, gb)):
                ya, yb = xas[j], xbs[j]
                if not ya:
                    continue
                ra, rb = [], []
                # a missing entry is 0, whose log is the zero sentinel:
                # every read with it is 0, so x_i - 0 and 0 - (pa, pb)
                # need no branch
                for x, xh, ea, eb in zip_longest(xas[s], xbs[s], ya, yb, fillvalue=0):
                    le = log[ea]
                    pa = exp[lc + le]
                    ra.append(x ^ pa)
                    rb.append(xh ^ pa ^ exp[lc + log[eb]] ^ exp[ld + le]
                              ^ exp[hlog[x] + hlog[pa]])
                while ra and not (ra[-1] or rb[-1]):
                    ra.pop()
                    rb.pop()
                xas[s], xbs[s] = ra, rb
            # cancellation against a strictly smaller element keeps
            # the leading monomial, so the result is never zero
            assert fa[s] or ga[s]
    i, j, r, s = (t >> 1 for t in lead)
    assert i >= j and r >= s and i + j + r + s == 2 * precision, (
        f"basis shape ({i},{j},{r},{s}) violates i>=j, r>=s or i+j+r+s = {2 * precision}")
    return GroebnerBasis(*(PairVector((fa[k], fb[k]), (ga[k], gb[k])) for k in range(4)),
                         shape=(i, j, r, s))


def _trace_round(trace_log: list, ring, k: int, slots: tuple, order: list,
                 discrepancies: tuple[list, list]) -> None:
    """Append round k's record: the basis in candidate order, as [f, g]
    strings, and the discrepancies of the slots."""
    fa, fb, ga, gb = slots
    trace_log.append({
        "round": k,
        "basis": [[";".join(ring.pair_strs((fa[i], fb[i]))),
                   ";".join(ring.pair_strs((ga[i], gb[i])))] for i in order],
        "discrepancies": ring.pair_strs(discrepancies),
    })


def select_minimal_regular(basis: GroebnerBasis) -> PairVector:
    """The <-smallest basis element with a unit leading coefficient:
    unit_right when [0,z^r] < [z^i,0], that is r < i, else unit_left."""
    i, _, r, _ = basis.shape
    return basis.unit_right if r < i else basis.unit_left


def minimal_regular(ring, basis: GroebnerBasis) -> PairVector:
    """The normalized locator pair, or SolutionNotFound past capability.

    Selects the minimal regular basis element, enforces the degree
    constraints 2 deg a <= t+1, 2 deg b <= t, and scales by a(0)^-1 so
    that a(0) = b(0) = 1.  The pair's components are (a, b) lists.

    The pair solves a U = b mod z^p, so b(0) = a(0) U_0, and the
    scaled b(0) is U_0.  key_series always gives U_0 = 1, so decode
    never sees "pair cannot be normalized"; the check is for a direct
    caller's series.

    t + 1 is the precision p the basis was solved to, and i + j + r + s
    = 2p for its shape: (a, b) -> a U - b mod z^p maps R[z]^2 onto
    R[z]/z^p with kernel M, so R[z]^2/M has |R|^p = 2^(2mp) elements,
    and the standard monomials outside the leading terms [z^i,0],
    [2z^j,0], [0,z^r], [0,2z^s] number 2^(m(i+j+r+s)).
    """
    t = sum(basis.shape) // 2 - 1
    (aa, ab), (ba, bb) = select_minimal_regular(basis)
    if 2 * (len(aa) - 1) > t + 1 or 2 * (len(ba) - 1) > t:
        raise SolutionNotFound(
            f"solution degrees ({len(aa) - 1}, {len(ba) - 1}) exceed the bounds for t={t}")
    if not aa or not aa[0]:
        raise SolutionNotFound("solution constant term is not a unit")
    log, exp, q = ring._log, ring._exp, ring._field.order
    la0 = log[aa[0]]
    lia, lib = q - la0, log[exp[log[ab[0]] + (-2 * la0) % q]]  # a(0)^-1

    def scaled(xa, xb):  # (lia, lib) (a, b) = (ia a, ia b + ib a)
        logs = [log[a] for a in xa]
        return ([exp[lia + la] for la in logs],
                [exp[lia + log[b]] ^ exp[lib + la] for la, b in zip(logs, xb)])

    a, b = scaled(aa, ab), scaled(ba, bb)
    if not b[0] or b[0][0] != 1 or b[1][0]:
        raise SolutionNotFound("pair cannot be normalized to unit constant terms")
    return PairVector(a, b)
