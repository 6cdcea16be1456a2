"""Two-pass algebraic decoding of negacyclic codes over Z4.

Pass one solves the key equation for the received word and reduces the
solution mod 2: double roots of the residue locator are exactly the
positions holding the symbol 2, which +-1 errors cannot be told apart
mod 2.  Those doubled positions are subtracted off, and pass two
re-runs the pipeline on the corrected word, where the solution pair is
unique over the full ring and the locator's roots at alpha^-j versus
alpha^(n-j) separate the errors +1 and -1.

Both passes find the roots of a residue locator the same way: one sweep
of GF(2^m) log-table lookups evaluates it at the residues of all n
points alpha^-j, and only the few roots it finds get a multiplicity
(pass one) or an evaluation over the full ring (pass two).

A decode never raises for bad input words; every failure mode is
reported through DecodeOutcome, and a final check that the candidate
codeword has zero syndromes and lies within Lee distance t of the
input guards against garbage output on uncorrectable words.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .keyeq import key_series, odd_ratio_coefficients, syndromes
from .negacyclic import Code, lee_weight, word_to_str
from .polynomial import poly_coeff, poly_strip, root_multiplicity
from .solver import PairVector, SolutionNotFound, minimal_regular, solve_by_approximations

__all__ = [
    "DecodeOutcome", "decode",
    "locator_from_pair", "residue_locator",
    "locate_error_positions", "resolve_unit_errors",
]


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a codeword with its error vector, or a failure reason."""

    success: bool
    reason: str | None = None
    codeword: list | None = None
    error: list | None = None
    trace: dict | None = None


class _StageFailure(Exception):
    """Internal: aborts the pipeline with a reason for DecodeOutcome."""


def locator_from_pair(dom, g: list, h: list) -> list:
    """sigma(z) = h(z^2) + z^-1 (g(z^2) - h(z^2)) over the given domain.

    The division by z is exact exactly when g and h share their
    constant term; anything else signals an inadmissible pair.
    """
    diff = [dom.sub(poly_coeff(dom, g, j), poly_coeff(dom, h, j))
            for j in range(max(len(g), len(h)))]
    if diff and diff[0]:
        raise _StageFailure("locator pair has mismatched constant terms")
    width = 2 * max(len(g), len(h))
    out = []
    for k in range(width):
        if k % 2 == 0:
            out.append(poly_coeff(dom, h, k // 2))
        else:
            out.append(poly_coeff(dom, diff, (k + 1) // 2))
    return poly_strip(out)


def residue_locator(pair: PairVector, field) -> list:
    """The mod-2 error locator of a solution pair, over K = GF(2^m)."""
    mu_g = [c.residue() for c in pair.a]
    mu_h = [c.residue() for c in pair.b]
    return locator_from_pair(field, mu_g, mu_h)


def _root_positions(mu_sigma: list, code: Code) -> list[int]:
    """Positions j, ascending, where mu_sigma vanishes at the residue of
    alpha^-j: one sweep over the n points, by log-table lookups."""
    field = code.field()
    exp, log, order = field.exp, field.log, field.order
    terms = [(log[c], i) for i, c in enumerate(mu_sigma) if c]
    roots = []
    for j, point in enumerate(code.residue_logs):
        acc = 0
        for lc, i in terms:
            acc ^= exp[(lc + i * point) % order]
        if not acc:
            roots.append(j)
    return roots


def locate_error_positions(mu_sigma: list, code: Code) -> tuple[set, set]:
    """Split positions by root multiplicity of the residue locator.

    Position j is a double error when the residue of alpha^-j is a
    double root, a +-1 error when it is simple.  The multiplicities
    must cover the locator degree exactly; any excess multiplicity or
    stray root means the word is uncorrectable.
    """
    field = code.field()
    if not mu_sigma or not mu_sigma[0]:
        raise _StageFailure("residue locator has zero constant term")
    doubles, singles = set(), set()
    covered = 0
    for j in _root_positions(mu_sigma, code):
        point = field.exp[code.residue_logs[j]]
        mult = root_multiplicity(field, mu_sigma, point)
        if mult > 2:
            raise _StageFailure(f"residue locator root multiplicity {mult} at position {j}")
        if mult == 2:
            doubles.add(j)
        elif mult == 1:
            singles.add(j)
        covered += mult
    if covered != len(mu_sigma) - 1:
        raise _StageFailure("residue locator does not split over the error positions")
    return doubles, singles


def resolve_unit_errors(sigma: list, code: Code) -> list:
    """Read a +-1 error word off a locator over R with no double roots.

    sigma(alpha^-j) = 0 marks the error +1 at position j and
    sigma(alpha^(n-j)) = 0 marks -1; both vanishing would mean a double
    error, which pass two has already removed.  Both evaluations run
    Horner's rule on the (a, b) pairs of sigma's coefficients.
    """
    ring, n = code.ring, code.n
    log, exp, hlog = ring._log, ring._exp, ring._hlog
    # sigma's (a, b) pairs, highest degree first, for Horner's rule
    ca = [c.a for c in reversed(sigma)]
    cb = [c.b for c in reversed(sigma)]
    error = [0] * n
    found = 0
    # alpha^-j and alpha^(n-j) share their residue, so only the residue
    # roots need ring arithmetic
    for j in _root_positions([c.a for c in sigma], code):
        vanishes = []
        for x in (code.alpha_pow(-j), code.alpha_pow(n - j)):
            lxa, lxb = log[x.a], log[x.b]
            va = vb = 0
            for a, b in zip(ca, cb):  # v = v x + (a, b)
                lva = log[va]
                pa = exp[lva + lxa]
                pb = exp[lva + lxb] ^ exp[log[vb] + lxa]
                va, vb = pa ^ a, pb ^ b ^ exp[hlog[pa] + hlog[a]]
            vanishes.append(not (va or vb))
        plus, minus = vanishes
        if plus and minus:
            raise _StageFailure(f"locator vanishes at both units for position {j}")
        if plus:
            error[j] = 1
            found += 1
        elif minus:
            error[j] = 3
            found += 1
    if found != len(sigma) - 1:
        raise _StageFailure("locator degree does not match the resolved error count")
    return error


def _solve_pass(ring, synd: list, t: int,
                trace_log: list | None = None) -> tuple[PairVector, list, list]:
    u = odd_ratio_coefficients(synd, t)
    series = [ring.one] + key_series(u, t)
    basis = solve_by_approximations(ring, series, t + 1, trace_log=trace_log)
    return minimal_regular(ring, basis, t), u, series


def _read_word(word) -> list[int]:
    """The symbols of word as ints; _StageFailure names the first one
    that is not a Python or numpy integer in 0..3."""
    try:
        symbols = iter(word)
    except TypeError:
        raise _StageFailure(f"word of type {type(word).__name__} is not a sequence") from None
    out = []
    for j, c in enumerate(symbols):
        if not (isinstance(c, (int, np.integer)) and 0 <= c <= 3):
            raise _StageFailure(
                f"symbol {reprlib.repr(c)} at position {j} is not an integer in 0..3")
        out.append(int(c))
    return out


def decode(word, code: Code, with_trace: bool = False) -> DecodeOutcome:
    """Decode a received word; corrects any error of Lee weight <= t.

    The word is a sequence of n symbols, each a Python or numpy integer
    in 0..3; anything else is reported as a failure.
    """
    try:
        word = _read_word(word)
    except _StageFailure as exc:
        return DecodeOutcome(False, reason=str(exc))
    if len(word) != code.n:
        return DecodeOutcome(False, reason=f"word length {len(word)} != n={code.n}")
    ring, t, n = code.ring, code.t, code.n
    trace: dict | None = {} if with_trace else None

    synd = syndromes(word, code)
    if trace is not None:
        trace["syndromes"] = [s.to_str() for s in synd]
    if not any(synd):
        zero_err = [0] * n
        if trace is not None:
            trace.update(error=word_to_str(zero_err), codeword=word_to_str(word))
        return DecodeOutcome(True, codeword=word, error=zero_err, trace=trace)

    try:
        rounds: list | None = [] if with_trace else None
        pair, u, series = _solve_pass(ring, synd, t, trace_log=rounds)
        if trace is not None:
            trace["u"] = [c.to_str() for c in u]
            trace["oneplusT"] = [c.to_str() for c in series]
            trace["solverpair"] = [";".join(c.to_str() for c in pair.a),
                                   ";".join(c.to_str() for c in pair.b)]
            trace["solver_rounds"] = rounds
        mu_sigma = residue_locator(pair, code.field())
        if trace is not None:
            trace["sigma_mod2"] = [str(c) for c in mu_sigma]
        doubles, singles = locate_error_positions(mu_sigma, code)
        if trace is not None:
            trace["doubles"] = sorted(doubles)
            trace["singles"] = sorted(singles)

        prime = list(word)
        for j in doubles:
            prime[j] = (prime[j] - 2) % 4

        # the second pass always reruns the pipeline on the corrected word,
        # even when no double errors were found
        pair2, _, _ = _solve_pass(ring, syndromes(prime, code), t)
        sigma2 = locator_from_pair(ring, pair2.a, pair2.b)
        unit_err = resolve_unit_errors(sigma2, code)
        if trace is not None:
            trace["sigma_pass2"] = [c.to_str() for c in sigma2]
    except (SolutionNotFound, _StageFailure) as exc:
        return DecodeOutcome(False, reason=str(exc), trace=trace)

    codeword = [(p - e) % 4 for p, e in zip(prime, unit_err)]
    error = [(v - c) % 4 for v, c in zip(word, codeword)]

    if any(syndromes(codeword, code)):
        return DecodeOutcome(False, reason="candidate codeword has residual syndromes",
                             trace=trace)
    if lee_weight(error) > t:
        return DecodeOutcome(False,
                             reason=f"nearest candidate lies at Lee distance > {t}",
                             trace=trace)
    if trace is not None:
        trace.update(error=word_to_str(error), codeword=word_to_str(codeword))
    return DecodeOutcome(True, codeword=codeword, error=error, trace=trace)
