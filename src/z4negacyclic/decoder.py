"""Two-pass algebraic decoding of negacyclic codes over Z4.

Pass one solves the key equation for the received word and reduces the
solution mod 2: double roots of the residue locator are exactly the
positions holding the symbol 2, which +-1 errors cannot be told apart
mod 2.  Those doubled positions are subtracted off, and pass two
re-runs the pipeline on the corrected word, where the solution pair is
unique over the full ring and the locator's roots at alpha^-j versus
alpha^(n-j) separate the errors +1 and -1.

The word is held as one int64 NumPy array from intake to outcome:
reading it, doubling off the 2s, forming the codeword and error and
their Lee weight are whole-array operations, and the outcome converts
to lists of Python ints only when it is built.  Both passes find the
roots of a residue locator the same way: one gather from the antilog
table gives every term c_i X^i at the residues X of all n points
alpha^-j, and an XOR-reduce over the terms evaluates the locator there.
Only the few roots it finds get a multiplicity (pass one) or an
evaluation over the full ring (pass two).

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
from .negacyclic import LEE, Code, word_to_str
from .polynomial import poly_coeff, poly_strip, root_multiplicity
from .solver import PairVector, SolutionNotFound, minimal_regular, solve_by_approximations

__all__ = [
    "DecodeOutcome", "decode",
    "locator_from_pair", "residue_locator",
    "locate_error_positions", "resolve_unit_errors",
]

_LEE = np.array(LEE, dtype=np.int64)


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
    alpha^-j: one gather of the terms c_i X^i at all n points from the
    antilog table, XOR-reduced over the terms."""
    field = code.field()
    log = field.log
    deg = np.array([i for i, c in enumerate(mu_sigma) if c], dtype=np.int64)
    logc = np.array([log[c] for c in mu_sigma if c], dtype=np.int64)
    # log of c_i X^i at point j: log c_i + i log X_j, both below the order
    terms = code.field_exp[(deg[:, None] * code.residue_logs) % field.order + logc[:, None]]
    return np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0).tolist()


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


def _read_word(word) -> np.ndarray:
    """The symbols of word as a fresh int64 array.

    A 1-D integer or bool array in 0..3, or anything np.asarray turns
    into one, is taken as a whole.  Anything else goes through a loop
    whose only job is to find the symbol to blame: _StageFailure names
    the first one that is not a Python or numpy integer in 0..3.
    """
    try:
        arr = np.asarray(word)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is not None and arr.ndim == 1 and arr.dtype.kind in "iub":
        ints = arr.astype(np.int64)
        # a value outside 0..3 sets a bit above the lowest two, also
        # when a uint64 above 2^63 wraps to a negative int64
        if not (ints & -4).any():
            return ints
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
    return np.array(out, dtype=np.int64)


def decode(word, code: Code, with_trace: bool = False) -> DecodeOutcome:
    """Decode a received word; corrects any error of Lee weight <= t.

    The word is a sequence of n symbols, each a Python or numpy integer
    in 0..3; anything else is reported as a failure.  The outcome holds
    lists of Python ints.
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
        codeword, zero_err = word.tolist(), [0] * n
        if trace is not None:
            trace.update(error=word_to_str(zero_err), codeword=word_to_str(codeword))
        return DecodeOutcome(True, codeword=codeword, error=zero_err, trace=trace)

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

        prime = word.copy()
        prime[list(doubles)] ^= 2  # p - 2 mod 4 on 0..3

        # the second pass always reruns the pipeline on the corrected word,
        # even when no double errors were found
        pair2, _, _ = _solve_pass(ring, syndromes(prime, code), t)
        sigma2 = locator_from_pair(ring, pair2.a, pair2.b)
        unit_err = resolve_unit_errors(sigma2, code)
        if trace is not None:
            trace["sigma_pass2"] = [c.to_str() for c in sigma2]
    except (SolutionNotFound, _StageFailure) as exc:
        return DecodeOutcome(False, reason=str(exc), trace=trace)

    codeword = (prime - unit_err) & 3
    error = (word - codeword) & 3

    if any(syndromes(codeword, code)):
        return DecodeOutcome(False, reason="candidate codeword has residual syndromes",
                             trace=trace)
    if _LEE[error].sum() > t:
        return DecodeOutcome(False,
                             reason=f"nearest candidate lies at Lee distance > {t}",
                             trace=trace)
    codeword, error = codeword.tolist(), error.tolist()
    if trace is not None:
        trace.update(error=word_to_str(error), codeword=word_to_str(codeword))
    return DecodeOutcome(True, codeword=codeword, error=error, trace=trace)
