"""Two-pass algebraic decoding of negacyclic codes over Z4.

Pass one solves the key equation for the received word and reduces the
solution mod 2: double roots of the residue locator are exactly the
positions holding the symbol 2, which +-1 errors cannot be told apart
mod 2.  Those doubled positions are subtracted off, and pass two
re-runs the pipeline on the corrected word, where the solution pair is
unique over the full ring and the locator's roots at alpha^-j versus
alpha^(n-j) separate the errors +1 and -1.

Every stage boundary carries int lists: a polynomial or sequence over
GR(4,m) is its two lists (a, b) of GF(2^m) ints (see keyeq), one over
the residue field K = GF(2^m) a single list.  Ring elements are built
only for the trace strings.

The word is held as one int64 NumPy array from intake to outcome:
reading it, doubling off the 2s, applying the +-1 errors (returned as
positions and values, one fancy-index update), forming the error and
its Lee weight are whole-array operations, and the outcome converts to
lists of Python ints only when it is built.  Pass one finds the roots
of its residue locator by one gather from the antilog table, which
gives every term c_i X^i at the residues X of all n points alpha^-j,
and an XOR-reduce over the terms, and reads the root multiplicities
off the same terms (Hasse derivatives, see locate_error_positions).
Pass two's residue locator has its roots at pass one's simple roots
when the word is correctable, so it is evaluated there first and swept
over all n points only when they do not account for its degree (see
resolve_unit_errors); the locator over the full ring is evaluated at
its few roots only.

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
from .polynomial import poly_strip, root_multiplicity
from .solver import PairVector, SolutionNotFound, minimal_regular, solve_by_approximations

__all__ = [
    "DecodeOutcome", "decode",
    "residue_locator", "locate_error_positions", "resolve_unit_errors",
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


def _padded(*polys: list) -> list[list]:
    """The lists padded with zeros to a common length."""
    width = max(map(len, polys))
    return [p + [0] * (width - len(p)) for p in polys]


def _interleave(h: list, d: list) -> list:
    """h_0, d_1, h_1, d_2, ..., d_(w-1), h_(w-1) for lists of one length w:
    the coefficients of h(z^2) + z^-1 d(z^2) when d_0 = 0."""
    out = [0] * (2 * len(h) - 1)
    out[0::2] = h
    out[1::2] = d[1:]
    return out


def residue_locator(pair: PairVector) -> list:
    """The mod-2 error locator of a solution pair [g, h], over K = GF(2^m):
    h(z^2) + z^-1 (g(z^2) - h(z^2)) on the residue lists of g and h.

    The division by z is exact exactly when g and h share their constant
    term; anything else signals an inadmissible pair.
    """
    g, h = _padded(pair.a[0], pair.b[0])
    if g and g[0] != h[0]:
        raise _StageFailure("locator pair has mismatched constant terms")
    return poly_strip(_interleave(h, [x ^ y for x, y in zip(g, h)]))


def _ring_locator(ring, pair: PairVector) -> tuple[list, list]:
    """residue_locator over R: the (a, b) lists of
    h(z^2) + z^-1 (g(z^2) - h(z^2)) for a solution pair [g, h]."""
    ga, gb, ha, hb = _padded(*pair.a, *pair.b)
    exp, hlog = ring._exp, ring._hlog
    # g - h = g + (ha, ha + hb), coefficient by coefficient
    da = [a ^ c for a, c in zip(ga, ha)]
    db = [b ^ c ^ d ^ exp[hlog[a] + hlog[c]] for a, b, c, d in zip(ga, gb, ha, hb)]
    if da and (da[0] or db[0]):
        raise _StageFailure("locator pair has mismatched constant terms")
    sa, sb = _interleave(ha, da), _interleave(hb, db)
    while sa and not (sa[-1] or sb[-1]):
        sa.pop()
        sb.pop()
    return sa, sb


def _sweep(mu_sigma: list, code: Code) -> tuple[list, np.ndarray]:
    """The degrees i of the nonzero terms c_i X^i of mu_sigma, and the
    terms x n gather of those terms at the residues X of all n points
    alpha^-j from the antilog table."""
    field = code.field()
    log = field.log
    deg = [i for i, c in enumerate(mu_sigma) if c]
    logc = np.array([log[c] for c in mu_sigma if c], dtype=np.int64)
    # log of c_i X^i at point j: log c_i + i log X_j, both below the order
    index = np.array(deg, dtype=np.int64)[:, None] * code.residue_logs % field.order
    return deg, code.field_exp[index + logc[:, None]]


def _root_positions(mu_sigma: list, code: Code) -> list[int]:
    """Positions j, ascending, where mu_sigma vanishes at the residue of
    alpha^-j: the gather of _sweep, XOR-reduced over the terms."""
    _, terms = _sweep(mu_sigma, code)
    return np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0).tolist()


def locate_error_positions(mu_sigma: list, code: Code) -> tuple[set, set]:
    """Split positions by root multiplicity of the residue locator.

    Position j is a double error when the residue of alpha^-j is a
    double root, a +-1 error when it is simple.  The multiplicities
    must cover the locator degree exactly; any excess multiplicity or
    stray root means the word is uncorrectable.

    The multiplicities come from the terms the root sweep gathers.
    Over GF(2^m), X sigma'(X) is the sum of the odd-degree terms, so a
    root is at least double exactly when those cancel too, and
    X^2 D2(X), with D2 the second Hasse derivative, is the sum of the
    terms of degree 2 or 3 mod 4, so it is at least triple only when
    those also cancel.  Only then does root_multiplicity run, to name
    the exact multiplicity in the failure.
    """
    if not mu_sigma or not mu_sigma[0]:
        raise _StageFailure("residue locator has zero constant term")
    deg, terms = _sweep(mu_sigma, code)
    roots = np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)
    doubles, singles = set(), set()
    # per root j, ascending, the terms c_i X^i at its point
    for j, at_root in zip(roots.tolist(), terms[:, roots].T.tolist()):
        odd = hasse2 = 0
        for i, c in zip(deg, at_root):
            if i & 1:
                odd ^= c
            if i & 2:
                hasse2 ^= c
        if odd:
            singles.add(j)
        elif hasse2:
            doubles.add(j)
        else:
            field = code.field()
            mult = root_multiplicity(field, mu_sigma, field.exp[code.residue_logs[j]])
            raise _StageFailure(f"residue locator root multiplicity {mult} at position {j}")
    if 2 * len(doubles) + len(singles) != len(mu_sigma) - 1:
        raise _StageFailure("residue locator does not split over the error positions")
    return doubles, singles


def _pass2_roots(mu_sigma: list, code: Code, candidates) -> list[int]:
    """The positions j, ascending, where mu_sigma vanishes at the residue
    of alpha^-j, checked first at the candidates, ascending.

    With a nonzero constant term (pass two's is 1), mu_sigma is a nonzero
    polynomial of degree at most d = len(mu_sigma) - 1, so it has at most
    d roots.  The residues of the n points are distinct, so d vanishing
    candidates are all its roots; otherwise the full sweep of
    _root_positions finds them.
    """
    log, exp, q = code.ring._log, code.ring._exp, code.field().order
    top = mu_sigma[::-1]
    roots = []
    for j in sorted(candidates):
        lx = log[code.alpha_inv_pairs[j][0]]
        v = 0
        for c in top:  # Horner's rule over GF(2^m)
            v = exp[log[v] + lx] ^ c
        if not v:
            roots.append(j)
    if len(roots) == len(mu_sigma) - 1 and mu_sigma[0]:
        return roots
    return _root_positions(mu_sigma, code)


def resolve_unit_errors(sigma: tuple[list, list], code: Code,
                        candidates=()) -> tuple[list, list]:
    """The +-1 errors read off a locator over R with no double roots,
    given as its (a, b) lists: their positions, ascending, and their Z4
    values, 1 for +1 and 3 for -1.

    sigma(alpha^-j) = 0 marks the error +1 at position j and
    sigma(alpha^(n-j)) = 0 marks -1; both vanishing would mean a double
    error, which pass two has already removed.  Both points share the
    residue of alpha^-j, so only the roots of the residue locator need
    ring arithmetic.  Those are looked for first at the candidates
    (pass one's simple roots): pass two's residue locator has constant
    term 1, so it is nonzero of degree at most d = len(sigma[0]) - 1 and
    has at most d roots.  When it vanishes at d candidates those are all
    its roots, and only otherwise is it swept over all n points.  With sigma(x) = E(x^2) + x O(x^2) and
    alpha^(n-j) = -alpha^-j, one Horner pass each for E and O at
    y = alpha^-2j gives both values, E + x O and E - x O.  As
    (a, b)^2 = (a^2, 0), y is a Teichmuller element, so each Horner step
    multiplies by one GF(2^m) element.
    """
    log, exp, hlog, q = code.ring._log, code.ring._exp, code.ring._hlog, code.field().order
    sa, sb = sigma
    # E and O as (a, b) pairs, highest degree first for Horner's rule
    even = list(zip(sa[0::2], sb[0::2]))[::-1]
    odd = list(zip(sa[1::2], sb[1::2]))[::-1]
    positions, values = [], []
    for j in _pass2_roots(sa, code, candidates):
        xa, xb = code.alpha_inv_pairs[j]
        lxa = log[xa]
        ly = 2 * lxa % q  # the log of y = (xa^2, 0)
        evaluated = []
        for poly in (even, odd):
            va = vb = 0
            for a, b in poly:  # v = v y + (a, b)
                pa = exp[log[va] + ly]
                va, vb = pa ^ a, exp[log[vb] + ly] ^ b ^ exp[hlog[pa] + hlog[a]]
            evaluated.append((va, vb))
        (ea, eb), (oa, ob) = evaluated
        # x O = (pa, pb); at a residue root ea = pa, so E + x O and
        # E - x O = E + (pa, pa + pb) vanish by their high parts alone
        pa = exp[lxa + log[oa]]
        pb = exp[lxa + log[ob]] ^ exp[log[xb] + log[oa]]
        plus, minus = eb == pa ^ pb, eb == pb
        if plus and minus:
            raise _StageFailure(f"locator vanishes at both units for position {j}")
        if plus or minus:
            positions.append(j)
            values.append(1 if plus else 3)
    if len(positions) != len(sa) - 1:
        raise _StageFailure("locator degree does not match the resolved error count")
    return positions, values


def _solve_pass(ring, synd: tuple[list, list], t: int,
                trace_log: list | None = None) -> tuple[PairVector, tuple, tuple]:
    u = odd_ratio_coefficients(ring, synd, t)
    ta, tb = key_series(ring, u, t)
    series = ([1] + ta, [0] + tb)
    basis = solve_by_approximations(ring, series, t + 1, trace_log=trace_log)
    return minimal_regular(ring, basis, t), u, series


def _nonzero(synd: tuple[list, list]) -> bool:
    return any(synd[0]) or any(synd[1])


def _strs(ring, poly: tuple[list, list]) -> list[str]:
    return [c.to_str() for c in ring.elements(poly)]


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
        trace["syndromes"] = _strs(ring, synd)
    if not _nonzero(synd):
        codeword, zero_err = word.tolist(), [0] * n
        if trace is not None:
            trace.update(error=word_to_str(zero_err), codeword=word_to_str(codeword))
        return DecodeOutcome(True, codeword=codeword, error=zero_err, trace=trace)

    try:
        rounds: list | None = [] if with_trace else None
        pair, u, series = _solve_pass(ring, synd, t, trace_log=rounds)
        if trace is not None:
            trace["u"] = _strs(ring, u)
            trace["oneplusT"] = _strs(ring, series)
            trace["solverpair"] = [";".join(_strs(ring, pair.a)), ";".join(_strs(ring, pair.b))]
            trace["solver_rounds"] = rounds
        mu_sigma = residue_locator(pair)
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
        sigma2 = _ring_locator(ring, pair2)
        positions, values = resolve_unit_errors(sigma2, code, singles)
        if trace is not None:
            trace["sigma_pass2"] = _strs(ring, sigma2)
    except (SolutionNotFound, _StageFailure) as exc:
        return DecodeOutcome(False, reason=str(exc), trace=trace)

    codeword = prime  # prime is not read again
    if positions:
        codeword[positions] = (codeword[positions] - values) & 3
    error = (word - codeword) & 3

    if _nonzero(syndromes(codeword, code)):
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
