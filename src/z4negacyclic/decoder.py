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
the residue field K = GF(2^m) a single list, and each stage reads t
from its input: the number of syndromes, the t + 1 terms of the key
series, and the shape of the solver's basis (see minimal_regular).
The trace strings are printed from those lists too, by
GaloisRing.pair_strs, so a decode builds no ring element.

The word is held as one int64 NumPy array from intake to outcome:
reading it, doubling off the 2s, applying the +-1 errors (returned as
positions and values, one fancy-index update), forming the error and
its Lee weight are whole-array operations, and the outcome converts to
lists of Python ints only when it is built.  Pass one finds the roots
of its residue locator by one gather from the antilog table, which
gives every term c_i X^i at the residues X of all n points alpha^-j,
and an XOR-reduce over the terms, and reads each root's multiplicity
off the same terms (Hasse derivatives, see root_multiplicity).  Pass
two's residue locator has its roots at pass one's simple roots when
the word is correctable, so the locator over the full ring is
evaluated there first, once per point, and its residue roots read off
those values; only when they do not account for its degree is the
residue locator swept over all n points (see resolve_unit_errors).

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
from .polynomial import poly_strip
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


def _sweep(mu_sigma: list, code: Code) -> tuple[list, np.ndarray, np.ndarray]:
    """The degrees i of the nonzero terms c_i X^i of mu_sigma, the
    terms x n gather of those terms at the residues X of all n points
    alpha^-j from the antilog table, and the positions j, ascending,
    where their XOR, mu_sigma at the residue of alpha^-j, is zero."""
    field = code.field()
    log = field.log
    deg = [i for i, c in enumerate(mu_sigma) if c]
    logc = np.array([log[c] for c in mu_sigma if c], dtype=np.int64)
    # log of c_i X^i at point j: log c_i + i log X_j, both below the order
    index = np.array(deg, dtype=np.int64)[:, None] * code.residue_logs % field.order
    terms = field.exp_array[index + logc[:, None]]
    return deg, terms, np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)


def _root_positions(mu_sigma: list, code: Code) -> list[int]:
    """Positions j, ascending, where mu_sigma vanishes at the residue of
    alpha^-j, by _sweep."""
    return _sweep(mu_sigma, code)[2].tolist()


def root_multiplicity(deg: list, at_root: list) -> int:
    """The multiplicity of a root X of a residue locator sigma, given
    the degrees i of its nonzero terms and the terms c_i X^i at X.

    X^k D_k sigma(X), with D_k the k-th Hasse derivative, is the sum of
    the terms c_i X^i weighted by the binomial C(i, k), which is odd
    exactly when i & k == k (Lucas).  The multiplicity is the least k
    whose sum is nonzero.  The loop stops by k = deg sigma, where only
    the leading term is left: X is a unit and that term is nonzero.
    """
    k = 1
    while True:
        acc = 0
        for i, c in zip(deg, at_root):
            if i & k == k:
                acc ^= c
        if acc:
            return k
        k += 1


def locate_error_positions(mu_sigma: list, code: Code) -> tuple[set, set]:
    """Split positions by root multiplicity of the residue locator.

    Position j is a double error when the residue of alpha^-j is a
    double root, a +-1 error when it is simple.  The multiplicities
    must cover the locator degree exactly; any excess multiplicity or
    stray root means the word is uncorrectable.

    The multiplicity of each root comes from the terms the root sweep
    gathers at its point, by root_multiplicity.
    """
    if not mu_sigma or not mu_sigma[0]:
        raise _StageFailure("residue locator has zero constant term")
    deg, terms, roots = _sweep(mu_sigma, code)
    doubles, singles = set(), set()
    # per root j, ascending, the terms c_i X^i at its point
    for j, at_root in zip(roots.tolist(), terms[:, roots].T.tolist()):
        mult = root_multiplicity(deg, at_root)
        if mult == 1:
            singles.add(j)
        elif mult == 2:
            doubles.add(j)
        else:
            raise _StageFailure(f"residue locator root multiplicity {mult} at position {j}")
    if 2 * len(doubles) + len(singles) != len(mu_sigma) - 1:
        raise _StageFailure("residue locator does not split over the error positions")
    return doubles, singles


def _unit_values(even: list, odd: list, code: Code, points) -> dict:
    """Position j -> (ea, eb, pa, pb), for each j in points: E at
    y = alpha^-2j and x O at x = alpha^-j, for sigma(x) = E(x^2) + x O(x^2)
    with E and O as (a, b) pairs, highest degree first.  As
    (a, b)^2 = (a^2, 0), y is a Teichmuller element, so each Horner step
    multiplies by one GF(2^m) element.  x = (r, r if j is odd else 0) with
    log r = residue_logs[j], so x O = (r oa, r ob + (r oa if j is odd))."""
    log, exp, hlog, q = code.ring._log, code.ring._exp, code.ring._hlog, code.field().order
    out = {}
    for j in points:
        lx = int(code.residue_logs[j])
        ly = 2 * lx % q  # the log of y = (r^2, 0)
        evaluated = []
        for poly in (even, odd):
            va = vb = 0
            for a, b in poly:  # v = v y + (a, b)
                pa = exp[log[va] + ly]
                va, vb = pa ^ a, exp[log[vb] + ly] ^ b ^ exp[hlog[pa] + hlog[a]]
            evaluated.append((va, vb))
        (ea, eb), (oa, ob) = evaluated
        pa = exp[lx + log[oa]]
        out[j] = ea, eb, pa, exp[lx + log[ob]] ^ (pa if j & 1 else 0)
    return out


def resolve_unit_errors(sigma: tuple[list, list], code: Code,
                        candidates=()) -> tuple[list, list]:
    """The +-1 errors read off a locator over R with no double roots,
    given as its (a, b) lists: their positions, ascending, and their Z4
    values, 1 for +1 and 3 for -1.

    sigma(alpha^-j) = 0 marks the error +1 at position j and
    sigma(alpha^(n-j)) = 0 marks -1; both vanishing would mean a double
    error, which pass two has already removed.  Both points share the
    residue of alpha^-j, so only the roots of the residue locator need
    deciding.  With sigma(x) = E(x^2) + x O(x^2) and alpha^(n-j) =
    -alpha^-j, one evaluation of E and x O at each point gives both
    values, E + x O and E - x O, and the residue of the first.

    The residue roots are looked for first at the candidates (pass
    one's simple roots), evaluated once each.  Pass two's residue
    locator has constant term 1, so it is nonzero of degree at most
    d = len(sigma[0]) - 1 and has at most d roots: when it vanishes at
    d candidates, those are all its roots.  Only otherwise is it swept
    over all n points, and the sweep's roots reuse the candidates'
    values.
    """
    sa, sb = sigma
    # E and O as (a, b) pairs, highest degree first for Horner's rule
    even = list(zip(sa[0::2], sb[0::2]))[::-1]
    odd = list(zip(sa[1::2], sb[1::2]))[::-1]
    values = _unit_values(even, odd, code, sorted(candidates))
    # the residue of E + x O is ea + pa
    roots = [j for j, (ea, _, pa, _) in values.items() if ea == pa]
    if not (len(roots) == len(sa) - 1 and sa[0]):
        roots = _root_positions(sa, code)
        values.update(_unit_values(even, odd, code, [j for j in roots if j not in values]))
    positions, errors = [], []
    for j in roots:
        _, eb, pa, pb = values[j]
        # at a residue root ea = pa, so E + x O and E - x O = E + (pa, pa + pb)
        # vanish by their high parts alone
        plus, minus = eb == pa ^ pb, eb == pb
        if plus and minus:
            raise _StageFailure(f"locator vanishes at both units for position {j}")
        if plus or minus:
            positions.append(j)
            errors.append(1 if plus else 3)
    if len(positions) != len(sa) - 1:
        raise _StageFailure("locator degree does not match the resolved error count")
    return positions, errors


def _solve_pass(ring, synd: tuple[list, list],
                trace_log: list | None = None) -> tuple[PairVector, tuple, tuple]:
    u = odd_ratio_coefficients(ring, synd)
    series = key_series(ring, u)
    basis = solve_by_approximations(ring, series, trace_log=trace_log)
    return minimal_regular(ring, basis), u, series


def _nonzero(synd: tuple[list, list]) -> bool:
    return any(synd[0]) or any(synd[1])


def _read_word(word) -> np.ndarray:
    """The symbols of word as a fresh int64 array.

    A 1-D integer or bool array in 0..3, or anything np.asarray turns
    into one, is taken as a whole.  Anything else goes through a loop
    whose only job is to find the symbol to blame: _StageFailure names
    the first one that is not a Python or numpy integer in 0..3.  A
    numpy timedelta64 subclasses np.signedinteger but is not a symbol.
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
        if not (isinstance(c, (int, np.integer)) and not isinstance(c, np.timedelta64)
                and 0 <= c <= 3):
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
        trace["syndromes"] = ring.pair_strs(synd)
    if not _nonzero(synd):
        codeword, zero_err = word.tolist(), [0] * n
        if trace is not None:
            trace.update(error=word_to_str(zero_err), codeword=word_to_str(codeword))
        return DecodeOutcome(True, codeword=codeword, error=zero_err, trace=trace)

    try:
        rounds: list | None = [] if with_trace else None
        pair, u, series = _solve_pass(ring, synd, trace_log=rounds)
        if trace is not None:
            trace["u"] = ring.pair_strs(u)
            trace["oneplusT"] = ring.pair_strs(series)
            trace["solverpair"] = [";".join(ring.pair_strs(pair.a)),
                                   ";".join(ring.pair_strs(pair.b))]
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
        pair2, _, _ = _solve_pass(ring, syndromes(prime, code))
        sigma2 = _ring_locator(ring, pair2)
        positions, values = resolve_unit_errors(sigma2, code, singles)
        if trace is not None:
            trace["sigma_pass2"] = ring.pair_strs(sigma2)
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
