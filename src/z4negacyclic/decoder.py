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
lists of Python ints only when it is built.  Each pass finds the
roots of its own residue locator by one sweep (_sweep): a gather from
the residue field's antilog array, which gives every term c_i X^i at
the residues X of all n points alpha^-j, and an XOR-reduce over the
terms.  Pass one reads each root's multiplicity off the same terms
(Hasse derivatives, see root_multiplicity); pass two evaluates its
locator over the full ring at those roots only (resolve_unit_errors)
and takes nothing from pass one but the corrected word.

A decode never raises for bad input words.  Every failure site, from
the input checks to the final check that the candidate codeword has
zero syndromes and lies within Lee distance t of the input, raises
_StageFailure, or SolutionNotFound in the solver, and one exit in
decode turns each into the failing DecodeOutcome.

Failure sites.  A decode that fails stops at one of twelve sites.
Nine can fire, and tests/test_failure_sites.py reaches each through
decode with a pinned word:
  input:  the word is not a sequence; a symbol is not an integer in
          0..3; the length is not n.
  pass 1: the solution degrees exceed the bounds, or its constant term
          is not a unit (minimal_regular); a residue root has
          multiplicity above 2; the residue locator does not split.
  pass 2: the locator vanishes at both units; its degree does not
          match the resolved error count.
Pass two also runs the solver, but no solver failure in pass two has
been seen.  The other three sites cannot fire from decode:
  - minimal_regular's "pair cannot be normalized": a pair in the
    solution module has b(0) = a(0) U_0, and key_series gives U_0 = 1.
    So both passes' pairs have g(0) = h(0) = 1, the division by z in
    either locator is exact, and each residue locator has constant
    term 1; no stage checks that again.
  - "residual syndromes": the degree bounds keep every locator's
    degree <= t.  On a resolution, pass two's locator sigma, with
    constant term 1, has as many roots +-alpha^-j at distinct
    positions as its degree, so it is prod (1 - X_j z), the locator
    of the +-1 pattern e it resolves.  Then pass two's pair is
    e's own, which solves the key equation with e's series (the
    paper's key equation for weight <= t); as g(0) = 1, e and the
    corrected word have the same series mod z^(t+1), hence the same
    syndromes, which the series determines term by term (unit
    diagonal).  So the candidate has zero syndromes.
  - "Lee distance > t": mod 2 both passes solve one key equation over
    K, as subtracting 2s leaves the residues of the syndromes alone.
    Two solutions within the degree bounds have g1 h2 = g2 h1 exactly
    (both sides have degree <= t), so the two residue locators are
    c1(z^2) and c2(z^2) times one polynomial, and c(z^2) is a square
    in characteristic 2.  On a resolution pass two's residue locator
    has d simple roots and degree d, so it is square-free, and pass
    one's is a square times it: multiplicities 1 and 2 make pass two's
    roots exactly pass one's singles.  The error is then 2 on the
    doubles and +-1 on the singles, of Lee weight deg mu_sigma <= t.
The final checks stay all the same: they are what keeps a success
honest.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .keyeq import key_series, odd_ratio_coefficients, syndromes
from .negacyclic import LEE, Code, _is_symbol, word_to_str
from .polynomial import poly_strip
from .solver import PairVector, SolutionNotFound, minimal_regular, solve_by_approximations

__all__ = ["DecodeOutcome", "decode"]

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
    h(z^2) + z^-1 (g(z^2) - h(z^2)) on the residue lists of g and h,
    for a pair with g(0) = h(0) = 1 (see Failure sites above)."""
    g, h = _padded(pair.a[0], pair.b[0])
    return poly_strip(_interleave(h, [x ^ y for x, y in zip(g, h)]))


def _ring_locator(ring, pair: PairVector) -> tuple[list, list]:
    """residue_locator over R: the (a, b) lists of
    h(z^2) + z^-1 (g(z^2) - h(z^2)) for a solution pair [g, h]."""
    ga, gb, ha, hb = _padded(*pair.a, *pair.b)
    exp, hlog = ring._exp, ring._hlog
    # g - h = g + (ha, ha + hb), coefficient by coefficient
    da = [a ^ c for a, c in zip(ga, ha)]
    db = [b ^ c ^ d ^ exp[hlog[a] + hlog[c]] for a, b, c, d in zip(ga, gb, ha, hb)]
    sa, sb = _interleave(ha, da), _interleave(hb, db)
    while sa and not (sa[-1] or sb[-1]):
        sa.pop()
        sb.pop()
    return sa, sb


def _sweep(mu_sigma: list, code: Code) -> tuple[list, np.ndarray, np.ndarray]:
    """The degrees i of the nonzero terms c_i X^i of mu_sigma, the
    terms x n gather of those terms at the residues X of all n points
    alpha^-j from the antilog array, and the positions j, ascending,
    where their XOR, mu_sigma at the residue of alpha^-j, is zero."""
    field = code.field()
    log, order = field.log, field.order
    deg = [i for i, c in enumerate(mu_sigma) if c]
    logc = np.array([log[c] for c in mu_sigma if c], dtype=np.int64)
    # log of c_i X^i at point j: (i mod order) log X_j + log c_i, below
    # order^2, the length of exp_array, as X_j^order = 1
    index = np.array([i % order for i in deg], dtype=np.int64)[:, None] * code.residue_logs
    terms = field.exp_array[index + logc[:, None]]
    return deg, terms, np.flatnonzero(np.bitwise_xor.reduce(terms, axis=0) == 0)


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


def locate_error_positions(mu_sigma: list, code: Code) -> tuple[list, list]:
    """Split positions by root multiplicity of the residue locator, into
    the doubles and the singles, each ascending.

    Position j is a double error when the residue of alpha^-j is a
    double root, a +-1 error when it is simple.  The multiplicities
    must cover the locator degree exactly; any excess multiplicity or
    stray root means the word is uncorrectable.

    The multiplicity of each root comes from the terms the root sweep
    gathers at its point, by root_multiplicity.
    """
    deg, terms, roots = _sweep(mu_sigma, code)
    doubles, singles = [], []
    # per root j, ascending, the terms c_i X^i at its point
    for j, at_root in zip(roots.tolist(), terms[:, roots].T.tolist()):
        mult = root_multiplicity(deg, at_root)
        if mult == 1:
            singles.append(j)
        elif mult == 2:
            doubles.append(j)
        else:
            raise _StageFailure(f"residue locator root multiplicity {mult} at position {j}")
    if 2 * len(doubles) + len(singles) != len(mu_sigma) - 1:
        raise _StageFailure("residue locator does not split over the error positions")
    return doubles, singles


def resolve_unit_errors(sigma: tuple[list, list], code: Code) -> tuple[list, list]:
    """The +-1 errors read off a locator over R with no double roots,
    given as its (a, b) lists: their positions, ascending, and their Z4
    values, 1 for +1 and 3 for -1.

    sigma(alpha^-j) = 0 marks the error +1 at position j and
    sigma(alpha^(n-j)) = 0 marks -1; both vanishing would mean a double
    error, which pass two has already removed.  Both points share the
    residue of alpha^-j, so only the roots of the residue locator, which
    _sweep finds, need deciding.  With sigma(x) = E(x^2) + x O(x^2) and
    alpha^(n-j) = -alpha^-j, one evaluation of E at y = alpha^-2j and of
    x O at x = alpha^-j gives both values, E + x O and E - x O.  As
    (a, b)^2 = (a^2, 0), y is a Teichmuller element, so each Horner step
    multiplies by one GF(2^m) element; x = (r, r if j is odd else 0)
    with log r = residue_logs[j], so x O = (r oa, r ob + (r oa if j is
    odd)).
    """
    sa, sb = sigma
    log, exp, hlog, q = code.ring._log, code.ring._exp, code.ring._hlog, code.field().order
    # E and O as (a, b) pairs, highest degree first for Horner's rule
    even = list(zip(sa[0::2], sb[0::2]))[::-1]
    odd = list(zip(sa[1::2], sb[1::2]))[::-1]
    positions, errors = [], []
    for j in _sweep(sa, code)[2].tolist():
        lx = int(code.residue_logs[j])
        ly = 2 * lx % q  # the log of y = (r^2, 0)
        evaluated = []
        for poly in (even, odd):
            va = vb = 0
            for a, b in poly:  # v = v y + (a, b)
                pa = exp[log[va] + ly]
                va, vb = pa ^ a, exp[log[vb] + ly] ^ b ^ exp[hlog[pa] + hlog[a]]
            evaluated.append((va, vb))
        (_, eb), (oa, ob) = evaluated
        pa = exp[lx + log[oa]]
        pb = exp[lx + log[ob]] ^ (pa if j & 1 else 0)
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
    the first one that is not a symbol (negacyclic's _is_symbol) in 0..3.
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
        if not (_is_symbol(c) and 0 <= c <= 3):
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
    trace: dict | None = None
    try:
        word = _read_word(word)
        if len(word) != code.n:
            raise _StageFailure(f"word length {len(word)} != n={code.n}")
        ring, t, n = code.ring, code.t, code.n
        if with_trace:
            trace = {}

        synd = syndromes(word, code)
        if trace is not None:
            trace["syndromes"] = ring.pair_strs(synd)
        if not _nonzero(synd):
            codeword, zero_err = word.tolist(), [0] * n
            if trace is not None:
                trace.update(error=word_to_str(zero_err), codeword=word_to_str(codeword))
            return DecodeOutcome(True, codeword=codeword, error=zero_err, trace=trace)

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
            trace.update(doubles=doubles, singles=singles)

        prime = word.copy()
        prime[doubles] ^= 2  # p - 2 mod 4 on 0..3

        # the second pass always reruns the pipeline on the corrected word,
        # even when no double errors were found
        pair2, _, _ = _solve_pass(ring, syndromes(prime, code))
        sigma2 = _ring_locator(ring, pair2)
        positions, values = resolve_unit_errors(sigma2, code)
        if trace is not None:
            trace["sigma_pass2"] = ring.pair_strs(sigma2)

        codeword = prime  # prime is not read again
        if positions:
            codeword[positions] = (codeword[positions] - values) & 3
        error = (word - codeword) & 3
        if _nonzero(syndromes(codeword, code)):
            raise _StageFailure("candidate codeword has residual syndromes")
        if _LEE[error].sum() > t:
            raise _StageFailure(f"nearest candidate lies at Lee distance > {t}")
    except (SolutionNotFound, _StageFailure) as exc:
        return DecodeOutcome(False, reason=str(exc), trace=trace)

    codeword, error = codeword.tolist(), error.tolist()
    if trace is not None:
        trace.update(error=word_to_str(error), codeword=word_to_str(codeword))
    return DecodeOutcome(True, codeword=codeword, error=error, trace=trace)
