"""Negacyclic codes over Z4: construction, encoding, Lee metric, distance scan.

A negacyclic code of odd length n is an ideal of Z4[x]/<x^n + 1>.
The codes built here are the free codes <g> whose generator has the
roots alpha, alpha^3, ..., alpha^(2t-1) for a primitive 2n-th root of
unity alpha (alpha^n = -1) in GR(4,m), m the order of 2 mod n.  Words
are length-n sequences of Z4 digits, position 0 first.  alpha and its
powers are held as their GF(2^m) pairs (a, b), as in keyeq; alpha^-j
is (r, r if j is odd else 0), so Code keeps only the log of r.  A
codeword m(x) g(x) has degree at most (k-1) + (n-k) = n-1: it never wraps.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .galois_ring import GaloisRing, graeffe_lift, make_ring, negacyclic_root
from .polynomial import Z4, poly_divmod, poly_mul, poly_strip

__all__ = [
    "Code", "build_code", "encode",
    "lee_weight", "lee_distance", "min_distance_exhaustive", "lambda_map",
    "word_to_str", "word_from_str",
]

LEE = (0, 1, 2, 1)

MAX_SCAN_RANK = 12


@dataclass(frozen=True)
class Code:
    """A negacyclic code with designed correction capability t."""

    n: int
    t: int
    ring: GaloisRing
    alpha: tuple[int, int]  # the pair (a, b) of alpha
    generator: tuple[int, ...]
    k: int
    # n x t*m Z4 matrix: row j holds the coefficients of alpha^(j*k),
    # k = 1, 3, ..., 2t-1, so the odd syndromes of w are w @ H mod 4.
    # Read-only float64, so that the product runs on BLAS; it stays
    # exact, as each entry of w @ H is at most 9n <= 9207 < 2^53
    syndrome_matrix: np.ndarray = field(compare=False, repr=False)
    # read-only int64 GF(2^m) logs of the residues of alpha^-j, j = 0..n-1,
    # each below 2^m - 1: the root sweep of both decoder passes gathers at
    # (i mod (2^m - 1)) residue_logs[j] + log c from field().exp_array
    residue_logs: np.ndarray = field(compare=False, repr=False)

    def field(self):
        return self.ring.residue_field()


def _order_of_two(n: int) -> int | None:
    """The order m of 2 mod n when m <= 10, the largest supported ring;
    None above that."""
    for m in range(1, 11):
        if pow(2, m, n) == 1:
            return m
    return None


def _cyclotomic_coset(i: int, n: int) -> tuple[int, ...]:
    out = []
    j = i % n
    while j not in out:
        out.append(j)
        j = (2 * j) % n
    return tuple(sorted(out))


def build_code(n: int, t: int) -> Code:
    """Construct the length-n code correcting Lee weight up to t.

    The generator is the product over the cyclotomic cosets of the odd
    exponents 1..2t-1 of the Z4 minimal polynomials of beta^i (beta =
    -alpha, a Teichmuller element of order n), pushed through x -> -x.
    As the Graeffe lift is multiplicative, that product is one lift of
    the binary BCH generator: the GF(2) product of the binary minimal
    polynomials of the residues of beta^i, over the ring's own residue
    field.

    The tables need only the pairs of the powers of alpha: alpha^e =
    (-1)^e beta^e is the pair (b, b if e is odd else 0), b the residue
    of beta^e = x^(e step), step = (2^m - 1)/n.  syndrome_matrix gathers
    the Z4 digits of alpha^e, e = 0..2n-1, at e = j k mod 2n, and
    residue_logs holds the logs -j step mod 2^m - 1.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"length n={n} must be odd and at least 3")
    if t < 1 or 2 * t - 1 >= n:
        raise ValueError(f"need 1 <= t with 2t-1 < n; got n={n}, t={t}")
    m = _order_of_two(n)
    if m is None:
        raise ValueError(f"order of 2 mod {n} exceeds 10; supported rings stop at m=10")
    ring = make_ring(m)
    alpha = negacyclic_root(ring, n)
    log, exp = ring._log, ring._exp
    # the residues of beta^j, j = 0..n-1
    step = log[alpha[0]]
    res = [exp[j * step] for j in range(n)]

    f = [1]
    for coset in {_cyclotomic_coset(i, n) for i in range(1, 2 * t, 2)}:
        # the binary minimal polynomial: the product of x + res[j]
        factor = [1]
        for j in coset:
            lr = log[res[j]]
            factor = [a ^ exp[log[b] + lr] for a, b in zip([0] + factor, factor + [0])]
        f = [c & 1 for c in poly_mul(f, factor)]

    g = lambda_map(graeffe_lift(f), n)
    if g[-1] == 3:
        g = [(-c) % 4 for c in g]
    assert g[-1] == 1, "generator failed to normalize monic"

    digits = np.array([ring.digits(b, b if e & 1 else 0) for e, b in enumerate(res + res)],
                      dtype=np.float64)
    exponents = np.outer(np.arange(n), np.arange(1, 2 * t, 2)) % (2 * n)
    syndrome_matrix = digits[exponents].reshape(n, t * m)
    # alpha^-j = alpha^(2n-j), whose residue is that of beta^-j
    residue_logs = -step * np.arange(n, dtype=np.int64) % ((1 << m) - 1)
    for table in (syndrome_matrix, residue_logs):
        table.setflags(write=False)

    code = Code(n=n, t=t, ring=ring, alpha=alpha,
                generator=tuple(g), k=n - (len(g) - 1),
                syndrome_matrix=syndrome_matrix, residue_logs=residue_logs)

    # g vanishes at alpha, alpha^3, ..., alpha^(2t-1) exactly when its
    # syndromes do, which also checks the syndrome matrix
    g_word = np.array(g + [0] * (n - len(g)), dtype=np.float64)
    assert not ((g_word @ syndrome_matrix).astype(np.int64) & 3).any(), \
        "generator has nonzero syndromes"
    _, rem = poly_divmod(Z4, [1] + [0] * (n - 1) + [1], list(g))
    assert not rem, "generator does not divide x^n + 1"
    return code


def _is_symbol(c) -> bool:
    """A symbol is a Python or numpy integer; a numpy timedelta64
    subclasses np.signedinteger but is not one."""
    return isinstance(c, (int, np.integer)) and not isinstance(c, np.timedelta64)


def _digits(word, noun: str = "symbol") -> list[int]:
    """The symbols of word reduced mod 4, by the one rule every public
    word input follows: anything that is not _is_symbol, such as a
    float, a string or a numpy timedelta64, raises ValueError naming it
    and its position."""
    out = []
    for j, c in enumerate(word):
        if not _is_symbol(c):
            raise ValueError(f"{noun} {reprlib.repr(c)} at position {j} is not an integer")
        out.append(int(c) % 4)
    return out


def encode(msg, code: Code) -> list[int]:
    """The message polynomial times the generator, padded to length n;
    its symbols are read by _digits."""
    digits = _digits(msg, "message symbol")
    if len(digits) != code.k:
        raise ValueError(f"message length {len(digits)} != rank k={code.k}")
    prod = poly_mul(digits, code.generator)
    return prod + [0] * (code.n - len(prod))


def lee_weight(word) -> int:
    return sum(LEE[c] for c in _digits(word))


def lee_distance(u, v) -> int:
    if len(u) != len(v):
        raise ValueError("words have different lengths")
    return sum(LEE[(a - b) % 4] for a, b in zip(_digits(u), _digits(v)))


def lambda_map(f: list[int], n: int) -> list[int]:
    """The isometry x -> -x between the cyclic and negacyclic quotients."""
    if len(f) > n:
        raise ValueError(f"degree {len(f) - 1} is not below n={n}")
    return poly_strip([(c if i % 2 == 0 else -c) % 4 for i, c in enumerate(f)])


def min_distance_exhaustive(code: Code) -> int:
    """Minimum Lee weight over all 4^k nonzero codewords, by full enumeration.

    Message blocks are scanned in lexicographic chunks (vectorized);
    the result is the true minimum, with no early exit.  Refuses codes
    with k above MAX_SCAN_RANK to keep the scan at desk scale.
    """
    k, n = code.k, code.n
    if k > MAX_SCAN_RANK:
        raise ValueError(
            f"rank {k} exceeds the enumeration bound {MAX_SCAN_RANK} (4^{k} codewords)")
    gen = np.zeros((k, n), dtype=np.int16)
    g = np.array(code.generator, dtype=np.int16)
    for i in range(k):
        gen[i, i:i + len(g)] = g  # i + deg g <= n-1: shifts never wrap
    lee = np.array(LEE, dtype=np.int16)
    total = 4 ** k
    chunk = 1 << 18
    best = None
    shifts = np.arange(k, dtype=np.int64) * 2
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = ((idx[:, None] >> shifts) & 3).astype(np.int16)
        words = (msgs @ gen) % 4
        weights = lee[words].sum(axis=1)
        if start == 0:
            weights[0] = np.iinfo(np.int16).max  # zero codeword
        m = int(weights.min())
        best = m if best is None else min(best, m)
    return best


def word_to_str(word) -> str:
    return "".join(map(str, _digits(word)))


def word_from_str(text: str, n: int | None = None) -> list[int]:
    word = []
    for i, ch in enumerate(text):
        if ch not in "0123":
            raise ValueError(f"invalid digit {ch!r} at position {i}; expected 0-3")
        word.append(int(ch))
    if n is not None and len(word) != n:
        raise ValueError(f"word length {len(word)} != code length {n}")
    return word
