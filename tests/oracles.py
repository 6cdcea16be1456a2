"""Independent oracles for the test suite.

Everything here recomputes expected values by brute force or by a
different route than the code under test: linear solving over Z4,
direct locator construction from error patterns, exhaustive
nearest-codeword search, a bounded-distance decoder of its own (two
binary BCH decodings over K, decode_two_bch), exhaustive enumeration of
key-equation solution modules, the whole <_l family of module term
orders with a leading-term scan (the solver only carries four
degrees), and the plain loops that the table-driven kernels replaced
(bit-loop GF(2^m) arithmetic, Z4 digit-vector ring arithmetic,
per-position syndrome sums, per-position root scans, and the per-point
log-table loop that the decoder's one-gather root sweep replaced, and
the generic-domain locator assembly).  The key-equation stages appear
here once more on RingElement objects and the polynomial domain
protocol, the form the int-pair kernels of keyeq and solver replaced.
RingDomain and FieldDomain are that protocol over R and K, for the
polynomial routines; the Teichmuller set, the Frobenius map, the
Teichmuller decomposition and the multiplicative order (by repeated
multiplication) are element functions that only tests need.
Code construction appears here as it was before it moved to int
pairs and Graeffe lifts: powers of beta and alpha as RingElement
objects, and the generator as products of linear factors over R
through the polynomial domain protocol.  use_modulus swaps one
built-in ring for another presentation of GR(4,m), for both
constructions at once.
It also holds the polynomial helpers that only tests need, among them
the product by the schoolbook double loop, the reference for the
package's Z4 convolution, and Horner evaluation and root multiplicity by
repeated synthetic division over any coefficient domain, the references
for the decoder's Hasse-derivative rule.
"""

from __future__ import annotations

import itertools
import random
import sys

import numpy as np

from objects import alpha_pow
from z4negacyclic import galois_ring, negacyclic
from z4negacyclic.decoder import _StageFailure
from z4negacyclic.galois_ring import GaloisRing, make_ring
from z4negacyclic.negacyclic import (LEE, Code, _cyclotomic_coset, _order_of_two, encode,
                                     lambda_map)
from z4negacyclic.polynomial import Z4, poly_divmod, poly_strip
from z4negacyclic.solver import GroebnerBasis, PairVector, SolutionNotFound, select_minimal_regular


# ---------------------------------------------------------------- reference kernels

def gf_mul_bitloop(field, a: int, b: int) -> int:
    """Shift-and-add product in GF(2^m), reducing by the field modulus."""
    r = 0
    top = 1 << field.m
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= field.modulus_bits
    return r


def gf_inv_bitloop(field, a: int) -> int:
    """a^(2^m - 2) by square and multiply with gf_mul_bitloop."""
    if a == 0:
        raise ZeroDivisionError("0 is not invertible in GF(2^m)")
    r, n = 1, field.size - 2
    while n:
        if n & 1:
            r = gf_mul_bitloop(field, r, a)
        a = gf_mul_bitloop(field, a, a)
        n >>= 1
    return r


def digit_add(x: tuple, y: tuple) -> tuple:
    """Sum of two GR(4,m) elements given as Z4 digit vectors."""
    return tuple((a + b) & 3 for a, b in zip(x, y))


def digit_sub(x: tuple, y: tuple) -> tuple:
    return tuple((a - b) & 3 for a, b in zip(x, y))


def digit_neg(x: tuple) -> tuple:
    return tuple(-a & 3 for a in x)


def digit_mul(ring, x: tuple, y: tuple) -> tuple:
    """Product of two digit vectors: the Z4[x] product reduced by long
    division by the ring's modulus."""
    _, rem = poly_divmod(Z4, poly_mul(Z4, list(x), list(y)), list(ring.modulus))
    return tuple(rem) + (0,) * (ring.m - len(rem))


def syndromes_by_loop(word, code: Code) -> list:
    """The t odd syndromes as ring sums over the nonzero positions."""
    ring = code.ring
    out = []
    for k in range(1, 2 * code.t, 2):
        acc = ring.zero
        for j, c in enumerate(word):
            c = int(c) % 4
            if c:
                acc = acc + alpha_pow(code, j * k) * c
        out.append(acc)
    return out


def root_positions_by_loop(mu_sigma: list, code: Code) -> list[int]:
    """decoder._root_positions as a Python loop over the n points and,
    at each, over the nonzero terms, summing log-table products."""
    field = code.field()
    exp, log, order = field.exp, field.log, field.order
    terms = [(log[c], i) for i, c in enumerate(mu_sigma) if c]
    roots = []
    for j in range(code.n):
        point = int(code.residue_logs[j])
        acc = 0
        for lc, i in terms:
            acc ^= exp[(lc + i * point) % order]
        if not acc:
            roots.append(j)
    return roots


def locate_by_scan(mu_sigma: list, code: Code) -> tuple[set, set]:
    """locate_error_positions by a root_multiplicity call at every position."""
    field = FieldDomain(code.field())
    if not mu_sigma or not mu_sigma[0]:
        raise _StageFailure("residue locator has zero constant term")
    doubles, singles = set(), set()
    covered = 0
    for j in range(code.n):
        point = alpha_pow(code, -j).a
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


def locator_by_objects(dom, g: list, h: list) -> list:
    """sigma(z) = h(z^2) + z^-1 (g(z^2) - h(z^2)) over any coefficient
    domain, coefficient by coefficient: the generic form of the decoder's
    residue_locator (over K) and pass-two locator (over R)."""
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


def resolve_by_scan(sigma: list, code: Code) -> list:
    """resolve_unit_errors by a residue evaluation at every position."""
    ring, n = RingDomain(code.ring), code.n
    field = FieldDomain(code.field())
    mu_sigma = [c.a for c in sigma]
    error = [0] * n
    found = 0
    for j in range(n):
        if poly_eval(field, mu_sigma, alpha_pow(code, -j).a):
            continue
        plus = poly_eval(ring, sigma, alpha_pow(code, -j))
        minus = poly_eval(ring, sigma, alpha_pow(code, n - j))
        if not plus and not minus:
            raise _StageFailure(f"locator vanishes at both units for position {j}")
        if not plus:
            error[j] = 1
            found += 1
        elif not minus:
            error[j] = 3
            found += 1
    if found != len(sigma) - 1:
        raise _StageFailure("locator degree does not match the resolved error count")
    return error


# ---------------------------------------------------------------- two binary BCH decodings

def _bch_positions(field, step: int, n: int, odd: list[int]) -> list[int] | None:
    """The positions j of the binary BCH error pattern whose syndromes
    sum_j X^(jk) (X = x^step, k = 1, 3, ..., 2t-1) are `odd`: the roots
    x^-(j step) of the Berlekamp-Massey connection polynomial of
    s_1 .. s_2t, where s_2i = s_i^2.  None when that polynomial has
    more than t, or not deg-many distinct, roots among the n points."""
    exp, log, order = field.exp, field.log, field.order

    def mul(a, b):
        return exp[log[a] + log[b]]

    s = [0] * (2 * len(odd))  # s[r] is s_(r+1)
    for r in range(len(s)):
        s[r] = odd[r // 2] if r % 2 == 0 else mul(s[r // 2], s[r // 2])
    c, prev, length, gap, prev_d = [1], [1], 0, 1, 1
    for r in range(len(s)):
        d = s[r]
        for i in range(1, min(length, len(c) - 1) + 1):
            d ^= mul(c[i], s[r - i])
        if not d:
            gap += 1
            continue
        scale = exp[(log[d] - log[prev_d]) % order]
        shifted = [0] * gap + [mul(scale, b) for b in prev]
        updated = [a ^ b for a, b in itertools.zip_longest(c, shifted, fillvalue=0)]
        if 2 * length <= r:
            prev, length, prev_d, gap = c, r + 1 - length, d, 1
        else:
            gap += 1
        c = poly_strip(updated)
    if len(c) - 1 != length or length > len(odd):
        return None
    terms = [(log[a], i) for i, a in enumerate(c) if a]
    roots = []
    for j in range(n):
        point = -j * step % order  # the log of x^-(j step)
        acc = 0
        for la, i in terms:
            acc ^= exp[(la + i * point) % order]
        if not acc:
            roots.append(j)
    return roots if len(roots) == length else None


def decode_two_bch(word, code: Code) -> tuple[list, list] | None:
    """The codeword within Lee distance t of word and the error, or None:
    a bounded-distance decoder from two binary BCH decodings over
    K = GF(2^m), with no Galois-ring arithmetic and no Groebner basis.

    Write the error as e = 1_S + 2 1_T, S its +-1 positions and T = B u D
    its -1 and 2 positions (-1 = 1 + 2).  The residues of the syndromes
    of w are the binary BCH syndromes of S, at the residue X of alpha;
    then w - 1_S = c + 2 1_T, and the halves of its syndromes are those
    of T.  Within the radius |S| + 2|D| <= t, so |S| <= t and |T| <= t,
    and the BCH bound makes both sets unique.  The candidate is kept
    only when it has zero syndromes and Lee weight <= t.  Syndrome
    digits come from the code's Z4 syndrome matrix, whose digits are
    the bits of an element's residue and, for an element of 2R, twice
    the bits of its half.
    """
    n, t, m = code.n, code.t, code.ring.m
    field = code.field()
    step = field.log[code.alpha[0]]
    w = np.array([int(c) % 4 for c in word], dtype=np.int64)

    def digits(v):  # row k: the Z4 digits of the k-th odd syndrome of v
        return (v @ code.syndrome_matrix).astype(np.int64).reshape(t, m) & 3

    def packed(bits):
        return [sum(int(b) << i for i, b in enumerate(row)) for row in bits]

    singles = _bch_positions(field, step, n, packed(digits(w) & 1))
    if singles is None:
        return None
    error = np.zeros(n, dtype=np.int64)
    error[singles] = 1
    halves = digits((w - error) & 3)
    if (halves & 1).any():
        return None
    twos = _bch_positions(field, step, n, packed(halves >> 1))
    if twos is None:
        return None
    error[twos] += 2
    codeword = (w - error) & 3
    if digits(codeword).any() or sum(LEE[e] for e in error.tolist()) > t:
        return None
    return codeword.tolist(), error.tolist()


# ---------------------------------------------------------------- object-based construction

def construction_by_objects(n: int, t: int) -> dict:
    """build_code's generator and tables, from RingElement powers of
    alpha = -beta, beta the Teichmuller generator's power of order n,
    and the generator from coset products over R."""
    m = _order_of_two(n)
    ring = make_ring(m)
    full = (1 << ring.m) - 1
    beta = ring.from_pair(2, 0) ** (full // n)  # tau(x) ** ((2^m - 1) / n)
    alpha = -beta
    assert alpha ** n == -ring.one

    beta_pows = [ring.one]
    for _ in range(n - 1):
        beta_pows.append(beta_pows[-1] * beta)

    seen = set()
    f = [ring.one]
    for i in range(1, 2 * t, 2):
        coset = _cyclotomic_coset(i, n)
        if coset in seen:
            continue
        seen.add(coset)
        factor = [ring.one]
        for j in coset:
            factor = poly_mul(RingDomain(ring), factor, [-beta_pows[j], ring.one])
        f = poly_mul(RingDomain(ring), f, factor)

    f_z4 = []
    for c in f:
        if any(c.coeffs[1:]):
            raise AssertionError(f"coset product coefficient {c!r} is not in Z4")
        f_z4.append(c.coeffs[0])

    g = lambda_map(f_z4, n)
    if g[-1] == 3:
        g = [(-c) % 4 for c in g]
    assert g[-1] == 1, "generator failed to normalize monic"

    alpha_pows = [ring.one]
    for _ in range(2 * n - 1):
        alpha_pows.append(alpha_pows[-1] * alpha)

    syndrome_matrix = [[c for k in range(1, 2 * t, 2) for c in alpha_pows[j * k % (2 * n)].coeffs]
                       for j in range(n)]
    log = ring.residue_field().log
    residue_logs = [log[alpha_pows[-j % (2 * n)].a] for j in range(n)]
    return {"alpha": alpha, "alpha_pows": alpha_pows, "generator": tuple(g),
            "syndrome_matrix": syndrome_matrix, "residue_logs": residue_logs}


def use_modulus(monkeypatch, residue: list[int]) -> None:
    """Build every code of degree m = deg(residue) over GaloisRing(residue),
    the ring modulo the Graeffe lift of the primitive GF(2) polynomial
    residue, in place of make_ring(m), in build_code and
    construction_by_objects alike, until the monkeypatch undoes it."""
    ring = GaloisRing(residue)

    def swapped(m: int) -> GaloisRing:
        return ring if m == ring.m else galois_ring.make_ring(m)

    for module in (negacyclic, sys.modules[__name__]):
        monkeypatch.setattr(module, "make_ring", swapped)


# ---------------------------------------------------------------- object-based key equation

def odd_ratio_by_objects(synd: list) -> list:
    """keyeq.odd_ratio_coefficients on RingElement operators:
    k u_k = -s_k + sum_j s_(k-2j) (u^2)_(2j), with (u^2)_(2j) summed
    afresh for every k."""
    t = len(synd)
    u: dict[int, object] = {}
    for k in range(1, 2 * t, 2):
        acc = -synd[(k - 1) // 2]
        for j in range(1, (k - 1) // 2 + 1):
            sq = None  # (u^2)_(2j) = sum over odd i < 2j of u_i u_(2j-i)
            for i in range(1, 2 * j, 2):
                term = u[i] * u[2 * j - i]
                sq = term if sq is None else sq + term
            acc = acc + synd[(k - 2 * j - 1) // 2] * sq
        u[k] = acc * (k % 4)
    return [u[k] for k in range(1, 2 * t, 2)]


def series_inverse(dom, f: list, order: int) -> list:
    """The order terms of h with f*h = 1 mod z^order over any coefficient
    domain, by the standard coefficient recurrence.  Requires a unit
    constant term."""
    if not f or not dom.is_unit(f[0]):
        raise ValueError("series inverse needs a unit constant term")
    c0inv = dom.inv(f[0])
    h = [c0inv]
    for k in range(1, order):
        acc = dom.zero
        for i in range(1, min(k, len(f) - 1) + 1):
            acc = dom.add(acc, dom.mul(f[i], h[k - i]))
        h.append(dom.neg(dom.mul(c0inv, acc)))
    return h


def key_series_by_objects(ring, u: list) -> list:
    """keyeq.key_series through the domain-protocol series_inverse."""
    return series_inverse(RingDomain(ring), [ring.one] + list(u), len(u) + 1)


def solve_by_objects(ring, series: list, precision: int,
                     trace_log: list | None = None) -> GroebnerBasis:
    """solver.solve_by_approximations on RingElement lists and the
    polynomial domain protocol, with the same repair rules, candidate
    order, carried degrees and trace records."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    dom = RingDomain(ring)
    one, two = ring.one, ring.two
    slots = [
        PairVector([one], []), PairVector([two], []),
        PairVector([], [one]), PairVector([], [two]),
    ]
    degs = [0, 0, 0, 0]
    for k in range(precision):
        zetas = []
        for f, g in slots:
            coeff = ring.zero
            for i in range(max(0, k - len(series) + 1), min(k, len(f) - 1) + 1):
                coeff = coeff + f[i] * series[k - i]
            zetas.append(coeff - poly_coeff(dom, g, k))
        if trace_log is not None:
            order = sorted(range(4), key=lambda i: (degs[i], i))
            trace_log.append({
                "round": k,
                "basis": [[";".join(ring.pair_str(c.a, c.b) for c in part) for part in slots[i]]
                          for i in order],
                "discrepancies": [ring.pair_str(z.a, z.b) for z in zetas],
            })
        new_slots = []
        new_degs = list(degs)
        for i, (f, g) in enumerate(slots):
            zi = zetas[i]
            if not zi:
                new_slots.append(slots[i])
                continue
            zi_even = not zi.a
            candidates = [j for j in range(4)
                          if j != i and zetas[j] and (degs[j], j // 2) < (degs[i], i // 2)
                          and (zetas[j].a or zi_even)]
            if candidates:
                j = min(candidates, key=lambda jj: (degs[jj], jj))
                zj = zetas[j]
                if zj.a:
                    factor = zi * zj.inverse()
                else:
                    # zi = 2 tau(bi), zj = 2 tau(bj): divide the elements
                    # whose Z4 digits are the bits of bi and bj
                    factor = _bits_element(ring, zi.b) * _bits_element(ring, zj.b).inverse()
                fj, gj = slots[j]
                updated = PairVector(poly_sub(dom, f, poly_scale(dom, factor, fj)),
                                     poly_sub(dom, g, poly_scale(dom, factor, gj)))
                assert updated.a or updated.b
                new_slots.append(updated)
            else:
                new_slots.append(PairVector(poly_shift(dom, f, 1), poly_shift(dom, g, 1)))
                new_degs[i] += 1
        slots, degs = new_slots, new_degs
    return GroebnerBasis(*slots, shape=tuple(degs))


def _bits_element(ring, bits: int):
    return ring.element([bits >> i & 1 for i in range(ring.m)])


def minimal_regular_by_objects(ring, basis: GroebnerBasis, t: int) -> PairVector:
    """solver.minimal_regular with the scaling by a(0)^-1 done by
    RingElement.inverse and poly_scale."""
    a, b = select_minimal_regular(basis)
    if 2 * (len(a) - 1) > t + 1 or 2 * (len(b) - 1) > t:
        raise SolutionNotFound(
            f"solution degrees ({len(a) - 1}, {len(b) - 1}) exceed the bounds for t={t}")
    if not a or not a[0].a:
        raise SolutionNotFound("solution constant term is not a unit")
    scale = a[0].inverse()
    a = poly_scale(RingDomain(ring), scale, a)
    b = poly_scale(RingDomain(ring), scale, b)
    if not b or b[0] != ring.one:
        raise SolutionNotFound("pair cannot be normalized to unit constant terms")
    return PairVector(a, b)


# ---------------------------------------------------------------- Z4 linear algebra

def _gf2_solve(rows: list[list[int]], ncols: int):
    """Particular solution of an augmented GF(2) system, or None."""
    rows = [row[:] for row in rows]
    piv = {}
    rank_row = 0
    for col in range(ncols):
        sel = None
        for i in range(rank_row, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank_row], rows[sel] = rows[sel], rows[rank_row]
        for i in range(len(rows)):
            if i != rank_row and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank_row])]
        piv[col] = rank_row
        rank_row += 1
    for i in range(rank_row, len(rows)):
        if rows[i][-1]:
            return None
    x = [0] * ncols
    for col, i in piv.items():
        x[col] = rows[i][-1]
    return x


def z4_solve(matrix: list[list[int]], rhs: list[int]):
    """A solution x of matrix @ x = rhs over Z4, or None.

    Unit pivots are eliminated first (full reduction); the leftover
    rows have all coefficients in {0,2} and reduce to a GF(2) system
    over the remaining unknowns.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [[v % 4 for v in row] + [b % 4] for row, b in zip(matrix, rhs)]
    piv = {}
    used = set()
    while True:
        found = None
        for col in range(ncols):
            if col in piv:
                continue
            for i, row in enumerate(rows):
                if i not in used and row[col] % 2 == 1:
                    found = (i, col)
                    break
            if found:
                break
        if not found:
            break
        i, col = found
        scale = rows[i][col]  # 1 and 3 are self-inverse
        rows[i] = [v * scale % 4 for v in rows[i]]
        for j, row in enumerate(rows):
            if j != i and row[col]:
                f = row[col]
                rows[j] = [(a - f * b) % 4 for a, b in zip(row, rows[i])]
        piv[col] = i
        used.add(i)

    sub = []
    for i, row in enumerate(rows):
        if i in used:
            continue
        assert all(v % 2 == 0 for v in row[:-1])
        if row[-1] % 2:
            return None
        sub.append([v // 2 for v in row])
    x2 = _gf2_solve([[v % 2 for v in row] for row in sub], ncols) if sub else [0] * ncols
    if x2 is None:
        return None

    x = list(x2)
    for col, i in piv.items():
        row = rows[i]
        s = row[-1]
        for c in range(ncols):
            if c != col and row[c]:
                s = (s - row[c] * x[c]) % 4
        x[col] = s
    for row, b in zip(matrix, rhs):
        assert sum(r * v for r, v in zip(row, x)) % 4 == b % 4
    return x


# ---------------------------------------------------------------- error patterns

def locator_from_error(code: Code, error) -> list:
    """sigma = prod (1 - X_i z)^lee(e_i), X_i = alpha^i or alpha^(i+n)."""
    ring = code.ring
    sigma = [ring.one]
    for i, e in enumerate(error):
        e = int(e) % 4
        if not e:
            continue
        x = alpha_pow(code, i) if e in (1, 2) else alpha_pow(code, i + code.n)
        for _ in range(LEE[e]):
            sigma = poly_mul(RingDomain(ring), sigma, [ring.one, -x])
    return sigma


def power_sums(code: Code, error, kmax: int) -> list:
    """s_k = sum_j lee(e_j) X_j^k for k = 1..kmax."""
    ring = code.ring
    out = []
    for k in range(1, kmax + 1):
        acc = ring.zero
        for i, e in enumerate(error):
            e = int(e) % 4
            if not e:
                continue
            x = alpha_pow(code, i * k) if e in (1, 2) else alpha_pow(code, (i + code.n) * k)
            acc = acc + x * LEE[e]
        out.append(acc)
    return out


def random_error(rng: random.Random, n: int, weight: int) -> list[int]:
    """Uniform support/sign pattern of exact Lee weight."""
    error = [0] * n
    doubles = rng.randint(0, weight // 2)
    positions = rng.sample(range(n), doubles + (weight - 2 * doubles))
    for p in positions[:doubles]:
        error[p] = 2
    for p in positions[doubles:]:
        error[p] = rng.choice((1, 3))
    return error


def all_error_patterns(n: int, max_weight: int) -> list[list[int]]:
    """Every pattern of Lee weight <= max_weight, by increasing weight.

    A pattern of weight w has some number d of 2s and w - 2d symbols
    +-1 on distinct positions.
    """
    out = []
    for weight in range(max_weight + 1):
        for doubles in range(weight // 2 + 1):
            singles = weight - 2 * doubles
            for support in itertools.combinations(range(n), doubles + singles):
                for twos in itertools.combinations(support, doubles):
                    ones = [p for p in support if p not in twos]
                    for signs in itertools.product((1, 3), repeat=singles):
                        e = [0] * n
                        for p in twos:
                            e[p] = 2
                        for p, v in zip(ones, signs):
                            e[p] = v
                        out.append(e)
    return out


def all_codewords(code: Code) -> list[list[int]]:
    """Every codeword, message-lexicographic (use on small ranks only)."""
    assert code.k <= 7
    out = []
    for msg in itertools.product(range(4), repeat=code.k):
        out.append(encode(list(msg), code))
    return out


# ---------------------------------------------------------------- solution modules

LEFT, RIGHT = 0, 1


def term_less(t1: tuple[int, int], t2: tuple[int, int]) -> bool:
    """Strict comparison of module terms (side, degree) under <_-1, the
    solver's order: within one side by degree, across sides
    [0,z^j] < [z^i,0] iff j <= i - 1."""
    s1, d1 = t1
    s2, d2 = t2
    if s1 == s2:
        return d1 < d2
    if s1 == RIGHT:  # [0,z^d1] vs [z^d2,0]
        return d1 <= d2 - 1
    return d2 > d1 - 1


def leading(pair) -> tuple[tuple[int, int], object]:
    """Greatest term (side, degree) of a nonzero pair under <_-1, with
    its coefficient, by a scan of every coefficient."""
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


def select_by_scan(basis):
    """The <_-1-smallest basis element whose scanned leading coefficient
    is a unit."""
    best = best_term = None
    for el in basis.elements():
        term, coeff = leading(el)
        if coeff.a and (best is None or term_less(term, best_term)):
            best, best_term = el, term
    return best


def module_members(ring, series: list, precision: int, deg_limit: int):
    """All [a, b] with component degrees <= deg_limit and a*series = b mod z^precision.

    Enumerates every a over the full ring; b is pinned to a*series on
    coefficients below the precision and free above it.  Feasible for
    GR(4,2) and deg_limit <= 3.
    """
    dom = RingDomain(ring)
    elements = [ring.element(c) for c in itertools.product(range(4), repeat=ring.m)]
    width = deg_limit + 1
    for a_coeffs in itertools.product(elements, repeat=width):
        a = poly_strip(list(a_coeffs))
        prod = poly_mul(dom, a, series)
        if any(poly_coeff(dom, prod, i) for i in range(width, precision)):
            continue  # b would need a nonzero coefficient past deg_limit
        fixed = [poly_coeff(dom, prod, i) for i in range(min(precision, width))]
        free_slots = width - len(fixed)
        if free_slots == 0:
            yield a, poly_strip(fixed)
        else:
            for tail in itertools.product(elements, repeat=free_slots):
                yield a, poly_strip(fixed + list(tail))


def lm_divides(lm1, lm2) -> bool:
    """Monomial divisibility in R[z]^2: same side, lower degree, coefficient divides."""
    (side1, d1), c1 = lm1
    (side2, d2), c2 = lm2
    if side1 != side2 or d1 > d2:
        return False
    if c1.a:
        return True
    return all(v % 2 == 0 for v in c2.coeffs)  # c1 in 2R: needs c2 in 2R


# ---------------------------------------------------------------- ring and field objects

class RingDomain:
    """GR(4,m) as a coefficient domain of the polynomial routines: its
    elements are RingElement objects, added and multiplied by their
    operators."""

    def __init__(self, ring):
        self.ring = ring
        self.zero, self.one = ring.zero, ring.one

    def from_int(self, k: int):
        return self.ring.from_int(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a) -> bool:
        return a.a != 0

    def inv(self, a):
        return a.inverse()


class FieldDomain:
    """GF(2^m) as a coefficient domain of the polynomial routines: its
    elements are bit-packed ints, multiplied, inverted and raised to
    powers on the field's log and antilog tables."""

    zero, one = 0, 1

    def __init__(self, field):
        self.field = field

    def from_int(self, k: int) -> int:
        return k & 1

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        return self.field.mul(a, b)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("0 is not invertible in GF(2^m)")
            return 0 if n else 1
        field = self.field
        return field.exp[field.log[a] * n % field.order]

    def is_unit(self, a: int) -> bool:
        return a != 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in GF(2^m)")
        field = self.field
        return field.exp[field.order - field.log[a]]


def teichmuller_set(ring) -> list:
    """All 2^m Teichmuller representatives tau(c), ordered by residue c."""
    return [ring.from_pair(c, 0) for c in range(1 << ring.m)]


def frobenius(x):
    """The ring automorphism tau(a) + 2 tau(b) -> tau(a^2) + 2 tau(b^2)."""
    field = x.ring.residue_field()
    return x.ring.from_pair(field.mul(x.a, x.a), field.mul(x.b, x.b))


def teichmuller_decompose(x) -> tuple:
    """The Teichmuller elements (tau(a), tau(b)) with x = tau(a) + 2 tau(b)."""
    return x.ring.from_pair(x.a, 0), x.ring.from_pair(x.b, 0)


def multiplicative_order(x) -> int:
    """Order of a unit in the unit group, by repeated multiplication."""
    if not x.a:
        raise ValueError("order is defined for units only")
    k, power = 1, x
    while power != x.ring.one:
        power, k = power * x, k + 1
    return k


# ---------------------------------------------------------------- test-only helpers

def poly_eval(dom, f: list, x):
    """Horner evaluation."""
    acc = dom.zero
    for c in reversed(f):
        acc = dom.add(dom.mul(acc, x), c)
    return acc


def root_multiplicity(dom, f: list, c) -> int:
    """Largest k with (z - c)^k dividing f, by repeated synthetic division."""
    f = poly_strip(list(f))
    if not f:
        raise ValueError("multiplicity in the zero polynomial is undefined")
    linear = [dom.neg(c), dom.one]
    k = 0
    while f and not poly_eval(dom, f, c):
        f, rem = poly_divmod(dom, f, linear)
        assert not rem
        k += 1
    return k


def poly_coeff(dom, f: list, k: int):
    return f[k] if 0 <= k < len(f) else dom.zero


def poly_add(dom, f: list, g: list) -> list:
    n = max(len(f), len(g))
    return poly_strip([dom.add(poly_coeff(dom, f, i), poly_coeff(dom, g, i))
                       for i in range(n)])


def poly_sub(dom, f: list, g: list) -> list:
    n = max(len(f), len(g))
    return poly_strip([dom.sub(poly_coeff(dom, f, i), poly_coeff(dom, g, i))
                       for i in range(n)])


def poly_mul(dom, f: list, g: list) -> list:
    """The product over any coefficient domain, term by term."""
    if not f or not g:
        return []
    out = [dom.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = dom.add(out[i + j], dom.mul(a, b))
    return poly_strip(out)


def poly_scale(dom, c, f: list) -> list:
    return poly_strip([dom.mul(c, a) for a in f])


def poly_shift(dom, f: list, k: int) -> list:
    """Multiply by z^k."""
    return [dom.zero] * k + f if f else []


def derivative(dom, f: list) -> list:
    """Formal derivative; integer multiples land back in the domain."""
    return poly_strip([dom.mul(dom.from_int(k), c) for k, c in enumerate(f)][1:])


def even_odd_split(dom, f: list) -> tuple[list, list]:
    """Split f = f_e + f_o into even-degree and odd-degree parts."""
    fe = [c if i % 2 == 0 else dom.zero for i, c in enumerate(f)]
    fo = [c if i % 2 == 1 else dom.zero for i, c in enumerate(f)]
    return poly_strip(fe), poly_strip(fo)


def field_gcd(dom, f: list, g: list) -> tuple[list, list, list]:
    """Extended Euclid over a field: returns (gcd, a, b) with a f + b g = gcd.

    The gcd is normalized monic.  Intended for K[z]; any field domain works.
    """
    r0, r1 = poly_strip(list(f)), poly_strip(list(g))
    a0, a1 = [dom.one], []
    b0, b1 = [], [dom.one]
    if not r0 and not r1:
        raise ValueError("gcd(0, 0) is undefined")
    while r1:
        q, r = poly_divmod(dom, r0, r1)
        r0, r1 = r1, r
        a0, a1 = a1, poly_sub(dom, a0, poly_mul(dom, q, a1))
        b0, b1 = b1, poly_sub(dom, b0, poly_mul(dom, q, b1))
    lead_inv = dom.inv(r0[-1])
    return (poly_scale(dom, lead_inv, r0),
            poly_scale(dom, lead_inv, a0),
            poly_scale(dom, lead_inv, b0))


def key_pair_from_locator(sigma: list) -> tuple[list, list]:
    """The pair (phi, omega) with omega(z^2) = sigma_e and
    phi(z^2) = sigma_e + z sigma_o, given the locator sigma over R.

    Generates ground-truth key-equation instances: phi's y^j
    coefficient is sigma_(2j) + sigma_(2j-1) and omega's is sigma_(2j).
    Requires sigma(0) = 1.
    """
    if not sigma or sigma[0] != sigma[0] ** 0:
        raise ValueError("locator must have constant term 1")
    dom = RingDomain(sigma[0].ring)
    half = len(sigma) // 2 + 1
    omega = [poly_coeff(dom, sigma, 2 * j) for j in range(half)]
    phi = [poly_coeff(dom, sigma, 2 * j) + poly_coeff(dom, sigma, 2 * j - 1)
           for j in range(half)]
    return poly_strip(phi), poly_strip(omega)
