"""From a received word to the key-equation input.

The decoder knows the odd syndromes s_k = v(alpha^k), k = 1, 3, ...,
2t-1, computed as one Z4 matrix product of the word with the code's
precomputed coefficient expansion of the powers alpha^(jk).  Writing
sigma for the error locator and u = sigma_o / sigma_e for the ratio of
its odd and even parts, the odd syndromes determine the odd
coefficients u_1, u_3, ... through the recursion obtained from
s_o (u^2 - 1) = z u'; the divisions are by odd integers, which
are always units here.  The series 1 + T with T(z^2) = (1+z u)^-1 - 1
then feeds the solver: solutions [a, b] of a (1+T) = b mod z^(t+1)
recover the even/odd split of sigma.  Each stage reads t as the length
of its input, and key_series returns 1 + T itself, its t + 1 terms
being the solver's input and fixing its precision.

Every sequence over GR(4,m) here, syndromes and polynomials alike, is
held as its two int lists (a, b): entry i is the element
tau(a_i) + 2 tau(b_i), with a_i, b_i in GF(2^m).  The stages take and
return that form and run every ring product and sum inline on the
ring's log, antilog and half-log tables (the formulas of
galois_ring.RingElement), so no ring element is built;
GaloisRing.pair_strs prints a result entry by entry.
"""

from __future__ import annotations

import numpy as np

from .negacyclic import Code

__all__ = [
    "syndromes",
    "odd_ratio_coefficients",
    "key_series",
    "series_inverse",
]

# 2^i for packing bit i of a GF(2^m) element, m < 63
_BITS = 1 << np.arange(63, dtype=np.int64)


def syndromes(word, code: Code) -> tuple[list, list]:
    """The t odd syndromes v(alpha), v(alpha^3), ..., v(alpha^(2t-1)),
    as their (a, b) int lists.

    An integer ndarray word is reduced mod 4 as one array; any other
    sequence symbol by symbol, with int(c) % 4.  The Z4 digits of each
    syndrome come out of one float64 product with the code's syndrome
    matrix, reduced mod 4 as integers, and are bit-packed into the
    (a, b) pair of the element directly.
    """
    if len(word) != code.n:
        raise ValueError(f"word length {len(word)} != code length {code.n}")
    if isinstance(word, np.ndarray) and word.ndim == 1 and word.dtype.kind in "iu":
        # & 3 is mod 4 in two's complement, also after a uint64 -> int64 wrap
        w = (word.astype(np.int64, copy=False) & 3).astype(np.float64)
    else:
        w = np.array([int(c) % 4 for c in word], dtype=np.float64)
    m = code.ring.m
    # a float64 product runs on BLAS, and is exact: each entry sums n
    # digit products, at most 9n <= 9207 < 2^53
    digits = ((w @ code.syndrome_matrix).astype(np.int64) & 3).reshape(code.t, m)
    bits = _BITS[:m]
    # digits low + 2 high = tau(low) + 2 tau(corr[low]) + 2 tau(high)
    low = ((digits & 1) @ bits).tolist()
    high = ((digits >> 1) @ bits).tolist()
    corr = code.ring._corr
    return low, [h ^ corr[a] for a, h in zip(low, high)]


def odd_ratio_coefficients(ring, synd: tuple[list, list]) -> tuple[list, list]:
    """Coefficients u_1, u_3, ..., u_(2t-1) of u = sigma_o / sigma_e,
    from the (a, b) lists of the t syndromes, as (a, b) lists.

    For odd k the recursion reads
        k * u_k = -s_k + sum_j s_(k-2j) (u^2)_(2j),
    and k mod 4 is 1 or 3, hence self-inverse, so the division is the
    multiplication by k mod 4 lifted to the ring, a negation for k = 3
    mod 4.  Each (u^2)_(2j) = sum over odd i < 2j of u_i u_(2j-i) is
    formed once, as soon as its u_i are known.
    """
    sa, sb = synd
    log, exp, hlog = ring._log, ring._exp, ring._hlog
    s_la = [log[a] for a in sa]
    s_lb = [log[b] for b in sb]
    ua, ub = [], []  # u_1, u_3, ... as (a, b) pairs
    q_la, q_lb = [], []  # logs of the pairs of (u^2)_2, (u^2)_4, ...
    for idx in range(len(sa)):  # k = 2 idx + 1
        if idx:
            # (u^2)_(2 idx) sums u_(2p+1) u_(2q+1) over p + q = idx - 1:
            # twice the product for each p < q, plus the middle square
            # when idx is odd.  As 2 (a, b) = (0, a) and (a, b)^2 =
            # (a^2, 0), its pair is (a_mid^2, sum over p < q of a_p a_q),
            # with a_p the residue of u_(2p+1): no high part enters.
            mid = ua[idx // 2] if idx & 1 else 0
            half = 0
            for p in range(idx // 2):
                half ^= exp[log[ua[p]] + log[ua[idx - 1 - p]]]
            q_la.append(log[exp[2 * log[mid]]])
            q_lb.append(log[half])
        a = sa[idx]
        xa, xb = a, a ^ sb[idx]  # -s_k
        for j in range(1, idx + 1):
            ls_a, ls_b = s_la[idx - j], s_lb[idx - j]
            lq_a, lq_b = q_la[j - 1], q_lb[j - 1]
            ya = exp[ls_a + lq_a]
            yb = exp[ls_a + lq_b] ^ exp[ls_b + lq_a]
            xa, xb = xa ^ ya, xb ^ yb ^ exp[hlog[xa] + hlog[ya]]
        if idx & 1:  # k = 3 mod 4: u_k = -acc
            xb ^= xa
        ua.append(xa)
        ub.append(xb)
    return ua, ub


def series_inverse(ring, f: tuple[list, list]) -> tuple[list, list]:
    """The len(f) terms of h with f*h = 1 mod z^len(f) over GR(4,m), the
    last ones possibly zero; f and h are (a, b) lists.

    The coefficient recurrence h_0 = f_0^-1, h_k = -f_0^-1 sum_(i>=1)
    f_i h_(k-i).  Requires a unit constant term.
    """
    fa, fb = f
    if not fa or not fa[0]:
        raise ValueError("series inverse needs a unit constant term")
    log, exp, hlog, q = ring._log, ring._exp, ring._hlog, ring._field.order
    f_la = [log[a] for a in fa]
    f_lb = [log[b] for b in fb]
    la0 = f_la[0]
    ia, ib = exp[q - la0], exp[f_lb[0] + (-2 * la0) % q]  # f_0^-1
    lia, lib = log[ia], log[ib]
    ha, hb = [ia], [ib]
    h_la, h_lb = [lia], [lib]
    for k in range(1, len(fa)):
        xa = xb = 0
        for i in range(1, k + 1):
            l1a, l2a = f_la[i], h_la[k - i]
            ya = exp[l1a + l2a]
            yb = exp[l1a + h_lb[k - i]] ^ exp[f_lb[i] + l2a]
            xa, xb = xa ^ ya, xb ^ yb ^ exp[hlog[xa] + hlog[ya]]
        lxa = log[xa]
        ya = exp[lia + lxa]
        yb = exp[lia + log[xb]] ^ exp[lib + lxa] ^ ya  # -(f_0^-1 x)
        ha.append(ya)
        hb.append(yb)
        h_la.append(log[ya])
        h_lb.append(log[yb])
    return ha, hb


def key_series(ring, u: tuple[list, list]) -> tuple[list, list]:
    """The t + 1 coefficients of 1 + T, where T(z^2) = (1 + z u(z))^-1 - 1,
    from the (a, b) lists of u_1, u_3, ..., u_(2t-1), as (a, b) lists.

    z u(z) only has even-degree terms, so the inversion happens on the
    polynomial in y = z^2 whose y^j coefficient is u_(2j-1), whose t + 1
    terms give the order of the inverse.
    """
    ua, ub = u
    return series_inverse(ring, ([1] + ua, [0] + ub))  # 1 + u_1 y + u_3 y^2 + ...
