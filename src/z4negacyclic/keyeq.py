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
recover the even/odd split of sigma.
"""

from __future__ import annotations

import numpy as np

from .negacyclic import Code
from .polynomial import poly_coeff, series_inverse

__all__ = [
    "syndromes",
    "odd_ratio_coefficients",
    "key_series",
]


def syndromes(word, code: Code) -> list:
    """The t odd syndromes [v(alpha), v(alpha^3), ..., v(alpha^(2t-1))]."""
    if len(word) != code.n:
        raise ValueError(f"word length {len(word)} != code length {code.n}")
    # entries stay below n * 3 * 3 <= 9207: no int64 overflow before the mask
    w = np.array([int(c) % 4 for c in word], dtype=np.int64)
    flat = ((w @ code.syndrome_matrix) & 3).tolist()
    ring, m = code.ring, code.ring.m
    return [ring.element(flat[i:i + m]) for i in range(0, code.t * m, m)]


def odd_ratio_coefficients(synd: list, t: int) -> list:
    """Coefficients u_1, u_3, ..., u_(2t-1) of u = sigma_o / sigma_e.

    For odd k the recursion reads
        k * u_k = -s_k + sum_j s_(k-2j) (u^2)_(2j),
    and k mod 4 is 1 or 3, hence self-inverse, so the division is the
    multiplication by k mod 4 lifted to the ring.
    """
    if len(synd) != t:
        raise ValueError(f"expected {t} syndromes, got {len(synd)}")
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


def key_series(u: list, t: int) -> list:
    """Coefficients T_1..T_t of T, where T(z^2) = (1 + z u(z))^-1 - 1.

    z u(z) only has even-degree terms, so the inversion happens on the
    polynomial in y = z^2 whose y^j coefficient is u_(2j-1), truncated
    at order t+1.
    """
    if len(u) != t:
        raise ValueError(f"expected {t} odd coefficients, got {len(u)}")
    if t == 0:
        return []
    ring = u[0].ring
    w = [ring.one] + list(u)  # 1 + u_1 y + u_3 y^2 + ...
    inv = series_inverse(ring, w, t + 1)
    return [poly_coeff(ring, inv, j) for j in range(1, t + 1)]
