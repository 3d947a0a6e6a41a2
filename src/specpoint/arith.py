"""Exact and near-exact arithmetic kernels.

Complete exponential sums over residue classes (Kloosterman sums S(m,n;c)
and the two-sided sums V_q(m,n;c)), the factorization identity relating
them, Weil-bound ratios, and the small multiplicative functions they need.

All angles are reduced modulo c in integer arithmetic before exp(2*pi*i*x)
is applied, so a single term carries only one rounding error and moduli up
to ~10^6 stay well below the 1e-10 contracts used by the test suites.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


def e(x: float) -> complex:
    """exp(2*pi*i*x)."""
    return complex(math.cos(TWO_PI * x), math.sin(TWO_PI * x))


def mod_inverse(a: int, c: int) -> int:
    """Inverse of a modulo c, in [0, c). c = 1 returns 0.

    Raises ValueError when gcd(a, c) != 1; never silently returns a
    wrong residue.
    """
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    try:
        return pow(a, -1, c)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible modulo {c}") from exc


@lru_cache(maxsize=4096)
def _unit_residues(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, alpha^{-1}) arrays over the units modulo c, alpha ascending.
    c = 1 gives ([0],[0]).

    alpha^{-1} = alpha^{phi(c) - 1} mod c (Euler), by square-and-multiply on
    the whole int64 array; products stay below c^2 < 2^63 for any modulus
    whose unit array fits in memory.
    """
    if c == 1:
        zero = np.zeros(1, dtype=np.int64)
        return zero, zero
    alphas = np.arange(1, c, dtype=np.int64)
    alphas = alphas[np.gcd(alphas, c) == 1]
    inv = np.ones_like(alphas)
    power = alphas.copy()
    exponent = alphas.size - 1
    while exponent:
        if exponent & 1:
            inv = inv * power % c
        power = power * power % c
        exponent >>= 1
    return alphas, inv


def _exp_angle_sum(angles_mod_c: np.ndarray, c: int) -> complex:
    phases = (TWO_PI / c) * angles_mod_c
    return complex(np.sum(np.cos(phases)) + 1j * np.sum(np.sin(phases)))


def kloosterman(m: int, n: int, c: int) -> complex:
    """S(m,n;c) = sum over alpha in (Z/c)* of e((alpha*m + alpha^{-1}*n)/c)."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    if c == 1:
        return 1.0 + 0.0j
    alphas, inv = _unit_residues(c)
    angles = (alphas * (m % c) + inv * (n % c)) % c
    return _exp_angle_sum(angles, c)


def vq_sum(q: int, m: int, n: int, c: int) -> complex:
    """V_q(m,n;c): sum over alpha mod c with (alpha*(q-alpha), c) = 1 of
    e((alpha^{-1}*m + (q-alpha)^{-1}*n)/c).

    For c = 1 the coprimality condition is vacuous and the value is 1.
    """
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    if c == 1:
        return 1.0 + 0.0j
    units, inv = _unit_residues(c)
    beta = (q - units) % c
    keep = np.gcd(beta, c) == 1
    if not np.any(keep):
        return 0.0 + 0.0j
    inv_a = inv[keep]
    inv_b = inv[np.searchsorted(units, beta[keep])]
    angles = (inv_a * (m % c) + inv_b * (n % c)) % c
    return _exp_angle_sum(angles, c)


def factorization_identity_residual(m: int, n: int, c: int) -> float:
    """| S(m,n;c)*e((m+n)/c) - sum_{q*r = c} V_q(m,n;r) |."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    lhs = kloosterman(m, n, c) * e(((m + n) % c) / c)
    rhs = 0.0 + 0.0j
    for q in divisors(c):
        rhs += vq_sum(q, m, n, c // q)
    return abs(lhs - rhs)


def weil_ratio(m: int, n: int, c: int) -> float:
    """|S(m,n;c)| / (tau(c) * sqrt(gcd(m,n,c)) * sqrt(c)); gcd(0,x) = x."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    s = abs(kloosterman(m, n, c))
    g = math.gcd(math.gcd(abs(m), abs(n)), c)
    return s / (divisor_count(c) * math.sqrt(g) * math.sqrt(c))


def divisor_sigma(nu, n: int):
    """sigma_nu(n) = sum over d | n of d^nu, elementwise over an array of
    complex exponents nu (a scalar nu gives a scalar)."""
    if n < 1:
        raise ValueError(f"argument must be positive, got {n}")
    log_d = np.log(np.array(divisors(n), dtype=float))
    return np.exp(np.multiply.outer(np.asarray(nu, dtype=complex), log_d)).sum(axis=-1)


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((p, exponent), ...)."""
    if n < 1:
        raise ValueError(f"argument must be positive, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, k in factorize(n):
        divs = [d * p**j for d in divs for j in range(k + 1)]
    return sorted(divs)


def divisor_count(n: int) -> int:
    return math.prod(k + 1 for _, k in factorize(n))


def euler_phi(n: int) -> int:
    out = 1
    for p, k in factorize(n):
        out *= p ** (k - 1) * (p - 1)
    return out


def moebius(n: int) -> int:
    mu = 1
    for _, k in factorize(n):
        if k > 1:
            return 0
        mu = -mu
    return mu


def multiplicative_basics(n: int) -> tuple[int, int, int, dict[int, int]]:
    """(tau(n), phi(n), mu(n), prime factorization) for n >= 1."""
    fac = factorize(n)
    return divisor_count(n), euler_phi(n), moebius(n), dict(fac)
