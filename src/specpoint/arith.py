"""Exact and near-exact arithmetic kernels.

Complete exponential sums over residue classes (Kloosterman sums S(m,n;c)
and the two-sided sums V_q(m,n;c)), the factorization identity relating
them, Weil-bound ratios, and the small multiplicative functions they need.

`kloosterman` takes one modulus (an int, giving a complex value) or a 1-d
integer array of moduli (giving the real array of S(m,n;c), summed over a
cached flat table of half the units of every modulus).

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


def _build_unit_residues(c: int) -> tuple[np.ndarray, np.ndarray]:
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


# the cached unit table of one modulus, for the per-modulus sums
_unit_residues = lru_cache(maxsize=4096)(_build_unit_residues)


def _exp_angle_sum(angles_mod_c: np.ndarray, c: int) -> complex:
    phases = (TWO_PI / c) * angles_mod_c
    return complex(np.sum(np.cos(phases)) + 1j * np.sum(np.sin(phases)))


# Half-unit table of every modulus 1..C for the array form of kloosterman:
# the units alpha <= c/2 of c = 1, 2, ..., C in turn, and their inverses,
# as int32. Modulus c occupies [starts[c - 1], starts[c]), so the table for
# a smaller C is a prefix of it.
_HALF_UNITS = (np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(1, np.int64))
_PASS_UNITS = 1 << 13  # table entries per step of the array form: 64 KB temporaries


def _half_units(C: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, alpha^{-1}, starts) over the units alpha <= c/2 of every
    c <= C; starts has C + 1 offsets.

    The table is kept for the largest C asked for so far: a larger C
    extends it by the new moduli only, a smaller one reads its prefix.
    New moduli come from _build_unit_residues, not the _unit_residues
    cache, so no modulus is held twice.
    """
    global _HALF_UNITS
    alphas, invs, starts = _HALF_UNITS
    if starts.size <= C:
        new = range(starts.size, C + 1)
        # alpha < c/2 are the first phi(c)/2 units; c <= 2 has one unit
        half = np.cumsum([(euler_phi(c) + 1) // 2 for c in new])
        starts = np.concatenate([starts, starts[-1] + half])
        alphas = np.concatenate([alphas, np.empty(half[-1], np.int32)])
        invs = np.concatenate([invs, np.empty(half[-1], np.int32)])
        for c in new:
            lo, hi = starts[c - 1], starts[c]
            a, inv = _build_unit_residues(c)
            alphas[lo:hi], invs[lo:hi] = a[: hi - lo], inv[: hi - lo]
        _HALF_UNITS = alphas, invs, starts
    return alphas, invs, starts[: C + 1]


def kloosterman(m: int, n: int, c):
    """S(m,n;c) = sum over alpha in (Z/c)* of e((alpha*m + alpha^{-1}*n)/c).

    An int c gives the complex value. A 1-d integer array of moduli gives
    the real array of S(m,n;c), c by c. S is real because alpha and
    c - alpha give conjugate terms, so every modulus up to max(c) adds up
    2 cos(2 pi (alpha m + alpha^{-1} n)/c) over its units alpha < c/2
    (_half_units), _PASS_UNITS units at a time.
    """
    if np.ndim(c):
        moduli = np.asarray(c)
        if moduli.ndim != 1 or not np.issubdtype(moduli.dtype, np.integer):
            raise ValueError("moduli must be a 1-d integer array")
        if np.min(moduli) < 1:
            raise ValueError(f"moduli must be positive, got {np.min(moduli)}")
        top = int(np.max(moduli))
        alphas, invs, starts = _half_units(top)
        sums = np.empty(top)
        steps = np.searchsorted(starts, np.arange(0, starts[-1], _PASS_UNITS))
        cuts = np.unique(np.append(steps, top))  # whole moduli per step
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            offsets = starts[lo : hi + 1] - starts[lo]
            mods = np.repeat(np.arange(lo + 1, hi + 1), np.diff(offsets))
            units = slice(starts[lo], starts[hi])
            angles = (alphas[units] * np.mod(m, mods) + invs[units] * np.mod(n, mods)) % mods
            sums[lo:hi] = np.add.reduceat(np.cos((TWO_PI / mods) * angles), offsets[:-1])
        sums[2:] *= 2.0  # the one unit of c = 1 (alpha = 0) and of c = 2 is its own partner
        return sums[moduli - 1]
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
