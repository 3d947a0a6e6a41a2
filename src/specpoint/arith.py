"""Exact and near-exact arithmetic kernels.

Complete exponential sums over residue classes (Kloosterman sums S(m,n;c)
and the two-sided sums V_q(m,n;c)), the factorization identity relating
them, and the divisor functions, Moebius function and factorization they
and the spectral side need.

`kloosterman` gives the real S(m,n;c) for one modulus (an int, summed over
the lru-cached unit table _unit_residues) or for a 1-d integer array of
moduli (summed over a cached flat table of half the units of every
modulus). That table is built in array passes over runs of moduli, with no
loop per modulus: a gcd mask picks the units, the totient sieve _totients
sizes the table, and square-and-multiply with one exponent per entry gives
the inverses alpha^{phi(c) - 1}, as _build_unit_residues does for one c.

All angles are reduced modulo c in integer arithmetic before the cosine or
exp(2*pi*i*x) is applied, so a single term carries only one rounding error
and moduli up to ~10^6 stay well below the 1e-10 contracts used by the test
suites.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


def e(x: float) -> complex:
    """exp(2*pi*i*x)."""
    return complex(math.cos(TWO_PI * x), math.sin(TWO_PI * x))


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


# Half-unit table of every modulus 1..C for the array form of kloosterman:
# the units alpha <= c/2 of c = 1, 2, ..., C in turn, and their inverses,
# as int32. Modulus c occupies [starts[c - 1], starts[c]), so the table for
# a smaller C is a prefix of it. It starts with c = 1, whose one unit is 0.
_HALF_UNITS = (np.zeros(1, np.int32), np.zeros(1, np.int32), np.arange(2))
_PASS_UNITS = 1 << 13  # table entries or candidates per step: 64 KB temporaries


def _runs(first: int, last: int):
    """(lo, hi) bounds of the consecutive runs of moduli first..last: each
    holds about _PASS_UNITS candidates alpha <= c/2, and one modulus at
    least. The moduli below c hold floor((c - 1)^2/4) candidates."""
    while first <= last:
        hi = min(last, max(first, math.isqrt((first - 1) ** 2 + 4 * _PASS_UNITS)))
        yield first, hi
        first = hi + 1


def _unit_run(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, alpha, unit) over the candidates 1 <= alpha <= c/2 of the moduli
    2 <= lo <= c <= hi, modulus by modulus: unit marks gcd(alpha, c) = 1.
    Candidate alpha of c is number floor((c - 1)^2/4) + alpha - 1 of all."""
    mods = np.arange(lo, hi + 1)
    c = np.repeat(mods, mods // 2)
    alpha = np.arange((lo - 1) ** 2 // 4 + 1, hi**2 // 4 + 1) - (c - 1) ** 2 // 4
    return c, alpha, np.gcd(alpha, c) == 1


def _euler_inverses(alphas: np.ndarray, mods: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """alpha^{-1} = alpha^{phi - 1} mod c entry by entry, each entry with its
    own modulus and totient: _build_unit_residues's square-and-multiply,
    every entry multiplied at the bits its exponent has."""
    exponents = phi - 1
    inv = np.ones_like(alphas)
    power = alphas.copy()
    for bit in range(int(np.max(exponents)).bit_length()):
        inv = np.where((exponents >> bit) & 1, inv * power % mods, inv)
        power = power * power % mods
    return inv


def _totients(C: int) -> np.ndarray:
    """phi(c) for c = 0, 1, ..., C (phi(0) = 0): each prime p, found as an
    entry no smaller prime has touched, takes its factor (1 - 1/p) off
    every multiple."""
    phi = np.arange(C + 1)
    for p in range(2, C + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def _grown(table: np.ndarray, size: int) -> np.ndarray:
    out = np.empty(size, table.dtype)
    out[: table.size] = table
    return out


def _half_units(C: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, alpha^{-1}, starts) over the units alpha <= c/2 of every
    c <= C; starts has C + 1 offsets.

    The table is kept for the largest C asked for so far: a larger C
    extends it by the new moduli only, a smaller one reads its prefix.
    New moduli are built in runs of about _PASS_UNITS candidates
    (_unit_run), not through the _unit_residues cache, so no modulus is
    held twice. phi(c) from _totients sizes the table before any run, and
    each run writes its units and their inverses alpha^{phi(c) - 1}
    (_euler_inverses) straight into it: the peak memory is the old and the
    new table plus one run's temporaries.
    """
    global _HALF_UNITS
    alphas, invs, starts = _HALF_UNITS
    if starts.size <= C:
        first = starts.size  # the first new modulus
        phi = _totients(C)
        # alpha < c/2 are the first phi(c)/2 units; c = 2 has one unit
        starts = np.concatenate([starts, starts[-1] + np.cumsum((phi[first:] + 1) // 2)])
        alphas, invs = (_grown(old, starts[-1]) for old in (alphas, invs))
        for lo, hi in _runs(first, C):
            c, alpha, unit = _unit_run(lo, hi)
            c, alpha = c[unit], alpha[unit]
            span = slice(starts[lo - 1], starts[hi])
            alphas[span], invs[span] = alpha, _euler_inverses(alpha, c, phi[c])
        _HALF_UNITS = alphas, invs, starts
    return alphas, invs, starts[: C + 1]


def kloosterman(m: int, n: int, c):
    """S(m,n;c) = sum over alpha in (Z/c)* of e((alpha*m + alpha^{-1}*n)/c).

    S is real because alpha and c - alpha give conjugate terms. An int c
    gives the float sum of cos(2 pi (alpha m + alpha^{-1} n)/c) over every
    unit alpha (_unit_residues; c = 1 has the one unit 0). A 1-d integer
    array of moduli gives the real array of S(m,n;c), c by c: every modulus
    up to max(c) adds up twice those cosines over its units alpha < c/2
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
        # whole moduli per step, distinct: np.unique would import numpy.ma
        cuts = np.append(steps, top)
        cuts = cuts[np.diff(cuts, prepend=-1) > 0]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            offsets = starts[lo : hi + 1] - starts[lo]
            # m, n and 2 pi/c once per modulus, repeated over its units
            cs = np.arange(lo + 1, hi + 1)
            mods, m_res, n_res, scale = (
                np.repeat(v, np.diff(offsets)) for v in (cs, m % cs, n % cs, TWO_PI / cs)
            )
            units = slice(starts[lo], starts[hi])
            angles = (alphas[units] * m_res + invs[units] * n_res) % mods
            sums[lo:hi] = np.add.reduceat(np.cos(scale * angles), offsets[:-1])
        sums[2:] *= 2.0  # the one unit of c = 1 (alpha = 0) and of c = 2 is its own partner
        return sums[moduli - 1]
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    alphas, inv = _unit_residues(c)
    angles = (alphas * (m % c) + inv * (n % c)) % c
    return float(np.sum(np.cos((TWO_PI / c) * angles)))


def vq_sum(q: int, m: int, n: int, c: int) -> complex:
    """V_q(m,n;c): sum over alpha mod c with (alpha*(q-alpha), c) = 1 of
    e((alpha^{-1}*m + (q-alpha)^{-1}*n)/c).

    For c = 1 the coprimality condition is vacuous (the one unit is 0) and
    the value is 1; no alpha qualifying gives 0.
    """
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    units, inv = _unit_residues(c)
    beta = (q - units) % c
    keep = np.gcd(beta, c) == 1
    inv_a = inv[keep]
    inv_b = inv[np.searchsorted(units, beta[keep])]
    phases = (TWO_PI / c) * ((inv_a * (m % c) + inv_b * (n % c)) % c)
    return complex(np.sum(np.cos(phases)) + 1j * np.sum(np.sin(phases)))


def factorization_identity_residual(m: int, n: int, c: int) -> float:
    """| S(m,n;c)*e((m+n)/c) - sum_{q*r = c} V_q(m,n;r) |."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    lhs = kloosterman(m, n, c) * e(((m + n) % c) / c)
    rhs = 0.0 + 0.0j
    for q in divisors(c):
        rhs += vq_sum(q, m, n, c // q)
    return abs(lhs - rhs)


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


def moebius(n: int) -> int:
    mu = 1
    for _, k in factorize(n):
        if k > 1:
            return 0
        mu = -mu
    return mu
