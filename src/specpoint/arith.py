"""Exact and near-exact arithmetic kernels.

Complete exponential sums over residue classes (Kloosterman sums S(m,n;c)
and the two-sided sums V_q(m,n;c)), and the divisor functions, Moebius
function and factorization they and the spectral side need.

`kloosterman` gives the real S(m,n;c) for one modulus (an int, summed over
the lru-cached unit table _unit_residues) or for a 1-d integer array of
moduli (summed over a cached flat table of half the units of every
modulus). That table is built in array passes over runs of moduli, with no
loop per modulus: a gcd mask picks the units, the totients of the sieve
_moebius_totients size the table, and square-and-multiply with one
exponent per entry gives the inverses alpha^{phi(c) - 1} (_euler_inverses,
which _build_unit_residues runs for one c). The same sieve's table gives
moebius, and the mu and phi behind the rows of Ramanujan sums c_c(k) that
_ramanujan_sums builds from the divisor sum, for the large sieve.

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


def _build_unit_residues(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, alpha^{-1}) arrays over the units modulo c, alpha ascending,
    the inverses from _euler_inverses. c = 1 gives ([0], [0]): its one
    unit is 0, and alpha^0 = 1 reduces to 0 mod 1."""
    alphas = np.flatnonzero(np.gcd(np.arange(c), c) == 1)
    return alphas, _euler_inverses(alphas, c, alphas.size) % c


# the cached unit table of one modulus, for the per-modulus sums
_unit_residues = lru_cache(maxsize=4096)(_build_unit_residues)


# Half-unit table of every modulus 1..C for the array form of kloosterman:
# the units alpha <= c/2 of c = 1, 2, ..., C in turn, and their inverses,
# as int32. Modulus c occupies [starts[c - 1], starts[c]), so the table for
# a smaller C is a prefix of it. It starts with c = 1, whose one unit is 0.
_HALF_UNITS = (np.zeros(1, np.int32), np.zeros(1, np.int32), np.arange(2))
_PASS_UNITS = 1 << 13  # table entries or candidates per step: 64 KB temporaries
_MAX_HALF_UNITS = 1 << 27  # entries per array: 1 GiB for both, C up to ~29,700


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


def _euler_inverses(alphas: np.ndarray, mods: np.ndarray | int, phi: np.ndarray | int) -> np.ndarray:
    """alpha^{-1} = alpha^{phi - 1} mod c entry by entry, each entry with its
    own modulus and totient, by square-and-multiply at the bits of its
    exponent; products stay below c^2 < 2^63 for any table that fits."""
    exponents = phi - 1
    inv = np.ones_like(alphas)
    power = alphas.copy()
    for bit in range(int(np.max(exponents)).bit_length()):
        inv = np.where((exponents >> bit) & 1, inv * power % mods, inv)
        power = power * power % mods
    return inv


# mu(c) and phi(c) for c = 0, 1, ..., len - 1, kept for the largest C so far
_MOEBIUS_TOTIENTS = (np.zeros(1, np.int64), np.zeros(1, np.int64))


def _moebius_totients(C: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, phi) over c = 0, 1, ..., C, with mu(0) = phi(0) = 0.

    One sieve gives both: each prime p up to the square root, found as an
    entry no smaller prime has divided, takes its factor (1 - 1/p) off
    every multiple's phi, flips the sign of every multiple's mu, zeroes mu
    at the multiples of p^2 and divides its powers out of every multiple.
    What that leaves of c > 1 is 1 or c's one prime factor above the
    square root, which takes its factor last. The table is kept for the
    largest C asked for so far, and a larger C sieves it again to at
    least twice its size, so moduli asked for one by one in ascending
    order sieve it log2 C times.
    """
    global _MOEBIUS_TOTIENTS
    mu, phi = _MOEBIUS_TOTIENTS
    if phi.size <= C:
        size = max(C + 1, 2 * phi.size)
        mu, phi, rest = np.ones(size, np.int64), np.arange(size), np.arange(size)
        mu[0] = 0
        for p in range(2, math.isqrt(size - 1) + 1):
            if rest[p] == p:
                phi[p::p] -= phi[p::p] // p
                mu[p::p] *= -1
                mu[p * p :: p * p] = 0
                power = p
                while power < size:
                    rest[power::power] //= p
                    power *= p
        big = rest > 1
        phi[big] -= phi[big] // rest[big]
        mu[big] *= -1
        _MOEBIUS_TOTIENTS = mu, phi
    return mu[: C + 1], phi[: C + 1]


def _ramanujan_sums(mods: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The rows c_c(0..L - 1) of the int64 moduli mods (any order, repeats
    allowed), L >= 1 from lengths, one after another, as float64, from the
    divisor sum c_c(k) = sum over d | (c, k) of d mu(c/d): c_c(0) = phi(c),
    and each d < L with c/d squarefree adds d mu(c/d) at k = d, 2d, ...
    below L. One np.bincount sums the additions, at most L sigma(c)/c a
    row, with no gcd. The divisors d < L come from the candidates up to
    min(sqrt(c), L - 1) and their cofactors, so a row of a large c costs
    O(L). Every partial sum is an integer of size at most sigma(c), exact
    in float64 in any order of the additions.
    """
    top = int(np.max(mods))
    mu, phi = _moebius_totients(top)
    candidates = np.arange(1, min(math.isqrt(top), int(np.max(lengths)) - 1) + 1)
    # c/d in float64 is exact where d divides c (c < 2^53) and not an
    # integer elsewhere, and it is faster than an int64 division
    cofactors = mods[:, None] / candidates
    which, col = np.nonzero((cofactors == np.trunc(cofactors)) & (candidates <= cofactors))
    small, large = candidates[col], cofactors[which, col].astype(np.int64)
    # each divisor pair (small, large) as d = small and, unless equal, as d = large
    twice = small != large
    which = np.concatenate([which, which[twice]])
    d = np.concatenate([small, large[twice]])
    signs = mu[np.concatenate([large, small[twice]])]
    keep = (signs != 0) & (d < lengths[which])
    which, d, signs = which[keep], d[keep], signs[keep]
    # the positions of the additions, pair by pair, as a running sum of
    # steps: d within a pair, and into a pair the jump from the last
    # position of the pair before to its first, at k = d of its row
    row_starts = np.cumsum(lengths) - lengths
    counts = (lengths[which] - 1) // d
    firsts = np.cumsum(counts) - counts
    starts = row_starts[which] + d
    at = np.repeat(d, counts)
    at[firsts] = starts
    at[firsts[1:]] -= starts[:-1] + d[:-1] * (counts[:-1] - 1)
    np.cumsum(at, out=at)
    weights = np.repeat((d * signs).astype(float), counts)
    sums = np.bincount(at, weights, minlength=int(row_starts[-1] + lengths[-1])).astype(float, copy=False)
    sums[row_starts] = phi[mods]
    return sums


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
    held twice. phi(c) from _moebius_totients sizes the table before any
    run, and each run writes its units and their inverses alpha^{phi(c) - 1}
    (_euler_inverses) straight into it: the peak memory is the old and the
    new table plus one run's temporaries. A C whose table would pass
    _MAX_HALF_UNITS entries is rejected before anything is allocated.
    """
    global _HALF_UNITS
    alphas, invs, starts = _HALF_UNITS
    if starts.size <= C:
        first = starts.size  # the first new modulus
        phi = _moebius_totients(C)[1]
        # alpha < c/2 are the first phi(c)/2 units; c = 2 has one unit
        starts = np.concatenate([starts, starts[-1] + np.cumsum((phi[first:] + 1) // 2)])
        if starts[-1] > _MAX_HALF_UNITS:
            raise ValueError(f"C = {C} needs {starts[-1]:,} Kloosterman units, above {_MAX_HALF_UNITS:,}")
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
    array of moduli gives the real array of S(m,n;c), c by c (empty for no
    moduli): every modulus up to max(c) adds up twice those cosines over its
    units alpha < c/2 (_half_units), _PASS_UNITS units at a time.
    """
    if np.ndim(c):
        moduli = np.asarray(c)
        if moduli.ndim != 1 or not np.issubdtype(moduli.dtype, np.integer):
            raise ValueError("moduli must be a 1-d integer array")
        if moduli.size == 0:
            return np.empty(0)
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
            # m, n and 2 pi/c once per modulus, repeated over its units; the
            # angle arithmetic runs in int32, as alpha m + alpha^{-1} n < 2 c^2
            # < 2^31 for every C that _half_units admits
            cs = np.arange(lo + 1, hi + 1)
            mods, m_res, n_res = (np.repeat(v.astype(np.int32), np.diff(offsets)) for v in (cs, m % cs, n % cs))
            scale = np.repeat(TWO_PI / cs, np.diff(offsets))
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
    """mu(n), read from the sieve table of _moebius_totients, which n
    extends to at least n + 1 entries: for the small n of the GL(3)
    tables, not for a lone large n."""
    if n < 1:
        raise ValueError(f"argument must be positive, got {n}")
    return int(_moebius_totients(n)[0][n])
