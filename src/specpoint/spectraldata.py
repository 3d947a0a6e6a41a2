"""Spectral data in memory: Maass-form records and symmetric-square tables.

A Maass form is its spectral parameter t, its harmonic weight omega and its
Hecke eigenvalues lambda(1..nmax), validated on construction: finite, t and
omega positive, lambda(1) = 1. Harmonic weights are trusted input: they
encode the basis normalization that only the data producer knows.

The symmetric-square lift turns one record into a self-dual table
A(m, n) with A(1, n) = sum_{d^2 m = n} lambda(m^2) and the two-variable
entries completed through the Moebius-weighted Hecke relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import divisors, factorize, moebius


class SpectrumError(ValueError):
    """Malformed or inconsistent spectral data."""


class CoefficientRangeError(KeyError):
    """A coefficient outside the stored table was requested."""


def _prime_power(lp: float, a: int) -> float:
    """lambda(p^a) from lp = lambda(p) by the Hecke recursion."""
    prev, cur = 1.0, lp
    for _ in range(a - 1):
        prev, cur = cur, lp * cur - prev
    return cur if a >= 1 else 1.0


@dataclass
class MaassForm:
    t: float
    omega: float
    hecke: np.ndarray  # lambda(1), lambda(2), ..., lambda(nmax)

    def __post_init__(self):
        self.hecke = np.asarray(self.hecke, dtype=float)
        # a NaN passes every comparison below
        if not np.isfinite([self.t, self.omega, *self.hecke]).all():
            raise SpectrumError(f"t, omega and lambda(n) must be finite (form t={self.t})")
        if self.t <= 0:
            raise SpectrumError(f"t must be positive, got {self.t}")
        if self.omega <= 0:
            raise SpectrumError(f"omega must be positive (form t={self.t})")
        if self.hecke.size < 1 or abs(self.hecke[0] - 1.0) > 1e-12:
            raise SpectrumError(f"lambda(1) must be 1 (form t={self.t})")

    @property
    def nmax(self) -> int:
        return int(self.hecke.size)

    def lam(self, n: int) -> float:
        """lambda(n) from the stored table."""
        if not 1 <= n <= self.nmax:
            raise CoefficientRangeError(
                f"lambda({n}) outside table (nmax={self.nmax}, form t={self.t})"
            )
        return float(self.hecke[n - 1])

    def lam_extended(self, n: int) -> float:
        """lambda(n) for any n whose prime factors are within the table.

        Uses multiplicativity and the prime-power recursion, so n itself
        may exceed nmax.
        """
        if n <= self.nmax:
            return self.lam(n)
        out = 1.0
        for p, a in factorize(n):
            if p > self.nmax:
                raise CoefficientRangeError(
                    f"prime {p} exceeds table range nmax={self.nmax} (form t={self.t})"
                )
            out *= _prime_power(self.lam(p), a)
        return out


# ---------------------------------------------------------------------------
# GL(3) tables


@dataclass
class GL3Form:
    coeff: dict[tuple[int, int], complex]
    x_max: int
    label: str = ""

    def __post_init__(self):
        if (1, 1) in self.coeff and abs(self.coeff[(1, 1)] - 1.0) > 1e-12:
            raise ValueError("A(1,1) must equal 1")

    def a(self, m: int, n: int) -> complex:
        if (m, n) in self.coeff:
            return self.coeff[(m, n)]
        if (n, m) in self.coeff:
            return np.conj(self.coeff[(n, m)])
        raise CoefficientRangeError(
            f"A({m},{n}) outside table (x_max={self.x_max}, label={self.label!r})"
        )


def sym_square_lift(gl2: MaassForm, x_max: int) -> GL3Form:
    """Self-dual table with A(1,n) = sum_{d^2 m = n} lambda(m^2).

    Entries cover m^2 n <= x_max. Raises if the lift needs a prime beyond
    the source table.
    """
    if x_max < 1:
        raise ValueError("x_max must be at least 1")
    a1 = {1: 1.0}
    for n in range(2, x_max + 1):
        total = 0.0
        d = 1
        while d * d <= n:
            if n % (d * d) == 0:
                m = n // (d * d)
                total += gl2.lam_extended(m * m)
            d += 1
        a1[n] = total
    coeff: dict[tuple[int, int], complex] = {}
    for m in range(1, int(math.isqrt(x_max)) + 1):
        for n in range(1, x_max // (m * m) + 1):
            g = math.gcd(m, n)
            val = 0.0
            for d in divisors(g):
                mu = moebius(d)
                if mu != 0:
                    val += mu * a1[m // d] * a1[n // d]
            coeff[(m, n)] = complex(val)
    return GL3Form(coeff=coeff, x_max=x_max, label=f"sym2(t={gl2.t:.6f})")
