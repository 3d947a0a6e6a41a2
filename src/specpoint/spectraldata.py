"""Spectral datasets: Maass-form records and symmetric-square coefficient tables.

A spectrum file is line-oriented and hand-editable:

    #maass-spectrum v1 nmax=<N> tol=<eps> [source=<label>]
    <t_j> <even|odd> <omega_j> <lambda(2)> <lambda(3)> ... <lambda(N)>

lambda(1) = 1 is implicit. Loading validates positivity, the Hecke
multiplicativity of every coefficient table against the declared
tolerance, and sorts by t_j. Harmonic weights are trusted input: they
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
    parity: str  # "even" or "odd"
    omega: float
    hecke: np.ndarray  # lambda(1), lambda(2), ..., lambda(nmax)

    def __post_init__(self):
        self.hecke = np.asarray(self.hecke, dtype=float)
        # a NaN passes every comparison below and the Hecke check
        if not np.isfinite([self.t, self.omega, *self.hecke]).all():
            raise SpectrumError(f"t, omega and lambda(n) must be finite (form t={self.t})")
        if self.t <= 0:
            raise SpectrumError(f"t must be positive, got {self.t}")
        if self.parity not in ("even", "odd"):
            raise SpectrumError(f"parity must be 'even' or 'odd', got {self.parity!r}")
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

    def lam_prime_power(self, p: int, a: int) -> float:
        """lambda(p^a) by the Hecke recursion from lambda(p)."""
        return _prime_power(self.lam(p), a)

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
            out *= self.lam_prime_power(p, a)
        return out


@dataclass
class SpectrumManifest:
    source: str
    n_max: int
    count: int
    tolerance: float


def hecke_consistency(form: MaassForm) -> float:
    """max over m n <= nmax of |lambda(m)lambda(n) - sum_{d | (m,n)} lambda(mn/d^2)|."""
    N = form.nmax
    worst = 0.0
    for m in range(2, N + 1):
        if m * m > N:
            break
        for n in range(m, N // m + 1):
            g = math.gcd(m, n)
            rhs = sum(form.lam((m * n) // (d * d)) for d in divisors(g))
            worst = max(worst, abs(form.lam(m) * form.lam(n) - rhs))
    return worst


def load_spectrum(path) -> tuple[SpectrumManifest, list[MaassForm]]:
    """Parse and validate a spectrum file; forms come back sorted by t."""
    forms: list[MaassForm] = []
    n_max = None
    tol = None
    source = "unknown"
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("#maass-spectrum"):
                    for tokn in line.split()[1:]:
                        if tokn.startswith("nmax="):
                            n_max = int(tokn[5:])
                        elif tokn.startswith("tol="):
                            tol = float(tokn[4:])
                        elif tokn.startswith("source="):
                            source = tokn[7:]
                continue
            toks = line.split()
            if n_max is None or tol is None:
                raise SpectrumError(f"line {lineno}: record before a valid header")
            if len(toks) != 2 + n_max:
                raise SpectrumError(
                    f"line {lineno}: expected {2 + n_max} fields "
                    f"(t parity omega lambda(2..{n_max})), got {len(toks)}"
                )
            try:
                t = float(toks[0])
                parity = toks[1]
                omega = float(toks[2])
                lams = [1.0] + [float(v) for v in toks[3:]]
            except ValueError as exc:
                raise SpectrumError(f"line {lineno}: unparsable number: {exc}") from exc
            try:
                form = MaassForm(t=t, parity=parity, omega=omega, hecke=np.array(lams))
            except SpectrumError as exc:
                raise SpectrumError(f"line {lineno}: {exc}") from exc
            resid = hecke_consistency(form)
            if resid > tol:
                raise SpectrumError(
                    f"line {lineno}: form t={t} fails Hecke multiplicativity "
                    f"(residual {resid:.3e} > tol {tol:.3e})"
                )
            forms.append(form)
    if n_max is None or tol is None:
        raise SpectrumError("missing '#maass-spectrum v1 nmax=... tol=...' header")
    if not forms:
        raise SpectrumError("empty spectrum")
    forms.sort(key=lambda f: f.t)
    return SpectrumManifest(source=source, n_max=n_max, count=len(forms), tolerance=tol), forms


def save_spectrum(path, forms: list[MaassForm], tol: float, source: str) -> None:
    n_max = min(f.nmax for f in forms)
    with open(path, "w") as fh:
        fh.write(f"#maass-spectrum v1 nmax={n_max} tol={tol:g} source={source}\n")
        for f in sorted(forms, key=lambda g: g.t):
            lams = " ".join(repr(float(v)) for v in f.hecke[1:n_max])
            fh.write(f"{f.t!r} {f.parity} {f.omega!r} {lams}\n")


# ---------------------------------------------------------------------------
# GL(3) tables


@dataclass
class GL3Form:
    langlands: tuple[complex, complex, complex]
    coeff: dict[tuple[int, int], complex]
    self_dual: bool
    x_max: int
    label: str = ""

    def __post_init__(self):
        s = sum(self.langlands)
        if abs(s) > 1e-9:
            raise ValueError(f"Langlands parameters must sum to zero, got {s}")
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

    @property
    def dual(self) -> "GL3Form":
        lam = tuple(-z for z in self.langlands)
        return GL3Form(
            langlands=(lam[0], lam[1], lam[2]),
            coeff={(n, m): np.conj(v) for (m, n), v in self.coeff.items()},
            self_dual=self.self_dual,
            x_max=self.x_max,
            label=self.label + "~",
        )


def sym_square_lift(gl2: MaassForm, x_max: int) -> GL3Form:
    """Self-dual table with A(1,n) = sum_{d^2 m = n} lambda(m^2).

    Entries cover m^2 n <= x_max; parameters are (2 i t, 0, -2 i t). Raises
    if the lift needs a prime beyond the source table.
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
    t0 = gl2.t
    return GL3Form(
        langlands=(2j * t0, 0.0 + 0.0j, -2j * t0),
        coeff=coeff,
        self_dual=True,
        x_max=x_max,
        label=f"sym2(t={t0:.6f})",
    )


def rankin_selberg_ratio(gl3: GL3Form, X: int) -> float:
    """(sum over m^2 n <= X of |A(m,n)|^2) / X."""
    if X < 1:
        raise ValueError("X must be at least 1")
    if X > gl3.x_max:
        raise CoefficientRangeError(f"X={X} exceeds table range {gl3.x_max}")
    total = 0.0
    for m in range(1, int(math.isqrt(X)) + 1):
        for n in range(1, X // (m * m) + 1):
            total += abs(gl3.a(m, n)) ** 2
    return total / X


# ---------------------------------------------------------------------------
# Synthetic fixtures (Hecke-exact mock data; not automorphic)


def synthetic_form(
    t: float,
    parity: str,
    omega: float,
    n_max: int,
    seed: int | None = None,
    prime_values: dict[int, float] | None = None,
) -> MaassForm:
    """A Hecke-multiplicative table from prescribed or random prime values.

    Useful for exercising parsers, sums, and symmetry properties. The
    trace-formula identity does NOT hold for such mock data: only genuine
    spectra balance the two sides.
    """
    rng = np.random.default_rng(seed)
    lam = np.ones(n_max)
    # ascending n draws the random prime values in ascending order of p
    for n in range(2, n_max + 1):
        fac = factorize(n)
        if fac != ((n, 1),):
            lam[n - 1] = math.prod(_prime_power(float(lam[p - 1]), a) for p, a in fac)
        elif prime_values and n in prime_values:
            lam[n - 1] = prime_values[n]
        else:
            lam[n - 1] = 2.0 * math.cos(rng.uniform(0.0, math.pi))
    return MaassForm(t=t, parity=parity, omega=omega, hecke=lam)


def synthetic_spectrum(
    count: int = 24,
    n_max: int = 200,
    t_lo: float = 5.0,
    t_hi: float = 32.0,
    seed: int = 20240101,
) -> list[MaassForm]:
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(t_lo, t_hi, size=count))
    forms = []
    for i, t in enumerate(ts):
        parity = "even" if i % 2 == 0 else "odd"
        omega = float(np.exp(rng.normal(math.log(8.0 / math.pi**2), 0.35)) / (1.0 + t / 40.0))
        forms.append(synthetic_form(float(t), parity, omega, n_max, seed=seed + 7 * i))
    return forms
