"""References and fixtures shared by the test modules.

The references are independent of the production code paths they check:
fixed, fine Gauss-Legendre rules written out here, the twisted weight
h(t; y) of the H oracles, the dual of a GL(3) table and the Hecke
consistency of a Maass form's eigenvalues, the exact rational lag
sums of a complex sequence, and the Ramanujan sums by Hoelder's closed
form. The fixtures are synthetic
spectra: Hecke-multiplicative tables from random prime values, which
exercise sums and symmetries but are not automorphic. two_refinements_finer
probes quadrature.refined from the module that calls it.
"""

import math
from fractions import Fraction

import numpy as np

from specpoint.arith import divisors, factorize
from specpoint.besselintegral import weight_h
from specpoint.specfun import eisenstein_density
from specpoint.spectraldata import GL3Form, MaassForm, _prime_power


def eisenstein_gauss_oracle(values, ns, sw, panels=1000, order=32):
    """(2/pi) int_0^{t_upper} omega(t) h(t) |sum_n a_n sigma_{2it}(n)|^2 dt
    on panels equal panels with an order-point Gauss-Legendre rule each,
    sigma_{2it}(n) summed over the divisors d as e^{2it log d}."""
    x, w = np.polynomial.legendre.leggauss(order)
    h = sw.t_upper / (2 * panels)
    mids = h * (2 * np.arange(panels) + 1)
    ts, ws = (mids[:, None] + h * x).ravel(), np.tile(h * w, panels)
    sums = np.zeros(ts.size, dtype=complex)
    for a, n in zip(values, ns):
        for d in divisors(int(n)):
            sums += a * np.exp(2j * ts * math.log(d))
    integrand = eisenstein_density(ts) * weight_h(ts, sw) * np.abs(sums) ** 2
    return 2.0 / math.pi * float(ws @ integrand)


def two_refinements_finer(monkeypatch, module) -> list:
    """Patch module's refined loop so that each call also evaluates the grid
    two refinements past the one it stopped at. Returns the list that gets
    one (result, values on that grid) per call."""
    refined, checks = module.refined, []

    def probed(evaluate, tol):
        levels = []

        def counted(level):
            levels.append(level)
            return evaluate(level)

        res = refined(counted, tol)
        checks.append((res, evaluate(levels[-1] + 2)[0]))
        return res

    monkeypatch.setattr(module, "refined", probed)
    return checks


def exact_lag_sums(values) -> list[Fraction]:
    """sum_m Re(conj(a_m) a_{m+k}) for each lag k = 0..N-1, doubled off
    k = 0, in exact rationals. Every float is a dyadic rational, so the
    parts are put over one power of two 2^shift and the sums are of
    Python integers."""
    parts = [x for z in np.asarray(values, dtype=complex).tolist() for x in (z.real, z.imag)]
    shift = max(x.as_integer_ratio()[1].bit_length() - 1 for x in parts)
    ints = []
    for x in parts:
        num, den = x.as_integer_ratio()
        ints.append(num << (shift - den.bit_length() + 1))
    re, im = ints[0::2], ints[1::2]
    N = len(re)
    sums = []
    for k in range(N):
        total = sum(re[m] * re[m + k] + im[m] * im[m + k] for m in range(N - k))
        sums.append(Fraction(total if k == 0 else 2 * total, 1 << (2 * shift)))
    return sums


def hoelder(c, k) -> np.ndarray:
    """The Ramanujan sum c_c(k) entry by entry (integer arrays c >= 1 and k
    broadcast): Hoelder's closed form mu(c/g) phi(c)/phi(c/g), g = gcd(k, c),
    in exact integers, with mu and phi of the values that occur from
    trial-division factorizations."""
    c, k = np.broadcast_arrays(np.asarray(c, dtype=np.int64), np.asarray(k, dtype=np.int64))
    q = c // np.gcd(k, c)
    values = np.array(sorted(set(c.ravel().tolist()) | set(q.ravel().tolist())))
    mu, phi = np.zeros((2, values.size), dtype=np.int64)
    for i, n in enumerate(values.tolist()):
        factors = factorize(n)
        mu[i] = 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)
        phi[i] = math.prod(p ** (e - 1) * (p - 1) for p, e in factors)
    c, q = np.searchsorted(values, c), np.searchsorted(values, q)
    return mu[q] * (phi[c] // phi[q])


def weight_h_y(t, y: float, sw):
    """h(t; y) = h(t) cos(2 t log y); even in t and invariant under y -> 1/y."""
    if y <= 0:
        raise ValueError("y must be positive")
    t = np.asarray(t, dtype=float)
    out = weight_h(t, sw) * np.cos(2.0 * t * math.log(y))
    return float(out) if out.ndim == 0 else out


def dual(gl3: GL3Form) -> GL3Form:
    """The contragredient table: A(m, n) -> conj A(n, m)."""
    return GL3Form(
        coeff={(n, m): np.conj(v) for (m, n), v in gl3.coeff.items()},
        x_max=gl3.x_max,
        label=gl3.label + "~",
    )


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


# ---------------------------------------------------------------------------
# Synthetic fixtures (Hecke-exact mock data; not automorphic)


def synthetic_form(
    t: float,
    omega: float,
    n_max: int,
    seed: int | None = None,
) -> MaassForm:
    """A Hecke-multiplicative table from random prime values.

    Useful for exercising sums and symmetry properties. The trace-formula
    identity does NOT hold for such mock data: only genuine spectra balance
    the two sides.
    """
    rng = np.random.default_rng(seed)
    lam = np.ones(n_max)
    # ascending n draws the random prime values in ascending order of p
    for n in range(2, n_max + 1):
        fac = factorize(n)
        if fac != ((n, 1),):
            lam[n - 1] = math.prod(_prime_power(float(lam[p - 1]), a) for p, a in fac)
        else:
            lam[n - 1] = 2.0 * math.cos(rng.uniform(0.0, math.pi))
    return MaassForm(t=t, omega=omega, hecke=lam)


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
        omega = float(np.exp(rng.normal(math.log(8.0 / math.pi**2), 0.35)) / (1.0 + t / 40.0))
        forms.append(synthetic_form(float(t), omega, n_max, seed=seed + 7 * i))
    return forms
