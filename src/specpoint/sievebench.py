"""Empirical large-sieve harness.

Left-hand sides are computed exactly: finite sums, or t-integrals of
trigonometric polynomials taken in closed form (no quadrature grid).
Expanding int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(lam_n t)|^2 dt over
the units alpha gives, for each pair m <= n of the block, the Ramanujan
sum c_c(n - m) times int_{-tau}^{tau} e((lam_n - lam_m) t) dt, a sinc.
The pair enters only through its lag n - m and its gap lam_n - lam_m, so
_pair_groups adds up Re(conj(a_m) a_n) once per sequence over the pairs
with equal (lag, gap), and each modulus then costs O(#groups) plus an
O(c log c) DFT for c_c. At lam_n = n (gamma = 1) every gap is its lag,
which leaves N groups where the dense form has N^2 kernel entries.
Right-hand sides are the literature majorants with every unspecified
epsilon-factor set to 1. Only ratios are reported: the suites check
boundedness, monotonicity, and scaling invariance, never a sharp constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import _unit_residues, divisor_sigma
from .besselintegral import SpectralWeight, weight_h
from .quadrature import QuadratureResult, doubled, doubling_rounds, gauss_grid
from .specfun import eisenstein_density
from .spectraldata import GL3Form, MaassForm


@dataclass
class Sequence:
    """Coefficients a_n supported on the dyadic block (N, 2N]."""

    N: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.values.shape != (self.N,):
            raise ValueError(f"need exactly N={self.N} values for n in (N, 2N]")
        if not np.iscomplexobj(self.values):
            self.values = self.values.astype(complex)

    @property
    def ns(self) -> np.ndarray:
        return np.arange(self.N + 1, 2 * self.N + 1)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    @classmethod
    def random(cls, N: int, seed: int, real: bool = False) -> "Sequence":
        """Uniform on the complex unit disk (or on [-1, 1] when real)."""
        rng = np.random.default_rng(seed)
        if real:
            vals = rng.uniform(-1.0, 1.0, size=N).astype(complex)
        else:
            r = np.sqrt(rng.uniform(0.0, 1.0, size=N))
            phi = rng.uniform(0.0, 2.0 * math.pi, size=N)
            vals = r * np.exp(1j * phi)
        return cls(N=N, values=vals)


@dataclass
class SieveReport:
    lhs: float
    rhs_majorant: float
    ratio: float
    params: dict = field(default_factory=dict)

    @classmethod
    def make(cls, lhs: float, rhs: float, **params) -> "SieveReport":
        rhs = rhs if rhs > 0 else 1e-300
        return cls(lhs=lhs, rhs_majorant=rhs, ratio=lhs / rhs, params=params)


def _t_grid(tau: float, order: int, panels: int):
    """Gauss panels on [-tau, tau]; only bench/tracing.py refers to it."""
    return gauss_grid(-tau, tau, panels, order)


def _pair_groups(seq: Sequence, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lags, gaps, weights) of the pairs m <= n of the block grouped by
    the exact key (n - m, lam_n - lam_m): each weight is the sum of
    Re(conj(a_m) a_n) over its group, an off-diagonal pair counted twice
    for both orders. For a real kernel K(m, n) = K(n, m) that depends on
    the pair only through its key, sum_{m,n} conj(a_m) a_n K = weights @ K.
    """
    i, j = np.triu_indices(seq.N)
    a = seq.values
    pair_weights = np.where(i == j, 1.0, 2.0) * np.real(a[i].conj() * a[j])
    # one complex key lag + i gap: complex values compare exactly, part by part
    keys, group = np.unique((j - i) + 1j * (lams[j] - lams[i]), return_inverse=True)
    return keys.real.astype(np.int64), keys.imag, np.bincount(group, weights=pair_weights)


def _sinc_integral(freqs: np.ndarray, tau: float) -> np.ndarray:
    """int_{-tau}^{tau} e(f t) dt = 2 tau sinc(2 tau f) at each frequency f."""
    return 2.0 * tau * np.sinc(2.0 * tau * freqs)


def _ramanujan_sums(c: int, ks: np.ndarray) -> np.ndarray:
    """c_c(k) = sum over units alpha mod c of e(alpha k/c), at each k >= 0.

    The real DFT of the unit indicator, rounded to the integers it equals,
    in O(c log c); c_c(k) is even and c-periodic in k, so k is folded into
    [0, c/2].
    """
    units = np.zeros(c)
    units[_unit_residues(c)[0]] = 1.0
    sums = np.rint(np.fft.rfft(units).real)
    ks = ks % c
    return sums[np.minimum(ks, c - ks)]


def _hybrid_lhs_one_modulus(groups: tuple, v: float, c: int, tau: float) -> float:
    """(1/c) sum*_alpha int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(lam_n t/(c v))|^2 dt
    for the pair groups of a at lam_n (n^gamma in the hybrid sieve).

    The alpha-sum of e(alpha (n - m)/c) over the units is the Ramanujan sum
    c_c(lag) and the t-integral of e(gap t/(c v)) is 2 tau sinc(2 tau gap/(c v)),
    so the value is (1/c) sum_g W_g c_c(lag_g) 2 tau sinc(2 tau gap_g/(c v)):
    O(#groups) per modulus (N groups at gamma = 1) plus the O(c log c)
    Ramanujan DFT, with no N x N or phi(c) x N table.
    """
    lags, gaps, weights = groups
    kernel = _ramanujan_sums(c, lags) * _sinc_integral(gaps / (c * v), tau)
    return float(weights @ kernel) / c


def young_ls_lhs(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> float:
    """Hybrid twisted mean square over moduli c <= C and |t| <= tau: the sum
    over c of the closed-form per-modulus values, with no quadrature grid."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if tau <= 0 or v <= 0 or C < 1:
        raise ValueError("tau, v must be positive and C >= 1")
    groups = _pair_groups(seq, seq.ns.astype(float) ** gamma)
    return sum(_hybrid_lhs_one_modulus(groups, v, c, tau) for c in range(1, C + 1))


def young_ls_ratio(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> SieveReport:
    """Ratio of the hybrid mean square to (tau C + v N^{1-gamma} log C) ||a||^2."""
    lhs = young_ls_lhs(seq, gamma, tau, v, C)
    log_c = max(1.0, math.log(C))
    rhs = (tau * C + v * seq.N ** (1.0 - gamma) * log_c) * seq.norm_sq
    return SieveReport.make(lhs, rhs, gamma=gamma, tau=tau, v=v, C=C, N=seq.N)


def _twisted_linear_forms(ns: np.ndarray, a: np.ndarray, forms: list[MaassForm]) -> np.ndarray:
    """L_j(a) = sum_n a_n lambda_j(n) n^{i t_j} over the integers ns, for each
    form j; a stack of vectors a gives a row per vector."""
    basis = np.empty((len(ns), len(forms)), dtype=complex)
    for j, f in enumerate(forms):
        basis[:, j] = [f.lam(int(n)) for n in ns] * np.exp(1j * f.t * np.log(ns))
    return a @ basis


def _cusp_form(
    ns: np.ndarray, u: np.ndarray, v: np.ndarray, sw: SpectralWeight, forms: list[MaassForm]
) -> float:
    """sum_j omega_j h(t_j) Re(L_j(u) conj L_j(v)) over the integers ns: the
    cuspidal side at u = v = a for a block, and at u = e_m, v = e_n for the
    pair (m, n), whose real part lambda(m) lambda(n) cos(t log(m/n)) twists h."""
    lu, lv = _twisted_linear_forms(ns, np.array([u, v]), forms)
    omega = np.array([f.omega for f in forms])
    t = np.array([f.t for f in forms], dtype=float)
    return float(np.sum(omega * weight_h(t, sw) * (lu * lv.conj()).real))


_EIS_PANELS = 32  # panels of _eisenstein_form's level-0 grid
_EIS_CACHED_LEVEL = 4  # finer grids are built per call, so the cache stays small


@lru_cache(maxsize=32)
def _eisenstein_weights(sw: SpectralWeight, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, w, omega(t) h(t)) on _eisenstein_form's grid at level: the nodes t
    and weights w of _EIS_PANELS << level Gauss panels on [1e-12, t_upper].

    None of it depends on the coefficient vectors, so every pair and block
    at one window shares one zeta grid per level. Only levels up to
    _EIS_CACHED_LEVEL pass through the cache: an entry holds 3 x 512 2^level
    float64, at most 196 KB, and the 32 entries at most 6.3 MB. Every
    caller gets the same read-only arrays.
    """
    t, w = gauss_grid(1e-12, sw.t_upper, _EIS_PANELS << level)
    wh = eisenstein_density(t) * weight_h(t, sw)
    t.flags.writeable = w.flags.writeable = wh.flags.writeable = False
    return t, w, wh


def _eisenstein_form(
    ns: np.ndarray, u: np.ndarray, v: np.ndarray, sw: SpectralWeight, tol: float
) -> QuadratureResult:
    """(2/pi) int_0^{t_upper} omega(t) h(t) Re(E_t(u) conj E_t(v)) dt over the
    integers ns, E_t(a) = sum_n a_n sigma_{2it}(n): the Eisenstein side, paired
    like _cusp_form, as twice the even integrand's half-line, to tol.

    The grids double (quadrature.doubled) for as many rounds as
    adaptive_quadrature takes at _EIS_PANELS initial panels, and omega h
    comes from _eisenstein_weights, so value, error, evaluations and
    converged equal that integral's bit for bit.
    """

    def evaluate(level: int) -> tuple[complex, float, int]:
        weights = _eisenstein_weights if level <= _EIS_CACHED_LEVEL else _eisenstein_weights.__wrapped__
        t, w, wh = weights(sw, level)
        sigmas = np.array([divisor_sigma(2j * t, int(n)) for n in ns])
        eu, ev = u @ sigmas, v @ sigmas
        return complex((wh * (eu * ev.conj()).real) @ w), 0.0, t.size

    res = doubled(evaluate, tol * math.pi / 2.0, doubling_rounds(_EIS_PANELS))
    return res.scaled(2.0 / math.pi)


def corollary_ratio(seq: Sequence, sw: SpectralWeight, forms: list[MaassForm]) -> SieveReport:
    """Sharp-cutoff window sum over T < t_j <= T + M against M (T + N) ||a||^2."""
    sq = np.abs(_twisted_linear_forms(seq.ns, seq.values, forms)) ** 2
    lhs = float(
        sum(f.omega * sq[j] for j, f in enumerate(forms) if sw.T < f.t <= sw.T + sw.M)
    )
    rhs = sw.M * (sw.T + seq.N) * seq.norm_sq
    return SieveReport.make(lhs, rhs, T=sw.T, M=sw.M, N=seq.N)


def dirichlet_poly_ratio(seq: Sequence, T: float) -> SieveReport:
    """int_{-T}^{T} |sum a_n n^{it}|^2 dt against (2T + N) ||a||^2.

    The integral is the grouped quadratic form at lam_n = log n with no
    Ramanujan factor: the sum over pairs of W 2 sin(T log(n/m)) / log(n/m).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    _, gaps, weights = _pair_groups(seq, np.log(seq.ns.astype(float)))
    lhs = float(weights @ _sinc_integral(gaps / (2.0 * math.pi), T))
    rhs = (2.0 * T + seq.N) * seq.norm_sq
    return SieveReport.make(lhs, rhs, T=T, N=seq.N)


def moment_demo(
    gl3: GL3Form,
    forms: list[MaassForm],
    sw: SpectralWeight,
    N: int,
    n1: int = 1,
    weight=None,
) -> dict:
    """Desk-scale second-moment block at one dyadic length.

    Cuspidal and Eisenstein averages of the GL(3)-twisted linear forms
    N^{-1/2} sum_n A(n1, n) (coeff) w(n/N), _cusp_form and _eisenstein_form
    (tol 1e-6) at u = v = the block, reported against the majorant (1 +
    MT/N) sum_n |A(n1, n)|^2 + (n1 + T/M^2) N n1 with all epsilon-factors
    set to 1. "T_err" is the bar on "T" and "converged" the flag of its
    quadrature.
    """
    if n1 < 1 or N < 1:
        raise ValueError("n1 and N must be positive")
    T, M = sw.T, sw.M
    ns = np.arange(N + 1, 2 * N + 1)
    wvals = np.ones(ns.size) if weight is None else np.asarray(weight(ns / float(N)), dtype=float)
    coeffs = np.array([gl3.a(n1, int(n)) for n in ns])
    # the block carries n^{-it} and sigma_{-2it}(n); lambda_j is real, so the
    # conjugate coefficients give the same moduli with n^{it} and sigma_{2it}(n)
    a = np.conj(coeffs * wvals / math.sqrt(N))
    s_val = _cusp_form(ns, a, a, sw, forms)
    eis = _eisenstein_form(ns, a, a, sw, 1e-6)
    t_val = eis.value.real

    coeff_sq = float(np.sum(np.abs(coeffs) ** 2))
    majorant = (1.0 + M * T / N) * coeff_sq + (n1 + T / M**2) * N * n1
    return {
        "S": s_val,
        "T": t_val,
        "T_err": float(eis.err_estimate),
        "converged": eis.converged,
        "majorant": majorant,
        "ratio": (s_val + t_val) / majorant,
        "params": {"T": T, "M": M, "N": N, "n1": n1},
    }
