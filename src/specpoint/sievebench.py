"""Empirical large-sieve harness.

Left-hand sides are computed exactly: finite sums, or t-integrals of
trigonometric polynomials taken in closed form as quadratic forms in the
pairwise sinc kernel (no quadrature grid). Right-hand sides are the
literature majorants with every unspecified epsilon-factor set to 1. Only
ratios are reported: the suites check boundedness, monotonicity, and
scaling invariance, never a sharp constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import _unit_residues, divisor_sigma
from .besselintegral import SpectralWeight, weight_h
from .quadrature import gauss_legendre_panels
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
    edges = np.linspace(-tau, tau, panels + 1)
    return gauss_legendre_panels(edges[:-1], edges[1:], order)


def _sinc_kernel(lams: np.ndarray, tau: float) -> np.ndarray:
    """K[m, n] = int_{-tau}^{tau} e^{i (lam_m - lam_n) t} dt
    = 2 sin(tau (lam_m - lam_n)) / (lam_m - lam_n), and 2 tau on the diagonal,
    so that int_{-tau}^{tau} |sum_n b_n e^{i lam_n t}|^2 dt = b^H K b."""
    diff = lams[:, None] - lams[None, :]
    return 2.0 * tau * np.sinc(tau * diff / math.pi)


def _hybrid_lhs_one_modulus(seq: Sequence, gamma: float, v: float, c: int, tau: float) -> float:
    """(1/c) sum*_alpha int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(n^gamma t/(c v))|^2 dt.

    The alpha-sum of e(alpha (m - n)/c) over the units is the Ramanujan sum
    c_c(m - n), an integer, so the value is (1/c) a^H (K o c_c(m - n)) a
    with K the sinc kernel at lam_n = 2 pi n^gamma / (c v).
    """
    ns = seq.ns
    alphas, _ = _unit_residues(c)
    lags = np.arange(seq.N)  # |m - n| < N on the block, and c_c(k) is even in k
    ramanujan = np.rint(np.cos(2.0 * math.pi * (np.outer(alphas, lags) % c) / c).sum(axis=0))
    lams = 2.0 * math.pi * ns.astype(float) ** gamma / (c * v)
    kernel = _sinc_kernel(lams, tau) * ramanujan[np.abs(ns[:, None] - ns[None, :])]
    a = seq.values
    return float(np.real(a.conj() @ kernel @ a)) / c


def young_ls_lhs(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> float:
    """Hybrid twisted mean square over moduli c <= C and |t| <= tau: the sum
    over c of the closed-form per-modulus values, with no quadrature grid."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if tau <= 0 or v <= 0 or C < 1:
        raise ValueError("tau, v must be positive and C >= 1")
    return sum(_hybrid_lhs_one_modulus(seq, gamma, v, c, tau) for c in range(1, C + 1))


def young_ls_ratio(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> SieveReport:
    """Ratio of the hybrid mean square to (tau C + v N^{1-gamma} log C) ||a||^2."""
    lhs = young_ls_lhs(seq, gamma, tau, v, C)
    log_c = max(1.0, math.log(C))
    rhs = (tau * C + v * seq.N ** (1.0 - gamma) * log_c) * seq.norm_sq
    return SieveReport.make(lhs, rhs, gamma=gamma, tau=tau, v=v, C=C, N=seq.N)


def _twisted_linear_forms(seq: Sequence, forms: list[MaassForm]) -> np.ndarray:
    """|sum_n a_n lambda_j(n) n^{i t_j}|^2 for every form."""
    ns = seq.ns
    log_ns = np.log(ns.astype(float))
    out = np.empty(len(forms))
    for j, f in enumerate(forms):
        lam = np.array([f.lam(int(n)) for n in ns])
        inner = np.sum(seq.values * lam * np.exp(1j * f.t * log_ns))
        out[j] = abs(inner) ** 2
    return out


def _eisenstein_linear_forms(seq: Sequence, t: np.ndarray) -> np.ndarray:
    """|sum_n a_n sigma_{2it}(n)|^2 on an array of real t."""
    sums = sum(a * divisor_sigma(2j * t, int(n)) for a, n in zip(seq.values, seq.ns))
    return np.abs(sums) ** 2


def corollary_ratio(seq: Sequence, sw: SpectralWeight, forms: list[MaassForm]) -> SieveReport:
    """Sharp-cutoff window sum over T < t_j <= T + M against M (T + N) ||a||^2."""
    sq = _twisted_linear_forms(seq, forms)
    lhs = float(
        sum(f.omega * sq[j] for j, f in enumerate(forms) if sw.T < f.t <= sw.T + sw.M)
    )
    rhs = sw.M * (sw.T + seq.N) * seq.norm_sq
    return SieveReport.make(lhs, rhs, T=sw.T, M=sw.M, N=seq.N)


def dirichlet_poly_ratio(seq: Sequence, T: float) -> SieveReport:
    """int_{-T}^{T} |sum a_n n^{it}|^2 dt against (2T + N) ||a||^2.

    The integral is the quadratic form of the sinc kernel at lam_n = log n,
    2 sin(T log(m/n)) / log(m/n).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    kernel = _sinc_kernel(np.log(seq.ns.astype(float)), T)
    lhs = float(np.real(seq.values.conj() @ kernel @ seq.values))
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
    N^{-1/2} sum_n A(n1, n) (coeff) w(n/N), reported against the majorant
    (1 + MT/N) sum_n |A(n1, n)|^2 + (n1 + T/M^2) N n1 with all
    epsilon-factors set to 1.
    """
    if n1 < 1 or N < 1:
        raise ValueError("n1 and N must be positive")
    T, M = sw.T, sw.M
    ns = np.arange(N + 1, 2 * N + 1)
    wvals = np.ones(ns.size) if weight is None else np.asarray(weight(ns / float(N)), dtype=float)
    coeffs = np.array([gl3.a(n1, int(n)) for n in ns])
    # the block carries n^{-it} and sigma_{-2it}(n); lambda_j is real, so the
    # conjugate coefficients give the same moduli with n^{it} and sigma_{2it}(n)
    block = Sequence(N=N, values=np.conj(coeffs * wvals / math.sqrt(N)))

    sq = _twisted_linear_forms(block, forms)
    s_val = sum(f.omega * weight_h(f.t, sw) * sq[j] for j, f in enumerate(forms))

    nodes, weights = _t_grid(sw.t_upper, order=64, panels=20)
    keep = nodes > 0
    nodes, weights = nodes[keep], 2.0 * weights[keep]
    density = eisenstein_density(nodes) * weight_h(nodes, sw)
    t_val = float(np.sum(weights * density * _eisenstein_linear_forms(block, nodes)) / math.pi)

    coeff_sq = float(np.sum(np.abs(coeffs) ** 2))
    majorant = (1.0 + M * T / N) * coeff_sq + (n1 + T / M**2) * N * n1
    return {
        "S": float(s_val),
        "T": t_val,
        "majorant": majorant,
        "ratio": (float(s_val) + t_val) / majorant,
        "params": {"T": T, "M": M, "N": N, "n1": n1},
    }
