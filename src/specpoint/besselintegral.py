"""Gaussian-weighted Bessel integrals on the spectral side.

The weight pair h(t) = exp(-((t-T)/M)^2) + exp(-((t+T)/M)^2) and its
twisted form h(t; y) = h(t) cos(2t log y) drive two evaluation routes for

    H(x, y) = (4/pi^2) int_0^inf t h(t; y) tanh(pi t) B(t, x) dt:

a direct one through the cosine kernel B, and the reduced oscillatory
integral I(v, w) over |r| <= 6.1/M with the explicit weight g(r), valid
for x >> 1. On the direct route, x <= SERIES_X_MAX takes the power series
of B, batched over every x that shares y (bessel_H_series_many); larger x
take the contour evaluation of B one x at a time. The routes' agreement,
the small-argument decay of H, and the decay of I below the resonance
threshold are the verification targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besselkernel import kernel_b_block, kernel_b_series_many
from .quadrature import QuadratureResult, adaptive_quadrature

TWO_OVER_PI_SQRT_PI = 2.0 / (math.pi * math.sqrt(math.pi))
R_CUT_FACTOR = 6.1  # exp(-6.1^2) ~ 7e-17: the Gaussian r-truncation
T_CUT_FACTOR = 6.5  # exp(-6.5^2) ~ 4e-19: the Gaussian t-truncation
SERIES_X_MAX = 5.0  # largest x whose H integrand uses the power-series kernel
_H_PREF = 4.0 / math.pi**2


@dataclass(frozen=True)
class SpectralWeight:
    """Gaussian window centered at T with width M (1 <= M <= T)."""

    T: float
    M: float

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("T must be positive")
        if not 1.0 <= self.M <= self.T:
            raise ValueError("M must lie in [1, T]")

    @property
    def t_upper(self) -> float:
        return self.T + T_CUT_FACTOR * self.M


def weight_h(t, sw: SpectralWeight):
    """h(t): even Gaussian pair around +-T."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-(((t - sw.T) / sw.M) ** 2)) + np.exp(-(((t + sw.T) / sw.M) ** 2))
    return float(out) if out.ndim == 0 else out


def weight_h_y(t, y: float, sw: SpectralWeight):
    """h(t; y) = h(t) cos(2 t log y); even in t and invariant under y -> 1/y."""
    if y <= 0:
        raise ValueError("y must be positive")
    t = np.asarray(t, dtype=float)
    out = weight_h(t, sw) * np.cos(2.0 * t * math.log(y))
    return float(out) if out.ndim == 0 else out


def g_weight(r, sw: SpectralWeight):
    """g(r) = (2/(pi sqrt(pi))) (2 beta(Mr) cos(2Tr) + (M/T) beta'(Mr) sin(2Tr))."""
    r = np.asarray(r, dtype=float)
    mr = sw.M * r
    beta = np.exp(-(mr**2))
    beta_prime = -2.0 * mr * beta
    out = TWO_OVER_PI_SQRT_PI * (
        2.0 * beta * np.cos(2.0 * sw.T * r) + (sw.M / sw.T) * beta_prime * np.sin(2.0 * sw.T * r)
    )
    return float(out) if out.ndim == 0 else out


def rho_pm(r):
    """(rho_plus, rho_minus) = (e^r - 1, 1 - e^{-r}), evaluated stably."""
    r = np.asarray(r, dtype=float)
    plus = np.expm1(r)
    minus = -np.expm1(-r)
    if r.ndim == 0:
        return float(plus), float(minus)
    return plus, minus


def _series_integrand(xs: np.ndarray, y: float, sw: SpectralWeight):
    """The H integrand at every x in xs by the series kernel: shape (t, xs.size)."""

    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        weight = _H_PREF * t * weight_h_y(t, y, sw) * np.tanh(math.pi * t)
        b_vals = kernel_b_series_many(np.maximum(t, 1e-9), xs)
        b_vals *= weight[:, None]
        return b_vals

    return f


def _contour_integrand(x: float, y: float, sw: SpectralWeight, inner_tol: float):
    """The H integrand at one x > SERIES_X_MAX by the contour kernel, and
    the list of kernel_b_block's converged flags, one per chunk of every call."""
    flags: list[bool] = []

    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        chunks = []
        for i in range(0, t.size, 512):
            b_vals, _, ok = kernel_b_block(t[i : i + 512], x, tol=inner_tol)
            chunks.append(b_vals)
            flags.append(ok)
        return _H_PREF * t * weight_h_y(t, y, sw) * np.tanh(math.pi * t) * np.concatenate(chunks)

    return f, flags


def _initial_panels(x: float, y: float, t_hi: float) -> int:
    # oscillation rate in t: the y-twist plus the kernel's own phase
    rate = 2.0 * abs(math.log(y)) + 2.0 * math.asinh(2.0 * t_hi / x)
    return max(8, min(512, int(rate * t_hi / 6.0) + 8))


def bessel_H_series_many(xs, y: float, sw: SpectralWeight, tol: float = 1e-8) -> QuadratureResult:
    """H(x, y) for every x in xs (0 < x <= SERIES_X_MAX) at one twist y,
    as one vector-valued quadrature over the power-series kernel.

    The x share one t-grid, one log Gamma per t-node and one
    (t, k) x (k, x) series product per block of t-nodes. The grid starts
    from the panel count of the smallest x, and a panel is accepted only
    once every x fits its budget. value and err_estimate are real arrays
    in the order of xs; converged covers them all.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-d array")
    if not (np.all(xs > 0) and np.all(xs <= SERIES_X_MAX)):
        raise ValueError(f"the series route needs 0 < x <= {SERIES_X_MAX}")
    t_hi = sw.t_upper
    res = adaptive_quadrature(
        _series_integrand(xs, y, sw),
        0.0,
        t_hi,
        tol,
        initial_panels=_initial_panels(float(np.min(xs)), y, t_hi),
    )
    return QuadratureResult(
        res.value.real, res.err_estimate + 1e-16 * sw.M * sw.T, res.evaluations, res.converged
    )


def bessel_H_direct(
    x: float,
    y: float,
    sw: SpectralWeight,
    tol: float = 1e-8,
) -> QuadratureResult:
    """H(x, y) by integrating the cosine kernel against the twisted weight.

    For x <= SERIES_X_MAX this is the one-column case of
    bessel_H_series_many; beyond, the kernel comes from the contour route
    and converged also covers every kernel_b_block call. The t-range is
    cut where the Gaussian is below 4e-19. The series route is exact for
    small x too, x < 1 included.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    if x <= SERIES_X_MAX:
        res = bessel_H_series_many(np.array([x]), y, sw, tol=tol)
        return QuadratureResult(
            complex(res.value[0], 0.0), float(res.err_estimate[0]), res.evaluations, res.converged
        )
    t_hi = sw.t_upper
    inner_tol = max(tol / (4.0 * t_hi), 1e-12)
    f, kernel_flags = _contour_integrand(x, y, sw, inner_tol)
    res = adaptive_quadrature(f, 0.0, t_hi, tol, initial_panels=_initial_panels(x, y, t_hi))
    return QuadratureResult(
        complex(res.value.real, 0.0),
        res.err_estimate + 0.75 * tol + 1e-16 * sw.M * sw.T,
        res.evaluations,
        res.converged and all(kernel_flags),
    )


def I_integral(v: float, w: float, sw: SpectralWeight, tol: float = 1e-8) -> QuadratureResult:
    """I(v, w) = M T int_{|r| <= 6.1/M} g(r) exp(2i(v rho_+(r) - w rho_-(r))) dr."""
    if v < 0 or w < 0:
        raise ValueError("v and w must be non-negative")
    r0 = R_CUT_FACTOR / sw.M
    mt = sw.M * sw.T

    def f(r: np.ndarray) -> np.ndarray:
        plus, minus = rho_pm(r)
        return g_weight(r, sw) * np.exp(2j * (v * plus - w * minus))

    var = 2.0 * (v * math.expm1(r0) + w * -math.expm1(-r0)) + 4.0 * sw.T * r0
    res = adaptive_quadrature(
        f, -r0, r0, tol / mt, initial_panels=max(8, min(1024, int(var / 6.0) + 8))
    )
    out = res.scaled(mt)
    out.err_estimate += mt * 2.0 * r0 * 6.0 * TWO_OVER_PI_SQRT_PI * math.exp(-(R_CUT_FACTOR**2))
    return out


@dataclass
class BesselCompareReport:
    """Dual-route comparison of H(x, y) at one point."""

    x: float
    y: float
    T: float
    M: float
    H_direct: float
    H_asymptotic: float
    abs_residual: float
    rel_residual: float
    quadrature_err: float


def compare_H_asymptotic(
    x: float, y: float, sw: SpectralWeight, tol: float = 1e-8
) -> BesselCompareReport:
    """H by the kernel route against Re{e^{2i(v+w)} I(v,w)}, with residuals."""
    v = x * y / 4.0
    w = x / (4.0 * y)
    direct = bessel_H_direct(x, y, sw, tol=tol)
    reduced = I_integral(v, w, sw, tol=tol)
    phase = np.exp(2j * math.pi * ((v + w) / math.pi % 1.0))
    asym = float((phase * reduced.value).real)
    abs_res = abs(direct.value.real - asym)
    rel_res = abs_res / max(abs(direct.value.real), 1e-30)
    return BesselCompareReport(
        x=x,
        y=y,
        T=sw.T,
        M=sw.M,
        H_direct=direct.value.real,
        H_asymptotic=asym,
        abs_residual=abs_res,
        rel_residual=rel_res,
        quadrature_err=direct.err_estimate + reduced.err_estimate,
    )


def smallx_decay_scan(
    sw: SpectralWeight,
    u_grid,
    y_samples=(1.0, 2.0, 4.0, 8.0),
    tol: float = 1e-12,
) -> list[dict]:
    """Max |H(x, y)| over (x, y) with x(y + 1/y) = u, for each u in the grid.

    A row's converged is the AND over the quadratures behind it.
    """
    rows = []
    for u in u_grid:
        if u < 0:
            raise ValueError("u must be non-negative")
        worst = 0.0
        worst_y = None
        converged = True
        for y in y_samples:
            x = u / (y + 1.0 / y)
            if x <= 0:
                continue
            h = bessel_H_direct(x, y, sw, tol=tol)
            converged = converged and h.converged
            if abs(h.value.real) > worst:
                worst, worst_y = abs(h.value.real), y
        rows.append(
            {"u": float(u), "max_abs_H": worst, "argmax_y": worst_y, "converged": converged}
        )
    return rows
