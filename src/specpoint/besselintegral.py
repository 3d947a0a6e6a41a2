"""Gaussian-weighted Bessel integrals on the spectral side.

The weight pair h(t) = exp(-((t-T)/M)^2) + exp(-((t+T)/M)^2) and its
twisted form h(t; y) = h(t) cos(2t log y) define

    H(x, y) = (4/pi^2) int_0^inf t h(t; y) tanh(pi t) B(t, x) dt,

evaluated exactly by bessel_H_many for every x that shares one twist y
(bessel_H_direct is its one-column case). x <= SERIES_X_MAX take the power
series of the cosine kernel B, in one vector-valued quadrature
(bessel_H_series_many). Larger x swap the two integrals,
H = int_R cos(x cosh r) k_y(r) dr with the per-y kernel
k_y(r) = (4/pi^2) int_0^inf t h(t; y) tanh(pi t) cos(2tr) dt, and take the
r-integral along a rotated contour shared by the x of one octave.
residue_expansion bounds E_K in H = sum_{k<K} r_k(y) J_{2k+1}(x) + E_K,
which is asymptotic in small x and turns c-tails into Petersson sums.

The reduced oscillatory integral I(v, w) over |r| <= 6.1/M with the
explicit weight g(r) is the paper's stationary-phase asymptotic for H at
x >> 1. I_integral and compare_H_asymptotic check it against the exact
route; no sum evaluates H through it. The routes' agreement, the
small-argument decay of H, and the decay of I below the resonance
threshold are the verification targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .besselkernel import kernel_b_series_many
from .quadrature import _BLOCK_NODES, QuadratureResult, adaptive_quadrature, gauss_legendre_panels
from .specfun import log_gamma

TWO_OVER_PI_SQRT_PI = 2.0 / (math.pi * math.sqrt(math.pi))
R_CUT_FACTOR = 6.1  # exp(-6.1^2) ~ 7e-17: the Gaussian r-truncation
T_CUT_FACTOR = 6.5  # exp(-6.5^2) ~ 4e-19: the Gaussian t-truncation
SERIES_X_MAX = 5.0  # largest x whose H integrand uses the power-series kernel
_H_PREF = 4.0 / math.pi**2
_TAIL_EXP = 45.0  # exp(-45) ~ 3e-20: where the contour's ray is cut
_KERNEL_ORDER = 16  # Gauss-Legendre points per panel of the swapped route
_KERNEL_PHASE = 12.0  # radians of phase per panel on the first grid
_KERNEL_ROUNDS = 4  # grid doublings _bessel_H_kernel tries before flagging
# S_k(SL2(Z)) = 0 for k = 2, 4, ..., 10 (Iwaniec, Topics in Classical
# Automorphic Forms, Thm 3.6), so the Kloosterman c-sums of J_1, J_3, ...,
# J_9 have closed forms: the residue expansion stops at K = _K_MAX
_K_MAX = 5


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


def _gauss_grid(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(a, b, panels + 1)
    return gauss_legendre_panels(edges[:-1], edges[1:], _KERNEL_ORDER)


def _panel_count(phase: float) -> int:
    return max(2, math.ceil(phase / _KERNEL_PHASE))


def _kernel_on_leg(
    s: np.ndarray, fixed: float, horizontal: bool, t: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """k_y at r = s + i fixed (a horizontal leg) or r = fixed + i s (a
    vertical one), from the t-nodes and their weights f = w (4/pi^2) t h tanh.

    cos(2t(a + ib)) = cos(2ta) cosh(2tb) - i sin(2ta) sinh(2tb), and the
    leg's fixed coordinate goes into the two weight vectors. So each block
    of at most _BLOCK_NODES nodes is one real (nodes, t) phase table,
    turned into the two function tables in turn.
    """
    if horizontal:
        even, odd = np.cos, np.sin
        w_even, w_odd = f * np.cosh(2.0 * fixed * t), f * np.sinh(2.0 * fixed * t)
    else:
        even, odd = np.cosh, np.sinh
        w_even, w_odd = f * np.cos(2.0 * fixed * t), f * np.sin(2.0 * fixed * t)
    out = np.empty(s.size, dtype=complex)
    for i in range(0, s.size, _BLOCK_NODES):
        block = slice(i, i + _BLOCK_NODES)
        phase = np.multiply.outer(2.0 * s[block], t)
        out.real[block] = even(phase) @ w_even
        out.imag[block] = -(odd(phase, out=phase) @ w_odd)
    return out


def _bessel_H_kernel(
    xs: np.ndarray, y: float, sw: SpectralWeight, tol: float
) -> QuadratureResult:
    """H(x, y) for every x in xs (x > 0) with the integrals swapped:
    2 Re int_Gamma e^{ix cosh r} k_y(r) dr, through one contour and one
    k_y table for all of xs.

    k_y is entire, so the r-integral over [0, inf) may leave the real axis.
    Gamma runs along it to a, up to a + i theta, then right to R + i theta.
    Off the axis, |e^{ix cosh r} cos(2tr)| <= exp(2t Im r - x sinh(Re r)
    sin(Im r)), and rising at a, past every stationary point
    (x sinh(a) sin(theta) = 2 t_upper theta), keeps that below 1 for every
    t. Rising at 0 instead gives legs about e^{2T theta} times larger than
    H, which cancel: ~7e3 each against H ~ 5e-12 at T=50, M=8, x=10, y=1,
    leaving ~1e-11 of rounding. theta = min(pi/2, 4/T) caps cosh(2t theta)
    at e^60, as t_upper <= 7.5 T; H itself does not depend on it. R lies 45
    e-folds of decay beyond a. a and R are those of the smallest x, so
    they lie beyond the stationary points and the cut of every larger x.
    Every leg and the t-range [0, t_upper] carry Gauss panels sized by the
    phase of the largest x; k_y at a leg's nodes is one (nodes, t) product
    against the t-weights, and H is one weighted sum over the nodes per x.

    All four panel counts double until no H changes by more than tol, for
    at most _KERNEL_ROUNDS rounds; converged is False when they run out.
    err_estimate is each x's last change; evaluations counts (r, t) node
    pairs.
    """
    t_hi = sw.t_upper
    theta = min(math.pi / 2, 4.0 / sw.T)
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    decay = x_lo * math.sin(theta)
    sinh_a = 2.0 * t_hi * theta / decay
    a = math.asinh(sinh_a)
    R = math.asinh(sinh_a + _TAIL_EXP / decay)
    cosh_a = math.cosh(a)
    # (start, end, fixed coordinate, horizontal) of each leg
    legs = ((0.0, a, 0.0, True), (0.0, theta, a, False), (a, R, theta, True))
    counts = [
        _panel_count(x_hi * (cosh_a - 1.0) + 2.0 * sw.T * a),
        _panel_count(x_hi * cosh_a * (1.0 - math.cos(theta)) + 2.0 * sw.T * theta),
        _panel_count(x_hi * (math.cosh(R) - cosh_a) * math.cos(theta) + 2.0 * sw.T * (R - a)),
        max(
            _panel_count(2.0 * (math.hypot(R, theta) + abs(math.log(y))) * t_hi),
            math.ceil(t_hi / sw.M),
        ),
    ]

    def evaluate(counts: list[int]) -> tuple[np.ndarray, int]:
        t, wt = _gauss_grid(0.0, t_hi, counts[-1])
        f = wt * _H_PREF * t * weight_h_y(t, y, sw) * np.tanh(math.pi * t)
        total = np.zeros(xs.size)
        nodes = 0
        for (lo, hi, fixed, horizontal), n in zip(legs, counts):
            s, ws = _gauss_grid(lo, hi, n)
            r, dr = (s + 1j * fixed, ws) if horizontal else (fixed + 1j * s, 1j * ws)
            k = dr * _kernel_on_leg(s, fixed, horizontal, t, f)
            for i in range(0, s.size, _BLOCK_NODES):
                block = slice(i, i + _BLOCK_NODES)
                total += (np.exp(1j * np.multiply.outer(xs, np.cosh(r[block]))) @ k[block]).real
            nodes += s.size
        return 2.0 * total, nodes * t.size

    value, evaluations = evaluate(counts)
    err, converged = np.abs(value), False
    for _ in range(_KERNEL_ROUNDS):
        counts = [2 * n for n in counts]
        new, n_eval = evaluate(counts)
        evaluations += n_eval
        err, value = np.abs(new - value), new
        if np.all(err <= tol):
            converged = True
            break
    return QuadratureResult(value, err + 1e-16 * sw.M * sw.T, evaluations, converged)


def bessel_H_many(
    xs, y: float, sw: SpectralWeight, tol: float = 1e-8
) -> tuple[QuadratureResult, int]:
    """H(x, y) for every x > 0 in xs at one twist y, and how many of them
    took the series route.

    x <= SERIES_X_MAX go through one bessel_H_series_many call, which is
    exact for small x too, x < 1 included; larger x through one
    _bessel_H_kernel call per octave, with the t- and r-integrals swapped.
    Both cut the t-range where the Gaussian is below 4e-19. value and
    err_estimate are real arrays in the order of xs (empty for an empty
    xs); converged covers them all and evaluations adds up every call's.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or not np.all(xs > 0):
        raise ValueError("xs must be a 1-d array of positive x")
    value = np.zeros(xs.size)
    err = np.zeros(xs.size)
    evaluations = 0
    converged = True
    series = xs <= SERIES_X_MAX
    # one kernel contour per octave [2^j, 2^{j+1}) of x: a wider batch stays
    # exact, but pays the phase of its largest x along the smallest x's contour
    octave = np.floor(np.log2(xs))
    batches = [(bessel_H_series_many, series)] + [
        (_bessel_H_kernel, ~series & (octave == j)) for j in np.unique(octave[~series])
    ]
    for route, mask in batches:
        if np.any(mask):
            res = route(xs[mask], y, sw, tol)
            value[mask], err[mask] = res.value, res.err_estimate
            evaluations += res.evaluations
            converged = converged and res.converged
    return QuadratureResult(value, err, evaluations, converged), int(np.count_nonzero(series))


def bessel_H_direct(
    x: float,
    y: float,
    sw: SpectralWeight,
    tol: float = 1e-8,
) -> QuadratureResult:
    """H(x, y) from the cosine kernel and the twisted weight: the
    one-column case of bessel_H_many."""
    res, _ = bessel_H_many(np.array([x], dtype=float), y, sw, tol)
    return QuadratureResult(
        complex(res.value[0], 0.0), float(res.err_estimate[0]), res.evaluations, res.converged
    )


@lru_cache(maxsize=None)
def residue_expansion(y: float, sw: SpectralWeight) -> tuple[np.ndarray, np.ndarray]:
    """(r, B): H(x, y) = sum_{k<K} r[k] J_{2k+1}(x) + E_K(x, y) with
    |E_K(x, y)| <= B[K-1] (x/2)^{2K} I_0(x), for K = 1, ..., _K_MAX.

    H = (2i/pi) int_R t h(t; y) J_{2it}(x) / cosh(pi t) dt. Moving the line
    to Im t = -K passes the poles t = -i(k + 1/2), with residues from
    h(-ia) = 2 exp((a^2 - T^2)/M^2) cos(2aT/M^2). On t = s - iK,
    |cosh(pi t)| = cosh(pi s) and |J_{2K+2is}(x)| <= (x/2)^{2K} I_0(x) /
    |Gamma(1 + 2K + 2is)|, as |(nu + 1)_j| >= j! for Re nu >= 0; B is the
    integral of absolute values there, even in s.
    """
    a = np.arange(_K_MAX) + 0.5
    h = 2.0 * np.exp((a**2 - sw.T**2) / sw.M**2) * np.cos(2.0 * a * sw.T / sw.M**2)
    r = 4.0 / math.pi * (-1.0) ** np.arange(_K_MAX) * a * h * np.cosh(2.0 * a * math.log(y))
    hi = sw.t_upper + 2.0 * sw.M
    s, weights = _gauss_grid(0.0, hi, 2 * math.ceil(hi / sw.M))
    K = np.arange(1, _K_MAX + 1)[:, None]
    t = s - 1j * K
    h_t = np.exp(-(((t - sw.T) / sw.M) ** 2)) + np.exp(-(((t + sw.T) / sw.M) ** 2))
    # log of cosh(pi s) |Gamma(1 + 2K + 2is)|
    log_den = math.pi * s + np.log1p(np.exp(-2.0 * math.pi * s)) - math.log(2.0)
    log_den = log_den + log_gamma(1.0 + 2.0 * K + 2j * s).real
    integrand = np.abs(t * h_t * np.cos(2.0 * t * math.log(y))) * np.exp(-log_den)
    B = 4.0 / math.pi * (integrand @ weights)
    # every caller gets the same cached arrays
    r.flags.writeable = B.flags.writeable = False
    return r, B


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
