"""Gaussian-weighted Bessel integrals on the spectral side.

The weight pair h(t) = exp(-((t-T)/M)^2) + exp(-((t+T)/M)^2) and its
twisted form h(t; y) = h(t) cos(2t log y) define

    H(x, y) = (4/pi^2) int_0^inf t h(t; y) tanh(pi t) B(t, x) dt,

evaluated exactly by bessel_H_many for terms (x, y) of any twists. Each
route builds one untwisted table that every twist shares: for x <=
SERIES_X_MAX the power series of the cosine kernel B, for larger x the
kernel k_1 on one rotated contour per octave of x, as k_y(r) = (k_1(r+L) +
k_1(r-L))/2 at L = log y. Both double their Gauss panels until no term
moves by more than tol (quadrature.doubled), and add _ROUNDING times the
absolute sum of the terms on the last grid to each error estimate. The
kernel route is exact at small x too, but took 4-25 times as long there as
the series at T = 3-20. residue_expansion bounds E_K in H = sum_{k<K}
r_k(y) J_{2k+1}(x) + E_K, which is asymptotic in small x and turns c-tails
into Petersson sums.

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
from .quadrature import QuadratureResult, adaptive_quadrature, doubled, gauss_grid
from .specfun import log_gamma

TWO_OVER_PI_SQRT_PI = 2.0 / (math.pi * math.sqrt(math.pi))
R_CUT_FACTOR = 6.1  # exp(-6.1^2) ~ 7e-17: the Gaussian r-truncation
T_CUT_FACTOR = 6.5  # exp(-6.5^2) ~ 4e-19: the Gaussian t-truncation
SERIES_X_MAX = 5.0  # largest x whose H integrand uses the power-series kernel
_H_PREF = 4.0 / math.pi**2
_TAIL_EXP = 45.0  # exp(-45) ~ 3e-20: where the contour's ray is cut
_PANEL_PHASE = 12.0  # radians of phase per panel on the first grid
_ROUNDS = 4  # grid doublings either H route tries before flagging
_ROUNDING = 8.0 * np.finfo(float).eps  # times a sum's absolute terms: its rounding bar
_BLOCK_NODES = 256  # rows per block of a node table: 256 x (t-nodes or x) at most
_BLOCK_TERMS = 512  # terms per block of a term table: 256 x 512 at most
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


def _panel_count(phase: float) -> int:
    return max(2, math.ceil(phase / _PANEL_PHASE))


def _t_weights(sw: SpectralWeight, rate: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The t-nodes on [0, t_upper] and their weights f = w (4/pi^2) t h(t)
    tanh(pi t) > 0: Gauss panels for rate radians of phase per unit t, at
    least one per M, doubled level times. No node lies at t = 0."""
    t_hi = sw.t_upper
    panels = max(_panel_count(rate * t_hi), math.ceil(t_hi / sw.M)) << level
    t, wt = gauss_grid(0.0, t_hi, panels)
    return t, wt * _H_PREF * t * weight_h(t, sw) * np.tanh(math.pi * t)


def bessel_H_series_many(xs, ys, sw: SpectralWeight, tol: float = 1e-8) -> QuadratureResult:
    """H(x, y) for every term (x, y) of xs and ys (0 < x <= SERIES_X_MAX),
    through the power-series kernel on one t-grid.

    The terms share every t-node and one untwisted (t, k) x (k, x) series
    product per block of _BLOCK_NODES t-nodes and _BLOCK_TERMS terms, which
    each term weighs by cos(2t log y). The panels follow the phase of the
    largest twist and of the smallest x's kernel, and double until no term
    moves by more than tol. value and err_estimate are real arrays in the
    order of xs, err_estimate plus _ROUNDING sum_t f |B| on the last grid;
    converged covers them all. evaluations counts kernel-table entries,
    t-nodes times terms.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs must be a non-empty 1-d array")
    if not (np.all(xs > 0) and np.all(xs <= SERIES_X_MAX)):
        raise ValueError(f"the series route needs 0 < x <= {SERIES_X_MAX}")
    if not np.all(np.asarray(ys) > 0):
        raise ValueError("y must be positive")
    # one weight column f cos(2t log y) per distinct twist; each term takes its own
    log_y, twist = np.unique(np.log(ys), return_inverse=True)
    twist = np.broadcast_to(twist, xs.shape)
    # B(t, x) turns at rate 2 asinh(2t/x) in t, fastest at the smallest x
    rate = 2.0 * np.max(np.abs(log_y)) + 2.0 * math.asinh(2.0 * sw.t_upper / np.min(xs))
    size = np.zeros(xs.size)

    def evaluate(level: int) -> tuple[np.ndarray, int]:
        nonlocal size
        t, f = _t_weights(sw, rate, level)
        total, size = np.zeros(xs.size), np.zeros(xs.size)
        for i in range(0, t.size, _BLOCK_NODES):
            block = slice(i, i + _BLOCK_NODES)
            weights = f[block, None] * np.cos(2.0 * np.multiply.outer(t[block], log_y))
            for j in range(0, xs.size, _BLOCK_TERMS):
                cols = slice(j, j + _BLOCK_TERMS)
                b = kernel_b_series_many(t[block], xs[cols])
                total[cols] += (weights.T @ b)[twist[cols], np.arange(b.shape[1])]
                size[cols] += f[block] @ np.abs(b, out=b)
                del b  # before the next block builds its own
        return total, t.size * xs.size

    res = doubled(evaluate, tol, _ROUNDS)
    res.err_estimate += _ROUNDING * size
    return res


def _kernel_on_leg(
    s: np.ndarray, ws: np.ndarray, fixed: float, horizontal: bool, t: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """k_1(r) dr at r = s + i fixed (a horizontal leg) or r = fixed + i s (a
    vertical one) for the leg's Gauss nodes s and weights ws, from the
    t-nodes and their weights f = w (4/pi^2) t h tanh; and |dr| sum_t f
    cosh(2t Im r) >= |dr| sum_t f |cos(2tr)|, the absolute sum of its terms.

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
    size = np.full(s.size, np.sum(w_even))
    for i in range(0, s.size, _BLOCK_NODES):
        block = slice(i, i + _BLOCK_NODES)
        phase = np.multiply.outer(2.0 * s[block], t)
        table = even(phase)
        out.real[block] = table @ w_even
        if not horizontal:
            size[block] = table @ f
        out.imag[block] = -(odd(phase, out=phase) @ w_odd)
    return out * (ws if horizontal else 1j * ws), size * ws


def _bessel_H_kernel(xs: np.ndarray, ys, sw: SpectralWeight, tol: float) -> QuadratureResult:
    """H(x, y) for every term (x, y) of xs and ys (x > 0) with the
    integrals swapped, through one contour and one untwisted k_1 table.

    k_1 is even, real on R and entire, so H = Re int_P k_1(v)
    (e^{ix cosh(v-L)} + e^{ix cosh(v+L)}) dv at L = log y along a path P
    that runs along the real axis to a*, up to a* + i theta, then right to
    R* + i theta. Off the axis |e^{ix cosh(v-+L)} cos(2tv)| <= exp(2t Im v -
    x sinh(Re v -+ L) sin(Im v)), and rising at a* = a + max|L|, a past
    every stationary point (x sinh(a) sin(theta) = 2 t_upper theta), keeps
    that below 1 for every t and twist. Rising at 0 instead gives legs about
    e^{2T theta} times larger than H, which cancel: ~7e3 each against H ~
    5e-12 at T=50, M=8, x=10, y=1. theta = min(pi/2, 4/T) caps cosh(2t
    theta) at e^60, as t_upper <= 7.5 T. R* = R + max|L|, with R 45 e-folds
    of decay beyond a. a and R are those of the smallest x, so they lie
    beyond the stationary points and the cut of every larger x. Gauss panels
    on every leg and on [0, t_upper] follow the phase of the largest x; off
    the axis the nearer shift sets it, as the farther one decays faster than
    it turns there.

    The phase tables are built per block of _BLOCK_NODES nodes and
    _BLOCK_TERMS terms, so memory does not grow with the number of terms.
    All panel counts double together until no H changes by more than tol
    (quadrature.doubled). err_estimate adds _ROUNDING sum f cosh(2t Im v)
    |e^{ix cosh(v-+L)}| |dv| on the last grid. evaluations counts k_1-table
    entries, r-nodes times t-nodes.
    """
    log_y = np.log(ys)
    shift = float(np.max(np.abs(log_y)))
    cosh_l, sinh_l = xs * np.cosh(log_y), xs * np.sinh(log_y)
    theta = min(math.pi / 2, 4.0 / sw.T)
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    decay = x_lo * math.sin(theta)
    sinh_a = 2.0 * sw.t_upper * theta / decay
    a = math.asinh(sinh_a)
    R = math.asinh(sinh_a + _TAIL_EXP / decay)
    cosh_a, a_s, R_s = math.cosh(a), a + shift, R + shift  # a_s, R_s: a*, R*
    # (start, end, fixed coordinate, horizontal) of each leg, and its first panel count
    legs = ((0.0, a_s, 0.0, True), (0.0, theta, a_s, False), (a_s, R_s, theta, True))
    counts = (
        _panel_count(x_hi * (math.cosh(a_s + shift) - 1.0) + 2.0 * sw.T * a_s),
        _panel_count(x_hi * cosh_a * (1.0 - math.cos(theta)) + 2.0 * sw.T * theta),
        _panel_count(x_hi * (math.cosh(R) - cosh_a) * math.cos(theta) + 2.0 * sw.T * (R - a)),
    )
    t_rate = 2.0 * math.hypot(R_s, theta)
    size = np.zeros(xs.size)

    def evaluate(level: int) -> tuple[np.ndarray, int]:
        nonlocal size
        t, f = _t_weights(sw, t_rate, level)
        total, size = np.zeros(xs.size), np.zeros(xs.size)
        nodes = 0
        for (lo, hi, fixed, horizontal), n in zip(legs, counts):
            s, ws = gauss_grid(lo, hi, n << level)
            r = s + 1j * fixed if horizontal else fixed + 1j * s
            k, k_abs = _kernel_on_leg(s, ws, fixed, horizontal, t, f)
            for i in range(0, s.size, _BLOCK_NODES):
                block = slice(i, i + _BLOCK_NODES)
                cosh_r, sinh_r = np.cosh(r[block]), np.sinh(r[block])
                for j in range(0, xs.size, _BLOCK_TERMS):
                    cols = slice(j, j + _BLOCK_TERMS)
                    # x cosh(v -+ L) = x cosh L cosh v -+ x sinh L sinh v
                    even = np.multiply.outer(cosh_l[cols], cosh_r)
                    odd = np.multiply.outer(sinh_l[cols], sinh_r)
                    for sign in (-1.0, 1.0):
                        e = np.exp(1j * (even + sign * odd))
                        total[cols] += (e @ k[block]).real
                        size[cols] += np.abs(e) @ k_abs[block]
            nodes += s.size
        return total, nodes * t.size

    res = doubled(evaluate, tol, _ROUNDS)
    res.err_estimate += _ROUNDING * size
    return res


def bessel_H_many(xs, ys, sw: SpectralWeight, tol: float = 1e-8) -> tuple[QuadratureResult, int]:
    """H(x, y) for every term (x, y) of xs and ys (x > 0, y > 0; a scalar y
    serves every x), and how many terms took the series route.

    x <= SERIES_X_MAX go through one bessel_H_series_many call, which is
    exact for small x too, x < 1 included; larger x through one
    _bessel_H_kernel call per octave, with the t- and r-integrals swapped.
    Both cut the t-range where the Gaussian is below 4e-19, and both double
    their grids until no term moves by more than tol. value and err_estimate
    are real arrays in the order of xs (empty for an empty xs); converged
    covers them all and evaluations adds up every call's kernel-table
    entries.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or not np.all(xs > 0):
        raise ValueError("xs must be a 1-d array of positive x")
    ys = np.broadcast_to(np.asarray(ys, dtype=float), xs.shape)
    if not np.all(ys > 0):
        raise ValueError("y must be positive")
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
            res = route(xs[mask], ys[mask], sw, tol)
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
    one-term case of bessel_H_many."""
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
    s, weights = gauss_grid(0.0, hi, 2 * math.ceil(hi / sw.M))
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
    """Max |H(x, y)| over (x, y) with x(y + 1/y) = u, for each u in the grid:
    one bessel_H_many call per u over every y, whose converged the row keeps.
    """
    ys = np.asarray(y_samples, dtype=float)
    rows = []
    for u in u_grid:
        if u < 0:
            raise ValueError("u must be non-negative")
        xs = u / (ys + 1.0 / ys)
        res, _ = bessel_H_many(xs[xs > 0], ys[xs > 0], sw, tol)
        h = np.zeros(ys.size)
        h[xs > 0] = np.abs(res.value)
        j = int(np.argmax(h))
        y_max = float(ys[j]) if h[j] > 0 else None
        rows.append(
            {"u": float(u), "max_abs_H": float(h[j]), "argmax_y": y_max, "converged": res.converged}
        )
    return rows
