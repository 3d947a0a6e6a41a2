"""Gaussian-weighted Bessel integrals on the spectral side.

The weight pair h(t) = exp(-((t-T)/M)^2) + exp(-((t+T)/M)^2) and its
twisted form h(t; y) = h(t) cos(2t log y) define

    H(x, y) = (4/pi^2) int_0^inf t h(t; y) tanh(pi t) B(t, x) dt,

evaluated exactly by bessel_H_many for terms (x, y) of any twists over
the window's support [t_lower, t_upper] = [max(0, T - 6.5M), T + 6.5M],
past whose ends h < 4e-19, on the t-grids of _t_weights; H0 = k_1(0)/2 is
half the sum of their weights. Each route builds one untwisted table that
every twist shares: for x <= SERIES_X_MAX the power series of the cosine
kernel B, for larger x the kernel k_1 on one rotated contour per octave of
x, as k_y(r) = (k_1(r+L) + k_1(r-L))/2 at L = log y; both factor their
phases in t over the t-grid's Gauss panels (quadrature.grid_panels), and
both refine by 3/2 until no term moves by more than tol (quadrature.refined),
adding _ROUNDING times the terms' absolute sum to each bar. The kernel route,
also exact at small x, was 4-25 times slower there at T = 3-20.
residue_expansion bounds E_K in H = sum_{k<K} r_k(y) J_{2k+1}(x) + E_K for
an array of twists, from one table per window; asymptotic in small x, it
turns c-tails into Petersson sums.

The reduced oscillatory integral I(v, w) over |r| <= 6.1/M with the
explicit weight g(r) is the paper's stationary-phase asymptotic for H at
x >> 1: H(x, y) ~ Re e^{2i(v+w)} I(v, w) at v = xy/4, w = x/(4y). No sum
evaluates H through it. TestDualRoute in tests/test_besselintegral.py
checks the exact routes against it, at resonant points and where both
are below 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .besselkernel import _TAIL_EXP, kernel_b_series_many, series_cut, series_envelope
from .quadrature import (
    _ROUNDING,
    QuadratureResult,
    _panel_count,
    adaptive_quadrature,
    gauss_grid,
    grid_panels,
    refined,
    refined_panels,
)
from .specfun import log_gamma

TWO_OVER_PI_SQRT_PI = 2.0 / (math.pi * math.sqrt(math.pi))
R_CUT_FACTOR = 6.1  # exp(-6.1^2) ~ 7e-17: the Gaussian r-truncation
T_CUT_FACTOR = 6.5  # exp(-6.5^2) ~ 4e-19: the Gaussian t-truncation
SERIES_X_MAX = 5.0  # largest x whose H integrand uses the power-series kernel
_H_PREF = 4.0 / math.pi**2
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
        if not 0 < self.T < math.inf:
            raise ValueError("T must be positive and finite")
        if not 1.0 <= self.M <= self.T:
            raise ValueError("M must lie in [1, T]")

    @property
    def t_lower(self) -> float:
        return max(0.0, self.T - T_CUT_FACTOR * self.M)

    @property
    def t_upper(self) -> float:
        return self.T + T_CUT_FACTOR * self.M


def weight_h(t, sw: SpectralWeight):
    """h(t): even Gaussian pair around +-T, at real or complex t."""
    t = np.asarray(t, dtype=complex if np.iscomplexobj(t) else float)
    out = np.exp(-(((t - sw.T) / sw.M) ** 2)) + np.exp(-(((t + sw.T) / sw.M) ** 2))
    return out.item() if out.ndim == 0 else out


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
    return np.expm1(r), -np.expm1(-r)


def _t_panels(sw: SpectralWeight, rate: float) -> int:
    """The first t-grid's panel count for rate radians of phase per unit t
    on [t_lower, t_upper]: _panel_count's, and at least one panel per M."""
    width = sw.t_upper - sw.t_lower
    return max(_panel_count(rate * width), math.ceil(width / sw.M))


@lru_cache(maxsize=16)
def _t_weights(sw: SpectralWeight, panels: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The t-nodes on [t_lower, t_upper] (never t = 0) and their weights
    f = w (4/pi^2) t h(t) tanh(pi t) > 0, read-only, shared by every call of
    a window and panel count: Gauss panels from the first count panels
    (_t_panels), refined level times; 2 x 119,024 float64 (1.9 MB) at T = 50, M = 8, level 11."""
    t, wt = gauss_grid(sw.t_lower, sw.t_upper, refined_panels(panels, level))
    f = wt * _H_PREF * t * weight_h(t, sw) * np.tanh(math.pi * t)
    t.flags.writeable = f.flags.writeable = False
    return t, f


def diagonal_H0(sw: SpectralWeight, tol: float = 1e-10) -> QuadratureResult:
    """H0 = (2/pi^2) int_0^inf t h(t) tanh(pi t) dt = k_1(0)/2 = sum_t f/2 on
    _t_weights' grids from one panel per M, refined (quadrature.refined); its
    bar is _ROUNDING sum_t f/2, as every H-route sum's is."""

    def evaluate(level: int) -> tuple[float, float, int]:
        f = _t_weights(sw, _t_panels(sw, 0.0), level)[1]
        half = 0.5 * float(np.sum(f))
        return half, _ROUNDING * half, f.size

    return refined(evaluate, tol)


def bessel_H_series_many(xs, ys, sw: SpectralWeight, tol: float = 1e-8) -> QuadratureResult:
    """H(x, y) for every term (x, y) of xs and ys (0 < x <= SERIES_X_MAX),
    through the power-series kernel on one t-grid.

    The terms share every t-node and one untwisted (t, k) x (k, x) series
    product per block of _BLOCK_NODES t-nodes (whole panels, whose phase
    table kernel_b_series_many factors) and _BLOCK_TERMS terms, which each
    term weighs by cos(2t log y). The panels follow the phase of the
    largest twist and of the smallest x's kernel, and are refined until no
    term moves by more than tol, for as many rounds as every refined loop
    gets (quadrature.refined). Each block of terms sums the series' k-terms
    that its largest x needs (besselkernel.series_cut). value and
    err_estimate are real arrays in the order of xs, err_estimate plus
    _ROUNDING sum_t f |B| and the k-terms' cut, series_cut's tail times
    sum_t f series_envelope(t), on the last grid; converged covers them
    all. evaluations counts kernel-table entries, t-nodes times terms.
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
    t_panels = _t_panels(sw, rate)
    # each block of terms takes the series' k-terms its largest x needs (series_cut)
    blocks = [slice(j, j + _BLOCK_TERMS) for j in range(0, xs.size, _BLOCK_TERMS)]
    cuts = [series_cut(float(np.max(xs[cols]))) for cols in blocks]

    def evaluate(level: int) -> tuple[np.ndarray, np.ndarray, int]:
        t, f = _t_weights(sw, t_panels, level)
        total, size, cut = np.zeros(xs.size), np.zeros(xs.size), np.zeros(xs.size)
        for i in range(0, t.size, _BLOCK_NODES):
            block = slice(i, i + _BLOCK_NODES)
            weights = f[block, None] * np.cos(2.0 * np.multiply.outer(t[block], log_y))
            for cols, (K, _) in zip(blocks, cuts):
                b = kernel_b_series_many(t[block], xs[cols], K)
                total[cols] += (weights.T @ b)[twist[cols], np.arange(b.shape[1])]
                size[cols] += f[block] @ np.abs(b, out=b)
                del b  # before the next block builds its own
        # what the k-terms left out can add: each block's tail times sum_t f envelope
        envelope = f @ series_envelope(t)
        for cols, (_, tail) in zip(blocks, cuts):
            cut[cols] = tail * envelope
        return total, _ROUNDING * size + cut, t.size * xs.size

    return refined(evaluate, tol)


def _split(v: np.ndarray) -> np.ndarray:
    """The upper 26 bits of v (Veltkamp), so that v_hi w_hi is exact."""
    c = 134217729.0 * v  # 2^27 + 1
    return c - (c - v)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outer product a b and its rounding error (Dekker's two-product):
    hi + lo = a[i] b[j] exactly."""
    hi = np.multiply.outer(a, b)
    a_hi, b_hi = _split(a), _split(b)
    a_lo, b_lo = a - a_hi, b - b_hi
    lo = np.multiply.outer(a_hi, b_hi) - hi
    lo += np.multiply.outer(a_hi, b_lo)
    lo += np.multiply.outer(a_lo, b_hi)
    lo += np.multiply.outer(a_lo, b_lo)
    return hi, lo


def _cos_sum(r: np.ndarray, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """k_1(r) = sum_t f(t) cos(2tr) at complex r, for t-nodes on grid panels.

    With t = left + half u + offset (quadrature.grid_panels), cos(2tr) is,
    to first order in the offset (a few ulps), the mean of exp(+-2i left r)
    exp(+-2i half u r) (1 +- 2i offset r), so
    k_1 = 1/2 sum_p (A+ G+ + A- G-) for the (r, panel) tables A+- =
    exp(+-2i left r) and G+- = E+- @ F, E+- = exp(+-2i half u r) an (r, u)
    table and F the (u, panel) table of f (and of f offset beside it): no
    (r, t) table is formed. The phase 2 left Re r is split exactly into two
    doubles. On the real axis the - sum is the conjugate of the + sum.
    Blocks of _BLOCK_NODES r-nodes bound the tables.
    """
    lefts, half, u, offsets = grid_panels(t)
    rows = f.reshape(lefts.size, u.size)
    weights = np.concatenate([rows, rows * offsets]).T.astype(complex)  # (u, 2 panels)
    panels = lefts.size
    out = np.empty(r.size, dtype=complex)
    for i in range(0, r.size, _BLOCK_NODES):
        block = r[i : i + _BLOCK_NODES]
        two_ir = 2j * block[:, None]
        narrow = np.exp(np.multiply.outer(two_ir[:, 0] * half, u))
        hi, lo = _two_product(block.real, 2.0 * lefts)
        wide = np.exp(1j * hi - np.multiply.outer(block.imag, 2.0 * lefts))
        wide *= 1.0 + 1j * lo
        plus = narrow @ weights
        plus = np.sum((plus[:, :panels] + two_ir * plus[:, panels:]) * wide, axis=1)
        minus = plus.conj()
        off = block.imag != 0
        if np.any(off):
            g = (1.0 / narrow[off]) @ weights
            g = (g[:, :panels] - two_ir[off] * g[:, panels:]) / wide[off]
            minus[off] = g.sum(axis=1)
        out[i : i + _BLOCK_NODES] = 0.5 * (plus + minus)
    return out


def _theta(sw: SpectralWeight) -> float:
    """The height theta = min(pi/2, 4/T) of _contour's path."""
    return min(math.pi / 2, 4.0 / sw.T)


@lru_cache(maxsize=16)
def _leg_bars(sw: SpectralWeight, t_panels: int, vertical: int, level: int) -> np.ndarray:
    """sum_t f cosh(2t sigma) = k_1(i sigma) over the t-grid _t_weights(sw,
    t_panels, level), read-only, at sigma = 0, at the nodes of the rising
    leg's vertical panels (refined level times) on [0, theta] and at theta:
    the Im r of _contour's three legs in turn. At Im r = sigma, |dr| times
    it bounds the absolute sum of _cos_sum's terms, |dr| sum_t f |cos(2tr)|.
    None of it depends on x or on the twists, so every call of a window,
    t-grid and vertical panel count shares one array."""
    t, f = _t_weights(sw, t_panels, level)
    theta = _theta(sw)
    rise = gauss_grid(0.0, theta, refined_panels(vertical, level))[0]
    bars = _cos_sum(1j * np.concatenate([[0.0], rise, [theta]]), t, f).real
    bars.flags.writeable = False
    return bars


def _contour(xs: np.ndarray, log_y: np.ndarray, sw: SpectralWeight) -> tuple[tuple, tuple, int]:
    """The path of _bessel_H_kernel for terms (x, log y): its legs as
    (start, end, fixed coordinate, horizontal), their first panel counts,
    and the first t-grid's panel count.

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
    on every leg and on [t_lower, t_upper] follow the phase of the largest x; off
    the axis the nearer shift sets it, as the farther one decays faster than
    it turns there.
    """
    shift = float(np.max(np.abs(log_y)))
    theta = _theta(sw)
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
    return legs, counts, _t_panels(sw, 2.0 * math.hypot(R_s, theta))


def _contour_nodes(legs, counts, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes r and weights dr of every leg's Gauss panels, their first
    counts refined level times, leg after leg."""
    nodes = []
    for (lo, hi, fixed, horizontal), n in zip(legs, counts):
        s, ws = gauss_grid(lo, hi, refined_panels(n, level))
        nodes.append((s + 1j * fixed, ws) if horizontal else (fixed + 1j * s, 1j * ws))
    return np.concatenate([r for r, _ in nodes]), np.concatenate([dr for _, dr in nodes])


def _bessel_H_kernel(xs: np.ndarray, ys, sw: SpectralWeight, tol: float) -> QuadratureResult:
    """H(x, y) for every term (x, y) of xs and ys (x > 0) with the
    integrals swapped, through one contour (_contour) and one untwisted
    k_1 table.

    Per level, one _cos_sum call gives k_1 at every node of every leg, from
    panel-factored tables (no (r, t) table is formed), and _leg_bars the
    absolute sums of its terms; the term tables e^{ix cosh(v-+L)} are built
    per block of _BLOCK_NODES nodes and _BLOCK_TERMS terms, so memory does
    not grow with the number of terms. All panel counts are refined
    together until no H changes by more than tol, for as many rounds as
    every refined loop gets (quadrature.refined).
    err_estimate adds _ROUNDING sum f cosh(2t Im v) |e^{ix cosh(v-+L)}|
    |dv| on the last grid. evaluations counts k_1-table entries, r-nodes
    times t-nodes.
    """
    log_y = np.log(ys)
    cosh_l, sinh_l = xs * np.cosh(log_y), xs * np.sinh(log_y)
    legs, counts, t_panels = _contour(xs, log_y, sw)

    def evaluate(level: int) -> tuple[np.ndarray, np.ndarray, int]:
        t, f = _t_weights(sw, t_panels, level)
        r, dr = _contour_nodes(legs, counts, level)
        k = _cos_sum(r, t, f) * dr
        # Im r runs through 0, the rising leg's nodes and theta: one bar each
        new = np.concatenate([[True], r.imag[1:] != r.imag[:-1]])
        k_abs = _leg_bars(sw, t_panels, counts[1], level)[np.cumsum(new) - 1] * np.abs(dr)
        total, size = np.zeros(xs.size), np.zeros(xs.size)
        for i in range(0, r.size, _BLOCK_NODES):
            block = slice(i, i + _BLOCK_NODES)
            cosh_r, sinh_r = np.cosh(r[block]), np.sinh(r[block])
            for j in range(0, xs.size, _BLOCK_TERMS):
                cols = slice(j, j + _BLOCK_TERMS)
                # x cosh(v -+ L) = x cosh L cosh v -+ x sinh L sinh v
                even = np.multiply.outer(cosh_l[cols], cosh_r)
                odd = np.multiply.outer(sinh_l[cols], sinh_r)
                for sign in (-1.0, 1.0):
                    z = even + sign * odd
                    e = np.exp(1j * z)
                    total[cols] += (e @ k[block]).real
                    # |e^{iz}| = e^{-Im z}, a real exp in place of a complex abs
                    size[cols] += np.exp(-z.imag) @ k_abs[block]
        return total, _ROUNDING * size, r.size * t.size

    return refined(evaluate, tol)


def bessel_H_many(xs, ys, sw: SpectralWeight, tol: float = 1e-8) -> tuple[QuadratureResult, int]:
    """H(x, y) for every term (x, y) of xs and ys (x > 0, y > 0; a scalar y
    serves every x), and how many terms took the series route.

    x <= SERIES_X_MAX go through one bessel_H_series_many call, which is
    exact for small x too, x < 1 included; larger x through one
    _bessel_H_kernel call per octave, with the t- and r-integrals swapped.
    Both refine their grids on the window's support until no term moves by
    more than tol. value and err_estimate are real arrays in the order of
    xs (empty for an empty xs); converged covers them all and evaluations
    adds up every call's kernel-table entries.
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
    # the distinct octaves ascending; np.unique would import numpy.ma
    octaves = np.sort(octave[~series])
    octaves = octaves[np.diff(octaves, prepend=-np.inf) > 0]
    batches = [(bessel_H_series_many, series)] + [
        (_bessel_H_kernel, ~series & (octave == j)) for j in octaves
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


@lru_cache(maxsize=8)
def _residue_lines(sw: SpectralWeight) -> tuple[np.ndarray, ...]:
    """The window's part of residue_expansion, read-only: (4/pi) (-1)^k a h(-ia),
    2a, and the nodes s, weights and 1/(cosh(pi s) |Gamma(1 + 2K + 2is)|) of the
    lines t = s - iK. Keeping t h(t) too cost the closure ~0.06 MB of peak RSS."""
    a = np.arange(_K_MAX) + 0.5
    lead = 4.0 / math.pi * (-1.0) ** np.arange(_K_MAX) * a * weight_h(-1j * a, sw).real
    hi = sw.t_upper + 2.0 * sw.M
    s, weights = gauss_grid(0.0, hi, 2 * math.ceil(hi / sw.M))
    # log of cosh(pi s) |Gamma(1 + 2K + 2is)|, K = 1, ..., _K_MAX
    log_den = math.pi * s + np.log1p(np.exp(-2.0 * math.pi * s)) - math.log(2.0)
    log_den = log_den + log_gamma(1.0 + 2.0 * np.arange(1, _K_MAX + 1)[:, None] + 2j * s).real
    table = (lead, 2.0 * a, s, np.exp(-log_den), weights)
    for arr in table:
        arr.flags.writeable = False
    return table


def residue_expansion(ys, sw: SpectralWeight) -> tuple[np.ndarray, np.ndarray]:
    """(r, B), (twist, K) arrays for the 1-d twists ys: H(x, y) = sum_{k<K}
    r[k] J_{2k+1}(x) + E_K(x, y), |E_K| <= B[K-1] (x/2)^{2K} I_0(x).

    H = (2i/pi) int_R t h(t; y) J_{2it}(x) / cosh(pi t) dt. Moving the line
    to Im t = -K passes the poles t = -i(k + 1/2), with residues from
    weight_h at t = -ia, 2 exp((a^2 - T^2)/M^2) cos(2aT/M^2). On t = s - iK,
    |cosh(pi t)| = cosh(pi s) and |J_{2K+2is}(x)| <= (x/2)^{2K} I_0(x) /
    |Gamma(1 + 2K + 2is)|, as |(nu + 1)_j| >= j! for Re nu >= 0; B is the
    integral of absolute values there, even in s. Only t h(t) and the twists'
    cos(2t log y), in blocks, are not from _residue_lines.
    """
    lead, two_a, s, inv_den, weights = _residue_lines(sw)
    t = s - 1j * np.arange(1, _K_MAX + 1)[:, None]
    two_t, th = 2.0 * t, t * weight_h(t, sw)
    log_y = np.log(np.asarray(ys, dtype=float))[:, None, None]  # (twist, K, s)
    r = lead * np.cosh(two_a * log_y[:, :, 0])
    B = np.empty(r.shape)
    step = max(1, _BLOCK_NODES * _BLOCK_TERMS // th.size)
    for i in range(0, len(B), step):
        integrand = np.abs(th * np.cos(two_t * log_y[i : i + step])) * inv_den
        B[i : i + step] = 4.0 / math.pi * (integrand @ weights)
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
