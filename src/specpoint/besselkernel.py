"""The cosine kernel B(t, x) = int_R cos(x cosh r) cos(2tr) dr.

A truncated real-axis evaluation is hopeless in double precision: pushing
the tail below 1e-10 needs a cutoff R with x*cosh(R) ~ 1e12 oscillations.
Instead kernel_b_block integrates the two exponentials exp(i(x cosh r +-
2tr)) along rotated contours. The +2tr piece rotates at the origin onto
[0, i pi/2] plus a horizontal ray where the integrand decays like exp(-x
sinh u). The -2tr piece keeps a real-axis head [0, b] past its stationary
point (sinh b chosen with x sinh b >= pi t + max(x, 5)) and rotates the
tail the same way; every leg then has a bounded, non-cancelling
integrand. The legs are quadrature's Gauss grids under its one doubling
loop and first-panel rule, like every other refined integral. H at x > 5
does not go through B (besselintegral swaps the t- and r-integrals
there), so kernel_b_block, checked against frozen high-precision values,
is the independent check of B and of that route.

The power-series route (valid for small x, vectorised over both t and x)
is the kernel of H(x, y) for x <= 5, summed on besselintegral's doubling
t-grid, and an independent check of the contour. On whole Gauss panels of
t its phase table takes one exponential per panel and x, not per node. It
stops at its last live k-term: K is the smallest number of terms with
(x/2)^{2K}/(K!)^2 <= 2^-64 at the largest x of a call (series_cut; 20 at
x = 5, 11 at x = 1), and what it leaves out is bounded through |c_k| <=
1/(k!)^2 (series_envelope).
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _PANEL_ORDER, _ROUNDING, _panel_count, doubled, gauss_grid, grid_panels
from .specfun import log_gamma

_TAIL_EXP = 45.0  # exp(-45) ~ 3e-20, below every tolerance used here
_MAX_ROUNDS = 6  # panel doublings kernel_b_block tries before giving up
_SERIES_CUT = 2.0**-64  # the first omitted k-term, relative to the k = 0 term


def series_cut(x: float) -> tuple[int, float]:
    """(K, tail) for the series at every x' <= x: K is the smallest number
    of k-terms with (x/2)^{2K}/(K!)^2 <= _SERIES_CUT (20 at x = 5, 11 at
    x = 1), and tail >= sum_{k >= K} (x/2)^{2k}/(k!)^2, the terms left out.

    As |(1 + 2it)_k| >= k!, kernel_b_series_many's coefficients obey
    |c_k| <= 1/(k!)^2, so the K-term B(t, x') is off by at most tail times
    series_envelope(t). The terms left out fall by a factor (x/2)^2/(K+1)^2
    < 1 or more each: a term below 1 lies past the largest, at k > x/2.
    """
    q, K, term = x * x / 4.0, 0, 1.0
    while term > _SERIES_CUT:
        K += 1
        term *= q / (K * K)
    return K, term / (1.0 - q / (K + 1) ** 2)


def series_envelope(t: np.ndarray) -> np.ndarray:
    """pi |p(t)| / (sinh(pi t) e^{-pi t}) for t > 0, with p(t) = exp(-log
    Gamma(1 + 2it) - pi t) the prefactor of kernel_b_series_many's terms:
    the factor that turns a bound on sum_k |c_k| (x/2)^{2k} into one on
    |B(t, x)|. |Gamma(1 + 2it)|^2 = 2 pi t / sinh(2 pi t) gives |p|^2 =
    (1 - e^{-4 pi t})/(4 pi t)."""
    t = np.asarray(t, dtype=float)
    prefactor = np.sqrt(-np.expm1(-4.0 * math.pi * t) / (4.0 * math.pi * t))
    return 2.0 * math.pi * prefactor / -np.expm1(-2.0 * math.pi * t)


def kernel_b_series_many(t: np.ndarray, x, nmax: int | None = None) -> np.ndarray:
    """Power-series route, vectorized over t and x: -pi Im J_{2it}(x) / sinh(pi t).

    x is one positive number (the result has the shape of t) or a 1-d
    array of them (the result has shape t.shape + (x.size,)). Stable for
    x <= ~8 (the alternating series never grows before it decays) and for
    any t in (0, 220]; everything is carried at unit scale through
    exp(-pi t) factors. With nu = 2it the k-th term is

        (x/2)^nu exp(-log Gamma(1 + nu) - pi t) * c_k(t) * (-x^2/4)^k,
        c_0 = 1,  c_k = c_{k-1} / (k (nu + k)),

    taken for k < nmax; by default nmax is series_cut's K at the largest x,
    which leaves out at most series_cut's tail times series_envelope(t).
    log Gamma is taken once per t, whatever the number of x, and the k-sum
    is one (t, k) x (k, x) matrix product. (x/2)^nu is factored over t's
    Gauss panels when t is whole panels of a grid (quadrature.grid_panels),
    and over single nodes otherwise. Independent of the contour path.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    t = np.abs(np.asarray(t, dtype=float))
    if np.any(t < 1e-9):
        raise ValueError("series route needs t >= 1e-9; use a Y_0 series at t = 0")
    if nmax is None:
        nmax = series_cut(float(np.max(xs)))[0]
    shape = t.shape
    t = t.ravel()
    nu = 2j * t
    coef = np.empty((t.size, nmax), dtype=complex)
    coef[:, 0] = np.exp(-log_gamma(nu + 1.0) - math.pi * t)
    for k in range(1, nmax):
        coef[:, k] = coef[:, k - 1] / (k * (nu + k))
    half_x = xs.ravel() / 2.0
    # (x^2/4)^k with the sign (-1)^k apart: numpy's ** is ~25x slower on a negative base
    powers = (half_x**2)[None, :] ** np.arange(nmax)[:, None]
    powers[1::2] *= -1.0
    # Im((x/2)^nu (re + i im)) = cos(theta) im + sin(theta) re at theta = 2t log(x/2).
    # With t = left + half u + offset on grid panels (quadrature.grid_panels),
    # exp(i theta) of a panel's rows is a (panel, x) table times a (u, x)
    # table, times 1 + i 2 offset log(x/2); one panel's rows (_PANEL_ORDER,
    # also for any other t) at a time, which keeps the tables small beside the result
    lefts, half, u, offsets = grid_panels(t)
    two_log = 2.0 * np.log(half_x)
    # out before the phase tables: built after them, the heap peaked ~0.6 MB higher
    out = coef.imag @ powers
    wide = np.exp(1j * np.multiply.outer(lefts, two_log))[:, None]
    narrow = np.exp(1j * np.multiply.outer(half * u, two_log))
    step = _PANEL_ORDER // u.size  # u.size is _PANEL_ORDER, or 1 off a grid
    for p in range(0, lefts.size, step):
        panels, rows = slice(p, p + step), slice(p * u.size, (p + step) * u.size)
        phase = (wide[panels] * narrow).reshape(-1, half_x.size)
        phase *= 1.0 + 1j * np.multiply.outer(offsets[panels].ravel(), two_log)
        out[rows] *= phase.real
        out[rows] += phase.imag * (coef.real[rows] @ powers)
    scale = -np.expm1(-2.0 * math.pi * t) / 2.0  # sinh(pi t) * exp(-pi t)
    out *= (-math.pi / scale)[:, None]
    return out.reshape(shape + xs.shape)


def kernel_b_block(
    t: np.ndarray, x: float, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, bool]:
    """B(t, x) for an array of t at one x > 0 (B is even in t).

    Returns (values, per-t error estimates, converged). The contour legs
    are built for the block's smallest and largest t and shared by every t,
    one (t, node) table per leg and level. All panel counts double until no
    value moves by more than tol (quadrature.doubled); converged is False
    when _MAX_ROUNDS doublings run out. The error estimate adds _ROUNDING
    times the legs' absolute terms on the last grid and the cut tails,
    (pi/2 - theta_a) e^{-2t theta_a} past theta_a and 2 e^{-_TAIL_EXP}.
    """
    t = np.abs(np.asarray(t, dtype=float))
    if x <= 0:
        raise ValueError("x must be positive")
    t_min, t_max = float(np.min(t)), float(np.max(t))
    if t_max > 150.0:
        raise ValueError("t too large for the block contour path")

    theta_a = min(math.pi / 2, _TAIL_EXP / (2.0 * max(t_min, 1e-9)))
    xsb = math.pi * t_max + max(x, 5.0)
    b_pt = math.asinh(xsb / x)
    xcb = math.hypot(x, xsb)
    u_e = math.asinh((math.pi * t_max + _TAIL_EXP) / x)
    u_b = math.asinh(_TAIL_EXP / x)
    tc = t[:, None]

    # (start, end, first panel count, terms on a (t, node) table) of each leg;
    # a count takes the leg's radians of phase plus its e-folds of decay
    legs = [
        # exp(+2itr) rotated at 0 onto r = i theta, theta in [0, theta_a]
        (0.0, theta_a, _panel_count(x * (1.0 - math.cos(theta_a)) + 2.0 * t_max * theta_a),
         lambda s: 1j * np.exp(1j * x * np.cos(s) - 2.0 * tc * s)),
        # exp(-2itr) on the real head [0, b] ...
        (0.0, b_pt, _panel_count(x * (math.cosh(b_pt) - 1.0) + 2.0 * t_max * b_pt),
         lambda s: np.exp(1j * (x * np.cosh(s) - 2.0 * tc * s))),
        # ... then up from b to b + i pi/2
        (0.0, math.pi / 2, _panel_count(xcb + xsb),
         lambda s: 1j * np.exp(1j * xcb * np.cos(s) - xsb * np.sin(s) + 2.0 * tc * (s - 1j * b_pt))),
    ]
    if math.pi * t_min <= _TAIL_EXP + 1:
        # exp(+2itr)'s ray u + i pi/2, cut where x sinh u = _TAIL_EXP
        legs.append((0.0, u_b, _panel_count(2.0 * t_max * u_b + _TAIL_EXP),
                     lambda s: np.exp(-x * np.sinh(s) + (2j * s - math.pi) * tc)))
    if u_e > b_pt:
        # exp(-2itr)'s ray u + i pi/2 from b, cut where x sinh u = pi t_max + _TAIL_EXP
        legs.append((b_pt, u_e, _panel_count(2.0 * t_max * (u_e - b_pt) + _TAIL_EXP - max(x, 5.0)),
                     lambda s: np.exp(math.pi * tc - x * np.sinh(s) - 2j * tc * s)))

    def evaluate(level: int) -> tuple[np.ndarray, np.ndarray, int]:
        total, size, nodes = np.zeros(t.size, dtype=complex), np.zeros(t.size), 0
        for lo, hi, n, terms in legs:
            s, w = gauss_grid(lo, hi, n << level)
            table = terms(s)
            total += table @ w
            size += np.abs(table) @ w
            nodes += s.size
        return total, _ROUNDING * size, t.size * nodes

    res = doubled(evaluate, tol, _MAX_ROUNDS)
    tails = (math.pi / 2 - theta_a) * np.exp(-2.0 * t * theta_a) + 2.0 * math.exp(-_TAIL_EXP)
    return res.value.real, res.err_estimate + tails, res.converged
