"""The cosine kernel B(t, x) = int_R cos(x cosh r) cos(2tr) dr.

A truncated real-axis evaluation is hopeless in double precision: pushing
the tail below 1e-10 needs a cutoff R with x*cosh(R) ~ 1e12 oscillations.
Instead the two exponentials exp(i(x cosh r +- 2tr)) are integrated along
rotated contours. The +2tr piece rotates at the origin onto [0, i pi/2]
plus a horizontal ray where the integrand decays like exp(-x sinh u). The
-2tr piece keeps a real-axis head [0, b] past its stationary point
(sinh b chosen with x sinh b >= pi t + max(x, 5)) and rotates the tail the
same way; every leg then has a bounded, non-cancelling integrand.

All values are double precision with explicit error accumulation. The
power-series route (valid for small x, vectorised over both t and x) is
the kernel of H(x, y) for x <= 5, summed on besselintegral's doubling
t-grid, and an independent check of the contour.
H at larger x no longer goes through B (besselintegral swaps the t- and
r-integrals there), so kernel_b_block, checked against frozen
high-precision values, is the independent check of B and of that route.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import gauss_legendre_panels
from .specfun import log_gamma

_TAIL_EXP = 45.0  # exp(-45) ~ 3e-20, below every tolerance used here
_MAX_ROUNDS = 6  # panel doublings kernel_b_block tries before giving up


def kernel_b_series_many(t: np.ndarray, x, nmax: int = 48) -> np.ndarray:
    """Power-series route, vectorized over t and x: -pi Im J_{2it}(x) / sinh(pi t).

    x is one positive number (the result has the shape of t) or a 1-d
    array of them (the result has shape t.shape + (x.size,)). Stable for
    x <= ~8 (the alternating series never grows before it decays) and for
    any t in (0, 220]; everything is carried at unit scale through
    exp(-pi t) factors. With nu = 2it the k-th term is

        (x/2)^nu exp(-log Gamma(1 + nu) - pi t) * c_k(t) * (-x^2/4)^k,
        c_0 = 1,  c_k = c_{k-1} / (k (nu + k)),

    so log Gamma is taken once per t, whatever the number of x, and the
    k-sum is one (t, k) x (k, x) matrix product. Independent of the
    contour path.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    t = np.abs(np.asarray(t, dtype=float))
    if np.any(t < 1e-9):
        raise ValueError("series route needs t >= 1e-9; use a Y_0 series at t = 0")
    shape = t.shape
    t = t.ravel()
    nu = 2j * t
    coef = np.empty((t.size, nmax), dtype=complex)
    coef[:, 0] = np.exp(-log_gamma(nu + 1.0) - math.pi * t)
    for k in range(1, nmax):
        coef[:, k] = coef[:, k - 1] / (k * (nu + k))
    half_x = xs.ravel() / 2.0
    powers = (-(half_x**2))[None, :] ** np.arange(nmax)[:, None]
    log_half_x = np.log(half_x)
    # Im((x/2)^nu (re + i im)) = cos(theta) im + sin(theta) re, theta = 2t log(x/2),
    # nmax rows at a time, so that beside the result no table outgrows powers
    out = coef.imag @ powers
    for i in range(0, t.size, nmax):
        rows = slice(i, i + nmax)
        theta = np.multiply.outer(2.0 * t[rows], log_half_x)
        out[rows] *= np.cos(theta)
        out[rows] += np.sin(theta, out=theta) * (coef.real[rows] @ powers)
    scale = -np.expm1(-2.0 * math.pi * t) / 2.0  # sinh(pi t) * exp(-pi t)
    out *= (-math.pi / scale)[:, None]
    return out.reshape(shape + xs.shape)


# ---------------------------------------------------------------------------
# Contour evaluation over many t at one x: the five contour legs share their
# panel sets, so each leg is one (t, node) matrix exponential per level.


def _refine(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


def _graded_edges(a: float, b: float, phase_var: float, envelope_rate: float) -> np.ndarray:
    """Panel edges on [a, b]: uniform in phase plus geometric near a for a
    decaying envelope exp(-envelope_rate * (x - a))."""
    m = max(4, min(512, int(phase_var / 8.0) + 4))
    edges = np.linspace(a, b, m + 1)
    if envelope_rate * (b - a) > 8.0:
        geo = a + (b - a) * 0.5 ** np.arange(1, 14)
        geo = geo[envelope_rate * (geo - a) > 2.0]
        edges = np.unique(np.concatenate([edges, geo]))
    return edges


def _block_eval(t: np.ndarray, x: float, edge_sets: list) -> np.ndarray:
    """One refinement level: total of all five legs for every t."""
    tm = t[:, None]
    total = np.zeros(t.size, dtype=complex)
    for kind, edges, aux in edge_sets:
        nodes, weights = gauss_legendre_panels(edges[:-1], edges[1:], 12)
        nd = nodes[None, :]
        if kind == "A":
            base = (weights * np.exp(1j * x * np.cos(nodes)))[None, :]
            mat = np.exp(-2.0 * tm * nd)
            total += 1j * np.sum(base * mat, axis=1)
        elif kind == "B":
            base = (weights * np.exp(-x * np.sinh(nodes)))[None, :]
            mat = np.exp((-math.pi + 2j * nd) * tm)
            total += np.sum(base * mat, axis=1)
        elif kind == "C":
            base = (weights * np.exp(1j * x * np.cosh(nodes)))[None, :]
            mat = np.exp(-2j * tm * nd)
            total += np.sum(base * mat, axis=1)
        elif kind == "D":
            b_pt, xsb, xcb = aux
            expo = (
                1j * (xcb * np.cos(nd) - 2.0 * tm * b_pt)
                - xsb * np.sin(nd)
                + 2.0 * tm * nd
            )
            total += 1j * np.sum(weights[None, :] * np.exp(expo), axis=1)
        elif kind == "E":
            expo = (math.pi * tm - x * np.sinh(nd)) - 2j * tm * nd
            total += np.sum(weights[None, :] * np.exp(expo), axis=1)
    return total


def kernel_b_block(
    t: np.ndarray, x: float, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, bool]:
    """B(t, x) for an array of t at one x > 0 (B is even in t).

    Returns (values, per-t error estimates from global panel doubling,
    converged). converged is False when _MAX_ROUNDS doublings ended with
    the largest change still above tol. The contour legs are built for
    max(t) and shared across the block.
    """
    t = np.abs(np.asarray(t, dtype=float))
    if x <= 0:
        raise ValueError("x must be positive")
    t_max = float(np.max(t)) if t.size else 0.0
    if t_max > 150.0:
        raise ValueError("t too large for the block contour path")

    theta_a = math.pi / 2 if t_max * math.pi < 1 else min(
        math.pi / 2, _TAIL_EXP / (2.0 * max(np.min(t), 1e-9))
    )
    xsb = math.pi * t_max + max(x, 5.0)
    b_pt = math.asinh(xsb / x)
    xcb = math.hypot(x, xsb)
    u_e = math.asinh((math.pi * t_max + _TAIL_EXP) / x)

    edge_sets = [
        ("A", _graded_edges(0.0, theta_a, x, 2.0 * max(float(np.median(t)), 1.0)), None),
        ("C", _graded_edges(0.0, b_pt, x * (math.cosh(b_pt) - 1.0) + 2.0 * t_max * b_pt, 0.0), None),
        ("D", _graded_edges(0.0, math.pi / 2, min(xcb, 4.0 * _TAIL_EXP), 0.0), (b_pt, xsb, xcb)),
    ]
    if math.pi * float(np.min(t)) <= _TAIL_EXP + 1:
        edge_sets.append(
            ("B", _graded_edges(0.0, math.asinh(_TAIL_EXP / x), 2.0 * t_max, x), None)
        )
    if u_e > b_pt:
        edge_sets.append(("E", _graded_edges(b_pt, u_e, 2.0 * t_max * (u_e - b_pt), x), None))

    vals = _block_eval(t, x, edge_sets)
    converged = False
    for _ in range(_MAX_ROUNDS):
        edge_sets = [(k, _refine(e), aux) for (k, e, aux) in edge_sets]
        new_vals = _block_eval(t, x, edge_sets)
        err = np.abs(new_vals - vals)
        vals = new_vals
        if float(np.max(err)) <= tol:
            converged = True
            break
    err = err + (math.pi / 2 - theta_a) * np.exp(-2.0 * t * theta_a) + 2.0 * math.exp(-_TAIL_EXP)
    return np.real(vals), err, converged
