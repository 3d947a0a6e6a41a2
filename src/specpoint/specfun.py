"""Special functions: complex log-gamma (Lanczos with reflection), Bessel
J_n of integer order (power series below the order, trapezoid rule from it
on, every order of a call from one pass), the Riemann zeta function by
Euler-Maclaurin summation with the fixed 12 Bernoulli terms B_2..B_24, and
the Eisenstein harmonic weight 1/|zeta(1 + 2it)|^2 built on it.
"""

from __future__ import annotations

import math

import numpy as np

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        3.3994649984811888699e-5,
        4.6523628927048575665e-5,
        -9.8374475304879564677e-5,
        1.5808870322491248884e-4,
        -2.1026444172410488319e-4,
        2.1743961811521264320e-4,
        -1.6431810653676389022e-4,
        8.4418223983852743293e-5,
        -2.6190838401581408670e-5,
        3.6899182659531622704e-6,
    ]
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _loggamma_right(z: np.ndarray) -> np.ndarray:
    # Lanczos approximation, valid for Re(z) >= 0.5
    s = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for k in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[k] / (z - 1.0 + k)
    base = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (z - 0.5) * np.log(base) - base + np.log(s)


def _log_sin_pi_upper(z: np.ndarray) -> np.ndarray:
    # continuous branch of log(sin(pi z)) for Im(z) >= 0
    return (
        -1j * math.pi * z
        + np.log1p(-np.exp(2j * math.pi * z))
        - math.log(2.0)
        + 0.5j * math.pi
    )


def log_gamma(z):
    """Principal branch of log Gamma(z); accepts scalars or arrays.

    Raises ValueError at the poles (non-positive integers).
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    on_pole = (z_arr.imag == 0) & (z_arr.real <= 0) & (z_arr.real == np.floor(z_arr.real))
    if np.any(on_pole):
        raise ValueError(f"log_gamma pole at z={z_arr[on_pole][0]}")

    flip = z_arr.imag < 0
    w = np.where(flip, np.conj(z_arr), z_arr)
    out = np.empty_like(w)
    right = w.real >= 0.5
    if np.any(right):
        out[right] = _loggamma_right(w[right])
    if np.any(~right):
        wl = w[~right]
        out[~right] = (
            math.log(math.pi) - _log_sin_pi_upper(wl) - _loggamma_right(1.0 - wl)
        )
    out = np.where(flip, np.conj(out), out)
    return complex(out[0]) if scalar else out


_J_SERIES_TERMS = 30  # j < 30: the series' first omitted term is < 1e-30 relative for x < n <= 9


def bessel_j(n, x) -> np.ndarray:
    """J_n(x) for x > 0 (any array shape) at an integer order n >= 0, or at
    every order of a 1-d array n from one pass (the result then has shape
    n.shape + x.shape).

    Where x < n, the power series J_n(x) = (x/2)^n sum_j (-x^2/4)^j / (j!
    (j + n)!) (DLMF 10.2.2), by Horner's rule in x^2/4 over _J_SERIES_TERMS
    terms, keeps relative accuracy however small J_n is. Where x >= n, the
    trapezoid rule on J_n(x) = (1/pi) int_0^pi cos(nu - x sin u) du: one table
    of cos(x sin u) and sin(x sin u) serves every order, and its nodes, of
    size 1, leave an absolute rounding of a few eps. P >= max(64, 2x + 32)
    nodes leave only the aliases J_{n+-jP}(x), below 1e-20 for n <= 9.
    """
    orders = np.asarray(n)
    if orders.ndim > 1 or not np.issubdtype(orders.dtype, np.integer) or np.any(orders < 0):
        raise ValueError("bessel_j needs one integer order n >= 0 or a 1-d array of them")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("bessel_j needs x > 0")
    ns = np.atleast_1d(orders)
    flat = x.ravel()
    out = np.empty((ns.size, flat.size))
    small = flat < np.max(ns)
    if np.any(small):
        xs = flat[small]
        q = -0.25 * xs * xs
        # 1/(j! (j + n)!) per (order, j): 1/n!, then one factor 1/(j (j + n)) per j
        j = np.arange(1, _J_SERIES_TERMS)
        first = np.array([[1.0 / math.factorial(int(k))] for k in ns])
        coef = np.cumprod(np.hstack([first, 1.0 / (j * (j + ns[:, None]))]), axis=1)
        total = np.repeat(coef[:, -1:], xs.size, axis=1)
        for k in range(_J_SERIES_TERMS - 2, -1, -1):
            total *= q
            total += coef[:, k : k + 1]
        out[:, small] = total * (0.5 * xs) ** ns[:, None]
    large = np.flatnonzero(flat >= np.min(ns))
    order = large[np.argsort(flat[large])]
    counts = 2 ** np.ceil(np.log2(np.maximum(64.0, 2.0 * flat[order] + 32.0))).astype(int)
    # x go in by size, in blocks of at most 256 x of one P: so each x gets
    # its own P, and a block's (x, node) table stays bounded
    i = 0
    while i < order.size:
        count = int(counts[i])
        end = min(i + 256, int(np.searchsorted(counts, count, side="right")))
        rows = order[i:end]
        # nodes j and count - j carry equal terms: take j <= count/2, ends once
        j = np.arange(count // 2 + 1)
        # n u mod 2 pi, exactly: (n j mod P) 2 pi/P
        u, nu = 2.0 * math.pi * j / count, 2.0 * math.pi * (np.outer(ns, j) % count) / count
        weight = np.where((j == 0) | (j == count // 2), 1.0, 2.0) / count
        phase = np.multiply.outer(flat[rows], np.sin(u))
        cos_t, sin_t = np.cos(phase), np.sin(phase)
        a, b = weight * np.cos(nu), weight * np.sin(nu)
        # cos(nu - x sin u) = cos(nu) cos(x sin u) + sin(nu) sin(x sin u), summed
        # row by row (not by a matrix product), so no x's value depends on the
        # batch; order k takes the block's x >= n_k, a suffix of it
        for k, start in enumerate(np.searchsorted(flat[rows], ns)):
            out[k, rows[start:]] = np.sum(cos_t[start:] * a[k] + sin_t[start:] * b[k], axis=1)
        i = end
    return out.reshape(orders.shape + x.shape)


_BERNOULLI = [
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
]


def zeta_many(s: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta on an array of points right of the critical strip.

    The truncation N adapts to the largest |Im s| present, and the
    correction takes the 12 Bernoulli terms B_2, ..., B_24 of _BERNOULLI.
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(s == 1.0):
        raise ValueError("zeta pole at s = 1")
    tmax = float(np.max(np.abs(s.imag)))
    N = max(24, int(math.ceil(0.8 * tmax)) + 8)
    n = np.arange(1, N, dtype=float)
    out = np.sum(n[None, :] ** (-s[:, None]), axis=1)
    out += N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** (-s)
    # Bernoulli tail: T_1 = B_2/2! * s * N^(-s-1), then the two-step recurrence
    term = _BERNOULLI[0] / 2.0 * s * N ** (-s - 1.0)
    out += term
    fac = 2.0
    for prev, b in zip(_BERNOULLI, _BERNOULLI[1:]):
        ratio = b / prev / ((fac + 1.0) * (fac + 2.0))
        term = term * ratio * (s + fac - 1.0) * (s + fac) / (N * N)
        out += term
        fac += 2.0
    return out


def eisenstein_density(t: np.ndarray) -> np.ndarray:
    """omega(t) = 1/|zeta(1 + 2it)|^2, the Eisenstein harmonic weight, on real t."""
    return 1.0 / np.abs(zeta_many(1.0 + 2j * np.asarray(t, dtype=float))) ** 2
