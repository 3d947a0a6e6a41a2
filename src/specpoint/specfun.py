"""Special functions: complex log-gamma (Lanczos with reflection), Bessel
J_n of integer order by the trapezoid rule, the Riemann zeta function by
Euler-Maclaurin summation, and the Eisenstein harmonic weight
1/|zeta(1 + 2it)|^2 built on it.
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


def bessel_j(n: int, x) -> np.ndarray:
    """J_n(x) for an integer n >= 0 on an array of x > 0, by the trapezoid rule on
    J_n(x) = (1/2pi) int_0^{2pi} exp(a cos u - n log rho) cos(b sin u - nu) du with
    a, b = (x/2)(rho -+ 1/rho) for any rho > 0; rho = 1 gives (1/pi) int_0^pi
    cos(nu - x sin u) du. P >= max(64, 2x + 32) nodes leave only the aliases
    J_{n+-jP}(x) rho^{+-jP}, below 1e-20 relative for n <= 9. For x < n the saddle
    point rho = (n + sqrt(n^2 - x^2))/x keeps every node within ~sqrt(2 pi n) |J_n(x)|,
    so small x keep relative accuracy where rho = 1 nodes would cancel from size 1.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("bessel_j needs x > 0")
    order = np.argsort(x, axis=None)
    flat = x.ravel()[order]
    counts = 2 ** np.ceil(np.log2(np.maximum(64.0, 2.0 * flat + 32.0))).astype(int)
    out = np.empty(flat.size)
    # x go in by size, in blocks of at most 256 x of one P: so each x gets
    # its own P, and a block's (x, node) table stays bounded
    i = 0
    while i < flat.size:
        count = int(counts[i])
        end = min(i + 256, int(np.searchsorted(counts, count, side="right")))
        xs = flat[i:end, None]
        rho = np.where(xs < n, (n + np.sqrt(np.maximum(n * n - xs * xs, 0.0))) / xs, 1.0)
        # nodes j and count - j carry equal terms: take j <= count/2, ends once
        j = np.arange(count // 2 + 1)
        u, nu = 2.0 * math.pi * j / count, 2.0 * math.pi * (n * j % count) / count  # exact mod 2pi
        weight = np.where((j == 0) | (j == count // 2), 1.0, 2.0) / count
        a, b = 0.5 * xs * (rho - 1.0 / rho), 0.5 * xs * (rho + 1.0 / rho)
        terms = np.exp(a * np.cos(u) - n * np.log(rho)) * np.cos(b * np.sin(u) - nu)
        out[order[i:end]] = terms @ weight
        i = end
    return out.reshape(x.shape)


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
    8553103.0 / 6.0,
]


def zeta_many(s: np.ndarray, em_order: int = 12) -> np.ndarray:
    """Euler-Maclaurin zeta on an array of points right of the critical strip.

    The truncation N adapts to the largest |Im s| present; em_order is the
    number of Bernoulli correction terms (two different values of it give an
    independent consistency check).
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
    for k in range(2, em_order + 1):
        ratio = _BERNOULLI[k - 1] / _BERNOULLI[k - 2] / ((fac + 1.0) * (fac + 2.0))
        term = term * ratio * (s + fac - 1.0) * (s + fac) / (N * N)
        out += term
        fac += 2.0
    return out


def eisenstein_density(t: np.ndarray) -> np.ndarray:
    """omega(t) = 1/|zeta(1 + 2it)|^2, the Eisenstein harmonic weight, on real t."""
    return 1.0 / np.abs(zeta_many(1.0 + 2j * np.asarray(t, dtype=float))) ** 2
