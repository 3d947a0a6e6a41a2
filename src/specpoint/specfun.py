"""Special functions and stationary-phase instrumentation.

Complex log-gamma (Lanczos with reflection), the Riemann zeta function by
Euler-Maclaurin summation, the explicit non-stationary-phase bound, scaled
derivative profiling for inert weight functions, and the model oscillatory
integrals with phase lambda*(x +- gamma*x^(1/gamma)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import QuadratureResult, oscillatory_integral

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


@dataclass
class PhaseBoundParams:
    """Size parameters for a non-stationary oscillatory integral.

    P, Q scale the weight and phase derivatives, R is the lower bound on the
    first phase derivative, S bounds the weight, Z bounds the phase, and A
    is the number of integrations by parts applied.
    """

    P: float
    Q: float
    R: float
    S: float
    Z: float
    A: int
    interval: tuple[float, float]

    def __post_init__(self):
        for name in "PQRSZ":
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.A < 0:
            raise ValueError("A must be a non-negative integer")
        a, b = self.interval
        if not b > a:
            raise ValueError("interval must satisfy b > a")


def stationary_phase_bound(p: PhaseBoundParams) -> float:
    """(b-a) * S * (Z/(R^2 Q^2) + 1/(R Q) + 1/(R P))^A."""
    a, b = p.interval
    core = p.Z / (p.R**2 * p.Q**2) + 1.0 / (p.R * p.Q) + 1.0 / (p.R * p.P)
    return (b - a) * p.S * core**p.A


@dataclass
class InertProfile:
    """Scaled sup-norms sup_x |x^i f^(i)(x)| / X^i for i = 0..max_order."""

    X: float
    ratios: list[float]
    noise_flags: list[bool] = field(default_factory=list)

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)


_EPS = float(np.finfo(float).eps)


def _central_difference(f, x: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-th derivative estimates and a rounding-noise estimate per point."""
    h = np.abs(x) * _EPS ** (1.0 / (order + 2))
    coeffs = [(-1.0) ** k * math.comb(order, k) for k in range(order + 1)]
    vals = np.zeros_like(x, dtype=complex)
    fmax = np.zeros_like(x, dtype=float)
    for k, c in enumerate(coeffs):
        fk = np.asarray(f(x + (order / 2.0 - k) * h), dtype=complex)
        vals += c * fk
        fmax = np.maximum(fmax, np.abs(fk))
    deriv = vals / h**order
    noise = fmax * _EPS * (2.0**order) / h**order
    return deriv, noise


def inertness_profile(
    f: Callable[[np.ndarray], np.ndarray],
    X: float,
    interval: tuple[float, float],
    max_order: int = 4,
    grid_points: int = 33,
) -> InertProfile:
    """Probe sup |x^i f^(i)(x)| / X^i on a geometric grid by finite differences.

    Orders whose difference quotients are dominated by rounding are flagged
    rather than silently reported.
    """
    if X < 1:
        raise ValueError("X must be at least 1")
    if max_order > 6:
        raise ValueError("finite differences above order 6 are unreliable")
    a, b = interval
    if not (0 < a < b):
        raise ValueError("interval must satisfy 0 < a < b")
    x = a * (b / a) ** np.linspace(0.0, 1.0, grid_points)
    ratios = [float(np.max(np.abs(np.asarray(f(x), dtype=complex))))]
    flags = [False]
    for order in range(1, max_order + 1):
        deriv, noise = _central_difference(f, x, order)
        scaled = np.abs(x**order * deriv) / X**order
        ratios.append(float(np.max(scaled)))
        peak = float(np.max(np.abs(deriv)))
        flags.append(bool(np.max(noise) > 0.1 * peak + 1e-300))
    return InertProfile(X=X, ratios=ratios, noise_flags=flags)


def model_phase(sign: int, gamma_exp: float) -> Callable[[np.ndarray], np.ndarray]:
    """Phase x -> x + sign * gamma * x^(1/gamma) (multiplied by lambda later)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if gamma_exp <= 1:
        raise ValueError("gamma must exceed 1")

    def phase(x):
        return x + sign * gamma_exp * x ** (1.0 / gamma_exp)

    return phase


def igamma_model_integral(
    sign: int,
    gamma_exp: float,
    lam: float,
    rho: float,
    weight: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
) -> QuadratureResult:
    """int over [rho, 2 rho] of e(lambda*(x +- gamma x^(1/gamma))) weight(x) dx."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if lam < 1:
        raise ValueError("lambda must be at least 1")
    base = model_phase(sign, gamma_exp)
    return oscillatory_integral(
        lambda x: lam * base(x), weight, (rho, 2.0 * rho), tol
    )


def vgamma_extract(
    gamma_exp: float,
    lam: float,
    weight: Callable[[np.ndarray], np.ndarray],
    rho: float = 0.75,
    tol: float = 1e-10,
) -> complex:
    """e(lambda*(gamma-1)) * sqrt(lambda) * I^-_gamma(lambda).

    The phase of the minus-sign model integral is stationary at x = 1 with
    value -(gamma-1); the prefactor removes it, so the output should vary
    slowly in lambda when the stationary point lies inside [rho, 2 rho].
    """
    if not (0.5 <= rho / math.sqrt(2.0) <= 2.0):
        raise ValueError("rho must lie within a factor 2*sqrt(2) of 1")
    res = igamma_model_integral(-1, gamma_exp, lam, rho, weight, tol=tol)
    if res.flagged:
        raise ArithmeticError("model integral quadrature did not converge")
    frac = (lam * (gamma_exp - 1.0)) % 1.0
    return complex(np.exp(2j * math.pi * frac)) * math.sqrt(lam) * res.value


def inert_scale(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    max_order: int = 3,
) -> float:
    """Smallest X >= 1 for which the probed derivative ratios stay below 1."""
    prof = inertness_profile(f, 1.0, interval, max_order=max_order)
    scale = 1.0
    for i in range(1, len(prof.ratios)):
        if prof.ratios[i] > 0 and not prof.noise_flags[i]:
            scale = max(scale, prof.ratios[i] ** (1.0 / i))
    return scale


def bump(a: float, b: float, alpha: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth bump supported on [a, b], normalized to 1 at the midpoint.

    alpha steepens the edges (exp(-1/u^alpha) profile): larger alpha trades
    bigger interior derivatives for much faster decay of oscillatory
    transforms of the bump, useful when a dual sum must be truncated at a
    tiny threshold.
    """
    if not b > a:
        raise ValueError("need b > a")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    peak = math.exp(2.0 * 2.0**alpha)

    def w(x):
        x = np.asarray(x, dtype=float)
        u = (x - a) / (b - a)
        inside = (u > 0.0) & (u < 1.0)
        uu = np.where(inside, u, 0.5)
        expo = -1.0 / uu**alpha - 1.0 / (1.0 - uu) ** alpha
        return np.where(inside, peak * np.exp(expo), 0.0)

    return w
