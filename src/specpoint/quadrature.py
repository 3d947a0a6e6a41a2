"""Gauss-Legendre panel quadrature under one refinement rule.

Every uniform panel grid comes from gauss_grid, and every refined integral
from doubled: it evaluates on grids whose panel counts double round by
round until no value moves by more than tol. adaptive_quadrature runs it
for one integrand on [a, b], and besselintegral's two H routes run it on
their t-grids and contour legs. A grid fixes its summation order, so
results are bit-reproducible for a given tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]

_PANEL_ORDER = 16  # Gauss-Legendre points per panel of a doubled grid


@dataclass
class QuadratureResult:
    """A numerically computed integral with an error estimate and a cost.

    err_estimate is the value's change over the last grid doubling (plus
    any floor the caller adds); converged is False when the doublings ran
    out before that change fell to tol. For a batch of H values
    (besselintegral.bessel_H_many), value and err_estimate are real arrays
    with one entry per x.
    """

    value: complex | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int
    converged: bool = True

    def scaled(self, factor: complex) -> "QuadratureResult":
        return QuadratureResult(
            self.value * factor,
            self.err_estimate * abs(factor),
            self.evaluations,
            self.converged,
        )


@lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    # every caller gets the same cached arrays
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_panels(
    left: np.ndarray, right: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on each
    panel [left_j, right_j], flattened panel by panel."""
    x, w = _gl_nodes(order)
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def gauss_grid(
    a: float, b: float, panels: int, order: int = _PANEL_ORDER
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of panels equal Gauss-Legendre panels on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    return gauss_legendre_panels(edges[:-1], edges[1:], order)


def doubled(evaluate, tol: float, rounds: int) -> QuadratureResult:
    """Values on grids doubled until none moves by more than tol.

    evaluate(level) returns the values with every panel count doubled level
    times, and its count of evaluations. converged is False when rounds
    doublings run out; err_estimate is each value's last change.
    """
    value, evaluations = evaluate(0)
    err, converged = np.abs(value), False
    for level in range(1, rounds + 1):
        new, n_eval = evaluate(level)
        evaluations += n_eval
        err, value = np.abs(new - value), new
        if np.all(err <= tol):
            converged = True
            break
    return QuadratureResult(value, err, evaluations, converged)


def adaptive_quadrature(
    f: Integrand,
    a: float,
    b: float,
    tol: float,
    initial_panels: int = 8,
    max_evals: int = 4_000_000,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    f must accept a 1-d numpy array of nodes and return values of the same
    shape. The grid starts at initial_panels uniform panels and doubles
    (doubled) for as many rounds as keep the evaluations of all its levels
    within max_evals. Failure to converge within them flags the result
    instead of raising.
    """
    if not (b > a):
        return QuadratureResult(0.0 + 0.0j, 0.0, 0)
    if tol <= 0:
        raise ValueError("tol must be positive")

    def evaluate(level: int) -> tuple[complex, int]:
        t, w = gauss_grid(a, b, initial_panels << level)
        return complex(np.asarray(f(t)) @ w), t.size

    # levels 0..r cost _PANEL_ORDER initial_panels (2^{r+1} - 1) evaluations
    rounds = (max_evals // (_PANEL_ORDER * initial_panels) + 1).bit_length() - 2
    return doubled(evaluate, tol, rounds)
