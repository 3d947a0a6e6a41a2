"""Adaptive panel quadrature for oscillatory integrands.

The engine works in waves: every pending panel is split in two, all child
panels of a wave are evaluated in one vectorized call, and a panel is
accepted once the parent/children discrepancy fits its share of the error
budget. Summation order is fixed (left to right in position), so results
are bit-reproducible for a given tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]

_PANEL_ORDER = 16  # Gauss-Legendre points per adaptive panel
_MAX_WAVES = 28  # refinement waves before a result is flagged unconverged


@dataclass
class QuadratureResult:
    """A numerically computed integral with an error bar and cost counter.

    For a batch of H values (besselintegral.bessel_H_many), value and
    err_estimate are real arrays with one entry per x.
    """

    value: complex | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int
    converged: bool = True

    @property
    def flagged(self) -> bool:
        return not self.converged

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


def _panel_integrals(f: Integrand, left: np.ndarray, right: np.ndarray, order: int):
    """Gauss-Legendre integral of f over each [left_j, right_j], from one
    call of f on every node, and the number of nodes."""
    nodes, weights = gauss_legendre_panels(left, right, order)
    vals = np.asarray(f(nodes)).astype(complex) * weights
    return vals.reshape(-1, order).sum(axis=1), nodes.size


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
    shape. A panel whose refinement changes it by less than
    tol * panel/(b-a) is frozen; otherwise both halves go into the next
    wave. Failure to converge within the budget flags the result instead
    of raising.
    """
    if not (b > a):
        return QuadratureResult(0.0 + 0.0j, 0.0, 0)
    if tol <= 0:
        raise ValueError("tol must be positive")

    edges = np.linspace(a, b, initial_panels + 1)
    left, right = edges[:-1], edges[1:]
    parent_vals, n_eval = _panel_integrals(f, left, right, _PANEL_ORDER)
    evaluations = n_eval

    # accepted panels, wave by wave: left edges, values and error estimates
    acc_left: list[np.ndarray] = []
    acc_vals: list[np.ndarray] = []
    acc_err: list[np.ndarray] = []
    converged = True
    span = b - a

    for _ in range(_MAX_WAVES):
        if left.size == 0:
            break
        mid = 0.5 * (left + right)
        child_left = np.concatenate([left, mid])
        child_right = np.concatenate([mid, right])
        child_vals, n_eval = _panel_integrals(f, child_left, child_right, _PANEL_ORDER)
        evaluations += n_eval
        refined = child_vals[: left.size] + child_vals[left.size :]
        err = np.abs(parent_vals - refined)
        budget = tol * (right - left) / span
        done = err <= budget
        acc_left.append(left[done])
        acc_vals.append(refined[done])
        acc_err.append(err[done])
        keep = ~done
        left0, right0, mid0 = left[keep], right[keep], mid[keep]
        left = np.concatenate([left0, mid0])
        right = np.concatenate([mid0, right0])
        parent_vals = np.concatenate(
            [child_vals[: mid.size][keep], child_vals[mid.size :][keep]]
        )
        if evaluations > max_evals and left.size > 0:
            converged = False
            break
    else:
        converged = False

    # whatever is still pending goes in at its current refinement level
    acc_left.append(left)
    acc_vals.append(parent_vals)
    acc_err.append(np.abs(parent_vals) * 0.5 + tol)
    if left.size > 0 and converged:
        converged = False

    # summed left to right in position, one panel after another (cumsum is
    # sequential)
    order = np.argsort(np.concatenate(acc_left), kind="stable")
    value = np.cumsum(np.concatenate(acc_vals)[order])[-1]
    err_estimate = np.cumsum(np.concatenate(acc_err)[order])[-1]
    return QuadratureResult(complex(value), float(err_estimate), evaluations, converged)


def fixed_gauss(f: Integrand, a: float, b: float, order: int = 24, panels: int = 1) -> complex:
    """Non-adaptive composite Gauss-Legendre rule (no error estimate)."""
    edges = np.linspace(a, b, panels + 1)
    vals, _ = _panel_integrals(f, edges[:-1], edges[1:], order)
    return complex(np.sum(vals))
