"""Adaptive panel quadrature for oscillatory integrands.

The engine works in waves: every pending panel is split in two, all child
panels of a wave are evaluated in one vectorized call, and a panel is
accepted once the parent/children discrepancy fits its share of the error
budget. Summation order is fixed (left to right in position), so results
are bit-reproducible for a given tolerance.

An integrand may also return K values per node, shape (nodes, K): the K
integrals then share every panel, a panel is accepted only once all K
columns fit its budget, and each wave is evaluated _BLOCK_NODES nodes at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]

_PANEL_ORDER = 16  # Gauss-Legendre points per adaptive panel
_MAX_WAVES = 28  # refinement waves before a result is flagged unconverged
_BLOCK_NODES = 256  # nodes per call of a K-column integrand: bounds its values to 256 x K


@dataclass
class QuadratureResult:
    """A numerically computed integral with an error bar and cost counter.

    For a K-column integrand, value and err_estimate are length-K arrays
    and evaluations counts nodes, not node-column pairs.
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


def _weighted_panel_sums(vals: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
    """Sum of weights * vals over each run of order nodes, per column."""
    if vals.ndim == 1:
        return (vals.astype(complex) * weights).reshape(-1, order).sum(axis=1)
    # one (1, order) @ (order, K) product per panel
    per_panel = vals.reshape(-1, order, vals.shape[1])
    return np.matmul(weights.reshape(-1, 1, order), per_panel)[:, 0, :]


def _panel_integrals(f: Integrand, left: np.ndarray, right: np.ndarray, order: int):
    """Gauss-Legendre integral of f over each [left_j, right_j]: shape
    (panels,) for a scalar integrand, (panels, K) for a K-column one.

    f first sees the nodes of _BLOCK_NODES // order panels. A K-column
    integrand gets every later block of that size too, so its values never
    span more than _BLOCK_NODES rows; a scalar one gets all remaining nodes
    in one call, because per-call overhead dominates small scalar blocks.
    """
    nodes, weights = gauss_legendre_panels(left, right, order)
    step = max(1, _BLOCK_NODES // order) * order
    sums: list[np.ndarray] = []
    start = 0
    while start < nodes.size:
        stop = nodes.size if sums and sums[0].ndim == 1 else start + step
        vals = np.asarray(f(nodes[start:stop]))
        sums.append(_weighted_panel_sums(vals, weights[start:stop], order))
        del vals  # not alive while f computes the next block
        start = stop
    return np.concatenate(sums).astype(complex, copy=False), nodes.size


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
    shape, or of shape (nodes, K) for K integrals at once. A panel whose
    refinement changes it (every column of it) by less than tol * panel/(b-a)
    is frozen; otherwise both halves go into the next wave. Failure to
    converge within the budget flags the result instead of raising.
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
        done = np.all(err.reshape(left.size, -1) <= budget[:, None], axis=1)
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
    # sequential), so every column is summed in the same order as a scalar
    order = np.argsort(np.concatenate(acc_left), kind="stable")
    value = np.cumsum(np.concatenate(acc_vals)[order], axis=0)[-1]
    err_estimate = np.cumsum(np.concatenate(acc_err)[order], axis=0)[-1]
    if parent_vals.ndim == 1:
        return QuadratureResult(complex(value), float(err_estimate), evaluations, converged)
    return QuadratureResult(value, err_estimate, evaluations, converged)


def fixed_gauss(f: Integrand, a: float, b: float, order: int = 24, panels: int = 1) -> complex:
    """Non-adaptive composite Gauss-Legendre rule (no error estimate)."""
    edges = np.linspace(a, b, panels + 1)
    vals, _ = _panel_integrals(f, edges[:-1], edges[1:], order)
    return complex(np.sum(vals))
