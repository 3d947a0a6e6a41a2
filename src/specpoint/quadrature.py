"""Gauss-Legendre panel quadrature under one refinement rule.

Every panel grid comes from gauss_grid, and every refined integral from
doubled: it evaluates on grids whose panel counts double round by round
until no value moves by more than tol, and it rejects tol <= 0. Each
evaluation returns its values, their rounding bars on its grid (0 for a
plain integrand) and its count of evaluations; the error estimate is the
last change plus the last grid's bar.
adaptive_quadrature runs it for one integrand on [a, b], sievebench's
Eisenstein form on its cached weighted grids, besselintegral's two H
routes on their t-grids and contour legs, and besselkernel.kernel_b_block
on its five contour legs; doubling_rounds gives the first two their round
count from an evaluation budget. Both contours take their first panel
counts from _panel_count, one panel per _PANEL_PHASE radians of phase
plus e-folds of decay, and their bars are _ROUNDING times the absolute
sum of their terms. A grid fixes its summation order, so results are
bit-reproducible for a given tolerance. grid_panels
reads a grid's panel structure back from its nodes: both H routes build
their phase tables exp(i w t) from it, panels + 16 exponentials per
frequency w where a (node, w) table takes 16 per panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]

_PANEL_ORDER = 16  # Gauss-Legendre points per panel of a doubled grid
_PANEL_PHASE = 12.0  # radians of phase (or e-folds of decay) per panel on a first grid
_ROUNDING = 8.0 * np.finfo(float).eps  # times a sum's absolute terms: its rounding bar


@dataclass
class QuadratureResult:
    """A numerically computed integral with an error estimate and a cost.

    err_estimate is the value's change over the last grid doubling plus
    the rounding bar on the last grid; converged is False when the doublings ran
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


def gauss_grid(
    a: float, b: float, panels: int, order: int = _PANEL_ORDER
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of panels equal Gauss-Legendre panels on [a, b],
    flattened panel by panel."""
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def _panel_count(phase: float) -> int:
    """A first grid's panels for phase radians plus e-folds: one per _PANEL_PHASE, at least 2."""
    return max(2, math.ceil(phase / _PANEL_PHASE))


def grid_panels(t: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """The panel structure of nodes t: (lefts, half, u, offsets) with
    t[16 p + q] = lefts[p] + half u[q] + offsets[p, q].

    For a run of whole equal panels of a gauss_grid, lefts are the panels'
    left ends, half their half-width and u = 1 + xi for the _PANEL_ORDER = 16
    Legendre nodes xi; offsets, which only the rounding of the grid's edges
    and nodes leaves, stay within a few ulps of max|t|. So a table of exp(i w t) over
    nodes and frequencies w takes panels + 16 exponentials per w, and a
    first-order correction 1 + i w offsets. On t >= 0 neither factor's phase
    exceeds the node's, as it would from the panel mids near t = 0. Any
    other t is one node per panel: lefts = t, half = 0, u = [0], offsets = 0.
    """
    t = np.asarray(t, dtype=float).ravel()
    xi = _gl_nodes(_PANEL_ORDER)[0]
    if t.size >= _PANEL_ORDER and t.size % _PANEL_ORDER == 0:
        rows = t.reshape(-1, _PANEL_ORDER)
        # the mean half-width, from the first and last node of the run (xi[0] = -xi[-1])
        half = (rows[-1, -1] - rows[0, 0]) / (2.0 * (rows.shape[0] - 1 + xi[-1]))
        lefts = 0.5 * (rows[:, 0] + rows[:, -1]) - half
        u = 1.0 + xi
        offsets = (rows - lefts[:, None]) - half * u
        if half > 0 and np.max(np.abs(offsets)) <= 16.0 * np.finfo(float).eps * np.max(np.abs(t)):
            return lefts, float(half), u, offsets
    return t, 0.0, np.zeros(1), np.zeros((t.size, 1))


def doubled(evaluate, tol: float, rounds: int) -> QuadratureResult:
    """Values on grids doubled until none moves by more than tol.

    evaluate(level) returns the values with every panel count doubled level
    times, their rounding bars on that grid, and its count of evaluations.
    converged is False when rounds doublings run out; err_estimate is each
    value's last change plus the last grid's bar. tol must be positive: at
    tol <= 0 every round would run and none could converge.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    value, bar, evaluations = evaluate(0)
    err, converged = np.abs(value), False
    for level in range(1, rounds + 1):
        new, bar, n_eval = evaluate(level)
        evaluations += n_eval
        err, value = np.abs(new - value), new
        if np.all(err <= tol):
            converged = True
            break
    return QuadratureResult(value, err + bar, evaluations, converged)


def doubling_rounds(initial_panels: int, max_evals: int = 4_000_000) -> int:
    """The most doublings of a gauss_grid from initial_panels panels whose
    levels 0..r, _PANEL_ORDER initial_panels (2^{r+1} - 1) evaluations in
    all, stay within max_evals."""
    return (max_evals // (_PANEL_ORDER * initial_panels) + 1).bit_length() - 2


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
    (doubled) for doubling_rounds(initial_panels, max_evals) rounds.
    Failure to converge within them flags the result instead of raising.
    """
    if not (b > a):
        return QuadratureResult(0.0 + 0.0j, 0.0, 0)

    def evaluate(level: int) -> tuple[complex, float, int]:
        t, w = gauss_grid(a, b, initial_panels << level)
        return complex(np.asarray(f(t)) @ w), 0.0, t.size

    return doubled(evaluate, tol, doubling_rounds(initial_panels, max_evals))
