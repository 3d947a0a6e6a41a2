"""Quadrature engine against closed forms and refinement consistency."""

import math

import numpy as np
import pytest

from specpoint import besselintegral, quadrature
from specpoint.besselintegral import SpectralWeight, bessel_H_many, bessel_H_series_many
from specpoint.besselkernel import kernel_b_block
from specpoint.kuznetsov import decomposition, diagonal_H0, eisenstein_side, kloosterman_side
from specpoint.quadrature import adaptive_quadrature, gauss_grid, grid_panels, refined_panels
from specpoint.sievebench import Sequence

EPS = np.finfo(float).eps
SW3 = SpectralWeight(3.0, 1.0)


@pytest.mark.parametrize("order", [16, 24, 32])
def test_gl_nodes_are_numpys_leggauss(order):
    # the eigvalsh port gives numpy's rule bit for bit, read-only and cached
    x, w = quadrature._gl_nodes(order)
    want_x, want_w = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert not x.flags.writeable and not w.flags.writeable
    assert quadrature._gl_nodes(order)[0] is x


def test_constant():
    res = adaptive_quadrature(np.ones_like, 0.0, 1.0, 1e-12)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_full_periods_cancel():
    res = adaptive_quadrature(lambda x: np.exp(20j * math.pi * x), 0.0, 1.0, 1e-12)
    assert res.converged
    assert abs(res.value) <= 1e-12


def test_gauss_grid_sine():
    t, w = gauss_grid(0.0, math.pi, 2, order=24)
    assert w @ np.sin(t) == pytest.approx(2.0, abs=1e-14)


def test_tight_tol_converges():
    # tol is 7e-16 of the value: shared out among panels it would fall
    # below their rounding, so the whole grid's change must meet it
    def f(t):
        return 10.0 * np.exp(-(((t - 50.0) / 8.0) ** 2))

    res = adaptive_quadrature(f, 0.0, 100.0, 1e-13, initial_panels=24)
    assert res.converged
    assert res.err_estimate <= 1e-13
    assert abs(res.value - 80.0 * math.sqrt(math.pi) * math.erf(6.25)) <= 1e-13


@pytest.mark.parametrize(
    "T,M,r",
    [(14.0, 4.0, 0.3), (50.0, 8.0, 0.05), (100.0, 10.0, 0.61), (25.0, 5.0, 0.0)],
)
def test_gaussian_cosine_pair(T, M, r):
    # closed forms: int exp(-t^2) cos(2Tr + 2Mtr) dt = sqrt(pi) exp(-(Mr)^2) cos(2Tr)
    #               int t exp(-t^2) cos(2Tr + 2Mtr) dt = -sqrt(pi) Mr exp(-(Mr)^2) sin(2Tr)
    def f0(t):
        return np.exp(-(t**2)) * np.cos(2 * T * r + 2 * M * t * r)

    def f1(t):
        return t * np.exp(-(t**2)) * np.cos(2 * T * r + 2 * M * t * r)

    lim = 7.5
    res0 = adaptive_quadrature(f0, -lim, lim, 1e-11)
    res1 = adaptive_quadrature(f1, -lim, lim, 1e-11)
    sp = math.sqrt(math.pi)
    assert res0.converged and res1.converged
    assert res0.value.real == pytest.approx(sp * math.exp(-((M * r) ** 2)) * math.cos(2 * T * r), abs=1e-10)
    assert res1.value.real == pytest.approx(-sp * M * r * math.exp(-((M * r) ** 2)) * math.sin(2 * T * r), abs=1e-10)


def test_err_estimate_bounds_refinement():
    rng = np.random.default_rng(11)
    for _ in range(6):
        freq = rng.uniform(5, 60)
        decay = rng.uniform(0.2, 3.0)

        def f(x):
            return np.exp(-decay * x) * np.cos(freq * x * x)

        coarse = adaptive_quadrature(f, 0.0, 3.0, 1e-6)
        fine = adaptive_quadrature(f, 0.0, 3.0, 1e-12)
        assert abs(coarse.value - fine.value) <= max(coarse.err_estimate, 1e-12)


def test_budget_exhaustion_is_flagged():
    # 1e7 radians on [0, 1]: no grid of the 11 rounds, at most 692 panels,
    # resolves it
    def nasty(x):
        return np.cos(1e7 * x)

    res = adaptive_quadrature(nasty, 0.0, 1.0, 1e-14)
    assert not res.converged


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf])
@pytest.mark.parametrize(
    "route",
    [
        lambda tol: adaptive_quadrature(np.ones_like, 0.0, 1.0, tol),
        lambda tol: bessel_H_many([1.0, 8.0], 1.0, SpectralWeight(3.0, 1.0), tol),
        lambda tol: kloosterman_side(1, 2, SpectralWeight(3.0, 1.0), 64, tol),
        lambda tol: kernel_b_block(np.array([1.0]), 8.0, tol),
    ],
    ids=["adaptive_quadrature", "bessel_H_many", "kloosterman_side", "kernel_b_block"],
)
def test_every_doubling_route_rejects_nonpositive_tol(route, tol):
    # quadrature.refined rejects it: no round could meet tol <= 0, and at
    # tol = inf the first change would pass whatever its size
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        route(tol)


def test_refined_grids_reach_the_finest_doubled_grids():
    # each round takes ceil(n (3/2)^level) panels, and every loop's finest
    # grid, after refined's one round cap, has at least 64 times its first
    # grid's panels, as six doublings would
    assert [refined_panels(32, level) for level in range(5)] == [32, 48, 72, 108, 162]
    for n in range(1, 2049):
        assert refined_panels(n, quadrature._ROUNDS) >= 64 * n


@pytest.mark.parametrize(
    "converged",
    [
        lambda: bessel_H_series_many([0.5, 2.0], 1.0, SW3, 1e-8).converged,
        lambda: besselintegral._bessel_H_kernel(np.array([9.0, 12.0]), 1.0, SW3, 1e-8).converged,
        lambda: kernel_b_block(np.array([0.5, 14.0]), 12.0, 1e-10)[2],
        lambda: eisenstein_side(2, 3, SW3, 1e-10).converged,
        lambda: diagonal_H0(SW3, 1e-10).converged,
        lambda: kloosterman_side(2, 3, SW3, 64, 1e-8).converged,
        lambda: decomposition(Sequence.random(2, 1, real=True), SW3, [], 1e-6).converged,
    ],
    ids=["series", "kernel", "kernel_b_block", "eisenstein_side", "diagonal_H0",
         "kloosterman_side", "decomposition"],
)
def test_every_loop_flags_the_one_round_cap(converged, monkeypatch):
    # every loop reads its cap from quadrature._ROUNDS: with no round allowed
    # none can confirm its first grid, and the reports carry the flag
    assert converged()
    monkeypatch.setattr(quadrature, "_ROUNDS", 0)
    assert not converged()


def test_empty_interval_needs_no_tol():
    assert adaptive_quadrature(np.ones_like, 1.0, 1.0, 0.0).value == 0.0


def test_evaluation_counter():
    res = adaptive_quadrature(lambda x: x**2, 0.0, 1.0, 1e-12)
    assert res.evaluations > 0
    assert res.value.real == pytest.approx(1 / 3, abs=1e-13)


def test_grid_panels_of_whole_gauss_panels():
    # a gauss_grid, and any run of its whole panels, is left + half (1 + xi)
    # per node, less offsets of rounding size
    t, _ = gauss_grid(0.0, 102.0, 86)
    for run in (t, t[256:768]):
        lefts, half, u, offsets = grid_panels(run)
        assert u.size == 16 and lefts.size == run.size // 16
        assert half == pytest.approx(102.0 / 172.0, rel=1e-14)
        assert np.max(np.abs(offsets)) <= EPS * 102.0
        rebuilt = lefts[:, None] + half * u + offsets
        assert np.max(np.abs(rebuilt.ravel() - run)) <= EPS * 102.0


def test_grid_panels_of_other_nodes_are_one_node_per_panel():
    t, _ = gauss_grid(0.0, 9.5, 10)
    shuffled = np.random.default_rng(1).permutation(t)
    for other in (shuffled, np.linspace(0.01, 12.0, 320), t[8:24], t[:40]):
        lefts, half, u, offsets = grid_panels(other)
        assert half == 0.0 and u.size == 1
        assert np.array_equal(lefts, other) and not np.any(offsets)
