"""Quadrature engine against closed forms and refinement consistency."""

import math

import numpy as np
import pytest

from specpoint import besselintegral, besselkernel, kuznetsov, quadrature, sievebench
from specpoint.besselintegral import SpectralWeight, bessel_H_many, bessel_H_series_many
from specpoint.besselkernel import kernel_b_block
from specpoint.kuznetsov import decomposition, diagonal_H0, diagonal_term, eisenstein_side, kloosterman_side
from specpoint.quadrature import adaptive_quadrature, gauss_grid, grid_panels, refined_panels
from specpoint.sievebench import Sequence, _eisenstein_form

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


# ---------------------------------------------------------------------------
# One support per window: every refined t-grid on [t_lower, t_upper]

SW60 = SpectralWeight(60.0, 2.0)  # t_lower = 47, t_upper = 73
WINDOW_CACHES = (
    besselintegral._t_weights,
    besselintegral._leg_bars,
    besselintegral._residue_lines,
    sievebench._eisenstein_weights,
)


@pytest.fixture
def fresh_grids():
    """The window caches emptied before and after: they are keyed by (T, M)
    alone, so grids built under a patched t_lower must not outlive it."""
    for cache in WINDOW_CACHES:
        cache.cache_clear()
    yield
    for cache in WINDOW_CACHES:
        cache.cache_clear()


def test_window_grids_lie_on_the_support():
    assert SW60.t_lower == 47.0 and SW60.t_upper == 73.0
    assert SW3.t_lower == 0.0  # T <= 6.5 M: the support starts at 0
    for level in range(3):
        for t in (besselintegral._t_weights(SW60, 13, level)[0], sievebench._eisenstein_weights(SW60, level)[0]):
            assert SW60.t_lower <= np.min(t) and np.max(t) <= SW60.t_upper


def _window_calls(sw: SpectralWeight):
    """The Eisenstein pair (1, 2), H0, and one H batch with series and contour terms."""
    eis = _eisenstein_form(np.array([1, 2]), *np.eye(2), sw, 1e-8)
    h0 = diagonal_H0(sw, 1e-10)
    h, series = bessel_H_many(np.array([0.5, 3.0, 8.0, 20.0]), np.array([1.0, 2.0, 1.0, 0.5]), sw, 1e-8)
    assert series == 2
    return eis, h0, h


def test_support_moves_nothing_beyond_the_bars(fresh_grids, monkeypatch):
    # below t_lower = T - 6.5 M the weight h is under 4e-19, so the grids
    # from t = 0 give the same values within both bars
    cut = _window_calls(SW60)
    for cache in WINDOW_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(SpectralWeight, "t_lower", property(lambda self: 0.0))
    full = _window_calls(SW60)
    for a, b in zip(cut, full):
        assert a.converged and b.converged
        assert np.all(np.abs(a.value - b.value) <= a.err_estimate + b.err_estimate)


def test_eisenstein_side_at_large_T():
    # from t = 0 the grid took 131,888 evaluations for a bar of 3.1e-7
    res = _eisenstein_form(np.array([1, 2]), *np.eye(2), SpectralWeight(2000.0, 1.0), 1e-6)
    assert res.converged
    assert res.evaluations <= 2000
    assert res.err_estimate <= 1e-10


def test_one_support_and_one_gauss_rule_per_pass(fresh_grids, monkeypatch):
    # a closure pair, the bench's seed-1 decompose block and a T = 60 window:
    # every grid that ends at a window's t_upper starts at its t_lower (the
    # residue lines and the spectral tail end at t_upper + 2 M), and every
    # grid is built from the one 16-point rule
    grids = []
    for module in (besselintegral, besselkernel, kuznetsov, sievebench):
        def recorded(a, b, *args, _grid=module.gauss_grid, **kwargs):
            grids.append((a, b))
            return _grid(a, b, *args, **kwargs)

        monkeypatch.setattr(module, "gauss_grid", recorded)
    quadrature._gl_nodes.cache_clear()
    windows = [SW3, SpectralWeight(3.0, 1.5), SW60]
    eisenstein_side(1, 2, SW3, 1e-8)
    diagonal_term(1, 1, SW3, 1e-8)
    kloosterman_side(1, 2, SW3, 512, 1e-8)
    block = Sequence(N=4, values=np.random.default_rng(1).uniform(-1.0, 1.0, size=4))
    decomposition(block, windows[1], [], 1e-6)
    _window_calls(SW60)
    for sw in windows:
        starts = {a for a, b in grids if b == sw.t_upper}
        assert starts == {sw.t_lower}
    assert quadrature._gl_nodes.cache_info().currsize == 1
