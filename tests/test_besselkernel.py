"""Contour evaluation of B(t,x) against frozen high-precision values,
the independent power-series route (batched over x, against its per-x
recursion and against mpmath), and a Y_0 series at t = 0."""

import math

import mpmath
import numpy as np
import pytest

from specpoint import besselkernel
from specpoint.besselkernel import kernel_b_block, kernel_b_series_many, series_cut, series_envelope
from specpoint.quadrature import gauss_grid, grid_panels
from specpoint.specfun import log_gamma

# -pi * Im J_{2it}(x) / sinh(pi t)  (and -pi Y_0(x) at t = 0), mpmath dps=40
B_TABLE = [
    (0.0, 0.02, 8.054903478908347),
    (0.0, 1.0, -0.277267430408108),
    (0.0, 12.0, 0.7076038866864174),
    (0.0, 500.0, -0.03300779899046192),
    (0.5, 0.5, 2.204778963563193),
    (0.5, 12.0, 0.7119906631669203),
    (2.0, 3.0, 0.1992022893950616),
    (5.0, 0.02, -0.1296844694614048),
    (5.0, 40.0, -0.10380093963504926),
    (14.0, 1.0, -0.29047764038848567),
    (14.0, 14.0, -0.20534823684702772),
    (14.0, 160.0, 0.05991683553998282),
    (38.0, 2.5, -0.2785393412978816),
    (38.0, 77.0, 0.06640024082232202),
    (50.0, 50.0, 0.2219955585768503),
    (50.0, 900.0, -0.08271415090909101),
    (98.0, 1.0, 0.17031708187468794),
    (98.0, 55.0, -0.09028203486343081),
    (98.0, 196.0, -0.0032210578612819926),
    (98.0, 2000.0, 0.04674903857141141),
    (0.001, 5.0, 0.96923644963546),
    (120.0, 10.0, -0.15883482645874358),
]


def y0_series(x: float, nmax: int = 40) -> float:
    """Y_0 by its ascending series; test-local oracle for moderate x."""
    euler = 0.5772156649015328606
    j0 = 0.0
    term = 1.0
    for k in range(nmax):
        if k > 0:
            term *= -(x * x / 4.0) / (k * k)
        j0 += term
    s = 0.0
    term = 1.0
    hk = 0.0
    for k in range(1, nmax):
        term *= -(x * x / 4.0) / (k * k)
        hk += 1.0 / k
        s += -term * hk
    return (2.0 / math.pi) * ((math.log(x / 2.0) + euler) * j0 + s)


def series_per_x(t: np.ndarray, x: float, nmax: int) -> np.ndarray:
    """The series route as a recursion over k at one x:
    term_k = term_{k-1} (-(x/2)^2) / (k (2it + k)); test-local reference."""
    nu = 2j * t
    term = np.exp(nu * math.log(x / 2.0) - log_gamma(nu + 1.0) - math.pi * t)
    total = term.copy()
    for k in range(1, nmax):
        term = term * (-((x / 2.0) ** 2) / k) / (nu + k)
        total += term
    return -math.pi * total.imag / (-np.expm1(-2.0 * math.pi * t) / 2.0)


@pytest.mark.parametrize("t,x,want", B_TABLE)
def test_frozen_oracle(t, x, want):
    vals, err, converged = kernel_b_block(np.array([t]), x, tol=1e-10)
    assert converged
    assert np.isrealobj(vals)
    assert vals[0] == pytest.approx(want, abs=2e-9 + 1e-9 * abs(want))
    # the bar covers the error to the rounded 40-digit value
    assert abs(vals[0] - want) <= err[0]


def test_t_zero_matches_y0_series():
    for x in (0.8, 3.0, 9.0):
        vals, _, _ = kernel_b_block(np.array([0.0]), x, tol=1e-11)
        assert vals[0] == pytest.approx(-math.pi * y0_series(x), abs=1e-9)


def test_even_in_t():
    for (t, x) in [(3.2, 7.0), (41.0, 2.0)]:
        assert kernel_b_block(np.array([-t]), x)[0] == kernel_b_block(np.array([t]), x)[0]


def test_contour_vs_series_crossover():
    # the two routes share nothing numerically
    rng = np.random.default_rng(17)
    for _ in range(25):
        t = float(rng.uniform(0.01, 60.0))
        x = float(rng.uniform(0.05, 7.0))
        a = kernel_b_block(np.array([t]), x, tol=1e-11)[0][0]
        b = kernel_b_series_many(np.array([t]), x, nmax=70)[0]
        assert a == pytest.approx(b, abs=5e-10 + 1e-10 * abs(b))


@pytest.mark.parametrize("nmax", [48, 70])
def test_series_batch_matches_per_x(nmax):
    t = np.linspace(0.01, 12.0, 300)
    xs = np.array([0.001, 0.02, 0.3, 1.0, 2.5, 4.0, 4.96, 5.0])
    batch = kernel_b_series_many(t, xs, nmax=nmax)
    assert batch.shape == (t.size, xs.size)
    for j, x in enumerate(xs):
        assert np.max(np.abs(batch[:, j] - kernel_b_series_many(t, x, nmax=nmax))) <= 1e-14
        ref = series_per_x(t, x, nmax)
        assert np.max(np.abs(batch[:, j] - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14


def test_series_matches_mpmath():
    # -pi Im J_{2it}(x) / sinh(pi t) straight from mpmath, which shares no
    # step with the series' coefficient recursion or its power table
    t = np.array([0.5, 3.0, 9.5, 12.0])
    xs = np.array([0.02, 1.0, 2.5, 5.0])
    with mpmath.workdps(30):
        want = np.array(
            [
                [
                    float(-mpmath.pi * mpmath.besselj(2j * tt, x).imag / mpmath.sinh(mpmath.pi * tt))
                    for x in xs
                ]
                for tt in t
            ]
        )
    got = kernel_b_series_many(t, xs)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("t_upper,panels", [(9.5, 10), (40.0, 16), (102.0, 86)])
def test_series_on_grid_panels_matches_shuffled_nodes(t_upper, panels):
    # grid panels take the factored phase table; the same nodes shuffled
    # are no grid, so they take one node per panel
    t, _ = gauss_grid(0.0, t_upper, panels)
    perm = np.random.default_rng(5).permutation(t.size)
    assert grid_panels(t)[2].size == 16 and grid_panels(t[perm])[2].size == 1
    xs = np.geomspace(0.002, 5.0, 24)
    grid, shuffled = kernel_b_series_many(t, xs), kernel_b_series_many(t[perm], xs)
    assert np.all(np.abs(grid[perm] - shuffled) <= 1e-13 * np.maximum(1.0, np.abs(shuffled)))


def test_series_cut_sizes():
    # a return to a fixed 48 k-terms fails here
    assert series_cut(5.0)[0] <= 20 and series_cut(1.0)[0] <= 11
    for x in (0.02, 1.0, 5.0, 8.0):
        K, tail = series_cut(x)
        first = (x / 2) ** (2 * K) / math.factorial(K) ** 2
        assert first <= 2.0**-64 < (x / 2) ** (2 * K - 2) / math.factorial(K - 1) ** 2
        assert first <= tail <= 1.1 * first


def test_series_envelope_is_pi_c0_over_scale():
    t = np.array([1e-3, 0.4, 3.0, 17.0, 120.0])
    c0 = np.abs(np.exp(-log_gamma(2j * t + 1.0) - math.pi * t))
    want = math.pi * c0 / (-np.expm1(-2.0 * math.pi * t) / 2.0)
    assert np.all(np.abs(series_envelope(t) - want) <= 1e-13 * want)


@pytest.mark.parametrize("x", [0.02, 0.5, 1.0, 2.5, 5.0])
def test_series_cut_within_its_bound(x):
    # the closure's t-grid (T = 3, M = 1): the K-term series against 48 terms
    t, _ = gauss_grid(0.0, 3.0 + 6.5, 20)
    cut = kernel_b_series_many(t, x)
    full = kernel_b_series_many(t, x, nmax=48)
    bound = series_cut(x)[1] * series_envelope(t) + 8 * np.finfo(float).eps * np.abs(full)
    assert np.all(np.abs(cut - full) <= bound)


def test_refinement_consistency():
    for (t, x) in [(14.0, 30.0), (50.0, 400.0)]:
        coarse, coarse_err, _ = kernel_b_block(np.array([t]), x, tol=1e-6)
        fine, _, _ = kernel_b_block(np.array([t]), x, tol=1e-12)
        assert abs(coarse[0] - fine[0]) <= max(coarse_err[0], 1e-12)


def test_refines_through_the_quadrature_loop(monkeypatch):
    calls, refined = [], besselkernel.refined

    def counted(evaluate, tol):
        calls.append(tol)
        return refined(evaluate, tol)

    monkeypatch.setattr(besselkernel, "refined", counted)
    vals, err, converged = kernel_b_block(np.array([0.5, 14.0, 38.0]), 12.0, tol=1e-10)
    assert calls == [1e-10] and converged
    # no grid meets tol 1e-300: every refinement runs, and the values stay finite
    vals, err, converged = kernel_b_block(np.array([0.5, 14.0, 38.0]), 12.0, tol=1e-300)
    assert len(calls) == 2 and not converged
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(err))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        kernel_b_block(np.array([5.0]), 0.0)
    with pytest.raises(ValueError):
        kernel_b_block(np.array([5.0, 151.0]), 8.0)
    with pytest.raises(ValueError):
        kernel_b_series_many(np.array([0.0]), 1.0)


@pytest.mark.parametrize("x", [0.0, -1.0, np.array([0.5, -1.0])], ids=["x0", "x-negative", "x-array"])
def test_series_rejects_x_out_of_range(x):
    with pytest.raises(ValueError, match="x must be positive"):
        kernel_b_series_many(np.array([1.0]), x)
