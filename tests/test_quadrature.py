"""Quadrature engine against closed forms and refinement consistency."""

import math

import numpy as np
import pytest

from specpoint.quadrature import adaptive_quadrature, gauss_grid


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

    res = adaptive_quadrature(f, 0.0, 100.0, 1e-13, initial_panels=24, max_evals=200_000)
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
    def nasty(x):
        return np.cos(1e7 * x)

    res = adaptive_quadrature(nasty, 0.0, 1.0, 1e-14, max_evals=2000)
    assert not res.converged


def test_evaluation_counter():
    res = adaptive_quadrature(lambda x: x**2, 0.0, 1.0, 1e-12)
    assert res.evaluations > 0
    assert res.value.real == pytest.approx(1 / 3, abs=1e-13)

