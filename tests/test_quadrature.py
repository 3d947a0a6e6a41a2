"""Quadrature engine against closed forms and refinement consistency."""

import math

import numpy as np
import pytest

from specpoint.quadrature import adaptive_quadrature, fixed_gauss


def test_constant():
    res = adaptive_quadrature(np.ones_like, 0.0, 1.0, 1e-12)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_full_periods_cancel():
    res = adaptive_quadrature(lambda x: np.exp(20j * math.pi * x), 0.0, 1.0, 1e-12)
    assert res.converged
    assert abs(res.value) <= 1e-12


def test_fixed_gauss_sine():
    val = fixed_gauss(np.sin, 0.0, math.pi, order=24, panels=2)
    assert val == pytest.approx(2.0, abs=1e-14)


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


def test_columns_share_panels():
    # int exp(-t^2) cos(a t) dt = sqrt(pi) exp(-a^2/4); the columns differ in
    # difficulty, so a panel may only be accepted once the hardest one fits
    freqs = (0.0, 5.0, 30.0)

    def column(a):
        return lambda t: np.exp(-(t**2)) * np.cos(a * t)

    def f(t):
        return np.stack([column(a)(t) for a in freqs], axis=1)

    tol = 1e-11
    res = adaptive_quadrature(f, -7.5, 7.5, tol)
    assert res.converged
    assert res.value.shape == res.err_estimate.shape == (3,)
    for k, a in enumerate(freqs):
        scalar = adaptive_quadrature(column(a), -7.5, 7.5, tol)
        assert isinstance(scalar.value, complex) and isinstance(scalar.err_estimate, float)
        assert abs(res.value[k] - scalar.value) <= tol
        assert res.err_estimate[k] <= tol
        assert res.value[k].real == pytest.approx(math.sqrt(math.pi) * math.exp(-(a**2) / 4), abs=tol)
    # each column keeps its own error estimate
    assert len(set(res.err_estimate.tolist())) == 3
