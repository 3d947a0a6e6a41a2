"""Spectral weights, the reduced integral, and dual-route H agreement."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from specpoint import besselintegral, quadrature
from specpoint.besselintegral import (
    I_integral,
    SERIES_X_MAX,
    SpectralWeight,
    bessel_H_direct,
    bessel_H_many,
    diagonal_H0,
    g_weight,
    residue_expansion,
    rho_pm,
    weight_h,
)
from specpoint.besselkernel import kernel_b_block
from specpoint.quadrature import adaptive_quadrature, refined_panels

from oracles import two_refinements_finer, weight_h_y

SW = SpectralWeight(T=50.0, M=8.0)
SW3 = SpectralWeight(T=3.0, M=1.0)


class TestWeights:
    def test_center_value(self):
        T, M = SW.T, SW.M
        assert weight_h(T, SW) == pytest.approx(1.0 + math.exp(-4 * T**2 / M**2), rel=1e-14)

    def test_origin_value(self):
        assert weight_h(0.0, SW) == pytest.approx(2.0 * math.exp(-(SW.T / SW.M) ** 2), rel=1e-14)

    def test_even(self):
        ts = np.linspace(0.1, 80.0, 17)
        assert np.allclose(weight_h(ts, SW), weight_h(-ts, SW), rtol=0, atol=0)

    def test_twist_reciprocity(self):
        ts = np.linspace(0.0, 80.0, 13)
        for y in (1.7, 3.0, 8.0):
            a = weight_h_y(ts, y, SW)
            b = weight_h_y(ts, 1.0 / y, SW)
            assert np.allclose(a, b, atol=1e-13)

    def test_unit_twist_is_plain(self):
        ts = np.linspace(0.0, 80.0, 13)
        assert np.allclose(weight_h_y(ts, 1.0, SW), weight_h(ts, SW), atol=0)

    def test_twist_at_center(self):
        T, M = SW.T, SW.M
        want = (1 + math.exp(-4 * T**2 / M**2)) * math.cos(2 * T)
        assert weight_h_y(T, math.e, SW) == pytest.approx(want, rel=1e-13)

    def test_complex_argument(self):
        # residue_expansion takes h on the lines t = s - iK; at t = -ia the
        # pair is 2 exp((a^2 - T^2)/M^2) cos(2aT/M^2), the residues' closed form
        sw = SpectralWeight(3.0, 1.5)
        s = np.linspace(0.0, sw.t_upper, 9)
        with mp.workdps(30):
            for K in range(1, 6):
                t = s - 1j * K
                want = [
                    complex(mp.exp(-(((z - sw.T) / sw.M) ** 2)) + mp.exp(-(((z + sw.T) / sw.M) ** 2)))
                    for z in map(mp.mpc, t)
                ]
                assert np.allclose(weight_h(t, sw), want, rtol=1e-13, atol=0)
        for a in np.arange(5) + 0.5:
            want = 2.0 * math.exp((a**2 - sw.T**2) / sw.M**2) * math.cos(2.0 * a * sw.T / sw.M**2)
            assert weight_h(-1j * a, sw) == pytest.approx(want, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralWeight(T=-1.0, M=1.0)
        with pytest.raises(ValueError):
            SpectralWeight(T=10.0, M=0.5)
        with pytest.raises(ValueError):
            SpectralWeight(T=10.0, M=20.0)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            SpectralWeight(T=math.inf, M=1.0)


class TestGWeight:
    def test_origin(self):
        assert g_weight(0.0, SW) == pytest.approx(4.0 / (math.pi * math.sqrt(math.pi)), rel=1e-14)

    def test_even(self):
        rs = np.linspace(0.0, 0.7, 11)
        assert np.allclose(g_weight(rs, SW), g_weight(-rs, SW), atol=0)

    def test_one_over_m_value(self):
        T, M = SW.T, SW.M
        c = 2.0 / (math.pi * math.sqrt(math.pi))
        want = c * (
            2 * math.exp(-1) * math.cos(2 * T / M) - 2 * (M / T) * math.exp(-1) * math.sin(2 * T / M)
        )
        assert g_weight(1.0 / M, SW) == pytest.approx(want, rel=1e-13)


class TestRho:
    def test_origin(self):
        assert rho_pm(0.0) == (0.0, 0.0)

    def test_exponential_identities(self):
        rs = np.linspace(-2.0, 2.0, 41)
        plus, minus = rho_pm(rs)
        assert np.allclose(plus, np.exp(rs) - 1.0, rtol=1e-13, atol=1e-16)
        assert np.allclose(minus, 1.0 - np.exp(-rs), rtol=1e-13, atol=1e-16)

    def test_hyperbolic_identities(self):
        rs = np.linspace(-3.0, 3.0, 61)
        plus, minus = rho_pm(rs)
        assert np.max(np.abs(plus - minus - 2.0 * (np.cosh(rs) - 1.0))) <= 1e-14 * np.max(np.cosh(rs))
        assert np.all(plus - minus >= -1e-15)
        assert np.max(np.abs(plus + minus - 2.0 * np.sinh(rs))) <= 1e-14 * np.max(np.cosh(rs))


class TestIIntegral:
    def test_zero_arguments_near_zero(self):
        # int g dr vanishes exactly: the two Gaussian pairs cancel
        res = I_integral(0.0, 0.0, SW, tol=1e-10)
        assert abs(res.value) <= 1e-8 * SW.M * SW.T

    def test_swap_symmetry(self):
        a = I_integral(60.0, 11.0, SW, tol=1e-10)
        b = I_integral(11.0, 60.0, SW, tol=1e-10)
        assert a.value == pytest.approx(b.value, abs=1e-8)

    def test_below_resonance_decay(self):
        # v, w <= T/4 keeps the phase derivative away from the weight's
        # oscillation frequency, so I is negligible
        grid = np.linspace(0.0, SW.T / 4.0, 5)
        for v in grid:
            for w in (0.0, SW.T / 8.0, SW.T / 4.0):
                res = I_integral(float(v), float(w), SW, tol=1e-10)
                assert abs(res.value) / (SW.M * SW.T) <= 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            I_integral(-1.0, 0.0, SW)


class TestBesselHDirect:
    def test_y_reciprocity(self):
        a = bessel_H_direct(300.0, 1.4, SW, tol=1e-8)
        b = bessel_H_direct(300.0, 1.0 / 1.4, SW, tol=1e-8)
        assert abs(a.value.real - b.value.real) <= 10.0 * max(a.err_estimate, b.err_estimate)

    def test_refinement(self):
        a = bessel_H_direct(200.0, 2.0, SW, tol=1e-6)
        b = bessel_H_direct(200.0, 2.0, SW, tol=1e-8)
        assert abs(a.value - b.value) <= 10.0 * max(a.err_estimate, 1e-7)

    def test_small_u_regime(self):
        # H is ~1e-13 here from terms of size ~10: an absolute tol of 1e-12
        # is out of reach in double precision, 1e-10 converges
        res = bessel_H_direct(0.05, 1.0, SW, tol=1e-10)
        assert res.converged
        assert abs(res.value.real) + res.err_estimate <= 1e-8


    def test_kernel_flag_reaches_result(self, monkeypatch):
        # no refinement round allowed: neither route can confirm its grid, for
        # one x, a kernel batch over three octaves or a series-only batch
        xs, sw = np.array([5.5, 9.0, 20.0]), SpectralWeight(3.0, 1.0)
        small = np.array([0.5, 2.0])
        assert bessel_H_direct(10.0, 1.0, SW).converged
        assert bessel_H_many(xs, 1.0, sw)[0].converged
        assert bessel_H_many(small, 1.0, sw)[0].converged
        monkeypatch.setattr(quadrature, "_ROUNDS", 0)
        assert not bessel_H_direct(10.0, 1.0, SW).converged
        assert not bessel_H_many(xs, 1.0, sw)[0].converged
        assert not bessel_H_many(small, 1.0, sw)[0].converged

    @pytest.mark.parametrize("y", [1.0, 1.0 / math.sqrt(3.0)])
    def test_series_route_reaches_tight_tol(self, y):
        # a per-panel budget of tol * width / span would lie below rounding
        # here; refining the whole grid confirms every x
        res, series = bessel_H_many([0.02, 0.1, 0.5, 1.0], y, SpectralWeight(14.0, 4.0), 1e-13)
        assert series == 4
        assert res.converged
        assert np.all(res.err_estimate <= 1e-13)

    @pytest.mark.parametrize("M", [1.0, 1.5])
    @pytest.mark.parametrize("y", [1.0, 1.0 / math.sqrt(3.0)])
    def test_routes_agree_below_series_max(self, M, y):
        # the kernel route is exact for every x > 0, one contour per octave
        sw, tol = SpectralWeight(3.0, M), 1e-12
        xs = np.array([0.02, 0.05, 0.2, 0.5, 1.0, 2.0, 3.5, SERIES_X_MAX])
        series, count = bessel_H_many(xs, y, sw, tol)
        assert count == xs.size and series.converged
        octave = np.floor(np.log2(xs))
        for j in np.unique(octave):
            mask = octave == j
            kernel = besselintegral._bessel_H_kernel(xs[mask], y, sw, tol)
            assert kernel.converged
            gap = np.abs(series.value[mask] - kernel.value)
            assert np.all(gap <= series.err_estimate[mask] + kernel.err_estimate + 1e-13)

    @pytest.mark.parametrize(
        "x,y",
        [
            (0.05, 1.0),
            (0.5, math.sqrt(2.0)),
            (3.0, 1.0 / math.sqrt(3.0)),
            (10.0, 0.5),
            (40.0, math.sqrt(5.0 / 8.0)),
            (20.0, 2.0),
        ],
    )
    def test_matches_mpmath_bessel_integral(self, x, y):
        # independent of kernel_b_block and of either route: B(t, x) =
        # -pi Im J_{2it}(x) / sinh(pi t), from mpmath's Bessel J of complex
        # order, and tanh(pi t) / sinh(pi t) = 1 / cosh(pi t)
        sw = SpectralWeight(3.0, 1.0)
        res = bessel_H_direct(x, y, sw, tol=1e-12)
        with mp.workdps(20):
            T, M, log_y = mp.mpf(sw.T), mp.mpf(sw.M), mp.log(mp.mpf(y))

            def f(t):
                h = mp.exp(-(((t - T) / M) ** 2)) + mp.exp(-(((t + T) / M) ** 2))
                b_tanh = -mp.pi * mp.im(mp.besselj(2j * t, x)) / mp.cosh(mp.pi * t)
                return t * h * mp.cos(2 * t * log_y) * b_tanh

            want = float(4 / mp.pi**2 * mp.quad(f, mp.linspace(0, sw.t_upper, 11)))
        assert res.converged
        assert abs(res.value.real - want) <= res.err_estimate

    def test_evaluations_count_kernel_table_entries(self):
        # both routes count kernel-table entries: a batch of three equal x
        # fills three times the series table of one
        sw = SpectralWeight(3.0, 1.0)
        one, _ = bessel_H_many([0.5], 1.0, sw)
        three, _ = bessel_H_many([0.5, 0.5, 0.5], 1.0, sw)
        assert three.evaluations == 3 * one.evaluations


def contour_oracle_H(x: float, y: float, sw: SpectralWeight, tol: float) -> float:
    """H(x, y) the unswapped way: the t-quadrature of t h(t; y) tanh(pi t)
    B(t, x), with B from kernel_b_block's contour; test-local oracle."""
    flags = []

    def f(t):
        # kernel_b_block fits its legs to a block's smallest and largest t:
        # blocks of 256 keep the legs that t near 0 need off the other t
        b_vals = np.empty(t.size)
        for i in range(0, t.size, 256):
            b_vals[i : i + 256], _, ok = kernel_b_block(t[i : i + 256], x, tol=1e-12)
            flags.append(ok)
        return (4.0 / math.pi**2) * t * weight_h_y(t, y, sw) * np.tanh(math.pi * t) * b_vals

    # panels of ~6 radians of the twist's and the kernel's phase in t
    rate = 2.0 * abs(math.log(y)) + 2.0 * math.asinh(2.0 * sw.t_upper / x)
    panels = max(8, int(rate * sw.t_upper / 6.0) + 8)
    res = adaptive_quadrature(f, 0.0, sw.t_upper, tol, initial_panels=panels)
    assert res.converged and all(flags)
    return res.value.real


class TestSwappedKernelRoute:
    """x > SERIES_X_MAX: H with the integrals swapped, against the contour oracle."""

    @pytest.mark.parametrize(
        "T,M,x,y",
        [(3.0, 1.0, x, y) for x in (5.5, 20.0, 50.3) for y in (1.0, 0.5, 1.0 / math.sqrt(3.0))]
        + [(50.0, 8.0, 10.0, 1.0), (50.0, 8.0, 200.0, 2.0), (50.0, 8.0, 300.0, 1.4)],
    )
    def test_matches_contour_oracle(self, T, M, x, y):
        sw, tol = SpectralWeight(T, M), 1e-11
        assert x > SERIES_X_MAX
        res = bessel_H_direct(x, y, sw, tol=tol)
        assert res.converged
        assert res.err_estimate <= tol
        assert abs(res.value.real - contour_oracle_H(x, y, sw, tol)) <= res.err_estimate + 1e-10

    def test_batch_matches_per_x_calls(self):
        # x over four octaves share one contour per octave in bessel_H_many
        sw, y, tol = SpectralWeight(3.0, 1.0), 1.0 / math.sqrt(3.0), 1e-10
        xs = np.array([5.5, 7.0, 9.0, 13.0, 20.0, 27.0, 41.0, 60.0])
        batch, series = bessel_H_many(xs, y, sw, tol=tol)
        assert batch.converged and series == 0
        assert np.all(batch.err_estimate <= tol)
        for x, value in zip(xs, batch.value):
            assert value == pytest.approx(bessel_H_direct(x, y, sw, tol=tol).value.real, abs=1e-12)

    def test_mixed_twists_match_one_twist_calls(self):
        # terms of three twists on both routes share one call: one series
        # table and one k_1 contour per octave for every twist
        sw, tol = SpectralWeight(3.0, 1.0), 1e-10
        xs = np.array([0.1, 0.5, 2.0, 3.0, 4.5, 5.5, 7.0, 9.0, 13.0, 20.0, 30.0, 41.0])
        ys = np.resize([1.0, 0.5, math.sqrt(5.0 / 8.0)], xs.size)
        batch, series = bessel_H_many(xs, ys, sw, tol=tol)
        assert batch.converged and series == 5
        for y in np.unique(ys):
            mask = ys == y
            one, _ = bessel_H_many(xs[mask], y, sw, tol=tol)
            assert one.converged
            gap = np.abs(batch.value[mask] - one.value)
            assert np.all(gap <= batch.err_estimate[mask] + one.err_estimate)

    def test_rounding_bar_covers_a_finer_grid(self, monkeypatch):
        # at T=50 the legs carry terms ~1e3 times the smallest H here, so the
        # value two refinements finer moves by rounding alone, by up to ~1e-12:
        # only a bar from the terms' absolute sum covers that
        sw, xs = SpectralWeight(50.0, 8.0), np.linspace(10.0, 19.0, 10)
        res, _ = bessel_H_many(xs, 1.0, sw, 1e-11)
        assert res.converged
        monkeypatch.setattr(quadrature, "_ROUNDS", 3)
        # no change meets tol 1e-300, so every one of the 3 refinements runs
        finer, _ = bessel_H_many(xs, 1.0, sw, 1e-300)

        # r-nodes times t-nodes of each octave's contour, every panel count
        # ceil(n (3/2)^level): res stopped at level 1, finer ran to level 3
        def entries(level):
            total = 0
            for octave in (xs[xs < 16.0], xs[xs >= 16.0]):
                legs, counts, t_panels = besselintegral._contour(octave, np.zeros(1), sw)
                r_nodes = sum(16 * refined_panels(n, level) for n in counts)
                total += r_nodes * 16 * refined_panels(t_panels, level)
            return total

        assert res.evaluations == entries(0) + entries(1)
        assert finer.evaluations == sum(entries(level) for level in range(4))
        assert np.all(np.abs(finer.value - res.value) <= res.err_estimate)

    def test_memory_is_bounded(self):
        # the check grid here is ~2,000 r-nodes by ~850 t-nodes, ~27 MB as
        # one pair of real tables; blocks of 256 rows keep it below 10 MB
        tracemalloc.start()
        try:
            bessel_H_direct(300.0, 1.4, SpectralWeight(50.0, 8.0), tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_memory_guard_at_paper_scale(self):
        # 512 terms of one call at T=50, M=8: when this route built (r, t)
        # phase tables, its tracemalloc peak was 19,973,162 bytes (numpy 2.4,
        # Python 3.11); the panel-factored k_1 tables must not need more
        xs = np.linspace(10.0, 19.0, 512)
        tracemalloc.start()
        try:
            res, _ = bessel_H_many(xs, 1.0, SW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= 19_973_162

    @pytest.mark.parametrize(
        "T,M,xs,per_leg,bound",
        [(3.0, 1.0, (5.5, 7.9), None, 2.0), (50.0, 8.0, (10.0, 15.9), 10, 8.0)],
    )
    def test_factored_k1_matches_mpmath_on_every_leg(self, T, M, xs, per_leg, bound):
        # k_1(r) = sum_t f cos(2tr) over the same t-nodes, summed by mpmath
        # at 30 digits, at the first grid's r-nodes on each leg (at T=50, where
        # a leg has up to 2,304 nodes and the t-grid 1,568, at per_leg nodes
        # from end to end): within the bar, 8 eps times the absolute sum of
        # the terms. At T=3 the bound is 2 eps: the panel factoring reads 0.9
        # eps there, and 3.4 eps without its first-order offsets correction
        sw, log_y = SpectralWeight(T, M), np.log([1.0, 0.5])
        legs, counts, t_panels = besselintegral._contour(np.array(xs), log_y, sw)
        t, f = besselintegral._t_weights(sw, t_panels, 0)
        for leg, n in zip(legs, counts):
            r = besselintegral._contour_nodes([leg], [n], 0)[0]
            if per_leg is not None:
                r = r[np.unique(np.linspace(0, r.size - 1, per_leg).round().astype(int))]
            k = besselintegral._cos_sum(r, t, f)
            size = np.cosh(2.0 * np.multiply.outer(r.imag, t)) @ f
            with mp.workdps(30):
                tf = [(mp.mpf(2.0 * ti), mp.mpf(fi)) for ti, fi in zip(t, f)]
                sums = [mp.fsum(fi * mp.cos(ti * mp.mpc(z)) for ti, fi in tf) for z in r]
            want = np.array([complex(v) for v in sums])
            assert np.all(np.abs(k - want) <= bound * np.finfo(float).eps * size)

    def test_kernel_memory_is_bounded_in_terms(self):
        # 2,000 terms of one octave: phase tables over all of them at once
        # would take ~41 MB; blocks of 512 terms keep the peak near 11 MB
        rng = np.random.default_rng(3)
        xs = rng.uniform(8.0, 15.9, 2000)
        ys = np.exp(rng.uniform(-0.5, 0.5, 2000))
        tracemalloc.start()
        try:
            res = besselintegral._bessel_H_kernel(xs, ys, SpectralWeight(3.0, 1.0), 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 20_000_000


# the bench's windows (closure; decomposition) and T=14
WINDOWS = [(3.0, 1.0, 1e-8), (3.0, 1.5, 1e-6), (14.0, 4.0, 1e-8)]
SERIES_PHASE_ROUNDING = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the series bar 8 eps sum_t f |B| leaves out the rounding of each node's "
    "phase 2t log(x/2) - arg Gamma(1 + 2it), ~eps 2t log(2t) relative",
)


@pytest.mark.parametrize(
    "series,T,M,tol",
    [(False, *w) for w in WINDOWS]
    + [(True, *w) for w in WINDOWS[:2]]
    + [pytest.param(True, *WINDOWS[2], marks=SERIES_PHASE_ROUNDING)],
)
def test_bars_cover_two_refinements_finer(monkeypatch, series, T, M, tol):
    # the c-sum terms 4 pi sqrt(mn)/c of the closure's and the
    # decomposition's pairs m <= n <= 8, each route in one call: every
    # bar covers the value on the grid two refinements past the one it
    # stopped at. At T=14 the series values two grids finer move by up to
    # 1.46 times their bars, by rounding alone
    mn = np.array([(m, n) for m in range(1, 9) for n in range(m, 9)], dtype=float)
    cs = np.arange(1.0, 41.0)
    xs = (4.0 * np.pi * np.sqrt(mn[:, 0] * mn[:, 1])[:, None] / cs).ravel()
    ys = np.repeat(np.sqrt(mn[:, 0] / mn[:, 1]), cs.size)
    terms = (xs <= SERIES_X_MAX) == series
    checks = two_refinements_finer(monkeypatch, besselintegral)
    res, _ = bessel_H_many(xs[terms], ys[terms], SpectralWeight(T, M), tol)
    assert res.converged and len(checks) == (1 if series else 5)
    for call, finer in checks:
        assert np.all(np.abs(finer - call.value) <= call.err_estimate)


@pytest.mark.parametrize("T,M,tol", WINDOWS)
def test_H0_bar_covers_two_refinements_finer(monkeypatch, T, M, tol):
    # H0 = sum_t f/2 carries the rounding bar of every H-route sum, so a
    # change of exactly 0 does not read as a bar of 0
    checks = two_refinements_finer(monkeypatch, besselintegral)
    res = diagonal_H0(SpectralWeight(T, M), tol)
    assert res.converged and len(checks) == 1
    call, finer = checks[0]
    assert call.err_estimate > 0
    assert abs(finer - call.value) <= call.err_estimate


def _reduced_H(x: float, y: float, sw: SpectralWeight, tol: float):
    """Re e^{2i(v+w)} I(v, w) at v = xy/4, w = x/(4y), the stationary-phase
    form of H(x, y), with the phase reduced mod 2 pi; and the I result."""
    v, w = x * y / 4.0, x / (4.0 * y)
    reduced = I_integral(v, w, sw, tol=tol)
    phase = np.exp(2j * math.pi * ((v + w) / math.pi % 1.0))
    return float((phase * reduced.value).real), reduced


class TestDualRoute:
    @pytest.mark.parametrize(
        "vw_sum,vw_diff",
        [(200.0, 50.0), (150.0, 40.0), (400.0, 65.0)],
    )
    def test_resonant_agreement(self, vw_sum, vw_diff):
        # v - w near T puts the stationary point inside the window; the
        # routes agree to ~1e-12 relative there
        y = math.sqrt((vw_sum + vw_diff) / (vw_sum - vw_diff))
        x = 4.0 * vw_sum / (y + 1.0 / y)
        direct = bessel_H_direct(x, y, SW, tol=1e-8)
        asym, reduced = _reduced_H(x, y, SW, 1e-8)
        assert direct.converged and reduced.converged
        H = direct.value.real
        assert abs(H) > 1e-3  # actually resonant
        assert abs(H - asym) <= 1e-10 * abs(H) + 10.0 * (direct.err_estimate + reduced.err_estimate)

    def test_off_resonance_both_tiny(self):
        # u <= 0.3: both routes are below 1e-8 in size
        y = 1.0
        x = 0.15
        direct = bessel_H_direct(x, y, SW, tol=1e-10)
        reduced = I_integral(x * y / 4, x / (4 * y), SW, tol=1e-12)
        assert direct.converged and reduced.converged
        assert abs(direct.value) + direct.err_estimate <= 1e-8
        assert abs(reduced.value) + reduced.err_estimate <= 1e-8

    def test_report_symmetry_under_y_inversion(self):
        # H and its stationary-phase form are each invariant under y -> 1/y,
        # and agree at both
        y, x = 1.5, 350.0
        a, b = bessel_H_direct(x, y, SW, tol=1e-8), bessel_H_direct(x, 1.0 / y, SW, tol=1e-8)
        (asym_a, red_a), (asym_b, red_b) = _reduced_H(x, y, SW, 1e-8), _reduced_H(x, 1.0 / y, SW, 1e-8)
        assert a.converged and b.converged and red_a.converged and red_b.converged
        bar_a, bar_b = a.err_estimate + red_a.err_estimate, b.err_estimate + red_b.err_estimate
        assert a.value.real == pytest.approx(b.value.real, abs=10 * (bar_a + bar_b))
        assert asym_a == pytest.approx(asym_b, abs=1e-7)
        assert abs(a.value.real - asym_a) <= 1e-10 * abs(a.value.real) + 10.0 * bar_a
        assert abs(b.value.real - asym_b) <= 1e-10 * abs(b.value.real) + 10.0 * bar_b


def test_smallx_scan_rows():
    # x (y + 1/y) = 0.1 lies far below the resonance at T = 50: H is tiny
    ys = np.array([1.0, 2.0])
    res, _ = bessel_H_many(0.1 / (ys + 1.0 / ys), ys, SW, 1e-10)
    assert res.converged
    assert np.all(np.abs(res.value) + res.err_estimate <= 1e-8)


class TestResidueExpansion:
    """H = sum_{k<K} r_k J_{2k+1}(x) + E_K, |E_K| <= B_K (x/2)^{2K} I_0(x)."""

    @pytest.mark.parametrize("T,M", [(3.0, 1.0), (3.0, 1.5), (14.0, 4.0)])
    @pytest.mark.parametrize("y", [1.0, 0.5, 1.0 / math.sqrt(3.0)])
    def test_bound_holds_against_exact_H(self, T, M, y):
        sw = SpectralWeight(T, M)
        xs = np.array([0.02, 0.1, 0.5, 1.0])
        H, _ = bessel_H_many(xs, y, sw, 1e-13)
        assert H.converged
        (r,), (B,) = residue_expansion(np.array([y]), sw)
        for i, x in enumerate(xs):
            # J_{2k+1} and I_0 from mpmath, independent of specfun.bessel_j
            jn = [float(mp.besselj(2 * k + 1, x)) for k in range(r.size)]
            bound = B * (x / 2.0) ** (2.0 * np.arange(1, r.size + 1)) * float(mp.besseli(0, x))
            for K in range(1, r.size + 1):
                gap = abs(H.value[i] - np.dot(r[:K], jn[:K]))
                assert gap <= bound[K - 1] + H.err_estimate[i]

    def test_rows_do_not_depend_on_the_batch(self):
        # the 256 twists of the block (16, 32] span several blocks of lines;
        # each row is bit for bit the one-twist call, and no twist gives (0, K)
        sw = SpectralWeight(14.0, 4.0)
        ns = np.arange(17, 33)
        ys = np.sqrt(np.outer(ns, 1.0 / ns)).ravel()
        r, B = residue_expansion(ys, sw)
        assert r.shape == B.shape == (ys.size, 5)
        for i, y in enumerate(ys):
            (r1,), (B1,) = residue_expansion(np.array([y]), sw)
            assert np.array_equal(r1, r[i]) and np.array_equal(B1, B[i])
        assert [a.shape for a in residue_expansion(np.array([]), sw)] == [(0, 5), (0, 5)]

    def test_bound_matches_mpmath_line_integral(self):
        # B_K = (4/pi) int_0^inf |t h(t; y)| / (cosh(pi s) |Gamma(1 + 2K + 2is)|) ds
        # on t = s - iK, the line the residue expansion moves H to
        sw, y = SpectralWeight(3.0, 1.5), 1.0 / math.sqrt(3.0)
        B = residue_expansion(np.array([y]), sw)[1][0]
        with mp.workdps(20):
            T, M, log_y = mp.mpf(sw.T), mp.mpf(sw.M), mp.log(mp.mpf(y))
            for K in range(1, B.size + 1):

                def f(s):
                    t = s - 1j * K
                    h = mp.exp(-(((t - T) / M) ** 2)) + mp.exp(-(((t + T) / M) ** 2))
                    num = abs(t * h * mp.cos(2 * t * log_y))
                    return num / (mp.cosh(mp.pi * s) * abs(mp.gamma(1 + 2 * K + 2j * s)))

                want = float(4 / mp.pi * mp.quad(f, mp.linspace(0, T + 12 * M, 13)))
                assert B[K - 1] == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: bessel_H_many([[1.0, 8.0]], 1.0, SW3), "1-d array of positive x"),
        (lambda: bessel_H_many([8.0, 0.0], 1.0, SW3), "1-d array of positive x"),
        (lambda: bessel_H_many([1.0, 8.0], 0.0, SW3), "y must be positive"),
        (lambda: bessel_H_many([1.0, 8.0], [1.0, -2.0], SW3), "y must be positive"),
        # an infinite x or y is rejected before it reaches a panel count
        (lambda: bessel_H_many([1.0, math.inf], 1.0, SW3), "x must be finite"),
        (lambda: bessel_H_many([1.0, 8.0], [1.0, math.inf], SW3), "y must be positive and finite"),
    ],
    ids=["many-2d", "many-x0", "many-y0", "many-y-negative", "many-x-inf", "many-y-inf"],
)
def test_rejects_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
