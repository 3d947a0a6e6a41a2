"""Special functions against frozen mpmath oracles and structural identities."""

import math

import mpmath as mp
import numpy as np
import pytest

from specpoint import specfun

# (Re z, Im z, Re loggamma, Im loggamma), mpmath at 30 digits
LOGGAMMA_TABLE = [
    (1.0, 0.0, 0.0, 0.0),
    (0.5, 0.0, 0.5723649429247001, 0.0),
    (5.0, 0.0, 3.1780538303479458, 0.0),
    (3.0, 4.0, -1.7566267846037842, 4.742664438034658),
    (-2.5, 1.0, -2.3441906524655924, -8.304127986657926),
    (-7.2, -3.1, -16.224565338943513, 17.780650494357356),
    (0.5, 40.0, -61.912914538591195, 107.55621986920906),
    (60.0, 80.0, 140.7434471619671, 343.5870136844544),
    (-20.0, 0.5, -42.01826452939593, -62.89233786708016),
]

# (Re s, Im s, Re zeta, Im zeta), mpmath at 30 digits
ZETA_TABLE = [
    (2.0, 0.0, 1.6449340668482264, 0.0),
    (4.0, 0.0, 1.0823232337111381, 0.0),
    (1.0, 2.0, 0.5981655697623818, -0.35185474521784527),
    (1.5, 30.0, 0.6908557315228129, -0.3671427473747212),
    (1.0, 200.0, 2.5959090630701374, -1.0525862652278353),
    (2.5, -14.0, 0.7873680077795787, -0.018639750419773404),
    (1.0, 9500.0, 2.42959305549364, -1.2279702911414452),
]


class TestLogGamma:
    def test_classical_values(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
        assert specfun.log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    @pytest.mark.parametrize("re,im,lre,lim", LOGGAMMA_TABLE)
    def test_frozen_oracle(self, re, im, lre, lim):
        got = specfun.log_gamma(complex(re, im))
        want = complex(lre, lim)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want))

    def test_pole_raises(self):
        for z in [0.0, -1.0, -17.0 + 0.0j]:
            with pytest.raises(ValueError):
                specfun.log_gamma(z)

    def test_recurrence(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z.imag) < 0.05 or abs(z) < 0.05 or abs(z) > 50:
                continue
            lhs = specfun.log_gamma(z + 1)
            rhs = specfun.log_gamma(z) + np.log(complex(z))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_gamma_relative_accuracy(self):
        rng = np.random.default_rng(5)
        mp.mp.dps = 30
        for _ in range(40):
            z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if abs(z) > 100 or (abs(z.imag) < 1e-3 and z.real <= 0.5):
                continue
            ours = specfun.log_gamma(z)
            ref = mp.loggamma(mp.mpc(z))
            err = abs(ours - complex(float(mp.re(ref)), float(mp.im(ref))))
            assert err <= 1e-12 * (1.0 + abs(ours))

    def test_vectorized_matches_scalar(self):
        zs = np.array([1.5 + 2j, -3.3 + 4j, 0.25 - 0.7j])
        vec = specfun.log_gamma(zs)
        for i, z in enumerate(zs):
            assert vec[i] == pytest.approx(specfun.log_gamma(complex(z)), abs=1e-13)


class TestZeta:
    def test_classical_values(self):
        assert specfun.zeta_many(2.0)[0] == pytest.approx(math.pi**2 / 6, rel=1e-12)
        assert specfun.zeta_many(4.0)[0] == pytest.approx(math.pi**4 / 90, rel=1e-12)

    @pytest.mark.parametrize("re,im,zre,zim", ZETA_TABLE)
    def test_frozen_oracle(self, re, im, zre, zim):
        got = specfun.zeta_many(complex(re, im))[0]
        want = complex(zre, zim)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            specfun.zeta_many(1.0)

    def test_truncation_order_consistency(self):
        ts = np.linspacene = np.linspace(-200.0, 200.0, 100)
        s = 1.001 + 1j * np.linspace(-200.0, 200.0, 100)
        a = specfun.zeta_many(s, em_order=8)
        b = specfun.zeta_many(s, em_order=12)
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-10


class TestStationaryPhaseBound:
    def test_zeroth_power(self):
        p = specfun.PhaseBoundParams(2.0, 3.0, 4.0, 5.0, 6.0, 0, (1.0, 3.5))
        assert specfun.stationary_phase_bound(p) == pytest.approx(2.5 * 5.0)

    def test_unit_parameters(self):
        p = specfun.PhaseBoundParams(1, 1, 1, 1, 1, 2, (0.0, 1.0))
        assert specfun.stationary_phase_bound(p) == pytest.approx(9.0)

    def test_monotone_in_r(self):
        vals = []
        for R in [1.0, 10.0, 1e3, 1e6]:
            p = specfun.PhaseBoundParams(1, 1, R, 1, 1, 2, (0.0, 1.0))
            vals.append(specfun.stationary_phase_bound(p))
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            specfun.PhaseBoundParams(0, 1, 1, 1, 1, 1, (0, 1))
        with pytest.raises(ValueError):
            specfun.PhaseBoundParams(1, 1, 1, 1, 1, -1, (0, 1))
        with pytest.raises(ValueError):
            specfun.PhaseBoundParams(1, 1, 1, 1, 1, 1, (2, 1))


class TestInertness:
    def test_constant_function(self):
        prof = specfun.inertness_profile(lambda x: np.ones_like(x), 1.0, (1.0, 2.0), 4)
        assert prof.ratios[0] == pytest.approx(1.0)
        assert all(r <= 1e-6 for r in prof.ratios[1:])

    def test_unit_oscillation_is_not_one_inert(self):
        # f(x) = e(x): |x^i f^(i)| = (2 pi x)^i, so sup on [1,2] is (4 pi)^i
        f = lambda x: np.exp(2j * math.pi * x)
        prof = specfun.inertness_profile(f, 1.0, (1.0, 2.0), 3)
        for i in range(1, 4):
            assert prof.ratios[i] == pytest.approx((4 * math.pi) ** i, rel=5e-2)
        assert prof.max_ratio > 10

    def test_power_weight_is_logt_inert(self):
        # x^(-1/2 - v) times a bump, with X = log T for T = 1e6
        X = math.log(1e6)
        w = specfun.bump(1.0, 2.0)
        f = lambda x: x ** (-0.5 - 0.3) * w(x)
        prof = specfun.inertness_profile(f, X, (1.001, 1.999), 3)
        assert all(r <= 1.0 for r in prof.ratios)

    def test_inert_scale_of_slow_function(self):
        assert specfun.inert_scale(lambda x: 1.0 / x, (1.0, 2.0)) <= 2.5


class TestModelIntegrals:
    def test_zero_weight(self):
        res = specfun.igamma_model_integral(+1, 3.0, 100.0, 1.0, lambda x: np.zeros_like(x))
        assert res.value == 0
        assert specfun.vgamma_extract(3.0, 100.0, lambda x: np.zeros_like(x)) == 0

    def test_plus_sign_decay_rate(self):
        # Calibrate the constant at lambda = 100, then check the decay law at
        # larger lambda. A C^3 window keeps the integral above the quadrature
        # noise floor (an infinitely smooth bump decays below it immediately).
        gamma_exp, rho = 3.0, 1.0

        def w(x):
            x = np.asarray(x, dtype=float)
            u = np.clip((x - rho) / rho, 0.0, 1.0)
            return np.sin(math.pi * u) ** 4

        X = specfun.inert_scale(w, (rho + 1e-9, 2 * rho - 1e-9))
        denom = lambda lam: lam * (rho + rho ** (1.0 / gamma_exp))
        base = abs(specfun.igamma_model_integral(+1, gamma_exp, 100.0, rho, w, tol=1e-13).value)
        assert base > 1e-13  # measurable, not pure quadrature noise
        for A in (1, 2, 3):
            c_fit = base / (rho * (X / denom(100.0)) ** A)
            for lam in (200.0, 400.0, 1000.0):
                res = specfun.igamma_model_integral(+1, gamma_exp, lam, rho, w, tol=1e-13)
                bound = 1.05 * c_fit * rho * (X / denom(lam)) ** A
                assert abs(res.value) <= bound + 10.0 * res.err_estimate + 1e-14

    def test_minus_sign_sqrt_lambda_band(self):
        # stationary point x0 = 1 inside the support for rho = 0.75
        gamma_exp, rho = 3.0, 0.75
        w = specfun.bump(rho, 2 * rho)
        vals = [
            abs(specfun.vgamma_extract(gamma_exp, lam, w, rho=rho))
            for lam in (100.0, 300.0, 1000.0, 3000.0, 10000.0)
        ]
        assert max(vals) <= 2.0 * min(vals)
        assert min(vals) > 0

    def test_minus_sign_offset_support_still_bounded(self):
        # support [sqrt2, 2 sqrt2] avoids the stationary point; the scaled
        # integral must stay bounded over the lambda sweep
        gamma_exp, rho = 3.0, math.sqrt(2.0)
        w = specfun.bump(rho, 2 * rho)
        ref = abs(specfun.igamma_model_integral(-1, gamma_exp, 100.0, rho, w).value) * 10.0
        for lam in (100.0, 1000.0, 10000.0):
            res = specfun.igamma_model_integral(-1, gamma_exp, lam, rho, w)
            assert abs(res.value) * math.sqrt(lam) <= max(1.0, ref * math.sqrt(100.0))

    def test_lambda_derivative_inertness(self):
        # lambda * dv/dlambda stays comparable to the inert scale of the weight
        gamma_exp, rho = 3.0, 0.75
        w = specfun.bump(rho, 2 * rho)
        X = specfun.inert_scale(w, (rho + 1e-9, 2 * rho - 1e-9))
        lam = 400.0
        h = 0.5
        vp = specfun.vgamma_extract(gamma_exp, lam + h, w, rho=rho)
        vm = specfun.vgamma_extract(gamma_exp, lam - h, w, rho=rho)
        v0 = specfun.vgamma_extract(gamma_exp, lam, w, rho=rho)
        scaled = abs(lam * (vp - vm) / (2 * h))
        assert scaled <= 5.0 * X * max(abs(v0), 1e-3)
