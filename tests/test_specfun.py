"""Special functions against frozen mpmath oracles and structural identities."""

import math
import tracemalloc

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


class TestBesselJ:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_matches_mpmath(self, n):
        # relative to J_n itself: at x = 1e-3, J_9 ~ 2.7e-36
        xs = np.array([1e-3, 0.05, 0.5, 5.0, 25.0, 60.0])
        got = specfun.bessel_j(n, xs)
        want = np.array([float(mp.besselj(n, x)) for x in xs])
        assert np.all(np.abs(got - want) <= 5e-14 * np.abs(want))

    def test_pair_major_rows_match_per_element_calls(self):
        # rows x = 4 pi sqrt(mn)/c, c = 1..521, of two pairs: the x go in by
        # size, each with its own node count, and come back in place; every
        # order at once (the series below each order and one trapezoid table
        # from it on) gives the same rows
        c = np.arange(1, 522)
        xs = 4.0 * math.pi * np.sqrt(np.array([[1.0], [12.0]])) / c
        orders = np.array([1, 3, 5, 7, 9])
        every = specfun.bessel_j(orders, xs)
        assert every.shape == (orders.size,) + xs.shape
        for n, row in zip(orders, every):
            got = specfun.bessel_j(int(n), xs)
            assert got.shape == xs.shape
            want = np.array([specfun.bessel_j(int(n), np.array([x]))[0] for x in xs.flat])
            want = want.reshape(xs.shape)
            assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
            assert np.all(np.abs(row - want) <= 2e-15 * np.abs(want))

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(1, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("n", [-1, 1.5, np.array([[1, 3]])])
    def test_rejects_bad_orders(self, n):
        with pytest.raises(ValueError):
            specfun.bessel_j(n, np.array([1.0]))


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

    def test_rejects_points_past_the_cap(self):
        # N ~ 0.8 |Im s| terms a point: 1.6M at the 2e6 of a T = 1e6 window
        cap = specfun._ZETA_IM_MAX
        assert cap >= 1e4
        assert np.isfinite(specfun.zeta_many(1.0 - 1j * cap)[0])
        for s in (1.0 + 1j * np.nextafter(cap, math.inf), np.array([2.0, 1.0 + 2e6j]), 3.0 - 1e9j):
            with pytest.raises(ValueError, match=r"zeta_many takes \|Im s\| <= 100000, got"):
                specfun.zeta_many(s)

    def test_truncation_order_consistency(self):
        # the fixed Bernoulli order against mpmath along 1.001 + it, |t| <= 200
        s = 1.001 + 1j * np.linspace(-200.0, 200.0, 100)
        got = specfun.zeta_many(s)
        with mp.workdps(20):
            want = np.array([complex(mp.zeta(mp.mpc(z.real, z.imag))) for z in s])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_memory_is_bounded(self, monkeypatch):
        # max|t| ~ 1e4 over 512 points: N ~ 8,000, so one (points x n)
        # table alone would take ~66 MB; blocks of points keep it near 1 MB
        s = 1.0 + 1j * np.linspace(1.0, 1e4, 512)
        tracemalloc.start()
        try:
            got = specfun.zeta_many(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        # every point's sum is the one a single table gives (8 MB at 64 points, the
        # largest |t| among them, so the same N)
        monkeypatch.setattr(specfun, "_ZETA_BLOCK", 1 << 30)
        assert np.array_equal(got[7::8], specfun.zeta_many(s[7::8]))
