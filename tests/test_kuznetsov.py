"""The trace-identity assembly: structural properties and a data-free closure.

With spectral data the identity only balances for genuine spectra, so the
tests that take forms are dataset-independent: symmetries, closed forms,
monotonicities, and the degenerate cases. The identity itself is checked
end to end in TestDataFreeClosure, at a window low enough that the
cuspidal side is negligible and no spectral data is needed: there every
residual must lie within the reported bars, and the Petersson-subtracted
c-sum is checked against per-modulus terms. TestPetersson checks the
closed forms of the weight-4 and weight-6 c-sums it rests on.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from specpoint.arith import kloosterman
from specpoint import arith, besselintegral, kuznetsov
from specpoint.besselintegral import _K_MAX, R_CUT_FACTOR, SpectralWeight, bessel_H_direct, residue_expansion
from specpoint.kuznetsov import (
    _kloosterman_block,
    decomposition,
    diagonal_closed_form,
    diagonal_H0,
    diagonal_term,
    eisenstein_side,
    kloosterman_side,
    p_bound_rhs,
    spectral_tail_bar,
    trace_residual,
)
from specpoint.quadrature import _ROUNDING
from specpoint.sievebench import Sequence
from specpoint.specfun import bessel_j, log_gamma
from specpoint.spectraldata import MaassForm

from oracles import eisenstein_gauss_oracle, synthetic_spectrum, weight_h_y

SW = SpectralWeight(T=14.0, M=4.0)
SW3 = SpectralWeight(T=3.0, M=1.0)


@pytest.fixture(scope="module")
def forms():
    return synthetic_spectrum(count=16, n_max=64, t_lo=4.0, t_hi=40.0, seed=99)


def petersson_c_sum(mn, weights, s_vals, sw: SpectralWeight, tol: float):
    """_petersson_c_sum on the pairs' residue_expansion rows, as _identity passes them."""
    residues = residue_expansion(np.sqrt(mn[:, 0] / mn[:, 1]), sw)
    return kuznetsov._petersson_c_sum(mn, weights, s_vals, residues, sw, tol)


def spectral_side(m: int, n: int, sw: SpectralWeight, forms) -> float:
    """The cuspidal side of the pair (m, n): _cusp_form at u = e_m, v = e_n."""
    return kuznetsov._cusp_form(np.array([m, n]), *np.eye(2), sw, forms)


class TestSpectralSide:
    def test_all_lambda_one(self, forms):
        got = spectral_side(1, 1, SW, forms)
        want = sum(f.omega * weight_h_y(f.t, 1.0, SW) for f in forms)
        assert got == pytest.approx(want, rel=1e-14)

    def test_empty_forms_record_the_tail(self):
        # no warning: the report carries the uncovered spectrum as a number
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = trace_residual(1, 1, SW, [], tol=1e-4)
        assert rep.S == 0.0
        assert rep.params["n_forms"] == 0
        assert rep.spectral_tail == pytest.approx(spectral_tail_bar(SW, []), rel=1e-12)
        assert rep.spectral_tail > 0

    def test_short_coverage_records_the_tail(self, forms):
        short = [f for f in forms if f.t <= 20.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = trace_residual(1, 2, SW, short, tol=1e-4)
        assert rep.params["n_forms"] == len(short)
        want = spectral_tail_bar(SW, short) * arith.divisor_count(1) * arith.divisor_count(2)
        assert rep.spectral_tail == pytest.approx(want, rel=1e-12)
        assert rep.spectral_tail > 0

    def test_no_tail_below_first_cusp_form(self):
        # with no data the uncovered range starts at t_1 ~ 9.53, where the
        # weight around T = 3 is ~3e-19, not at t = 0
        assert spectral_tail_bar(SpectralWeight(3.0, 1.0), []) < 1e-18

    @pytest.mark.parametrize(
        "T,M,t,vanishes",
        [(1.0, 1.0, None, True), (1.1, 1.0, None, False), (14.0, 4.0, 48.0, True), (14.0, 4.0, 47.9, False)],
    )
    def test_no_tail_past_the_window(self, T, M, t, vanishes):
        # the bar integrates from max(t_1, the largest t) to t_upper + 2M,
        # which is 9.5 < t_1 ~ 9.53 at T = M = 1, 9.6 at T = 1.1, and 48 at
        # T = 14, M = 4
        forms = [] if t is None else [MaassForm(t=t, omega=1.0, hecke=np.array([1.0]))]
        bar = spectral_tail_bar(SpectralWeight(T, M), forms)
        assert bar >= 0.0 and (bar == 0.0) == vanishes

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="with no forms the bar caps omega_1 ~ 2.935 at 1"
    )
    @pytest.mark.parametrize("T,M", [(6.0, 1.0), (7.0, 1.0), (8.0, 1.0), (3.0, 1.5)])
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
    def test_data_free_tail_bar_covers_residual(self, T, M, m, n):
        # at T = 7, (1, 1) the residual is 4.8e-3 against a tail bar of 4.9e-4;
        # at T = 3, M = 1.5 (the decompose window) 1.7e-8 against 1.6e-9
        rep = trace_residual(m, n, SpectralWeight(T, M), [], tol=1e-10)
        assert rep.residual <= rep.spectral_tail + rep.skip_bar + rep.quadrature_err

    def test_reordering_oracle(self, forms):
        y = math.sqrt(2.0 / 3.0)
        forward = spectral_side(2, 3, SW, forms)
        backward = sum(
            f.omega * weight_h_y(f.t, y, SW) * f.lam(2) * f.lam(3)
            for f in reversed(forms)
        )
        assert forward == pytest.approx(backward, abs=1e-12 * (1 + abs(forward)))


class TestEisenstein:
    def test_positive_at_diagonal(self):
        res = eisenstein_side(1, 1, SW)
        assert res.value.real > 0
        assert res.value.imag == 0.0

    def test_exchange_symmetry(self):
        a = eisenstein_side(2, 3, SW)
        b = eisenstein_side(3, 2, SW)
        assert a.value.real == pytest.approx(b.value.real, abs=1e-10)

    def test_tight_tol_converges(self):
        res = eisenstein_side(2, 4, SW, tol=1e-14)
        assert res.converged
        assert res.err_estimate <= 1e-14

    @pytest.mark.parametrize(
        "m,n,sw", [(1, 1, SW3), (2, 3, SW3), (1, 4, SW3), (2, 3, SW)], ids=["11", "23", "14", "23-T14"]
    )
    def test_matches_polarised_gauss_oracle(self, m, n, sw):
        # the oracle is the quadratic form Q(a) = E(a, a), and the pair is
        # E(e_m, e_n) = (Q(e_m + e_n) - Q(e_m - e_n))/4
        res = eisenstein_side(m, n, sw)
        plus, minus = (eisenstein_gauss_oracle([1.0, s], [m, n], sw) for s in (1.0, -1.0))
        want = (plus - minus) / 4.0
        assert res.converged
        assert abs(res.value.real - want) <= res.err_estimate + 1e-12 * abs(want)


class TestDiagonal:
    def test_off_diagonal_is_zero(self):
        assert diagonal_term(2, 3, SW).value == 0

    def test_leading_term_large_t(self):
        sw = SpectralWeight(T=100.0, M=10.0)
        h0 = diagonal_H0(sw)
        want = diagonal_closed_form(sw)
        assert want == pytest.approx(2.0 / (math.pi * math.sqrt(math.pi)) * 1000.0, rel=1e-12)
        assert h0.value.real == pytest.approx(want, rel=1e-3)

    def test_closed_form_at_fifty(self):
        sw = SpectralWeight(T=50.0, M=8.0)
        h0 = diagonal_H0(sw, tol=1e-10)
        assert h0.value.real == pytest.approx(diagonal_closed_form(sw), rel=1e-4)

    @pytest.mark.parametrize("T,M", [(3.0, 1.0), (3.0, 1.5), (14.0, 4.0), (50.0, 8.0)])
    def test_matches_mpmath(self, T, M):
        # H0 = (2/pi^2) int_0^{t_upper} t h(t) tanh(pi t) dt at 30 digits,
        # split at every M so that mpmath's rule resolves the Gaussian
        sw = SpectralWeight(T=T, M=M)
        with mpmath.workdps(30):
            t_mp, m_mp = mpmath.mpf(T), mpmath.mpf(M)

            def f(t):
                h = mpmath.exp(-(((t - t_mp) / m_mp) ** 2)) + mpmath.exp(-(((t + t_mp) / m_mp) ** 2))
                return t * h * mpmath.tanh(mpmath.pi * t)

            points = mpmath.linspace(0, sw.t_upper, math.ceil(sw.t_upper / M) + 1)
            want = float(2 / mpmath.pi**2 * mpmath.quad(f, points))
        h0 = diagonal_H0(sw, tol=1e-10)
        assert h0.converged
        assert h0.value == pytest.approx(want, rel=1e-14)


class TestKloostermanSide:
    def test_zero_c_max(self):
        rep = kloosterman_side(1, 1, SW, 0)
        assert rep.value == 0.0

    @pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (-2, 3)])
    def test_rejects_indices_below_one(self, m, n):
        with pytest.raises(ValueError, match="at least 1"):
            kloosterman_side(m, n, SW3, 8)

    def test_closure_kernel_entries_are_bounded(self):
        # the bench's closure pairs: 6,561,728 H kernel-table entries when
        # every check grid was twice as fine, 4,730,864 at 3/2 as fine
        sw = SpectralWeight(3.0, 1.0)
        reps = [kloosterman_side(m, n, sw, 512, 1e-8) for m in range(1, 5) for n in range(m, 5)]
        assert all(rep.converged for rep in reps)
        assert sum(rep.evaluations for rep in reps) <= 4_800_000

    def test_tight_tol_converges(self):
        # tol 1e-11 at T=50, M=8 needs the series terms confirmed near rounding
        rep = kloosterman_side(1, 1, SpectralWeight(50.0, 8.0), 64, tol=1e-11)
        assert rep.converged
        assert rep.quadrature_err <= 1e-11

    def test_small_mn_large_t(self):
        sw = SpectralWeight(T=60.0, M=6.0)
        rep = kloosterman_side(1, 2, sw, 8, tol=1e-10)
        assert abs(rep.value) <= 1e-6

    def test_doubling_c_within_tail(self):
        a = kloosterman_side(2, 3, SW, 12, tol=1e-8)
        b = kloosterman_side(2, 3, SW, 24, tol=1e-8)
        assert abs(b.value - a.value) <= a.tail_estimate + b.quadrature_err + a.quadrature_err

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 4)])
    def test_batch_matches_per_modulus_terms(self, m, n):
        # the batched c-sum against one bessel_H_direct per modulus, less
        # G_K = sum_{k<K} r_k J_{2k+1}, plus the Petersson closed form
        sw, C = SpectralWeight(T=3.0, M=1.0), 64
        rep = kloosterman_side(m, n, sw, C)
        y = math.sqrt(m / n)
        r = residues(rep.petersson_K, y, sw)
        value = 0.0 if m != n else sum((-1) ** k * rk for k, rk in enumerate(r)) / (2 * math.pi)
        err = size = 0.0
        for c in range(1, C + 1):
            s = kloosterman(m, n, c)
            if abs(s) <= 1e-9:
                continue
            x = 4 * math.pi * math.sqrt(m * n) / c
            h = bessel_H_direct(x, y, sw)
            g = [rk * float(bessel_j(2 * k + 1, x)) for k, rk in enumerate(r)]
            value += s / c * (h.value.real - sum(g))
            err += abs(s) / c * h.err_estimate
            size += abs(s) / c * sum(map(abs, g))
        assert rep.converged
        assert 1 <= rep.petersson_K <= 5
        # the two sums round terms of size |S/c r_k J_{2k+1}| in different orders
        assert rep.value == pytest.approx(value, abs=1e-12 + 16 * np.finfo(float).eps * size)
        assert rep.quadrature_err == pytest.approx(err, rel=1e-3)

    @pytest.mark.parametrize("m,n,series,kernel", [(1, 1, 470, 2), (4, 4, 492, 10)])
    def test_route_counts(self, m, n, series, kernel, monkeypatch):
        # moduli c <= 512; x > 5 for c < 4 pi sqrt(mn)/5. Vanishing sums take
        # no route: for (1, 1), only 472 of the 512 sums exceed _S_VANISH.
        # All 512 sums come from one array-form kloosterman call.
        calls = []
        monkeypatch.setattr(
            kuznetsov, "kloosterman", lambda *args: calls.append(args) or kloosterman(*args)
        )
        rep = kloosterman_side(m, n, SpectralWeight(T=3.0, M=1.0), 512)
        assert len(calls) == 1
        assert (rep.series_terms, rep.kernel_terms) == (series, kernel)
        assert rep.kernel_terms == sum(
            abs(kloosterman(m, n, c)) > 1e-9
            for c in range(1, 513)
            if 4 * math.pi * math.sqrt(m * n) / c > 5.0
        )

    def test_repeat_c_sum_builds_no_unit_table(self, monkeypatch):
        # the half-unit table is kept for the largest C so far: the same or a
        # smaller C reads it, a larger one builds runs of the new moduli only
        sw = SpectralWeight(T=3.0, M=1.0)
        kloosterman_side(1, 2, sw, 64)
        runs = []
        build = arith._unit_run
        monkeypatch.setattr(arith, "_unit_run", lambda lo, hi: runs.append((lo, hi)) or build(lo, hi))
        kloosterman_side(2, 3, sw, 64)
        kloosterman_side(1, 1, sw, 24)
        assert runs == []
        built = arith._HALF_UNITS[-1].size - 1
        # new moduli do not pass through the per-modulus cache either, so
        # no unit table is held both there and in the half table
        info = arith._unit_residues.cache_info()
        kloosterman(1, 1, np.arange(1, built + 6))
        kloosterman_side(1, 1, sw, built + 10)
        assert [c for lo, hi in runs for c in range(lo, hi + 1)] == list(range(built + 1, built + 11))
        assert arith._unit_residues.cache_info() == info

    def test_mixed_twists_match_one_twist_calls(self):
        # one c-sum over the pairs of two twists, each pair with its own y and
        # K, against a call per twist
        sw, C, tol = SpectralWeight(T=3.0, M=1.0), 64, 1e-10
        mn = np.array([[1, 1], [1, 2], [2, 2], [2, 4]])
        weights = np.array([0.3, -1.2, 0.7, 0.5])
        s_vals = np.array([[kloosterman(m, n, c) for c in range(1, C + 1)] for m, n in mn])
        mixed = petersson_c_sum(mn, weights, s_vals, sw, tol)
        parts = [
            petersson_c_sum(mn[p], weights[p], s_vals[p], sw, tol)
            for p in ([0, 2], [1, 3])
        ]
        bar = sum(rep.tail_estimate + rep.quadrature_err for rep in [mixed, *parts])
        assert mixed.converged
        assert abs(mixed.value - sum(rep.value for rep in parts)) <= bar
        assert mixed.petersson_K[::2] == parts[0].petersson_K
        assert mixed.petersson_K[1::2] == parts[1].petersson_K

    def test_batch_memory_is_bounded(self):
        # one t-block of 256 nodes times ~500 moduli at a time, never all nodes
        sw = SpectralWeight(T=3.0, M=1.0)
        tracemalloc.start()
        try:
            kloosterman_side(4, 4, sw, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000


class TestDataFreeClosure:
    """Eis = Diag + Kloos at T = 3, M = 1 with the cuspidal side dropped.

    SL2(Z) has no cusp form with t < t_1 ~ 9.5337 (Booker, Strombergsson
    and Venkatesh, IMRN 2006), so the cuspidal side is below
    exp(-((t_1 - T)/M)^2) ~ 3e-19. For (1, 1) the terms c = 1, 2 have
    x = 4 pi/c > 5 and go through the swapped kernel route of H.
    """

    SW = SpectralWeight(T=3.0, M=1.0)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3)])
    def test_identity_closes(self, m, n):
        eis = eisenstein_side(m, n, self.SW, tol=1e-8).value.real
        diag = diagonal_term(m, n, self.SW, tol=1e-8).value.real
        kloos = kloosterman_side(m, n, self.SW, 64, tol=1e-8)
        assert kloos.converged
        assert abs(eis - diag - kloos.value) < 1e-4

    def closure(self, m, n, C):
        eis = eisenstein_side(m, n, self.SW, tol=1e-8)
        diag = diagonal_term(m, n, self.SW, tol=1e-8)
        kloos = kloosterman_side(m, n, self.SW, C, tol=1e-8)
        residual = abs(eis.value.real - diag.value.real - kloos.value)
        bar = kloos.tail_estimate + kloos.quadrature_err + eis.err_estimate + diag.err_estimate
        return residual, bar, kloos

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(m, 5)])
    def test_bars_hold_at_512(self, m, n):
        # the plain c-sum left 1.9e-7 to 7.9e-7 here, (1, 1) above its bar
        residual, bar, kloos = self.closure(m, n, 512)
        assert kloos.converged
        assert residual <= bar
        assert residual <= 1e-9

    @pytest.mark.parametrize("C", [16, 64])
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (4, 4)])
    def test_bars_hold_at_small_c(self, m, n, C):
        # G_K is asymptotic: at C = 16, K = 5 would take (4, 4) from 0.11 to
        # 4.6, and the bar must not pick it
        residual, bar, kloos = self.closure(m, n, C)
        assert residual <= bar
        if C == 16:
            assert kloos.petersson_K < 5

    def test_large_residue_does_not_win(self):
        # r_4(1/2) ~ -6.6e7: K = 5 leaves a rounding floor of ~2e-8 at (1, 4)
        _, _, kloos = self.closure(1, 4, 512)
        assert kloos.petersson_K < 5
        assert residues(5, 0.5, self.SW)[4] == pytest.approx(-6.6e7, rel=0.01)


def residues(K: int, y: float, sw: SpectralWeight) -> list[float]:
    """r_k(y) = (4/pi) (-1)^k (k + 1/2) h(-i(k + 1/2)) cosh((2k + 1) log y), k < K."""
    out = []
    for k in range(K):
        a = k + 0.5
        h = 2 * math.exp((a * a - sw.T**2) / sw.M**2) * math.cos(2 * a * sw.T / sw.M**2)
        out.append(4 / math.pi * (-1) ** k * a * h * math.cosh(2 * a * math.log(y)))
    return out


class TestPetersson:
    """S_k(SL2(Z)) = 0 for k = 4, 6 (Iwaniec, Topics in Classical Automorphic
    Forms, Thm 3.6), so sum_c S(m,n;c)/c J_{k-1}(4 pi sqrt(mn)/c) is
    -delta_{m,n} i^k/(2 pi). The partial sum over c <= C is off by at most
    sum_{c > C} 2 sqrt(gcd(m, n)) (x_c/2)^{k-1} I_0(x_c)/(k-1)!, from
    Weil's bound with tau(c) <= 2 sqrt(c) and |J_nu(x)| <= (x/2)^nu I_0(x)/nu!."""

    C = 1024

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
    def test_partial_sum_matches_closed_form(self, m, n, k):
        cs = np.arange(1, self.C + 1)
        s_vals = np.array([kloosterman(m, n, int(c)) for c in cs])
        X = 4 * math.pi * math.sqrt(m * n)
        partial = float(np.sum(s_vals / cs * bessel_j(k - 1, X / cs)))
        want = -(1 if m == n else 0) * (1j**k).real / (2 * math.pi)
        nu, c1 = k - 1, self.C + 1
        # sum_{c > C} c^{-nu} <= (C+1)^{-nu} + (C+1)^{1-nu}/(nu - 1)
        c_sum = c1**-nu + c1 ** (1 - nu) / (nu - 1)
        tail = 2 * math.sqrt(math.gcd(m, n)) * (X / 2) ** nu / math.factorial(nu)
        tail *= float(np.i0(X / c1)) * c_sum
        assert abs(partial - want) <= tail


    def test_rounding_bar_covers_bessel_j_below_its_order(self):
        # _petersson_c_sum charges _ROUNDING = 8 eps times |r_k J_{2k+1}(x)|
        # where x < 2k+1 and times |r_k| where x >= 2k+1. On the closure's
        # x = 4 pi sqrt(mn)/c (mn <= 16, c <= 521), against mpmath at 30
        # digits, bessel_j's series errs by <= 6 eps relative below the
        # order and its trapezoid by <= 4.4 eps absolute from it on
        xs = np.unique(4.0 * math.pi * np.sqrt(np.arange(1, 17))[:, None] / np.arange(1, 522))
        orders = 2 * np.arange(_K_MAX) + 1
        got = bessel_j(orders, xs)
        for order, row in zip(orders, got):
            with mpmath.workdps(30):
                want = np.array([float(mpmath.besselj(int(order), mpmath.mpf(v))) for v in xs])
            below = xs < order
            assert np.all(np.abs(row - want)[below] <= _ROUNDING * np.abs(want[below])), order
            assert np.all(np.abs(row - want)[~below] <= _ROUNDING), order

    @pytest.mark.parametrize("C", [1, 7, 199, 944])
    def test_tail_bars_match_the_per_K_loop(self, C):
        # the reference takes one (K, L) at a time, as _tail_bars once did:
        # the same sums in the same order, so the bars and C stay the same
        sw = SpectralWeight(3.0, 1.5)
        ns = np.arange(9, 17)
        iu, ju = np.triu_indices(ns.size)
        mn = np.stack([ns[iu], ns[ju]], axis=1)
        w = np.random.default_rng(3).uniform(-1.0, 1.0, mn.shape[0])
        residues = residue_expansion(np.sqrt(mn[:, 0] / mn[:, 1]), sw)
        X = 4.0 * math.pi * np.sqrt(mn[:, 0] * mn[:, 1])
        pair = np.sqrt(np.gcd(mn[:, 0], mn[:, 1])) * np.abs(w) * np.i0(X / (C + 1))
        nu = np.arange(2 * _K_MAX + 1)
        u = 1.0 / (nu - 0.5)
        order = math.sqrt(C) * (u * math.log(C) + 2.0 + 2.0 * u + u * u)
        order = order * (X[:, None] / (2.0 * C)) ** nu * pair[:, None]
        k = np.arange(_K_MAX)
        term = np.abs(residues[0]) / [math.factorial(2 * j + 1) for j in k] * order[:, 2 * k + 1]
        tail = residues[1] * order[:, 2 * k + 2]
        want = np.empty((mn.shape[0], _K_MAX))
        for K in range(1, _K_MAX + 1):
            want[:, K - 1] = np.min(
                [term[:, K:L].sum(axis=1) + tail[:, L - 1] for L in range(K, _K_MAX + 1)], axis=0
            )
        assert np.array_equal(kuznetsov._tail_bars(mn, w, C, residues), want)

    def test_one_bessel_j_call_per_c_sum(self, monkeypatch):
        # all five orders of G_K come from one pass, whatever the pairs
        calls = []

        def counted(n, x):
            calls.append(np.shape(n))
            return bessel_j(n, x)

        monkeypatch.setattr(kuznetsov, "bessel_j", counted)
        mn = np.array([[1, 1], [1, 3], [2, 4]])
        s_vals = np.stack([kloosterman(int(m), int(n), np.arange(1, 65)) for m, n in mn])
        petersson_c_sum(mn, np.ones(3), s_vals, SpectralWeight(3.0, 1.0), 1e-8)
        assert calls == [(_K_MAX,)]


class TestTraceReport:
    def test_exchange_symmetry(self, forms):
        a = trace_residual(2, 3, SW, forms, tol=1e-7)
        b = trace_residual(3, 2, SW, forms, tol=1e-7)
        assert a.S == pytest.approx(b.S, abs=1e-10)
        assert a.T_eis == pytest.approx(b.T_eis, abs=1e-10)
        assert a.D == b.D
        assert a.P == pytest.approx(b.P, abs=1e-9)
        assert a.residual == pytest.approx(b.residual, abs=1e-9)

    def test_report_fields(self, forms):
        rep = trace_residual(1, 2, SW, forms, tol=1e-7)
        assert rep.residual == pytest.approx(abs(rep.S + rep.T_eis - rep.D - rep.P), rel=1e-12)
        assert rep.rel_residual == pytest.approx(
            rep.residual / max(abs(rep.S + rep.T_eis), abs(rep.D + rep.P)), rel=1e-12
        )
        assert rep.params["ns"] == [1, 2]
        assert rep.params["c_eval"] == rep.params["c_far"] >= 1
        assert len(rep.params["petersson_K"]) == 1
        assert 1 <= rep.params["petersson_K"][0] <= 5
        assert rep.converged is True

    def test_converged_is_and_of_parts(self, forms, monkeypatch):
        c_sum = kuznetsov._petersson_c_sum

        def unconverged(*args, **kwargs):
            rep = c_sum(*args, **kwargs)
            rep.converged = False
            return rep

        monkeypatch.setattr(kuznetsov, "_petersson_c_sum", unconverged)
        assert not trace_residual(1, 2, SW, forms, tol=1e-7).converged

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3)])
    def test_sides_are_the_pair_functions(self, m, n):
        # the pair is the bilinear identity at u = e_m, v = e_n: each side
        # is, bit for bit, the pair's own function at the C it chose
        tol = 1e-8
        rep = trace_residual(m, n, SW3, [], tol=tol)
        C = rep.params["c_eval"]
        assert rep.S == spectral_side(m, n, SW3, []) == 0.0
        assert rep.T_eis == eisenstein_side(m, n, SW3, tol=tol).value.real
        assert rep.D == diagonal_term(m, n, SW3, tol=tol).value.real
        assert rep.P == kloosterman_side(m, n, SW3, C, tol).value
        # C is the smallest modulus whose tail bars sum to at most tol
        mn, w = np.array([[m, n]]), np.ones(1)
        residues = residue_expansion(np.sqrt(mn[:, 0] / mn[:, 1]), SW3)

        def bar(c):
            return np.min(kuznetsov._tail_bars(mn, w, c, residues))

        assert bar(C) <= tol < bar(C - 1)

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_indices_below_one(self, m, n):
        with pytest.raises(ValueError, match="at least 1"):
            trace_residual(m, n, SW3, [])


class TestKloostermanBlock:
    @pytest.mark.parametrize("N", [4, 8])
    def test_matches_scalar_sums(self, N):
        ns = np.arange(N + 1, 2 * N + 1)
        for c in range(1, 201):
            want = np.array([[kloosterman(int(m), int(n), c) for n in ns] for m in ns])
            assert np.max(np.abs(_kloosterman_block(ns, c) - want)) <= 1e-12 * c

    @pytest.mark.parametrize("N", [4, 8])
    def test_array_form_pair_table_matches_product_form(self, N):
        # the table decomposition takes: one array-form call per pair i <= j
        ns = np.arange(N + 1, 2 * N + 1)
        iu, ju = np.triu_indices(N)
        cs = np.arange(1, 201)
        table = np.stack([kloosterman(int(ns[i]), int(ns[j]), cs) for i, j in zip(iu, ju)])
        want = np.stack([_kloosterman_block(ns, int(c))[iu, ju] for c in cs], axis=1)
        assert np.max(np.abs(table - want) / cs) <= 1e-12

    def test_memory_is_linear_in_units(self):
        # a c x c complex table at c = 1021 alone would take 16.7 MB
        ns = np.arange(9, 17)
        tracemalloc.start()
        try:
            _kloosterman_block(ns, 1021)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestDecomposition:
    def test_zero_sequence(self, forms):
        seq = Sequence(N=8, values=np.zeros(8))
        rep = decomposition(seq, SW, forms, tol=1e-6)
        assert rep.S == rep.T_eis == rep.D == rep.P == 0.0

    def test_complex_sequence_rejected(self, forms):
        seq = Sequence(N=8, values=np.full(8, 1j))
        with pytest.raises(ValueError, match="real"):
            decomposition(seq, SW, forms, tol=1e-6)

    def test_single_term_reduces_to_trace_instance(self, forms):
        n = 10
        vals = np.zeros(8)
        vals[n - 9] = 0.7  # a_10 on the block (8, 16]
        seq = Sequence(N=8, values=vals)
        rep = decomposition(seq, SW, forms, tol=1e-7)
        spec = spectral_side(n, n, SW, forms) * 0.49
        eis = eisenstein_side(n, n, SW, tol=1e-9).value.real * 0.49
        assert rep.S == pytest.approx(spec, rel=1e-10)
        assert rep.T_eis == pytest.approx(eis, rel=1e-6)
        assert rep.D == pytest.approx(diagonal_H0(SW).value.real * 0.49, rel=1e-9)

    def test_block_is_the_sum_of_its_pairs(self, forms, monkeypatch):
        # S and T of a block are its pairs' sides averaged against a_i a_j,
        # the off-diagonal pairs included; T's own bar comes from its call
        seen = []

        def spy(*args):
            seen.append(eisenstein_form(*args))
            return seen[-1]

        eisenstein_form = kuznetsov._eisenstein_form
        monkeypatch.setattr(kuznetsov, "_eisenstein_form", spy)
        seq = Sequence(N=4, values=np.random.default_rng(3).uniform(-1.0, 1.0, size=4))
        rep = decomposition(seq, SW, forms)
        monkeypatch.undo()
        (t_res,) = seen
        a, ns = seq.values.real, [int(n) for n in seq.ns]
        spec = np.array([[spectral_side(m, n, SW, forms) for n in ns] for m in ns])
        eis = [[eisenstein_side(m, n, SW) for n in ns] for m in ns]
        value = np.array([[e.value.real for e in row] for row in eis])
        err = np.array([[e.err_estimate for e in row] for row in eis])
        assert rep.S == pytest.approx(a @ spec @ a, rel=1e-12)
        assert abs(rep.T_eis - a @ value @ a) <= np.abs(a) @ err @ np.abs(a) + t_res.err_estimate

    @pytest.fixture(scope="class")
    def seed1(self):
        # the decompose input of bench/workloads.py at seed 1
        seq = Sequence(N=4, values=np.random.default_rng(1).uniform(-1.0, 1.0, size=4))
        return decomposition(seq, SpectralWeight(T=3.0, M=1.5), [], tol=1e-6)

    def test_seed1_values(self, seed1):
        # P is pinned to 5e-13 only: r_k ~ exp(k^2/M^2) amplifies the rounding
        # of h(-ia) (<= 2e-15 relative), and with h(-ia) at 40 digits P reads
        # 0.3972734144739434, 4.3e-13 from the value below and 2.9e-13 from
        # what weight_h's h(-ia) gives
        rep = seed1
        assert rep.params["c_eval"] == 199
        assert rep.params["petersson_K"] == [5] * 10
        # T_eis as its loop leaves it, on the 48-panel grid
        assert rep.T_eis == 3.8306736419015373
        assert rep.D == pytest.approx(3.4334002406053075, rel=1e-14)
        assert rep.P == pytest.approx(0.39727341447377285, rel=5e-13)

    def test_pair_weights_are_the_quadratic_form(self, seed1):
        # u = v = a gives the pairs i <= j the weights a_i^2 and 2 a_i a_j
        # bit for bit, so P is the one c-sum over those weights
        a = np.random.default_rng(1).uniform(-1.0, 1.0, size=4)
        ns = np.arange(5, 9)
        iu, ju = np.triu_indices(4)
        mn = np.stack([ns[iu], ns[ju]], axis=1)
        C = seed1.params["c_eval"]
        s_table = np.stack([kloosterman(int(m), int(n), np.arange(1, C + 1)) for m, n in mn])
        weights = np.where(iu == ju, 1.0, 2.0) * a[iu] * a[ju]
        want = petersson_c_sum(mn, weights, s_table, SpectralWeight(3.0, 1.5), 1e-6)
        assert seed1.P == want.value
        assert seed1.skip_bar == want.tail_estimate

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_c_search_is_finite_on_the_N64_block(self):
        # at T = 14, M = 4 the bars of C = 1 take I_0 of X/2 ~ 800, which
        # overflows; the search doubles past them and stops at a finite bar
        a = Sequence.random(N=64, seed=1, real=True).values.real
        ns = np.arange(65, 129)
        iu, ju = np.triu_indices(64)
        mn = np.stack([ns[iu], ns[ju]], axis=1)
        w = np.where(iu == ju, 1.0, 2.0) * a[iu] * a[ju]
        sw, tol = SpectralWeight(14.0, 4.0), 1e-6
        residues = residue_expansion(np.sqrt(mn[:, 0] / mn[:, 1]), sw)
        C = kuznetsov._c_eval(mn, w, residues, tol)
        bars = [np.sum(np.min(kuznetsov._tail_bars(mn, w, c, residues), axis=1)) for c in (C - 1, C)]
        assert bars[1] <= tol < bars[0]
        assert C == 912

    def test_c_search_takes_a_second_doubling_pass(self):
        # (3000, 3000) at T = 3 needs C past the first pass's doublings
        # 1, ..., 2^15, so the search runs a second pass of _C_PASS doublings
        mn, w, sw, tol = np.array([[3000, 3000]]), np.ones(1), SpectralWeight(3.0, 1.0), 1e-6
        residues = residue_expansion(np.sqrt(mn[:, 0] / mn[:, 1]), sw)
        C = kuznetsov._c_eval(mn, w, residues, tol)
        bars = [np.sum(np.min(kuznetsov._tail_bars(mn, w, c, residues), axis=1)) for c in (C - 1, C)]
        assert bars[1] <= tol < bars[0]
        assert C == 476_520 > 1 << (kuznetsov._C_PASS - 1)

    def test_bars_cover_residual(self, seed1):
        # P converges to 0.39727341 (every c <= 250 exact leaves a residual of
        # 1.2e-8, the size of the first cusp form's term, h(t_1) ~ 5.8e-9,
        # which no form in the empty list carries and spectral_tail covers)
        rep = seed1
        assert rep.converged
        assert rep.params["c_eval"] == rep.params["c_far"]
        assert all(1 <= k <= 5 for k in rep.params["petersson_K"])
        assert rep.P == pytest.approx(0.39727341, abs=1e-8)
        assert rep.residual <= 1e-7
        assert rep.skip_bar <= 1e-6
        assert rep.residual <= rep.skip_bar + rep.quadrature_err + rep.spectral_tail

    def test_one_K_per_pair(self, seed1):
        # each pair takes the K of its own bar, so no bar exceeds what one K
        # per twist gave (skip_bar 9.9e-7 here)
        assert len(seed1.params["petersson_K"]) == 10
        assert seed1.skip_bar <= 9.9e-7
        # a pair's bars scale with |a_i a_j|, so its K is that of its own
        # c-sum; at T=3, M=1 and N=2 they differ, which pins the order
        sw = SpectralWeight(T=3.0, M=1.0)
        rep = decomposition(Sequence(N=2, values=np.array([0.4, -0.9])), sw, [], tol=1e-6)
        C = rep.params["c_eval"]
        iu, ju = np.triu_indices(2)
        want = [kloosterman_side(int(i) + 3, int(j) + 3, sw, C).petersson_K for i, j in zip(iu, ju)]
        assert len(set(want)) > 1
        assert rep.params["petersson_K"] == want

    def test_vanishing_sums_are_not_evaluated(self, seed1):
        # a vanishing S rounds to |S| <= 1e-9 and would add ~1e-15 to P:
        # _h_value drops it, so every evaluated term has a live sum
        C = seed1.params["c_eval"]
        ns = range(5, 9)
        live = sum(
            abs(kloosterman(m, n, c)) > 1e-9
            for m in ns
            for n in ns
            if m <= n
            for c in range(1, C + 1)
        )
        assert seed1.params["evaluated"] == live
        assert seed1.P == pytest.approx(0.39727341, abs=1e-8)
        assert seed1.quadrature_err < 1e-8

    def test_one_kloosterman_call_per_pair(self, monkeypatch):
        # every modulus of a pair comes from one array-form call; the
        # product-form block is not on the path
        calls = []
        monkeypatch.setattr(
            kuznetsov, "kloosterman", lambda *args: calls.append(args) or kloosterman(*args)
        )
        monkeypatch.setattr(kuznetsov, "_kloosterman_block", lambda *args: calls.append(None))
        seq = Sequence(N=4, values=np.random.default_rng(1).uniform(-1.0, 1.0, size=4))
        rep = decomposition(seq, SpectralWeight(T=3.0, M=1.5), [], tol=1e-6)
        assert len(calls) == 10
        pairs = [(m, n) for m in range(5, 9) for n in range(m, 9)]
        assert [(m, n) for m, n, _ in calls] == pairs
        assert all(np.array_equal(cs, np.arange(1, rep.params["c_eval"] + 1)) for *_, cs in calls)

    def test_one_residue_table_per_window(self, monkeypatch):
        # log Gamma on the lines t = s - iK depends on the window alone, so
        # the decomposition and ten pairs' c-sums at its window take it once,
        # not once per distinct twist
        calls = []
        monkeypatch.setattr(besselintegral, "log_gamma", lambda z: calls.append(z) or log_gamma(z))
        besselintegral._residue_lines.cache_clear()
        sw = SpectralWeight(T=3.0, M=1.5)
        seq = Sequence(N=4, values=np.random.default_rng(1).uniform(-1.0, 1.0, size=4))
        decomposition(seq, sw, [], tol=1e-6)
        for m in range(1, 5):
            for n in range(m, 5):
                kloosterman_side(m, n, sw, 64)
        assert len(calls) == 1

    def test_one_residue_expansion_per_identity(self, monkeypatch):
        # the C search and the c-sum read the same rows (r, B) of the twists
        calls = []
        monkeypatch.setattr(
            kuznetsov, "residue_expansion", lambda *args: calls.append(args) or residue_expansion(*args)
        )
        seq = Sequence(N=4, values=np.random.default_rng(1).uniform(-1.0, 1.0, size=4))
        decomposition(seq, SpectralWeight(T=3.0, M=1.5), [], tol=1e-6)
        assert len(calls) == 1

    def test_spectral_tail_caps_coefficients_by_divisors(self):
        # a_10 = 0.7 alone: |a_10 lambda_j(10)|^2 <= 0.49 tau(10)^2, as for
        # the pair (10, 10) of the trace identity
        vals = np.zeros(8)
        vals[1] = 0.7
        sw = SpectralWeight(T=3.0, M=1.5)
        rep = decomposition(Sequence(N=8, values=vals), sw, [], tol=1e-6)
        want = 0.49 * spectral_tail_bar(sw, []) * arith.divisor_count(10) ** 2
        assert want > 0
        assert rep.spectral_tail == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        # a NaN a_n ran the C search until an OverflowError
        with pytest.raises(ValueError, match="finite"):
            decomposition(Sequence(N=4, values=np.array([0.5, bad, -0.1, 0.2])), SW, [], tol=1e-6)

    def test_nonnegativity_and_positivity(self, forms):
        seq = Sequence.random(N=8, seed=5, real=True)
        rep = decomposition(seq, SW, forms, tol=1e-6)
        assert rep.S >= 0 and rep.T_eis >= 0
        assert rep.D > 0
        assert np.isfinite(rep.P)
        assert rep.skip_bar >= 0


class TestPBound:
    def test_zero_sequence(self):
        seq = Sequence(N=16, values=np.zeros(16))
        assert p_bound_rhs(seq, SW) == 0.0

    def test_empty_q_range(self, monkeypatch):
        seq = Sequence.random(N=3, seed=1, real=True)
        # _P_CAP * N / T < 1 leaves no admissible q
        monkeypatch.setattr(kuznetsov, "_P_CAP", 4.0)
        assert p_bound_rhs(seq, SW) == 0.0

    def test_sign_flip_invariance(self):
        seq = Sequence.random(N=16, seed=2, real=True)
        flipped = Sequence(N=16, values=-seq.values)
        a = p_bound_rhs(seq, SW)
        b = p_bound_rhs(flipped, SW)
        assert a == pytest.approx(b, rel=1e-12)
        assert a > 0

    def test_monotone_in_caps(self, monkeypatch):
        seq = Sequence.random(N=16, seed=3, real=True)
        monkeypatch.setattr(kuznetsov, "_P_CAP", 2.0)
        small = p_bound_rhs(seq, SW)
        monkeypatch.setattr(kuznetsov, "_P_CAP", 4.0)
        big = p_bound_rhs(seq, SW)
        assert big >= small - 1e-12

    def test_pinned_value_at_the_bench_size(self):
        # the sieve workload's majorant at seed 1, bit for bit; a 40-digit
        # mpmath lag sum puts it 1.71 ulp below the exact value
        seq = Sequence.random(64, seed=1, real=True)
        sw = SpectralWeight(T=3.0, M=1.5)
        got = p_bound_rhs(seq, sw)
        assert got.hex() == "0x1.f94953d7d9d05p+15"
        assert got == pytest.approx(p_bound_lag_sum(seq.values.real, sw), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        # a NaN a_n made the majorant NaN
        with pytest.raises(ValueError, match="finite"):
            p_bound_rhs(Sequence(N=4, values=np.array([0.5, bad, -0.1, 0.2])), SW)

    @pytest.mark.parametrize("N", [8, 16])
    def test_matches_exact_lag_sum(self, N):
        seq = Sequence.random(N=N, seed=N, real=True)
        sw = SpectralWeight(T=3.0, M=1.5)
        want = p_bound_lag_sum(seq.values.real, sw)
        assert p_bound_rhs(seq, sw) == pytest.approx(want, rel=1e-8)


def ramanujan_sum(c: int, k: np.ndarray) -> np.ndarray:
    """c_c(k) = sum over units alpha mod c of cos(2 pi alpha k / c)."""
    units = np.array([a for a in range(c) if math.gcd(a, c) == 1])
    return np.cos(2.0 * math.pi * (np.outer(units, k) % c) / c).sum(axis=0)


def p_bound_lag_sum(a: np.ndarray, sw: SpectralWeight) -> float:
    """p_bound_rhs with its default caps, with no quadrature.

    Expanding |sum_n a_n e(alpha n/c) e(n t/(c q))|^2, the unit sum of
    e(alpha (m - n)/c) is a Ramanujan sum and the t-integral over
    |t| <= tau of e((m - n) t/(c q)) is 2 tau sinc(2 tau (m - n)/(c q)).
    """
    N = a.size
    tau = R_CUT_FACTOR / sw.M
    lag = np.subtract.outer(np.arange(N), np.arange(N))
    total = 0.0
    for q in range(1, int(4.0 * N / sw.T) + 1):
        for c in range(1, int(4.0 * N / (sw.T * q)) + 1):
            kernel = ramanujan_sum(c, lag.ravel()).reshape(lag.shape)
            kernel *= 2.0 * tau * np.sinc(2.0 * tau * lag / (c * q))
            total += float(a @ kernel @ a) / (c * q)
    return sw.M * sw.T * total


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: kloosterman_side(1, 2, SW3, -1), "C_max must be non-negative"),
        (lambda: p_bound_rhs(Sequence.random(N=8, seed=1), SW), "real sequences"),
    ],
    ids=["kloosterman_side-C_max", "p_bound_rhs-complex"],
)
def test_rejects_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
