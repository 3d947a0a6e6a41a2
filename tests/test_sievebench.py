"""Sieve-ratio harness: direct-sum oracles, monotonicity, scaling laws."""

import math

import numpy as np
import pytest

from specpoint.arith import _unit_residues, divisors, moebius
from specpoint.besselintegral import SpectralWeight, weight_h
from specpoint.sievebench import (
    Sequence,
    _hybrid_lhs_one_modulus,
    _pair_groups,
    _ramanujan_sums,
    corollary_ratio,
    dirichlet_poly_ratio,
    moment_demo,
    young_ls_lhs,
    young_ls_ratio,
)
from specpoint.specfun import eisenstein_density
from specpoint.spectraldata import sym_square_lift, synthetic_spectrum

SW = SpectralWeight(T=14.0, M=4.0)


@pytest.fixture(scope="module")
def forms():
    return synthetic_spectrum(count=20, n_max=160, t_lo=5.0, t_hi=36.0, seed=7)


def young_lhs_bruteforce(seq, gamma, tau, v, C, grid=20001):
    """Trapezoid + direct triple loop; independent of the production path."""
    ts = np.linspace(-tau, tau, grid)
    total = np.zeros(grid)
    for c in range(1, C + 1):
        for alpha in range(c):
            if math.gcd(alpha, c) != 1 and c > 1:
                continue
            inner = np.zeros(grid, dtype=complex)
            for i, n in enumerate(seq.ns):
                phase = (alpha * int(n) / c + (float(n) ** gamma) * ts / (c * v)) % 1.0
                inner += seq.values[i] * np.exp(2j * math.pi * phase)
            total += np.abs(inner) ** 2 / c
    return float(np.trapezoid(total, ts))


def young_lhs_gauss(seq, gamma, tau, v, C, order=400, panels=1):
    """One order-point Gauss-Legendre rule on each of `panels` equal panels
    of [-tau, tau] over the direct alpha-sum; at these sizes the rule is
    exact to rounding."""
    x, w = np.polynomial.legendre.leggauss(order)
    h = tau / panels
    mids = -tau + h * (2 * np.arange(panels) + 1)
    ts, ws = (mids[:, None] + h * x).ravel(), np.tile(h * w, panels)
    ns = seq.ns.astype(float)
    total = 0.0
    for c in range(1, C + 1):
        for alpha in range(c):
            if math.gcd(alpha, c) != 1:
                continue
            phase = np.outer(ts, ns**gamma) / (c * v) + alpha * seq.ns / c
            inner = np.exp(2j * math.pi * phase) @ seq.values
            total += float(np.sum(ws * np.abs(inner) ** 2)) / c
    return total


def dense_lhs_one_modulus(seq, gamma, v, c, tau):
    """The dense quadratic form a^H (K o R) a: the N x N sinc kernel K at
    lam_n = 2 pi n^gamma/(c v) times the Ramanujan sums R[m, n] = c_c(m - n)
    from the phi(c) x N cosine table."""
    ns = seq.ns
    alphas, _ = _unit_residues(c)
    lags = np.arange(seq.N)
    ramanujan = np.rint(np.cos(2.0 * math.pi * (np.outer(alphas, lags) % c) / c).sum(axis=0))
    lams = 2.0 * math.pi * ns.astype(float) ** gamma / (c * v)
    sinc = 2.0 * tau * np.sinc(tau * (lams[:, None] - lams[None, :]) / math.pi)
    kernel = sinc * ramanujan[np.abs(ns[:, None] - ns[None, :])]
    a = seq.values
    return float(np.real(a.conj() @ kernel @ a)) / c


class TestSequence:
    def test_support_and_norm(self):
        seq = Sequence.random(N=16, seed=0)
        assert seq.ns[0] == 17 and seq.ns[-1] == 32
        assert seq.norm_sq == pytest.approx(float(np.sum(np.abs(seq.values) ** 2)))
        assert np.max(np.abs(seq.values)) <= 1.0

    def test_real_variant(self):
        seq = Sequence.random(N=8, seed=1, real=True)
        assert seq.is_real

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Sequence(N=4, values=np.ones(5))


class TestYoungLS:
    def test_zero_sequence(self):
        seq = Sequence(N=8, values=np.zeros(8))
        assert young_ls_lhs(seq, 1.0, 0.5, 1.0, 4) == 0.0
        assert young_ls_ratio(seq, 1.0, 0.5, 1.0, 4).ratio == 0.0

    def test_single_modulus_collapse(self):
        # C = 1 leaves only alpha = 0: plain mean square of the twisted sum
        seq = Sequence.random(N=6, seed=3)
        got = young_ls_lhs(seq, 1.0, 0.4, 1.0, 1)
        want = young_lhs_bruteforce(seq, 1.0, 0.4, 1.0, 1)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_against_bruteforce(self, gamma):
        seq = Sequence.random(N=8, seed=11)
        got = young_ls_lhs(seq, gamma, 0.3, 2.0, 5)
        want = young_lhs_bruteforce(seq, gamma, 0.3, 2.0, 5)
        assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_closed_form_matches_gauss_oracle(self, gamma):
        # at gamma = 2 the phases run up to 32^2 - 17^2 = 735 cycles per unit
        # t, so the rule is split into panels that each hold fewer than 25
        panels = 32 if gamma == 2.0 else 1
        seq = Sequence.random(N=16, seed=17)
        got = young_ls_lhs(seq, gamma, 1.0, 1.0, 6)
        want = young_lhs_gauss(seq, gamma, 1.0, 1.0, 6, panels=panels)
        assert got == pytest.approx(want, rel=1e-12)

    def test_parseval_sanity(self):
        # gamma=1, v=1, tau=pi: int |sum a_n e(n t / (2 pi))|... at C=1 the
        # diagonal contributes 2 tau ||a||^2 and off-diagonal terms are
        # bounded; check the diagonal dominates for random phases
        seq = Sequence.random(N=64, seed=5)
        val = young_ls_lhs(seq, 1.0, math.pi, 1.0, 1)
        assert val == pytest.approx(2 * math.pi * seq.norm_sq, rel=0.6)

    def test_monotone_in_c_and_tau(self):
        seq = Sequence.random(N=12, seed=9)
        v1 = young_ls_lhs(seq, 1.0, 0.3, 1.5, 2)
        v2 = young_ls_lhs(seq, 1.0, 0.3, 1.5, 4)
        v3 = young_ls_lhs(seq, 1.0, 0.6, 1.5, 4)
        assert v2 >= v1 - 1e-12
        assert v3 >= v2 - 1e-12

    def test_scaling_invariance(self):
        seq = Sequence.random(N=12, seed=13)
        scaled = Sequence(N=12, values=3.7j * seq.values)
        r1 = young_ls_ratio(seq, 1.0, 0.3, 1.5, 4)
        r2 = young_ls_ratio(scaled, 1.0, 0.3, 1.5, 4)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-10)


class TestPairGroups:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("v", [1.0, 2.5])
    @pytest.mark.parametrize("tau", [0.3, 1.0])
    def test_grouped_form_matches_dense(self, gamma, v, tau):
        seq = Sequence.random(N=24, seed=29)
        groups = _pair_groups(seq, seq.ns.astype(float) ** gamma)
        for c in range(1, 13):
            want = dense_lhs_one_modulus(seq, gamma, v, c, tau)
            got = _hybrid_lhs_one_modulus(groups, v, c, tau)
            assert got == pytest.approx(want, rel=1e-13)

    def test_gamma_one_groups_by_lag(self):
        seq = Sequence.random(N=24, seed=31)
        lags, gaps, weights = _pair_groups(seq, seq.ns.astype(float))
        assert lags.size == seq.N
        np.testing.assert_array_equal(lags, np.arange(seq.N))
        np.testing.assert_array_equal(gaps, lags)
        assert weights[0] == pytest.approx(seq.norm_sq, rel=1e-15)

    def test_gamma_two_keeps_every_off_diagonal_pair(self):
        # n^2 - m^2 = (n - m)(n + m) tells the pairs of one lag apart; the
        # diagonal is the one group (0, 0)
        seq = Sequence.random(N=24, seed=31)
        lags, _, weights = _pair_groups(seq, seq.ns.astype(float) ** 2)
        assert weights.size == seq.N * (seq.N - 1) // 2 + 1
        assert weights[lags == 0] == pytest.approx([seq.norm_sq], rel=1e-15)


class TestRamanujanSums:
    @pytest.mark.parametrize("moduli", [range(1, 301), [2310]])
    def test_dft_matches_moebius_closed_form(self, moduli):
        # c_c(k) = sum over d | (c, k) of mu(c/d) d
        for c in moduli:
            ks = np.arange(2 * c)
            want = sum(moebius(c // d) * d * (ks % d == 0) for d in divisors(c))
            np.testing.assert_array_equal(_ramanujan_sums(c, ks), want)


class TestCorollaryWindow:
    def test_zero_sequence(self, forms):
        seq = Sequence(N=8, values=np.zeros(8))
        assert corollary_ratio(seq, SW, forms).ratio == 0.0

    def test_single_form_single_term(self, forms):
        inside = [f for f in forms if SW.T < f.t <= SW.T + SW.M][:1]
        assert inside, "fixture must cover the window"
        f = inside[0]
        vals = np.zeros(8)
        vals[2] = 1.0  # a_11 on (8, 16]
        seq = Sequence(N=8, values=vals)
        rep = corollary_ratio(seq, SW, inside)
        want = f.omega * f.lam(11) ** 2
        assert rep.lhs == pytest.approx(want, rel=1e-12)
        assert rep.ratio <= f.omega * f.lam(11) ** 2 / (SW.M * (SW.T + 8)) + 1e-12

    def test_global_phase_invariance(self, forms):
        seq = Sequence.random(N=16, seed=21)
        rotated = Sequence(N=16, values=seq.values * np.exp(0.77j))
        a = corollary_ratio(seq, SW, forms)
        b = corollary_ratio(rotated, SW, forms)
        assert a.ratio == pytest.approx(b.ratio, rel=1e-10)


class TestDirichletPolynomial:
    def test_zero_sequence(self):
        seq = Sequence(N=8, values=np.zeros(8))
        assert dirichlet_poly_ratio(seq, 10.0).ratio == 0.0

    def test_single_term_exact(self):
        vals = np.zeros(8, dtype=complex)
        vals[3] = 2.0 - 1.0j
        seq = Sequence(N=8, values=vals)
        rep = dirichlet_poly_ratio(seq, 7.5)
        assert rep.lhs == pytest.approx(2 * 7.5 * 5.0, rel=1e-12)

    def test_quadrature_oracle(self):
        seq = Sequence.random(N=10, seed=2)
        T = 9.0
        rep = dirichlet_poly_ratio(seq, T)
        ts = np.linspace(-T, T, 40001)
        vals = np.abs(
            np.sum(seq.values[None, :] * np.exp(1j * np.outer(ts, np.log(seq.ns.astype(float)))), axis=1)
        ) ** 2
        want = float(np.trapezoid(vals, ts))
        assert rep.lhs == pytest.approx(want, rel=1e-6)

    def test_ratio_band(self):
        worst = 0.0
        for seed in range(25):
            seq = Sequence.random(N=32, seed=seed)
            worst = max(worst, dirichlet_poly_ratio(seq, 20.0).ratio)
        assert worst <= 2 * math.pi + 1.0


def eisenstein_gauss_oracle(values, ns, sw, panels=1000, order=32):
    """(2/pi) int_0^{t_upper} omega(t) h(t) |sum_n a_n sigma_{2it}(n)|^2 dt
    on panels equal panels with an order-point Gauss-Legendre rule each,
    sigma_{2it}(n) summed over the divisors d as e^{2it log d}."""
    x, w = np.polynomial.legendre.leggauss(order)
    h = sw.t_upper / (2 * panels)
    mids = h * (2 * np.arange(panels) + 1)
    ts, ws = (mids[:, None] + h * x).ravel(), np.tile(h * w, panels)
    sums = np.zeros(ts.size, dtype=complex)
    for a, n in zip(values, ns):
        for d in divisors(int(n)):
            sums += a * np.exp(2j * ts * math.log(d))
    integrand = eisenstein_density(ts) * weight_h(ts, sw) * np.abs(sums) ** 2
    return 2.0 / math.pi * float(ws @ integrand)


class TestMomentDemo:
    @pytest.mark.parametrize("T,M,N", [(30.0, 6.0, 32), (14.0, 4.0, 16)])
    def test_eisenstein_average_matches_gauss_oracle(self, forms, T, M, N):
        # T must lie within its own bar of an independent 32,000-node rule
        gl3 = sym_square_lift(forms[0], 160)
        sw = SpectralWeight(T, M)
        out = moment_demo(gl3, forms, sw, N=N)
        ns = np.arange(N + 1, 2 * N + 1)
        values = np.conj([gl3.a(1, int(n)) for n in ns]) / math.sqrt(N)
        want = eisenstein_gauss_oracle(values, ns, sw)
        assert out["converged"]
        assert abs(out["T"] - want) <= out["T_err"] + 1e-12 * abs(want)

    def test_zero_block(self, forms):
        gl3 = sym_square_lift(forms[0], 64)
        out = moment_demo(gl3, forms, SW, N=16, n1=1, weight=lambda u: 0.0 * u)
        assert out["S"] == 0.0 and out["T"] == 0.0

    def test_finite_and_conjugation_invariant(self, forms):
        gl3 = sym_square_lift(forms[0], 64)
        out = moment_demo(gl3, forms, SW, N=16, n1=1)
        assert out["S"] >= 0 and out["T"] >= 0
        assert np.isfinite(out["ratio"])
        conj = gl3.dual  # real self-dual table: identical values
        out2 = moment_demo(conj, forms, SW, N=16, n1=1)
        assert out2["S"] == pytest.approx(out["S"], rel=1e-12)
        assert out2["T"] == pytest.approx(out["T"], rel=1e-12)

    def test_range_violation(self, forms):
        gl3 = sym_square_lift(forms[0], 16)
        with pytest.raises(Exception):
            moment_demo(gl3, forms, SW, N=64, n1=1)
