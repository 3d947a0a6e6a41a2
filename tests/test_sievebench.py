"""Sieve-ratio harness: direct-sum oracles, monotonicity, scaling laws."""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from specpoint import sievebench, specfun
from specpoint.arith import _unit_residues, divisor_sigma, divisors, moebius
from specpoint.besselintegral import SpectralWeight, weight_h
from specpoint.kuznetsov import eisenstein_side, p_bound_rhs
from specpoint.quadrature import adaptive_quadrature
from specpoint.sievebench import (
    Sequence,
    SieveReport,
    _eisenstein_form,
    _eisenstein_weights,
    _hybrid_lhs_one_modulus,
    _pair_groups,
    _ramanujan_table,
    corollary_ratio,
    moment_demo,
    young_ls_lhs,
    young_ls_ratio,
)
from specpoint.specfun import eisenstein_density
from specpoint.spectraldata import sym_square_lift

from oracles import dual, eisenstein_gauss_oracle, synthetic_spectrum

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Sequence(N=4, values=np.array([0.5, bad, -0.1, 0.2]))


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

    @pytest.mark.parametrize("C", [2.5, 3.0, True, False, "4", None])
    def test_rejects_non_integer_C(self, C):
        with pytest.raises(ValueError, match="C must be an integer"):
            young_ls_lhs(Sequence.random(N=4, seed=1), 1.0, 0.5, 1.0, C)

    @pytest.mark.parametrize(
        "name, gamma, tau, v",
        [
            ("tau", 1.0, math.nan, 1.0),
            ("tau", 1.0, math.inf, 1.0),
            ("v", 1.0, 0.5, math.nan),
            ("v", 1.0, 0.5, math.inf),
            ("gamma", math.inf, 0.5, 1.0),
            ("gamma", math.nan, 0.5, 1.0),
        ],
    )
    def test_rejects_non_finite_parameters(self, name, gamma, tau, v):
        # NaN passes tau <= 0 and v <= 0, and would report a NaN ratio
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            young_ls_lhs(Sequence.random(N=4, seed=1), gamma, tau, v, 4)

    def test_accepts_numpy_integer_C(self):
        seq = Sequence.random(N=8, seed=9)
        assert young_ls_lhs(seq, 1.0, 0.3, 1.5, np.int64(4)) == young_ls_lhs(seq, 1.0, 0.3, 1.5, 4)

    def test_pinned_value_at_the_bench_size(self):
        # the sieve workload's young_ls_lhs at seed 1, bit for bit, and the
        # dense form modulus by modulus
        seq = Sequence.random(256, seed=1)
        got = young_ls_lhs(seq, 1.0, 1.0, 1.0, 256)
        assert got.hex() == "0x1.3724abdb264f6p+15"
        want = math.fsum(dense_lhs_one_modulus(seq, 1.0, 1.0, c, 1.0) for c in range(1, 257))
        assert got == pytest.approx(want, rel=1e-12)

    def test_scaling_invariance(self):
        seq = Sequence.random(N=12, seed=13)
        scaled = Sequence(N=12, values=3.7j * seq.values)
        r1 = young_ls_ratio(seq, 1.0, 0.3, 1.5, 4)
        r2 = young_ls_ratio(scaled, 1.0, 0.3, 1.5, 4)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-10)


def complex_key_groups(seq, lams):
    """_pair_groups by one np.unique over the complex keys lag + i gap,
    which compare exactly part by part."""
    i, j = np.triu_indices(seq.N)
    a = seq.values
    pair_weights = np.where(i == j, 1.0, 2.0) * np.real(a[i].conj() * a[j])
    keys, group = np.unique((j - i) + 1j * (lams[j] - lams[i]), return_inverse=True)
    return keys.real.astype(np.int64), keys.imag, np.bincount(group, weights=pair_weights)


class TestPairGroups:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("v", [1.0, 2.5])
    @pytest.mark.parametrize("tau", [0.3, 1.0])
    def test_grouped_form_matches_dense(self, gamma, v, tau):
        seq = Sequence.random(N=24, seed=29)
        groups = _pair_groups(seq, seq.ns.astype(float) ** gamma)
        cs = np.arange(1, 13)
        got = _hybrid_lhs_one_modulus(groups, np.full(cs.size, v), cs, tau)
        want = [dense_lhs_one_modulus(seq, gamma, v, int(c), tau) for c in cs]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("lam", ["n^0.5", "n^1", "n^2", "log n", "permuted n^0.5"])
    @pytest.mark.parametrize("N", [1, 2, 24, 97])
    def test_matches_complex_key_grouping(self, lam, N):
        # within a lag the gaps fall (n^0.5, log n: sorted), stay (n^1) or
        # rise (n^2: not sorted); the permuted n^0.5 gaps rise and fall
        seq = Sequence.random(N=N, seed=37)
        ns = seq.ns.astype(float)
        if lam == "log n":
            lams = np.log(ns)
        elif lam == "permuted n^0.5":
            lams = np.random.default_rng(41).permutation(ns**0.5)
        else:
            lams = ns ** float(lam[2:])
        got, want = _pair_groups(seq, lams), complex_key_groups(seq, lams)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_gamma_one_groups_by_lag(self):
        seq = Sequence.random(N=24, seed=31)
        lags, gaps, weights = _pair_groups(seq, seq.ns.astype(float))
        assert lags.size == seq.N
        np.testing.assert_array_equal(lags, np.arange(seq.N))
        np.testing.assert_array_equal(gaps, lags)
        assert weights[0] == pytest.approx(seq.norm_sq, rel=1e-15)

    def test_peak_memory_at_N_256(self):
        # the lag-major layout holds one (N^2/2)-entry complex array at a
        # time; triu_indices and a full lexsort peaked at 1,799.5 KB here
        seq = Sequence.random(N=256, seed=1)
        lams = seq.ns.astype(float)
        tracemalloc.start()
        try:
            _pair_groups(seq, lams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1800 * 1024

    def test_gamma_two_keeps_every_off_diagonal_pair(self):
        # n^2 - m^2 = (n - m)(n + m) tells the pairs of one lag apart; the
        # diagonal is the one group (0, 0)
        seq = Sequence.random(N=24, seed=31)
        lags, _, weights = _pair_groups(seq, seq.ns.astype(float) ** 2)
        assert weights.size == seq.N * (seq.N - 1) // 2 + 1
        assert weights[lags == 0] == pytest.approx([seq.norm_sq], rel=1e-15)

    def test_kernel_blocks_split_the_moduli(self, monkeypatch):
        # blocks of one and of five moduli give each modulus its own value
        seq = Sequence.random(N=24, seed=29)
        groups = _pair_groups(seq, seq.ns.astype(float) ** 0.5)
        cs = np.arange(1, 13)
        vs = np.linspace(0.5, 3.0, cs.size)
        whole = _hybrid_lhs_one_modulus(groups, vs, cs, 0.7)
        for entries in (1, 5 * groups[0].size):
            monkeypatch.setattr(sievebench, "_KERNEL_BLOCK", entries)
            np.testing.assert_allclose(_hybrid_lhs_one_modulus(groups, vs, cs, 0.7), whole, rtol=1e-14, atol=0)


def ramanujan_row(c: int) -> np.ndarray:
    """c_c(k) for k = 0..c/2 as the kept table holds it."""
    table, starts = _ramanujan_table(c)
    return table[starts[c - 1] : starts[c]]


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty kept Ramanujan table (the row of c = 1 alone) for one test;
    the process's table comes back after it, so no large table stays."""
    table, starts = sievebench._RAMANUJAN
    monkeypatch.setattr(sievebench, "_RAMANUJAN", (table[:1], starts[:2]))


class TestRamanujanSums:
    @pytest.mark.parametrize("moduli", [range(1, 301), [2310]])
    def test_dft_matches_moebius_closed_form(self, moduli, fresh_table):
        # c_c(k) = sum over d | (c, k) of mu(c/d) d, stored for k = 0..c/2
        for c in moduli:
            ks = np.arange(c // 2 + 1)
            want = sum(moebius(c // d) * d * (ks % d == 0) for d in divisors(c))
            np.testing.assert_array_equal(ramanujan_row(c), want)

    def test_closed_form_matches_the_unit_indicators_dft(self, fresh_table):
        # c_c(k) is the real DFT of the indicator of gcd(alpha, c) = 1,
        # rounded to the integers it equals
        _ramanujan_table(2048)
        for c in range(1, 2049):
            units = (np.gcd(np.arange(c), c) == 1).astype(float)
            got = ramanujan_row(c)
            np.testing.assert_array_equal(got, np.rint(np.fft.rfft(units).real))
            assert got.dtype == np.float64

    def test_table_is_read_only(self, fresh_table):
        table, _ = _ramanujan_table(40)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[3] = 0.0

    def test_the_sieve_pass_extends_the_table_once(self, fresh_table, monkeypatch):
        # young_ls_ratio over c <= 256 builds the rows of c = 2..256 in one
        # extension; p_bound_rhs's 395 (q, c) terms, c <= 21, build none
        extensions = []
        runs = sievebench._runs

        def counted_runs(first, last):
            extensions.append((first, last))
            return runs(first, last)

        monkeypatch.setattr(sievebench, "_runs", counted_runs)
        young_ls_ratio(Sequence.random(256, seed=1), 1.0, 1.0, 1.0, 256)
        kept = sievebench._RAMANUJAN
        assert extensions == [(2, 256)] and kept[1].size == 257
        p_bound_rhs(Sequence.random(64, seed=1, real=True), SpectralWeight(T=3.0, M=1.5))
        assert extensions == [(2, 256)] and sievebench._RAMANUJAN is kept

    def test_table_holds_at_most_the_unit_cache_bound(self, fresh_table, monkeypatch):
        # moduli past the bound take their sums per call, in blocks past the
        # table and in a block that straddles its end
        assert sievebench._RAMANUJAN_MODULI == _unit_residues.cache_info().maxsize
        seq = Sequence.random(N=24, seed=29)
        groups = _pair_groups(seq, seq.ns.astype(float) ** 0.5)
        cs = np.arange(1, 41)
        vs = np.linspace(0.5, 3.0, cs.size)
        monkeypatch.setattr(sievebench, "_KERNEL_BLOCK", 7 * groups[0].size)
        want = _hybrid_lhs_one_modulus(groups, vs, cs, 0.7)
        table, starts = sievebench._RAMANUJAN
        monkeypatch.setattr(sievebench, "_RAMANUJAN", (table[:1], starts[:2]))
        monkeypatch.setattr(sievebench, "_RAMANUJAN_MODULI", 16)
        got = _hybrid_lhs_one_modulus(groups, vs, cs, 0.7)
        assert sievebench._RAMANUJAN[1].size - 1 == 16
        np.testing.assert_array_equal(got, want)
        dense = [dense_lhs_one_modulus(seq, 0.5, float(v), int(c), 0.7) for c, v in zip(cs, vs)]
        np.testing.assert_allclose(got, dense, rtol=1e-13, atol=0)

    def test_sieve_runs_with_a_wrapped_unit_residue_cache(self, fresh_table, monkeypatch):
        # bench/tracing.py rebinds _unit_residues to a plain wrapper, which
        # has no cache_info()
        monkeypatch.setattr(sievebench, "_unit_residues", lambda c: _unit_residues(c))
        seq = Sequence.random(N=8, seed=9)
        assert young_ls_lhs(seq, 1.0, 0.3, 1.5, 6) == pytest.approx(young_lhs_gauss(seq, 1.0, 0.3, 1.5, 6), rel=1e-12)


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


def dirichlet_poly_ratio(seq: Sequence, T: float) -> SieveReport:
    """int_{-T}^{T} |sum a_n n^{it}|^2 dt against (2T + N) ||a||^2.

    The integral is the grouped quadratic form at lam_n = log n with no
    Ramanujan factor (_hybrid_lhs_one_modulus at c = 1, v = 2 pi, tau = T):
    the sum over pairs of W 2 sin(T log(n/m)) / log(n/m)."""
    if T <= 0:
        raise ValueError("T must be positive")
    groups = _pair_groups(seq, np.log(seq.ns.astype(float)))
    lhs = float(_hybrid_lhs_one_modulus(groups, [2.0 * math.pi], [1], T)[0])
    rhs = (2.0 * T + seq.N) * seq.norm_sq
    return SieveReport.make(lhs, rhs, T=T, N=seq.N)


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


def _eisenstein_form_reference(ns, u, v, sw, tol):
    """_eisenstein_form as one adaptive_quadrature call, with omega h
    recomputed on every grid."""

    def integrand(t):
        sigmas = np.array([divisor_sigma(2j * t, int(n)) for n in ns])
        eu, ev = u @ sigmas, v @ sigmas
        return eisenstein_density(t) * weight_h(t, sw) * (eu * ev.conj()).real

    res = adaptive_quadrature(integrand, 1e-12, sw.t_upper, tol * math.pi / 2.0, initial_panels=32)
    return res.scaled(2.0 / math.pi)


class TestEisensteinForm:
    @pytest.mark.parametrize("T,M", [(3.0, 1.0), (14.0, 4.0)])
    @pytest.mark.parametrize("inputs", ["pair", "block"])
    def test_cached_weights_match_adaptive_quadrature(self, T, M, inputs):
        sw = SpectralWeight(T=T, M=M)
        if inputs == "pair":
            ns, u, v, tol = np.array([2, 3]), *np.eye(2), 1e-10
        else:
            seq = Sequence.random(6, seed=4, real=True)
            ns, u, v, tol = seq.ns, seq.values, seq.values, 1e-6
        want = _eisenstein_form_reference(ns, u, v, sw, tol)
        # the first call may fill the cache, the second reads it
        for _ in range(2):
            got = _eisenstein_form(ns, u, v, sw, tol)
            assert got.value == want.value
            assert got.err_estimate == want.err_estimate
            assert got.evaluations == want.evaluations
            assert got.converged == want.converged

    def test_second_pair_computes_no_zeta(self, monkeypatch):
        calls = []
        zeta_many = specfun.zeta_many
        monkeypatch.setattr(specfun, "zeta_many", lambda s: calls.append(s.size) or zeta_many(s))
        monkeypatch.setattr(sievebench, "_eisenstein_weights", lru_cache(maxsize=32)(_eisenstein_weights.__wrapped__))
        sw = SpectralWeight(T=3.0, M=1.0)
        first = eisenstein_side(1, 2, sw, 1e-8)
        assert sum(calls) == first.evaluations
        calls.clear()
        eisenstein_side(2, 3, sw, 1e-8)
        assert calls == []


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
        conj = dual(gl3)  # real self-dual table: identical values
        out2 = moment_demo(conj, forms, SW, N=16, n1=1)
        assert out2["S"] == pytest.approx(out["S"], rel=1e-12)
        assert out2["T"] == pytest.approx(out["T"], rel=1e-12)

    def test_range_violation(self, forms):
        gl3 = sym_square_lift(forms[0], 16)
        with pytest.raises(Exception):
            moment_demo(gl3, forms, SW, N=64, n1=1)
