"""Sieve-ratio harness: direct-sum oracles, monotonicity, scaling laws."""

import math
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

from specpoint import sievebench, specfun
from specpoint.arith import _ramanujan_sums, _unit_residues, divisor_sigma, divisors, moebius
from specpoint.besselintegral import SpectralWeight, weight_h
from specpoint.kuznetsov import eisenstein_side, p_bound_rhs
from specpoint.quadrature import adaptive_quadrature
from specpoint.sievebench import (
    Sequence,
    SieveReport,
    _eisenstein_form,
    _eisenstein_weights,
    _hybrid_lhs_one_modulus,
    _lag_groups,
    _pair_groups,
    _ramanujan_table,
    corollary_ratio,
    moment_demo,
    young_ls_lhs,
    young_ls_ratio,
)
from specpoint.specfun import eisenstein_density
from specpoint.spectraldata import GL3Form, sym_square_lift

from oracles import dual, eisenstein_gauss_oracle, exact_lag_sums, hoelder, synthetic_spectrum, two_refinements_finer

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


def young_lhs_mpmath(seq, gamma, tau, v, C):
    """young_ls_lhs as a 30-digit mpmath sum over the pairs m <= n: exact
    gaps n^gamma - m^gamma, exact Ramanujan sums sum_{d | (c, k)} mu(c/d) d,
    the weights 2 Re(conj(a_m) a_n) of the double a_n, and 2 tau
    sin(beta gap)/(beta gap) with beta = 2 pi tau/(c v)."""
    with mpmath.workdps(30):
        lams = [mpmath.mpf(int(n)) ** mpmath.mpf(gamma) for n in seq.ns]
        a = [(mpmath.mpf(z.real), mpmath.mpf(z.imag)) for z in seq.values.tolist()]
        pairs = [
            [(2 * (a[m][0] * a[m + k][0] + a[m][1] * a[m + k][1]), lams[m + k] - lams[m]) for m in range(seq.N - k)]
            for k in range(seq.N)
        ]
        tau, v, total = mpmath.mpf(tau), mpmath.mpf(v), mpmath.mpf(0)
        for c in range(1, C + 1):
            beta = 2 * mpmath.pi * tau / (c * v)
            value = totient(c) * sum(w for w, _ in pairs[0]) / 2  # the diagonal, weighted ||a||^2
            for k, entries in enumerate(pairs[1:], start=1):
                r = sum(moebius(c // d) * d for d in divisors(math.gcd(c, k)))
                if r:
                    value += r * mpmath.fsum(w * mpmath.sin(beta * g) / (beta * g) for w, g in entries)
            total += 2 * tau * value / c
        return total


def totient(c: int) -> int:
    return sum(math.gcd(a, c) == 1 for a in range(1, c + 1))


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

    @pytest.mark.parametrize("N, gamma", [(4, 400.0), (4, np.float64(400.0)), (64, -200.0)])
    @pytest.mark.parametrize("sieve", [young_ls_lhs, young_ls_ratio])
    def test_rejects_gamma_past_the_float_range(self, sieve, N, gamma):
        # (2N)^400 overflowed into inf - inf gaps and a NaN ratio, and
        # young_ls_ratio's N^201 raised OverflowError
        with pytest.raises(ValueError, match=r"^gamma = "):
            sieve(Sequence.random(N=N, seed=1), gamma, 1.0, 1.0, 2)

    @pytest.mark.parametrize(
        "N, gamma, tau, v, C, message",
        [
            # 2 pi tau gap/(c v) overflowed into NaN sines and a NaN ratio
            (4, 341.0, 1.0, 1.0, 2, "phases"),
            (4, 1.0, 1e308, 1.0, 2, "phases"),
            (4, 1.0, 1.0, 1e-310, 2, "phases"),
            # a subnormal phase has lost its digits: sin(beta gap)/gap would too
            (4, 1.0, 1e-300, 1e10, 2, "phases"),
            # tau C overflowed the majorant with finite phases
            (1, 1.0, 1e307, 1.0, 100, "majorant"),
        ],
    )
    def test_rejects_inputs_past_the_float_range(self, N, gamma, tau, v, C, message):
        with pytest.raises(ValueError, match=message):
            young_ls_lhs(Sequence.random(N=N, seed=1), gamma, tau, v, C)

    def test_accepts_numpy_integer_C(self):
        seq = Sequence.random(N=8, seed=9)
        assert young_ls_lhs(seq, 1.0, 0.3, 1.5, np.int64(4)) == young_ls_lhs(seq, 1.0, 0.3, 1.5, 4)

    def test_pinned_value_at_the_bench_size(self):
        # the sieve workload's young_ls_lhs at seed 1, bit for bit, and the
        # dense form modulus by modulus; a 40-digit mpmath lag sum puts it
        # 3.89 ulp above the exact value
        seq = Sequence.random(256, seed=1)
        got = young_ls_lhs(seq, 1.0, 1.0, 1.0, 256)
        assert got.hex() == "0x1.3724abdb264f9p+15"
        want = math.fsum(dense_lhs_one_modulus(seq, 1.0, 1.0, c, 1.0) for c in range(1, 257))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_matches_mpmath_off_gamma_one(self, gamma):
        # the pair lists' sines s_j c_i - c_j s_i over exact gaps and sums
        seq = Sequence.random(64, seed=int(10 * gamma))
        want = young_lhs_mpmath(seq, gamma, 1.0, 1.0, 32)
        got = young_ls_lhs(seq, gamma, 1.0, 1.0, 32)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_takes_no_sinc(self, monkeypatch):
        # the kernel builds its sines from tables per block of moduli
        def no_sinc(*args, **kwargs):
            raise AssertionError("np.sinc was called")

        monkeypatch.setattr(np, "sinc", no_sinc)
        seq = Sequence.random(256, seed=1)
        for gamma in (0.5, 1.0, 2.0):
            assert math.isfinite(young_ls_ratio(seq, gamma, 1.0, 1.0, 256).ratio)
        assert math.isfinite(p_bound_rhs(Sequence.random(64, seed=1, real=True), SpectralWeight(T=3.0, M=1.5)))

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_chunks_of_moduli_sum_bit_for_bit(self, gamma):
        # three calls of at most _RAMANUJAN_MODULI moduli, the first on the
        # kept table, give one unchunked call's sum over c <= C exactly
        C = 2 * sievebench._RAMANUJAN_MODULI + 100
        seq = Sequence.random(N=6, seed=5)
        groups = _lag_groups(seq) if gamma == 1 else _pair_groups(seq, seq.ns.astype(float) ** gamma)
        cs = np.arange(1, C + 1)
        want = sum(_hybrid_lhs_one_modulus(groups, np.full(C, 0.7), cs, 0.4).tolist())
        assert young_ls_lhs(seq, gamma, 0.4, 0.7, C) == want

    def test_peak_memory_at_C_200000(self):
        # one call over every modulus peaked 19.5 MB above the kept tables
        # here; calls of at most _RAMANUJAN_MODULI moduli hold ~0.9 MB
        seq = Sequence.random(N=8, seed=3)
        young_ls_lhs(seq, 1.0, 0.5, 1.0, 200_000)  # the kept Ramanujan rows and mu table
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            young_ls_lhs(seq, 1.0, 0.5, 1.0, 200_000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < 4 << 20
        assert kept - start < 1 << 20

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


def summed_by_key(lags, gaps, weights):
    """Entries (lags, gaps, weights) summed by exact key as complex_key_groups
    sums its pairs, with the number of entries of each key."""
    keys, group, sizes = np.unique(lags + 1j * gaps, return_inverse=True, return_counts=True)
    return keys.real.astype(np.int64), keys.imag, np.bincount(group, weights=weights), sizes


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
        # within a lag the gaps fall (n^0.5, log n), stay (n^1) or rise
        # (n^2); the permuted n^0.5 gaps rise and fall
        seq = Sequence.random(N=N, seed=37)
        ns = seq.ns.astype(float)
        if lam == "log n":
            lams = np.log(ns)
        elif lam == "permuted n^0.5":
            lams = np.random.default_rng(41).permutation(ns**0.5)
        else:
            lams = ns ** float(lam[2:])
        entries = _pair_groups(seq, lams)[:3]
        assert entries[2].size == N * (N - 1) // 2 + 1
        *got, sizes = summed_by_key(*entries)
        want = complex_key_groups(seq, lams)
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        # each weight sums 2 sizes real products in two orders, each within
        # gamma_{2 sizes} sum |a_m| |a_n| (doubled off the diagonal) of exact
        u, n = 2.0**-53, 2.0 * sizes
        scale = summed_by_key(*_pair_groups(Sequence(N=N, values=np.abs(seq.values)), lams)[:3])[2]
        assert np.all(np.abs(got[2] - want[2]) <= 2.0 * n * u / (1.0 - n * u) * scale)
        # only n^1 repeats a key, so the entries need no grouping elsewhere
        assert np.all(sizes == 1) or lam == "n^1"

    def test_gamma_one_groups_by_lag(self):
        # at lam_n = n every gap is its lag, and the entries of a lag add up
        # to its lag sum within gamma_{2(N-k)} sum_m |a_m| |a_{m+k}|, doubled
        seq = Sequence.random(N=24, seed=31)
        lags, gaps, weights = _pair_groups(seq, seq.ns.astype(float))[:3]
        np.testing.assert_array_equal(gaps, lags)
        sums = np.bincount(lags, weights)
        assert sums.size == seq.N
        k = np.arange(seq.N)
        u, n = 2.0**-53, 2.0 * (seq.N - k)
        mag = np.abs(seq.values)
        scale = np.correlate(mag, mag, "full")[seq.N - 1 :] * np.where(k == 0, 1.0, 2.0)
        assert np.all(lag_errors(sums, exact_lag_sums(seq.values)) <= n * u / (1.0 - n * u) * scale)
        assert weights[0] == pytest.approx(seq.norm_sq, rel=1e-15)

    def test_peak_memory_at_N_256(self):
        # the lag-major layout holds one (N^2/2)-entry complex array at a
        # time: 1,471 KB here, where triu_indices and a full lexsort peaked
        # at 1,799.5 KB
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
        lags, _, weights = _pair_groups(seq, seq.ns.astype(float) ** 2)[:3]
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


def lag_errors(weights, exact) -> np.ndarray:
    """|weights_k - exact_k|, each difference taken exactly."""
    return np.array([abs(float(Fraction(w) - e)) for w, e in zip(weights.tolist(), exact)])


class TestLagGroups:
    @pytest.mark.parametrize("N", [1, 2, 24, 97, 256])
    def test_matches_pair_groups_within_dot_product_rounding(self, N):
        seq = Sequence.random(N=N, seed=43)
        lags, gaps, weights = _lag_groups(seq)[:3]
        assert lags.dtype == np.int64 and gaps.dtype == weights.dtype == np.float64
        np.testing.assert_array_equal(lags, np.arange(N))
        np.testing.assert_array_equal(gaps, np.arange(N))
        assert weights.shape == (N,)
        # each weight is one complex dot product of N - k terms, whose real
        # part sums 2 (N - k) real products in some order: it is off by at
        # most gamma_{2(N-k)} sum_m |a_m| |a_{m+k}| (Higham, Accuracy and
        # Stability, Section 3.1), the same doubled off k = 0
        u = 2.0**-53
        n = 2.0 * (N - lags)
        mag = np.abs(seq.values)
        scale = np.correlate(mag, mag, "full")[N - 1 :] * np.where(lags == 0, 1.0, 2.0)
        bound = n * u / (1.0 - n * u) * scale
        assert np.all(lag_errors(weights, exact_lag_sums(seq.values)) <= bound)

    def test_closer_to_exact_sums_than_pair_groups(self):
        # at the sieve workload's size: the lag path errs by 6.9e-15 at most,
        # the sequential bincount sums of the _pair_groups entries by 2.8e-14
        seq = Sequence.random(N=256, seed=1)
        exact = exact_lag_sums(seq.values)
        lag = lag_errors(_lag_groups(seq)[2], exact)
        lags, _, weights = _pair_groups(seq, seq.ns.astype(float))[:3]
        pair = lag_errors(np.bincount(lags, weights), exact)
        assert np.max(lag) <= np.max(pair)

    def test_young_ls_lhs_at_gamma_one_matches_pair_groups(self):
        seq = Sequence.random(N=97, seed=47)
        cs = np.arange(1, 40)
        pair = _hybrid_lhs_one_modulus(_pair_groups(seq, seq.ns.astype(float)), np.full(cs.size, 1.5), cs, 0.6)
        got = young_ls_lhs(seq, 1.0, 0.6, 1.5, 39)
        assert got == pytest.approx(math.fsum(pair), rel=1e-13)

    def test_peak_memory_at_N_4096(self):
        # the pair path at gamma = 1 peaked at 352 MB here; the lag path
        # holds the (2N - 1)-entry autocorrelation and one kernel block
        seq = Sequence.random(N=4096, seed=1)
        young_ls_lhs(seq, 1.0, 1.0, 1.0, 8)  # the kept Ramanujan rows of c <= 8
        tracemalloc.start()
        try:
            value = young_ls_lhs(seq, 1.0, 1.0, 1.0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value) and value > 0
        assert peak < 1 << 20


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_sieve_pass(monkeypatch):
    """A sieve pass of the benchmark under its tracer, on the seed-1
    inputs: every operation and check passes, and every binding the tracer
    replaced is restored afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    modules = [m for key, m in sys.modules.items() if key.startswith("specpoint.")]
    saved = [(m, name, m.__dict__[name]) for m in modules for _, name, _ in tracing.LAYERS if name in m.__dict__]
    inputs = workloads.make_inputs("sieve", 1)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        attempt = workloads.Attempts()
        outputs = workloads.run_sieve(inputs, attempt)
        layers = tracer.layer_metrics()
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
    assert [op["op"] for op in attempt.log] == ["young_ls_ratio", "p_bound_rhs"]
    assert all(op["ok"] for op in attempt.log), attempt.log
    assert layers["sievebench.young_ls_ratio.calls"] == 1
    assert layers["kuznetsov.p_bound_rhs.calls"] == 1
    _, checks, _ = workloads.evaluate("sieve", inputs, outputs)
    assert all(check["ok"] for check in checks), checks


def ramanujan_row(c: int) -> np.ndarray:
    """c_c(k) for k = 0..c/2 as the kept table holds it."""
    table, starts = _ramanujan_table(c)
    return table[starts[c - 1] : starts[c]]


def table_entries(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, k) of every entry of a kept table with these row starts."""
    sizes = np.diff(starts)
    c = np.repeat(np.arange(1, sizes.size + 1), sizes)
    return c, np.arange(c.size) - np.repeat(starts[:-1], sizes)


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

    @pytest.mark.parametrize(
        "mods,length",
        [
            ([1], 1),
            ([5, 1, 12, 12], 1),
            ([7, 12, 30, 30, 1], 2),
            ([10_007, 9_999, 30_030, 9_999], 9),
            (range(1, 61), 40),
        ],
    )
    def test_divisor_sums_match_hoelder(self, mods, length):
        # any moduli, repeats and rows of one entry included, at k = 0..L-1
        mods = np.array(mods)
        sums = _ramanujan_sums(mods, np.full(mods.size, length))
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(sums.reshape(mods.size, length), hoelder(mods[:, None], np.arange(length)))

    def test_table_matches_hoelder_in_one_build(self, fresh_table):
        table, starts = _ramanujan_table(1000)
        assert starts.size == 1001 and table.dtype == np.float64
        np.testing.assert_array_equal(table, hoelder(*table_entries(starts)))

    def test_table_grown_in_steps_matches_hoelder(self, fresh_table):
        # each step builds its new moduli only, the last one over several runs
        assert len(list(sievebench._runs(301, 1000))) > 1
        for C in (7, 300, 1000):
            table, starts = _ramanujan_table(C)
            assert starts.size == C + 1
            np.testing.assert_array_equal(table, hoelder(*table_entries(starts)))

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    @pytest.mark.parametrize("cs", [range(1, 41), [3, 1, 5, 37, 17, 101, 64, 17, 2310, 12, 29]])
    def test_rows_past_the_bound_match_hoelder(self, fresh_table, monkeypatch, gamma, cs):
        # blocks of three moduli: inside the bound of 16, across it and past
        # it, at gamma = 1 (the lags 0..24) and gamma = 0.5 (pair lists)
        seq = Sequence.random(N=24, seed=29)
        groups = _lag_groups(seq) if gamma == 1 else _pair_groups(seq, seq.ns.astype(float) ** gamma)
        cs = np.array(cs)
        vs = np.linspace(0.5, 3.0, cs.size)
        monkeypatch.setattr(sievebench, "_KERNEL_BLOCK", 3 * groups.lags.size)
        want = _hybrid_lhs_one_modulus(groups, vs, cs, 0.7)
        table, starts = sievebench._RAMANUJAN
        monkeypatch.setattr(sievebench, "_RAMANUJAN", (table[:1], starts[:2]))
        monkeypatch.setattr(sievebench, "_RAMANUJAN_MODULI", 16)
        rows, past = sievebench._ramanujan_rows, []

        def checked(c, ks, table, starts):
            x = rows(c, ks, table, starts)
            np.testing.assert_array_equal(x, hoelder(c, ks))
            past.append(int(np.max(c)) > 16)
            return x

        monkeypatch.setattr(sievebench, "_ramanujan_rows", checked)
        got = _hybrid_lhs_one_modulus(groups, vs, cs, 0.7)
        assert sievebench._RAMANUJAN[1].size == 17 and set(past) == {False, True}
        np.testing.assert_array_equal(got, want)

    def test_the_ramanujan_path_takes_no_gcd(self, fresh_table, monkeypatch):
        # the table and the rows past its bound come from divisor sums
        gcd = np.gcd

        def no_gcd(*args, **kwargs):
            raise AssertionError("np.gcd called")

        monkeypatch.setattr(np, "gcd", no_gcd)
        table, starts = _ramanujan_table(300)
        seq = Sequence.random(N=12, seed=4)
        want = young_ls_lhs(seq, 0.5, 0.7, 1.3, 40)
        monkeypatch.setattr(sievebench, "_RAMANUJAN", (table[:1], starts[:2]))
        monkeypatch.setattr(sievebench, "_RAMANUJAN_MODULI", 16)
        assert young_ls_lhs(seq, 0.5, 0.7, 1.3, 40) == want
        monkeypatch.setattr(np, "gcd", gcd)
        assert starts.size == 301
        np.testing.assert_array_equal(table, hoelder(*table_entries(starts)))

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

    res = adaptive_quadrature(integrand, sw.t_lower, sw.t_upper, tol * math.pi / 2.0, initial_panels=32)
    return res.scaled(2.0 / math.pi)


class TestEisensteinForm:
    def test_rejects_a_window_past_the_zeta_cap(self, monkeypatch):
        # at T = 1e6 zeta_many would take 1.6M terms for each t-node
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(sievebench, "_eisenstein_weights", no_grid)
        with pytest.raises(ValueError, match=r"T \+ 6\.5 M = 1\.00001e\+06 .* above zeta_many's cap"):
            _eisenstein_form(np.array([1, 2]), *np.eye(2), SpectralWeight(T=1e6, M=1.0), 1e-8)

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

    @pytest.mark.parametrize(
        "T,M,tol",
        [
            (3.0, 1.0, 1e-8),
            pytest.param(
                3.0,
                1.5,
                1e-6,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="a plain integrand has no rounding bar: a change of exactly 0 reads as a bar of 0",
                ),
            ),
            (14.0, 4.0, 1e-8),
        ],
    )
    def test_bar_covers_two_refinements_finer(self, monkeypatch, T, M, tol):
        # the closure's pairs and a decomposition's block at the bench's
        # windows and at T=14: each bar covers the value two refinements
        # finer. At T=3, M=1.5 the pairs (1, 1) and (4, 4) stop on a change
        # of exactly 0 and move by 4.4e-16 and 8.9e-16 two grids finer
        sw, checks = SpectralWeight(T=T, M=M), two_refinements_finer(monkeypatch, sievebench)
        for m, n in [(1, 1), (1, 4), (2, 3), (4, 4)]:
            _eisenstein_form(np.array([m, n]), *np.eye(2), sw, tol)
        seq = Sequence.random(4, seed=1, real=True)
        _eisenstein_form(seq.ns, seq.values.real, seq.values.real, sw, tol)
        assert len(checks) == 5
        for res, finer in checks:
            assert res.converged
            assert abs(finer - res.value) <= res.err_estimate

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


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Sequence(N=0, values=np.zeros(0)), "N must be at least 1"),
        (lambda: young_ls_lhs(Sequence.random(8, seed=1), 0.0, 1.0, 1.0, 8), "gamma must be nonzero"),
        (lambda: moment_demo(GL3Form({(1, 1): 1.0}, 1), [], SW, N=16, n1=0), "n1 and N must be positive"),
        (lambda: moment_demo(GL3Form({(1, 1): 1.0}, 1), [], SW, N=0), "n1 and N must be positive"),
    ],
    ids=["Sequence-N", "young_ls_lhs-gamma", "moment_demo-n1", "moment_demo-N"],
)
def test_rejects_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
