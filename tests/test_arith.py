"""Exponential-sum kernels against brute-force enumeration oracles."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpoint import arith


def kloosterman_bruteforce(m, n, c):
    """Independent path: descending loop, cmath.exp, no angle reduction."""
    if c == 1:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for a in range(c - 1, 0, -1):
        if math.gcd(a, c) != 1:
            continue
        abar = pow(a, -1, c)
        total += cmath.exp(2j * math.pi * (a * m + abar * n) / c)
    return total


def vq_bruteforce(q, m, n, c):
    if c == 1:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for a in range(c - 1, -1, -1):
        if math.gcd(a * (q - a), c) != 1:
            continue
        inv_a = pow(a, -1, c)
        inv_b = pow(q - a, -1, c)
        total += cmath.exp(2j * math.pi * (inv_a * m + inv_b * n) / c)
    return total


class TestModInverse:
    def test_unit_table_inverses(self):
        for c in [*range(2, 301), 4096, 4099]:
            alphas, inv = arith._unit_residues(c)
            assert alphas.tolist() == [a for a in range(1, c) if math.gcd(a, c) == 1]
            assert np.all((0 <= inv) & (inv < c))
            assert np.all(alphas * inv % c == 1), c


class TestKloosterman:
    def test_zero_frequencies_give_totient(self):
        for c in [1, 2, 6, 12, 30, 97]:
            s = arith.kloosterman(0, 0, c)
            assert s == pytest.approx(arith._totients(c)[c], abs=1e-10)

    def test_small_values(self):
        assert arith.kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
        # brute force over alpha in {1,2}: e(2/3) + e(4/3) = -1
        assert arith.kloosterman(1, 1, 3) == pytest.approx(-1.0, abs=1e-12)
        # c = 1 takes the general path: its one unit is 0, and cos(0) = 1 exactly
        for m, n in [(0, 0), (1, 1), (-3, 8)]:
            assert arith.kloosterman(m, n, 1) == 1.0

    def test_sum_is_real(self):
        # the real float S, and a complex brute-force sum whose imaginary part is rounding
        for (m, n, c) in [(1, 1, 5), (2, 7, 36), (3, 5, 101), (0, 4, 64)]:
            s = arith.kloosterman(m, n, c)
            assert isinstance(s, float)
            assert abs(kloosterman_bruteforce(m, n, c).imag) <= 1e-10 * (1 + abs(s))

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, m, n, c):
        assert arith.kloosterman(m, n, c) == pytest.approx(
            kloosterman_bruteforce(m, n, c), abs=1e-12 * c + 1e-12
        )

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, m, n, c):
        assert arith.kloosterman(m, n, c) == pytest.approx(
            arith.kloosterman(n, m, c), abs=1e-12 * c + 1e-12
        )


class TestKloostermanArray:
    MODULI = np.arange(1, 301)

    @pytest.mark.parametrize(
        "m,n", [(1, 1), (0, 0), (0, 5), (12, 0), (-7, 3), (-30, -12), (6, 10), (60, 90)]
    )
    def test_matches_scalar_and_bruteforce(self, m, n):
        # m = 0 or n = 0 is 0 mod every c; (6, 10) and (60, 90) share factors with c
        got = arith.kloosterman(m, n, self.MODULI)
        assert got.dtype == np.float64
        bound = 1e-12 * self.MODULI + 1e-12
        scalar = np.array([arith.kloosterman(m, n, int(c)) for c in self.MODULI])
        brute = np.array([kloosterman_bruteforce(m, n, int(c)) for c in self.MODULI])
        assert np.all(np.abs(got - scalar) <= bound)
        assert np.all(np.abs(got - brute) <= bound)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (-3, 8)])
    def test_moduli_one_and_two(self, m, n):
        # S(m,n;1) = 1 and S(m,n;2) = (-1)^(m+n): each has one self-paired unit
        got = arith.kloosterman(m, n, [2, 1, 2, 3])
        want = [(-1) ** (m + n), 1.0, (-1) ** (m + n), arith.kloosterman(m, n, 3)]
        assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("moduli", [[0], [-2], [5, 0, 7]])
    def test_nonpositive_modulus_raises(self, moduli):
        with pytest.raises(ValueError):
            arith.kloosterman(1, 1, np.array(moduli))


class TestHalfUnits:
    # the table of a fresh process: modulus 1 alone, whose one unit is 0
    FRESH = (np.zeros(1, np.int32), np.zeros(1, np.int32), np.arange(2))

    @pytest.mark.parametrize(
        "steps", [[600], [100, 60, 600], [2, 3, 600]], ids=["at-once", "in-steps", "from-two"]
    )
    def test_matches_unit_residue_halves(self, steps, monkeypatch):
        monkeypatch.setattr(arith, "_HALF_UNITS", self.FRESH)
        for C in steps:
            alphas, invs, starts = arith._half_units(C)
        assert starts.size == 601
        for c in range(1, 601):
            units, inv = arith._build_unit_residues(c)
            half = (units.size + 1) // 2
            lo, hi = starts[c - 1], starts[c]
            assert hi - lo == half, c
            assert np.array_equal(alphas[lo:hi], units[:half]), c
            assert np.array_equal(invs[lo:hi], inv[:half]), c
            assert np.all(alphas[lo:hi].astype(np.int64) * invs[lo:hi] % c == 1 % c), c

    def test_totients(self):
        # phi(c) by its definition, the units among 1..c
        want = [sum(math.gcd(a, c) == 1 for a in range(1, c + 1)) for c in range(1, 1001)]
        assert arith._totients(1000)[1:].tolist() == want

    def test_build_memory_is_bounded(self, monkeypatch):
        # built modulus by modulus into concatenated copies of the table,
        # C = 4096 peaked at up to 31.8 MB; the runs write into one
        # preallocated table and peak at ~20.9 MB
        monkeypatch.setattr(arith, "_HALF_UNITS", self.FRESH)
        tracemalloc.start()
        try:
            arith._half_units(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 31_800_000


class TestVqSum:
    def test_degenerate_modulus(self):
        assert arith.vq_sum(5, 3, 7, 1) == 1.0 + 0.0j

    def test_empty_sum(self):
        # alpha*(1-alpha) is always even, so no unit terms mod 2
        assert arith.vq_sum(1, 0, 0, 2) == 0.0 + 0.0j

    @given(
        st.integers(-20, 20),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 150),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, q, m, n, c):
        assert arith.vq_sum(q, m, n, c) == pytest.approx(
            vq_bruteforce(q, m, n, c), abs=1e-12 * c + 1e-12
        )

    @given(st.integers(-15, 15), st.integers(0, 25), st.integers(0, 25), st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, q, m, n, c):
        # alpha -> q - alpha swaps the two frequencies
        assert arith.vq_sum(q, m, n, c) == pytest.approx(
            arith.vq_sum(q, n, m, c), abs=1e-12 * c + 1e-12
        )


class TestFactorizationIdentity:
    def test_trivial_modulus(self):
        assert arith.factorization_identity_residual(3, 5, 1) <= 1e-12

    def test_c6_closed_form(self):
        # both sides equal -e(1/3) at (m,n,c) = (1,1,6)
        lhs = arith.kloosterman(1, 1, 6) * arith.e(2 / 6)
        assert lhs == pytest.approx(-arith.e(1 / 3), abs=1e-12)
        assert arith.factorization_identity_residual(1, 1, 6) <= 1e-12

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 500))
    @settings(max_examples=80, deadline=None)
    def test_residual_small(self, m, n, c):
        assert arith.factorization_identity_residual(m, n, c) <= 1e-10

    def test_randomized_sweep(self):
        rng = np.random.default_rng(20240229)
        worst = 0.0
        for _ in range(200):
            c = int(rng.integers(1, 501))
            m = int(rng.integers(-1000, 1001))
            n = int(rng.integers(-1000, 1001))
            worst = max(worst, arith.factorization_identity_residual(m, n, c))
        assert worst <= 1e-10


def weil_ratio(m, n, c):
    """|S(m,n;c)| / (tau(c) sqrt(gcd(m,n,c)) sqrt(c)), gcd(0, x) = x: at most
    1 by Weil's bound, which kuznetsov's c-tail bars rest on."""
    g = math.gcd(math.gcd(abs(m), abs(n)), c)
    return abs(arith.kloosterman(m, n, c)) / (arith.divisor_count(c) * math.sqrt(g) * math.sqrt(c))


class TestWeilRatio:
    def test_examples(self):
        assert weil_ratio(1, 1, 3) == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-12)
        assert weil_ratio(1, 1, 2) == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-12)

    def test_zero_frequencies(self):
        for c in [1, 4, 12, 36, 97]:
            assert weil_ratio(0, 0, c) <= 1 + 1e-12

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 1000))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_one(self, m, n, c):
        assert weil_ratio(m, n, c) <= 1 + 1e-12


class TestQuadraticFormBound:
    def test_random_sequences(self):
        rng = np.random.default_rng(7)
        for c in [1, 2, 5, 24, 60, 100]:
            n_len = int(rng.integers(4, 65))
            a = rng.normal(size=n_len) + 1j * rng.normal(size=n_len)
            smat = np.array(
                [[arith.kloosterman(m, n, c) for n in range(1, n_len + 1)] for m in range(1, n_len + 1)]
            )
            lhs = abs(np.einsum("m,n,mn->", a, a.conj(), smat))
            rhs = (
                arith.divisor_count(c) ** 2
                * math.sqrt(c)
                * n_len
                * float(np.sum(np.abs(a) ** 2))
            )
            assert lhs <= rhs + 1e-9


class TestMultiplicativeBasics:
    def test_examples(self):
        # (tau, phi, mu, prime factorization) of n
        for n, want in [
            (1, (1, 1, 1, {})),
            (12, (6, 4, 0, {2: 2, 3: 1})),
            (30, (8, 8, -1, {2: 1, 3: 1, 5: 1})),
        ]:
            got = (arith.divisor_count(n), arith._totients(n)[n], arith.moebius(n), dict(arith.factorize(n)))
            assert got == want

    def test_divisor_sigma(self):
        assert arith.divisor_sigma(0, 6) == pytest.approx(4)
        assert arith.divisor_sigma(1, 6) == pytest.approx(12)
        assert arith.divisor_sigma(2j, 1) == pytest.approx(1)

    @given(st.integers(1, 2000))
    def test_phi_tau_consistency(self, n):
        assert arith.divisor_count(n) == len(arith.divisors(n))
        assert arith._totients(n)[n] == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert math.prod(p**k for p, k in arith.factorize(n)) == n
