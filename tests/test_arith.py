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
            assert s == pytest.approx(arith._moebius_totients(c)[1][c], abs=1e-10)

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

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 7), (123_456_789, -987_654_321)])
    def test_int32_angles_match_int64_angles(self, m, n):
        # the angles alpha m + alpha^{-1} n mod c, here in int64, and each
        # modulus's cosines summed by one reduceat: the same sums bit for bit
        C = 4105
        alphas, invs, starts = arith._half_units(C)
        cs = np.arange(1, C + 1)
        sizes = np.diff(starts)
        m_res, n_res, c = (np.repeat(v, sizes) for v in (m % cs, n % cs, cs))
        angles = (alphas.astype(np.int64) * m_res + invs.astype(np.int64) * n_res) % c
        want = np.add.reduceat(np.cos(np.repeat(arith.TWO_PI / cs, sizes) * angles), starts[:-1])
        want[2:] *= 2.0
        np.testing.assert_array_equal(arith.kloosterman(m, n, cs), want)

    def test_int32_angles_cannot_overflow(self, monkeypatch):
        # alpha m + alpha^{-1} n < (c/2) c + c^2 < 2 C^2 with m, n reduced mod c;
        # the largest C whose half-unit table fits _MAX_HALF_UNITS keeps that
        # below 2^31
        monkeypatch.setattr(arith, "_MOEBIUS_TOTIENTS", arith._MOEBIUS_TOTIENTS)
        phi = arith._moebius_totients(1 << 15)[1]
        entries = 1 + np.cumsum((phi[2:] + 1) // 2)  # the table's size at C = 2, 3, ...
        C = 1 + int(np.searchsorted(entries, arith._MAX_HALF_UNITS, side="right"))
        assert C < 1 << 15
        assert 2 * C**2 < 2**31

    @pytest.mark.parametrize("moduli", [[0], [-2], [5, 0, 7]])
    def test_nonpositive_modulus_raises(self, moduli):
        with pytest.raises(ValueError):
            arith.kloosterman(1, 1, np.array(moduli))

    def test_no_moduli_give_an_empty_array(self):
        sums = arith.kloosterman(1, 1, np.array([], dtype=int))
        assert sums.shape == (0,) and sums.dtype == np.float64


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
        assert arith._moebius_totients(1000)[1][1:].tolist() == want

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

    def test_rejects_a_table_past_the_entry_bound(self, monkeypatch):
        # C = 129,591 (closure --pairs 500,700 --T 3 --M 1) asked numpy for
        # 2 x 2.55e9 int32 entries; it is rejected before they are allocated
        monkeypatch.setattr(arith, "_HALF_UNITS", self.FRESH)
        # the mu/phi table grows to C here: it is restored after the test
        monkeypatch.setattr(arith, "_MOEBIUS_TOTIENTS", arith._MOEBIUS_TOTIENTS)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^C = 129591 needs 2,552,373,042 Kloosterman units"):
                arith._half_units(129_591)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20  # the mu/phi sieve and the offsets
        assert arith._HALF_UNITS is self.FRESH
        # a table of exactly the bound is built, one modulus more is not
        size = int(arith._half_units(600)[2][-1])
        monkeypatch.setattr(arith, "_HALF_UNITS", self.FRESH)
        monkeypatch.setattr(arith, "_MAX_HALF_UNITS", size)
        assert arith._half_units(600)[2][-1] == size
        with pytest.raises(ValueError, match=r"^C = 601 "):
            arith._half_units(601)


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


def e(x: float) -> complex:
    """exp(2*pi*i*x)."""
    return complex(math.cos(2.0 * math.pi * x), math.sin(2.0 * math.pi * x))


def factorization_identity_residual(m: int, n: int, c: int) -> float:
    """| S(m,n;c)*e((m+n)/c) - sum_{q*r = c} V_q(m,n;r) |."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    lhs = arith.kloosterman(m, n, c) * e(((m + n) % c) / c)
    rhs = 0.0 + 0.0j
    for q in arith.divisors(c):
        rhs += arith.vq_sum(q, m, n, c // q)
    return abs(lhs - rhs)


class TestFactorizationIdentity:
    def test_trivial_modulus(self):
        assert factorization_identity_residual(3, 5, 1) <= 1e-12

    def test_c6_closed_form(self):
        # both sides equal -e(1/3) at (m,n,c) = (1,1,6)
        lhs = arith.kloosterman(1, 1, 6) * e(2 / 6)
        assert lhs == pytest.approx(-e(1 / 3), abs=1e-12)
        assert factorization_identity_residual(1, 1, 6) <= 1e-12

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 500))
    @settings(max_examples=80, deadline=None)
    def test_residual_small(self, m, n, c):
        assert factorization_identity_residual(m, n, c) <= 1e-10

    def test_randomized_sweep(self):
        rng = np.random.default_rng(20240229)
        worst = 0.0
        for _ in range(200):
            c = int(rng.integers(1, 501))
            m = int(rng.integers(-1000, 1001))
            n = int(rng.integers(-1000, 1001))
            worst = max(worst, factorization_identity_residual(m, n, c))
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
            phi = arith._moebius_totients(n)[1][n]
            got = (arith.divisor_count(n), phi, arith.moebius(n), dict(arith.factorize(n)))
            assert got == want

    def test_divisor_sigma(self):
        assert arith.divisor_sigma(0, 6) == pytest.approx(4)
        assert arith.divisor_sigma(1, 6) == pytest.approx(12)
        assert arith.divisor_sigma(2j, 1) == pytest.approx(1)

    @given(st.integers(1, 2000))
    def test_phi_tau_consistency(self, n):
        assert arith.divisor_count(n) == len(arith.divisors(n))
        assert arith._moebius_totients(n)[1][n] == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert math.prod(p**k for p, k in arith.factorize(n)) == n


class TestMoebiusTotients:
    FRESH = (np.zeros(1, np.int64), np.zeros(1, np.int64))

    def test_moebius_by_inversion(self):
        # mu is the one function with sum over d | n of mu(d) = [n = 1];
        # divisors comes from trial division, not from the sieve
        want = [0, 1]
        for n in range(2, 2001):
            want.append(-sum(want[d] for d in arith.divisors(n)[:-1]))
        assert arith._moebius_totients(2000)[0].tolist() == want
        assert [arith.moebius(n) for n in range(1, 2001)] == want[1:]

    def test_moebius_rejects_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError, match="positive"):
                arith.moebius(n)

    def test_table_is_kept_for_the_largest_C(self, monkeypatch):
        # moduli asked for one by one in ascending order sieve the table
        # nine times up to C = 299, each to twice the size; a smaller C
        # reads a prefix of it
        monkeypatch.setattr(arith, "_MOEBIUS_TOTIENTS", self.FRESH)
        sizes = []
        for C in range(1, 300):
            arith._moebius_totients(C)
            sizes.append(arith._MOEBIUS_TOTIENTS[1].size)
        assert sorted(set(sizes)) == [2, 4, 8, 16, 32, 64, 128, 256, 512]
        kept = arith._MOEBIUS_TOTIENTS
        mu, phi = arith._moebius_totients(10)
        assert mu.size == phi.size == 11
        assert np.shares_memory(mu, kept[0]) and np.shares_memory(phi, kept[1])
        monkeypatch.setattr(arith, "_MOEBIUS_TOTIENTS", self.FRESH)
        once = arith._moebius_totients(511)
        assert all(np.array_equal(table, whole) for table, whole in zip(once, kept))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: arith.kloosterman(1, 2, np.array([[1, 2], [3, 4]])), "1-d integer array"),
        (lambda: arith.kloosterman(1, 2, np.array([1.0, 2.0])), "1-d integer array"),
        (lambda: arith.kloosterman(1, 2, 0), "modulus must be positive"),
        (lambda: arith.kloosterman(1, 2, -3), "modulus must be positive"),
        (lambda: arith.vq_sum(1, 1, 2, 0), "modulus must be positive"),
        (lambda: arith.divisor_sigma(0.5j, 0), "argument must be positive"),
        (lambda: arith.factorize(0), "argument must be positive"),
        (lambda: arith.factorize(-4), "argument must be positive"),
    ],
    ids=["kloosterman-2d", "kloosterman-float", "kloosterman-0", "kloosterman-negative",
         "vq_sum", "divisor_sigma", "factorize-0", "factorize-negative"],
)
def test_rejects_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
