"""Spectrum parsing/validation and the symmetric-square coefficient table."""

import math

import numpy as np
import pytest

from specpoint.spectraldata import (
    CoefficientRangeError,
    GL3Form,
    MaassForm,
    SpectrumError,
    hecke_consistency,
    load_spectrum,
    rankin_selberg_ratio,
    save_spectrum,
    sym_square_lift,
    synthetic_form,
    synthetic_spectrum,
)


@pytest.fixture(scope="module")
def spectrum():
    return synthetic_spectrum(count=12, n_max=120, seed=42)


class TestMaassForm:
    def test_rejects_bad_fields(self):
        with pytest.raises(SpectrumError):
            MaassForm(t=-1.0, parity="even", omega=0.1, hecke=np.array([1.0]))
        with pytest.raises(SpectrumError):
            MaassForm(t=9.0, parity="weird", omega=0.1, hecke=np.array([1.0]))
        with pytest.raises(SpectrumError):
            MaassForm(t=9.0, parity="odd", omega=-0.1, hecke=np.array([1.0]))
        with pytest.raises(SpectrumError):
            MaassForm(t=9.0, parity="odd", omega=0.1, hecke=np.array([2.0]))
        nan, inf = math.nan, math.inf
        # a NaN fails every comparison, so no sign check catches it
        bad = [(nan, 0.1, [1.0]), (inf, 0.1, [1.0]), (9.0, nan, [1.0]), (9.0, inf, [1.0])]
        for t, omega, hecke in bad + [(9.0, 0.1, [1.0, nan]), (9.0, 0.1, [nan])]:
            with pytest.raises(SpectrumError, match="finite"):
                MaassForm(t=t, parity="even", omega=omega, hecke=np.array(hecke))

    def test_prime_power_recursion_matches_table(self, spectrum):
        f = spectrum[0]
        for p in (2, 3, 5):
            for a in (1, 2, 3):
                if p**a <= f.nmax:
                    assert f.lam_prime_power(p, a) == pytest.approx(f.lam(p**a), abs=1e-11)

    def test_extended_coefficients(self, spectrum):
        f = spectrum[0]
        # 2^8 = 256 exceeds nmax=120 but factors over stored primes
        val = f.lam_extended(256)
        assert val == pytest.approx(f.lam_prime_power(2, 8), abs=1e-12)
        with pytest.raises(CoefficientRangeError):
            f.lam_extended(127 * 127)  # prime 127 > nmax

    def test_hecke_consistency_exact(self, spectrum):
        for f in spectrum:
            assert hecke_consistency(f) <= 1e-10

    def test_hecke_consistency_detects_violation(self, spectrum):
        f = spectrum[0]
        broken = np.array(f.hecke)
        broken[5] += 0.37  # lambda(6)
        g = MaassForm(t=f.t, parity=f.parity, omega=f.omega, hecke=broken)
        resid = hecke_consistency(g)
        assert resid >= 0.37 - 1e-9


class TestSpectrumIO:
    def test_round_trip(self, tmp_path, spectrum):
        path = tmp_path / "spec.txt"
        save_spectrum(path, spectrum, tol=1e-9, source="synthetic-test")
        manifest, forms = load_spectrum(path)
        assert manifest.count == len(spectrum)
        assert manifest.source == "synthetic-test"
        assert [f.t for f in forms] == sorted(f.t for f in spectrum)
        orig = {f.t: f for f in spectrum}
        for f in forms:
            assert np.allclose(f.hecke, orig[f.t].hecke, atol=0)

    def test_empty_spectrum(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("#maass-spectrum v1 nmax=4 tol=1e-9\n")
        with pytest.raises(SpectrumError, match="empty spectrum"):
            load_spectrum(path)

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#maass-spectrum v1 nmax=4 tol=1e-9\n9.5 even 0.5 1.0 oops\n")
        with pytest.raises(SpectrumError, match="line 2"):
            load_spectrum(path)

    def test_nan_record_reports_line(self, tmp_path):
        # a record of NaNs passes the Hecke check too, as its max reads no NaN
        path = tmp_path / "nan.txt"
        path.write_text("#maass-spectrum v1 nmax=6 tol=1e-8\nnan even nan nan nan nan nan nan\n")
        with pytest.raises(SpectrumError, match="line 2"):
            load_spectrum(path)

    def test_hecke_violation_rejected(self, tmp_path):
        # lambda(6) must equal lambda(2)*lambda(3) for gcd-coprime 2, 3
        path = tmp_path / "violation.txt"
        path.write_text(
            "#maass-spectrum v1 nmax=6 tol=1e-8\n"
            "9.5 even 0.5 0.7 0.3 -0.51 0.4 0.9\n"
        )
        with pytest.raises(SpectrumError, match="Hecke"):
            load_spectrum(path)


class TestSymSquare:
    def test_normalization(self, spectrum):
        gl3 = sym_square_lift(spectrum[0], 64)
        assert gl3.a(1, 1) == 1.0
        assert gl3.self_dual

    def test_prime_values(self, spectrum):
        f = spectrum[1]
        gl3 = sym_square_lift(f, 64)
        for p in (2, 3, 5, 7):
            assert gl3.a(1, p).real == pytest.approx(f.lam(p) ** 2 - 1.0, abs=1e-10)

    def test_prime_power_expansion(self, spectrum):
        # A(1, 4) collects d = 1 (lambda(16)) and d = 2 (lambda(1))
        f = spectrum[2]
        gl3 = sym_square_lift(f, 64)
        assert gl3.a(1, 4).real == pytest.approx(f.lam(16) + 1.0, abs=1e-10)

    def test_degree_three_local_relation(self, spectrum):
        # b(p) b(p^k) = b(p^{k+1}) + b(p) b(p^{k-1}) - b(p^{k-2}) for k >= 2,
        # the signature of a degree-3 Euler factor; independent of the
        # convolution used to build the table
        f = spectrum[0]
        gl3 = sym_square_lift(f, 96)
        for p, kmax in ((2, 5), (3, 3)):
            b = lambda k: gl3.a(1, p**k).real
            for k in range(2, kmax):
                lhs = b(1) * b(k)
                rhs = b(k + 1) + b(1) * b(k - 1) - b(k - 2)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_multiplicativity_of_first_row(self, spectrum):
        f = spectrum[3]
        gl3 = sym_square_lift(f, 60)
        for (m, n) in [(2, 3), (4, 9), (3, 5), (4, 15)]:
            assert gl3.a(1, m * n).real == pytest.approx(
                gl3.a(1, m).real * gl3.a(1, n).real, abs=1e-9
            )

    def test_hecke_relation_on_table(self, spectrum):
        from specpoint.arith import divisors, moebius

        gl3 = sym_square_lift(spectrum[0], 100)
        for (m, n) in [(2, 2), (2, 4), (3, 6), (6, 4), (9, 3)]:
            if m * m * n > gl3.x_max:
                continue
            want = sum(
                moebius(d) * gl3.a(m // d, 1) * gl3.a(1, n // d)
                for d in divisors(math.gcd(m, n))
            )
            assert gl3.a(m, n).real == pytest.approx(want.real, abs=1e-8)

    def test_dual_of_self_dual_is_conjugate(self, spectrum):
        gl3 = sym_square_lift(spectrum[0], 40)
        dual = gl3.dual
        for (m, n) in [(1, 5), (2, 3), (1, 12)]:
            assert dual.a(m, n) == pytest.approx(np.conj(gl3.a(n, m)), abs=1e-12)

    def test_insufficient_range(self):
        small = synthetic_form(10.0, "even", 0.5, n_max=10, seed=1)
        with pytest.raises(CoefficientRangeError):
            sym_square_lift(small, 400)  # needs lambda(p) for p up to 20


class TestRankinSelberg:
    def test_single_term(self, spectrum):
        gl3 = sym_square_lift(spectrum[0], 16)
        assert rankin_selberg_ratio(gl3, 1) == pytest.approx(1.0)

    def test_doubling_band_and_cap(self, spectrum):
        gl3 = sym_square_lift(spectrum[0], 112)
        ratios = [rankin_selberg_ratio(gl3, X) for X in (7, 14, 28, 56, 112)]
        assert all(r <= 10.0 for r in ratios)
        for r1, r2 in zip(ratios, ratios[1:]):
            assert r2 <= 4.0 * r1 and r1 <= 4.0 * r2


def test_omega_decay_floor(spectrum):
    floor = min(f.omega * f.t**0.1 for f in spectrum)
    assert floor > 0.01


def test_langlands_must_balance():
    with pytest.raises(ValueError):
        GL3Form(langlands=(1.0, 2.0, 3.0), coeff={(1, 1): 1.0}, self_dual=True, x_max=1)
