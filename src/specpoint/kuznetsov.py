"""Both sides of the trace identity, and its sequence-averaged form.

For a pair (m, n) the identity balances

    sum_j omega_j h(t_j; y) lambda_j(m) lambda_j(n)
    + (1/pi) int omega(t) h(t; y) (n/m)^{it} sigma_{2it}(m) sigma_{-2it}(n) dt

against

    delta_{m,n} H0 + sum_c S(m,n;c)/c * H(4 pi sqrt(mn)/c, y)

with the twist fixed at y = sqrt(m/n), which turns (m/n)^{i t_j} into the
even factor cos(2 t log y). Averaging against a real sequence supported on
(N, 2N] gives the quadratic decomposition S + T = D + P. Every truncation
(spectral height, c-range, quadrature) carries an explicit reported bar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arith import _unit_residues, divisor_count, divisor_sigma, kloosterman
from .besselintegral import (
    R_CUT_FACTOR,
    SpectralWeight,
    bessel_H_many,
    weight_h,
    weight_h_y,
)
from .quadrature import QuadratureResult, adaptive_quadrature, fixed_gauss
from .sievebench import (
    Sequence,
    _eisenstein_linear_forms,
    _hybrid_lhs_one_modulus,
    _twisted_linear_forms,
)
from .specfun import eisenstein_density
from .spectraldata import MaassForm


def spectral_side(
    m: int,
    n: int,
    sw: SpectralWeight,
    forms: list[MaassForm],
) -> float:
    """sum_j omega_j h(t_j; y) lambda_j(m) lambda_j(n) at y = sqrt(m/n).

    A dataset that stops short of the weight's effective support (T + 6M)
    triggers a warning; the matching quantitative bar comes from
    spectral_tail_bar.
    """
    if not forms:
        warnings.warn("empty form list: spectral side is 0 with full tail uncovered")
        return 0.0
    y = math.sqrt(m / n)
    t_cov = max(f.t for f in forms)
    if t_cov < sw.T + 6.0 * sw.M:
        warnings.warn(
            f"spectrum covers t <= {t_cov:.2f} < T + 6M = {sw.T + 6 * sw.M:.2f}; "
            "tail bar applies"
        )
    return float(
        sum(f.omega * weight_h_y(f.t, y, sw) * f.lam(m) * f.lam(n) for f in forms)
    )


# No Maass cusp form of SL2(Z) has spectral parameter below t_1 = 9.5336952613...
# (Hejhal; Booker-Strombergsson-Venkatesh, Effective computation of Maass
# cusp forms, IMRN 2006), so the uncovered spectrum starts there at the earliest.
FIRST_CUSP_FORM_T = 9.53369526


def spectral_tail_bar(
    m: int, n: int, sw: SpectralWeight, forms: list[MaassForm]
) -> float:
    """Bound for the uncovered spectral tail t > max(t_cov, FIRST_CUSP_FORM_T):
    eigenvalue density t/6 times the Gaussian weight, coefficients bounded by
    tau(m) tau(n), harmonic weights by the dataset maximum (1 with no data)."""
    if not forms:
        t_cov = 0.0
        omega_cap = 1.0
    else:
        t_cov = max(f.t for f in forms)
        omega_cap = max(f.omega for f in forms)
    lo = max(t_cov, FIRST_CUSP_FORM_T)
    hi = sw.t_upper + 2.0 * sw.M
    if lo >= hi:
        return 0.0
    lam_cap = divisor_count(m) * divisor_count(n)
    val = fixed_gauss(lambda t: (t / 6.0) * weight_h(t, sw), lo, hi, order=32, panels=4)
    return float(abs(val)) * omega_cap * lam_cap


def eisenstein_side(
    m: int,
    n: int,
    sw: SpectralWeight,
    tol: float = 1e-10,
) -> QuadratureResult:
    """(1/pi) int omega(t) h(t; y) (n/m)^{it} sigma_{2it}(m) sigma_{-2it}(n) dt
    at y = sqrt(m/n).

    The integrand is Hermitian in t, so the value is real and computed as
    twice the real part over t > 0.
    """
    y = math.sqrt(m / n)
    log_nm = math.log(n / m)

    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        hy = weight_h_y(t, y, sw)
        ratio = np.exp(1j * t * log_nm)
        sigmas = divisor_sigma(2j * t, m) * divisor_sigma(-2j * t, n)
        return eisenstein_density(t) * hy * ratio * sigmas

    res = adaptive_quadrature(f, 1e-12, sw.t_upper, tol * math.pi / 2.0, initial_panels=24)
    value = 2.0 * res.value.real / math.pi
    return QuadratureResult(
        complex(value, 0.0), 2.0 * res.err_estimate / math.pi, res.evaluations, res.converged
    )


def diagonal_H0(sw: SpectralWeight, tol: float = 1e-10) -> QuadratureResult:
    """H0 = (1/pi^2) int h(t) tanh(pi t) t dt (even integrand, so 2x half-line)."""

    def f(t: np.ndarray) -> np.ndarray:
        return weight_h(t, sw) * np.tanh(math.pi * t) * t

    res = adaptive_quadrature(f, 0.0, sw.t_upper, tol * math.pi**2 / 2.0, initial_panels=16)
    return res.scaled(2.0 / math.pi**2)


def diagonal_closed_form(sw: SpectralWeight) -> float:
    """Leading term 2 M T / (pi sqrt(pi)) of the diagonal weight mass."""
    return 2.0 * sw.M * sw.T / (math.pi * math.sqrt(math.pi))


def diagonal_term(m: int, n: int, sw: SpectralWeight, tol: float = 1e-10) -> QuadratureResult:
    if m != n:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0)
    return diagonal_H0(sw, tol)


@dataclass
class KloostermanSideReport:
    """The c-sum, its bars, and how many moduli (tail probes included)
    each H route evaluated: the batched series and the x > 5 kernel."""

    value: float
    tail_estimate: float
    quadrature_err: float
    c_used: int
    first_omitted: float
    converged: bool
    series_moduli: int
    kernel_moduli: int


_TAIL_PROBE = 8  # omitted terms the c-tail bar evaluates directly
# |S| at or below this counts as a vanishing Kloosterman sum: neither
# arith.kloosterman nor the product form of _kloosterman_block rounds a
# vanishing sum to exactly 0
_S_VANISH = 1e-9


def _h_value(
    xs: np.ndarray, s_vals: np.ndarray, y: float, sw: SpectralWeight, tol: float
) -> tuple[QuadratureResult, int, int]:
    """H(x, y) for the c-sum terms of one twist y, with arguments xs and
    Kloosterman sums s_vals, and how many terms each route evaluated.

    A term with |S| <= _S_VANISH vanishes: its value and bar are 0 and no
    route evaluates it. The rest go through one bessel_H_many call. The
    result holds per-term values and bars in the order of xs; the two
    counts are (series, kernel).
    """
    live = np.abs(s_vals) > _S_VANISH
    res, series = bessel_H_many(xs[live], y, sw, tol)
    value = np.zeros(xs.size)
    err = np.zeros(xs.size)
    value[live], err[live] = res.value, res.err_estimate
    out = QuadratureResult(value, err, res.evaluations, res.converged)
    return out, series, int(np.count_nonzero(live)) - series


def kloosterman_side(
    m: int,
    n: int,
    sw: SpectralWeight,
    C_max: int,
    tol: float = 1e-8,
) -> KloostermanSideReport:
    """sum_{c <= C_max} S(m,n;c)/c * H(4 pi sqrt(mn)/c, y) at y = sqrt(m/n).

    Every modulus, tail probes included, shares y, so all terms go through
    one _h_value call; vanishing sums are 0 and take no route. The tail
    bar evaluates the next _TAIL_PROBE = 8 omitted terms directly and adds
    a 10x allowance, taken at the ninth, for the remainder (the terms
    decay in u = x(y+1/y) once u < 1). converged is the AND over every
    quadrature run, tail probes included.
    """
    if C_max < 0:
        raise ValueError("C_max must be non-negative")
    cs = np.arange(1, C_max + _TAIL_PROBE + 2)
    s_vals = np.array([kloosterman(m, n, int(c)).real for c in cs])
    xs = 4.0 * math.pi * math.sqrt(m * n) / cs
    h, series, kernel = _h_value(xs, s_vals, math.sqrt(m / n), sw, tol)
    values = (s_vals / cs * h.value).tolist()
    errs = (np.abs(s_vals) / cs * h.err_estimate).tolist()
    probed = sum(abs(v) + e for v, e in zip(values[C_max:-1], errs[C_max:-1]))
    return KloostermanSideReport(
        value=float(sum(values[:C_max])),
        tail_estimate=probed + 10.0 * abs(values[-1]),
        quadrature_err=float(sum(errs[:C_max])),
        c_used=C_max,
        first_omitted=abs(values[C_max]),
        converged=h.converged,
        series_moduli=series,
        kernel_moduli=kernel,
    )


@dataclass
class TraceReport:
    m: int
    n: int
    spectral: float
    eisenstein: float
    diagonal: float
    kloosterman: float
    residual: float
    dominant: float
    rel_residual: float
    spectral_tail: float
    c_tail: float
    quadrature_err: float
    converged: bool
    truncation: dict = field(default_factory=dict)


def trace_residual(
    m: int,
    n: int,
    sw: SpectralWeight,
    forms: list[MaassForm],
    C_max: int = 32,
    tol: float = 1e-8,
) -> TraceReport:
    """Assemble all four terms at y = sqrt(m/n) and report the imbalance.

    converged is the AND of the Eisenstein, diagonal and Kloosterman
    results."""
    spec = spectral_side(m, n, sw, forms)
    eis = eisenstein_side(m, n, sw, tol=tol)
    diag = diagonal_term(m, n, sw, tol=tol)
    kloos = kloosterman_side(m, n, sw, C_max, tol=tol)
    residual = abs(spec + eis.value.real - diag.value.real - kloos.value)
    dominant = max(
        abs(spec), abs(eis.value.real), abs(diag.value.real), abs(kloos.value), 1e-300
    )
    return TraceReport(
        m=m,
        n=n,
        spectral=spec,
        eisenstein=eis.value.real,
        diagonal=diag.value.real,
        kloosterman=kloos.value,
        residual=residual,
        dominant=dominant,
        rel_residual=residual / dominant,
        spectral_tail=spectral_tail_bar(m, n, sw, forms),
        c_tail=kloos.tail_estimate,
        quadrature_err=eis.err_estimate + diag.err_estimate + kloos.quadrature_err,
        converged=eis.converged and diag.converged and kloos.converged,
        truncation={
            "n_forms": len(forms),
            "C_max": C_max,
            "tol": tol,
            "series_moduli": kloos.series_moduli,
            "kernel_moduli": kloos.kernel_moduli,
        },
    )


# ---------------------------------------------------------------------------
# Sequence-averaged decomposition


@dataclass
class DecompositionReport:
    S: float
    T_eis: float
    D: float
    P: float
    residual: float
    rel_residual: float
    skip_bar: float
    spectral_tail: float
    quadrature_err: float
    diagonal_closed_form: float
    converged: bool
    params: dict = field(default_factory=dict)


def _kloosterman_block(ns: np.ndarray, c: int) -> np.ndarray:
    """S(m, n; c) for all m, n in the block, as Re(L^T R).

    L[alpha, m] = e(alpha m/c) and R[alpha, n] = e(alpha^{-1} n/c) over the
    phi(c) units alpha, so the product sums e((alpha m + alpha^{-1} n)/c)
    in O(phi(c) N) memory. c = 1 has the single unit 0 and gives all ones.
    """
    alphas, invs = _unit_residues(c)
    res = ns % c
    left = np.exp(2j * math.pi * (np.outer(alphas, res) % c) / c)
    right = np.exp(2j * math.pi * (np.outer(invs, res) % c) / c)
    return (left.T @ right).real


def _stationary_offset(v: np.ndarray, w: np.ndarray, T: float) -> np.ndarray:
    """Nearest |r| with +-T + v e^r - w e^{-r} = 0, elementwise (v > 0)."""
    disc = np.sqrt(T**2 + 4.0 * v * w)
    best = np.inf
    for sgn in (+1.0, -1.0):
        er = (-sgn * T + disc) / (2.0 * v)
        best = np.minimum(best, np.abs(np.log(np.maximum(er, 1e-300))))
    return best


_RESONANCE_MARGIN = 3.0  # evaluate up to r0 + _RESONANCE_MARGIN / M
_U_FLOOR = 1.0  # where u = 4(v + w) <= _U_FLOOR, |H| <= small_u_cap * u / _U_FLOOR


def decomposition(
    seq: Sequence,
    sw: SpectralWeight,
    forms: list[MaassForm],
    tol: float = 1e-6,
) -> DecompositionReport:
    """S + T on the spectral side against D + P for a real block sequence.

    The c-sum runs over the pairs n_i <= n_j of the block, one modulus at
    a time, with the Kloosterman sums of c <= c_eval from _kloosterman_block.
    Each pair and modulus has one cap on |H|: small_u_cap * u / _U_FLOOR
    when u <= _U_FLOOR, otherwise the weight envelope at its would-be
    stationary point plus small_u_cap, where small_u_cap is measured at
    this weight. Up to c_eval, a pair whose reduced phase can be stationary
    within r0 + _RESONANCE_MARGIN / M (r0 = 6.1/M) is resonant, and every
    other term is bounded by |coeff| * cap. The resonant terms are
    collected by twist y = sqrt(n_i/n_j) and evaluated after the modulus
    loop, one _h_value call per twist; _h_value skips vanishing sums. For
    c_eval < c <= c_far the Weil bound |S| <= tau(c) sqrt(c gcd(m, n, c))
    replaces S. Beyond max(c_eval, c_far), u <= _U_FLOOR for every pair and
    an integral comparison bounds the rest. All bounds add up to skip_bar.
    converged is the AND over every quadrature run. params["evaluated"]
    counts the evaluated terms, and params["series_terms"] and
    params["kernel_terms"] split them by the route of H.
    """
    if not seq.is_real:
        raise ValueError(
            "sequence must be real-valued: the averaged identity needs an even "
            "spectral weight, and cos(2 t log sqrt(m/n)) only arises for real a_n"
        )
    a = seq.values.real
    ns = seq.ns
    N = seq.N

    # spectral sum
    sq = _twisted_linear_forms(seq, forms)
    s_val = sum(f.omega * weight_h(f.t, sw) * sq[j] for j, f in enumerate(forms))

    # Eisenstein integral
    def eis_integrand(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return eisenstein_density(t) * weight_h(t, sw) * _eisenstein_linear_forms(seq, t)

    eis = adaptive_quadrature(
        eis_integrand, 1e-12, sw.t_upper, tol * math.pi / 2.0, initial_panels=32
    )
    t_val = 2.0 * eis.value.real / math.pi

    h0 = diagonal_H0(sw, tol=tol)
    d_val = h0.value.real * seq.norm_sq

    qerr = 2.0 * eis.err_estimate / math.pi + h0.err_estimate * seq.norm_sq
    converged = eis.converged and h0.converged

    # measured cap for |H| in the small-u region at this weight (u = 2x at y = 1)
    probe, _ = bessel_H_many(np.array([0.25, 0.5, 0.75, 1.0]) / 2.0, 1.0, sw, tol=1e-12)
    small_u_cap = float(np.max(np.abs(probe.value) + probe.err_estimate))
    converged = converged and probe.converged

    r0 = R_CUT_FACTOR / sw.M
    c_eval = int(math.pi * 2.0 * N * math.exp(r0) / (0.8 * sw.T)) + 2
    c_far = int(16.0 * math.pi * N / _U_FLOOR) + 1
    c_last = max(c_eval, c_far)
    envelope_scale = sw.M * sw.T * 2.0 * r0 * 1.5

    # the pairs i <= j; an off-diagonal pair stands for both orders
    iu, ju = np.triu_indices(N)
    n_i, n_j = ns[iu], ns[ju]
    aa = np.where(iu == ju, 1.0, 2.0) * a[iu] * a[ju]
    gcd_ij = np.gcd(n_i, n_j)
    # the twist y = sqrt(n_i / n_j) of each pair: equal ratios divide to
    # equal floats, and the diagonal pairs all have y = 1
    ratios, pair_twist = np.unique(n_i / n_j, return_inverse=True)
    p_val = 0.0
    skip_bar = 0.0
    # the resonant terms of each modulus: twist index, x, S and coefficient
    terms = []
    for c in range(1, c_last + 1):
        v = math.pi * n_i / c
        w = math.pi * n_j / c
        u = 4.0 * (v + w)
        r_star = _stationary_offset(v, w, sw.T)
        env = np.exp(-np.minimum((sw.M * r_star) ** 2, 700.0))
        cap = np.where(
            u <= _U_FLOOR, small_u_cap * u / _U_FLOOR, envelope_scale * env + small_u_cap
        )
        if c > c_eval:
            weil = divisor_count(c) * math.sqrt(c) * np.sqrt(np.gcd(gcd_ij, c))
            skip_bar += float(np.sum(np.abs(aa) * weil * cap)) / c
            continue
        s_vals = _kloosterman_block(ns, c)[iu, ju]
        coeff = aa * s_vals / c
        resonant = (u > _U_FLOOR) & (r_star <= r0 + _RESONANCE_MARGIN / sw.M)
        skip_bar += float(np.sum(np.abs(coeff[~resonant]) * cap[~resonant]))
        k = np.flatnonzero(resonant)
        x = 4.0 * math.pi * np.sqrt(n_i[k] * n_j[k]) / c
        terms.append((pair_twist[k], x, s_vals[k], coeff[k]))

    twist, xs, s_res, coeffs = (np.concatenate(col) for col in zip(*terms))
    series_terms = kernel_terms = 0
    for j, ratio in enumerate(ratios):
        sel = twist == j
        h, series, kernel = _h_value(xs[sel], s_res[sel], math.sqrt(ratio), sw, tol)
        p_val += float(np.sum(coeffs[sel] * h.value))
        qerr += float(np.sum(np.abs(coeffs[sel]) * h.err_estimate))
        converged = converged and h.converged
        series_terms += series
        kernel_terms += kernel

    # c > c_last: u <= _U_FLOOR everywhere, |H| <= small_u_cap * u / _U_FLOOR,
    # sum_c tau(c) c^{-3/2} bounded by an integral comparison
    abs_a = np.abs(a)
    sum_a = float(np.sum(abs_a))
    sum_na = float(np.sum(ns * abs_a))
    tau_tail = 2.0 * (math.log(c_last) + 2.0) * 2.0 / math.sqrt(c_last)
    skip_bar += (
        small_u_cap
        / _U_FLOOR
        * 4.0
        * math.pi
        * 2.0
        * sum_a
        * sum_na
        * math.sqrt(2.0 * N)
        * tau_tail
    )

    residual = abs(s_val + t_val - d_val - p_val)
    denom = max(abs(s_val + t_val), abs(d_val + p_val), 1e-300)
    return DecompositionReport(
        S=float(s_val),
        T_eis=float(t_val),
        D=float(d_val),
        P=float(p_val),
        residual=residual,
        rel_residual=residual / denom,
        skip_bar=skip_bar,
        spectral_tail=spectral_tail_bar(1, 1, sw, forms) * seq.norm_sq * seq.N,
        quadrature_err=qerr,
        diagonal_closed_form=diagonal_closed_form(sw) * seq.norm_sq,
        converged=converged,
        params={
            "N": N,
            "T": sw.T,
            "M": sw.M,
            "c_eval": c_eval,
            "c_far": c_far,
            "tol": tol,
            "evaluated": series_terms + kernel_terms,
            "series_terms": series_terms,
            "kernel_terms": kernel_terms,
        },
    )


def p_bound_rhs(
    seq: Sequence,
    sw: SpectralWeight,
    q_cap_const: float = 4.0,
    c_cap_const: float = 4.0,
) -> float:
    """Explicit majorant for the off-diagonal: M T times the capped
    (q, c, alpha) mean square of the doubly-twisted block sums over
    |t| <= 6.1/M (empty ranges give 0).

    Each (q, c) term is the closed-form unit-residue mean square of
    _hybrid_lhs_one_modulus at v = q, so no quadrature grid is involved.
    """
    if not seq.is_real:
        raise ValueError("the decomposition majorant applies to real sequences")
    N, T, M = seq.N, sw.T, sw.M
    q_hi = int(q_cap_const * N / T)
    total = 0.0
    tau = R_CUT_FACTOR / M
    for q in range(1, q_hi + 1):
        c_hi = int(c_cap_const * N / (T * q))
        # the (q, c) term is the unit-residue mean square at v = q (its
        # alpha-sum runs over all units, so alpha or alpha^{-1} alike)
        inner_q = sum(_hybrid_lhs_one_modulus(seq, 1.0, q, c, tau) for c in range(1, c_hi + 1))
        total += inner_q / q
    return M * T * total
