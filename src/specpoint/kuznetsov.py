"""The trace identity, bilinear in two weight vectors, and its sides.

For a pair (m, n) the identity balances

    sum_j omega_j h(t_j; y) lambda_j(m) lambda_j(n)
    + (1/pi) int omega(t) h(t; y) (n/m)^{it} sigma_{2it}(m) sigma_{-2it}(n) dt

against

    delta_{m,n} H0 + sum_c S(m,n;c)/c * H(4 pi sqrt(mn)/c, y)

with the twist fixed at y = sqrt(m/n), which turns (m/n)^{i t_j} into the
even factor cos(2 t log y). Summing it against u_i v_j over the indices
n_i, n_j gives S + T = D + P, which _identity assembles in one place: S
and T are the bilinear forms _cusp_form and _eisenstein_form, D is H0
times the sum of u_i v_j over n_i = n_j, and P is the pair's c-sum over
the pairs i <= j. The pair (trace_residual) is this identity at u = e_m,
v = e_n; a real sequence on (N, 2N] (decomposition) is it at u = v = a.
The c-sum takes the terms c <= C exactly less the residue expansion G_K
of H, whose whole c-sum is a Petersson closed form, leaving a c > C tail
with a provable bar. Every truncation (spectral height, c-range,
quadrature) carries a bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arith import _unit_residues, divisor_count, kloosterman
from .besselintegral import (
    _K_MAX,
    R_CUT_FACTOR,
    SpectralWeight,
    bessel_H_many,
    diagonal_H0,
    residue_expansion,
    weight_h,
)
from .quadrature import _ROUNDING, QuadratureResult, gauss_grid
from .sievebench import Sequence, _cusp_form, _eisenstein_form, _hybrid_lhs_one_modulus, _lag_groups
from .specfun import bessel_j
from .spectraldata import MaassForm


# No Maass cusp form of SL2(Z) has spectral parameter below t_1 = 9.5336952613...
# (Hejhal; Booker-Strombergsson-Venkatesh, Effective computation of Maass
# cusp forms, IMRN 2006), so the uncovered spectrum starts there at the earliest.
FIRST_CUSP_FORM_T = 9.53369526


def spectral_tail_bar(sw: SpectralWeight, forms: list[MaassForm]) -> float:
    """Bound for the uncovered spectral tail t > max(t_cov, FIRST_CUSP_FORM_T)
    at coefficients of size 1: eigenvalue density t/6 times the Gaussian
    weight, harmonic weights by the largest supplied omega (1 with none). The
    caller scales it by its coefficients' caps, tau(m) tau(n) for the pair
    (m, n).

    With no forms it is not yet a bound: the first cusp form's harmonic
    weight omega_1 ~ 2.935 exceeds the cap of 1, and at T = 6, 7 (M = 1)
    the residual of the data-free identity exceeds this bar."""
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
    t, w = gauss_grid(lo, hi, 8)
    return float(abs(w @ ((t / 6.0) * weight_h(t, sw)))) * omega_cap


def eisenstein_side(m: int, n: int, sw: SpectralWeight, tol: float = 1e-10) -> QuadratureResult:
    """(1/pi) int omega(t) h(t; y) (n/m)^{it} sigma_{2it}(m) sigma_{-2it}(n) dt
    at y = sqrt(m/n): _eisenstein_form at u = e_m, v = e_n. The integrand is
    real and even: sigma_{2it}(m) sigma_{-2it}(n) = (m/n)^{it} eta_t(m)
    eta_t(n) with eta_t(n) = sum_{d | n} cos(t log(n/d^2)).
    """
    return _eisenstein_form(np.array([m, n]), *np.eye(2), sw, tol)


def diagonal_closed_form(sw: SpectralWeight) -> float:
    """Leading term 2 M T / (pi sqrt(pi)) of the diagonal weight mass."""
    return 2.0 * sw.M * sw.T / (math.pi * math.sqrt(math.pi))


def diagonal_term(m: int, n: int, sw: SpectralWeight, tol: float = 1e-10) -> QuadratureResult:
    if m != n:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0)
    return diagonal_H0(sw, tol)


@dataclass
class KloostermanSideReport:
    """The c-sum, its bars, the K of its Petersson subtraction (one per pair
    in a batch), how many terms each H route evaluated (the batched series
    and the x > 5 kernel), and the H kernel-table entries that took."""

    value: float
    tail_estimate: float
    quadrature_err: float
    c_used: int
    petersson_K: int | list[int]
    converged: bool
    series_terms: int
    kernel_terms: int
    evaluations: int


# |S| at or below this counts as a vanishing Kloosterman sum, which the
# cosine sums of arith.kloosterman do not round to exactly 0
_S_VANISH = 1e-9


def _h_value(
    xs: np.ndarray, ys: np.ndarray, s_vals: np.ndarray, sw: SpectralWeight, tol: float
) -> tuple[QuadratureResult, int, int]:
    """H(x, y) for the c-sum terms with arguments xs, twists ys and
    Kloosterman sums s_vals, and how many terms each route evaluated.

    Only the terms with S != 0 are evaluated, of any twists, through one
    bessel_H_many call; the caller has set every |S| <= _S_VANISH to 0.
    The others' values and bars are 0. The result holds per-term values and
    bars in the order of xs; the two counts are (series, kernel).
    """
    live = s_vals != 0
    res, series = bessel_H_many(xs[live], ys[live], sw, tol)
    value = np.zeros(xs.size)
    err = np.zeros(xs.size)
    value[live], err[live] = res.value, res.err_estimate
    out = QuadratureResult(value, err, res.evaluations, res.converged)
    return out, series, int(np.count_nonzero(live)) - series


def _tail_bars(
    mn: np.ndarray, weights: np.ndarray, C, residues: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """bars[..., p, K-1], for each C >= 1 of an int or integer array C, each
    pair p and K = 1, ..., _K_MAX: a bound for |w_p| sum_{c > C}
    |S(m_p, n_p; c)/c E_K(x_pc, y_p)| at y_p = sqrt(m_p/n_p), from the
    pairs' residue_expansion rows (r, B). The leading axes are C's.

    For L >= K, E_K = sum_{K <= k < L} r_k J_{2k+1} + E_L with
    |J_nu(x)| <= (x/2)^nu I_0(x)/nu!; each K takes its best L. Weil's
    |S| <= tau(c) sqrt(gcd(m, n) c) and x_pc = X_p/c <= X_p/(C+1) leave
    sum_{c > C} tau(c) c^{-s} at s = nu + 1/2 per order nu. Partial summation
    with C log C - C <= sum_{c <= C} tau(c) <= C log C + C bounds it by
    C^{1-s} (u log C + 2 + 2u + u^2), u = 1/(s - 1). Every C's bars are
    those of its own scalar call, bit for bit (log C from math.log).
    """
    m, n = mn[:, 0], mn[:, 1]
    X = 4.0 * math.pi * np.sqrt(m * n)
    C = np.asarray(C)
    c = C.astype(float)[..., None, None]  # against (pair, order)
    log_c = np.reshape([math.log(v) for v in C.ravel().tolist()], c.shape)
    pair = np.sqrt(np.gcd(m, n)) * np.abs(weights) * np.i0(X / (c[..., 0] + 1))
    nu = np.arange(2 * _K_MAX + 1)
    u = 1.0 / (nu - 0.5)
    # order[..., p, nu >= 2] bounds |w_p| sum_{c > C} |S/c| (x_pc/2)^nu I_0(x_pc)
    order = np.sqrt(c) * (u * log_c + 2.0 + 2.0 * u + u * u)
    order = order * (X[:, None] / (2.0 * c)) ** nu * pair[..., None]
    r, B = residues
    k = np.arange(_K_MAX)
    term = np.abs(r) / [math.factorial(2 * j + 1) for j in k] * order[..., 2 * k + 1]
    tail = B * order[..., 2 * k + 2]  # the E_L bound, L = k + 1
    # bound[..., p, K-1, L-1] = sum_{K <= k < L} term[..., p, k] + tail[..., p, L-1], for L >= K
    bound = np.cumsum(term[..., None, :] * (k > k[:, None]), axis=-1) + tail[..., None, :]
    return np.min(np.where(k >= k[:, None], bound, np.inf), axis=-1)


def _petersson_c_sum(
    mn: np.ndarray, weights: np.ndarray, s_vals: np.ndarray, residues: tuple, sw: SpectralWeight, tol: float
) -> KloostermanSideReport:
    """sum_p w_p sum_{c >= 1} S(m_p, n_p; c)/c H(4 pi sqrt(m_p n_p)/c, y_p)
    over pairs p of any twists y_p = sqrt(m_p/n_p), from s_vals[p, c-1] and
    the pairs' residue_expansion rows (r, B).

    Each term c <= C is taken exactly (one _h_value call) less G_K =
    sum_{k<K} r_k(y_p) J_{2k+1}. Petersson sums J_{2k+1} over all c to
    -delta_{m,n} i^{2k+2}/(2pi), so adding delta_{m,n}/(2pi) sum_{k<K}
    (-1)^k r_k(1) leaves E_K over c > C. A pair's bar is its _tail_bars row
    plus _ROUNDING times what was subtracted: |r_k J_{2k+1}(x)| where x <
    2k+1, as bessel_j's power series there keeps relative accuracy, and
    |r_k| where x >= 2k+1, as its trapezoid nodes there are of size 1 and
    leave an absolute rounding. All five orders come from one bessel_j
    call. Each pair's K minimises its own bar: r_k grows like
    e^{(k+1/2)^2/M^2}, so a larger K trades tail for rounding.
    tail_estimate adds up the pairs' bars.
    """
    m, n = mn[:, 0], mn[:, 1]
    ys = np.sqrt(m / n)
    cs = np.arange(1, s_vals.shape[1] + 1)
    xs = 4.0 * math.pi * np.sqrt(m * n)[:, None] / cs  # (pair, c)
    s_vals = np.where(np.abs(s_vals) > _S_VANISH, s_vals, 0.0)
    coeff = weights[:, None] * s_vals / cs
    h, series, kernel = _h_value(xs.ravel(), np.repeat(ys, cs.size), s_vals.ravel(), sw, tol)

    r = residues[0].T  # (k, pair)
    orders = 2 * np.arange(_K_MAX) + 1
    jn = bessel_j(orders, xs)  # (k, pair, c)
    size = np.abs(r)[:, :, None] * np.where(xs >= orders[:, None, None], 1.0, np.abs(jn))
    g = np.cumsum(r[:, :, None] * jn, axis=0)  # G_K in row K - 1
    diag = np.where(m == n, weights, 0.0) / (2.0 * math.pi)
    closed = diag * np.cumsum((-1.0) ** np.arange(_K_MAX)[:, None] * r, axis=0)
    rounding = np.sum(np.cumsum(size, axis=0) * np.abs(coeff), axis=2)
    rounding += np.abs(diag) * np.cumsum(np.abs(r), axis=0)
    bars = _tail_bars(mn, weights, cs.size, residues) + _ROUNDING * rounding.T  # (pair, K)
    K = np.argmin(bars, axis=1)
    pairs = np.arange(mn.shape[0])
    value = np.sum(coeff * (h.value.reshape(xs.shape) - g[K, pairs])) + np.sum(closed[K, pairs])
    return KloostermanSideReport(
        value=float(value),
        tail_estimate=float(np.sum(bars[pairs, K])),
        quadrature_err=float(np.abs(coeff).ravel() @ h.err_estimate),
        c_used=int(cs.size),
        petersson_K=[int(k) + 1 for k in K],
        converged=h.converged,
        series_terms=series,
        kernel_terms=kernel,
        evaluations=h.evaluations,
    )


def kloosterman_side(
    m: int, n: int, sw: SpectralWeight, C_max: int, tol: float = 1e-8
) -> KloostermanSideReport:
    """sum_c S(m,n;c)/c * H(4 pi sqrt(mn)/c, y) at y = sqrt(m/n), from the
    Kloosterman sums of c <= C_max and the Petersson closed form of the
    rest (_petersson_c_sum). tail_estimate bounds what that leaves out.

    All C_max sums come from one array-form kloosterman call, whose unit
    table is kept for the largest C_max so far: a later call at the same or
    a smaller C_max builds no unit table.

    C_max = 0 evaluates no modulus: the value is the empty sum 0, and no
    finite bar covers its tail.
    """
    if min(m, n) < 1:
        raise ValueError("m and n must be at least 1")
    if C_max < 0:
        raise ValueError("C_max must be non-negative")
    if C_max == 0:
        return KloostermanSideReport(0.0, math.inf, 0.0, 0, 0, True, 0, 0, 0)
    s_vals = kloosterman(m, n, np.arange(1, C_max + 1))[None, :]
    residues = residue_expansion(np.sqrt([m / n]), sw)
    rep = _petersson_c_sum(np.array([[m, n]]), np.ones(1), s_vals, residues, sw, tol)
    return replace(rep, petersson_K=rep.petersson_K[0])


# ---------------------------------------------------------------------------
# The bilinear identity: the pair and the sequence-averaged block


@dataclass
class DecompositionReport:
    """_identity's S + T_eis = D + P, with the bar of every truncation.

    residual is |S + T_eis - D - P|, rel_residual it over max(|S + T_eis|,
    |D + P|). P sums c <= params["c_eval"]; skip_bar bounds what that leaves
    out and the rounding of the Petersson subtraction, which tol does not
    cover (_c_eval). spectral_tail bounds the forms beyond the data
    (spectral_tail_bar), quadrature_err the quadratures of T_eis, D and P.
    diagonal_closed_form is D with H0's leading term; converged ANDs every
    quadrature. params: indices, window, form count, C ("c_eval" = "c_far"),
    each pair's K in np.triu_indices order, tol, H's terms by route and
    their kernel-table entries ("evaluations").
    """

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
    No sum calls it: it is the product-form reference for arith.kloosterman,
    and the benchmark's tracer (bench/tracing.py) wraps it by name.
    """
    alphas, invs = _unit_residues(c)
    res = ns % c
    left = np.exp(2j * math.pi * (np.outer(alphas, res) % c) / c)
    right = np.exp(2j * math.pi * (np.outer(invs, res) % c) / c)
    return (left.T @ right).real


_C_PASS = 16  # candidates C per _tail_bars pass of the C search


def _c_eval(
    mn: np.ndarray, weights: np.ndarray, residues: tuple[np.ndarray, np.ndarray], tol: float
) -> int:
    """The smallest C >= 1 whose c > C tail bars (_tail_bars), each pair at
    the K that minimises its tail, add up to at most tol.

    tol covers the tail alone. Each pair then takes the K that minimises
    tail plus rounding, so skip_bar can exceed tol: at (m, n) = (2, 3),
    T = 3, M = 1, tol = 1e-8, C = 320 and K = 4 (tail 1.01586e-8, rounding
    9.1e-13) beat K = 5 (tail 9.9955e-9), and skip_bar reads 1.0160e-8.

    The bars fall with C, so the search brackets C between powers of two,
    then narrows the octave, each step one _tail_bars pass over _C_PASS
    candidates: the doublings C = 1, 2, 4, ... first, then evenly spaced
    C inside the bracket, until it holds one modulus. At small C a large
    block's bar overflows (I_0 of X/(C+1) > 709 at N = 64), and a bar that
    reads inf or nan is not at most tol either, so the search goes past it.
    """

    def within(cs: list[int]) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.sum(np.min(_tail_bars(mn, weights, cs, residues), axis=-1), axis=-1) <= tol

    first = 0  # the exponent of the pass's first doubling
    while not np.any(hits := within([1 << e for e in range(first, first + _C_PASS)])):
        first += _C_PASS
    C = 1 << (first + int(np.argmax(hits)))
    lo = C // 2  # its bars exceed tol, or it is 0
    while C - lo > 1:
        step = -(-(C - lo) // (_C_PASS + 1))
        bounds = [lo, *range(lo + step, C, step), C]
        # the first candidate within tol (C when none is) and the one before it
        i = int(np.argmax(np.append(within(bounds[1:-1]), True)))
        lo, C = bounds[i], bounds[i + 1]
    return C


def _identity(
    ns: np.ndarray, u: np.ndarray, v: np.ndarray, sw: SpectralWeight, forms: list[MaassForm], tol: float
) -> DecompositionReport:
    """S + T against D + P for real weights u, v on the indices ns, as the
    module docstring sets out. P is the c-sum over the pairs i <= j of
    nonzero weight u_i v_j + u_j v_i (u_i v_i on the diagonal), every twist
    y = sqrt(n_i/n_j) in one _petersson_c_sum call, with the Kloosterman
    sums of every c <= C from one array-form kloosterman call per pair. C
    is _c_eval's, from the same residue_expansion rows as the c-sum.
    spectral_tail takes |sum_n u_n lambda_j(n)| <= sum_n |u_n| tau(n), and
    likewise for v.
    """
    if np.any(ns < 1):
        raise ValueError("indices must be at least 1")
    s_val = _cusp_form(ns, u, v, sw, forms)
    eis = _eisenstein_form(ns, u, v, sw, tol)
    t_val = eis.value.real
    h0 = diagonal_H0(sw, tol=tol)
    mass = float(np.sum(np.outer(u, v)[ns[:, None] == ns]))
    d_val = h0.value.real * mass

    iu, ju = np.triu_indices(ns.size)
    weights = u[iu] * v[ju] + np.where(iu == ju, 0.0, u[ju] * v[iu])
    live = weights != 0
    mn, weights = np.stack([ns[iu], ns[ju]], axis=1)[live], weights[live]
    residues = residue_expansion(np.sqrt(mn[:, 0] / mn[:, 1]), sw)
    C = _c_eval(mn, weights, residues, tol)
    cs = np.arange(1, C + 1)
    s_table = np.array([kloosterman(int(m), int(n), cs) for m, n in mn]).reshape(-1, C)
    off = _petersson_c_sum(mn, weights, s_table, residues, sw, tol)

    lam_u, lam_v = (sum(abs(x) * divisor_count(int(n)) for x, n in zip(w, ns)) for w in (u, v))
    residual = abs(s_val + t_val - d_val - off.value)
    return DecompositionReport(
        S=float(s_val),
        T_eis=float(t_val),
        D=float(d_val),
        P=off.value,
        residual=residual,
        rel_residual=residual / max(abs(s_val + t_val), abs(d_val + off.value), 1e-300),
        skip_bar=off.tail_estimate,
        spectral_tail=spectral_tail_bar(sw, forms) * float(lam_u) * float(lam_v),
        quadrature_err=eis.err_estimate + h0.err_estimate * abs(mass) + off.quadrature_err,
        diagonal_closed_form=diagonal_closed_form(sw) * mass,
        converged=eis.converged and h0.converged and off.converged,
        params={
            "ns": ns.tolist(),
            "T": sw.T,
            "M": sw.M,
            "n_forms": len(forms),
            "c_eval": C,
            "c_far": C,
            "petersson_K": off.petersson_K,
            "tol": tol,
            "evaluated": off.series_terms + off.kernel_terms,
            "series_terms": off.series_terms,
            "kernel_terms": off.kernel_terms,
            "evaluations": off.evaluations,
        },
    )


def trace_residual(
    m: int, n: int, sw: SpectralWeight, forms: list[MaassForm], tol: float = 1e-8
) -> DecompositionReport:
    """The identity of the pair (m, n) at y = sqrt(m/n): _identity at
    u = e_m, v = e_n, so S, T_eis, D and P are the pair's four sides."""
    return _identity(np.array([m, n]), *np.eye(2), sw, forms, tol)


def decomposition(
    seq: Sequence, sw: SpectralWeight, forms: list[MaassForm], tol: float = 1e-6
) -> DecompositionReport:
    """S + T on the spectral side against D + P for a real block sequence:
    _identity at u = v = a, so D is ||a||^2 H0 and P runs over the pairs
    n_i <= n_j, an off-diagonal pair with weight 2 a_i a_j."""
    if not seq.is_real:
        raise ValueError(
            "sequence must be real-valued: the averaged identity needs an even "
            "spectral weight, and cos(2 t log sqrt(m/n)) only arises for real a_n"
        )
    a = seq.values.real
    return _identity(seq.ns, a, a, sw, forms, tol)


_P_CAP = 4.0  # p_bound_rhs's (q, c) terms: q <= _P_CAP N/T and c <= _P_CAP N/(T q)


def p_bound_rhs(seq: Sequence, sw: SpectralWeight) -> float:
    """Explicit majorant for the off-diagonal: M T times the capped
    (q, c, alpha) mean square of the doubly-twisted block sums over
    |t| <= 6.1/M (empty ranges give 0), q and c capped by _P_CAP.

    Each (q, c) term is the closed-form unit-residue mean square of
    _hybrid_lhs_one_modulus at v = q, so no quadrature grid is involved.
    The block's pairs are grouped by lag once (sievebench._lag_groups: N
    groups from one autocorrelation, no pair array), and one
    _hybrid_lhs_one_modulus call takes every (q, c) term as a row of its
    blocked (moduli x groups) tables: the terms with equal c q share one
    table of sines (at the bench's N = 64, T = 3: 395 terms, 85 products),
    and the Ramanujan sums are gathered from sievebench's kept table of
    rows, which a modulus enters once per process however many q repeat it.
    The terms run q-major, so each q's sum over c reads one slice.
    """
    if not seq.is_real:
        raise ValueError("the decomposition majorant applies to real sequences")
    N, T, M = seq.N, sw.T, sw.M
    q_hi = int(_P_CAP * N / T)
    # the (q, c) term is the unit-residue mean square at v = q (its
    # alpha-sum runs over all units, so alpha or alpha^{-1} alike)
    q_range = range(1, q_hi + 1)
    counts = np.array([int(_P_CAP * N / (T * q)) for q in q_range], dtype=np.int64)
    ends = np.cumsum(counts)
    qs = np.repeat(np.arange(1, q_hi + 1), counts)
    cs = np.arange(1, qs.size + 1) - np.repeat(ends - counts, counts)
    values = _hybrid_lhs_one_modulus(_lag_groups(seq), qs, cs, R_CUT_FACTOR / M).tolist()
    # each q's sum over c, then its weight 1/q, in the order of the terms:
    # they run q-major, so q's terms are one slice, ending at ends[q - 1]
    total = sum(sum(values[end - count : end]) / q for q, count, end in zip(q_range, counts.tolist(), ends.tolist()))
    return M * T * total
