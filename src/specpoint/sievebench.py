"""Empirical large-sieve harness.

Left-hand sides are computed exactly: finite sums, or t-integrals of
trigonometric polynomials taken in closed form (no quadrature grid).
Expanding int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(lam_n t)|^2 dt over
the units alpha gives, for each pair m <= n of the block, the Ramanujan
sum c_c(n - m) times int_{-tau}^{tau} e((lam_n - lam_m) t) dt, a sinc.
The pair enters only through its lag n - m and its gap lam_n - lam_m,
weighted by Re(conj(a_m) a_n). At lam_n = n (gamma = 1) every gap is its
lag, so _lag_groups sums the pairs of each lag off one autocorrelation:
N weights in O(N) memory. Otherwise _pair_groups lists the N^2/2 pairs
lag by lag; for n^gamma no two pairs of a lag share a gap, so grouping by
(lag, gap) would merge nothing. The Ramanujan rows c_c(k), k <= c/2, of
every modulus up to the largest asked for so far sit in one flat read-only
table (_ramanujan_table), each entry built once per process from the
divisor sum c_c(k) = sum over d | (c, k) of d mu(c/d)
(arith._ramanujan_sums, no gcd) and extended over new moduli only, and a
sum over moduli is one _hybrid_lhs_one_modulus call per _RAMANUJAN_MODULI
moduli: blocked (moduli x groups) tables of entries gathered from that
table, summed against the sines of beta gap, beta = 2 pi tau/(c v). The sines come from
tables per block of moduli, not one trig call per entry: at lam_n = n by
angle addition over the lags (O(sqrt N) trig calls per modulus),
otherwise from one sine and cosine per point. At lam_n = n the N lag
groups stand where the dense form has N^2 kernel entries.
Right-hand sides are the literature majorants with every unspecified
epsilon-factor set to 1. Only ratios are reported: the suites check
boundedness, monotonicity, and scaling invariance, never a sharp constant.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import TWO_PI, _grown, _ramanujan_sums, _runs, _unit_residues, divisor_sigma
from .besselintegral import T_CUT_FACTOR, SpectralWeight, weight_h
from .quadrature import QuadratureResult, gauss_grid, refined, refined_panels
from .specfun import _ZETA_IM_MAX, eisenstein_density
from .spectraldata import GL3Form, MaassForm


@dataclass
class Sequence:
    """Coefficients a_n supported on the dyadic block (N, 2N]."""

    N: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.values.shape != (self.N,):
            raise ValueError(f"need exactly N={self.N} values for n in (N, 2N]")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("the values a_n must be finite")
        if not np.iscomplexobj(self.values):
            self.values = self.values.astype(complex)

    @property
    def ns(self) -> np.ndarray:
        return np.arange(self.N + 1, 2 * self.N + 1)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    @classmethod
    def random(cls, N: int, seed: int, real: bool = False) -> "Sequence":
        """Uniform on the complex unit disk (or on [-1, 1] when real)."""
        rng = np.random.default_rng(seed)
        if real:
            vals = rng.uniform(-1.0, 1.0, size=N).astype(complex)
        else:
            r = np.sqrt(rng.uniform(0.0, 1.0, size=N))
            phi = rng.uniform(0.0, 2.0 * math.pi, size=N)
            vals = r * np.exp(1j * phi)
        return cls(N=N, values=vals)


@dataclass
class SieveReport:
    lhs: float
    rhs_majorant: float
    ratio: float
    params: dict = field(default_factory=dict)

    @classmethod
    def make(cls, lhs: float, rhs: float, **params) -> "SieveReport":
        rhs = rhs if rhs > 0 else 1e-300
        return cls(lhs=lhs, rhs_majorant=rhs, ratio=lhs / rhs, params=params)


def _t_grid(tau: float, order: int, panels: int):
    """Gauss panels on [-tau, tau]; only bench/tracing.py refers to it."""
    return gauss_grid(-tau, tau, panels, order)


class _Groups(NamedTuple):
    """The pair groups of a block, as _hybrid_lhs_one_modulus reads them:
    group g has lag lags[g], gap gaps[g] and weight weights[g]. The pair
    lists also carry their points lam_n - min lam and each entry's two
    points (ends: gap = lam[ends[1]] - lam[ends[0]]), so the kernel forms
    every sin(beta gap) from one sine and cosine per point; the lag groups
    leave both None, as every gap is its lag."""

    lags: np.ndarray
    gaps: np.ndarray
    weights: np.ndarray
    points: np.ndarray | None = None
    ends: tuple[np.ndarray, np.ndarray] | None = None


def _pair_groups(seq: Sequence, lams: np.ndarray) -> _Groups:
    """(lags, gaps, weights) of the pairs m <= n of the block: first the
    diagonal as one entry (0, 0, ||a||^2), then every pair m < n with its
    lag n - m, its gap lam_n - lam_m and the weight 2 Re(conj(a_m) a_n),
    for both orders, laid out lag by lag with m ascending within a lag,
    with the points and ends of _Groups. For a real kernel K(m, n) =
    K(n, m) that depends on the pair only through its (lag, gap),
    sum_{m,n} conj(a_m) a_n K = weights @ K.

    Off the diagonal no two pairs share a key for lam_n = n^gamma (gamma
    != 0, 1) or log n, whose gaps are strictly monotone in m within a lag,
    so the entries are not grouped further. The pair arrays take O(N^2)
    memory (352 MB traced at N = 4096), so lam_n = n goes through
    _lag_groups, whose weights are the lag sums of these entries.
    """
    N = seq.N
    entries = N * (N - 1) // 2 + 1
    index = np.int32 if entries <= np.iinfo(np.int32).max else np.int64
    counts = np.arange(N, 0, -1, dtype=index)  # N - k pairs at lag k >= 1
    counts[0] = 1  # the diagonal, as the pair (0, 0)
    lag = np.repeat(np.arange(N, dtype=index), counts)
    i = np.arange(entries, dtype=index) - np.repeat(np.cumsum(counts, dtype=index) - counts, counts)
    j = i + lag
    # conj(a_m) a_n formed in place: one (N^2/2)-entry complex array at a time
    pair = seq.values.conj()[i]
    pair *= seq.values[j]
    weights = 2.0 * pair.real
    del pair
    weights[0] = np.vdot(seq.values, seq.values).real
    gap = lams[j]
    gap -= lams[i]
    return _Groups(lag.astype(np.int64), gap, weights, lams - np.min(lams), (i, j))


def _lag_groups(seq: Sequence) -> _Groups:
    """The lag sums of _pair_groups(seq, seq.ns), with no pair arrays: at
    lam_n = n every gap is its lag, so the entries of lag k add up to one
    group (k, k), k = 0..N-1, of weight Re sum_m conj(a_m) a_{m+k}, doubled
    off k = 0, one entry of the autocorrelation np.correlate(a, a, "full").
    That is O(N) memory where the pairs take O(N^2), with the O(N^2) dot
    products in C; each weight is one dot product, not a sequential sum.
    """
    N = seq.N
    lags = np.arange(N, dtype=np.int64)
    auto = np.correlate(seq.values, seq.values, "full")[N - 1 :].real
    weights = 2.0 * auto
    weights[0] = auto[0]
    return _Groups(lags, lags.astype(float), weights)


# c_c(k) for k = 0..c/2 of every modulus c = 1, 2, ... in turn, read-only,
# kept for the largest C so far: modulus c's row starts at entry starts[c - 1].
# It starts with c = 1, whose one entry is c_1(0) = 1, and holds at most as
# many moduli as the unit-residue cache (read once here: a caller may rebind
# _unit_residues, as bench/tracing.py does, to a wrapper with no cache_info).
_RAMANUJAN = (np.ones(1), np.arange(2))
_RAMANUJAN_MODULI = _unit_residues.cache_info().maxsize


def _ramanujan_table(C: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, starts) of _RAMANUJAN, extended if need be to every modulus
    c <= C, but to no more than _RAMANUJAN_MODULI moduli.

    c_c(k) is even and c-periodic in k, so a row's entries give every k.
    A larger C extends the table by the new moduli only, in runs of about
    arith._PASS_UNITS entries (arith._runs), one arith._ramanujan_sums
    pass per run over its rows k = 0..c/2; a smaller C reads it as it is.
    """
    global _RAMANUJAN
    table, starts = _RAMANUJAN
    C = min(C, _RAMANUJAN_MODULI)
    if starts.size <= C:
        first = starts.size  # the first new modulus
        sizes = np.arange(first, C + 1) // 2 + 1
        starts = np.concatenate([starts, starts[-1] + np.cumsum(sizes)])
        table = _grown(table, starts[-1])
        for lo, hi in _runs(first, C):
            mods = np.arange(lo, hi + 1)
            table[starts[lo - 1] : starts[hi]] = _ramanujan_sums(mods, mods // 2 + 1)
        table.flags.writeable = False
        _RAMANUJAN = table, starts
    return table, starts


_KERNEL_BLOCK = 1 << 13  # most (modulus, group) entries of one kernel block


def _lag_sums(x: np.ndarray, betas: np.ndarray, shared, width: int) -> np.ndarray:
    """sum_k x[r, k] sin(beta k) over the lags k = a width + b of x for each
    row r, beta = betas[shared][r], by sin(beta a width) cos(beta b) +
    cos(beta a width) sin(beta b): e^{i beta b}, b < width, from width + 1
    complex exponentials per beta, and i e^{-i beta a width} as running
    products of e^{-i beta width}, whose few ulps per step cost less than a
    direct sine's phase rounding once beta width passes a few units. Per
    row: two (count x width) matrix-vector products and two dot products;
    one matrix-matrix product is faster, but its first call maps ~0.4 MB
    more of BLAS into the process."""
    rows, count = x.shape[0], x.shape[1] // width
    turns = np.exp(1j * (betas[:, None] * np.arange(width + 1)))
    powers = np.empty((betas.size, count), dtype=complex)
    powers[:, 0] = 1j
    powers[:, 1:] = turns[:, width:].conj()
    np.cumprod(powers, axis=1, out=powers)
    turns, powers = turns[shared, :width, None], powers[shared, None, :]
    x = x.reshape(rows, count, width)
    return (powers.real @ (x @ turns.real) + powers.imag @ (x @ turns.imag))[:, 0, 0]


def _pair_sines(betas: np.ndarray, points: np.ndarray, ends: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sin(beta (p_j - p_i)) = s_j c_i - c_j s_i for each entry (i, j) of
    ends, a row per beta, from one sine s and cosine c of beta p per point.
    Points p that start at 0 keep the phases, and so their rounding, small."""
    phases = betas[:, None] * points
    s, c = np.sin(phases), np.cos(phases)
    first, second = ends
    sines = np.take(s, second, axis=1) * np.take(c, first, axis=1)
    sines -= np.take(c, second, axis=1) * np.take(s, first, axis=1)
    return sines


def _ramanujan_rows(c: np.ndarray, ks: np.ndarray, table: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """c_c(k) at the lags ks = 0, 1, ... for each modulus of the column c:
    read from the kept table at the row's start plus min(k, c - k), k = lag
    mod c, or, for a block with a modulus past the table's bound, built
    for the block by arith._ramanujan_sums."""
    if np.max(c) >= starts.size:
        return _ramanujan_sums(c[:, 0], np.full(c.shape[0], ks.size)).reshape(c.shape[0], ks.size)
    c = c.astype(ks.dtype)
    folded = ks % c
    np.minimum(folded, c - folded, out=folded)
    return np.take(table, folded + starts[c - 1])


def _hybrid_lhs_one_modulus(groups: _Groups, vs: np.ndarray, cs: np.ndarray, tau: float) -> np.ndarray:
    """(1/c) sum*_alpha int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(lam_n t/(c v))|^2 dt
    for the pair groups of a at lam_n (n^gamma in the hybrid sieve), at
    each modulus c of the 1-d array cs with its twist v from vs.

    The alpha-sum of e(alpha (n - m)/c) over the units is the Ramanujan sum
    c_c(lag) and (1/c) times the t-integral of e(gap t/(c v)) is
    (v/pi) sin(beta gap)/gap, beta = 2 pi tau/(c v), or 2 tau/c at gap 0.
    So the value is (v/pi) sum_g c_c(lag_g) sin(beta gap_g) W_g/gap_g over
    the nonzero gaps plus (2 tau/c) sum_g c_c(lag_g) W_g over the zero ones.
    The moduli go in blocks of at most _KERNEL_BLOCK (modulus, group)
    entries, one modulus at least: a block reads its Ramanujan sums
    (_ramanujan_rows) at the lags 0..max(lags), scales them by W/gap and
    sums them against sines from tables, never one trig call per entry:
    O(sqrt N) per modulus by angle addition over the lag groups
    (_lag_sums), one sine and cosine per point for the pair lists
    (_pair_sines). The rows go in order of c v, and rows of equal
    c v share their tables. There is no N x N or phi(c) x N table.
    """
    lags, gaps, weights, points, ends = groups
    cs = np.asarray(cs, dtype=np.int64)
    vs = np.asarray(vs, dtype=float)
    products = cs * vs
    top = int(np.max(cs, initial=1))
    table, starts = _ramanujan_table(top)
    zero = np.flatnonzero(gaps == 0)
    zero_weights = weights[zero]
    scaled = np.divide(weights, gaps, out=np.zeros_like(weights), where=gaps != 0)
    if points is None:  # the lags 0..N-1, padded with zero weights to a multiple of width
        width = math.isqrt(lags.size - 1) + 1
        size = -(-lags.size // width) * width
        scaled = np.concatenate([scaled, np.zeros(size - lags.size)])
    else:
        size = int(np.max(lags)) + 1
    ks = np.arange(size, dtype=np.int32 if max(top, size) < 1 << 31 else np.int64)
    # the rows in order of c v, so the rows of one product are adjacent
    order = np.argsort(products, kind="stable")
    cs, vs, products = cs[order], vs[order], products[order]
    new = np.ones(cs.size, dtype=bool)
    new[1:] = products[1:] != products[:-1]
    table_of = np.cumsum(new) - 1  # each row's tables, among the distinct products
    betas = (TWO_PI * tau) / products[new]
    sums, at_zero = np.empty(cs.size), np.empty(cs.size)
    step = max(1, _KERNEL_BLOCK // lags.size)
    for i in range(0, cs.size, step):
        block = slice(i, i + step)
        first, last = table_of[i], table_of[block][-1]
        shared = table_of[block] - first if last - first + 1 < cs[block].size else slice(None)
        x = _ramanujan_rows(cs[block, None], ks, table, starts)
        if points is not None:
            x = np.take(x, lags, axis=1)
        at_zero[block] = x[:, zero] @ zero_weights
        x *= scaled
        if points is None:
            sums[block] = _lag_sums(x, betas[first : last + 1], shared, width)
        else:
            sums[block] = np.einsum("rg,rg->r", x, _pair_sines(betas[first : last + 1], points, ends)[shared])
    values = np.empty(cs.size)
    values[order] = sums * (vs / math.pi) + at_zero * (2.0 * tau / cs)
    return values


def _young_ls_majorant(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> float:
    """young_ls_ratio's (tau C + v N^{1-gamma} log C) ||a||^2."""
    return (tau * C + v * seq.N ** (1.0 - gamma) * max(1.0, math.log(C))) * seq.norm_sq


def young_ls_lhs(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> float:
    """Hybrid twisted mean square over moduli c <= C and |t| <= tau: the sum
    over c of the closed-form per-modulus values, with no quadrature grid.
    The pairs enter as the N lag groups of _lag_groups at gamma = 1 (O(N)
    memory) and as the N(N - 1)/2 + 1 entries of _pair_groups at lam_n =
    n^gamma otherwise. A gamma that takes (2N)^gamma or young_ls_ratio's
    N^(1 - gamma) past the float range is rejected: its gaps would be
    inf - inf. So are inputs whose phases 2 pi tau gap/(c v) leave the
    normal floats (an infinite phase has no sine, a subnormal one no
    digits) or whose majorant in young_ls_ratio is not finite."""
    if isinstance(C, bool) or not isinstance(C, numbers.Integral):
        raise ValueError(f"C must be an integer, got {C!r}")
    for name, value in (("gamma", gamma), ("tau", tau), ("v", v)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    try:
        math.pow(2 * seq.N, gamma), math.pow(seq.N, 1.0 - gamma)
    except OverflowError:
        raise ValueError(f"gamma = {gamma} takes (2N)^gamma or N^(1 - gamma) past the float range") from None
    if tau <= 0 or v <= 0 or C < 1:
        raise ValueError("tau, v must be positive and C >= 1")
    lams = seq.ns.astype(float) ** gamma
    steps = np.abs(np.diff(lams))
    smallest, largest = float(np.min(steps[steps > 0], initial=1.0)), float(np.max(lams) - np.min(lams))
    unit = (TWO_PI * tau) / v  # the kernel's beta at c = 1
    if not (math.isfinite(unit * max(largest, 1.0)) and unit / C * smallest >= sys.float_info.min):
        raise ValueError(
            f"tau = {tau:g}, v = {v:g} and gamma = {gamma:g} put the phases 2 pi tau gap/(c v) "
            f"between {unit / C * smallest:g} and {unit * largest:g}, outside the normal floats"
        )
    if not math.isfinite(_young_ls_majorant(seq, gamma, tau, v, C)):
        raise ValueError(f"tau = {tau:g}, v = {v:g} and gamma = {gamma:g} take the majorant past the float range")
    groups = _lag_groups(seq) if gamma == 1 else _pair_groups(seq, lams)

    def values():
        # at most _RAMANUJAN_MODULI moduli per call bounds its length-C arrays;
        # no modulus's value depends on its call, and one sum runs over them in order
        for lo in range(1, C + 1, _RAMANUJAN_MODULI):
            cs = np.arange(lo, min(lo + _RAMANUJAN_MODULI, C + 1))
            yield from _hybrid_lhs_one_modulus(groups, np.full(cs.size, v), cs, tau).tolist()

    return sum(values())


def young_ls_ratio(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> SieveReport:
    """Ratio of the hybrid mean square to (tau C + v N^{1-gamma} log C) ||a||^2."""
    lhs = young_ls_lhs(seq, gamma, tau, v, C)
    rhs = _young_ls_majorant(seq, gamma, tau, v, C)
    return SieveReport.make(lhs, rhs, gamma=gamma, tau=tau, v=v, C=C, N=seq.N)


def _twisted_linear_forms(ns: np.ndarray, a: np.ndarray, forms: list[MaassForm]) -> np.ndarray:
    """L_j(a) = sum_n a_n lambda_j(n) n^{i t_j} over the integers ns, for each
    form j; a stack of vectors a gives a row per vector."""
    basis = np.empty((len(ns), len(forms)), dtype=complex)
    for j, f in enumerate(forms):
        basis[:, j] = [f.lam(int(n)) for n in ns] * np.exp(1j * f.t * np.log(ns))
    return a @ basis


def _cusp_form(
    ns: np.ndarray, u: np.ndarray, v: np.ndarray, sw: SpectralWeight, forms: list[MaassForm]
) -> float:
    """sum_j omega_j h(t_j) Re(L_j(u) conj L_j(v)) over the integers ns: the
    cuspidal side at u = v = a for a block, and at u = e_m, v = e_n for the
    pair (m, n), whose real part lambda(m) lambda(n) cos(t log(m/n)) twists h."""
    lu, lv = _twisted_linear_forms(ns, np.array([u, v]), forms)
    omega = np.array([f.omega for f in forms])
    t = np.array([f.t for f in forms], dtype=float)
    return float(np.sum(omega * weight_h(t, sw) * (lu * lv.conj()).real))


_EIS_PANELS = 32  # panels of _eisenstein_form's level-0 grid


@lru_cache(maxsize=32)
def _eisenstein_weights(sw: SpectralWeight, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, w, omega(t) h(t)) on _eisenstein_form's grid at level: the nodes t
    and weights w of refined_panels(_EIS_PANELS, level) Gauss panels on
    [t_lower, t_upper], never at t = 0, where zeta has its pole.

    None of it depends on the coefficient vectors, so every pair and block
    at one window shares one zeta grid per level. An entry holds 3 x 16
    ceil(32 (3/2)^level) float64, 1.1 MB at level 11, refined's last. Every
    caller gets the same read-only arrays.
    """
    t, w = gauss_grid(sw.t_lower, sw.t_upper, refined_panels(_EIS_PANELS, level))
    wh = eisenstein_density(t) * weight_h(t, sw)
    t.flags.writeable = w.flags.writeable = wh.flags.writeable = False
    return t, w, wh


def _eisenstein_form(
    ns: np.ndarray, u: np.ndarray, v: np.ndarray, sw: SpectralWeight, tol: float
) -> QuadratureResult:
    """(2/pi) int_0^{t_upper} omega(t) h(t) Re(E_t(u) conj E_t(v)) dt over the
    integers ns, E_t(a) = sum_n a_n sigma_{2it}(n): the Eisenstein side, paired
    like _cusp_form, as twice the even integrand's half-line, to tol; its
    value is a float.

    The grids span [t_lower, t_upper], past which h < 4e-19, so zeta is
    evaluated only near T. They are refined as adaptive_quadrature's are
    from _EIS_PANELS panels, and omega h comes from _eisenstein_weights,
    so value, error, evaluations and converged equal that integral's bit
    for bit. A window whose zeta points 1 + 2it, t < t_upper, pass
    specfun._ZETA_IM_MAX is rejected before any grid is built.
    """
    if 2.0 * sw.t_upper > _ZETA_IM_MAX:
        raise ValueError(
            f"T + {T_CUT_FACTOR:g} M = {sw.t_upper:g} puts the Eisenstein side's zeta(1 + 2it) at "
            f"|Im s| up to {2.0 * sw.t_upper:g}, above zeta_many's cap {_ZETA_IM_MAX:g}"
        )

    def evaluate(level: int) -> tuple[float, float, int]:
        t, w, wh = _eisenstein_weights(sw, level)
        sigmas = np.array([divisor_sigma(2j * t, int(n)) for n in ns])
        eu, ev = u @ sigmas, v @ sigmas
        return float((wh * (eu * ev.conj()).real) @ w), 0.0, t.size

    res = refined(evaluate, tol * math.pi / 2.0)
    return res.scaled(2.0 / math.pi)


def corollary_ratio(seq: Sequence, sw: SpectralWeight, forms: list[MaassForm]) -> SieveReport:
    """Sharp-cutoff window sum over T < t_j <= T + M against M (T + N) ||a||^2."""
    sq = np.abs(_twisted_linear_forms(seq.ns, seq.values, forms)) ** 2
    lhs = float(
        sum(f.omega * sq[j] for j, f in enumerate(forms) if sw.T < f.t <= sw.T + sw.M)
    )
    rhs = sw.M * (sw.T + seq.N) * seq.norm_sq
    return SieveReport.make(lhs, rhs, T=sw.T, M=sw.M, N=seq.N)


def moment_demo(
    gl3: GL3Form,
    forms: list[MaassForm],
    sw: SpectralWeight,
    N: int,
    n1: int = 1,
    weight=None,
) -> dict:
    """Desk-scale second-moment block at one dyadic length.

    Cuspidal and Eisenstein averages of the GL(3)-twisted linear forms
    N^{-1/2} sum_n A(n1, n) (coeff) w(n/N), _cusp_form and _eisenstein_form
    (tol 1e-6) at u = v = the block, reported against the majorant (1 +
    MT/N) sum_n |A(n1, n)|^2 + (n1 + T/M^2) N n1 with all epsilon-factors
    set to 1. "T_err" is the bar on "T" and "converged" the flag of its
    quadrature.
    """
    if n1 < 1 or N < 1:
        raise ValueError("n1 and N must be positive")
    T, M = sw.T, sw.M
    ns = np.arange(N + 1, 2 * N + 1)
    wvals = np.ones(ns.size) if weight is None else np.asarray(weight(ns / float(N)), dtype=float)
    coeffs = np.array([gl3.a(n1, int(n)) for n in ns])
    # the block carries n^{-it} and sigma_{-2it}(n); lambda_j is real, so the
    # conjugate coefficients give the same moduli with n^{it} and sigma_{2it}(n)
    a = np.conj(coeffs * wvals / math.sqrt(N))
    s_val = _cusp_form(ns, a, a, sw, forms)
    eis = _eisenstein_form(ns, a, a, sw, 1e-6)
    t_val = eis.value

    coeff_sq = float(np.sum(np.abs(coeffs) ** 2))
    majorant = (1.0 + M * T / N) * coeff_sq + (n1 + T / M**2) * N * n1
    return {
        "S": s_val,
        "T": t_val,
        "T_err": float(eis.err_estimate),
        "converged": eis.converged,
        "majorant": majorant,
        "ratio": (s_val + t_val) / majorant,
        "params": {"T": T, "M": M, "N": N, "n1": n1},
    }
