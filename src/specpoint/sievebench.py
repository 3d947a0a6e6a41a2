"""Empirical large-sieve harness.

Left-hand sides are computed exactly: finite sums, or t-integrals of
trigonometric polynomials taken in closed form (no quadrature grid).
Expanding int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(lam_n t)|^2 dt over
the units alpha gives, for each pair m <= n of the block, the Ramanujan
sum c_c(n - m) times int_{-tau}^{tau} e((lam_n - lam_m) t) dt, a sinc.
The pair enters only through its lag n - m and its gap lam_n - lam_m, so
_pair_groups adds up Re(conj(a_m) a_n) once per sequence over the pairs
with equal (lag, gap), laid out lag by lag so that only gaps out of order
within a lag are sorted. The Ramanujan rows c_c(k), k <= c/2, of every
modulus up to the largest asked for so far sit in one flat read-only
table (_ramanujan_table), each entry built once per process by Hoelder's
closed form (_hoelder) and extended over new moduli only, and a whole sum
over moduli is one _hybrid_lhs_one_modulus call: blocked (moduli x groups)
kernel tables of entries gathered from that table times sincs, each block
one matrix product with the weights. At lam_n = n (gamma = 1) every gap is
its lag, which leaves N groups where the dense form has N^2 kernel
entries, and nothing is sorted.
Right-hand sides are the literature majorants with every unspecified
epsilon-factor set to 1. Only ratios are reported: the suites check
boundedness, monotonicity, and scaling invariance, never a sharp constant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import _grown, _moebius_totients, _runs, _unit_residues, divisor_sigma
from .besselintegral import SpectralWeight, weight_h
from .quadrature import QuadratureResult, doubled, doubling_rounds, gauss_grid
from .specfun import eisenstein_density
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


def _pair_groups(seq: Sequence, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lags, gaps, weights) of the pairs m <= n of the block grouped by
    the exact key (n - m, lam_n - lam_m), lags ascending and gaps ascending
    within a lag: each weight is the sum of Re(conj(a_m) a_n) over its
    group, an off-diagonal pair counted twice for both orders. For a real
    kernel K(m, n) = K(n, m) that depends on the pair only through its key,
    sum_{m,n} conj(a_m) a_n K = weights @ K.

    The pairs are laid out lag by lag, m ascending within a lag, so the
    keys arrive sorted by lag; a stable sort by gap within each lag runs
    only where some gap falls within a lag (never at lam_n = n). Either
    way each group adds its pairs in ascending m.
    """
    N = seq.N
    pairs = N * (N + 1) // 2
    index = np.int32 if pairs <= np.iinfo(np.int32).max else np.int64
    counts = np.arange(N, 0, -1, dtype=index)  # N - k pairs at lag k
    lag = np.repeat(np.arange(N, dtype=index), counts)
    i = np.arange(pairs, dtype=index) - np.repeat(np.cumsum(counts, dtype=index) - counts, counts)
    j = i + lag
    # conj(a_m) a_n formed in place: one (N^2/2)-entry complex array at a time
    pair = seq.values.conj()[i]
    pair *= seq.values[j]
    # twice Re(conj(a_m) a_n) off the diagonal, which is the first N pairs
    pair_weights = 2.0 * pair.real
    pair_weights[:N] = pair.real[:N]
    del pair
    gap = lams[j] - lams[i]
    del i, j
    new_lag = lag[1:] != lag[:-1]
    if not np.all(new_lag | (gap[1:] >= gap[:-1])):
        # lags stay in place: the sort only reorders gaps within a lag
        order = np.lexsort((gap, lag))
        gap, pair_weights = gap[order], pair_weights[order]
    starts = np.ones(lag.size, dtype=bool)
    starts[1:] = new_lag | (gap[1:] != gap[:-1])
    group = np.cumsum(starts) - 1
    return lag[starts].astype(np.int64), gap[starts], np.bincount(group, weights=pair_weights)


def _hoelder(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The Ramanujan sum c_c(k) entry by entry (c and k broadcast): Hoelder's
    closed form mu(c/g) phi(c)/phi(c/g), g = gcd(k, c), in exact integers
    from the sieve table of arith._moebius_totients."""
    mu, phi = _moebius_totients(int(np.max(c)))
    q = c // np.gcd(k, c)
    return mu[q] * (phi[c] // phi[q])


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
    arith._PASS_UNITS entries (arith._runs) with int32 temporaries, one
    _hoelder pass per run; a smaller C reads it as it is.
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
            mods = np.arange(lo, hi + 1, dtype=np.int32)
            sizes = mods // 2 + 1
            c = np.repeat(mods, sizes)
            firsts = np.cumsum(sizes, dtype=np.int32) - sizes  # of each row within the run
            k = np.arange(c.size, dtype=np.int32) - np.repeat(firsts, sizes)
            table[starts[lo - 1] : starts[hi]] = _hoelder(c, k)
        table.flags.writeable = False
        _RAMANUJAN = table, starts
    return table, starts


_KERNEL_BLOCK = 1 << 13  # most (modulus, group) entries of one kernel block


def _hybrid_lhs_one_modulus(groups: tuple, vs: np.ndarray, cs: np.ndarray, tau: float) -> np.ndarray:
    """(1/c) sum*_alpha int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(lam_n t/(c v))|^2 dt
    for the pair groups of a at lam_n (n^gamma in the hybrid sieve), at
    each modulus c of the 1-d array cs with its twist v from vs.

    The alpha-sum of e(alpha (n - m)/c) over the units is the Ramanujan sum
    c_c(lag) and the t-integral of e(gap t/(c v)) is 2 tau sinc(2 tau gap/(c v)),
    so the value is (1/c) sum_g W_g c_c(lag_g) 2 tau sinc(2 tau gap_g/(c v)).
    The (moduli x groups) kernel is built in blocks of at most _KERNEL_BLOCK
    entries (one modulus per block at least): the Ramanujan sums gathered
    from the kept table of _ramanujan_table at each row's start plus the
    folded lag min(k, c - k), k = lag mod c, times one sinc call, then one
    matrix product with the weights. A block with a modulus past the
    table's bound takes its sums from _hoelder at the same entries. There
    is no N x N or phi(c) x N table.
    """
    lags, gaps, weights = groups
    cs = np.asarray(cs, dtype=np.int64)
    vs = np.asarray(vs, dtype=float)
    values = np.empty(cs.size)
    table, starts = _ramanujan_table(int(np.max(cs, initial=1)))
    step = max(1, _KERNEL_BLOCK // lags.size)
    for i in range(0, cs.size, step):
        c, v = cs[i : i + step, None], vs[i : i + step, None]
        ks = lags % c
        folded = np.minimum(ks, c - ks)
        if np.max(c) < starts.size:
            ramanujan = table[starts[c - 1] + folded]
        else:
            ramanujan = _hoelder(c, folded).astype(float)
        kernel = ramanujan * (2.0 * tau * np.sinc(2.0 * tau * (gaps / (c * v))))
        values[i : i + step] = (kernel @ weights) / c[:, 0]
    return values


def young_ls_lhs(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> float:
    """Hybrid twisted mean square over moduli c <= C and |t| <= tau: the sum
    over c of the closed-form per-modulus values, with no quadrature grid."""
    if isinstance(C, bool) or not isinstance(C, numbers.Integral):
        raise ValueError(f"C must be an integer, got {C!r}")
    for name, value in (("gamma", gamma), ("tau", tau), ("v", v)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if tau <= 0 or v <= 0 or C < 1:
        raise ValueError("tau, v must be positive and C >= 1")
    groups = _pair_groups(seq, seq.ns.astype(float) ** gamma)
    cs = np.arange(1, C + 1)
    return sum(_hybrid_lhs_one_modulus(groups, np.full(cs.size, v), cs, tau).tolist())


def young_ls_ratio(seq: Sequence, gamma: float, tau: float, v: float, C: int) -> SieveReport:
    """Ratio of the hybrid mean square to (tau C + v N^{1-gamma} log C) ||a||^2."""
    lhs = young_ls_lhs(seq, gamma, tau, v, C)
    log_c = max(1.0, math.log(C))
    rhs = (tau * C + v * seq.N ** (1.0 - gamma) * log_c) * seq.norm_sq
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
_EIS_CACHED_LEVEL = 4  # finer grids are built per call, so the cache stays small


@lru_cache(maxsize=32)
def _eisenstein_weights(sw: SpectralWeight, level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, w, omega(t) h(t)) on _eisenstein_form's grid at level: the nodes t
    and weights w of _EIS_PANELS << level Gauss panels on [1e-12, t_upper].

    None of it depends on the coefficient vectors, so every pair and block
    at one window shares one zeta grid per level. Only levels up to
    _EIS_CACHED_LEVEL pass through the cache: an entry holds 3 x 512 2^level
    float64, at most 196 KB, and the 32 entries at most 6.3 MB. Every
    caller gets the same read-only arrays.
    """
    t, w = gauss_grid(1e-12, sw.t_upper, _EIS_PANELS << level)
    wh = eisenstein_density(t) * weight_h(t, sw)
    t.flags.writeable = w.flags.writeable = wh.flags.writeable = False
    return t, w, wh


def _eisenstein_form(
    ns: np.ndarray, u: np.ndarray, v: np.ndarray, sw: SpectralWeight, tol: float
) -> QuadratureResult:
    """(2/pi) int_0^{t_upper} omega(t) h(t) Re(E_t(u) conj E_t(v)) dt over the
    integers ns, E_t(a) = sum_n a_n sigma_{2it}(n): the Eisenstein side, paired
    like _cusp_form, as twice the even integrand's half-line, to tol.

    The grids double (quadrature.doubled) for as many rounds as
    adaptive_quadrature takes at _EIS_PANELS initial panels, and omega h
    comes from _eisenstein_weights, so value, error, evaluations and
    converged equal that integral's bit for bit.
    """

    def evaluate(level: int) -> tuple[complex, float, int]:
        weights = _eisenstein_weights if level <= _EIS_CACHED_LEVEL else _eisenstein_weights.__wrapped__
        t, w, wh = weights(sw, level)
        sigmas = np.array([divisor_sigma(2j * t, int(n)) for n in ns])
        eu, ev = u @ sigmas, v @ sigmas
        return complex((wh * (eu * ev.conj()).real) @ w), 0.0, t.size

    res = doubled(evaluate, tol * math.pi / 2.0, doubling_rounds(_EIS_PANELS))
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
    t_val = eis.value.real

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
