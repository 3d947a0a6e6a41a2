"""Inputs, timed operations and output checks of the benchmark workloads.

Every workload turns the seed into inputs with the benchmark's own random
generator, so the program receives only those inputs. The timed section
calls the public API; the accuracy figures and the checks are computed
from what it returned, after the clock has stopped.

- closure: the data-free trace identity Eis = Diag + Kloos at T = 3, M = 1,
  for the ten pairs 1 <= m <= n <= 4.
  SL2(Z) has no cusp form with t < t_1 ~ 9.5337 (Booker, Strombergsson and
  Venkatesh, "Effective computation of Maass cusp forms", IMRN 2006), so
  the cuspidal side is below exp(-((t_1 - T)/M)^2) ~ 3e-19 and is dropped.
- decompose: S + T = D + P for a real sequence of length 4 with no forms.
  At T = 3, M = 1.5 the dropped cuspidal side is at most ~4e-7.
- sieve: the hybrid large-sieve ratio and the decomposition majorant, with
  no Bessel transform and no adaptive quadrature.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from specpoint import kuznetsov, sievebench
from specpoint.besselintegral import R_CUT_FACTOR, SpectralWeight
from specpoint.sievebench import Sequence

CLOSURE_T, CLOSURE_M = 3.0, 1.0
CLOSURE_C_MAX = 512
CLOSURE_TOL = 1e-8
CLOSURE_PAIRS = [(m, n) for m in range(1, 5) for n in range(m, 5)]
CLOSURE_RESIDUAL_MAX = 1e-5

DECOMPOSE_N = 4
DECOMPOSE_T, DECOMPOSE_M = 3.0, 1.5
DECOMPOSE_TOL = 1e-6
DECOMPOSE_REL_RESIDUAL_MAX = 1e-2
DIAGONAL_REL_MAX = 1e-3

SIEVE_N, SIEVE_C = 256, 256
SIEVE_GAMMA, SIEVE_TAU, SIEVE_V = 1.0, 1.0, 1.0
MAJORANT_N = 64
MAJORANT_T, MAJORANT_M = 3.0, 1.5
# the constants p_bound_rhs truncates its (q, c) sums with, by default
MAJORANT_Q_CAP, MAJORANT_C_CAP = 4.0, 4.0
# young_ls_lhs accepts a modulus once doubling the Gauss order moves it by
# less than this share, so a correct result agrees with the exact t-integral
SIEVE_REL_MAX = 1e-8


# ---------------------------------------------------------------------------
# Inputs


def closure_pairs(seed: int) -> list[tuple[int, int]]:
    """All ten pairs, in an order drawn from the seed. Every pass closes
    every pair, so runs of different seeds do the same work: the pairs
    differ in cost by up to about 1.6x."""
    order = np.random.default_rng(seed).permutation(len(CLOSURE_PAIRS))
    return [CLOSURE_PAIRS[i] for i in order]


def _real_sequence(rng: np.random.Generator, n: int) -> Sequence:
    return Sequence(N=n, values=rng.uniform(-1.0, 1.0, size=n))


def _disk_sequence(rng: np.random.Generator, n: int) -> Sequence:
    r = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return Sequence(N=n, values=r * np.exp(1j * phi))


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of every pass of a run."""
    rng = np.random.default_rng(seed)
    if workload == "closure":
        return {"pairs": closure_pairs(seed)}
    if workload == "decompose":
        return {"seq": _real_sequence(rng, DECOMPOSE_N)}
    if workload == "sieve":
        return {"seq": _disk_sequence(rng, SIEVE_N), "majorant_seq": _real_sequence(rng, MAJORANT_N)}
    raise ValueError(f"unknown workload {workload!r}")


def params(workload: str, inputs: dict) -> dict:
    """Truncation and tolerance parameters of a pass, for the provenance record."""
    if workload == "closure":
        return {
            "pairs": inputs["pairs"],
            "T": CLOSURE_T,
            "M": CLOSURE_M,
            "C_max": CLOSURE_C_MAX,
            "tol": CLOSURE_TOL,
        }
    if workload == "decompose":
        return {"N": DECOMPOSE_N, "T": DECOMPOSE_T, "M": DECOMPOSE_M, "tol": DECOMPOSE_TOL}
    return {
        "young_ls": {"N": SIEVE_N, "C": SIEVE_C, "gamma": SIEVE_GAMMA, "tau": SIEVE_TAU, "v": SIEVE_V},
        "p_bound_rhs": {"N": MAJORANT_N, "T": MAJORANT_T, "M": MAJORANT_M},
    }


# ---------------------------------------------------------------------------
# Timed operations


def healthy(out) -> bool:
    """False for a result with converged=False or any non-finite number."""
    if getattr(out, "converged", True) is False:
        return False
    if dataclasses.is_dataclass(out):
        values = [getattr(out, f.name) for f in dataclasses.fields(out)]
    else:
        values = [out]
    return all(
        math.isfinite(abs(v)) for v in values if isinstance(v, (int, float, complex))
    )


class Attempts:
    """Runs operations, recording each as ok or failed; a failure (an
    exception, a non-finite value or converged=False) never stops the pass."""

    def __init__(self):
        self.log: list[dict] = []

    def __call__(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            error = repr(exc)
            out = None
        else:
            error = None if healthy(out) else "non-finite or unconverged result"
        seconds = time.perf_counter() - start
        self.log.append({"op": name, "ok": error is None, "error": error, "seconds": seconds})
        return out if error is None else None


# The operations look their functions up on the module at call time, so the
# tracer's wrappers see these calls too.


def run_closure(inputs: dict, attempt: Attempts, c_max: int = CLOSURE_C_MAX) -> list:
    sw = SpectralWeight(CLOSURE_T, CLOSURE_M)
    out = []
    for m, n in inputs["pairs"]:
        eis = attempt(f"eisenstein_side{m, n}", kuznetsov.eisenstein_side, m, n, sw, tol=CLOSURE_TOL)
        diag = attempt(f"diagonal_term{m, n}", kuznetsov.diagonal_term, m, n, sw, tol=CLOSURE_TOL)
        kloos = attempt(
            f"kloosterman_side{m, n}", kuznetsov.kloosterman_side, m, n, sw, c_max, tol=CLOSURE_TOL
        )
        out.append((m, n, eis, diag, kloos))
    return out


def run_decompose(inputs: dict, attempt: Attempts):
    sw = SpectralWeight(DECOMPOSE_T, DECOMPOSE_M)
    return attempt("decomposition", kuznetsov.decomposition, inputs["seq"], sw, [], tol=DECOMPOSE_TOL)


def run_sieve(inputs: dict, attempt: Attempts):
    report = attempt(
        "young_ls_ratio", sievebench.young_ls_ratio, inputs["seq"], SIEVE_GAMMA, SIEVE_TAU, SIEVE_V, SIEVE_C
    )
    majorant = attempt(
        "p_bound_rhs",
        kuznetsov.p_bound_rhs,
        inputs["majorant_seq"],
        SpectralWeight(MAJORANT_T, MAJORANT_M),
    )
    return report, majorant


RUNNERS = {"closure": run_closure, "decompose": run_decompose, "sieve": run_sieve}


# ---------------------------------------------------------------------------
# Accuracy and output checks, outside the timed section


def closure_rows(outputs) -> list[dict]:
    """Per pair: the residual Eis - Diag - Kloos and the bars reported for it."""
    rows = []
    for m, n, eis, diag, kloos in outputs:
        if eis is None or diag is None or kloos is None:
            rows.append({"pair": [m, n], "residual": None})
            continue
        quad = eis.err_estimate + diag.err_estimate + kloos.quadrature_err
        rows.append(
            {
                "pair": [m, n],
                "residual": eis.value.real - diag.value.real - kloos.value,
                "quad_err": quad,
                "bar": kloos.tail_estimate + quad,
            }
        )
    return rows


def check_closure(rows: list[dict]) -> list[dict]:
    checks = []
    for row in rows:
        r = row["residual"]
        checks.append(
            {
                "check": f"closure residual {tuple(row['pair'])} < {CLOSURE_RESIDUAL_MAX:g}",
                "ok": r is not None and abs(r) < CLOSURE_RESIDUAL_MAX,
                "value": r,
            }
        )
    return checks


def closure_accuracy(rows: list[dict]) -> dict:
    done = [row for row in rows if row["residual"] is not None]
    return {
        "residual": max((abs(row["residual"]) for row in done), default=None),
        "quad_err": max((row["quad_err"] for row in done), default=None),
        "violations": [str(tuple(row["pair"])) for row in done if abs(row["residual"]) > row["bar"]],
    }


def check_decompose(report) -> list[dict]:
    if report is None:
        return [{"check": "decomposition returned a result", "ok": False, "value": None}]
    diag_rel = abs(report.D - report.diagonal_closed_form) / abs(report.diagonal_closed_form)
    return [
        {
            "check": f"decompose rel_residual < {DECOMPOSE_REL_RESIDUAL_MAX:g}",
            "ok": report.rel_residual < DECOMPOSE_REL_RESIDUAL_MAX,
            "value": report.rel_residual,
        },
        {
            "check": f"decompose D within {DIAGONAL_REL_MAX:g} of diagonal_closed_form * |a|^2",
            "ok": diag_rel < DIAGONAL_REL_MAX,
            "value": diag_rel,
        },
    ]


def decompose_accuracy(report) -> dict:
    if report is None:
        return {"residual": None, "quad_err": None, "violations": []}
    bar = report.skip_bar + report.quadrature_err
    return {
        "residual": report.residual,
        "quad_err": report.quadrature_err,
        "violations": ["decomposition"] if report.residual > bar else [],
    }


def ramanujan_sum(c: int, k: np.ndarray) -> np.ndarray:
    """c_c(k) = sum over units alpha mod c of e(alpha k / c), summed directly."""
    alphas = np.array([a for a in range(c) if math.gcd(a, c) == 1], dtype=np.int64)
    angles = np.outer(alphas, k) % c
    return np.cos(2.0 * math.pi * angles / c).sum(axis=0)


def sieve_lhs_reference(values: np.ndarray, c: int, tau: float, v: float) -> float:
    """(1/c) sum*_alpha int_{-tau}^{tau} |sum_n a_n e(alpha n/c) e(n t/(c v))|^2 dt.

    Expanding the square, the alpha-sum of e(alpha (m - n)/c) is a Ramanujan
    sum and the t-integral of e((m - n) t/(c v)) is exact, so the value is
    a sum over the lag m - n with no quadrature, no grouping of n by
    residue class and no unit-row DFT.
    """
    N = values.size
    lags = np.arange(N)
    # autocorrelation A(k) = sum_n a_{n+k} conj(a_n); A(-k) = conj(A(k))
    auto = np.array([np.vdot(values[: N - k], values[k:]) for k in lags])
    kernel = 2.0 * tau * np.sinc(2.0 * lags * tau / (c * v))
    terms = auto.real * kernel * ramanujan_sum(c, lags)
    return float(terms[0] + 2.0 * terms[1:].sum()) / c


def sieve_references(inputs: dict) -> tuple[float, float]:
    """Exact values of young_ls_lhs (gamma = 1) and p_bound_rhs for the inputs."""
    values = inputs["seq"].values
    lhs = sum(sieve_lhs_reference(values, c, SIEVE_TAU, SIEVE_V) for c in range(1, SIEVE_C + 1))
    maj = inputs["majorant_seq"]
    tau = R_CUT_FACTOR / MAJORANT_M
    total = 0.0
    for q in range(1, int(MAJORANT_Q_CAP * maj.N / MAJORANT_T) + 1):
        c_hi = int(MAJORANT_C_CAP * maj.N / (MAJORANT_T * q))
        total += sum(sieve_lhs_reference(maj.values, c, tau, q) for c in range(1, c_hi + 1)) / q
    return lhs, MAJORANT_M * MAJORANT_T * total


def check_sieve(lhs, majorant, lhs_ref: float, majorant_ref: float) -> list[dict]:
    checks = []
    for name, got, ref in (
        ("young_ls_ratio lhs", lhs, lhs_ref),
        ("p_bound_rhs", majorant, majorant_ref),
    ):
        rel = None if got is None else abs(got - ref) / abs(ref)
        checks.append(
            {
                "check": f"{name} within {SIEVE_REL_MAX:g} of the exact lag sum",
                "ok": rel is not None and rel < SIEVE_REL_MAX,
                "value": rel,
            }
        )
    return checks


def sieve_accuracy(checks: list[dict]) -> dict:
    rels = [c["value"] for c in checks if c["value"] is not None]
    return {"residual": max(rels, default=None), "quad_err": 0.0, "violations": []}


def evaluate(workload: str, inputs: dict, outputs) -> tuple[dict, list[dict], dict]:
    """(accuracy, checks, details) for the outputs of one pass."""
    if workload == "closure":
        rows = closure_rows(outputs)
        return closure_accuracy(rows), check_closure(rows), {"per_pair": rows}
    if workload == "decompose":
        details = {} if outputs is None else {
            "c_eval": outputs.params["c_eval"],
            "c_far": outputs.params["c_far"],
            "skip_bar": outputs.skip_bar,
            "rel_residual": outputs.rel_residual,
        }
        return decompose_accuracy(outputs), check_decompose(outputs), details
    report, majorant = outputs
    lhs_ref, majorant_ref = sieve_references(inputs)
    checks = check_sieve(None if report is None else report.lhs, majorant, lhs_ref, majorant_ref)
    return sieve_accuracy(checks), checks, {"lhs_exact": lhs_ref, "p_bound_exact": majorant_ref}
