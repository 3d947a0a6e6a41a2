"""Tests of the benchmark itself: python -m pytest -q bench"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracing
import workloads
from specpoint.quadrature import QuadratureResult
from specpoint.sievebench import Sequence, young_ls_lhs

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tracer():
    """A tracer installed for one test; every replaced binding is restored."""
    modules = [m for key, m in sys.modules.items() if key.startswith("specpoint.")]
    saved = [(m, name, m.__dict__[name]) for m in modules for _, name, _ in tracing.LAYERS if name in m.__dict__]
    tr = tracing.Tracer()
    tracing.install(tr)
    yield tr
    for module, name, value in saved:
        setattr(module, name, value)


def small_closure_pass(tr):
    """A closure pass cut down to two pairs and C <= 16, timed like the worker."""
    attempt = workloads.Attempts()
    start = time.perf_counter()
    outputs = workloads.run_closure({"pairs": [(1, 1), (1, 2)]}, attempt, c_max=16)
    wall_s = time.perf_counter() - start
    return outputs, attempt, wall_s


def test_end_to_end_names_and_units_match_benchmark_json():
    passes = [{"wall_s": 1.0, "peak_rss_mb": 40.0}, {"wall_s": 3.0, "peak_rss_mb": 42.0}]
    metrics = run.end_to_end_metrics(passes, [0.2, 0.3, 0.1])
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: run.unit_of(name) for name in metrics} == expected
    assert metrics == {"wall_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 41.0}


def test_per_layer_names_and_units_match_benchmark_json(tracer):
    outputs, attempt, wall_s = small_closure_pass(tracer)
    accuracy, _, _ = workloads.evaluate("closure", {}, outputs)
    untraced = [{"wall_s": wall_s, "accuracy": accuracy}]
    traced = [{"wall_s": wall_s, "layers": tracer.layer_metrics()}]
    metrics = run.layer_metrics(untraced, traced)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: run.unit_of(name) for name in metrics} == expected


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.RUNNERS) == set(run.WORKLOADS)


def test_tracer_wraps_every_module_that_binds_a_name(tracer):
    from specpoint import arith, besselintegral, besselkernel, kuznetsov, sievebench

    assert arith._unit_residues is kuznetsov._unit_residues is sievebench._unit_residues
    assert besselkernel.kernel_b_series_many is besselintegral.kernel_b_series_many
    assert arith._unit_residues.__wrapped__ is tracer.originals["arith._unit_residues"]


def test_traced_self_times_are_nonnegative_and_within_wall(tracer):
    _, attempt, wall_s = small_closure_pass(tracer)
    assert all(op["ok"] for op in attempt.log)
    spans = tracer.spans
    assert spans and all(span is not None for span in spans)
    # self time is a difference of exact clock differences; allow rounding only
    assert min(span.self_s for span in spans) >= -1e-12
    assert sum(span.self_s for span in spans) <= wall_s + 1e-9
    layers = tracer.layer_metrics()
    assert layers["kuznetsov.kloosterman_side.calls"] == 2
    assert layers["arith.kloosterman.calls"] > 0
    assert layers["kuznetsov._kloosterman_block.calls"] == 0
    # roots are the three public calls per pair; every other span has a parent
    roots = [s.name for s in spans if s.parent is None]
    assert sorted(set(roots)) == [
        "kuznetsov.diagonal_term",
        "kuznetsov.eisenstein_side",
        "kuznetsov.kloosterman_side",
    ]


def test_closure_check_fails_on_perturbed_residual():
    rows = [{"pair": [1, 1], "residual": 7.9e-7, "quad_err": 1.1e-8, "bar": 6.9e-7}]
    assert all(c["ok"] for c in workloads.check_closure(rows))
    rows[0]["residual"] *= 1e3
    assert not any(c["ok"] for c in workloads.check_closure(rows))
    assert not workloads.check_closure([{"pair": [1, 2], "residual": None}])[0]["ok"]


def test_closure_counts_bar_violations():
    rows = [
        {"pair": [1, 1], "residual": 7.9e-7, "quad_err": 1.1e-8, "bar": 6.9e-7},
        {"pair": [1, 2], "residual": -2.7e-7, "quad_err": 1.6e-8, "bar": 1.3e-6},
    ]
    acc = workloads.closure_accuracy(rows)
    assert acc["violations"] == ["(1, 1)"]
    assert acc["residual"] == 7.9e-7


def test_decompose_checks_fail_on_perturbed_values():
    report = SimpleNamespace(rel_residual=4e-3, D=1.0002, diagonal_closed_form=1.0)
    assert all(c["ok"] for c in workloads.check_decompose(report))
    bad_residual = SimpleNamespace(**{**vars(report), "rel_residual": 4e-3 * 1e3})
    assert not workloads.check_decompose(bad_residual)[0]["ok"]
    bad_diagonal = SimpleNamespace(**{**vars(report), "D": 1.002})
    assert not workloads.check_decompose(bad_diagonal)[1]["ok"]
    assert not workloads.check_decompose(None)[0]["ok"]


def test_sieve_reference_matches_library_and_check_fails_on_perturbation():
    seq = Sequence.random(N=24, seed=3)
    lhs = young_ls_lhs(seq, 1.0, 1.0, 1.0, 12)
    ref = sum(workloads.sieve_lhs_reference(seq.values, c, 1.0, 1.0) for c in range(1, 13))
    assert abs(lhs - ref) <= 1e-12 * ref
    assert all(c["ok"] for c in workloads.check_sieve(lhs, 2.0, ref, 2.0))
    assert not workloads.check_sieve(lhs * (1 + 1e-6), 2.0, ref, 2.0)[0]["ok"]
    assert not workloads.check_sieve(lhs, 2.0 * (1 + 1e-6), ref, 2.0)[1]["ok"]
    assert not workloads.check_sieve(None, 2.0, ref, 2.0)[0]["ok"]


def test_ramanujan_sum_closed_forms():
    k = np.arange(12)
    assert np.allclose(workloads.ramanujan_sum(1, k), 1.0)
    # c_p(k) = p - 1 when p | k, else -1
    assert np.allclose(workloads.ramanujan_sum(5, k), np.where(k % 5 == 0, 4.0, -1.0))


def test_failures_are_counted_and_do_not_stop_the_pass():
    attempt = workloads.Attempts()

    def boom():
        raise ArithmeticError("not converged")

    assert attempt("raises", boom) is None
    assert attempt("nan", lambda: math.nan) is None
    assert attempt("unconverged", lambda: QuadratureResult(1.0, 0.0, 8, converged=False)) is None
    assert attempt("fine", lambda: QuadratureResult(1.0, 0.0, 8)) is not None
    assert [op["ok"] for op in attempt.log] == [False, False, False, True]


def test_closure_passes_cover_every_pair_in_seeded_order():
    pairs = workloads.closure_pairs(7)
    assert sorted(pairs) == workloads.CLOSURE_PAIRS
    assert workloads.make_inputs("closure", 7) == {"pairs": pairs}
    assert any(workloads.closure_pairs(seed) != pairs for seed in range(3))


def test_inputs_depend_only_on_the_seed():
    a = workloads.make_inputs("sieve", 5)
    b = workloads.make_inputs("sieve", 5)
    assert np.array_equal(a["seq"].values, b["seq"].values)
    assert np.array_equal(a["majorant_seq"].values, b["majorant_seq"].values)
    assert not np.array_equal(a["seq"].values, workloads.make_inputs("sieve", 6)["seq"].values)
    c = workloads.make_inputs("decompose", 6)
    assert c["seq"].is_real and c["seq"].N == workloads.DECOMPOSE_N


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "sieve", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_closure_with_small_weight_closes():
    """The operations the closure workload times, at a size a test can run."""
    attempt = workloads.Attempts()
    outputs = workloads.run_closure({"pairs": [(2, 3)]}, attempt, c_max=64)
    rows = workloads.closure_rows(outputs)
    assert all(op["ok"] for op in attempt.log)
    assert abs(rows[0]["residual"]) < 1e-3
