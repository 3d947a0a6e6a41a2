"""The specpoint console script prints one JSON line per report."""

import json
import re
import warnings

import pytest

from specpoint.cli import main
from specpoint.sievebench import Sequence, young_ls_lhs


def test_closure_line(capsys):
    # no forms and no warning: the report carries the uncovered spectrum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["closure", "--pairs", "1,1"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["S"] == 0.0
    assert rec["params"] == {
        "ns": [1, 1],
        "T": 3.0,
        "M": 1.0,
        "n_forms": 0,
        "c_eval": 108,
        "c_far": 108,
        "petersson_K": [4],
        "tol": 1e-8,
        "evaluated": 99,
        "series_terms": 97,
        "kernel_terms": 2,
    }
    assert rec["converged"] is True
    assert rec["residual"] <= rec["skip_bar"] + rec["quadrature_err"] + rec["spectral_tail"]
    assert rec["wall_s"] > 0


def test_decompose_line(capsys):
    main(["decompose", "--N", "2", "--seed", "3"])
    rec = json.loads(capsys.readouterr().out)
    params = rec["params"]
    assert params["ns"] == [3, 4]  # the block (N, 2N] at N = 2
    assert params["series_terms"] + params["kernel_terms"] == params["evaluated"]
    assert rec["converged"] is True
    assert rec["residual"] <= rec["skip_bar"] + rec["quadrature_err"]


def test_sieve_line(capsys):
    main("sieve --N 12 --C 8 --gamma 0.5 --tau 0.7 --v 2 --seed 4".split())
    rec = json.loads(capsys.readouterr().out)
    assert rec["params"] == {"gamma": 0.5, "tau": 0.7, "v": 2.0, "C": 8, "N": 12}
    want = young_ls_lhs(Sequence.random(N=12, seed=4), 0.5, 0.7, 2.0, 8)
    assert rec["lhs"] == pytest.approx(want, rel=1e-15)
    assert rec["ratio"] == pytest.approx(rec["lhs"] / rec["rhs_majorant"], rel=1e-15)
    assert rec["wall_s"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        "closure --pairs 0,1",  # m = 0 is no Fourier coefficient
        "closure --tol 0",
        "closure --M 0.5",  # the window needs 1 <= M <= T
        "closure --T inf",
        "decompose --N 0",
        "sieve --tau 0",
        # NaN passes tau <= 0 and v <= 0; the report would hold NaN tokens
        "sieve --tau nan",
        "sieve --v nan",
        "sieve --tau inf",
        "sieve --gamma inf",
    ],
)
def test_rejects_bad_input_with_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    # the message names the input at fault
    flag = argv.split()[1].lstrip("-")
    assert re.search(rf"\b{flag}\b", captured.err.split("error:", 1)[1])
