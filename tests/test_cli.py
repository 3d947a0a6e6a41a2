"""The specpoint console script prints one JSON line per report."""

import json

import pytest

from specpoint.cli import main
from specpoint.sievebench import Sequence, young_ls_lhs


def test_closure_line(capsys):
    with pytest.warns(UserWarning, match="empty form list"):
        main(["closure", "--pairs", "1,1", "--C-max", "16"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert (rec["m"], rec["n"]) == (1, 1)
    assert rec["truncation"] == {
        "n_forms": 0,
        "C_max": 16,
        "tol": 1e-8,
        "series_moduli": 13,
        "kernel_moduli": 2,
        "petersson_K": 3,
    }
    assert rec["converged"] is True
    assert rec["residual"] < 1e-3
    assert rec["wall_s"] > 0


def test_decompose_line(capsys):
    main(["decompose", "--N", "2", "--seed", "3"])
    rec = json.loads(capsys.readouterr().out)
    params = rec["params"]
    assert params["N"] == 2
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


def test_closure_rejects_empty_c_range(capsys):
    # C_max < 1 sums no modulus and leaves an infinite c-tail bar, which is
    # not a JSON number
    with pytest.raises(SystemExit) as exit_info:
        main(["closure", "--C-max", "0"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
