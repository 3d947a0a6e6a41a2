"""The specpoint console script prints one JSON line per report."""

import json

import pytest

from specpoint.cli import main


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
