"""Source hygiene: every name a module-level import binds in specpoint is
used, and the closure and decomposition passes import no more of numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "specpoint"


def test_no_unused_module_level_imports():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(bound - used - {"annotations"})
        if names:
            unused[path.name] = names
    assert unused == {}


def test_passes_do_not_import_numpy_ma():
    # numpy 2.4's np.unique without return_inverse imports numpy.ma on its
    # first call, ~15 ms and ~1.4 MB inside a timed pass
    code = """
import sys, warnings
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from specpoint.besselintegral import SpectralWeight
from specpoint.kuznetsov import decomposition, kloosterman_side
from specpoint.sievebench import Sequence
warnings.simplefilter("ignore")
kloosterman_side(1, 2, SpectralWeight(T=3.0, M=1.0), 512)
decomposition(Sequence.random(4, seed=1, real=True), SpectralWeight(T=3.0, M=1.5), [], 1e-6)
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    if out.stdout.strip() == "preloaded":
        pytest.skip("import numpy already loads numpy.ma")
    assert out.stdout.strip() == "False"
