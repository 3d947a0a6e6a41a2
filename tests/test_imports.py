"""Source hygiene: every name a module-level import binds in specpoint is
used, every module-level def, class and assigned name is named outside its
definition, and the closure and decomposition passes import no more of
numpy."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "specpoint"


def _names(node: ast.AST):
    """(name, line) of every identifier node names: variables, attributes,
    imported names and string constants (bench/tracing.py wraps layers by
    their names as strings)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, sub.lineno
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub.lineno
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1], sub.lineno
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value, sub.lineno


def _defined(node: ast.stmt):
    """The names a module-level statement defines: a def's or class's, and
    every name an assignment binds (a table or constant)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    yield sub.id


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


def test_no_unreferenced_module_level_definitions():
    # an orphaned helper, table or constant of a deleted path is named
    # nowhere but in its own definition: not in src, tests or bench
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    uses = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _names(tree):
            uses[name].append((path, line))
    unreferenced = []
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            own = range(node.lineno, node.end_lineno + 1)
            for name in _defined(node):
                if all(where == path and line in own for where, line in uses[name]):
                    unreferenced.append(f"{path.name}:{name}")
    assert unreferenced == []


def test_passes_do_not_import_numpy_ma():
    # numpy 2.4's np.unique without return_inverse imports numpy.ma on its
    # first call, ~15 ms and ~1.4 MB inside a timed pass
    # of the closure, decompose or sieve workload, whose calls run here
    code = """
import sys, warnings
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from specpoint.besselintegral import SpectralWeight
from specpoint.kuznetsov import decomposition, kloosterman_side, p_bound_rhs
from specpoint.sievebench import Sequence, young_ls_ratio
warnings.simplefilter("ignore")
kloosterman_side(1, 2, SpectralWeight(T=3.0, M=1.0), 512)
decomposition(Sequence.random(4, seed=1, real=True), SpectralWeight(T=3.0, M=1.5), [], 1e-6)
young_ls_ratio(Sequence.random(256, seed=1), 1.0, 1.0, 1.0, 256)
p_bound_rhs(Sequence.random(64, seed=1, real=True), SpectralWeight(T=3.0, M=1.5))
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    if out.stdout.strip() == "preloaded":
        pytest.skip("import numpy already loads numpy.ma")
    assert out.stdout.strip() == "False"
