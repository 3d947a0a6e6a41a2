"""Source hygiene: every name a module-level import binds in specpoint is
used, every module-level def, class and assigned name is named outside its
definition, and in src or bench unless a ROADMAP.md item is to run it,
every refined loop leaves its round cap to quadrature.refined, only
bessel_H_many reaches the H routes, and the closure, decompose and sieve
passes import no more of numpy."""

import ast
import json
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


# module-level definitions in src that only tests run today, each with the
# ROADMAP.md item that puts it on a report path
NOT_YET_RUN = {
    "arith.py:vq_sum": "item 8",
    "sievebench.py:corollary_ratio": "item 10",
    "sievebench.py:moment_demo": "item 3",
    "spectraldata.py:sym_square_lift": "item 3",
}


def _unreferenced(folders) -> list[str]:
    """module:name of every module-level definition in src that src and the
    files under folders name nowhere but in its own definition."""
    trees = {
        path: ast.parse(path.read_text())
        for folder in ("src", *folders)
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
    return unreferenced


def test_no_unreferenced_module_level_definitions():
    # an orphaned helper, table or constant of a deleted path is named
    # nowhere but in its own definition: not in src, tests or bench
    assert _unreferenced(("tests", "bench")) == []


def test_src_holds_what_src_or_bench_runs():
    # a definition that only tests name is a test reference or fixture and
    # belongs in tests/, unless a ROADMAP.md item is to run it
    assert sorted(_unreferenced(("bench",))) == sorted(NOT_YET_RUN)


# calls that read or write a file: the builtin open, pathlib's methods and
# numpy's array files
FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
NUMPY_FILE_FUNCTIONS = {"load", "save", "savez", "loadtxt", "savetxt", "genfromtxt", "fromfile"}


def test_src_reads_and_writes_no_file():
    # spectral data lives in memory: forms are computed or built in-process,
    # so src has no file format to read or write
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Name):
                reads_or_writes = func.id == "open"
            elif isinstance(func, ast.Attribute):
                on_numpy = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
                reads_or_writes = func.attr in FILE_METHODS or (on_numpy and func.attr in NUMPY_FILE_FUNCTIONS)
            else:
                reads_or_writes = False
            if reads_or_writes:
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_every_lru_cache_is_bounded():
    # memory stays bounded: every lru_cache(...) in src passes a maxsize,
    # first or by keyword, other than None
    unbounded = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or "lru_cache" not in {n for n, _ in _names(node.func)}:
                continue
            size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if not size or (isinstance(size[0], ast.Constant) and size[0].value is None):
                unbounded.append(f"{path.name}:{node.lineno}")
    assert unbounded == []


def test_every_refined_call_passes_only_evaluate_and_tol():
    # quadrature.refined alone decides how many rounds a loop may take: a
    # call that passes more than (evaluate, tol) brings back a per-loop cap
    calls, other = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "refined":
                continue
            calls += 1
            first = node.args[0] if node.args else None
            if len(node.args) != 2 or node.keywords or not (isinstance(first, ast.Name) and first.id == "evaluate"):
                other.append(f"{path.name}:{node.lineno}")
    assert calls >= 5 and other == []


H_ROUTES = {"_bessel_H_series", "_bessel_H_kernel"}


def test_bessel_H_many_is_the_one_caller_of_the_H_routes():
    # bessel_H_many checks H's terms for both routes, which check nothing:
    # any other module-level statement of src that names a route, a call or
    # an import, would reach it unchecked
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if H_ROUTES & {name for name, _ in _names(node)}:
                users.add(f"{path.name}:{getattr(node, 'name', node.lineno)}")
    assert users == {"besselintegral.py:bessel_H_many"}


LAZY = ("numpy.ma", "numpy.fft", "numpy.polynomial")


@pytest.fixture(scope="module")
def lazy_modules() -> dict:
    """Which of the LAZY numpy submodules import numpy alone loads, and which
    are loaded after a fresh process ran the operations of a closure pass
    (one pair's three sides at the bench's C_max), a decompose pass and a
    sieve pass at their bench sizes."""
    code = f"""
import json, sys, warnings
import numpy
preloaded = [name for name in {LAZY!r} if name in sys.modules]
from specpoint.besselintegral import SpectralWeight
from specpoint.kuznetsov import decomposition, diagonal_term, eisenstein_side, kloosterman_side, p_bound_rhs
from specpoint.sievebench import Sequence, young_ls_ratio
warnings.simplefilter("ignore")
sw = SpectralWeight(T=3.0, M=1.0)
eisenstein_side(1, 2, sw, tol=1e-8)
diagonal_term(1, 1, sw, tol=1e-8)
kloosterman_side(1, 2, sw, 512)
decomposition(Sequence.random(4, seed=1, real=True), SpectralWeight(T=3.0, M=1.5), [], 1e-6)
young_ls_ratio(Sequence.random(256, seed=1), 1.0, 1.0, 1.0, 256)
p_bound_rhs(Sequence.random(64, seed=1, real=True), SpectralWeight(T=3.0, M=1.5))
print(json.dumps({{"preloaded": preloaded, "loaded": [name for name in {LAZY!r} if name in sys.modules]}}))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_passes_do_not_import_numpy_ma(lazy_modules):
    # numpy 2.4's np.unique without return_inverse imports numpy.ma on its
    # first call, ~15 ms and ~1.4 MB inside a timed pass
    # of the closure, decompose or sieve workload, whose calls run here
    if "numpy.ma" in lazy_modules["preloaded"]:
        pytest.skip("import numpy already loads numpy.ma")
    assert "numpy.ma" not in lazy_modules["loaded"]


@pytest.mark.parametrize("name", ["numpy.fft", "numpy.polynomial"])
def test_passes_do_not_import_numpy_fft_or_polynomial(lazy_modules, name):
    # importing numpy.fft took 1.5-1.8 ms of a sieve pass, numpy.polynomial
    # ~5 ms and 0.5 MB of a closure or decompose pass: the Ramanujan rows
    # come from a closed form, and the Gauss-Legendre rule from eigvalsh
    if name in lazy_modules["preloaded"]:
        pytest.skip(f"import numpy already loads {name}")
    assert name not in lazy_modules["loaded"]
