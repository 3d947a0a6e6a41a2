"""Source hygiene: every name a module-level import binds in specpoint is used."""

import ast
from pathlib import Path

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
