"""The package's import structure: every import sits at module level, and
spectra, the root finder, stays below the graph-level modules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rootedpoly"
MODULES = sorted(SRC.glob("*.py"))


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_body_imports(path):
    local = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(parsed(path)) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_spectra_imports_only_factored_and_poly_from_the_package():
    dotted = []  # every imported name, relative ones spelled from the package
    for node in ast.walk(parsed(SRC / "spectra.py")):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["rootedpoly" if node.level else "", node.module]))
            dotted += [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
    package = {name.split(".")[1] for name in dotted if name.startswith("rootedpoly.")}
    assert package == {"factored", "poly"}
