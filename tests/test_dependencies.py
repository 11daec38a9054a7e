"""The package runs on the standard library alone: sympy and numpy serve the
tests as oracles, and no module of ``faultline`` imports them."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
ORACLES = {"sympy", "numpy"}


def test_no_module_imports_sympy_or_numpy():
    modules = sorted((ROOT / "src" / "faultline").rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ORACLES, (path.name, node.lineno, name)


def test_project_has_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    test_extra = " ".join(project["optional-dependencies"]["test"])
    assert all(name in test_extra for name in ORACLES)
