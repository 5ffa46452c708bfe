"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, and pyproject.toml declares nothing else."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "whatif"}


def _imported_roots(path: Path) -> set[str]:
    """The top-level module of every absolute import in path."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "whatif").glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {root}"
        for path in sources
        for root in _imported_roots(path) - ALLOWED
    }
    assert not foreign


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
