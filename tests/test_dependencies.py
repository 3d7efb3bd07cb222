"""The runtime needs numpy only; scipy is a test and benchmark oracle."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted((ROOT / "src" / "iqsense").glob("*.py"))
    assert modules
    assert [m.name for m in modules if "scipy" in _imported_roots(m)] == []


def test_runtime_dependencies_are_numpy_only():
    # Read with a pattern, not tomllib, which Python 3.10 lacks.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    names = [re.match(r"[A-Za-z0-9._-]+", d).group(0) for d in re.findall(r'"([^"]*)"', deps)]
    assert names == ["numpy"]
