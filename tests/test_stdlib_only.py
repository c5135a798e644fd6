"""The runtime is stdlib-only: every absolute import under src/lambdalab
names a module of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambdalab"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module name) of each absolute import in the file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_package_has_modules():
    assert PACKAGE / "terms.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    outside = [
        f"{path.name}:{line} imports {name}"
        for line, name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside


def test_guard_flags_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom numpy import array\nfrom . import terms\n")
    found = [name for _, name in _absolute_imports(module)]
    assert found == ["os", "numpy"]
    assert [n for n in found if n not in sys.stdlib_module_names] == ["numpy"]
