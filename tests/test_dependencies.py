"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rnnt_lab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "rnnt_lab"}


def imported_modules(path: Path) -> list[str]:
    """The absolute module names ``path`` imports; a relative import is the package's own."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_package_is_found():  # else the walk below checks nothing
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_numpy_or_the_package(path):
    outside = [name for name in imported_modules(path) if name.split(".")[0] not in ALLOWED]
    assert not outside, f"{path.name} imports {outside}"
