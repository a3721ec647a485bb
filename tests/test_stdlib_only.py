"""The runtime stays stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chordcheck"


def foreign_imports(source: str) -> list[str]:
    """The modules ``source`` imports that are neither in the standard
    library nor part of chordcheck; relative imports stay in the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"chordcheck"}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_guard_flags_a_third_party_import():
    source = "import os.path\nimport networkx as nx\nfrom . import state\nfrom numpy import array\n"
    assert foreign_imports(source) == ["networkx", "numpy"]


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    foreign = {path.name: names for path in paths
               if (names := foreign_imports(path.read_text(encoding="utf-8")))}
    assert not foreign
