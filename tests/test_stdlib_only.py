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


def package_imports(source: str) -> set[str]:
    """The package modules ``source`` imports relatively."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
    return names


def test_step_and_checker_layers_stay_apart():
    # the protocol owns its step rules and the checker its report; the
    # data layers import only the layers below them
    assert package_imports("import os\nfrom .state import A\nfrom . import errors\n") == \
        {"state", "errors"}
    imports = {path.stem: package_imports(path.read_text(encoding="utf-8"))
               for path in PACKAGE.glob("*.py")}
    assert "properties" not in imports["protocol"]
    assert "protocol" not in imports["properties"]
    assert imports["errors"] == imports["idspace"] == set()
    assert imports["state"] == {"errors", "idspace"}
