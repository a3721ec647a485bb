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


# the package's layers, lowest first; ``__init__`` and ``__main__`` sit
# above them all
LAYERS = [("errors", "idspace"), ("state",), ("protocol", "properties"), ("explorer",),
          ("files",), ("repro",), ("cli",)]


def test_step_and_checker_layers_stay_apart():
    # each module imports only modules of the layers below its own: the
    # protocol owns its step rules and the checker its report, so neither
    # imports the other
    assert package_imports("import os\nfrom .state import A\nfrom . import errors\n") == \
        {"state", "errors"}
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == layer.keys()
    for name in modules:
        # ``from . import __version__`` reads a package attribute, not a module
        imports = package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        above = {dep for dep in imports - {"__version__"} if layer[dep] >= layer[name]}
        assert not above, (name, above)
