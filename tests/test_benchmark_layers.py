"""Every layer boundary that the benchmark's tracer wraps still names a
function of the package, so a rename fails here, not in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_layers() -> dict[str, tuple[str, str]]:
    """The tracer's ``LAYERS`` table, read from its source, not imported."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no LAYERS table")


LAYERS = traced_layers()


@pytest.mark.parametrize("layer", list(LAYERS))
def test_layer_resolves(layer):
    module_name, attr = LAYERS[layer]
    module = importlib.import_module(module_name)
    if "." in attr:
        # a method is wrapped on the class that defines it
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name)), layer
    else:
        assert callable(getattr(module, attr)), layer
