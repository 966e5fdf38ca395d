"""The traced benchmark wraps skewlie functions by name (benchmark/spans.py).

Renaming or removing one of them must fail the test suite, not only a traced
benchmark run.  The names are read from the source of spans.py, which is
neither imported nor changed.  Every name in ``skewlie.__all__`` must resolve
as well, so that public API is not dropped silently.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _constants() -> dict:
    tree = ast.parse(SPANS.read_text())
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("LAYERS", "VALIDATE")}


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"skewlie.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_traced_layers_resolve_in_skewlie():
    names = _constants()
    assert names["LAYERS"] and names["VALIDATE"] == "involutions.Involution.validate"
    for dotted in [f"{m}.{f}" for m, f in names["LAYERS"]] + [names["VALIDATE"]]:
        assert callable(_resolve(dotted)), dotted


def test_every_public_name_resolves():
    """A public name whose definition leaves the package must leave __all__ too."""
    skewlie = importlib.import_module("skewlie")
    assert len(set(skewlie.__all__)) == len(skewlie.__all__)
    assert [name for name in skewlie.__all__ if not hasattr(skewlie, name)] == []
