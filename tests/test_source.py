"""Source checks on the library layers that the benchmark times."""

import ast
import importlib
from pathlib import Path

import pytest

#: The layers whose public functions the benchmark's tracer wraps.
BENCHMARKED_LAYERS = ("perm", "labels", "invgraph", "classes", "grids", "feasibility", "antichains")


def _tuples_over_generators(source):
    """The line of each ``tuple(<generator expression>)`` call in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]


def test_finder_sees_generators_and_not_lists():
    assert _tuples_over_generators("a = tuple(x for x in y)\nb = tuple((x for x in y))") == [1, 2]
    assert _tuples_over_generators("a = tuple([x for x in y])\nb = tuple(y)") == []


@pytest.mark.parametrize("layer", BENCHMARKED_LAYERS)
def test_tuples_built_from_lists(layer):
    # tuple() over a generator allocates at a guessed length and resizes,
    # and the discarded tuples stay on CPython's per-length free lists;
    # a list comprehension gives tuple() its exact length
    module = importlib.import_module(f"permpat.{layer}")
    assert _tuples_over_generators(Path(module.__file__).read_text()) == [], layer
