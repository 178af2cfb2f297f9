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


def _frames_per_call(source, name):
    """The line of each nested function or lambda in the top-level function
    or ``Class.method`` ``name`` of ``source``, and of each call it makes to
    itself by name (for a method, to any attribute of that name)."""
    body = ast.parse(source).body
    *owner, name = name.split(".")
    if owner:
        body = next(node for node in body if isinstance(node, ast.ClassDef) and node.name == owner[0]).body
    function = next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)
    return sorted(
        node.lineno
        for node in ast.walk(function)
        if node is not function
        and (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            or isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Name) and node.func.id == name
                or owner and isinstance(node.func, ast.Attribute) and node.func.attr == name
            )
        )
    )


def test_finder_sees_nested_functions_and_self_calls():
    source = "def f(n):\n    g = lambda: 0\n    def h():\n        pass\n    return f(n - 1)\n"
    assert _frames_per_call(source, "f") == [2, 3, 5]
    assert _frames_per_call("def f(n):\n    return [n for n in range(n)]\n", "f") == []
    method = "class T:\n    def f(self):\n        return [c.f() for c in self.c] + [g(c) for c in self.c]\n"
    assert _frames_per_call(method, "T.f") == [3]


def test_containment_search_is_one_loop():
    # a closure or a self-call per pattern entry would bring back a Python
    # frame per entry, and with it the recursion limit
    module = importlib.import_module("permpat.perm")
    assert _frames_per_call(Path(module.__file__).read_text(), "_witness") == []


@pytest.mark.parametrize(
    "layer, name",
    [
        ("perm", "decompose_tree"),
        ("perm", "_walk"),
        ("perm", "_fold"),
        *[("perm", f"SubstitutionTree.{m}") for m in ("preorder", "evaluate", "leaf_count", "shape")],
        ("classes", "closure_member"),
    ],
)
def test_tree_walks_are_loops(layer, name):
    # likewise for a frame per level of a substitution decomposition tree
    module = importlib.import_module(f"permpat.{layer}")
    assert _frames_per_call(Path(module.__file__).read_text(), name) == []
