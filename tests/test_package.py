"""The package namespace and when each layer module runs.

``import permpat`` registers every layer module without running it; a layer
runs on first use.  What a process has loaded is global state, so those
checks run in a fresh interpreter.
"""

import argparse
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import permpat

SRC = str(Path(permpat.__file__).parents[1])
LAYERS = ("guards", "perm", "labels", "classes", "invgraph", "feasibility", "grids", "antichains")

#: ``permpat.__all__`` as the package exported it when it imported every
#: layer eagerly, with the griddability verdict in place of the evidence
#: report: 8 layer modules, ``suite``, and 127 names.
EXPORTED = (
    "guards", "SizeGuardError",
    "perm", "Perm", "SubstitutionTree", "SYMMETRY_NAMES", "SUM_DIRECTIONS", "all_patterns",
    "all_perms", "apply_symmetry", "avoids", "components", "containment_witness", "contains",
    "decompose_tree", "delete_entry", "direct_sum", "format_perm", "inflate", "intervals",
    "inverse", "is_simple", "is_sum_indecomposable", "one_point_deletions",
    "one_point_extensions", "parse_perm", "patterns_of_length", "perms_up_to", "rc_inverse",
    "reduce_sequence", "reverse_complement", "simple_perms", "skew_sum", "sum_perms",
    "symmetry_class",
    "labels", "COMPASS_DIRECTIONS", "FILLED", "HOLLOW", "TWO_ANTICHAIN", "FinitePoset",
    "LabeledPermutation", "apply_symmetry_labeled", "compass_decoding", "compass_encoding",
    "compass_poset", "constant_labels", "labeled_containment_witness", "labeled_contains",
    "labeled_from_json", "labeled_to_json", "last_entry_decoding", "last_entry_encoding",
    "poset_from_json", "poset_to_json", "strip_zero_labels", "subword_leq",
    "classes", "invgraph", "Graph", "all_isomorphisms", "automorphisms", "classify",
    "cycle_graph", "find_isomorphism", "graph_from_json", "graph_to_json",
    "has_long_induced_cycle", "induced_embeds", "inversion_graph", "is_bipartite", "is_cograph",
    "is_connected", "is_forest", "is_isomorphic", "is_linear_forest", "is_prime", "path_graph",
    "preimages", "symmetry_automorphism_maps", "to_dot",
    "CLOSURE_KINDS", "PermClass", "PlusOneBasisResult", "avoiding", "class_from_json",
    "class_to_json", "closure_member", "closure_member_tree", "downward_closure",
    "enumerate_members", "minimal_nonmembers", "plus_one_basis", "plus_one_member",
    "simples_in_class", "union_basis",
    "feasibility", "check_strict", "solve_strict",
    "grids", "GRID_KINDS", "GriddabilityVerdict", "GriddedPermutation",
    "X_MATRIX", "ZeroPmOneMatrix", "all_matrices", "cell_graph", "drawing_coordinates",
    "enumerate_grid", "geom_member", "grid_member", "griddability_verdict", "matrix_from_json",
    "matrix_from_rows_top_first", "matrix_to_json", "validate_gridded",
    "antichains", "FAMILY_IDS", "amr_oscillation_anchors", "amr_oscillation_member",
    "amr_tarjan_anchors", "amr_tarjan_member", "antichain_member", "increasing_oscillations",
    "index_for_length", "labeled_antichain_member", "member_length", "oscillating_sequence",
    "oscillations_by_filter", "verify_antichain", "widdershins_member",
    "suite", "CheckResult", "OPEN_QUESTIONS", "SuiteResult", "run_suite",
)

#: Prints, as JSON, which permpat modules are registered and which of them
#: have run their body (a lazy module changes its type to ModuleType then).
REPORT = """
import json, sys, types
registered = sorted(m for m in sys.modules if m.startswith("permpat."))
ran = sorted(m[8:] for m in registered if type(sys.modules[m]) is types.ModuleType)
print(json.dumps({"registered": registered, "ran": ran, "fractions": "fractions" in sys.modules}))
"""


def fresh(code: str) -> dict:
    """Run ``code`` and then ``REPORT`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLoading:
    def test_import_registers_every_layer_and_runs_none(self):
        state = fresh(
            "import permpat, sys\n"
            f"assert all(getattr(permpat, l) is sys.modules['permpat.' + l] for l in {LAYERS!r})\n"
        )
        assert state["registered"] == sorted(f"permpat.{layer}" for layer in LAYERS)
        assert state["ran"] == []

    def test_decompose_runs_perm_only(self):
        state = fresh("import permpat\nassert permpat.decompose_tree((2, 4, 1, 3)).kind == 'simple'\n")
        assert state["ran"] == ["perm"]
        # perm names Fraction only in an annotation
        assert not state["fractions"]

    def test_grid_member_leaves_graphs_labels_and_antichains(self):
        state = fresh("import permpat\nassert permpat.grid_member((2, 1), permpat.X_MATRIX) is not None\n")
        assert state["ran"] == ["classes", "feasibility", "grids", "guards", "perm"]

    def test_cell_graph_loads_invgraph(self):
        state = fresh("import permpat\npermpat.cell_graph(permpat.X_MATRIX)\n")
        assert "invgraph" in state["ran"] and "labels" in state["ran"]

    def test_from_import_runs_the_layer(self):
        # how to load a layer before threads share it (see README); a bare
        # ``import permpat.grids`` only registers it, like ``import permpat``
        assert fresh("import permpat.grids\n")["ran"] == []
        state = fresh("from permpat.grids import grid_member\n")
        assert state["ran"] == ["classes", "feasibility", "grids", "guards", "perm"]

    def test_threads_first_touching_layers_through_the_package(self):
        # before CPython 3.13 the lazy loader takes no lock, and without the
        # package's own most of these threads see a half-run layer
        code = (
            "import sys, threading\n"
            "import permpat\n"
            "sys.setswitchinterval(1e-6)\n"
            "errors, barrier = [], threading.Barrier(8, timeout=30)\n"
            "def touch(i):\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        if i % 2:\n"
            "            assert permpat.grid_member((2, 1), permpat.X_MATRIX) is not None\n"
            "        else:\n"
            "            assert permpat.PermClass([(1, 2)]).member((2, 1))\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=touch, args=(i,)) for i in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=30)\n"
            "assert not any(t.is_alive() for t in threads), 'a thread hung'\n"
            "assert errors == [], errors\n"
        )
        state = fresh(code)
        assert state["ran"] == ["classes", "feasibility", "grids", "guards", "perm"]

    def test_cli_does_not_register_the_battery(self):
        state = fresh("import permpat.cli\n")
        assert "permpat.suite" not in state["registered"]

    def test_name_bound_on_first_lookup(self):
        state = fresh(
            "import permpat\n"
            "assert 'intervals' not in vars(permpat)\n"
            "f = permpat.intervals\n"
            "assert vars(permpat)['intervals'] is f\n"
        )
        assert state["ran"] == ["perm"]


class TestCliLoading:
    def test_build_parser_runs_no_layer(self):
        state = fresh("import permpat.cli\npermpat.cli.build_parser()\n")
        # guards ran on import: the CLI names its SizeGuardError
        assert state["ran"] == ["cli", "guards"]

    def test_contains_runs_guards_and_perm_only(self):
        state = fresh("from permpat.cli import main\nassert main(['contains', '21', '132']) == 0\n")
        assert state["ran"] == ["cli", "guards", "perm"]
        assert not state["fractions"]

    def test_choice_literals_match_the_layers(self):
        from permpat import cli

        verbs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))

        def choices(verb, dest):
            return next(a.choices for a in verbs.choices[verb]._actions if a.dest == dest)

        assert choices("symmetry", "name") == permpat.SYMMETRY_NAMES
        assert choices("closure-member", "kind") == permpat.CLOSURE_KINDS
        assert choices("grid-enum", "kind") == permpat.GRID_KINDS
        assert choices("antichain", "family") == permpat.FAMILY_IDS


class TestNamespace:
    def test_all_is_unchanged(self):
        assert len(permpat.__all__) == len(set(permpat.__all__)) == 136
        assert sorted(permpat.__all__) == sorted(EXPORTED)

    def test_every_name_is_its_layers_object(self):
        for name in permpat.__all__:
            obj = getattr(permpat, name)
            if name in LAYERS or name == "suite":
                assert obj is sys.modules[f"permpat.{name}"], name
                continue
            layer = sys.modules[f"permpat.{permpat._MODULE_OF[name]}"]
            assert obj is vars(layer)[name], name
            defined_in = getattr(obj, "__module__", None)
            if isinstance(obj, (type, types.FunctionType)) and defined_in.startswith("permpat."):
                assert defined_in == layer.__name__, name

    def test_dir_and_star_import(self):
        assert set(permpat.__all__) <= set(dir(permpat))
        namespace = {}
        exec("from permpat import *", namespace)
        assert all(namespace[name] is getattr(permpat, name) for name in permpat.__all__)

    def test_unknown_name_raises_attribute_error(self):
        assert not hasattr(permpat, "no_such_name")
