"""Permutation patterns: containment and labeled containment, inversion
graphs, substitution decomposition, class algebra over finite bases,
monotone and geometric grid classes, and infinite antichain families —
all brute-force cross-validated by a built-in property battery.

Importing the package runs none of its layers.  Each layer module is in
``sys.modules`` and bound as a package attribute from the start, but its body
runs when one of its attributes is first read; a public name is bound into
the package on its first lookup.  So a caller that only decomposes
permutations compiles ``guards`` and ``perm`` and nothing else.
"""

import sys as _sys
from _thread import RLock as _RLock
from importlib import import_module as _import_module
from importlib.util import LazyLoader as _LazyLoader, find_spec as _find_spec, module_from_spec as _module_from_spec

#: The public names of each module, in the order the layers are registered.
#: ``suite`` (the property battery, the largest module) is not registered:
#: only ``paper-suite`` and the tests run it, and it is imported on first use.
_EXPORTS = {
    "guards": ("SizeGuardError",),
    "perm": (
        "Perm",
        "SubstitutionTree",
        "SYMMETRY_NAMES",
        "SUM_DIRECTIONS",
        "all_patterns",
        "all_perms",
        "apply_symmetry",
        "avoids",
        "components",
        "containment_witness",
        "contains",
        "decompose_tree",
        "delete_entry",
        "direct_sum",
        "format_perm",
        "inflate",
        "intervals",
        "inverse",
        "is_simple",
        "is_sum_indecomposable",
        "one_point_deletions",
        "one_point_extensions",
        "parse_perm",
        "patterns_of_length",
        "perms_up_to",
        "rc_inverse",
        "reduce_sequence",
        "reverse_complement",
        "simple_perms",
        "skew_sum",
        "sum_perms",
        "symmetry_class",
    ),
    "labels": (
        "COMPASS_DIRECTIONS",
        "FILLED",
        "HOLLOW",
        "TWO_ANTICHAIN",
        "FinitePoset",
        "LabeledPermutation",
        "apply_symmetry_labeled",
        "compass_decoding",
        "compass_encoding",
        "compass_poset",
        "constant_labels",
        "labeled_containment_witness",
        "labeled_contains",
        "labeled_from_json",
        "labeled_to_json",
        "last_entry_decoding",
        "last_entry_encoding",
        "poset_from_json",
        "poset_to_json",
        "strip_zero_labels",
        "subword_leq",
    ),
    "classes": (
        "CLOSURE_KINDS",
        "PermClass",
        "PlusOneBasisResult",
        "avoiding",
        "class_from_json",
        "class_to_json",
        "closure_member",
        "closure_member_tree",
        "downward_closure",
        "enumerate_members",
        "minimal_nonmembers",
        "plus_one_basis",
        "plus_one_member",
        "simples_in_class",
        "union_basis",
    ),
    "invgraph": (
        "Graph",
        "all_isomorphisms",
        "automorphisms",
        "classify",
        "cycle_graph",
        "find_isomorphism",
        "graph_from_json",
        "graph_to_json",
        "has_long_induced_cycle",
        "induced_embeds",
        "inversion_graph",
        "is_bipartite",
        "is_cograph",
        "is_connected",
        "is_forest",
        "is_isomorphic",
        "is_linear_forest",
        "is_prime",
        "path_graph",
        "preimages",
        "symmetry_automorphism_maps",
        "to_dot",
    ),
    "feasibility": ("check_strict", "solve_strict"),
    "grids": (
        "GRID_KINDS",
        "GriddabilityVerdict",
        "GriddedPermutation",
        "X_MATRIX",
        "ZeroPmOneMatrix",
        "all_matrices",
        "cell_graph",
        "drawing_coordinates",
        "enumerate_grid",
        "geom_member",
        "grid_member",
        "griddability_verdict",
        "matrix_from_json",
        "matrix_from_rows_top_first",
        "matrix_to_json",
        "validate_gridded",
    ),
    "antichains": (
        "FAMILY_IDS",
        "amr_oscillation_anchors",
        "amr_oscillation_member",
        "amr_tarjan_anchors",
        "amr_tarjan_member",
        "antichain_member",
        "increasing_oscillations",
        "index_for_length",
        "labeled_antichain_member",
        "member_length",
        "oscillating_sequence",
        "oscillations_by_filter",
        "verify_antichain",
        "widdershins_member",
    ),
    "suite": ("CheckResult", "OPEN_QUESTIONS", "SuiteResult", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The recipe of the importlib.util.LazyLoader documentation: the module is
# made and registered now, and the loader runs its body on first attribute
# access, so ``from .perm import Perm`` in another layer's body runs perm
# then, as an eager import would.
for _layer in [m for m in _EXPORTS if m != "suite"]:
    _spec = _find_spec(f"{__name__}.{_layer}")
    _spec.loader = _LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = globals()[_layer] = _module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_layer])
del _layer, _spec


#: Held while a lookup loads a module.  Before CPython 3.13 the lazy loader
#: takes no lock, so a second thread reading a layer that another thread is
#: still running would see the half-run module; this makes such a reader of
#: a package name wait instead.
_LOADING = _RLock()


def __getattr__(name):
    source = "suite" if name == "suite" else _MODULE_OF.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _LOADING:
        module = _import_module(f".{source}", __name__)
        if name == "suite":
            return module
        # bound here, so later lookups are plain dict hits that skip this hook
        value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "1.0.0"
__all__ = [*_EXPORTS, *_MODULE_OF]
