"""Permutation patterns: containment and labeled containment, inversion
graphs, substitution decomposition, class algebra over finite bases,
monotone and geometric grid classes, and infinite antichain families —
all brute-force cross-validated by a built-in property battery.
"""

from importlib import import_module as _import_module

from .guards import SizeGuardError
from .perm import (
    Perm,
    SubstitutionTree,
    SYMMETRY_NAMES,
    SUM_DIRECTIONS,
    all_patterns,
    all_perms,
    apply_symmetry,
    avoids,
    components,
    containment_witness,
    contains,
    decompose_tree,
    delete_entry,
    direct_sum,
    format_perm,
    inflate,
    intervals,
    inverse,
    is_simple,
    is_sum_indecomposable,
    one_point_deletions,
    one_point_extensions,
    parse_perm,
    patterns_of_length,
    perms_up_to,
    rc_inverse,
    reduce_sequence,
    reverse_complement,
    simple_perms,
    skew_sum,
    sum_perms,
    symmetry_class,
)
from .labels import (
    COMPASS_DIRECTIONS,
    FILLED,
    HOLLOW,
    TWO_ANTICHAIN,
    FinitePoset,
    LabeledPermutation,
    apply_symmetry_labeled,
    compass_decoding,
    compass_encoding,
    compass_poset,
    constant_labels,
    labeled_containment_witness,
    labeled_contains,
    labeled_from_json,
    labeled_to_json,
    last_entry_decoding,
    last_entry_encoding,
    poset_from_json,
    poset_to_json,
    strip_zero_labels,
    subword_leq,
)
from .invgraph import (
    Graph,
    all_isomorphisms,
    automorphisms,
    classify,
    cycle_graph,
    find_isomorphism,
    graph_from_json,
    graph_to_json,
    has_long_induced_cycle,
    induced_embeds,
    inversion_graph,
    is_bipartite,
    is_cograph,
    is_connected,
    is_forest,
    is_isomorphic,
    is_linear_forest,
    is_prime,
    path_graph,
    preimages,
    symmetry_automorphism_maps,
    to_dot,
)
from .classes import (
    CLOSURE_KINDS,
    PermClass,
    PlusOneBasisResult,
    avoiding,
    class_from_json,
    class_to_json,
    closure_member,
    closure_member_tree,
    downward_closure,
    enumerate_members,
    minimal_nonmembers,
    plus_one_basis,
    plus_one_member,
    simples_in_class,
    union_basis,
)
from .feasibility import check_strict, solve_strict
from .grids import (
    GRID_KINDS,
    GRIDDABILITY_NOTE,
    GriddabilityEvidence,
    GriddedPermutation,
    X_MATRIX,
    ZeroPmOneMatrix,
    all_matrices,
    cell_graph,
    drawing_coordinates,
    enumerate_grid,
    geom_member,
    grid_member,
    griddability_evidence,
    matrix_from_json,
    matrix_from_rows_top_first,
    matrix_to_json,
    validate_gridded,
)
from .antichains import (
    FAMILY_IDS,
    amr_oscillation_anchors,
    amr_oscillation_member,
    amr_tarjan_anchors,
    amr_tarjan_member,
    antichain_member,
    increasing_oscillations,
    index_for_length,
    labeled_antichain_member,
    member_length,
    oscillating_sequence,
    oscillations_by_filter,
    verify_antichain,
    widdershins_member,
)

#: The property battery (``permpat.suite``) is the largest module and only
#: ``paper-suite`` and the tests run it, so its names load it on first use.
_SUITE_NAMES = ("CheckResult", "OPEN_QUESTIONS", "SuiteResult", "run_suite")


def __getattr__(name):
    if name == "suite" or name in _SUITE_NAMES:
        suite = _import_module(".suite", __name__)
        return suite if name == "suite" else getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"
__all__ = [name for name in globals() if not name.startswith("_")] + ["suite", *_SUITE_NAMES]
