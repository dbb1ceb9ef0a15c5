"""Exact effective resistance, voltage functions, and spanning-tree counts
on weighted multigraphs, with every supported network identity verifiable to
a literal zero residual over arbitrary-precision rationals."""

from importlib import import_module

# Each exported name by its home submodule.  A submodule is imported on the
# first lookup of one of its names (PEP 562), so ``import ohmtree`` and an
# ``ohmtree`` command load only the modules they use.
_EXPORTS = {
    "exactnum": ("Matrix", "SingularMatrixError", "rational"),
    "graph": (
        "DisconnectedError", "Edge", "GraphError", "MergedVertex", "Multigraph",
        "PreconditionError", "UnknownEdgeError", "UnknownVertexError",
        "banana_graph", "complete_graph", "cycle_graph", "fan_graph",
        "path_graph", "wheel_graph",
    ),
    "polyseq": (),
    "reduction": ("ReductionTrace", "delta_y", "reduce_two_terminal"),
    "resistnet": (
        "DeltaResult", "EulerTerm", "Network", "contraction_delta",
        "convex_combination_check", "cutting_delta", "edge_modification_delta",
        "euler_decomposition", "euler_decomposition_resistance_only", "laplacian",
        "pseudo_inverse", "resistance_derivative", "shorting_delta",
        "voltage_transfer_contraction", "voltage_transfer_cutting",
        "voltage_transfer_shorting",
    ),
    "spantree": (
        "averaging_contractions", "averaging_deletions", "closed_form",
        "contraction_identity", "count_deletion_contraction", "count_enumeration",
        "count_identified", "count_matrix_tree", "deletion_identity",
        "identification_quadratic", "identified_count", "resistance_from_trees",
        "spanning_tree_euler", "star_augmentation_count", "union_banana_of_paths",
        "union_cut_vertex", "union_cycle_replacement", "union_k_banana",
        "union_three_vertices", "union_two_vertices", "vertex_deletion_count",
        "voltage_from_trees",
    ),
    "verify": ("GraphGenSpec", "IdentityReport", "run_suite"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
