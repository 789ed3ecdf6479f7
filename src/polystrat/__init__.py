"""Stratification data for convex polytopes.

Exact scalar field with formal parameters, H-polytope combinatorics
with singular-face classification, adapted chart bases, discrete
symmetry groups, numeric slice and cone machinery, and recursive link
polytopes, plus a JSON report CLI.
"""

__version__ = "0.1.0"

# the sections of a report, in order; cli builds its --only choices from
# them without importing report
ALL_SECTIONS = ("faces", "charts", "groups", "links", "verify")

# public name -> defining module, imported on first access (PEP 562), so
# the command line loads only what a command uses
_EXPORTS = {
    **dict.fromkeys(("ParamRegistry", "Scalar", "ScalarError",
                     "parse_scalar"), "scalars"),
    **dict.fromkeys(("Face", "FaceLattice", "HPolytope", "Quasilattice",
                     "ValidationError", "Vertex", "classify_face"),
                    "polytope"),
    **dict.fromkeys(("AdaptedBasisData", "ProjectionMap", "vertex_of",
                     "adapted_kernel_basis", "admissible_index_sets",
                     "change_of_basis", "classify_choice",
                     "find_flag_index_set", "projection_matrix"), "ambient"),
    **dict.fromkeys(("GroupDescriptor", "GroupStructure", "gamma_group",
                     "gamma_face_group", "group_structure", "split_gamma",
                     "stabilizer_dim", "stabilizer_report"), "groups"),
    **dict.fromkeys(("Chart", "ConeNeighborhood", "DomainError",
                     "cone_embedding", "cone_neighborhood", "lift_point",
                     "moment_map_cone", "moment_values", "psi_equations",
                     "regular_chart", "regular_slice", "singular_chart",
                     "singular_slice", "torus_action"), "charts"),
    **dict.fromkeys(("ConeSection", "FibrationData", "LinkNode",
                     "LinkPolytope", "cone_section", "fibration_data",
                     "link_polytope", "link_tree",
                     "section_invariance_check"), "links"),
    **dict.fromkeys(("build_report", "dot_export", "parse_spec",
                     "render_report"), "report"),
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
