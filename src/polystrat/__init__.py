"""Stratification data for convex polytopes.

Exact scalar field with formal parameters, H-polytope combinatorics
with singular-face classification, adapted chart bases, discrete
symmetry groups, numeric slice and cone machinery, and recursive link
polytopes, plus a JSON report CLI.
"""

from .scalars import ParamRegistry, Scalar, ScalarError, parse_scalar
from .polytope import Face, FaceLattice, HPolytope, ValidationError, \
    Vertex, classify_face
from .ambient import AdaptedBasisData, IndexFamily, ProjectionMap, \
    Quasilattice, adapted_kernel_basis, admissible_index_sets, \
    change_of_basis, classify_choice, find_flag_index_set, \
    projection_matrix
from .groups import GroupDescriptor, GroupStructure, gamma_group, \
    gamma_face_group, group_structure, split_gamma, stabilizer_dim, \
    stabilizer_report
from .charts import Chart, ConeNeighborhood, DomainError, \
    cone_embedding, cone_neighborhood, lift_point, moment_map_cone, \
    moment_values, psi_equations, regular_chart, regular_slice, \
    singular_chart, singular_slice, torus_action
from .links import ConeSection, FibrationData, LinkNode, LinkPolytope, \
    cone_section, fibration_data, link_polytope, link_tree, \
    section_invariance_check
from .report import build_report, dot_export, parse_spec, render_report

__version__ = "0.1.0"

__all__ = [
    "AdaptedBasisData", "Chart", "ConeNeighborhood", "ConeSection",
    "DomainError", "Face", "FaceLattice", "FibrationData",
    "GroupDescriptor", "GroupStructure", "HPolytope", "IndexFamily",
    "LinkNode", "LinkPolytope", "ParamRegistry", "ProjectionMap",
    "Quasilattice", "Scalar", "ScalarError", "ValidationError", "Vertex",
    "adapted_kernel_basis", "admissible_index_sets", "build_report",
    "change_of_basis", "classify_choice", "classify_face",
    "cone_embedding", "cone_neighborhood", "cone_section", "dot_export",
    "fibration_data", "find_flag_index_set",
    "gamma_face_group", "gamma_group", "group_structure", "lift_point",
    "link_polytope", "link_tree", "moment_map_cone", "moment_values",
    "parse_scalar", "parse_spec", "projection_matrix", "psi_equations",
    "regular_chart", "regular_slice", "render_report",
    "section_invariance_check", "singular_chart", "singular_slice",
    "split_gamma", "stabilizer_dim", "stabilizer_report", "torus_action",
]
