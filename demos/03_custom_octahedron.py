"""
A custom input: the octahedron
==============================

Shows how to analyze your own polytope, both through the library API
and through a spec dictionary fed to the command-line pipeline.  The
octahedron is rational but not simple: every vertex lies on four of
the eight facets.
"""

import json

from polystrat.ambient import admissible_index_sets, classify_choice
from polystrat.groups import gamma_group
from polystrat.links import link_tree
from polystrat.polytope import HPolytope, Quasilattice
from polystrat.report import build_report, parse_spec
from polystrat.scalars import ParamRegistry

# |x| + |y| + |z| <= 1 as eight half-spaces; no free parameters
reg = ParamRegistry([])
normals = [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1)
           for sz in (1, -1)]
p = HPolytope(reg, normals, [-1] * 8)

print("f-vector:", p.face_lattice.f_vector())
print("simple:", p.is_simple)
print("singular faces:",
      [f.index_set for f in p.face_lattice.singular_faces()])

fam = admissible_index_sets(p)

# against the span of its own normals, every admissible triple is a
# basis, so all chart groups collapse
q = Quasilattice.from_normals(p)
choice = classify_choice(p, q)
print("own span: rational:", choice.rational,
      " delzant-like:", choice.delzant_like)
i0 = next(iter(fam))
print("Gamma over", i0, "is",
      gamma_group(p, q, i0).structure().label)

# against the standard lattice the normals have determinant 4 and the
# chart groups become finite
q_std = Quasilattice(reg, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
choice = classify_choice(p, q_std)
print("standard lattice: rational:", choice.rational,
      " delzant-like:", choice.delzant_like)
for i_set in list(fam)[:3]:
    st = gamma_group(p, q_std, i_set).structure()
    print("Gamma over", i_set, "is", st.label)

# each vertex link is a square; one level of recursion suffices
forest = link_tree(p)
print(len(forest), "links, all of depth",
      {node.depth for node in forest})
print("first link f-vector:",
      forest[0].link.polytope.face_lattice.f_vector())

# the same analysis by spec file, as the CLI would run it
spec = {
    "dimension": 3,
    "normals": [[str(x) for x in row] for row in normals],
    "offsets": ["-1"] * 8,
    "options": {"samples": 25, "seed": 1},
}
p2, q2, options = parse_spec(json.loads(json.dumps(spec)))
report, ok = build_report(p2, q2, options)
print("report sections:", sorted(report))
print("verification pass:", report["verification"]["pass"],
      "max lift residual:", report["verification"]["max_lift_residual"])
assert ok
