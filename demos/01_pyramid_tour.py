"""
Tour of the two-parameter pyramid
=================================

Builds the bundled pyramid from its raw half-space data, then walks
through every layer of the analysis: faces, one chart, the discrete
group, lifts and slices, and the cone at the singular apex.
"""

from fractions import Fraction

from polystrat.ambient import adapted_kernel_basis, admissible_index_sets, \
    change_of_basis, classify_choice
from polystrat.charts import cone_neighborhood, lift_point, moment_values, \
    psi_equations, regular_chart, regular_slice, singular_chart
from polystrat.groups import gamma_group
from polystrat.links import cone_section, link_polytope
from polystrat.polytope import HPolytope, Quasilattice
from polystrat.scalars import ParamRegistry

# two free parameters; unset values default to distinct primes (2, 3)
reg = ParamRegistry(["p2", "p5"])
p = HPolytope(
    reg,
    [["-1", "0", "-1"],
     ["0", "-p2", "-p2"],
     ["1", "0", "0"],
     ["0", "1", "0"],
     ["0", "0", "p5"]],
    ["-1", "-p2", "0", "0", "0"])

print("dimension", p.n, "with", p.d, "constraints")
print("f-vector:", p.face_lattice.f_vector())
for v in p.vertices:
    print("  vertex", tuple(map(str, v.coords)), "active", v.active)

# the apex sits on four planes in a 3-dimensional space: singular
for f in p.face_lattice.singular_faces():
    print("singular face", f.index_set, "dim", f.dim, "r", f.r)

q = Quasilattice.from_normals(p)
fam = admissible_index_sets(p)
print("admissible index sets:", list(fam))
print("classification:", classify_choice(p, q).label)

# chart over I = {2,3,4}: every normal rewritten in that basis
i_set = (2, 3, 4)
a = change_of_basis(p, i_set)
print("change of basis A_I for I =", i_set)
for h, row in zip(i_set, a):
    print("  row", h, [str(x) for x in row])

chart = regular_chart(p, i_set)
print("slacks:", {r: str(s) for r, s in sorted(chart.slacks.items())})

# the level-set equations sum coeff * |z_j|^2 + constant = 0
for vec, const in psi_equations(p, adapted_kernel_basis(p, i_set)):
    print("level set:", [str(x) for x in vec], "+", str(const))

gamma = gamma_group(p, q, i_set)
print("chart group generators:",
      [[str(x) for x in g] for g in gamma.generators])
print("chart group structure:", gamma.structure().label)

# lift an interior point and read the moment maps back
mu = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
z = lift_point(p, mu)
ups, psi, phi = moment_values(p, z, chart)
print("lift of", tuple(map(str, mu)), "-> |psi| =",
      max(abs(v) for v in psi), " phi =", [float(round(x, 12)) for x in phi])

# a slice point: pick the I-block freely, the rest is determined
u = [abs(z[h - 1]) for h in i_set]
z2 = regular_slice(p, chart, u)
print("slice reproduces the lift:",
      max(abs(x - y) for x, y in zip(z, z2)) < 1e-12)

# around the apex: the flag chart and the embedding constants
apex = p.face_lattice.face((1, 2, 3, 4))
sch = singular_chart(p, apex, i_set)
nb = cone_neighborhood(p, sch)
print("apex cone: common block", sch.common, "epsilon", nb.epsilon)

# the link of the apex is a square
lp = link_polytope(p, cone_section(p, apex))
print("apex link: dim", lp.polytope.n,
      "f-vector", lp.polytope.face_lattice.f_vector())
for g in lp.polytope.face_lattice.faces_of_dim(0):
    print("  link vertex", g.index_set, "-> parent face",
          lp.to_parent[g.index_set])
