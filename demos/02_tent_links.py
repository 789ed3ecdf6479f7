"""
Recursive links of the tent
===========================

Loads the bundled 4-dimensional tent, whose six vertices are all
singular, and follows the link construction down the recursion tree.
"""

from fractions import Fraction

from polystrat.cli import fixture_spec
from polystrat.groups import split_gamma, stabilizer_dim
from polystrat.links import cone_section, fibration_data, link_polytope, \
    link_tree, section_invariance_check
from polystrat.report import parse_spec

p, q, options = parse_spec(fixture_spec("tent"))
lat = p.face_lattice

print("f-vector:", lat.f_vector())
sing = lat.singular_faces()
print(len(sing), "singular faces:")
for f in sing:
    print("  ", f.index_set, "dim", f.dim, "r", f.r,
          "stabilizer dim", stabilizer_dim(f, p.n))

# the quotient group transverse to the edge, displayed on coordinate 6
edge = lat.face((1, 2, 3, 4))
split = split_gamma(p, q, edge, (1, 2, 3, 6))
print("edge quotient group on", split.complement_part.support, ":",
      [[str(x) for x in g] for g in split.complement_part.generators],
      "structure", split.complement_part.structure().label)

# link of the first vertex: a 3-polytope with three singular vertices
nu1 = lat.face((1, 2, 3, 4, 6, 7))
sec = cone_section(p, nu1)
print("section normal Y:", [str(x) for x in sec.y_num],
      "nearest point of the slice plane", [str(x) for x in sec.xi0])
lp = link_polytope(p, sec)
print("nu1 link: dim", lp.polytope.n,
      "f-vector", lp.polytope.face_lattice.f_vector())
for g in lp.polytope.face_lattice.singular_faces():
    print("  singular link vertex", g.index_set,
          "-> parent edge", lp.to_parent[g.index_set])

# the same combinatorics for any epsilon and any positive b
print("section invariant under epsilon change:",
      section_invariance_check(p, nu1, eps1=Fraction(1, 3), eps2=2))

# the circle direction over the section closes up only for rational b
fib = fibration_data(cone_section(p, edge, b={2: "p1"}))
print("edge fibration with b_2 = p1: closed =", fib.closed,
      "split =", fib.split_ok)

# full recursion: links of links until everything is simple
forest = link_tree(p)
print(len(forest), "root links; maximal depth",
      max(n.depth for n in forest))
for node in forest:
    if not node.children:
        continue
    print("face", node.face_index_set, "has",
          len(node.children), "singular link faces:")
    for c in node.children:
        print("   chain", c.chain, "-> link f-vector",
              c.link.polytope.face_lattice.f_vector(),
              "simple" if c.link.polytope.is_simple else "singular")
