"""Cones at singular faces and their cross-section link polytopes.

A singular face F (r constraints active, rank n-p) determines a
pointed cone cut out by its active half-spaces inside the span of the
active normals.  Slicing the cone at level sum(lambda_j b_j) + epsilon
along Y = sum b_j X_j yields an (n-p-1)-polytope whose faces are in
order-preserving bijection with the faces of the original polytope
strictly containing F.  The intrinsic presentation lives in an exact
orthogonal basis of the Y-annihilator, so its coordinates stay
rational at the evaluation point.  Y, the level and that basis are
read only there (evaluation is a ring map), and are computed on the
polytope's primitive integer rows: each Gram-Schmidt vector is an
integer vector over one positive denominator, reduced by its gcd after
each projection, and every Fraction of the section is built once.

The slice itself is not validated.  Its face lattice is built from its
own vertices, as every polytope's is, and the one cross-check is that
it is the parent's interval [F, P], relabelled inside I_F, with the
same index sets and dimensions; a mismatch is an error.

The fibration split needs no chart: a flag chart's stabilizer rows span the
relations among the X_j of I_F, so b is in their span iff Y = sum b_j X_j = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .charts import _coerce_b
from .polytope import Face, HPolytope, _memoized
from .scalars import ParamRegistry, _clear_denominators


def _idot(u, v):
    return sum(map(mul, u, v))


class ConeSection(NamedTuple):
    """Transversal slice data of the cone at a singular face.

    polytope is the unvalidated intrinsic presentation of the slice: one
    constraint per label of the face, in the annihilator basis.
    """

    face_index_set: tuple
    b: tuple  # Scalars over sorted(I_F)
    epsilon: Fraction
    y_num: tuple  # Y = sum b_j X_j at the evaluation point, Fractions
    xi0: tuple  # minimum-norm point of the slice plane, Fractions
    ann_basis: tuple  # orthogonal rational basis of ann(Y) in the span
    polytope: HPolytope


def cone_section(p: HPolytope, face: Face, b=None,
                 epsilon=Fraction(1)) -> ConeSection:
    if not face.singular:
        raise ValueError(f"face {face.index_set} is not singular")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    labels = face.index_set
    b = _coerce_b(p, labels, b)
    # X_j = a_j / m_j and lambda_j = l_j / m_j on the primitive rows, so
    # Y = y / den and the level is lvl / (den * epsilon.denominator)
    rows = [p._int_x[j - 1] for j in labels]
    offs = [p._int_l[j - 1] for j in labels]
    scales = [p._int_scale[j - 1] for j in labels]
    den, coef = _clear_denominators([bj.evaluate() / m
                                     for bj, m in zip(b, scales)])
    y = [_idot(coef, col) for col in zip(*rows)]
    yy = _idot(y, y)
    if yy == 0:
        raise ValueError("Y vanishes at the evaluation point")
    lvl = epsilon.denominator * _idot(coef, offs) + epsilon.numerator * den
    lvl_den = epsilon.denominator * yy  # xi0 = lvl * y / lvl_den

    # orthogonal basis of the Y-annihilator inside span{X_j : j in I_F},
    # by exact unnormalized Gram-Schmidt over the projected normals: the
    # projection of w / s against u is (w <u,u> - <w,u> u) / (s <u,u>)
    basis = []  # (w, s) for the vector w / s
    against = [(y, yy)]  # (u, <u,u>) for Y and each basis vector so far
    for a, m in zip(rows, scales):
        w, s = [x * m.denominator for x in a], m.numerator
        for u, uu in against:
            c = _idot(w, u)
            if c:
                w = [x * uu - c * v for x, v in zip(w, u)]
                g = math.gcd(s * uu, *w)
                w, s = [x // g for x in w], s * uu // g
        if any(w):
            basis.append((w, s))
            against.append((w, _idot(w, w)))
    expect = p.n - face.dim - 1
    if len(basis) != expect:
        raise ValueError(f"section of face {labels} has dimension "
                         f"{len(basis)}, expected {expect}")
    normals = []
    offsets = []
    for a, m, l in zip(rows, scales, offs):
        normals.append([Fraction(_idot(w, a) * m.denominator, s * m.numerator)
                        for w, s in basis])
        offsets.append(Fraction(
            (l * lvl_den - lvl * _idot(y, a)) * m.denominator,
            lvl_den * m.numerator))
    # valid since p is, b > 0 and epsilon > 0; link_polytope checks it
    poly = HPolytope(ParamRegistry([]), normals, offsets, validate=False)
    return ConeSection(
        face_index_set=labels, b=b, epsilon=epsilon,
        y_num=tuple(Fraction(c, den) for c in y),
        xi0=tuple(Fraction(lvl * c, lvl_den) for c in y),
        ann_basis=tuple(tuple(Fraction(x, s) for x in w) for w, s in basis),
        polytope=poly)


class LinkPolytope(NamedTuple):
    """Intrinsic presentation of the cross-section with face transfer.

    Constraint t of the polytope corresponds to the parent constraint
    section.face_index_set[t-1]; to_parent maps every face of the link
    lattice to the index set of the parent face it comes from.
    """

    section: ConeSection
    polytope: HPolytope
    to_parent: dict  # link index set -> parent index set


def link_polytope(p: HPolytope, section: ConeSection) -> LinkPolytope:
    """The slice, with its faces named by the parent faces they come from.

    A face G above F becomes T_G, the positions of I_G in I_F, of
    dimension dim G - dim F - 1 with G's singularity.  RuntimeError if
    the slice's own lattice is not this relabelled interval [F, P].
    """
    poly = section.polytope
    labels = section.face_index_set
    parent = p.face_lattice
    face = parent.face(labels)
    pos = {j: t for t, j in enumerate(labels, start=1)}
    above = {tuple(pos[j] for j in g.index_set): g
             for g in parent.superfaces(face)}
    if {f.index_set: f.dim for f in poly.face_lattice.faces} != {
            t: g.dim - face.dim - 1 for t, g in above.items()}:
        raise RuntimeError(
            f"the face lattice of the link at face {labels} is not the "
            "interval above it")
    return LinkPolytope(section=section, polytope=poly, to_parent={
        t: g.index_set for t, g in above.items()})


class FibrationData(NamedTuple):
    """The distinguished circle direction over the section.

    y_tilde lists the coefficients of sum b_j e_j on sorted(I_F).  The
    fiber subgroup closes up iff all coefficient ratios are rational
    constants.  split_ok says y_tilde extends the stabilizer kernel block
    to a direct sum: a flag chart writes each stabilizer X_k through the
    independent X_h, h in I cap I_F, so that holds exactly when Y != 0:
    always, as the normal cone of a face is pointed and b > 0 (and
    cone_section refuses a Y that vanishes at the evaluation point).
    """

    face_index_set: tuple
    y_tilde: tuple  # Scalars over sorted(I_F)
    closed: bool
    split_ok: bool


def fibration_data(section: ConeSection) -> FibrationData:
    b = section.b
    return FibrationData(
        face_index_set=section.face_index_set, y_tilde=b,
        closed=all((v / b[0]).is_rational_constant() for v in b),
        split_ok=True)


class LinkNode(NamedTuple):
    """A singular face with its link and the links below it."""

    chain: tuple  # face index sets, each in the labeling one level up
    face_index_set: tuple
    link: LinkPolytope
    fibration: FibrationData
    children: tuple

    @property
    def depth(self) -> int:
        return 1 + max((c.depth for c in self.children), default=0)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def _build_node(p: HPolytope, face: Face, chain, b, epsilon,
                depth_left: int) -> LinkNode:
    if depth_left <= 0:
        raise RuntimeError(f"link recursion below {chain} exceeds the "
                           "ambient dimension bound")
    section = cone_section(p, face, b=b, epsilon=epsilon)
    link = link_polytope(p, section)
    children = tuple(
        _build_node(link.polytope, g, chain + (link.to_parent[g.index_set],),
                    None, epsilon, depth_left - 1)
        for g in link.polytope.face_lattice.singular_faces())
    return LinkNode(chain=chain, face_index_set=face.index_set, link=link,
                    fibration=fibration_data(section), children=children)


def link_tree(p: HPolytope, options=None):
    """One LinkNode per singular face, recursing until links are simple.

    The forest is memoized on the polytope, keyed by epsilon and the b
    coefficients each singular face resolves to.
    """
    options = options or {}
    b_map = options.get("b", {})
    epsilon = Fraction(options.get("epsilon", 1))
    faces = p.face_lattice.singular_faces()
    stray = [k for k in b_map if k not in {f.index_set for f in faces}]
    if stray:
        raise ValueError(f"b is given for {stray}, which are not singular "
                         "faces")
    bs = tuple(_coerce_b(p, face.index_set, b_map.get(face.index_set))
               for face in faces)
    return _memoized(p, ("link_tree", epsilon, bs), lambda: tuple(
        _build_node(p, face, (face.index_set,), b, epsilon, depth_left=p.n)
        for face, b in zip(faces, bs)))


def section_invariance_check(p: HPolytope, face: Face, b=None,
                             eps1=Fraction(1), eps2=Fraction(2),
                             b2=None) -> bool:
    """Whether two sections of one cone have the same vertices, each
    named by the parent labels of its active set (hence equal lattices)."""
    def profile(b, epsilon):
        section = cone_section(p, face, b=b, epsilon=epsilon)
        labels = section.face_index_set
        return sorted(tuple(labels[t - 1] for t in v.active)
                      for v in section.polytope.vertices)

    return profile(b, eps1) == profile(b2 if b2 is not None else b, eps2)
