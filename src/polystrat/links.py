"""Cones at singular faces and their cross-section link polytopes.

A singular face F (r constraints active, rank n-p) determines a
pointed cone cut out by its active half-spaces inside the span of the
active normals.  Slicing the cone at level sum(lambda_j b_j) + epsilon
along Y = sum b_j X_j yields an (n-p-1)-polytope whose faces are in
order-preserving bijection with the faces of the original polytope
strictly containing F.  The intrinsic presentation lives in an exact
orthogonal basis of the Y-annihilator, so its coordinates stay
rational at the evaluation point.

Two routes compute the singular set of the link: intrinsically from
its own H-presentation, and by transferring the classification of the
parent faces.  Disagreement is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .charts import singular_chart
from .linalg import mat_rank
from .polytope import Face, HPolytope, ValidationError
from .scalars import ParamRegistry, Scalar


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _coerce_b(p: HPolytope, face: Face, b):
    labels = face.index_set
    if b is None:
        return tuple(p.registry.one() for _ in labels)
    if isinstance(b, dict):
        vals = [b.get(j, 1) for j in labels]
    else:
        vals = list(b)
        if len(vals) != len(labels):
            raise ValueError(f"b must list {len(labels)} coefficients "
                             f"for constraints {labels}")
    out = []
    for j, v in zip(labels, vals):
        s = p.registry.scalar(v) if not isinstance(v, Scalar) else v
        if s.sign() <= 0:
            raise ValueError(f"b_{j} must be positive at the "
                             "evaluation point")
        out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class ConeSection:
    """Transversal slice data of the cone at a singular face.

    polytope is the validated intrinsic presentation of the slice: one
    constraint per label of the face, in the annihilator basis.
    """

    face_index_set: tuple
    b: tuple  # Scalars over sorted(I_F)
    epsilon: Fraction
    y: tuple  # Scalars, length n
    level: Scalar
    y_num: tuple  # Fractions
    xi0: tuple  # minimum-norm point of the slice plane, Fractions
    ann_basis: tuple  # orthogonal rational basis of ann(Y) in the span
    polytope: HPolytope = field(compare=False, repr=False)


def cone_section(p: HPolytope, face: Face, b=None,
                 epsilon=Fraction(1)) -> ConeSection:
    if not face.singular:
        raise ValueError(f"face {face.index_set} is not singular")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    b = _coerce_b(p, face, b)
    labels = face.index_set
    y = [p.registry.zero() for _ in range(p.n)]
    level = p.registry.scalar(epsilon)
    for bj, j in zip(b, labels):
        for i in range(p.n):
            y[i] = y[i] + bj * p.normals[j - 1][i]
        level = level + bj * p.offsets[j - 1]
    y_num = tuple(s.evaluate() for s in y)
    yy = _dot(y_num, y_num)
    if yy == 0:
        raise ValueError("Y vanishes at the evaluation point")
    lvl = level.evaluate()
    xi0 = tuple(lvl * c / yy for c in y_num)

    # orthogonal basis of the Y-annihilator inside span{X_j : j in I_F},
    # by exact unnormalized Gram-Schmidt over the projected normals
    basis = []
    for j in labels:
        v = [p._num_x[j - 1][i] for i in range(p.n)]
        coef = _dot(v, y_num) / yy
        v = [v[i] - coef * y_num[i] for i in range(p.n)]
        for u in basis:
            c = _dot(v, u) / _dot(u, u)
            v = [v[i] - c * u[i] for i in range(p.n)]
        if any(x != 0 for x in v):
            basis.append(v)
    expect = p.n - face.dim - 1
    if len(basis) != expect:
        raise ValueError(f"section of face {labels} has dimension "
                         f"{len(basis)}, expected {expect}")
    normals = []
    offsets = []
    for j in labels:
        xj = [p._num_x[j - 1][i] for i in range(p.n)]
        normals.append([_dot(u, xj) for u in basis])
        offsets.append(p._num_l[j - 1] - _dot(xi0, xj))
    try:
        # validation checks the slice is nonempty, bounded, full-dim
        poly = HPolytope(ParamRegistry([]), normals, offsets)
    except ValidationError as e:
        raise ValueError(f"cone section at {labels} is degenerate: "
                         f"{e}") from e
    return ConeSection(face_index_set=labels, b=b, epsilon=epsilon,
                       y=tuple(y), level=level, y_num=y_num, xi0=xi0,
                       ann_basis=tuple(tuple(u) for u in basis),
                       polytope=poly)


@dataclass(frozen=True)
class LinkPolytope:
    """Intrinsic presentation of the cross-section with face transfer.

    Constraint t of the polytope corresponds to the parent constraint
    section.face_index_set[t-1]; to_parent maps every face of the link
    lattice to the index set of the parent face it comes from.
    """

    section: ConeSection
    polytope: HPolytope
    to_parent: dict  # link index set -> parent index set

    def parent_labels(self, link_index_set):
        labels = self.section.face_index_set
        return tuple(sorted(labels[t - 1] for t in link_index_set))


def link_polytope(p: HPolytope, section: ConeSection) -> LinkPolytope:
    poly = section.polytope
    labels = section.face_index_set
    parent = p.face_lattice
    face = parent.face(labels)
    expected = {g.index_set: g for g in parent.superfaces(face)}
    expected[()] = parent.top
    if face.index_set == ():
        raise ValueError("link of the whole polytope is undefined")
    to_parent = {}
    seen = set()
    for g in poly.face_lattice.faces:
        lab = tuple(sorted(labels[t - 1] for t in g.index_set))
        if lab not in expected:
            raise RuntimeError(
                f"link face {g.index_set} maps to {lab}, which is not a "
                f"face above {labels}")
        gp = expected[lab]
        if gp.dim != g.dim + face.dim + 1:
            raise RuntimeError(
                f"dimension mismatch at link face {g.index_set}: "
                f"{g.dim} vs parent {gp.dim}")
        if g.index_set != () and gp.index_set != () \
                and g.singular != gp.singular:
            raise RuntimeError(
                f"singularity transfer fails at link face {g.index_set}: "
                f"intrinsic {g.singular}, parent {gp.singular}")
        to_parent[g.index_set] = lab
        seen.add(lab)
    missing = set(expected) - seen
    if missing:
        raise RuntimeError(f"faces above {labels} missing from the link: "
                           f"{sorted(missing)}")
    return LinkPolytope(section=section, polytope=poly, to_parent=to_parent)


@dataclass(frozen=True)
class FibrationData:
    """The distinguished circle direction over the section.

    y_tilde lists the coefficients of sum b_j e_j on sorted(I_F).  The
    fiber subgroup closes up iff all coefficient ratios are rational
    constants; the augmented rank certifies that y_tilde extends the
    stabilizer kernel block to a direct sum.
    """

    face_index_set: tuple
    y_tilde: tuple  # Scalars over sorted(I_F)
    closed: bool
    augmented_rank: int
    split_ok: bool


def fibration_data(p: HPolytope, face: Face, b=None,
                   index_set=None) -> FibrationData:
    b = _coerce_b(p, face, b)
    labels = face.index_set
    basis = singular_chart(p, face, index_set).basis
    stab = basis.kernel[:basis.stabilizer_count]
    rows = [[vec[j - 1] for j in labels] for vec in stab]
    rows.append(list(b))
    rank = mat_rank([row[:] for row in rows])
    split_ok = rank == len(stab) + 1
    closed = True
    for v in b:
        if not (v / b[0]).is_rational_constant():
            closed = False
            break
    return FibrationData(face_index_set=labels, y_tilde=b, closed=closed,
                         augmented_rank=rank, split_ok=split_ok)


@dataclass(frozen=True)
class LinkNode:
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
    fib = fibration_data(p, face, b=b)
    children = []
    for g in link.polytope.face_lattice.singular_faces():
        children.append(_build_node(
            link.polytope, g, chain + (link.parent_labels(g.index_set),),
            None, epsilon, depth_left - 1))
    return LinkNode(chain=chain, face_index_set=face.index_set, link=link,
                    fibration=fib, children=tuple(children))


def link_tree(p: HPolytope, options=None):
    """One LinkNode per singular face, recursing until links are simple.

    The forest is memoized on the polytope, keyed by epsilon and the b
    coefficients each singular face resolves to.
    """
    options = options or {}
    b_map = options.get("b", {})
    epsilon = Fraction(options.get("epsilon", 1))
    faces = p.face_lattice.singular_faces()
    bs = tuple(_coerce_b(p, face, b_map.get(face.index_set))
               for face in faces)
    key = ("link_tree", epsilon, bs)
    if key not in p.memo:
        p.memo[key] = tuple(
            _build_node(p, face, (face.index_set,), b, epsilon,
                        depth_left=p.n)
            for face, b in zip(faces, bs))
    return p.memo[key]


def section_invariance_check(p: HPolytope, face: Face, b=None,
                             eps1=Fraction(1), eps2=Fraction(2),
                             b2=None) -> bool:
    """Labeled face-lattice isomorphism between two sections of one cone."""
    l1 = link_polytope(p, cone_section(p, face, b=b, epsilon=eps1))
    l2 = link_polytope(p, cone_section(p, face, b=b2 if b2 is not None
                                       else b, epsilon=eps2))

    def profile(link):
        out = {}
        for g in link.polytope.face_lattice.faces:
            out[link.to_parent[g.index_set]] = (g.dim, g.singular)
        return out

    return profile(l1) == profile(l2)
