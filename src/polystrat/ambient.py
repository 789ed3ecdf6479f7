"""Linear-algebraic core: projection, index sets, change of basis.

Everything here is symbolic.  The projection pi sends e_j to the normal
X_j; its kernel is spanned by explicit vectors read off the change-of-
basis matrix A_I, with X_j = sum_h a_hj X_h for every j.  Independence
and basis tests are decided at the evaluation point, after which all
identities are verified as exact Scalar equalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import SingularMatrixError, mat_rank, mat_solve
from .polytope import Face, HPolytope, ValidationError
from .scalars import Scalar, monomial_rows


class Quasilattice:
    """Z-span of a spanning set of vectors, kept as symbolic generators."""

    def __init__(self, registry, generators):
        self.registry = registry
        self.source_polytope = None  # set when built from a polytope's normals
        self.generators = tuple(
            tuple(g if isinstance(g, Scalar) else
                  registry.parse(g) if isinstance(g, str) else
                  registry.scalar(g) for g in row)
            for row in generators)
        if not self.generators:
            raise ValueError("a quasilattice needs at least one generator")
        self.n = len(self.generators[0])
        if any(len(g) != self.n for g in self.generators):
            raise ValueError("generators must share one length")
        num = [[x.evaluate() for x in g] for g in self.generators]
        if mat_rank(num) != self.n:
            raise ValueError("generators do not span the ambient space "
                             "at the evaluation point")

    @classmethod
    def from_normals(cls, p: HPolytope) -> "Quasilattice":
        q = cls(p.registry, p.normals)
        q.source_polytope = p
        return q


@dataclass(frozen=True)
class ProjectionMap:
    """Matrix of pi: R^d -> R^n with column j equal to X_j."""

    matrix: tuple  # n rows of d Scalars

    @property
    def n(self):
        return len(self.matrix)

    @property
    def d(self):
        return len(self.matrix[0])


def projection_matrix(p: HPolytope) -> ProjectionMap:
    rows = [[p.normals[j][i] for j in range(p.d)] for i in range(p.n)]
    num = [[x.evaluate() for x in row] for row in rows]
    if mat_rank(num) != p.n:
        raise ValidationError([("lower-dimensional",
                                "normals do not span the ambient space")])
    return ProjectionMap(matrix=tuple(tuple(r) for r in rows))


class IndexFamily:
    """The admissible index sets, grouped by the vertex owning them.

    Each member I is a subset of some vertex's active set whose normals
    form a basis at the evaluation point; such an I determines its
    vertex uniquely.
    """

    def __init__(self, by_vertex):
        self.by_vertex = {v: tuple(sets) for v, sets in by_vertex.items()}
        self._vertex_of = {}
        for v, sets in self.by_vertex.items():
            for i_set in sets:
                if i_set in self._vertex_of:
                    raise AssertionError(
                        f"index set {i_set} claimed by two vertices")
                self._vertex_of[i_set] = v
        self.sets = tuple(sorted(self._vertex_of))

    def vertex_of(self, index_set) -> int:
        return self._vertex_of[tuple(sorted(index_set))]

    def for_vertex(self, vertex_id: int):
        return self.by_vertex.get(vertex_id, ())

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)

    def __contains__(self, index_set):
        return tuple(sorted(index_set)) in self._vertex_of


def admissible_index_sets(p: HPolytope) -> IndexFamily:
    """All I contained in a vertex's active set with {X_h : h in I} a basis."""
    key = ("admissible_index_sets",)
    if key in p.memo:
        return p.memo[key]
    by_vertex = {}
    for vid, v in enumerate(p.vertices):
        good = []
        for subset in itertools.combinations(v.active, p.n):
            rows = [p._num_x[j - 1] for j in subset]
            if mat_rank(rows) == p.n:
                good.append(subset)
        if not good:
            raise ValidationError(
                [("degenerate-point",
                  f"no admissible index set at vertex {vid}")])
        by_vertex[vid] = good
    family = p.memo[key] = IndexFamily(by_vertex)
    return family


def change_of_basis(p: HPolytope, index_set):
    """Matrix A_I with X_j = sum_{h in I} a_hj X_h, rows ordered by sorted I.

    Columns restricted to I form the identity by construction.  Results
    are memoized on the polytope; the symbolic solve is the expensive
    step when many index sets are in play.
    """
    i_sorted = tuple(sorted(index_set))
    key = ("change_of_basis", i_sorted)
    if key in p.memo:
        return p.memo[key]
    if len(i_sorted) != p.n:
        raise ValueError(f"index set {i_sorted} has size {len(i_sorted)}, "
                         f"need n={p.n}")
    m_i = [[p.normals[h - 1][i] for h in i_sorted] for i in range(p.n)]
    m_all = [[p.normals[j][i] for j in range(p.d)] for i in range(p.n)]
    try:
        a = mat_solve(m_i, m_all)
    except SingularMatrixError:
        raise ValueError(f"normals of {i_sorted} are not a basis") from None
    a = p.memo[key] = tuple(tuple(row) for row in a)
    return a


@dataclass(frozen=True)
class AdaptedBasisData:
    """A_I together with the kernel basis of pi it induces.

    kernel[i] is supported on kernel_labels[i] (unit entry) and I; when
    a face is given the first stabilizer_count vectors are supported on
    the face's index set and span the stabilizer algebra.
    """

    vertex_id: int
    vertex_index_set: tuple
    index_set: tuple
    a_matrix: tuple
    kernel: tuple
    kernel_labels: tuple
    face_index_set: tuple | None = None
    stabilizer_count: int = 0


def _kernel_vector(p, a, i_sorted, j, support):
    """e_j - sum_{h in support} a_hj e_h as a length-d Scalar vector."""
    v = [p.registry.zero() for _ in range(p.d)]
    v[j - 1] = p.registry.one()
    for h in support:
        v[h - 1] = v[h - 1] - a[i_sorted.index(h)][j - 1]
    return tuple(v)


def adapted_kernel_basis(p: HPolytope, index_set,
                         face: Face | None = None) -> AdaptedBasisData:
    family = admissible_index_sets(p)
    i_sorted = tuple(sorted(index_set))
    if i_sorted not in family:
        raise ValueError(f"{i_sorted} is not an admissible index set")
    vid = family.vertex_of(i_sorted)
    i_mu = p.vertices[vid].active
    a = change_of_basis(p, i_sorted)

    if face is None:
        labels = [j for j in range(1, p.d + 1) if j not in i_sorted]
        kernel = [_kernel_vector(p, a, i_sorted, j, i_sorted)
                  for j in labels]
        return AdaptedBasisData(
            vertex_id=vid, vertex_index_set=i_mu, index_set=i_sorted,
            a_matrix=a, kernel=tuple(kernel), kernel_labels=tuple(labels))

    i_f = set(face.index_set)
    if not i_f <= set(i_mu):
        raise ValueError(f"face {face.index_set} does not contain the "
                         f"vertex of {i_sorted}")
    common = flag_intersection(p, face, i_sorted)

    stab_labels = [k for k in sorted(i_f) if k not in common]
    mid_labels = [l for l in i_mu
                  if l not in i_f and l not in i_sorted]
    out_labels = [r for r in range(1, p.d + 1) if r not in i_mu]
    kernel = []
    for k in stab_labels:
        # X_k lies in the span of {X_h : h in I cap I_F}; the remaining
        # coefficients must vanish identically
        for h in i_sorted:
            if h not in common and not a[i_sorted.index(h)][k - 1].is_zero():
                raise ValueError(
                    f"column {k} of A_I has support outside I cap I_F; "
                    "flag data inconsistent")
        kernel.append(_kernel_vector(p, a, i_sorted, k, common))
    for j in mid_labels + out_labels:
        kernel.append(_kernel_vector(p, a, i_sorted, j, i_sorted))
    labels = stab_labels + mid_labels + out_labels
    return AdaptedBasisData(
        vertex_id=vid, vertex_index_set=i_mu, index_set=i_sorted,
        a_matrix=a, kernel=tuple(kernel), kernel_labels=tuple(labels),
        face_index_set=tuple(sorted(i_f)), stabilizer_count=len(stab_labels))


def flag_intersection(p: HPolytope, face: Face, index_set):
    """Sorted I cap I_F, provided it meets the flag condition card = n - p."""
    common = tuple(sorted(set(face.index_set) & set(index_set)))
    if len(common) != p.n - face.dim:
        raise ValueError(
            f"flag condition fails: card(I cap I_F)={len(common)} "
            f"!= n-p={p.n - face.dim}")
    return common


def find_flag_index_set(p: HPolytope, face: Face):
    """First (vertex, I) pair meeting card(I cap I_F) = n - p.

    Scans the face's vertices in order; a suitable I exists for at least
    one of them whenever the input data is consistent.
    """
    family = admissible_index_sets(p)
    want = p.n - face.dim
    i_f = set(face.index_set)
    for vid in face.vertex_ids:
        for i_set in family.for_vertex(vid):
            if len(i_f & set(i_set)) == want:
                return i_set, vid
    raise ValueError(f"no admissible index set meets the flag condition "
                     f"for face {face.index_set}")


def check_vertex_lambda_identity(p: HPolytope, vertex_id: int, index_set):
    """Verify lambda_k = sum_h a_hk lambda_h for the active constraints.

    Returns (ok, slacks) where slacks maps each inactive label r to the
    Scalar sum_h a_hr lambda_h - lambda_r; each slack must be positive
    at the evaluation point or the data is inconsistent.
    """
    i_sorted = tuple(sorted(index_set))
    i_mu = p.vertices[vertex_id].active
    a = change_of_basis(p, i_sorted)
    ok = True
    slacks = {}
    for r in range(1, p.d + 1):
        if r in i_sorted:
            continue
        combo = sum((a[pos][r - 1] * p.offsets[h - 1]
                     for pos, h in enumerate(i_sorted)), p.registry.zero())
        slack = combo - p.offsets[r - 1]
        if r in i_mu:
            ok = ok and slack.is_zero()
            continue
        if slack.sign() <= 0:
            raise ValidationError(
                [("degenerate-point",
                  f"slack of constraint {r} at vertex {vertex_id} is "
                  "not positive")])
        slacks[r] = slack
    return ok, slacks


@dataclass(frozen=True)
class ChoiceClassification:
    rational: bool
    delzant_like: bool

    @property
    def label(self) -> str:
        return "rational" if self.rational else "nonrational"


def basis_coordinates(p: HPolytope, q: Quasilattice, index_set):
    """Each quasilattice generator expressed in the basis {X_h : h in I}."""
    i_sorted = tuple(sorted(index_set))
    if q.source_polytope is p:
        a = change_of_basis(p, i_sorted)
        return [tuple(a[h][j] for h in range(p.n)) for j in range(p.d)]
    m_i = [[p.normals[h - 1][i] for h in i_sorted] for i in range(p.n)]
    rhs = [[gen[i] for gen in q.generators] for i in range(p.n)]
    try:
        cols = mat_solve(m_i, rhs)
    except SingularMatrixError:
        raise ValueError(f"normals of {i_sorted} are not a basis") from None
    return [tuple(cols[h][g] for h in range(p.n))
            for g in range(len(q.generators))]


def classify_choice(p: HPolytope, q: Quasilattice) -> ChoiceClassification:
    """Rationality and Delzant-likeness of the chosen normals and lattice.

    The Z-span of the generators is an honest lattice exactly when their
    Q-span has dimension n; with generic parameter values this is the
    rank of the generator coordinates flattened over the monomials
    appearing after clearing one common denominator per coordinate.
    """
    rows = [row for c in range(q.n)
            for row in monomial_rows([g[c] for g in q.generators])]
    rational = mat_rank(rows) == q.n
    delzant = rational and all(
        c.is_integer() for i_set in admissible_index_sets(p)
        for coords in basis_coordinates(p, q, i_set) for c in coords)
    return ChoiceClassification(rational=rational, delzant_like=delzant)
