"""Linear-algebraic core: projection, index sets, change of basis.

Everything here is symbolic.  The projection pi sends e_j to the normal
X_j; its kernel is spanned by explicit vectors read off the change-of-
basis matrix A_I, with X_j = sum_h a_hj X_h for every j.  Independence
and basis tests are decided at the evaluation point, on the polytope's
integer constraint rows, and Delzant-likeness on the integer monomial
rows of the normals and generators, without A_I.  The offset identity
lambda_k = sum_h a_hk lambda_h on a vertex's active set is the
polytope's symbolic vertex certificate.  The symbolic A_I is the
reference for charts, which share its flag labels and kernel vectors
(_flag_labels, _kernel_vector) but take their numbers from the integer
rows.  The admissible A_I of one vertex come from one polynomial
Gauss-Jordan solve, whose reduced tableau D * A_J the vertex keeps in
the polytope's memo, and from one more pivot step of that elimination
per label exchanged between neighbouring bases.  One I is decided at
its own vertex (vertex_of); classify_choice walks I lazily, and only
the sections that list every I build admissible_index_sets.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .linalg import SingularMatrixError, _independent_rows, _poly_step, \
    _solve_scaled, int_rank, mat_solve
from .polytope import Face, HPolytope, Quasilattice, ValidationError, \
    _memoized
from .scalars import _reduced, monomial_rows, over_common_denominator


class ProjectionMap(NamedTuple):
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
    if int_rank(p._int_x) != p.n:
        raise ValidationError([("lower-dimensional",
                                "normals do not span the ambient space")])
    return ProjectionMap(matrix=tuple(tuple(r) for r in rows))


def _sorted_labels(p: HPolytope, index_set):
    """I as a sorted tuple, provided its labels are distinct, in 1..d."""
    i_sorted = tuple(sorted(index_set))
    if len(set(i_sorted)) != len(i_sorted) or \
            not all(1 <= h <= p.d for h in i_sorted):
        raise ValueError(f"index set {i_sorted} needs distinct labels "
                         f"in 1..{p.d}")
    return i_sorted


def vertex_of(p: HPolytope, index_set):
    """The vertex whose active set contains I, or None.

    None unless I has n labels whose integer rows have rank n; the n
    hyperplanes of such an I meet in one point, so at most one vertex
    has them all active.  Memoized per polytope and sorted I.
    """
    i_sorted = _sorted_labels(p, index_set)

    def build():
        if len(i_sorted) != p.n or \
                int_rank([p._int_x[h - 1] for h in i_sorted]) != p.n:
            return None
        return next((vid for vid, v in enumerate(p.vertices)
                     if set(i_sorted).issubset(v.active)), None)
    return _memoized(p, ("vertex_of", i_sorted), build)


def _admissible_walk(p: HPolytope):
    """Each I in a vertex's active set with {X_h : h in I} a basis, lazily,
    vertex by vertex; each lies in the active set of one vertex only."""
    # nonempty per vertex: every vertex's active rows have rank n
    return (subset for v in p.vertices
            for subset in itertools.combinations(v.active, p.n)
            if int_rank([p._int_x[j - 1] for j in subset]) == p.n)


def admissible_index_sets(p: HPolytope):
    """All admissible I (_admissible_walk), sorted and memoized."""
    return _memoized(p, ("admissible_index_sets",),
                     lambda: tuple(sorted(_admissible_walk(p))))


def _solve_in_basis(i_sorted, rows, rhs):
    """Solve M_I x = rhs, M_I the columns I (1-based) of the n rows."""
    try:
        return mat_solve([[row[h - 1] for h in i_sorted] for row in rows], rhs)
    except SingularMatrixError:
        raise ValueError(f"normals of {i_sorted} are not a basis") from None


def _exchange(tableau, i_sorted):
    """(D', D' A_I) from a tableau (J, D, N = D A_J), one label at a time.

    N is pi's part of [M_J | pi] reduced by Gauss-Jordan (_solve_scaled):
    row h is D on column h and zero on J's other columns.  Bringing k into the
    basis at a row h0 with N[h0][k] != 0 is one more pivot of that
    elimination, _poly_step on every other row against N[h0] with D
    the previous pivot, so the division is exact; N[h0] becomes row k
    and D' = N[h0][k] (Edmonds' 1967 pivoting on integers).
    """
    j_set, d, n_rows = tableau
    rows = dict(zip(j_set, n_rows))
    for k in sorted(set(i_sorted) - set(j_set)):
        # some X_h, h outside I, takes part in X_k, as I is a basis
        h0 = next(h for h in sorted(rows)
                  if h not in i_sorted and rows[h][k - 1])
        top = rows.pop(h0)
        rows = {h: _poly_step(row, top, k - 1, d) for h, row in rows.items()}
        rows[k], d = top, top[k - 1]
    return d, [rows[h] for h in i_sorted]


def change_of_basis(p: HPolytope, index_set):
    """Matrix A_I with X_j = sum_{h in I} a_hj X_h, rows ordered by sorted I.

    Columns restricted to I form the identity by construction.  Results
    are memoized on the polytope.  An admissible I is read off the
    tableau (J, D, D * A_J) its vertex keeps in the memo: the first I
    at a vertex solves [M_I | pi], each row of pi cleared once per
    polytope to polynomials over one denominator (scaling a row of
    M_I A_I = pi keeps A_I), and every later one exchanges labels from
    the last (_exchange).  Any other I is solved afresh.
    """
    i_sorted = _sorted_labels(p, index_set)

    def build():
        if len(i_sorted) != p.n:
            raise ValueError(f"index set {i_sorted} has size "
                             f"{len(i_sorted)}, need n={p.n}")
        vid = vertex_of(p, i_sorted)
        if vid is None:
            rows = [list(row) for row in zip(*p.normals)]
            return tuple(map(tuple, _solve_in_basis(i_sorted, rows, rows)))
        key = ("exchange_tableau", vid)
        if key in p.memo:
            d, dx = _exchange(p.memo[key], i_sorted)
        else:
            rows = _memoized(p, ("poly_rows",), lambda: [
                over_common_denominator(row)[0] for row in zip(*p.normals)])
            d, dx = _solve_scaled(
                [[row[h - 1] for h in i_sorted] for row in rows], rows,
                _poly_step, p.registry._unit)
        p.memo[key] = (i_sorted, d, dx)
        return tuple(tuple(_reduced(p.registry, v, d) for v in row)
                     for row in dx)
    return _memoized(p, ("change_of_basis", i_sorted), build)


class AdaptedBasisData(NamedTuple):
    """A_I together with the kernel basis of pi it induces.

    kernel[i] is supported on kernel_labels[i] (unit entry) and I; the
    first stabilizer_count vectors are supported on the face's index
    set and span the stabilizer algebra.
    """

    vertex_id: int
    vertex_index_set: tuple
    index_set: tuple
    a_matrix: tuple
    kernel: tuple
    kernel_labels: tuple
    stabilizer_count: int = 0


def _flag_labels(p: HPolytope, index_set, face: Face):
    """(sorted I, vertex, I_mu, I cap I_F, kernel labels, stabilizer count)
    for an admissible I at a face through its vertex; the stabilizer
    labels of I_F come first, then those outside I union I_F."""
    i_sorted = tuple(sorted(index_set))
    vid = vertex_of(p, i_sorted)
    if vid is None:
        raise ValueError(f"{i_sorted} is not an admissible index set")
    i_mu = p.vertices[vid].active
    i_f = face.index_set
    if not set(i_f) <= set(i_mu):
        raise ValueError(f"face {i_f} does not contain the vertex of "
                         f"{i_sorted}")
    common = flag_intersection(p, face, i_sorted)
    stab_labels = tuple(k for k in i_f if k not in common)
    rest = tuple(j for j in range(1, p.d + 1)
                 if j not in i_f and j not in i_sorted)
    return i_sorted, vid, i_mu, common, stab_labels + rest, len(stab_labels)


def _kernel_vector(a, i_sorted, j, support, zero, one):
    """e_j - sum_{h in support} a_hj e_h over the d columns of A_I."""
    v = [zero] * len(a[0])
    v[j - 1] = one
    for h in support:
        v[h - 1] = -a[i_sorted.index(h)][j - 1]
    return tuple(v)


def adapted_kernel_basis(p: HPolytope, index_set,
                         face: Face | None = None) -> AdaptedBasisData:
    """A_I and the kernel basis of pi adapted to the flag of a face.

    No face means the whole polytope, whose I_F is empty.  Labels and
    checks are those of _flag_labels.
    """
    i_sorted, vid, i_mu, common, labels, stab = _flag_labels(
        p, index_set, face or p.face_lattice.top)
    a = change_of_basis(p, i_sorted)
    for k in labels[:stab]:
        # X_k lies in the span of {X_h : h in I cap I_F}; the remaining
        # coefficients must vanish identically
        for h in i_sorted:
            if h not in common and not a[i_sorted.index(h)][k - 1].is_zero():
                raise ValueError(
                    f"column {k} of A_I has support outside I cap I_F; "
                    "flag data inconsistent")
    zero, one = p.registry.zero(), p.registry.one()
    return AdaptedBasisData(
        vertex_id=vid, vertex_index_set=i_mu, index_set=i_sorted,
        a_matrix=a, kernel=tuple(
            _kernel_vector(a, i_sorted, j, common if k < stab else i_sorted,
                           zero, one) for k, j in enumerate(labels)),
        kernel_labels=labels, stabilizer_count=stab)


def flag_intersection(p: HPolytope, face: Face, index_set):
    """Sorted I cap I_F, provided it meets the flag condition card = n - p."""
    common = tuple(sorted(set(face.index_set) & set(index_set)))
    if len(common) != p.n - face.dim:
        raise ValueError(
            f"flag condition fails: card(I cap I_F)={len(common)} "
            f"!= n-p={p.n - face.dim}")
    return common


def find_flag_index_set(p: HPolytope, face: Face):
    """(I, v): the first admissible I at the face's first vertex v with
    card(I cap I_F) = n - p.

    As I_F has rank n - p, these I are the bases of M|I_F (+) M/I_F, M
    the matroid of v's active normals; the first is the greedy basis
    (Edmonds 1971), over the labels of I_F and then v's other labels.
    A face whose normals lack that rank fails in flag_intersection.
    """
    vid = face.vertex_ids[0]
    labels = [*face.index_set, *(j for j in p.vertices[vid].active
                                 if j not in face.index_set)]
    picked = _independent_rows([p._int_x[j - 1] for j in labels])
    return tuple(sorted(labels[k] for k in picked)), vid


class ChoiceClassification(NamedTuple):
    rational: bool
    delzant_like: bool

    @property
    def label(self) -> str:
        return "rational" if self.rational else "nonrational"


def _check_dimension(p: HPolytope, q: Quasilattice):
    if q.n != p.n:
        raise ValueError(f"quasilattice generators have length {q.n}, "
                         f"the polytope dimension is {p.n}")


def basis_coordinates(p: HPolytope, q: Quasilattice, index_set):
    """Each quasilattice generator expressed in the basis {X_h : h in I}.

    Memoized on the polytope: through change_of_basis for the normals'
    quasilattice, under the generators and I otherwise.
    """
    _check_dimension(p, q)
    i_sorted = _sorted_labels(p, index_set)
    if q.source_polytope is p:
        a = change_of_basis(p, i_sorted)
        return tuple(tuple(a[h][j] for h in range(p.n)) for j in range(p.d))

    def build():
        cols = _solve_in_basis(i_sorted, zip(*p.normals),
                               [list(c) for c in zip(*q.generators)])
        return tuple(tuple(cols[h][g] for h in range(p.n))
                     for g in range(len(q.generators)))
    return _memoized(p, ("basis_coordinates", q.generators, i_sorted), build)


def classify_choice(p: HPolytope, q: Quasilattice) -> ChoiceClassification:
    """Rationality and Delzant-likeness of the chosen normals and lattice.

    Both are decided on one integer matrix F, whose columns are X_1..X_d
    and Q_1..Q_g flattened per coordinate by monomial_rows over one
    common denominator.  Flattening is Z-linear and injective, so F's
    columns have the Q-linear relations of the vectors.

    The Z-span of the generators is an honest lattice (rational) exactly
    when their Q-span has dimension n: the rank of F_Q, which is at
    least n since the generators span.  Delzant-like means rational with
    every generator's coordinates in every admissible basis
    {X_h : h in I} integers: every X_I a Z-basis of Q, as each X_j lies
    in Q (parse_spec refuses generators that miss one).  An admissible
    X_I is independent over Q(p), so F_I has rank n.  If F has rank n
    (which makes the choice rational), each column of F is a unique
    rational combination of F_I, and restricting to n independent rows
    R keeps it, so R_I^-1 R_Q are exactly those coordinates.  If F has
    rank above n, some X_j lies outside the Q-span of the generators;
    X_j lies in some admissible I, since no constraint is redundant, and
    the generators do not all lie in the Q-span of that X_I, so some
    coordinate is not a constant.  One integer solve per I decides,
    along _admissible_walk up to the first failure.
    """
    _check_dimension(p, q)
    f = [row for c in range(q.n)
         for row in monomial_rows([g[c] for g in p.normals + q.generators])]
    rational = int_rank([row[p.d:] for row in f]) == q.n
    r = [f[i] for i in _independent_rows(f)]
    r_q = [row[p.d:] for row in r]

    def integral(i_set):
        d, dx = _solve_scaled([[row[h - 1] for h in i_set] for row in r],
                              r_q)
        return all(v % d == 0 for x in dx for v in x)
    return ChoiceClassification(rational=rational, delzant_like=len(r) == p.n
                                and all(map(integral, _admissible_walk(p))))
