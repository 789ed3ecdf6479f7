"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own algorithms:
sympy for field operations and ranks, breadth-first closure for finite
subgroups of (Q/Z)^n, Fraction slacks for the polytope predicates, and
a pulling triangulation found on Fraction slacks and sympy
determinants, without the face lattice, for the sampler that the
library draws on integers.
Earlier library algorithms are kept as oracles for the ones that
replaced them: the polytope validation by coordinate extremization,
which solves one LP per coordinate and sign with polystrat.lp (the
exact simplex that no module of the package runs any more), and
Gauss-Jordan reduction for solves, ranks and kernel vectors, which
divides in the field at every step and so runs on Scalars as well as
Fractions, the A_I-based offset identity and Psi constants
that the per-vertex slack table replaced, the validation of a link
polytope, which the check of its lattice against the parent's
interval [F, P] replaced, the fibration split by
a rank over the flag chart's stabilizer rows, which the section's
Y != 0 replaced, and vertex enumeration by solving every n-subset of
constraints, which double description replaced, the float solve
that eliminated [block | rhs] afresh for every right-hand side, which
the per-block LU factors replaced, the pairwise Scalar sum that + ran
before it went through scalars.dot, the symbolic Y and level of a cone
section, which the sums of evaluated b_j replaced, and the greedy choice
of independent rows by one rank per row, which one elimination of the
transpose replaced, and the face and cone samples on Fraction points,
slacks and balls, which integer numerators over one denominator
replaced, the Delzant-likeness scan over the symbolic coordinates
of the generators in every admissible basis, which one integer solve
per I on the flattened monomial rows replaced, and bounding-box
rejection sampling, which the draw from a pulling triangulation
replaced and which stays as a distribution oracle, and the face
lattice closed under meets of the vertex active sets, with one rank
per face for its dimension, which the pass graded up from the vertex
incidences replaced, and the cone section by Gram-Schmidt on Fraction
vectors, which the same steps on the integer constraint rows replaced,
and the flag index set of a face found by scanning the n-subsets of
each of its vertices, which the greedy basis at its first vertex
replaced.
"""

import bisect
import cmath
import itertools
import math
from fractions import Fraction
from math import gcd, lcm

import sympy


def sym_expr(registry, text):
    """Parse an expression with sympy over the registry's parameter names."""
    syms = {nm: sympy.Symbol(nm, positive=True) for nm in registry.names}
    return sympy.sympify(text, locals=syms, rational=True)


def sym_eval(registry, text, values=None):
    """Exact rational value of an expression string via sympy."""
    expr = sym_expr(registry, text)
    subs = {}
    for nm in registry.names:
        v = registry.value(nm) if values is None or nm not in values \
            else Fraction(values[nm])
        subs[sympy.Symbol(nm, positive=True)] = sympy.Rational(
            v.numerator, v.denominator)
    out = sympy.nsimplify(expr.subs(subs))
    out = sympy.Rational(out)
    return Fraction(int(out.p), int(out.q))


def sym_equal(registry, a_text, b_text) -> bool:
    """Structural equality of two expression strings after simplification."""
    diff = sympy.simplify(sym_expr(registry, a_text)
                          - sym_expr(registry, b_text))
    return diff == 0


def sym_field(registry):
    """sympy's QQ(p_1..p_m) over the registry's parameters.

    Its elements are reduced quotients, so equal values compare equal.
    """
    syms = [sympy.Symbol(nm, positive=True) for nm in registry.names]
    return sympy.QQ.frac_field(*syms)


def sym_element(registry, text):
    """An expression string as an element of sym_field(registry)."""
    return sym_field(registry).from_sympy(sym_expr(registry, text))


def sym_solve(registry, a, b):
    """Solution of a @ x = b in sym_field(registry), or None if a is singular.

    a is a square matrix and b a vector of expression strings.
    """
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    field = sym_field(registry)
    n = len(a)
    m = DomainMatrix([[sym_element(registry, t) for t in row] for row in a],
                     (n, n), field)
    rhs = DomainMatrix([[sym_element(registry, t)] for t in b], (n, 1), field)
    try:
        return [row[0] for row in m.lu_solve(rhs).to_list()]
    except DMNonInvertibleMatrixError:
        return None


def sym_gcd(a, b, arity):
    """gcd of two {exponent tuple: Fraction} polynomials via sympy.

    Normalized as the library normalizes it: integer coefficients with
    gcd 1 and a positive coefficient on the leading monomial (highest
    total degree, then highest exponent tuple).  Zero is {}.
    """
    gens = sympy.symbols(f"x0:{arity}")

    def to_sym(poly):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(g**e for g, e in zip(gens, m)))
                    for m, c in poly.items()), sympy.Integer(0))

    g = sympy.gcd(to_sym(a), to_sym(b))
    if g == 0:
        return {}
    poly = sympy.Poly(g, *gens).clear_denoms(convert=True)[1].primitive()[1]
    terms = dict(poly.terms())
    sign = 1 if terms[max(terms, key=lambda m: (sum(m), m))] > 0 else -1
    return {m: Fraction(sign * int(c)) for m, c in terms.items()}


def gj_rref(rows):
    """(reduced row echelon form, pivot columns) by Gauss-Jordan reduction.

    Entries are ints, Fractions or Scalars; every step divides in the
    field, and the pivot is the first nonzero entry of its column.  This
    is the library's reduction before fraction-free elimination
    replaced it.
    """
    m = [[Fraction(x) if isinstance(x, int) else x for x in row]
         for row in rows]
    pivots = []
    cols = len(m[0]) if m else 0
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def gj_rank(rows) -> int:
    """Row rank by Gauss-Jordan reduction over a field (see gj_rref)."""
    return len(gj_rref(rows)[1])


def sym_rank(registry, rows) -> int:
    """Rank of a Scalar matrix over sym_field(registry), by sympy."""
    from sympy.polys.matrices import DomainMatrix

    field = sym_field(registry)
    shape = (len(rows), len(rows[0]))
    return DomainMatrix([[sym_element(registry, str(x)) for x in row]
                         for row in rows], shape, field).rank()


def rref_kernel_vector(rows):
    """The kernel vector of a rank-deficient rational matrix, primitive.

    It is 1 on the first non-pivot column of the reduced row echelon
    form and 0 on the others, scaled to coprime integers with the same
    sign.
    """
    red, pivots = gj_rref(rows)
    free = min(set(range(len(rows[0]))) - set(pivots))
    y = [Fraction(c == free) for c in range(len(rows[0]))]
    for row, c in zip(red, pivots):
        y[c] = -row[free]
    den = lcm(*(x.denominator for x in y))
    ints = [int(x * den) for x in y]
    g = gcd(*ints)
    return [x // g for x in ints]


def gj_solve(a, b):
    """Solve a @ x = b by Gauss-Jordan elimination over a field.

    Entries are ints, Fractions or Scalars; every step divides in the
    field.  b is a vector or a matrix of column right-hand sides and the
    result has its shape.  Raises SingularMatrixError for singular a.
    """
    from polystrat.linalg import SingularMatrixError

    vector = b and not isinstance(b[0], list)
    bm = [[x] for x in b] if vector else b
    n = len(a)
    m = [[Fraction(x) if isinstance(x, int) else x for x in [*a[i], *bm[i]]]
         for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    sol = [row[n:] for row in m]
    return [row[0] for row in sol] if vector else sol


def gesv_solve(rows, rhs, i_sorted):
    """x with rows x = rhs, by elimination with partial pivoting (LAPACK's gesv).

    rows is the float block of the normals on I, or its transpose.  A
    pivot below 1e-12 of the largest entry means those normals are not
    a basis at the evaluation point: a ValueError names I.
    """
    n = len(rhs)
    a = [[*row, b] for row, b in zip(rows, rhs)]
    tiny = 1e-12 * max((abs(x) for row in a for x in row[:n]), default=0.0)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if not abs(a[piv][k]) > tiny:
            raise ValueError(f"normals of I={i_sorted} are not a basis")
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        for row in a[k + 1:]:
            f = row[k] / top[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * top[j]
    x = [row[n] for row in a]
    for k in reversed(range(n)):
        x[k] /= a[k][k]
        for i in range(k):
            x[i] -= a[i][k] * x[k]
    return x


def qz_subgroup(generators, cap=5000):
    """All elements of the subgroup of (Q/Z)^n spanned by the generators.

    Returns None if the closure exceeds cap elements (infinite or just
    too large to enumerate).
    """
    def norm(vec):
        return tuple(Fraction(x) % 1 for x in vec)

    gens = [norm(g) for g in generators]
    if any(any(x.denominator > cap for x in g) for g in gens):
        return None
    n = len(gens[0]) if gens else 0
    seen = {tuple([Fraction(0)] * n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                cand = tuple((a + b) % 1 for a, b in zip(el, g))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return seen


def element_order(vec):
    denoms = [Fraction(x).denominator for x in vec]
    return lcm(*denoms) if denoms else 1


def order_multiset(elements):
    """Sorted element orders; determines a finite abelian group up to iso."""
    return sorted(element_order(el) for el in elements)


def orders_of_abelian_type(torsion):
    """Element-order multiset of Z/t1 x ... x Z/tk from the factors."""
    elements = [()]
    for t in torsion:
        elements = [el + (i,) for el in elements for i in range(t)]
    out = []
    for el in elements:
        o = 1
        for t, x in zip(torsion, el):
            if x:
                o = lcm(o, t // gcd(t, x))
        out.append(o)
    return sorted(out)


def int_det(rows) -> Fraction:
    """Determinant by fraction-exact elimination (small matrices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def greedy_independent_rows(rows):
    """Positions of the rows that raise the rank of the rows kept before
    them, one int_rank per row."""
    from polystrat.linalg import int_rank

    block = []
    for i, row in enumerate(rows):
        if int_rank([rows[k] for k in block] + [row]) > len(block):
            block.append(i)
    return block


# -- the pairwise Scalar sum -------------------------------------------------

def _p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pair_add(x, other):
    """x + other for a Scalar x, over the product of the two primitive
    denominators (one, if they are equal) and normalized once."""
    from polystrat.scalars import _p_mul, _p_scale, _reduced

    o = x._coerce(other)
    if o is None:
        return NotImplemented
    if not o._num:
        return x
    if not x._num:
        return o
    a, b = x._c, o._c
    lcd = lcm(a.denominator, b.denominator)
    ka = a.numerator * (lcd // a.denominator)
    kb = b.numerator * (lcd // b.denominator)
    if x._den == o._den:
        num = _p_add(_p_scale(x._num, ka), _p_scale(o._num, kb))
        den = x._den
    else:
        num = _p_add(_p_scale(_p_mul(x._num, o._den), ka),
                     _p_scale(_p_mul(o._num, x._den), kb))
        den = _p_mul(x._den, o._den)
    return _reduced(x.registry, num, den, Fraction(1, lcd))


# -- polytope predicates and sampling on Fractions ---------------------------

def frac_constraint_value(p, j, point):
    """Slack <point, X_j> - lambda_j from the constraint evaluated as Fractions."""
    row = [x.evaluate() for x in p.normals[j - 1]]
    return (sum((Fraction(c) * a for c, a in zip(point, row)), Fraction(0))
            - p.offsets[j - 1].evaluate())


def frac_contains(p, point, strict=False):
    for j in range(1, p.d + 1):
        v = frac_constraint_value(p, j, point)
        if v < 0 or (strict and v == 0):
            return False
    return True


def frac_active_set(p, point):
    return tuple(j for j in range(1, p.d + 1)
                 if frac_constraint_value(p, j, point) == 0)


def box_sample_polytope_points(p, count, rng, strict=True, grid=4096):
    """Bounding-box rejection sampling with a Fraction point per candidate.

    The sampler the library ran before the pulling triangulation, kept
    as a distribution oracle: grid points of the vertex bounding box,
    rejected on Fraction slacks tried in label order.
    """
    rows = [([x.evaluate() for x in row], l.evaluate())
            for row, l in zip(p.normals, p.offsets)]
    verts = [v.coords for v in p.vertices]
    lo = [min(v[i] for v in verts) for i in range(p.n)]
    hi = [max(v[i] for v in verts) for i in range(p.n)]
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000 * count:
            raise RuntimeError("rejection sampling stalled")
        pt = tuple(l + (h - l) * Fraction(rng.randrange(grid + 1), grid)
                   for l, h in zip(lo, hi))
        slacks = (sum(c * a for c, a in zip(pt, row)) - b for row, b in rows)
        if all(v > 0 if strict else v >= 0 for v in slacks):
            out.append(pt)
    return out


def _affine_rank(points):
    return sympy.Matrix([[x - y for x, y in zip(q, points[0])]
                         for q in points[1:]] or [[0]]).rank()


def _affine_det(points):
    return sympy.Matrix([[x - y for x, y in zip(q, points[0])]
                         for q in points[1:]]).det()


def pulling_triangulation(p):
    """(simplices, volumes): the pulling triangulation found on Fraction
    slacks, without the face lattice.

    The facets of a k-face are its vertex sets on one constraint's
    hyperplane whose affine hull has dimension k - 1; the face is the
    cone from its smallest vertex id over the facets that miss it.  The
    simplices are sorted tuples of vertex ids, sorted, and each volume is
    sympy's |det| of the edges from the first vertex, with the vertices
    scaled by the lcm D of their denominators: n! D^n times the volume.
    """
    verts = [v.coords for v in p.vertices]
    on = [[i for i, v in enumerate(verts)
           if frac_constraint_value(p, j, v) == 0]
          for j in range(1, p.d + 1)]

    def pull(ids, k):
        if k == 0:
            return [ids]
        facets = {tuple(i for i in ids if i in plane) for plane in on}
        return [(ids[0], *s) for g in facets
                if g and ids[0] not in g
                and _affine_rank([verts[i] for i in g]) == k - 1
                for s in pull(g, k - 1)]

    simplices = sorted(pull(tuple(range(len(verts))), p.n))
    den = lcm(*(x.denominator for v in verts for x in v))
    volumes = [abs(int(_affine_det([[x * den for x in verts[i]]
                                    for i in ids])))
               for ids in simplices]
    return simplices, volumes


def frac_sample_polytope_points(p, count, rng, strict=True, grid=4096):
    """The triangulation draw on Fractions, by rng.randrange.

    A simplex is picked by randrange(total volume) against the
    cumulative volumes when there are several; its barycentric weights
    are the gaps of n sorted randrange(grid + 1) draws over grid, all
    drawn again while a strict sample has a zero weight.
    """
    simplices, volumes = pulling_triangulation(p)
    cumulative = list(itertools.accumulate(volumes))
    verts = [v.coords for v in p.vertices]
    out = []
    for _ in range(count):
        ids = simplices[0]
        if len(simplices) > 1:
            ids = simplices[bisect.bisect_right(
                cumulative, rng.randrange(cumulative[-1]))]
        while True:
            k = sorted(rng.randrange(grid + 1) for _ in range(p.n))
            w = [Fraction(b - a, grid) for a, b in zip([0] + k, k + [grid])]
            if not strict or all(w):
                break
        out.append(tuple(sum(wi * verts[i][c] for wi, i in zip(w, ids))
                         for c in range(p.n)))
    return out


# -- face and cone samples on Fractions --------------------------------------

def face_interior_point(p, face, rng, den=1024):
    """The weighted vertex average with weights k / den, 0 < k < den."""
    vs = [p.vertices[i].coords for i in face.vertex_ids]
    weights = [Fraction(rng.randrange(1, den), den) for _ in vs]
    total = sum(weights)
    return tuple(sum(w * v[i] for w, v in zip(weights, vs)) / total
                 for i in range(p.n))


def _phased_roots(slacks, labels, rng):
    return [math.sqrt(slacks[h - 1]) * cmath.exp(2j * math.pi * rng.random())
            for h in labels]


def frac_sample_singular_domain(p, chart, count, rng):
    """(mu, w) pairs as sample_singular_domain drew them from a Fraction
    face point and float() of its exact slacks."""
    face = p.face_lattice.face(chart.face_index_set)
    out = []
    for _ in range(count):
        mu = face_interior_point(p, face, rng)
        out.append((mu, _phased_roots([float(v) for v in p.slacks(mu)],
                                      chart.w_labels, rng)))
    return out


def frac_sample_cone_points(p, chart, nb, count, rng):
    """sample_cone_points on Fraction points, slacks and ball."""
    i_f = chart.face_index_set
    pts = frac_sample_polytope_points(p, count, rng, strict=True)
    out = []
    for mu in pts:
        slacks = p.slacks(mu)
        t = [slacks[j - 1] for j in i_f]
        ball = sum(bj * tj for bj, tj in zip(nb.b, t))
        scale = Fraction(1)
        if ball >= nb.epsilon:
            scale = nb.epsilon / (2 * ball)
        zf = [math.sqrt(float(tj * scale))
              * cmath.exp(2j * math.pi * rng.random()) for tj in t]
        out.append(zf)
    return out


# -- polytope validation by coordinate extremization -------------------------

def bound_loop_first_code(normals, offsets):
    """First issue code of {x : normals @ x >= offsets}, or None.

    The validation HPolytope ran before it read the rays of its double
    description (and before the two-LP certificate in between): the
    shape checks, then 2n LPs extremizing every coordinate (infeasible
    means empty, unbounded means unbounded), then a strictly feasible
    point (none means lower-dimensional), then a facet for every
    constraint in the face lattice.
    """
    from polystrat.lp import lp_maximize, open_feasible_point
    from polystrat.polytope import HPolytope
    from polystrat.scalars import ParamRegistry

    normals = [[Fraction(x) for x in row] for row in normals]
    offsets = [Fraction(x) for x in offsets]
    n = len(normals[0])
    if len(normals) < n + 1:
        return "too-few-constraints"
    if any(all(x == 0 for x in row) for row in normals):
        return "zero-normal"
    a_ub = [[-x for x in row] for row in normals]
    b_ub = [-x for x in offsets]
    for k in range(n):
        for sgn in (1, -1):
            c = [0] * n
            c[k] = sgn
            res = lp_maximize(c, a_ub=a_ub, b_ub=b_ub)
            if res.status == "infeasible":
                return "empty"
            if res.status == "unbounded":
                return "unbounded"
    if open_feasible_point(normals, offsets) is None:
        return "lower-dimensional"
    p = HPolytope(ParamRegistry([]), normals, offsets, validate=False)
    facets = p.face_lattice.by_index_set
    if any(facets.get((j,)) is None or facets[(j,)].dim != n - 1
           for j in range(1, p.d + 1)):
        return "redundant-constraint"
    return None


# -- the flag index set by scanning n-subsets ------------------------------

def scan_flag_index_set(p, face):
    """(I, vertex): the first n-subset I of an active set, over the
    face's vertices in order and each active set's subsets in
    combinations order, with card(I cap I_F) = n - p and normals of
    rank n at the evaluation point (Fraction ranks)."""
    xs = [[x.evaluate() for x in row] for row in p.normals]
    want = p.n - face.dim
    for vid in face.vertex_ids:
        for i_set in itertools.combinations(p.vertices[vid].active, p.n):
            if len(set(i_set) & set(face.index_set)) == want and \
                    gj_rank([xs[j - 1] for j in i_set]) == p.n:
                return i_set, vid
    raise ValueError(f"no index set meets the flag condition at "
                     f"{face.index_set}")


# -- offset identity and Psi constants through A_I ----------------------------

def check_vertex_lambda_identity(p, vertex_id, index_set):
    """Verify lambda_k = sum_h a_hk lambda_h for the active constraints.

    Returns (ok, slacks) where slacks maps each inactive label r to the
    Scalar sum_h a_hr lambda_h - lambda_r, built term by term from A_I.
    """
    from polystrat.ambient import change_of_basis

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
        # the integer view found r inactive at the vertex, and the slack
        # evaluates to that vertex's slack there
        assert slack.sign() > 0, \
            f"slack of constraint {r} at vertex {vertex_id} is not positive"
        slacks[r] = slack
    return ok, slacks


def psi_constant_sum(p, vec):
    """The constant sum_j vec_j lambda_j of a Psi component, term by term."""
    return sum((vec[j] * p.offsets[j] for j in range(p.d)), p.registry.zero())


def evaluated_chart(p, face, index_set):
    """A chart's numbers from the symbolic flag-adapted basis, evaluated.

    A_I and the kernel vectors of adapted_kernel_basis, and the vertex's
    symbolic slacks off I_mu, evaluated Scalar by Scalar at the
    evaluation point; keyed by the Chart fields they must equal.
    Building the basis runs its symbolic check that each stabilizer
    column of A_I is supported on I cap I_F.
    """
    from polystrat.ambient import adapted_kernel_basis

    basis = adapted_kernel_basis(p, index_set, face)
    slacks = p.vertex_slacks(basis.vertex_id)
    return {
        "vertex_id": basis.vertex_id,
        "a_num": tuple(tuple(x.evaluate() for x in row)
                       for row in basis.a_matrix),
        "slacks": {r: slacks[r - 1].evaluate() for r in range(1, p.d + 1)
                   if r not in basis.vertex_index_set},
        "float_kernel": tuple(tuple((pos, float(v)) for pos, v in enumerate(
            x.evaluate() for x in vec) if v) for vec in basis.kernel),
        "kernel_labels": basis.kernel_labels,
        "stabilizer_count": basis.stabilizer_count,
    }


# -- link polytopes by the intrinsic route -----------------------------------

def intrinsic_polytope(poly):
    """poly rebuilt with validation, which builds its own lattice."""
    from polystrat.polytope import HPolytope

    return HPolytope(poly.registry, poly.normals, poly.offsets)


def flag_chart_fibration(p, face, b):
    """(split, rank) of the fibration at a singular face from its flag chart.

    The stabilizer kernel rows of the flag-adapted basis, restricted to
    I_F, with the row b below them; the split holds when b raises the
    rank.  Building the basis runs its consistency checks: a flag I
    exists and each stabilizer column of A_I is supported on I cap I_F.
    """
    from polystrat.ambient import adapted_kernel_basis, find_flag_index_set
    from polystrat.linalg import mat_rank

    i_set, _vid = find_flag_index_set(p, face)
    basis = adapted_kernel_basis(p, i_set, face)
    stab = basis.kernel[:basis.stabilizer_count]
    rows = [[vec[j - 1] for j in face.index_set] for vec in stab]
    rank = mat_rank(rows + [list(b)])
    return rank == len(stab) + 1, rank


def symbolic_section(p, face, b, epsilon):
    """(Y, level) of the cone section at face as Scalars: Y = sum b_j X_j
    and sum b_j lambda_j + epsilon over I_F, for Scalars b on I_F."""
    from polystrat.scalars import dot

    labels = face.index_set
    y = [dot(b, [p.normals[j - 1][i] for j in labels]) for i in range(p.n)]
    level = dot((*b, p.registry.scalar(epsilon)),
                [*(p.offsets[j - 1] for j in labels), 1])
    return y, level


# -- vertices by solving every n-subset of constraints -----------------------

def brute_force_vertices(p):
    """The vertices from all C(d, n) subset solves, sorted by coords."""
    from polystrat.linalg import SingularMatrixError, int_solve
    from polystrat.polytope import Vertex

    seen = {}
    for subset in itertools.combinations(range(p.d), p.n):
        a = [p._int_x[i] for i in subset]
        b = [p._int_l[i] for i in subset]
        try:
            pt = tuple(int_solve(a, b))
        except SingularMatrixError:
            continue
        if pt in seen:
            continue
        if p.contains(pt):
            seen[pt] = p.active_set(pt)
    verts = [Vertex(coords=c, active=a) for c, a in seen.items()]
    verts.sort(key=lambda v: v.coords)
    return tuple(verts)


# -- Delzant-likeness by symbolic coordinates ---------------------------------

def symbolic_delzant_like(p, q) -> bool:
    """Rational, and every generator's coordinates in every admissible
    basis {X_h : h in I} are integers, read off basis_coordinates."""
    from polystrat.ambient import admissible_index_sets, basis_coordinates
    from polystrat.linalg import int_rank
    from polystrat.scalars import monomial_rows

    rows = [row for c in range(q.n)
            for row in monomial_rows([g[c] for g in q.generators])]
    rational = int_rank(rows) == q.n
    return rational and all(
        c.is_integer() for i_set in admissible_index_sets(p)
        for coords in basis_coordinates(p, q, i_set) for c in coords)


# -- the face lattice by meet closure ----------------------------------------

def closure_face_lattice(p):
    """The meets of the vertex active sets, closed, with one int_rank
    per face for its dimension and one scan of the vertices for its
    vertex_ids."""
    from polystrat.linalg import int_rank
    from polystrat.polytope import Face, FaceLattice

    verts = p.vertices
    sets = {frozenset(v.active) for v in verts}
    work = list(sets)
    while work:
        cur = work.pop()
        for other in list(sets):
            meet = cur & other
            if meet not in sets:
                sets.add(meet)
                work.append(meet)
    faces = []
    for js in sets:
        index_set = tuple(sorted(js))
        dim = p.n - int_rank([p._int_x[j - 1] for j in index_set])
        r = len(index_set)
        vids = tuple(i for i, v in enumerate(verts)
                     if js <= set(v.active))
        faces.append(Face(index_set=index_set, dim=dim, r=r,
                          singular=r > p.n - dim, vertex_ids=vids))
    return FaceLattice(p.n, faces)


# -- the cone section by Fraction Gram-Schmidt -------------------------------

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def fraction_cone_section(p, face, b=None, epsilon=Fraction(1)):
    """links.cone_section with Y, the level, the annihilator basis and the
    link rows computed on the evaluated Fraction normals and offsets."""
    from polystrat.charts import _coerce_b
    from polystrat.links import ConeSection
    from polystrat.polytope import HPolytope
    from polystrat.scalars import ParamRegistry

    if not face.singular:
        raise ValueError(f"face {face.index_set} is not singular")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    labels = face.index_set
    b = _coerce_b(p, labels, b)
    b_num = [s.evaluate() for s in b]
    y_num = tuple(_dot(b_num, [p._num_x[j - 1][i] for j in labels])
                  for i in range(p.n))
    yy = _dot(y_num, y_num)
    if yy == 0:
        raise ValueError("Y vanishes at the evaluation point")
    lvl = _dot(b_num, [p._num_l[j - 1] for j in labels]) + epsilon
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
    # valid since p is, b > 0 and epsilon > 0; link_polytope checks it
    poly = HPolytope(ParamRegistry([]), normals, offsets, validate=False)
    return ConeSection(face_index_set=labels, b=b, epsilon=epsilon,
                       y_num=y_num, xi0=xi0,
                       ann_basis=tuple(tuple(u) for u in basis),
                       polytope=poly)
