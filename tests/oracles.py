"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own algorithms:
sympy for field operations and ranks, breadth-first closure for finite
subgroups of (Q/Z)^n, and Fraction slacks for the polytope predicates
and the rejection sampler that the library decides on integer rows.
Earlier library algorithms are kept as oracles for the ones that
replaced them: the polytope validation by coordinate extremization,
which solves one LP per coordinate and sign with polystrat.lp (the
exact simplex that no module of the package runs any more), and
Gauss-Jordan reduction for solves, ranks and kernel vectors, which
divides in the field at every step and so runs on Scalars as well as
Fractions, the A_I-based offset identity and Psi constants
that the per-vertex slack table replaced, the intrinsic route to a
link polytope (validation and a lattice closed from its own vertices)
that the parent's interval [F, P] replaced, and vertex enumeration by
solving every n-subset of constraints, which double description
replaced.
"""

import itertools
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


def frac_sample_polytope_points(p, count, rng, strict=True, grid=4096):
    """Bounding-box rejection sampling with a Fraction point per candidate."""
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
        if frac_contains(p, pt, strict=strict):
            out.append(pt)
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


# -- link polytopes by the intrinsic route -----------------------------------

def intrinsic_polytope(poly):
    """poly rebuilt with validation, its lattice closed from its vertices."""
    from polystrat.polytope import HPolytope

    return HPolytope(poly.registry, poly.normals, poly.offsets)


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
