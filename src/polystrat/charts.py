"""Moment maps, chart domains, slices, and local cone embeddings.

Coefficients (change-of-basis entries, slacks) are exact Fractions at
the evaluation point; points are lists of d Python complex numbers.  A
point z determines Upsilon_j = |z_j|^2 + lambda_j; the reduced moment
map Psi pairs Upsilon with the kernel basis of pi, and Phi solves
<Phi, X_h> = Upsilon_h over an admissible index block.

Domain checks mirror the defining inequalities of the chart sets: the
regular slice needs sum_h a_hk |u_h|^2 > 0 for the extra active
constraints and > -slack_r for the inactive ones; the singular slice
is the same with the face block frozen to zero.  A chart is taken at a
face; the regular chart is the chart at the whole polytope.  Charts
read A_I and the slacks from the integer rows and exact vertices; the
symbolic Psi table (psi_equations) serves the report's charts section.
A chart's floats (kernel basis, domain rows, LU factors of the block
of I) are built once; a sample's floats are integer numerators over
their denominators, which true division rounds as float(Fraction) does.
Interior samples come from a pulling triangulation of the polytope, so
no draw is rejected.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from fractions import Fraction
from operator import mul, sub
from typing import NamedTuple

from .ambient import AdaptedBasisData, _flag_labels, _kernel_vector, \
    _sorted_labels, find_flag_index_set
from .linalg import _bareiss, _int_solve_scaled, _int_step
from .polytope import Face, HPolytope, _clear_denominators, _memoized


class DomainError(Exception):
    """A point violating a chart domain inequality; label names it."""

    def __init__(self, label, message):
        self.label = label
        super().__init__(message)


def psi_equations(p: HPolytope, basis: AdaptedBasisData):
    """Symbolic table of Psi's components: (coefficients, constant) pairs.

    Component i of Psi at z is sum_j coeff_j |z_j|^2 + constant, with
    coefficients the kernel basis vector and constant its pairing with
    the offsets.  The vector of label j is e_j - sum_h a_hj e_h, so the
    pairing is minus the vertex slack of j: zero on the active set,
    which holds every stabilizer label.
    """
    slacks = p.vertex_slacks(basis.vertex_id)
    return tuple((vec, -slacks[j - 1])
                 for vec, j in zip(basis.kernel, basis.kernel_labels))


# -- charts --------------------------------------------------------------

class Chart(NamedTuple):
    """The flag-adapted chart at a face F over an admissible I.

    At the whole polytope I_F is empty, so common is empty, w_labels is
    all of I and the chart is the regular chart.  Its numbers are
    adapted_kernel_basis's at the evaluation point, from the integer rows.
    """

    face_index_set: tuple  # () for the regular chart
    index_set: tuple
    vertex_id: int
    common: tuple  # I cap I_F
    w_labels: tuple  # I minus common; the (C*)^p coordinates
    mid_labels: tuple  # I_mu minus (I union I_F)
    out_labels: tuple  # labels not in I_mu
    kernel_labels: tuple  # stabilizer labels first; see _flag_labels
    stabilizer_count: int
    a_num: tuple  # A_I at the evaluation point, rows ordered by sorted I
    slacks: dict  # r -> Fraction, positive, for r in out_labels
    float_kernel: tuple  # the kernel basis of pi: (position, float) pairs
    # of each vector's nonzero entries, in label order
    float_domain: tuple  # _domain's rows as (label, float, float column)

    @property
    def dim(self) -> int:
        return len(self.w_labels)


def _chart(p: HPolytope, face: Face, index_set) -> Chart:
    def build():
        i_sorted, vid, i_mu, common, labels, stab = _flag_labels(
            p, index_set, face)
        # primitive row j is m_j X_j: a_hj = b_hj m_h / m_j, b = e_b / e
        m = p._int_scale
        e, e_b = _int_solve_scaled(
            [*zip(*(p._int_x[h - 1] for h in i_sorted))], [*zip(*p._int_x)])
        a_num = tuple(tuple(Fraction(v * m[h - 1].numerator * mj.denominator,
                                     e * m[h - 1].denominator * mj.numerator)
                            for v, mj in zip(e_b[pos], m))
                      for pos, h in enumerate(i_sorted))
        mid = tuple(k for k in labels[stab:] if k in i_mu)
        out = tuple(r for r in labels[stab:] if r not in i_mu)
        slacks = p.slacks(p.vertices[vid].coords)
        slacks = {r: slacks[r - 1] for r in out}
        return Chart(
            face_index_set=face.index_set, index_set=i_sorted, common=common,
            w_labels=tuple(h for h in i_sorted if h not in common),
            mid_labels=mid, out_labels=out, vertex_id=vid,
            kernel_labels=labels, stabilizer_count=stab, a_num=a_num,
            slacks=slacks,
            float_kernel=tuple(tuple((pos, float(x)) for pos, x in enumerate(
                _kernel_vector(a_num, i_sorted, j,
                               common if k < stab else i_sorted, 0, 1)) if x)
                for k, j in enumerate(labels)),
            float_domain=tuple((label, float(const), tuple(map(float, col)))
                               for label, const, col in
                               _domain(a_num, mid + out, slacks)))
    return _memoized(p, ("chart", face.index_set, tuple(sorted(index_set))),
                     build)


def regular_chart(p: HPolytope, index_set) -> Chart:
    """The chart over an admissible I at the whole polytope, memoized.

    Its domain C_I meets every slice rho_h = 0, h in I, so I* is empty
    and pi_1 of the domain has rank 0: on a validated polytope {h} is a
    facet, and at its vertex average every other constraint is
    strictly positive, which is a point of C_I with rho_h = 0.
    """
    return _chart(p, p.face_lattice.top, index_set)


def singular_chart(p: HPolytope, face: Face, index_set=None) -> Chart:
    """The flag-adapted chart at a face, memoized on the polytope.

    Without index_set the first I meeting the flag condition is used.
    """
    if index_set is None:
        index_set, _vid = find_flag_index_set(p, face)
    return _chart(p, face, index_set)


def _domain(a_num, labels, slacks):
    """(label, const, A_I column) for each chart domain inequality.

    The radicand of label l is sum_h a_hl rho_h + const, with const the
    slack for labels off the vertex and 0 on I_mu minus I.
    """
    return [(l, slacks.get(l, Fraction(0)), [row[l - 1] for row in a_num])
            for l in labels]


def _fill_radicals(chart, z, rho):
    """Write the square root of every domain radicand of the chart into z.

    rho lists the squared moduli on the positions of chart.index_set.
    """
    for label, const, col in chart.float_domain:
        rad = sum(a * r for a, r in zip(col, rho)) + const
        if rad <= 0:
            raise DomainError(label, f"domain inequality for constraint "
                                     f"{label} fails: {rad} <= 0")
        z[label - 1] = complex(math.sqrt(rad))
    return z


# -- moment maps and slices ----------------------------------------------

def _lu_factor(rows, i_sorted):
    """(steps, U) of the float normals on I, or their transpose, by partial
    pivoting (LAPACK's gesv); step k is (pivot row, multipliers).  A pivot
    below 1e-12 of the largest entry is a ValueError naming I."""
    a = [list(row) for row in rows]
    n = len(a)
    tiny = 1e-12 * max((abs(x) for row in a for x in row), default=0.0)
    steps = []
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if not abs(a[piv][k]) > tiny:
            raise ValueError(f"normals of I={i_sorted} are not a basis")
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        fs = [row[k] / top[k] for row in a[k + 1:]]
        for row, f in zip(a[k + 1:], fs):
            for j in range(k + 1, n):
                row[j] -= f * top[j]
        steps.append((piv, fs))
    return steps, a


def _float_block(p: HPolytope, i_sorted, transpose=False):
    """_lu_factor of the float normals on I, or of their transpose, once."""
    def build():
        rows = [[float(x) for x in p._num_x[h - 1]] for h in i_sorted]
        return _lu_factor(zip(*rows) if transpose else rows, i_sorted)
    return _memoized(p, ("float_block", i_sorted, transpose), build)


def _lu_solve(steps, u, rhs):
    """x with block x = rhs: the elimination of [block | rhs], replayed."""
    x = list(rhs)
    for k, (piv, fs) in enumerate(steps):
        x[k], x[piv] = x[piv], x[k]
        for i, f in enumerate(fs, start=k + 1):
            x[i] -= f * x[k]
    for k in reversed(range(len(x))):
        x[k] /= u[k][k]
        for i in range(k):
            x[i] -= u[i][k] * x[k]
    return x


def moment_values(p: HPolytope, z, chart: Chart):
    """(Upsilon, Psi, Phi) of an ambient point as lists of floats."""
    i_sorted = chart.index_set
    if len(z) != p.d:
        raise ValueError(f"z must have {p.d} coordinates")
    ups = [abs(v) ** 2 + l for v, l in zip(z, p._float_l)]
    psi = [sum(x * ups[pos] for pos, x in vec) for vec in chart.float_kernel]
    phi = _lu_solve(*_float_block(p, i_sorted), [ups[h - 1] for h in i_sorted])
    return ups, psi, phi


def lift_point(p: HPolytope, mu):
    """Nonnegative real lift with |z_j|^2 = <mu, X_j> - lambda_j."""
    den, nums = p._scaled_slacks(mu)
    for j, v in enumerate(nums, start=1):
        if v < 0:
            raise DomainError(j, f"constraint {j} is violated: "
                                 f"radicand {p.slacks(mu)[j - 1]} < 0")
    return [complex(math.sqrt(r)) for r in _slack_floats(p, den, nums)]


def regular_slice(p: HPolytope, chart: Chart, u):
    """Assemble u + F_I(u); coordinates on I copy u, the rest are radicals."""
    i_sorted = chart.index_set
    if len(u) != p.n:
        raise ValueError(f"u must have {p.n} coordinates on I={i_sorted}")
    z = [0j] * p.d
    for pos, h in enumerate(i_sorted):
        z[h - 1] = complex(u[pos])
    return _fill_radicals(chart, z, [abs(complex(x)) ** 2 for x in u])


def singular_slice(p: HPolytope, chart: Chart, w):
    """Assemble w + the singular slice radicals; face coordinates are 0."""
    i_sorted = chart.index_set
    if len(w) != len(chart.w_labels):
        raise ValueError(f"w must have {len(chart.w_labels)} coordinates "
                         f"on {chart.w_labels}")
    z = [0j] * p.d
    sq = {}
    for h, val in zip(chart.w_labels, w):
        val = complex(val)
        if val == 0:
            raise DomainError(h, f"coordinate {h} must be nonzero")
        z[h - 1] = val
        sq[h] = abs(val) ** 2
    return _fill_radicals(chart, z, [sq.get(h, 0.0) for h in i_sorted])


def torus_action(p: HPolytope, index_set, x_vec, z):
    """Rotate z by the phases of exp applied to the I-block preimage of x."""
    i_sorted = _sorted_labels(p, index_set)
    if len(i_sorted) != p.n:
        raise ValueError(f"I={i_sorted} must have {p.n} labels")
    if len(x_vec) != p.n or len(z) != p.d:
        raise ValueError(f"x must have {p.n} coordinates and z {p.d}")
    theta = _lu_solve(*_float_block(p, i_sorted, transpose=True),
                      [float(v) for v in x_vec])
    z = [complex(v) for v in z]
    for pos, h in enumerate(i_sorted):
        z[h - 1] *= cmath.exp(2j * math.pi * theta[pos])
    return z


# -- cones and the local embedding ---------------------------------------

def moment_map_cone(p: HPolytope, chart: Chart, z_f):
    """(Psi_F components, Phi_F coordinates) for a point of the face cone.

    z_f lists the coordinates on sorted(I_F).  Psi_F pairs the squared
    moduli with the stabilizer block of the kernel basis; Phi_F is
    expressed in the basis of the face span dual to {X_h : h in common},
    so its coordinates are Upsilon_h there.
    """
    i_f = chart.face_index_set
    if len(z_f) != len(i_f):
        raise ValueError(f"z_f must have {len(i_f)} coordinates on {i_f}")
    sq = {j: abs(complex(v)) ** 2 for j, v in zip(i_f, z_f)}
    # a stabilizer vector is e_j - sum_{h in common} a_hj e_h: its nonzero
    # entries all lie on I_F
    stab = chart.float_kernel[:chart.stabilizer_count]
    psi = [sum(x * sq[pos + 1] for pos, x in vec) for vec in stab]
    phi = tuple(sq[h] + p._float_l[h - 1] for h in chart.common)
    return psi, phi


def _coerce_b(p: HPolytope, labels, b):
    """The Scalars b_j > 0 over a face's labels, from a list or a dict
    (missing labels, or all when b is None, default to 1)."""
    if b is None:
        b = {}
    if isinstance(b, dict):
        stray = [j for j in b if j not in labels]
        if stray:
            raise ValueError(f"b names constraints {stray} outside the "
                             f"face {labels}")
        b = [b.get(j, 1) for j in labels]
    b = tuple(p.registry.scalar(v) for v in b)
    if len(b) != len(labels):
        raise ValueError(f"b must list {len(labels)} coefficients "
                         f"for constraints {labels}")
    for j, s in zip(labels, b):
        if s.sign() <= 0:
            raise ValueError(f"b_{j} must be positive at the "
                             "evaluation point")
    return b


class ConeNeighborhood(NamedTuple):
    """Constants making the local cone embedding well defined.

    box_lo/box_hi bound the squared moduli of the w block; every slice
    radicand stays above 2c on the closed box, and any cone point with
    sum b_j |z_j|^2 < epsilon perturbs a radicand by more than -c.
    """

    face_index_set: tuple
    index_set: tuple
    b: tuple  # Fractions over sorted(I_F)
    box_lo: tuple
    box_hi: tuple
    c: Fraction | None
    epsilon: Fraction


def cone_neighborhood(p: HPolytope, chart: Chart, b=None) -> ConeNeighborhood:
    """Choose the box, c and epsilon for the embedding around the face.

    The box is centered at the w-image of the face's vertex average, a
    relative interior point of the face; its half-width is set so
    every domain inequality keeps at least half its center value, hence
    c = half the exact minimum of the radicands over the box corners.
    epsilon then has the closed form c (or the slack) divided by twice
    the worst negative-coefficient-to-b ratio.
    """
    i_f = chart.face_index_set
    b = {j: s.evaluate() for j, s in zip(i_f, _coerce_b(p, i_f, b))}

    pos = {h: k for k, h in enumerate(chart.index_set)}
    ineqs = _domain(chart.a_num, chart.mid_labels + chart.out_labels,
                    chart.slacks)

    if chart.w_labels:
        pts = [p.vertices[v].coords
               for v in p.face_lattice.face(i_f).vertex_ids]
        mu0 = tuple(sum(col, Fraction(0)) / len(pts) for col in zip(*pts))
        slacks = p.slacks(mu0)
        rho0 = {h: slacks[h - 1] for h in chart.w_labels}
        # shrink the relative box radius until every inequality keeps
        # half its center value on the closed box
        t = Fraction(1, 2)
        for _label, const, col in ineqs:
            g0 = const + sum(col[pos[h]] * rho0[h] for h in chart.w_labels)
            spread = sum(abs(col[pos[h]]) * rho0[h] for h in chart.w_labels)
            if spread > 0:
                t = min(t, g0 / (2 * spread))
        box_lo = tuple(rho0[h] * (1 - t) for h in chart.w_labels)
        box_hi = tuple(rho0[h] * (1 + t) for h in chart.w_labels)
        # exact minimum over box corners of each radicand
        worst = None
        for label, const, col in ineqs:
            val = const
            for h, lo, hi in zip(chart.w_labels, box_lo, box_hi):
                val += col[pos[h]] * (lo if col[pos[h]] >= 0 else hi)
            worst = val if worst is None else min(worst, val)
        c = worst / 2 if worst is not None else None
        margin = {label: c for label, _c, _col in ineqs}
    else:
        box_lo = box_hi = ()
        c = None
        margin = {label: const for label, const, _col in ineqs}

    # epsilon: the face-block contribution to radicand `label` is at
    # least -epsilon * max_h max(0, -a_h,label) / b_h
    eps = None
    for label, _const, col in ineqs:
        m = max([Fraction(0)] + [-col[pos[h]] / b[h] for h in chart.common])
        if m > 0:
            cand = margin[label] / (2 * m)
            eps = cand if eps is None else min(eps, cand)
    if eps is None:
        eps = Fraction(1)
    return ConeNeighborhood(face_index_set=i_f, index_set=chart.index_set,
                            b=tuple(b[j] for j in i_f),
                            box_lo=box_lo, box_hi=box_hi, c=c, epsilon=eps)


def cone_embedding(p: HPolytope, chart: Chart, nb: ConeNeighborhood, w, z_f):
    """Assemble the local model point w + z_F + radicals off I union I_F."""
    i_f = chart.face_index_set
    if len(z_f) != len(i_f):
        raise ValueError(f"z_f must have {len(i_f)} coordinates on {i_f}")
    if len(w) != len(chart.w_labels):
        raise ValueError(f"w must have {len(chart.w_labels)} coordinates")
    for h, val, lo, hi in zip(chart.w_labels, w, nb.box_lo, nb.box_hi):
        sq = abs(complex(val)) ** 2
        if not (float(lo) < sq < float(hi)):
            raise DomainError(h, f"|w_{h}|^2 = {sq} outside the box "
                                 f"({float(lo)}, {float(hi)})")
    psi_f, _phi_f = moment_map_cone(p, chart, z_f)
    if any(abs(v) > 1e-9 for v in psi_f):
        raise DomainError(0, "z_F is not on the face cone: "
                             f"|Psi_F| = {max(map(abs, psi_f))}")
    ball = sum(float(bj) * abs(complex(v)) ** 2
               for bj, v in zip(nb.b, z_f))
    if ball >= float(nb.epsilon):
        raise DomainError(0, f"sum b_j |z_j|^2 = {ball} is not below "
                             f"epsilon = {float(nb.epsilon)}")

    z = [0j] * p.d
    for h, val in zip(chart.w_labels, w):
        z[h - 1] = complex(val)
    for j, val in zip(i_f, z_f):
        z[j - 1] = complex(val)
    return _fill_radicals(chart, z, [abs(z[h - 1]) ** 2
                                     for h in chart.index_set])


# -- sampling helpers (a pulling triangulation on integers) ---------------

_GRID = 4096  # barycentric weights of a sample step by 1/_GRID
_WEIGHTS = 1024  # face point weights: k/1024 with 0 < k < 1024


def _pulling_simplices(p: HPolytope):
    """The simplices of the pulling triangulation: tuples of increasing
    vertex ids, in lexicographic order.

    A face of dimension k > 0 is the cone from its first vertex v over
    the triangulations of its facets that miss v (De Loera, Rambau and
    Santos, Triangulations, 2010, 4.3); a vertex is its own simplex.  v
    is the face's smallest vertex id, so each cone keeps the ids sorted.
    """
    by_dim = {}
    for f in p.face_lattice.faces:
        by_dim.setdefault(f.dim, []).append(f)
    done = {}

    def pull(face):
        if face.index_set not in done:
            v = face.vertex_ids[0]
            labels = set(face.index_set)
            done[face.index_set] = [(v, *s) for g in by_dim[face.dim - 1]
                                    if labels.issubset(g.index_set)
                                    and v not in g.vertex_ids
                                    for s in pull(g)] if face.dim else [(v,)]
        return done[face.index_set]
    return sorted(pull(p.face_lattice.top))


def _triangulation(p: HPolytope):
    """(D, columns, cumulative volumes) of the pulling triangulation, once.

    With the vertices V / D over one denominator D, simplex i is the n
    coordinate columns of its n + 1 vertex numerators.  Its volume times
    n! D^n is the integer |det| of the edges from its first vertex.
    """
    def build():
        den, ints = _clear_denominators([x for v in p.vertices
                                         for x in v.coords])
        verts = [ints[i:i + p.n] for i in range(0, len(ints), p.n)]
        columns, cumulative, total = [], [], 0
        for ids in _pulling_simplices(p):
            v0 = verts[ids[0]]
            edges = [list(map(sub, verts[i], v0)) for i in ids[1:]]
            _bareiss(edges, _int_step, 1)
            total += abs(edges[-1][-1])
            columns.append(tuple(zip(*(verts[i] for i in ids))))
            cumulative.append(total)
        return den, columns, cumulative
    return _memoized(p, ("triangulation",), build)


def _grid_samples(p: HPolytope, count, rng, strict):
    """(top, [(coords, slacks)]): count points drawn from the pulling
    triangulation, with no rejection.

    A simplex is picked with probability its share of the volume, by
    rng.randrange(total) inlined as getrandbits of total's bit length
    redrawn at or above total; one simplex needs no pick.  Its barycentric
    weights g are the n + 1 gaps of n sorted draws from [0, _GRID], each
    rng.randrange(_GRID + 1) inlined the same way: uniform spacings, so
    the points are close to uniform in the simplex (Devroye, Non-Uniform
    Random Variate Generation, 1986, ch. V).  A strict sample redraws the
    n draws while a gap is 0.  The point sum g_i V_i / (_GRID D) keeps its
    numerators over top = _GRID * D, and its slack numerators over the
    positive top * m_j.
    """
    den, columns, cumulative = _triangulation(p)
    top, total = _GRID * den, cumulative[-1]
    pick = total.bit_length() if len(columns) > 1 else 0
    bits, draw, n = (_GRID + 1).bit_length(), rng.getrandbits, p.n
    out = []
    for _ in range(count):
        cols = columns[0]
        if pick:
            r = draw(pick)
            while r >= total:
                r = draw(pick)
            cols = columns[bisect_right(cumulative, r)]
        while True:
            k = []
            for _ in range(n):
                x = draw(bits)
                while x > _GRID:
                    x = draw(bits)
                k.append(x)
            k.sort()
            gaps = list(map(sub, k + [_GRID], [0] + k))
            if not strict or all(gaps):
                break
        xs = tuple(sum(map(mul, gaps, col)) for col in cols)
        out.append((xs, p._int_slacks(top, xs)))
    return top, out


def _slack_floats(p: HPolytope, den, nums):
    """float() of each slack that _scaled_slacks gives as (den, nums)."""
    return [v * m.denominator / (den * m.numerator)
            for v, m in zip(nums, p._int_scale)]


def sample_polytope_points(p: HPolytope, count, rng, strict=True):
    """Rational points of the polytope drawn from its pulling triangulation."""
    top, pts = _grid_samples(p, count, rng, strict)
    return [tuple(Fraction(x, top) for x in xs) for xs, _nums in pts]


def _float_samples(p: HPolytope, count, rng, strict):
    """sample_polytope_points' points and their slacks, as float lists."""
    top, pts = _grid_samples(p, count, rng, strict)
    return [([x / top for x in xs], _slack_floats(p, top, nums))
            for xs, nums in pts]


def _phased_roots(slacks, labels, rng):
    """Square roots of the labels' float slacks, each with a random phase."""
    return [math.sqrt(slacks[h - 1]) * cmath.exp(2j * math.pi * rng.random())
            for h in labels]


def sample_regular_domain(p: HPolytope, chart: Chart, count, rng):
    """(mu, u) pairs: float interior samples and domain points over them."""
    return [(mu, _phased_roots(slacks, chart.index_set, rng))
            for mu, slacks in _float_samples(p, count, rng, strict=True)]


def _face_point(p: HPolytope, face: Face, rng):
    """(top, xs): the face point sum k_v V_v / (D sum k_v), 0 < k_v <
    _WEIGHTS random, for the face's vertices V_v / D over one D."""
    def vertices():
        den, ints = _clear_denominators([x for v in face.vertex_ids
                                         for x in p.vertices[v].coords])
        return den, [ints[i:i + p.n] for i in range(0, len(ints), p.n)]
    den, verts = _memoized(p, ("face_vertices", face.index_set), vertices)
    weights = [rng.randrange(1, _WEIGHTS) for _ in verts]
    return den * sum(weights), [sum(map(mul, weights, col))
                                for col in zip(*verts)]


def sample_singular_domain(p: HPolytope, chart: Chart, count, rng):
    """(mu, w) pairs: relative interior points of the face, w vectors over them.

    The weights of _face_point are positive, so every w label, being off
    I_F, has a positive slack at mu.
    """
    face = p.face_lattice.face(chart.face_index_set)
    out = []
    for _ in range(count):
        top, xs = _face_point(p, face, rng)
        out.append(([x / top for x in xs], _phased_roots(_slack_floats(
            p, top, p._int_slacks(top, xs)), chart.w_labels, rng)))
    return out


def sample_cone_points(p: HPolytope, chart: Chart,
                       nb: ConeNeighborhood, count, rng):
    """Points of the face cone inside the epsilon ball, with phases.

    The face slacks are t_j = nums_j / (top m_j).  With b_j / m_j = e_j /
    E and epsilon = en / ed, the ball is s / (E top), s = sum e_j nums_j;
    a ball on or past epsilon scales each t_j by E en top / (2 s ed).
    """
    i_f = chart.face_index_set
    m = [p._int_scale[j - 1] for j in i_f]
    big_e, e = _clear_denominators([bj / mj for bj, mj in zip(nb.b, m)])
    eps = nb.epsilon
    top, pts = _grid_samples(p, count, rng, strict=True)
    out = []
    for _xs, nums in pts:
        t = [nums[j - 1] for j in i_f]
        s = sum(map(mul, e, t))
        num, den = 1, top
        if s * eps.denominator >= eps.numerator * big_e * top:
            num, den = big_e * eps.numerator, 2 * s * eps.denominator
        out.append([math.sqrt(tj * num * mj.denominator
                              / (den * mj.numerator))
                    * cmath.exp(2j * math.pi * rng.random())
                    for tj, mj in zip(t, m)])
    return out
