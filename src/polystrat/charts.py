"""Moment maps, chart domains, slices, and local cone embeddings.

Coefficients (change-of-basis entries, slacks, kernel vectors) are
exact; points are double-precision complex vectors of length d.  A
point z determines Upsilon_j = |z_j|^2 + lambda_j; the reduced moment
map Psi pairs Upsilon with the kernel basis of pi, and Phi solves
<Phi, X_h> = Upsilon_h over an admissible index block.

Domain checks mirror the defining inequalities of the chart sets: the
regular slice needs sum_h a_hk |u_h|^2 > 0 for the extra active
constraints and > -slack_r for the inactive ones; the singular slice
is the same with the face block frozen to zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ambient import AdaptedBasisData, adapted_kernel_basis, \
    check_vertex_lambda_identity, find_flag_index_set
from .lp import open_feasible_point
from .polytope import Face, HPolytope


class DomainError(Exception):
    """A point violating a chart domain inequality; label names it."""

    def __init__(self, label, message):
        self.label = label
        super().__init__(message)


def _num(matrix):
    return [[x.evaluate() for x in row] for row in matrix]


def psi_equations(p: HPolytope, basis: AdaptedBasisData):
    """Symbolic table of Psi's components: (coefficients, constant) pairs.

    Component i of Psi at z is sum_j coeff_j |z_j|^2 + constant, with
    coefficients the kernel basis vector and constant its pairing with
    the offsets.
    """
    out = []
    for vec in basis.kernel:
        const = sum((vec[j] * p.offsets[j] for j in range(p.d)),
                    p.registry.zero())
        out.append((vec, const))
    return tuple(out)


# -- regular charts ------------------------------------------------------

@dataclass(frozen=True)
class RegularChart:
    index_set: tuple
    vertex_id: int
    basis: AdaptedBasisData
    mid_labels: tuple  # I_mu minus I
    out_labels: tuple  # labels not in I_mu
    a_num: tuple  # A_I at the evaluation point, rows ordered by sorted I
    slack_scalars: dict  # r -> Scalar sum_h a_hr lambda_h - lambda_r
    slacks: dict  # r -> Fraction, positive
    i_star: tuple  # labels h in I whose rho_h = 0 hyperplane misses C_I
    pi1_rank: int


def i_star_of_system(rows, bounds):
    """Positions h whose coordinate hyperplane misses the open cone.

    The cone is {rho >= 0 : rows @ rho > bounds}; feasibility of each
    slice {rho_h = 0} is decided by exact linear programming.
    """
    if not rows:
        return ()
    nvar = len(rows[0])
    out = []
    for h in range(nvar):
        pt = open_feasible_point(rows, bounds,
                                 nonneg=range(nvar), zero=[h])
        if pt is None:
            out.append(h)
    return tuple(out)


def _facet_interior_witness(p: HPolytope, h: int, strict_labels) -> bool:
    """Exact certificate that the slice rho_h = 0 of C_I is nonempty.

    The vertex average of the facet {h} lies in its relative interior,
    so its constraint slacks give a point with rho_h = 0 satisfying
    every strict inequality of C_I whenever the facet meets no facet
    outside I union I_mu.  All arithmetic is over Fractions.
    """
    face = p.face_lattice.by_index_set.get((h,))
    if face is None or not face.vertex_ids:
        return False
    pts = [p.vertices[v].coords for v in face.vertex_ids]
    avg = [sum(col, Fraction(0)) / len(pts) for col in zip(*pts)]
    if p.constraint_value(h, avg) != 0:
        return False
    return all(p.constraint_value(j, avg) > 0 for j in strict_labels)


def regular_chart(p: HPolytope, index_set) -> RegularChart:
    """The chart over an admissible I, memoized on the polytope."""
    key = ("regular_chart", tuple(sorted(index_set)))
    if key in p.memo:
        return p.memo[key]
    basis = adapted_kernel_basis(p, index_set)
    i_sorted = basis.index_set
    ok, slack_syms = check_vertex_lambda_identity(p, basis.vertex_id,
                                                  i_sorted)
    if not ok:
        raise ValueError(f"offset identity fails for I={i_sorted}")
    slacks = {r: s.evaluate() for r, s in slack_syms.items()}
    i_mu = basis.vertex_index_set
    mid = tuple(k for k in i_mu if k not in i_sorted)
    out = tuple(r for r in range(1, p.d + 1) if r not in i_mu)
    a_num = _num(basis.a_matrix)
    rows, bounds = [], []
    for k in mid:
        rows.append([a_num[pos][k - 1] for pos in range(p.n)])
        bounds.append(Fraction(0))
    for r in out:
        rows.append([a_num[pos][r - 1] for pos in range(p.n)])
        bounds.append(-slacks[r])
    # A facet-interior point certifies feasibility without an LP; only
    # the rare failures fall through to the exact simplex.
    if rows:
        star_pos = [pos for pos, h in enumerate(i_sorted)
                    if not _facet_interior_witness(p, h, mid + out)]
        star_pos = [pos for pos in star_pos
                    if open_feasible_point(rows, bounds,
                                           nonneg=range(p.n),
                                           zero=[pos]) is None]
    else:
        star_pos = []
    i_star = tuple(i_sorted[h] for h in star_pos)
    chart = p.memo[key] = RegularChart(
        index_set=i_sorted, vertex_id=basis.vertex_id, basis=basis,
        mid_labels=mid, out_labels=out, a_num=tuple(tuple(r) for r in a_num),
        slack_scalars=slack_syms, slacks=slacks, i_star=i_star,
        pi1_rank=len(i_star))
    return chart


def chart_pi1_rank(p: HPolytope, index_set):
    chart = regular_chart(p, index_set)
    return chart.pi1_rank, chart.i_star


# -- moment maps ---------------------------------------------------------

def moment_values(p: HPolytope, z, basis: AdaptedBasisData):
    """(Upsilon, Psi, Phi) of an ambient point as float vectors."""
    z = np.asarray(z, dtype=complex)
    lam = [float(l) for l in p.numeric_offsets()]
    ups = [abs(z[j]) ** 2 + lam[j] for j in range(p.d)]
    psi = []
    for vec in basis.kernel:
        psi.append(sum(float(vec[j].evaluate()) * ups[j]
                       for j in range(p.d)))
    i_sorted = basis.index_set
    rows = [[float(p._num_x[h - 1][i]) for i in range(p.n)]
            for h in i_sorted]
    rhs = [ups[h - 1] for h in i_sorted]
    phi = np.linalg.solve(np.array(rows), np.array(rhs))
    return ups, psi, list(phi)


def lift_point(p: HPolytope, mu):
    """Nonnegative real lift with |z_j|^2 = <mu, X_j> - lambda_j."""
    z = np.zeros(p.d, dtype=complex)
    for j in range(1, p.d + 1):
        r = p.constraint_value(j, mu)
        if r < 0:
            raise DomainError(j, f"constraint {j} is violated: "
                                 f"radicand {r} < 0")
        z[j - 1] = math.sqrt(float(r))
    return z


def regular_slice(p: HPolytope, chart: RegularChart, u):
    """Assemble u + F_I(u); coordinates on I copy u, the rest are radicals."""
    i_sorted = chart.index_set
    if len(u) != p.n:
        raise ValueError(f"u must have {p.n} coordinates on I={i_sorted}")
    rho = [abs(complex(x)) ** 2 for x in u]
    z = np.zeros(p.d, dtype=complex)
    for pos, h in enumerate(i_sorted):
        z[h - 1] = complex(u[pos])
    for l in chart.mid_labels:
        rad = sum(float(chart.a_num[pos][l - 1]) * rho[pos]
                  for pos in range(p.n))
        if rad <= 0:
            raise DomainError(l, f"domain inequality for constraint {l} "
                                 f"fails: {rad} <= 0")
        z[l - 1] = math.sqrt(rad)
    for r in chart.out_labels:
        rad = sum(float(chart.a_num[pos][r - 1]) * rho[pos]
                  for pos in range(p.n)) + float(chart.slacks[r])
        if rad <= 0:
            raise DomainError(r, f"domain inequality for constraint {r} "
                                 f"fails: {rad} <= 0")
        z[r - 1] = math.sqrt(rad)
    return z


# -- singular charts -----------------------------------------------------

@dataclass(frozen=True)
class SingularChart:
    face_index_set: tuple
    index_set: tuple
    common: tuple  # I cap I_F
    w_labels: tuple  # I minus common; the (C*)^p coordinates
    mid_labels: tuple  # I_mu minus (I union I_F)
    out_labels: tuple  # labels not in I_mu
    basis: AdaptedBasisData  # flag-adapted
    a_num: tuple
    slacks: dict

    @property
    def dim(self) -> int:
        return len(self.w_labels)


def singular_chart(p: HPolytope, face: Face,
                   index_set=None) -> SingularChart:
    """The flag-adapted chart at a face, memoized on the polytope.

    Without index_set the first I meeting the flag condition is used.
    """
    if index_set is None:
        index_set, _vid = find_flag_index_set(p, face)
    key = ("singular_chart", face.index_set, tuple(sorted(index_set)))
    if key in p.memo:
        return p.memo[key]
    basis = adapted_kernel_basis(p, index_set, face=face)
    i_sorted = basis.index_set
    i_mu = basis.vertex_index_set
    i_f = set(face.index_set)
    common = tuple(sorted(i_f & set(i_sorted)))
    w_labels = tuple(h for h in i_sorted if h not in common)
    union = i_f | set(i_sorted)
    mid = tuple(k for k in i_mu if k not in union)
    out = tuple(r for r in range(1, p.d + 1) if r not in i_mu)
    ok, slack_syms = check_vertex_lambda_identity(p, basis.vertex_id,
                                                  i_sorted)
    if not ok:
        raise ValueError(f"offset identity fails for I={i_sorted}")
    slacks = {r: s.evaluate() for r, s in slack_syms.items()}
    chart = p.memo[key] = SingularChart(
        face_index_set=face.index_set, index_set=i_sorted, common=common,
        w_labels=w_labels, mid_labels=mid, out_labels=out, basis=basis,
        a_num=tuple(tuple(r) for r in _num(basis.a_matrix)), slacks=slacks)
    return chart


def singular_slice(p: HPolytope, chart: SingularChart, w):
    """Assemble w + the singular slice radicals; face coordinates are 0."""
    i_sorted = chart.index_set
    if len(w) != len(chart.w_labels):
        raise ValueError(f"w must have {len(chart.w_labels)} coordinates "
                         f"on {chart.w_labels}")
    rho = {}
    for h, val in zip(chart.w_labels, w):
        val = complex(val)
        if val == 0:
            raise DomainError(h, f"coordinate {h} must be nonzero")
        rho[h] = abs(val) ** 2
    z = np.zeros(p.d, dtype=complex)
    for h, val in zip(chart.w_labels, w):
        z[h - 1] = complex(val)
    pos_of = {h: i_sorted.index(h) for h in chart.w_labels}
    for l in chart.mid_labels:
        rad = sum(float(chart.a_num[pos_of[h]][l - 1]) * rho[h]
                  for h in chart.w_labels)
        if rad <= 0:
            raise DomainError(l, f"domain inequality for constraint {l} "
                                 f"fails: {rad} <= 0")
        z[l - 1] = math.sqrt(rad)
    for r in chart.out_labels:
        rad = sum(float(chart.a_num[pos_of[h]][r - 1]) * rho[h]
                  for h in chart.w_labels) + float(chart.slacks[r])
        if rad <= 0:
            raise DomainError(r, f"domain inequality for constraint {r} "
                                 f"fails: {rad} <= 0")
        z[r - 1] = math.sqrt(rad)
    return z


def torus_action(p: HPolytope, index_set, x_vec, z):
    """Rotate z by the phases of exp applied to the I-block preimage of x."""
    i_sorted = tuple(sorted(index_set))
    rows = [[float(p._num_x[h - 1][i]) for i in range(p.n)]
            for h in i_sorted]
    theta = np.linalg.solve(np.array(rows).T,
                            np.array([float(v) for v in x_vec]))
    z = np.asarray(z, dtype=complex).copy()
    for pos, h in enumerate(i_sorted):
        z[h - 1] *= cmath.exp(2j * math.pi * theta[pos])
    return z


# -- cones and the local embedding ---------------------------------------

def moment_map_cone(p: HPolytope, chart: SingularChart, z_f):
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
    psi = []
    for vec in chart.basis.kernel[:chart.basis.stabilizer_count]:
        psi.append(sum(float(vec[j - 1].evaluate()) * sq[j] for j in i_f))
    lam = p.numeric_offsets()
    phi = tuple(sq[h] + float(lam[h - 1]) for h in chart.common)
    return psi, phi


@dataclass(frozen=True)
class ConeNeighborhood:
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


def cone_neighborhood(p: HPolytope, chart: SingularChart, b=None,
                      center=None) -> ConeNeighborhood:
    """Choose the box, c and epsilon for the embedding around the face.

    The box is centered at the w-image of a relative interior point of
    the face (the vertex average by default); its half-width is set so
    every domain inequality keeps at least half its center value, hence
    c = half the exact minimum of the radicands over the box corners.
    epsilon then has the closed form c (or the slack) divided by twice
    the worst negative-coefficient-to-b ratio.
    """
    i_f = chart.face_index_set
    if b is None:
        b = {j: Fraction(1) for j in i_f}
    else:
        b = {j: Fraction(b[j]) for j in i_f}
    if any(v <= 0 for v in b.values()):
        raise ValueError("b coefficients must be positive")

    pos_of = {h: chart.index_set.index(h) for h in chart.w_labels}
    # rows of the domain inequalities over the w squared-moduli
    ineqs = []  # (label, const, {h: coef})
    for l in chart.mid_labels:
        ineqs.append((l, Fraction(0),
                      {h: chart.a_num[pos_of[h]][l - 1]
                       for h in chart.w_labels}))
    for r in chart.out_labels:
        ineqs.append((r, chart.slacks[r],
                      {h: chart.a_num[pos_of[h]][r - 1]
                       for h in chart.w_labels}))

    if chart.w_labels:
        if center is None:
            face = p.face_lattice.face(i_f)
            vs = [p.vertices[i].coords for i in face.vertex_ids]
            mu0 = tuple(sum(col, Fraction(0)) / len(vs) for col in zip(*vs))
        else:
            mu0 = tuple(Fraction(x) for x in center)
        rho0 = {h: p.constraint_value(h, mu0) for h in chart.w_labels}
        if any(v <= 0 for v in rho0.values()):
            raise ValueError("center point is not in the open face")
        # shrink the relative box radius until every inequality keeps
        # half its center value on the closed box
        t = Fraction(1, 2)
        for _label, const, coefs in ineqs:
            g0 = const + sum(coefs[h] * rho0[h] for h in chart.w_labels)
            spread = sum(abs(coefs[h]) * rho0[h] for h in chart.w_labels)
            if spread > 0:
                t = min(t, g0 / (2 * spread))
        box_lo = tuple(rho0[h] * (1 - t) for h in chart.w_labels)
        box_hi = tuple(rho0[h] * (1 + t) for h in chart.w_labels)
        # exact minimum over box corners of each radicand
        worst = None
        for label, const, coefs in ineqs:
            val = const
            for h, lo, hi in zip(chart.w_labels, box_lo, box_hi):
                val += coefs[h] * (lo if coefs[h] >= 0 else hi)
            worst = val if worst is None else min(worst, val)
        c = worst / 2 if worst is not None else None
        margin = {label: c for label, _c, _f in ineqs}
    else:
        box_lo = box_hi = ()
        c = None
        margin = {label: const for label, const, _f in ineqs}

    # epsilon: the face-block contribution to radicand `label` is at
    # least -epsilon * max_h max(0, -a_h,label) / b_h
    eps = None
    for label, _const, _coefs in ineqs:
        m = Fraction(0)
        for h in chart.common:
            a = chart.a_num[chart.index_set.index(h)][label - 1]
            if -a / b[h] > m:
                m = -a / b[h]
        if m > 0:
            cand = margin[label] / (2 * m)
            eps = cand if eps is None else min(eps, cand)
    if eps is None:
        eps = Fraction(1)
    return ConeNeighborhood(face_index_set=i_f, index_set=chart.index_set,
                            b=tuple(b[j] for j in i_f),
                            box_lo=box_lo, box_hi=box_hi, c=c, epsilon=eps)


def cone_embedding(p: HPolytope, chart: SingularChart, nb: ConeNeighborhood,
                   w, z_f):
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

    z = np.zeros(p.d, dtype=complex)
    for h, val in zip(chart.w_labels, w):
        z[h - 1] = complex(val)
    for j, val in zip(i_f, z_f):
        z[j - 1] = complex(val)
    rho = {h: abs(z[h - 1]) ** 2 for h in chart.index_set}
    for label in chart.mid_labels + chart.out_labels:
        rad = sum(float(chart.a_num[pos][label - 1]) * rho[h]
                  for pos, h in enumerate(chart.index_set))
        if label in chart.out_labels:
            rad += float(chart.slacks[label])
        if rad <= 0:
            raise DomainError(label, f"radicand of coordinate {label} is "
                                     f"{rad} <= 0 despite c/epsilon bounds")
        z[label - 1] = math.sqrt(rad)
    return z


# -- sampling helpers (rejection against exact inequalities) --------------

def sample_polytope_points(p: HPolytope, count, rng, strict=True,
                           denom=4096):
    """Rational points of the polytope drawn by bounding-box rejection."""
    verts = [v.coords for v in p.vertices]
    lo = [min(v[i] for v in verts) for i in range(p.n)]
    hi = [max(v[i] for v in verts) for i in range(p.n)]
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000 * count:
            raise RuntimeError("rejection sampling stalled")
        pt = tuple(l + (h - l) * Fraction(rng.randrange(denom + 1), denom)
                   for l, h in zip(lo, hi))
        if p.contains(pt, strict=strict):
            out.append(pt)
    return out


def sample_regular_domain(p: HPolytope, chart: RegularChart, count, rng):
    """Complex points of the chart domain, one per interior sample."""
    pts = sample_polytope_points(p, count, rng, strict=True)
    out = []
    for mu in pts:
        u = []
        for h in chart.index_set:
            r = p.constraint_value(h, mu)
            u.append(math.sqrt(float(r))
                     * cmath.exp(2j * math.pi * rng.random()))
        out.append(u)
    return out


def face_interior_point(p: HPolytope, face: Face, rng, denom=1024):
    vs = [p.vertices[i].coords for i in face.vertex_ids]
    weights = [Fraction(rng.randrange(1, denom), denom) for _ in vs]
    total = sum(weights)
    return tuple(sum(w * v[i] for w, v in zip(weights, vs)) / total
                 for i in range(p.n))


def sample_singular_domain(p: HPolytope, chart: SingularChart, count, rng):
    """Complex w vectors drawn from relative interior points of the face."""
    face = p.face_lattice.face(chart.face_index_set)
    out = []
    for _ in range(count):
        mu = face_interior_point(p, face, rng)
        w = []
        for h in chart.w_labels:
            r = p.constraint_value(h, mu)
            if r <= 0:
                raise RuntimeError("face interior sample landed on a wall")
            w.append(math.sqrt(float(r))
                     * cmath.exp(2j * math.pi * rng.random()))
        out.append(w)
    return out


def sample_cone_points(p: HPolytope, chart: SingularChart,
                       nb: ConeNeighborhood, count, rng):
    """Points of the face cone inside the epsilon ball, with phases."""
    i_f = chart.face_index_set
    pts = sample_polytope_points(p, count, rng, strict=True)
    out = []
    for mu in pts:
        t = [p.constraint_value(j, mu) for j in i_f]
        ball = sum(bj * tj for bj, tj in zip(nb.b, t))
        scale = Fraction(1)
        if ball >= nb.epsilon:
            scale = nb.epsilon / (2 * ball)
        zf = [math.sqrt(float(tj * scale))
              * cmath.exp(2j * math.pi * rng.random()) for tj in t]
        out.append(zf)
    return out
