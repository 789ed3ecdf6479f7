"""H-representation polytopes: exact vertices, face lattice, singularity.

A polytope is the set {mu : <mu, X_j> >= lambda_j for j = 1..d} with
Scalar normals X_j and offsets lambda_j.  At construction each
constraint is evaluated at the registry's evaluation point and stored
once as a primitive integer row (a_j, b_j) = m_j (X_j, lambda_j), with
m_j > 0 the lcm of its denominators over the gcd of the scaled
entries, so every slack keeps its sign.  All sign and rank decisions
(feasibility, active sets, vertices) are made on these rows in integer
arithmetic.  The vertices come from a double description of the
homogenized rows, whose work grows with the vertices of the partial
systems rather than with the C(d, n) subsets of constraints, and each
one is certified inside with active rows of rank n.  The face lattice
is graded up from their active sets alone: a face's dimension is its
height above the vertices.  Symbolic vertex coordinates are recovered
on demand and, with parameters, cross-checked against every active
constraint.  The slacks <v, X_j> - lambda_j of a symbolic vertex v form
one table per vertex, which the charts read for their domain
inequalities and the constants of Psi; on the active set the table is
zero, since the certificate made those slacks vanish as Scalars.

Validation reads the rays of the same double description: no ray with
t > 0 means empty, one with t = 0 unbounded, and rays of rank at most n
lower-dimensional.  With parameters it also certifies every vertex's
active set symbolically, for generic values.

Constraint labels are 1-based everywhere in the public API, matching
the usual indexing of the defining inequalities.

Quasilattice lives here since every spec builds one.  The records are
NamedTuples, as everywhere in the package: dataclasses import inspect.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .linalg import _bareiss, _independent_rows, _int_step, _solve_scaled, \
    int_rank, mat_solve
from .scalars import _clear_denominators, dot


class ValidationError(Exception):
    """An input system violating the polytope contract.

    issues is a list of (code, message) pairs; codes are stable strings:
    shape, too-few-constraints, zero-normal, empty, unbounded,
    lower-dimensional, redundant-constraint, degenerate-point.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"[{c}] {m}" for c, m in self.issues))

    @property
    def codes(self):
        return [c for c, _ in self.issues]


class Vertex(NamedTuple):
    coords: tuple  # Fractions, at the evaluation point
    active: tuple  # 1-based labels of tight constraints, sorted


class Face(NamedTuple):
    index_set: tuple  # 1-based labels, sorted; empty for the whole polytope
    dim: int
    r: int  # card(index_set)
    singular: bool
    vertex_ids: tuple  # indices into HPolytope.vertices


def classify_face(face: Face, n: int) -> str:
    """Return "singular" or "nonsingular" from the r > n - p test."""
    if face.r < n - face.dim:
        raise ValueError(
            f"face {face.index_set} has r={face.r} < n-p={n - face.dim}; "
            "inconsistent lattice")
    return "singular" if face.r > n - face.dim else "nonsingular"


class FaceLattice:
    """All faces of a polytope keyed by index set.

    The order is reverse inclusion of index sets: F <= F' iff
    I_{F'} is a subset of I_F.  The unique maximal face is the whole
    polytope, with empty index set.
    """

    def __init__(self, n: int, faces):
        self.n = n
        self.faces = tuple(sorted(faces, key=lambda f: (f.dim, f.index_set)))
        self.by_index_set = {f.index_set: f for f in self.faces}
        self.top = self.by_index_set[()]

    def face(self, index_set) -> Face:
        key = tuple(sorted(index_set))
        try:
            return self.by_index_set[key]
        except KeyError:
            raise KeyError(f"no face with index set {key}") from None

    def faces_of_dim(self, p: int):
        return tuple(f for f in self.faces if f.dim == p)

    def singular_faces(self):
        return tuple(f for f in self.faces if f.singular)

    def f_vector(self):
        """Counts of proper faces by dimension 0..n-1."""
        counts = [0] * self.n
        for f in self.faces:
            if f.dim < self.n:
                counts[f.dim] += 1
        return tuple(counts)

    @staticmethod
    def leq(f: Face, g: Face) -> bool:
        return set(g.index_set) <= set(f.index_set)

    def subfaces(self, face: Face):
        return tuple(f for f in self.faces
                     if f is not face and self.leq(f, face))

    def superfaces(self, face: Face):
        return tuple(f for f in self.faces
                     if f is not face and self.leq(face, f))


def _fmt(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _memoized(p, key, build):
    """p.memo[key], calling build() to fill it on the first request."""
    if key not in p.memo:
        p.memo[key] = build()
    return p.memo[key]


def _set_bits(mask):
    """The positions of the set bits of mask, in increasing order."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _primitive_row(values):
    """(integers, m): m * values is the primitive integer row, m > 0."""
    den, ints = _clear_denominators(values)
    g = math.gcd(*ints) or 1
    return [x // g for x in ints], Fraction(den, g)


class HPolytope:
    """Bounded full-dimensional intersection of d >= n+1 half-spaces."""

    def __init__(self, registry, normals, offsets, validate: bool = True):
        self.registry = registry
        self.normals = tuple(tuple(registry.scalar(x) for x in row)
                             for row in normals)
        self.offsets = tuple(registry.scalar(x) for x in offsets)
        if not self.normals or len({len(r) for r in self.normals}) != 1:
            raise ValidationError([("shape", "normals must be a nonempty "
                                    "rectangular array")])
        self.n = len(self.normals[0])
        self.d = len(self.normals)
        if len(self.offsets) != self.d:
            raise ValidationError([("shape",
                                    f"{self.d} normals but "
                                    f"{len(self.offsets)} offsets")])
        self._num_x = [[x.evaluate() for x in row] for row in self.normals]
        self._num_l = [l.evaluate() for l in self.offsets]
        rows = [_primitive_row(x + [l])
                for x, l in zip(self._num_x, self._num_l)]
        self._int_x = tuple(tuple(r[:-1]) for r, _m in rows)
        self._int_l = tuple(r[-1] for r, _m in rows)
        self._int_scale = tuple(m for _r, m in rows)
        self._vertices = None
        # objects derived from this polytope (face lattice, symbolic
        # vertices and slacks, admissible sets and each set's vertex, A_I,
        # charts, link forest, sampling triangulation), keyed by
        # (function, args); see _memoized.  change_of_basis alone writes
        # ("exchange_tableau", vertex) directly: a cursor it overwrites
        # with the last A_I reached, since pivoting from the last I is
        # cheaper than from a fixed first one
        self.memo = {}
        if validate:
            self._validate()

    # -- numeric views -------------------------------------------------

    def numeric_normals(self):
        return [row[:] for row in self._num_x]

    def numeric_offsets(self):
        return self._num_l[:]

    @property
    def _float_l(self):
        """Float offsets, on first read: exact sections never need them."""
        return _memoized(self, ("float_l",),
                         lambda: [float(l) for l in self._num_l])

    def _int_slacks(self, den, num):
        """D * m_j times every slack at the point num / D, as integers."""
        return [sum(map(mul, row, num)) - den * b
                for row, b in zip(self._int_x, self._int_l)]

    def _scaled_slacks(self, point):
        """(D, D * m_j times every slack at point as integers), D > 0."""
        if len(point) != self.n:
            raise ValueError(f"point must have {self.n} coordinates")
        den, num = _clear_denominators(point)
        return den, self._int_slacks(den, num)

    def slacks(self, point):
        """Exact slacks <point, X_j> - lambda_j; constraint j's is at j - 1."""
        den, values = self._scaled_slacks(point)
        return [Fraction(v * m.denominator, den * m.numerator)
                for v, m in zip(values, self._int_scale)]

    def contains(self, point, strict: bool = False) -> bool:
        slacks = self._scaled_slacks(point)[1]
        if strict:
            return all(v > 0 for v in slacks)
        return all(v >= 0 for v in slacks)

    def active_set(self, point):
        slacks = self._scaled_slacks(point)[1]
        return tuple(j for j, v in enumerate(slacks, start=1) if v == 0)

    # -- validation ----------------------------------------------------

    def _validate(self):
        issues = []
        if self.d < self.n + 1:
            issues.append(("too-few-constraints",
                           f"d={self.d} < n+1={self.n + 1}"))
        for j, row in enumerate(self._num_x, start=1):
            if all(x == 0 for x in row):
                issues.append(("zero-normal",
                               f"constraint {j} has zero normal"))
        if issues:
            raise ValidationError(issues)

        # rays on the pivot columns, which span the column space of A, so
        # feasibility is kept; positive row scales change no decision
        echelon = [list(row) for row in self._int_x]
        pivots = _bareiss(echelon, _int_step, 1, jordan=True)
        rays = [y for y, _z in self._rays(tuple(pivots))]
        if not any(y[-1] for y in rays):
            raise ValidationError([("empty", "no point satisfies all "
                                    "constraints")])
        ray = self._recession_ray(echelon, pivots, rays)
        if ray:
            raise ValidationError([("unbounded", "the feasible set contains "
                                    f"a ray in direction {_fmt(ray)}")])
        if int_rank(rays) <= self.n:
            raise ValidationError([("lower-dimensional",
                                    "feasible set has empty interior")])
        for j in range(1, self.d + 1):
            face = self.face_lattice.by_index_set.get((j,))
            if face is None or face.dim != self.n - 1:
                issues.append(("redundant-constraint",
                               f"constraint {j} is not active on a facet"))
        if issues:
            raise ValidationError(issues)
        # with parameters, certify every vertex's active set symbolically
        if self.registry.names:
            for vid in range(len(self.vertices)):
                self.vertex_point(vid)

    def _recession_ray(self, echelon, pivots, rays):
        """A primitive integer y != 0 with A y >= 0, or None, for a
        nonempty system: below rank n a line, else a ray with t = 0."""
        if len(pivots) < self.n:
            # a line: y zero on the free columns but the first.  Reduced
            # row i holds d, the last pivot, on its pivot p_i, so y[free] =
            # d and y[p_i] = -row_i[free]; times d turns y by sign(d)
            free = min(set(range(self.n)) - set(pivots))
            d = echelon[len(pivots) - 1][pivots[-1]]
            y = dict(zip(pivots, (-row[free] * d for row in echelon)))
            y[free] = d * d
            return _primitive_row([y.get(c, 0) for c in range(self.n)])[0]
        return next((y[:-1] for y in rays if not y[-1]), None)

    def interior_point(self):
        """The vertex average, strictly inside a full-dimensional polytope."""
        coords = [v.coords for v in self.vertices]
        return tuple(sum(c) / len(coords) for c in zip(*coords))

    # -- vertices and faces ---------------------------------------------

    @property
    def vertices(self):
        """The rays (v, 1) on all columns, certified inside with active
        rows of rank n; RuntimeError on a failure or a direction."""
        if self._vertices is None:
            verts = []
            for y, _z in self._rays(tuple(range(self.n))):
                if not y[-1]:
                    raise RuntimeError("the system is unbounded: it contains "
                                       f"a ray in direction {_fmt(y[:-1])}")
                pt = tuple(Fraction(c, y[-1]) for c in y[:-1])
                active = self.active_set(pt)
                if not self.contains(pt) or int_rank(
                        [self._int_x[j - 1] for j in active]) != self.n:
                    raise RuntimeError(f"double description gave {_fmt(pt)}, "
                                       "which is not a vertex")
                verts.append(Vertex(coords=pt, active=active))
            self._vertices = tuple(sorted(verts, key=lambda v: v.coords))
        return self._vertices

    def _rays(self, cols):
        """Extreme rays by double description on the columns cols, memoized.

        The cone {(x, t) : <a_j, x> - b_j t >= 0, t >= 0}, x on the
        columns cols, has the extreme rays (v, 1), v the vertices, and
        (y, 0), y the extreme recession directions (Motzkin et al. 1953;
        Fukuda and Prodon 1996).  Each ray is a primitive integer vector
        with the bitmask of the rows it is tight on: bit 0 is t >= 0,
        bit j constraint j.  The first m + 1 independent rows, m =
        len(cols), give a simplicial cone, whose rays are the columns of
        their inverse.  Every other row is then inserted in label order:
        the rays on its nonnegative side stay, and each adjacent pair
        across it adds the combination on the row.  Two rays are adjacent
        when their common zero set has at least m - 1 rows and no third
        ray is tight on all of them.  RuntimeError if the rows have rank
        below m + 1: the cone holds a line.
        """
        def build():
            m = len(cols)
            rows = [(0,) * m + (1,)] + [
                tuple(x[c] for c in cols) + (-b,)
                for x, b in zip(self._int_x, self._int_l)]
            block = _independent_rows(rows)
            if len(block) < m + 1:
                raise RuntimeError(f"the homogenized rows have rank "
                                   f"{len(block)} < {m + 1}: the system is "
                                   "unbounded")
            a = [rows[i] for i in block]
            full = sum(1 << i for i in block)
            # the columns of d * a^-1, times d to turn them by sign(d)
            d, dx = _solve_scaled(a, [[int(h == k) for k in range(m + 1)]
                                      for h in range(m + 1)])
            rays = [(_primitive_row([x * d for x in col])[0], full & ~(1 << i))
                    for col, i in zip(zip(*dx), block)]
            for i, row in enumerate(rows):
                if (full >> i) & 1:
                    continue
                bit = 1 << i
                kept, pos, neg = [], [], []
                for y, z in rays:
                    s = sum(u * v for u, v in zip(row, y))
                    if s > 0:
                        kept.append((y, z))
                        pos.append((s, y, z))
                    elif s < 0:
                        neg.append((s, y, z))
                    else:
                        kept.append((y, z | bit))
                for sp, yp, zp in pos:
                    for sn, yn, zn in neg:
                        z = zp & zn
                        if z.bit_count() < m - 1 or any(
                                w & z == z and w != zp and w != zn
                                for _y, w in rays):
                            continue
                        kept.append((_primitive_row(
                            [sp * v - sn * u for u, v in zip(yp, yn)])[0],
                            z | bit))
                rays = kept
            return rays
        return _memoized(self, ("rays", cols), build)

    @property
    def face_lattice(self) -> FaceLattice:
        return _memoized(self, ("face_lattice",), self._build_lattice)

    def _build_lattice(self):
        """The faces graded up from the vertices (Kaibel and Pfetsch 2002):
        a face is the bitmask of its index set, bit j for label j, the
        vertices' active sets have dimension 0, and the faces covering h
        are the maximal distinct meets h & a over the vertex masks a that
        do not contain h; h's vertices are those whose masks contain h."""
        masks = [sum(1 << j for j in v.active) for v in self.vertices]
        faces, level, p = [], set(masks), 0
        while level:
            covers = set()
            for h in level:
                index_set = _set_bits(h)
                faces.append(Face(
                    index_set=index_set, dim=p, r=len(index_set),
                    singular=len(index_set) > self.n - p,
                    vertex_ids=tuple(i for i, a in enumerate(masks)
                                     if a & h == h)))
                up = []
                for m in sorted({h & a for a in masks if a & h != h},
                                key=int.bit_count, reverse=True):
                    if all(m & u != m for u in up):
                        up.append(m)
                covers.update(up)
            level, p = covers, p + 1
        return FaceLattice(self.n, faces)

    @property
    def is_simple(self) -> bool:
        return not any(f.singular for f in self.face_lattice.faces)

    # -- symbolic vertex coordinates -------------------------------------

    def _symbolic_slack(self, point, j):
        """The Scalar <point, X_j> - lambda_j."""
        return dot((*point, self.offsets[j - 1]), (*self.normals[j - 1], -1))

    def vertex_point(self, vid: int):
        """Vertex coordinates as Scalars, valid for generic parameters.

        Solves n independent active constraints symbolically, then
        requires the remaining active constraints to vanish as Scalars;
        a nonzero residual means the active set holds only at the
        evaluation point.  Without parameters the exact vertex is the
        answer.  Memoized.
        """
        return _memoized(self, ("vertex_point", vid),
                         lambda: self._certified_vertex(vid))

    def _certified_vertex(self, vid):
        v = self.vertices[vid]
        if not self.registry.names:
            # nothing symbolic can differ from the exact vertex
            return tuple(self.registry.scalar(x) for x in v.coords)
        # lexicographically first independent n-subset at the eval point
        chosen = [v.active[i] for i in _independent_rows(
            [self._int_x[j - 1] for j in v.active])]
        a = [list(self.normals[j - 1]) for j in chosen]
        b = [self.offsets[j - 1] for j in chosen]
        pt = tuple(mat_solve(a, b))
        for j in v.active:
            if j not in chosen and not self._symbolic_slack(pt, j).is_zero():
                values = ", ".join(f"{nm}={x}" for nm, x in zip(
                    self.registry.names, self.registry.point))
                raise ValidationError(
                    [("degenerate-point",
                      f"constraint {j} meets vertex {vid} {_fmt(v.coords)} "
                      f"only at the parameter values {values}")])
        return pt

    def vertex_slacks(self, vid: int):
        """Scalar slacks <v, X_j> - lambda_j at vertex_point(vid), memoized.

        Constraint j's slack is at j - 1.  For any admissible I at the
        vertex, X_r = sum_{h in I} a_hr X_h and <v, X_h> = lambda_h give
        slack_r = sum_{h in I} a_hr lambda_h - lambda_r, so the table
        serves every chart basis at the vertex.  Active slacks are zero
        by the certificate of vertex_point.
        """
        def build():
            pt = self.vertex_point(vid)
            active = self.vertices[vid].active
            return tuple(self.registry.zero() if j in active
                         else self._symbolic_slack(pt, j)
                         for j in range(1, self.d + 1))
        return _memoized(self, ("vertex_slacks", vid), build)


class Quasilattice:
    """Z-span of a spanning set of vectors, kept as symbolic generators."""

    def __init__(self, registry, generators):
        self.registry = registry
        self.source_polytope = None  # set when built from a polytope's normals
        self.generators = tuple(
            tuple(registry.scalar(g) for g in row)
            for row in generators)
        if not self.generators:
            raise ValueError("a quasilattice needs at least one generator")
        self.n = len(self.generators[0])
        if any(len(g) != self.n for g in self.generators):
            raise ValueError("generators must share one length")
        num = [_clear_denominators([x.evaluate() for x in g])[1]
               for g in self.generators]
        if int_rank(num) != self.n:
            raise ValueError("generators do not span the ambient space "
                             "at the evaluation point")

    @classmethod
    def from_normals(cls, p: HPolytope) -> "Quasilattice":
        q = cls(p.registry, p.normals)
        q.source_polytope = p
        return q
