"""H-representation polytopes: exact vertices, face lattice, singularity.

A polytope is the set {mu : <mu, X_j> >= lambda_j for j = 1..d} with
Scalar normals X_j and offsets lambda_j.  All sign and rank decisions
(feasibility, active sets, face dimensions) are made with Fraction
arithmetic at the registry's evaluation point; symbolic vertex
coordinates are recovered on demand and cross-checked against every
active constraint.

Constraint labels are 1-based everywhere in the public API, matching
the usual indexing of the defining inequalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import SingularMatrixError, mat_rank, mat_solve
from .lp import lp_maximize, open_feasible_point
from .scalars import Scalar


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


@dataclass(frozen=True)
class Vertex:
    coords: tuple  # Fractions, at the evaluation point
    active: tuple  # 1-based labels of tight constraints, sorted


@dataclass(frozen=True)
class Face:
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


class HPolytope:
    """Bounded full-dimensional intersection of d >= n+1 half-spaces."""

    def __init__(self, registry, normals, offsets, validate: bool = True):
        self.registry = registry
        self.normals = tuple(tuple(self._coerce(x) for x in row)
                             for row in normals)
        self.offsets = tuple(self._coerce(x) for x in offsets)
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
        self._vertices = None
        self._lattice = None
        self._interior = None
        # objects derived from this polytope by other modules (index
        # family, A_I, charts, link forest), keyed by (function, args)
        self.memo = {}
        if validate:
            self._validate()

    def _coerce(self, x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, str):
            return self.registry.parse(x)
        return self.registry.scalar(x)

    # -- numeric views -------------------------------------------------

    def numeric_normals(self):
        return [row[:] for row in self._num_x]

    def numeric_offsets(self):
        return self._num_l[:]

    def constraint_value(self, j: int, point) -> Fraction:
        """Slack <point, X_j> - lambda_j at the evaluation point; j is 1-based."""
        row = self._num_x[j - 1]
        return sum((Fraction(p) * a for p, a in zip(point, row)),
                   Fraction(0)) - self._num_l[j - 1]

    def contains(self, point, strict: bool = False) -> bool:
        for j in range(1, self.d + 1):
            v = self.constraint_value(j, point)
            if v < 0 or (strict and v == 0):
                return False
        return True

    def active_set(self, point):
        return tuple(j for j in range(1, self.d + 1)
                     if self.constraint_value(j, point) == 0)

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

        # boundedness and nonemptiness: extremize every coordinate
        a_ub = [[-x for x in row] for row in self._num_x]
        b_ub = [-l for l in self._num_l]
        for k in range(self.n):
            for sgn in (1, -1):
                c = [Fraction(0)] * self.n
                c[k] = Fraction(sgn)
                res = lp_maximize(c, a_ub=a_ub, b_ub=b_ub)
                if res.status == "infeasible":
                    raise ValidationError([("empty",
                                            "no point satisfies all "
                                            "constraints")])
                if res.status == "unbounded":
                    raise ValidationError([("unbounded",
                                            f"coordinate {k + 1} is "
                                            "unbounded on the feasible set")])

        self.interior_point()
        lattice = self.face_lattice
        for j in range(1, self.d + 1):
            key = (j,)
            face = lattice.by_index_set.get(key)
            if face is None or face.dim != self.n - 1:
                issues.append(("redundant-constraint",
                               f"constraint {j} is not active on a facet"))
        if issues:
            raise ValidationError(issues)

    def interior_point(self):
        if self._interior is None:
            pt = open_feasible_point(self._num_x, self._num_l)
            if pt is None:
                raise ValidationError([("lower-dimensional",
                                        "feasible set has empty interior")])
            self._interior = tuple(pt)
        return self._interior

    # -- vertices and faces ---------------------------------------------

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = self._enumerate()
        return self._vertices

    def _enumerate(self):
        seen = {}
        for subset in itertools.combinations(range(self.d), self.n):
            a = [self._num_x[i] for i in subset]
            b = [self._num_l[i] for i in subset]
            try:
                pt = mat_solve(a, b)
            except SingularMatrixError:
                continue
            pt = tuple(pt)
            if pt in seen:
                continue
            if self.contains(pt):
                seen[pt] = self.active_set(pt)
        verts = [Vertex(coords=c, active=a) for c, a in seen.items()]
        verts.sort(key=lambda v: v.coords)
        return tuple(verts)

    @property
    def face_lattice(self) -> FaceLattice:
        if self._lattice is None:
            self._lattice = self._build_lattice()
        return self._lattice

    def _build_lattice(self):
        verts = self.vertices
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
            rows = [self._num_x[j - 1] for j in index_set]
            p = self.n - (mat_rank(rows) if rows else 0)
            r = len(index_set)
            vids = tuple(i for i, v in enumerate(verts)
                         if js <= set(v.active))
            faces.append(Face(index_set=index_set, dim=p, r=r,
                              singular=r > self.n - p, vertex_ids=vids))
        return FaceLattice(self.n, faces)

    @property
    def is_simple(self) -> bool:
        return not any(f.singular for f in self.face_lattice.faces)

    # -- symbolic vertex coordinates -------------------------------------

    def vertex_point(self, vid: int):
        """Vertex coordinates as Scalars, valid for generic parameters.

        Solves n independent active constraints symbolically, then
        requires the remaining active constraints to vanish as Scalars;
        a nonzero residual means the active set holds only at the
        evaluation point.
        """
        v = self.vertices[vid]
        active = list(v.active)
        # lexicographically first independent n-subset at the eval point
        chosen = []
        chosen_rows = []
        for j in active:
            row = self._num_x[j - 1]
            if mat_rank(chosen_rows + [row]) == len(chosen_rows) + 1:
                chosen.append(j)
                chosen_rows.append(row)
                if len(chosen) == self.n:
                    break
        a = [list(self.normals[j - 1]) for j in chosen]
        b = [self.offsets[j - 1] for j in chosen]
        pt = tuple(mat_solve(a, b))
        for j in active:
            if j in chosen:
                continue
            resid = sum((p * x for p, x in zip(pt, self.normals[j - 1])),
                        self.registry.zero()) - self.offsets[j - 1]
            if not resid.is_zero():
                raise ValidationError(
                    [("degenerate-point",
                      f"constraint {j} meets vertex {vid} only at the "
                      "evaluation point")])
        return pt
