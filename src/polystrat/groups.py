"""Discrete chart groups presented by generators modulo integers.

A group lives on a coordinate support J and is generated by vectors of
Scalars read modulo Z^J.  Presentations stay symbolic; finiteness and
abstract structure are decided under the genericity contract, where a
combination of generators is integral exactly when it is integral as an
identity of rational functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ambient import Quasilattice, admissible_index_sets, \
    basis_coordinates, find_flag_index_set, flag_intersection
from .intlattice import integer_kernel, quotient_structure, solve_integer
from .polytope import Face, HPolytope
from .scalars import Scalar, monomial_rows


@dataclass(frozen=True)
class GroupStructure:
    free_rank: int
    torsion: tuple  # invariant factors > 1, each dividing the next

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self):
        if not self.is_finite:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    @property
    def label(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "trivial"


def _clear_row(row):
    mult = lcm(*(Fraction(x).denominator for x in row)) if row else 1
    return [int(Fraction(x) * mult) for x in row]


class GroupDescriptor:
    """Subgroup of (R/Z)^support generated by Scalar vectors.

    Generators that are integral in every entry are the identity and
    are dropped at construction; the remaining ones are stored exactly
    as handed in, without entry-wise reduction.
    """

    def __init__(self, registry, support, generators):
        self.registry = registry
        self.support = tuple(support)
        gens = []
        for g in generators:
            g = tuple(x if isinstance(x, Scalar) else registry.scalar(x)
                      for x in g)
            if len(g) != len(self.support):
                raise ValueError("generator length does not match support")
            if not all(x.is_integer() for x in g):
                gens.append(g)
        self.generators = tuple(gens)
        self._structure = None

    @property
    def essential_support(self):
        """Labels where some generator is non-integral mod Z."""
        out = []
        for pos, label in enumerate(self.support):
            if any(not g[pos].is_integer() for g in self.generators):
                out.append(label)
        return tuple(out)

    # -- integer linear systems over flattened monomials -----------------

    def _system(self, target=None):
        """Rows of sum_i n_i gen_i + m_c = target over each coordinate.

        Unknown column order: n_1..n_g then one integer shift m_c per
        coordinate.  Returns (rows, rhs) with integer entries, one row
        per (coordinate, monomial) pair after clearing one common
        denominator per coordinate.
        """
        g = len(self.generators)
        k = len(self.support)
        rows, rhs = [], []
        for c in range(k):
            entries = [gen[c] for gen in self.generators]
            if target is not None:
                entries.append(target[c])
            # the last entry 1 = Q_c / Q_c gives the shift's coefficients
            for mrow in monomial_rows(entries + [self.registry.one()]):
                shifts = [Fraction(0)] * k
                shifts[c] = mrow[-1]
                b = mrow[g] if target is not None else Fraction(0)
                full = _clear_row(mrow[:g] + shifts + [b])
                rows.append(full[:-1])
                rhs.append(full[-1])
        return rows, rhs

    def contains(self, vec) -> bool:
        """Membership of a Scalar vector (mod Z) in the generated group."""
        vec = tuple(x if isinstance(x, Scalar) else self.registry.scalar(x)
                    for x in vec)
        if len(vec) != len(self.support):
            raise ValueError("vector length does not match support")
        if not self.generators:
            return all(x.is_integer() for x in vec)
        rows, rhs = self._system(target=vec)
        return solve_integer(rows, rhs) is not None

    def same_group(self, other: "GroupDescriptor") -> bool:
        if self.support != other.support:
            return False
        return (all(self.contains(g) for g in other.generators)
                and all(other.contains(g) for g in self.generators))

    def project(self, sub_support) -> "GroupDescriptor":
        """Coordinate projection onto a subset of the support."""
        sub = tuple(sub_support)
        pos = [self.support.index(s) for s in sub]
        return GroupDescriptor(
            self.registry, sub,
            [tuple(g[i] for i in pos) for g in self.generators])

    def structure(self) -> GroupStructure:
        if self._structure is None:
            self._structure = self._compute_structure()
        return self._structure

    def _compute_structure(self) -> GroupStructure:
        g = len(self.generators)
        if g == 0:
            return GroupStructure(free_rank=0, torsion=())
        rows, _ = self._system()
        kernel = integer_kernel(rows) if rows else \
            [[1 if i == j else 0 for j in range(g + len(self.support))]
             for i in range(g + len(self.support))]
        relations = [vec[:g] for vec in kernel]
        free, torsion = quotient_structure(relations, g)
        return GroupStructure(free_rank=free, torsion=tuple(torsion))


def gamma_group(p: HPolytope, q: Quasilattice, index_set) -> GroupDescriptor:
    """Gamma_I: the quasilattice modulo the Z-span of {X_h : h in I}.

    Generators are the coordinates of each quasilattice generator in the
    I-basis; when the quasilattice is generated by the normals these are
    the columns of A_I.  I must be admissible.
    """
    i_sorted = tuple(sorted(index_set))
    if i_sorted not in admissible_index_sets(p):
        raise ValueError(f"{i_sorted} is not an admissible index set")
    coords = basis_coordinates(p, q, i_sorted)
    return GroupDescriptor(p.registry, i_sorted, coords)


def gamma_face_group(p: HPolytope, q: Quasilattice, face: Face,
                     index_set) -> GroupDescriptor:
    """Gamma_{I cap I_F}: intersection of the face span with the quasilattice,
    modulo the Z-span of {X_h : h in I cap I_F}.

    An integer combination of quasilattice generators lies in the span
    of the face normals exactly when its I-basis coordinates outside
    I cap I_F vanish; with generic parameters that is a per-monomial
    integer kernel.
    """
    i_sorted = tuple(sorted(index_set))
    common = flag_intersection(p, face, i_sorted)
    coords = basis_coordinates(p, q, i_sorted)
    g = len(coords)
    rows = [_clear_row(row) for pos, h in enumerate(i_sorted)
            if h not in common
            for row in monomial_rows([c[pos] for c in coords])]
    if rows:
        kernel = integer_kernel(rows)
    else:
        kernel = [[1 if i == j else 0 for j in range(g)] for i in range(g)]

    keep = [pos for pos, h in enumerate(i_sorted) if h in common]
    gens = []
    for combo in kernel:
        vec = []
        for pos in keep:
            vec.append(sum((coords[i][pos] * combo[i] for i in range(g)),
                           p.registry.zero()))
        gens.append(tuple(vec))
    return GroupDescriptor(p.registry, common, gens)


@dataclass(frozen=True)
class SplitGamma:
    """Gamma_I split along a face into its two coordinate projections.

    pairs tracks, per original generator of Gamma_I, the (face part,
    complement part) images; it is the graph of the epimorphism from
    the complement factor onto the face factor modulo Gamma_{I cap I_F}.
    """

    face_part: GroupDescriptor  # on I cap I_F
    complement_part: GroupDescriptor  # on I minus I cap I_F
    pairs: tuple


def split_gamma(p: HPolytope, q: Quasilattice, face: Face,
                index_set) -> SplitGamma:
    i_sorted = tuple(sorted(index_set))
    common = flag_intersection(p, face, i_sorted)
    rest = tuple(h for h in i_sorted if h not in common)
    gamma = gamma_group(p, q, i_sorted)
    face_part = gamma.project(common)
    complement_part = gamma.project(rest)
    pos_c = [i_sorted.index(h) for h in common]
    pos_r = [i_sorted.index(h) for h in rest]
    pairs = tuple(
        (tuple(g[i] for i in pos_c), tuple(g[i] for i in pos_r))
        for g in gamma.generators)
    return SplitGamma(face_part=face_part, complement_part=complement_part,
                      pairs=pairs)


def stabilizer_dim(face: Face, n: int) -> int:
    """Dimension r_F - n + p of the stabilizer group at the face."""
    return face.r - n + face.dim


@dataclass(frozen=True)
class StabilizerReport:
    face_index_set: tuple
    dim: int
    index_set: tuple  # the I realizing the flag condition
    vertex_id: int


def stabilizer_report(p: HPolytope, face: Face) -> StabilizerReport:
    i_set, vid = find_flag_index_set(p, face)
    return StabilizerReport(face_index_set=face.index_set,
                            dim=stabilizer_dim(face, p.n),
                            index_set=i_set, vertex_id=vid)


def group_structure(g: GroupDescriptor) -> GroupStructure:
    return g.structure()
