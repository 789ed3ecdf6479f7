"""The pulling triangulation that verification samples are drawn from.

The library triangulates on the face lattice and weighs each simplex by
an integer determinant; tests/oracles.py finds the same triangulation on
Fraction slacks and sympy determinants.  The volumes are checked against
scipy's convex hull and closed forms, the samples against the exact
constraints, and their distribution against the bounding-box rejection
sampler that the triangulation replaced.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from families import KINDS, family
from oracles import box_sample_polytope_points, frac_contains, \
    pulling_triangulation
from scipy.spatial import ConvexHull

import polystrat.charts as C
from polystrat.polytope import HPolytope
from polystrat.report import parse_spec
from polystrat.scalars import ParamRegistry

FIXTURES = ("pyramid", "tent", "pyramid_unit", "tent_unit", "cube3",
            "simplex3")


def standard_simplex(n):
    """x_i >= 0, sum x_i <= 1."""
    return HPolytope(ParamRegistry([]),
                     [[int(i == j) for j in range(n)] for i in range(n)]
                     + [[-1] * n], [0] * n + [-1])


def _family_polytopes():
    rng = random.Random("triangulation")
    return [HPolytope(ParamRegistry([]), *family(rng, kind))
            for kind in KINDS for _ in range(2)]


@pytest.fixture(scope="module")
def polytopes(request):
    """The six fixtures, two seeded polytopes of each family kind and the
    standard 4-simplex."""
    return ([request.getfixturevalue(name)[0] for name in FIXTURES]
            + _family_polytopes() + [standard_simplex(4)])


def _volumes(p):
    """The library's simplex volumes times n! D^n, from the cumulative sums."""
    _den, _columns, cumulative = C._triangulation(p)
    return [b - a for a, b in zip([0] + cumulative, cumulative)]


def _volume(p):
    den, _columns, cumulative = C._triangulation(p)
    return Fraction(cumulative[-1], factorial(p.n) * den ** p.n)


def test_triangulation_matches_the_fraction_oracle(polytopes):
    for p in polytopes:
        simplices, volumes = pulling_triangulation(p)
        assert C._pulling_simplices(p) == simplices
        assert _volumes(p) == volumes
        assert all(volumes)


def test_volumes_sum_to_the_hull_volume(polytopes):
    for p in polytopes:
        hull = ConvexHull([[float(x) for x in v.coords] for v in p.vertices])
        assert float(_volume(p)) == pytest.approx(hull.volume, rel=1e-12)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_cross_polytope_volume_is_the_closed_form(n, bench_inputs):
    # |p1 mu_1| + |mu_2| + ... + |mu_n| <= 1 after a signed permutation:
    # the cross-polytope's 2^n / n!, over the p1 scale
    p, _q, _options = parse_spec(bench_inputs.cross_polytope(
        n, random.Random(n)))
    scale = p.registry.value("p1")
    assert _volume(p) == Fraction(2 ** n, factorial(n)) / scale


@pytest.mark.parametrize("n", (2, 8, 10))
def test_simplex_is_one_simplex_of_its_volume(n):
    p = standard_simplex(n)
    assert C._pulling_simplices(p) == [tuple(range(n + 1))]
    assert _volume(p) == Fraction(1, factorial(n))


def test_samples_lie_inside_exactly(polytopes):
    rng = random.Random(107)
    for p in polytopes + [standard_simplex(8)]:
        for strict in (True, False):
            for pt in C.sample_polytope_points(p, 30, rng, strict=strict):
                assert frac_contains(p, pt, strict=strict)


def _mean(points):
    return [sum(map(float, col)) / len(points) for col in zip(*points)]


def _slack_histograms(p, points, bins):
    """Per constraint, the share of points in each of bins equal steps of
    the slack from 0 to its largest value over the vertices."""
    top = [max(col) for col in zip(*(p.slacks(v.coords)
                                     for v in p.vertices))]
    hists = []
    for j, m in enumerate(top):
        counts = [0] * bins
        for pt in points:
            counts[min(bins - 1, int(p.slacks(pt)[j] / m * bins))] += 1
        hists.append([c / len(points) for c in counts])
    return hists


@pytest.mark.parametrize("name", ("tent", "pyramid"))
def test_sampler_agrees_with_the_box_oracle_in_distribution(name, request):
    # 1,000 closed samples from each sampler, seeded.  On these inputs a
    # coordinate's mean has a standard error below 0.8 % of the box
    # width for each sampler, so the difference has one below 1.2 % and
    # the bound of 6 % is five of them.  A histogram share has a
    # standard error of at most 1.6 % for each (at a share of one half),
    # so the difference has at most 2.3 % and the bound of 8 % is over
    # three of them
    p = request.getfixturevalue(name)[0]
    count = 1000
    tri = C.sample_polytope_points(p, count, random.Random(109),
                                   strict=False)
    box = box_sample_polytope_points(p, count, random.Random(113),
                                     strict=False, grid=C._GRID)
    widths = [float(max(c) - min(c))
              for c in zip(*(v.coords for v in p.vertices))]
    for a, b, w in zip(_mean(tri), _mean(box), widths):
        assert abs(a - b) <= 0.06 * w
    for h_tri, h_box in zip(_slack_histograms(p, tri, 5),
                            _slack_histograms(p, box, 5)):
        assert max(abs(a - b) for a, b in zip(h_tri, h_box)) <= 0.08


class CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""

    draws = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("name", ("tent", "simplex8"))
def test_draws_per_sample_are_few(name, request):
    # n draws of 13 bits, each redrawn above _GRID about as often as
    # not, a simplex pick when there are several, and a rare redraw of
    # all n on a zero weight: at most 3 (n + 1) per sample on average.
    # The box sampler drew 249 per sample on tent
    p = (standard_simplex(8) if name == "simplex8"
         else request.getfixturevalue(name)[0])
    count = 2000
    for strict in (True, False):
        rng = CountingRandom(127)
        C.sample_polytope_points(p, count, rng, strict=strict)
        assert rng.draws <= 3 * (p.n + 1) * count
