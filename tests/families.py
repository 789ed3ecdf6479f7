"""Seeded families of nonsimple polytopes, as integer H-representations.

Each generator takes a random.Random and returns (normals, offsets) for
{x : <normal, x> >= offset}, with one row per facet:

* a pyramid over a random convex polygon with at least four corners,
  with an apex anywhere above the plane of the base, is nonsimple at
  the apex;
* a bipyramid over such a polygon, with one apex above and one below
  two points inside it, is nonsimple at every corner of the polygon;
* a prism over a polygon is simple, and a prism over a pyramid is
  nonsimple along the apex edge.

The polygon is the convex hull of a few random integer points, scaled
by its number of corners so that its vertex average is an integer
point.
"""

import math

KINDS = ("pyramid", "bipyramid", "polygon-prism", "pyramid-prism")


def _hull(points):
    """Corners of the convex hull, counterclockwise, collinear ones dropped
    (Andrew's monotone chain)."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pts = sorted(set(points))
    chain = []
    for seq in (pts, pts[::-1]):
        part = []
        for q in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], q) <= 0:
                part.pop()
            part.append(q)
        chain += part[:-1]
    return chain


def polygon(rng):
    """(normals, offsets, center): a convex integer polygon with k >= 4
    corners and its integer vertex average."""
    while True:
        corners = _hull([(rng.randint(-4, 4), rng.randint(-4, 4))
                         for _ in range(rng.randint(5, 9))])
        if len(corners) >= 4:
            break
    k = len(corners)
    corners = [(k * x, k * y) for x, y in corners]
    normals, offsets = [], []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        a = (y0 - y1, x1 - x0)  # the inner normal of a counterclockwise edge
        g = math.gcd(*a)
        normals.append([a[0] // g, a[1] // g])
        offsets.append((a[0] * x0 + a[1] * y0) // g)
    center = [sum(x for x, _y in corners) // k,
              sum(y for _x, y in corners) // k]
    return normals, offsets, center


def _cone_rows(normals, offsets, apex, h):
    """The side facets of the cone from (apex, h) over the polygon at z = 0:
    h <a, (x, y)> + z (b - <a, apex>) >= h b, tight on the edge and apex."""
    return ([[h * a[0], h * a[1], b - a[0] * apex[0] - a[1] * apex[1]]
             for a, b in zip(normals, offsets)],
            [h * b for b in offsets])


def pyramid(rng):
    normals, offsets, center = polygon(rng)
    apex = [center[0] + rng.randint(-9, 9), center[1] + rng.randint(-9, 9)]
    rows, rhs = _cone_rows(normals, offsets, apex, rng.randint(1, 5))
    return rows + [[0, 0, 1]], rhs + [0]


def bipyramid(rng):
    normals, offsets, center = polygon(rng)
    inside = [center]
    while len(inside) < 2:
        # a second point strictly inside, so that the apexes' segment
        # crosses the polygon's interior
        q = [center[0] + rng.randint(-2, 2), center[1] + rng.randint(-2, 2)]
        if all(a[0] * q[0] + a[1] * q[1] > b
               for a, b in zip(normals, offsets)):
            inside.append(q)
    up, up_rhs = _cone_rows(normals, offsets, inside[0], rng.randint(1, 5))
    down, down_rhs = _cone_rows(normals, offsets, inside[1],
                                -rng.randint(1, 5))
    # the lower cone's rows, written for h < 0, hold with the sign flipped
    down = [[-x for x in row] for row in down]
    down_rhs = [-b for b in down_rhs]
    return up + down, up_rhs + down_rhs


def prism(base, rng):
    """base x [0, h] for a base (normals, offsets)."""
    normals, offsets = base
    h = rng.randint(1, 5)
    return ([row + [0] for row in normals]
            + [[0] * len(normals[0]) + [1], [0] * len(normals[0]) + [-1]],
            list(offsets) + [0, -h])


def family(rng, kind):
    """One polytope of the kind "pyramid", "bipyramid", "polygon-prism" or
    "pyramid-prism"."""
    if kind == "pyramid":
        return pyramid(rng)
    if kind == "bipyramid":
        return bipyramid(rng)
    if kind == "polygon-prism":
        return prism(polygon(rng)[:2], rng)
    if kind == "pyramid-prism":
        return prism(pyramid(rng), rng)
    raise ValueError(f"unknown kind {kind!r}")
