"""Generic projection of an embedded polygon in R^3 to the plane.

The projection sends (x, y, z) to its shadow (x + s1*z, y + s2*z), with
rational slopes (s1, s2) chosen so that the shadow is a proper diagram:
edges never overlap, all contacts between non-adjacent edges are
transverse interior crossings, crossing points are pairwise distinct
and avoid every projected vertex.  Heights stay the polygon's own.
Shadow and crossing points are canonical integer forms (x w, y w, w)
(geom.homogeneous), sheared (geom._shear) and cut straight from the
polygon's forms, and each walk stop carries its point on the polygon
as a canonical R^3 form.  Only a crossing's parameters along its two
edges are rationals; they order each edge's stops.

A Diagram carries the slopes, the shadow of every vertex, the crossing
list with over/under resolution and signs, and the walk: the cyclic
node sequence encountered while traversing the polygon, with each
crossing visited exactly twice.
"""

from __future__ import annotations

import random

from .geom import (Rat, ZERO, _between, _line_2d, _primitive, _shear,
                   key_boxes, overlapping_pairs, seg_intersect_2d, sign)


class Crossing:
    __slots__ = ("index", "over_edge", "under_edge", "pos", "sign")

    def __init__(self, index, over_edge, under_edge, pos, sgn):
        self.index = index
        self.over_edge = over_edge
        self.under_edge = under_edge
        self.pos = pos          # planar integer form
        self.sign = sgn


class WalkNode:
    """One stop along the traversal of the projected polygon.

    kind 'vertex' marks an original corner; kind 'cross' marks the
    passage of this strand through a crossing, with role 'over' or
    'under'.  seifert adds kind 'mark', one of the four vertices placed
    around a crossing, with role naming the strand end ('in_over', ...).
    point is the stop's point on the polygon, on its edge, as a
    canonical R^3 form, and pos its shadow, _shear(point, slopes).
    """

    __slots__ = ("kind", "ref", "role", "edge", "pos", "point")

    def __init__(self, kind, ref, role, edge, pos, point):
        self.kind = kind
        self.ref = ref
        self.role = role
        self.edge = edge
        self.pos = pos
        self.point = point


class Diagram:
    def __init__(self, polygon, slopes, shadow, crossings, walk):
        self.polygon = polygon        # the polygon as given
        self.slopes = slopes          # (s1, s2) of the projection
        self.shadow = shadow          # planar form per polygon vertex
        self.crossings = crossings
        self.walk = walk              # list of WalkNode, cyclic order

    @property
    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)


def _crossing_h(a, b, c, d):
    """(t, u, point, sign) of the proper crossing of segments [a, b] and
    [c, d], given in homogeneous form: no endpoint lies on the other
    segment's line.  point is the crossing's canonical form.

    With O(p, q, r) = det(p, q, r), the crossing is the homogeneous
    point O(c,d,a) b - O(c,d,b) a, at t = O(c,d,a) w_b / (O(c,d,a) w_b -
    O(c,d,b) w_a) along [a, b], and u likewise along [c, d].  sign is
    that of (b - a) x (d - c), which is O(a,b,d)'s: the crossing puts c
    and d on opposite sides of [a, b]."""
    l0, l1, l2 = _line_2d(c, d)
    m0, m1, m2 = _line_2d(a, b)
    oa = l0 * a[0] + l1 * a[1] + l2 * a[2]
    ob = l0 * b[0] + l1 * b[1] + l2 * b[2]
    oc = m0 * c[0] + m1 * c[1] + m2 * c[2]
    od = m0 * d[0] + m1 * d[1] + m2 * d[2]
    x, y, w = (oa * p - ob * q for p, q in zip(b, a))
    t = Rat(oa * b[2], oa * b[2] - ob * a[2])
    u = Rat(oc * d[2], oc * d[2] - od * c[2])
    return t, u, _primitive((x, y, w)), sign(od)


def _projection_problems(hom: list[tuple]):
    """(first violated general-position condition, None) or, when the
    shadow with canonical forms hom is clean, (None, crossings): the
    (i, j, t, u, point, sign) of every pair of non-adjacent edges that
    cross, in pair order, as _crossing_h gives them.

    Candidate pairs come from geom.overlapping_pairs, and one
    seg_intersect_2d call on the integer forms decides each of them:
    adjacent edges may touch only at their corner, other edges may only
    cross."""
    n = len(hom)
    crossings = []
    for i in range(n):
        if hom[i] == hom[(i + 1) % n]:
            return "edge %d projects to a point" % i, None
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i, j in overlapping_pairs(key_boxes(hom, edges)):
        a, b, c, d = i, (i + 1) % n, j, (j + 1) % n
        kind = seg_intersect_2d(hom, a, b, c, d)
        if kind is None or (kind == "touch" and {a, b} & {c, d}):
            continue
        if kind == "cross":
            crossings.append((i, j) + _crossing_h(hom[a], hom[b], hom[c],
                                                  hom[d]))
        elif kind == "overlap":
            return "edges %d,%d overlap in projection" % (i, j), None
        else:
            return "edges %d,%d touch at an endpoint" % (i, j), None
    # No crossing hits a projected vertex v: v would lie inside crossing
    # edge i, apart from its ends, and at most one of the two edges at v
    # is adjacent to i (both only for n = 3, which has no crossings), so
    # the other touches i at an endpoint, a problem returned above.
    seen = set()
    for *_, point, _ in crossings:
        if point in seen:
            return "two crossings coincide", None
        seen.add(point)
    return None, crossings


def find_general_position(poly: ClosedPolygon, seed: int = 0,
                          budget: int = 1000):
    """The slopes (s1, s2) making the shadow (x + s1*z, y + s2*z) of
    poly's vertices a proper diagram, that shadow's forms, and its
    crossings, as _projection_problems lists them.

    The shadow of each vertex is geom._shear of its form.  The identity
    is tried first; afterwards slopes are drawn uniformly from the grid
    {k/1024 : |k| <= 1024}.  Raises if the budget runs out, which for an
    embedded polygon means the budget was simply too small: bad slope
    pairs lie on finitely many curves.
    """
    if poly.dim != 3:
        raise ValueError("projection needs a polygon in R^3")
    rng = random.Random(seed)
    den = 1024
    for k in range(budget):
        if k == 0:
            s1 = s2 = ZERO
        else:
            s1 = Rat(rng.randint(-den, den), den)
            s2 = Rat(rng.randint(-den, den), den)
        shadow = [_shear(h, (s1, s2)) for h in poly.hom]
        problem, crossings = _projection_problems(shadow)
        if problem is None:
            return (s1, s2), shadow, crossings
    raise AssertionError("no generic projection found within budget")


def project_polygon(poly: ClosedPolygon, seed: int = 0) -> Diagram:
    """Diagram of the polygon under a generic projection.

    The slopes, shadow and crossings are find_general_position's, on
    its default budget of 1000 slope pairs.  A corner stop's point is
    poly's own form; a strand's point at a crossing is cut from its
    edge's corner forms at the crossing's parameter, and the over strand
    is the one whose point is higher.
    """
    slopes, shadow, hits = find_general_position(poly, seed)
    hom = poly.hom
    n = len(shadow)

    def point_at(edge, t):
        return _between(hom[edge], hom[(edge + 1) % n], t.numerator,
                        t.denominator)

    crossings = []
    per_edge: dict[int, list] = {i: [] for i in range(n)}
    for i, j, t, u, pos, sgn in hits:
        pi, pj = point_at(i, t), point_at(j, u)
        # the heights z_i - z_j, times the positive weights
        rise = pi[2] * pj[3] - pj[2] * pi[3]
        if rise == 0:
            raise AssertionError("strands meet in space; polygon "
                                 "was not embedded")
        if rise > 0:
            over_edge, under_edge, tp, up, p_over, p_under = i, j, t, u, pi, pj
        else:
            over_edge, under_edge, tp, up, p_over, p_under = j, i, u, t, pj, pi
            sgn = -sgn  # the sign is edge i's direction crossed with j's
        idx = len(crossings)
        crossings.append(Crossing(idx, over_edge, under_edge, pos, sgn))
        per_edge[over_edge].append((tp, idx, "over", p_over))
        per_edge[under_edge].append((up, idx, "under", p_under))

    walk = []
    for i in range(n):
        walk.append(WalkNode("vertex", i, None, i, shadow[i], hom[i]))
        for _, idx, role, point in sorted(per_edge[i], key=lambda e: e[0]):
            walk.append(WalkNode("cross", idx, role, i, crossings[idx].pos,
                                 point))
    return Diagram(poly, slopes, shadow, crossings, walk)
