"""Generic projection of an embedded polygon in R^3 to the plane.

The projection sends (x, y, z) to its shadow (x + s1*z, y + s2*z), with
rational slopes (s1, s2) chosen so that the shadow is a proper diagram:
edges never overlap, all contacts between non-adjacent edges are
transverse interior crossings, crossing points are pairwise distinct
and avoid every projected vertex.  Heights stay the polygon's own.
Shadow and crossing points are canonical integer forms (x w, y w, w)
(geom.homogeneous), sheared and cut straight from the polygon's forms;
edge parameters and heights are rationals.

A Diagram carries the slopes, the shadow of every vertex, the crossing
list with over/under resolution and signs, and the walk: the cyclic
node sequence encountered while traversing the polygon, with each
crossing visited exactly twice.
"""

from __future__ import annotations

import random

from .geom import (Rat, ZERO, _primitive, key_boxes, overlapping_pairs,
                   seg_intersect_2d, sign)
from .polygon import ClosedPolygon


class Crossing:
    __slots__ = ("index", "over_edge", "under_edge", "over_param",
                 "under_param", "pos", "sign")

    def __init__(self, index, over_edge, under_edge, over_param, under_param,
                 pos, sgn):
        self.index = index
        self.over_edge = over_edge
        self.under_edge = under_edge
        self.over_param = over_param
        self.under_param = under_param
        self.pos = pos          # planar integer form
        self.sign = sgn


class WalkNode:
    """One stop along the traversal of the projected polygon.

    kind 'vertex' marks an original corner; kind 'cross' marks the
    passage of this strand through a crossing, with role 'over' or
    'under'.  seifert adds kind 'mark', one of the four vertices placed
    around a crossing, with role naming the strand end ('in_over', ...).
    pos is the planar position as an integer form, z the exact height
    of the strand there, param the position along the current edge.
    """

    __slots__ = ("kind", "ref", "role", "edge", "param", "pos", "z")

    def __init__(self, kind, ref, role, edge, param, pos, z):
        self.kind = kind
        self.ref = ref
        self.role = role
        self.edge = edge
        self.param = param
        self.pos = pos
        self.z = z


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


def _cross_h(p, q) -> tuple:
    """Cross product of two homogeneous planar points: the line through
    them, whose dot product with a third point r is det(p, q, r)."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _crossing_h(a, b, c, d):
    """(t, u, point, sign) of the proper crossing of segments [a, b] and
    [c, d], given in homogeneous form: no endpoint lies on the other
    segment's line.  point is the crossing's canonical form.

    With O(p, q, r) = det(p, q, r), the crossing is the homogeneous
    point O(c,d,a) b - O(c,d,b) a, at t = O(c,d,a) w_b / (O(c,d,a) w_b -
    O(c,d,b) w_a) along [a, b], and u likewise along [c, d].  sign is
    that of (b - a) x (d - c), which is O(a,b,d)'s: the crossing puts c
    and d on opposite sides of [a, b]."""
    cd = _cross_h(c, d)
    ab = _cross_h(a, b)
    oa, ob, oc, od = _dot(cd, a), _dot(cd, b), _dot(ab, c), _dot(ab, d)
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

    With s_k = a_k / b_k, the shadow of the form (X, Y, Z, W) is
    (X b1 b2 + a1 Z b2, Y b1 b2 + a2 Z b1, W b1 b2), made canonical.
    The identity is tried first; afterwards slopes are drawn uniformly
    from the grid {k/1024 : |k| <= 1024}.  Raises if the budget runs out,
    which for an embedded polygon means the budget was simply too small:
    bad slope pairs lie on finitely many curves.
    """
    if poly.dim != 3:
        raise ValueError("projection needs a polygon in R^3")
    rng = random.Random(seed)
    den = 1024
    tried = set()
    for k in range(budget):
        if k == 0:
            s1 = s2 = ZERO
        else:
            s1 = Rat(rng.randint(-den, den), den)
            s2 = Rat(rng.randint(-den, den), den)
        if (s1, s2) in tried:
            continue
        tried.add((s1, s2))
        a1, b1, a2, b2 = (s1.numerator, s1.denominator, s2.numerator,
                          s2.denominator)
        bb = b1 * b2
        shadow = [_primitive((x * bb + a1 * z * b2, y * bb + a2 * z * b1,
                              w * bb)) for x, y, z, w in poly.hom]
        problem, crossings = _projection_problems(shadow)
        if problem is None:
            return (s1, s2), shadow, crossings
    raise AssertionError("no generic projection found within budget")


def project_polygon(poly: ClosedPolygon, seed: int = 0,
                    budget: int = 1000) -> Diagram:
    """Diagram of the polygon under a generic projection.

    The slopes, shadow and crossings are find_general_position's.  A
    strand's height at a crossing or walk stop is poly's own height
    there, interpolated along its edge.
    """
    slopes, shadow, hits = find_general_position(poly, seed, budget)
    verts = poly.vertices
    n = len(shadow)

    def z_at(edge, t):
        za = verts[edge][2]
        zb = verts[(edge + 1) % n][2]
        return za + t * (zb - za)

    crossings = []
    per_edge: dict[int, list] = {i: [] for i in range(n)}
    for i, j, t, u, pos, sgn in hits:
        zi, zj = z_at(i, t), z_at(j, u)
        if zi == zj:
            raise AssertionError("strands meet in space; polygon "
                                 "was not embedded")
        if zi > zj:
            over_edge, under_edge, tp, up = i, j, t, u
            z_over, z_under = zi, zj
        else:
            over_edge, under_edge, tp, up = j, i, u, t
            z_over, z_under = zj, zi
            sgn = -sgn  # the sign is edge i's direction crossed with j's
        idx = len(crossings)
        crossings.append(Crossing(idx, over_edge, under_edge, tp, up, pos,
                                  sgn))
        per_edge[over_edge].append((tp, idx, "over", z_over))
        per_edge[under_edge].append((up, idx, "under", z_under))

    walk = []
    for i in range(n):
        walk.append(WalkNode("vertex", i, None, i, ZERO, shadow[i],
                             verts[i][2]))
        for t, idx, role, z in sorted(per_edge[i], key=lambda e: e[0]):
            walk.append(WalkNode("cross", idx, role, i, t,
                                 crossings[idx].pos, z))
    return Diagram(poly, slopes, shadow, crossings, walk)
