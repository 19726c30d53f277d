"""Closed polygons in R^d and the built-in example generators.

A closed polygon is a cyclic list of points; edge i joins vertex i to
vertex i+1 (mod n).  It is its corners' canonical integer forms,
ClosedPolygon.hom, from the file (read_polygon, polygon_text) to every
reader; vertices makes Points from them when read.  Embeddedness means
any two edges meet only in a shared endpoint.  The generators return
polygons that are re-verified exactly before being handed out, so
downstream code may assume embedded input.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from .diagram import project_polygon
from .geom import (
    Point,
    _form,
    _point,
    _primitive,
    _ratio,
    homogeneous,
    independent,
    key_boxes,
    overlapping_pairs,
    rat,
    seg_pair_clear_h,
    simplex_intersect,
)
from .mesh import _hull_contact_clean, _ratio_text, _require


class ClosedPolygon:
    def __init__(self, corners: Sequence):
        # integer forms (x_1 w, ..., x_d w, w), any w != 0, or Points,
        # made canonical (w minimal), so that they compare as points
        hom = []
        for i, c in enumerate(corners):
            if not isinstance(c, Point) and not c[-1]:
                raise ValueError("corner %d has weight 0: no point" % i)
            hom.append(homogeneous(c) if isinstance(c, Point)
                       else _primitive(c))
        if len(hom) < 3:
            raise ValueError("a closed polygon needs at least 3 vertices")
        dim = len(hom[0]) - 1
        if any(len(h) != dim + 1 for h in hom):
            raise ValueError("mixed vertex dimensions")
        if dim < 2:
            raise ValueError("polygon dimension must be at least 2")
        for i, h in enumerate(hom):
            if h == hom[(i + 1) % len(hom)]:
                raise ValueError("repeated consecutive vertex %d" % i)
        self.hom = hom
        self.dim = dim

    @property
    def vertices(self) -> list[Point]:
        """The corners as Points, made from the forms on each read."""
        return [_point(h) for h in self.hom]

    def __len__(self) -> int:
        return len(self.hom)

    def edge(self, i: int) -> tuple[Point, Point]:
        n = len(self.hom)
        return _point(self.hom[i % n]), _point(self.hom[(i + 1) % n])

    def zero_turns(self) -> list[int]:
        """Vertices where the two incident edges are parallel: the forms
        of the vertex and its two neighbours are not independent."""
        hom = self.hom
        n = len(hom)
        return [i for i in range(n) if not independent(
            [hom[i - 1], hom[i], hom[(i + 1) % n]])]

    def __repr__(self):
        return "ClosedPolygon(n=%d, dim=%d)" % (len(self.hom), self.dim)


class PolygonViolation:
    """Two edges meeting away from a shared endpoint."""

    __slots__ = ("edge_a", "edge_b", "point")

    def __init__(self, edge_a: int, edge_b: int, point: Point):
        self.edge_a = edge_a
        self.edge_b = edge_b
        self.point = point

    def __repr__(self):
        return "PolygonViolation(%d, %d, %r)" % (self.edge_a, self.edge_b,
                                                 self.point)


def validate_embedded(poly: ClosedPolygon) -> Optional[PolygonViolation]:
    """Exact pairwise edge check; None when the polygon is embedded.

    Decided on the corners' forms in poly.hom.  Candidate pairs come
    from the one sweep, geom.overlapping_pairs, over the edges' exact
    bounding boxes, and are visited in index order.
    Two edges share the vertex their index sets share.  Planar pairs are
    cleared by orientation signs, pairs in R^d, d >= 3, by the simplex
    pair test (mesh._hull_contact_clean), which decides adjacent pairs
    and pairs in a plane, in R^3 a skew pair by one determinant;
    simplex_intersect decides the rest and builds the witness.
    """
    hom = poly.hom
    n = len(hom)
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i, j in overlapping_pairs(key_boxes(hom, edges)):
        ea, eb = edges[i], edges[j]
        shared = set(ea).intersection(eb)
        if poly.dim == 2:
            if seg_pair_clear_h(hom, *ea, *eb):
                continue
        elif _hull_contact_clean(hom, ea, eb, shared):
            continue
        w = simplex_intersect(poly.edge(i), poly.edge(j),
                              [_point(hom[v]) for v in shared])
        if w is not None:
            return PolygonViolation(i, j, w)
    return None


# ---------------------------------------------------------------------------
# file format

def polygon_text(poly: ClosedPolygon) -> str:
    lines = ["pl-polygon %d %d" % (poly.dim, len(poly))]
    for h in poly.hom:
        lines.append(" ".join(_ratio_text(c, h[-1]) for c in h[:-1]))
    return "\n".join(lines) + "\n"


def write_polygon(poly: ClosedPolygon, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(polygon_text(poly))


def read_polygon(path: str) -> ClosedPolygon:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty pl-polygon file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "pl-polygon":
        raise ValueError("not a pl-polygon file")
    dim, n = int(head[1]), int(head[2])
    if len(lines) != 1 + n:
        raise ValueError("vertex count does not match header")
    forms = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != dim:
            raise ValueError("bad vertex line: %r" % ln)
        forms.append(_form([_ratio(tok) for tok in toks]))
    return ClosedPolygon(forms)


# ---------------------------------------------------------------------------
# exact points on a circle

def _circle_forms(angles, denom):
    """Integer forms (x, y, w) of points exactly on the unit circle, one
    per angle (radians, float guidance only): the half-angle tangent is
    snapped to k / D, D = denom, giving (D^2 - k^2, 2 D k, D^2 + k^2).
    Angles equal to pi get (-1, 0, 1)."""
    forms = []
    for theta in angles:
        theta = theta % (2 * math.pi)
        if abs(theta - math.pi) < 1e-12:
            forms.append((-1, 0, 1))
            continue
        k = round(math.tan(theta / 2) * denom)
        forms.append((denom * denom - k * k, 2 * denom * k,
                      denom * denom + k * k))
    return forms


def gen_planar_ngon(n: int, dim: int = 2, radius=1) -> ClosedPolygon:
    """Strictly convex n-gon with vertices exactly on a rational circle.

    dim 2 gives planar points; dim 3 embeds them at height zero.  A
    negative radius gives the same polygon turned by pi.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if dim not in (2, 3):
        raise ValueError("planar generator supports dim 2 or 3")
    r = rat(radius)
    if not r:
        raise ValueError("radius must be nonzero")
    p, q = r.numerator, r.denominator
    forms = [_primitive((p * x, p * y) + (0,) * (dim - 2) + (q * w,))
             for x, y, w in _circle_forms(
                 [2 * math.pi * k / n for k in range(n)], 1 << 14)]
    if len(set(forms)) != n:
        raise ValueError("angle snapping collided; raise the denominator")
    poly = ClosedPolygon(forms)
    if validate_embedded(poly) is not None:
        raise AssertionError("convex circle polygon failed embedding check")
    if poly.zero_turns():
        raise AssertionError("convex circle polygon has a zero turn")
    return poly


# ---------------------------------------------------------------------------
# knotted examples

def gen_torus_stick(m: int) -> ClosedPolygon:
    """Stick realization of the (m, m-1) torus knot with 2m edges.

    2m vertices zig-zag between an outer circle at height +1 and an
    inner circle at height -1 while the angle advances pi*(m-1)/m per
    step, closing up after m-1 turns around the axis.  Placing the
    bottom vertices slightly off the angular midpoint breaks a
    reflective symmetry that would otherwise make half the crossings
    degenerate, and picks the resolution with uniform crossing handedness:
    the shadow's writhe comes out to exactly m*(m-2), the minimal
    crossing number of this knot, with any surplus crossings in
    cancelling pairs.  m=3 is the trefoil with a 3-crossing shadow.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    want_writhe = m * (m - 2)
    delta = math.pi * (m - 1) / m
    last_error = "no attempt"
    for bias, denom in ((Fraction(-1, 10), 1 << 14),
                        (Fraction(1, 10), 1 << 14),
                        (Fraction(-1, 12), 1 << 15),
                        (Fraction(1, 12), 1 << 15),
                        (Fraction(-1, 8), 1 << 15),
                        (Fraction(1, 8), 1 << 15),
                        (Fraction(-1, 2 * m), 1 << 14),
                        (Fraction(1, 2 * m), 1 << 14)):
        # tops on the circle of radius 2 at height 1, bottoms on the
        # unit circle at height -1
        tops = _circle_forms([2 * delta * j for j in range(m)], denom)
        bottoms = _circle_forms([2 * delta * j + delta * (1 + bias)
                                 for j in range(m)], denom)
        verts = []
        for (xt, yt, wt), (xb, yb, wb) in zip(tops, bottoms):
            verts += [(2 * xt, 2 * yt, wt, wt), (xb, yb, -wb, wb)]
        try:
            poly = ClosedPolygon(verts)
        except ValueError:
            last_error = "degenerate vertices"
            continue
        if validate_embedded(poly) is not None or poly.zero_turns():
            last_error = "self-intersecting layout"
            continue
        try:
            dia = project_polygon(poly, seed=0)
        except AssertionError as exc:
            last_error = str(exc)
            continue
        w = dia.writhe
        surplus = len(dia.crossings) - abs(w)
        if abs(w) == want_writhe and surplus % 2 == 0:
            return poly
        last_error = "writhe %d with %d crossings" % (w, len(dia.crossings))
    raise AssertionError("no working stick layout for m=%d (%s)"
                         % (m, last_error))


def gen_twist_writhe(m: int) -> ClosedPolygon:
    """Grid weave with m+1 straight over-strands crossing m under-strands.

    All m*(m+1) crossings have the same sign, so the projection's writhe
    is m*(m+1), while the vertex count is exactly 6m+3.  Coordinates are
    halves of integers; the two strand layers live at heights +1 and -1
    with connector waypoints at height 0.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    big = m + 1  # right end of every over-strand
    half = rat("1/2")
    verts: list[Point] = []

    def add(x, y, z):
        verts.append(Point([rat(x), rat(y), rat(z)]))

    for i in range(1, m + 1):
        # over-strand i at height +1
        add(0, i, 1)
        add(big, i, 1)
        col = m + 1 - i
        if i == 1:
            pass  # single-segment drop to the first under-strand
        else:
            add(big + 1 + i, -i, 0)  # lower hook waypoint
        # under-strand i at height -1
        add(col, half, -1)
        add(col, m + 1 + half, -1)
        add(-(m - i) - half, m + 2 + (m - i), 0)  # upper hook waypoint
    # last over-strand
    add(0, m + 1, 1)
    add(big, m + 1, 1)
    # return run, well below and around everything
    add(big + m + 3, -m - 2, 0)
    add(-2, -m - 2, 0)

    poly = ClosedPolygon(verts)
    _require(len(verts) == 6 * m + 3, "twist: n != 6m + 3")
    bad = validate_embedded(poly)
    if bad is not None:
        raise AssertionError("twist layout self-intersects: %r" % bad)
    dia = project_polygon(poly, seed=0)
    want = m * (m + 1)
    if len(dia.crossings) != want:
        raise AssertionError("twist layout crossing count %d, wanted %d"
                             % (len(dia.crossings), want))
    if any(c.sign != 1 for c in dia.crossings):
        raise AssertionError("twist layout produced a negative crossing")
    return poly


# ---------------------------------------------------------------------------
# random polygons

def gen_random(n: int, dim: int, seed: int = 0) -> ClosedPolygon:
    """Seed-deterministic embedded polygon with n vertices in R^dim."""
    if n < 3:
        raise ValueError("need n >= 3")
    if dim < 2:
        raise ValueError("need dim >= 2")
    rng = random.Random(seed)
    for attempt in range(400):
        if dim == 2:
            poly = _random_star(n, rng)
        else:
            forms = [[rng.randint(-4 * n, 4 * n) for _ in range(dim)] + [4]
                     for _ in range(n)]
            try:
                poly = ClosedPolygon(forms)
            except ValueError:
                continue
        if poly is not None and validate_embedded(poly) is None \
                and not poly.zero_turns():
            return poly
    raise AssertionError("random polygon sampling kept self-intersecting")


def _random_star(n: int, rng: random.Random) -> Optional[ClosedPolygon]:
    # distinct sorted direction angles with random radii: simple by
    # construction, but re-verified exactly by the caller anyway
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    for a, b in zip(angles, angles[1:]):
        if b - a < 1e-3:
            return None
    forms = []
    for theta in angles:
        # (cos, sin) on the 1/4096 grid times the radius r/8
        r = rng.randint(8, 32)
        forms.append((round(math.cos(theta) * 4096) * r,
                      round(math.sin(theta) * 4096) * r, 4096 * 8))
    try:
        return ClosedPolygon(forms)
    except ValueError:
        return None
