"""Rational reference implementations shared by the tests.

plspan decides these questions another way, or no longer needs them;
the tests keep them to check the package's answers against.
"""

import math
from fractions import Fraction
from operator import mul

from plspan.geom import (
    ONE,
    ZERO,
    Point,
    _bareiss,
    _interval_gap,
    _primitive,
    homogeneous,
    int_nullspace,
    int_rank,
    key_boxes,
    orient2d_h,
    overlapping_pairs,
    rat,
    rat_str,
    rref,
    segment_simplex_meet,
    solution_set,
)
from plspan.mesh import TriMesh, _require, certify
from plspan.otherdims import _embedded_report
from plspan.polygon import ClosedPolygon, validate_embedded


class AffineMap:
    """x -> M x + t with an exactly invertible rational matrix M."""

    __slots__ = ("matrix", "shift")

    def __init__(self, matrix, shift):
        self.matrix = tuple(tuple(rat(e) for e in row) for row in matrix)
        self.shift = tuple(rat(e) for e in shift)
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix) or len(self.shift) != n:
            raise ValueError("affine map must be square with matching shift")

    @property
    def dim(self) -> int:
        return len(self.shift)

    def apply(self, p: Point) -> Point:
        if p.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Point(sum(row[j] * p.coords[j] for j in range(self.dim)) + s
                     for row, s in zip(self.matrix, self.shift))


def _circle_points(angles_rad, radius, denom=1 << 14):
    """Rational points exactly on the circle of the given rational radius,
    the reference for polygon._circle_forms.

    Each requested angle (radians, float guidance only) is snapped to a
    nearby rational tangent-half-angle t, giving the exact point
    (r(1-t^2)/(1+t^2), 2rt/(1+t^2)).  Angles equal to pi get the exact
    point (-r, 0).
    """
    radius = rat(radius)
    pts = []
    for theta in angles_rad:
        theta = theta % (2 * math.pi)
        if abs(theta - math.pi) < 1e-12:
            pts.append((-radius, ZERO))
            continue
        t = Fraction(round(math.tan(theta / 2) * denom), denom)
        one_pt2 = 1 + t * t
        pts.append((radius * (1 - t * t) / one_pt2,
                    radius * 2 * t / one_pt2))
    return pts


def point_of(h) -> Point:
    """The Point with integer form h = (x_1 w, ..., x_d w, w)."""
    return Point([Fraction(c, h[-1]) for c in h[:-1]])


def polygon_text(poly) -> str:
    """The pl-polygon text of poly as it was printed from Points: the
    header, then rat_str of each rational coordinate of each vertex."""
    lines = ["pl-polygon %d %d" % (poly.dim, len(poly.vertices))]
    for v in poly.vertices:
        lines.append(" ".join(rat_str(c) for c in v.coords))
    return "\n".join(lines) + "\n"


def shadow_point(v, slopes) -> Point:
    """The shadow (x + s1 z, y + s2 z) of a point of R^3."""
    return Point((v[0] + slopes[0] * v[2], v[1] + slopes[1] * v[2]))


def mark_point(stop, near, factor) -> Point:
    """The point factor of the way from stop to near."""
    return stop + (near - stop).scale(factor)


def lift_point(slopes, pos, z) -> Point:
    """The point with shadow pos and height z: the shear undone."""
    return Point((pos[0] - slopes[0] * z, pos[1] - slopes[1] * z, z))


def add_triangle(mesh, a, b, c, tag=""):
    """Add the triangle with corners a, b, c to the mesh, pooling each
    point first; returns the triangle's index."""
    return mesh.add_triangle_indices(mesh.add_vertex(a), mesh.add_vertex(b),
                                     mesh.add_vertex(c), tag)


def flat_axes(hs) -> list[int]:
    """Coordinate axes onto which the affine hull of the points with
    homogeneous forms hs projects injectively: one per dimension of the
    hull, the lexicographically first such set.  Projecting onto them
    keeps every affine relation among the points."""
    pivots = _bareiss([(h[-1],) + tuple(h[:-1]) for h in hs])[1]
    # w > 0 makes the weight column the first pivot
    return [c - 1 for c in pivots[1:]]


def int_det(rows) -> int:
    """Determinant of a square integer matrix: the last pivot of
    geom._bareiss's forward pass, signed by its row swaps."""
    _, pivots, last, swaps = _bareiss(rows)
    if len(pivots) < len(rows):
        return 0
    return -last if swaps % 2 else last


def shear_last_into(dim, slopes) -> AffineMap:
    """The shear adding slopes[i] * x_last to each earlier coordinate."""
    if len(slopes) != dim - 1:
        raise ValueError("need dim-1 slopes")
    m = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
    for i, s in enumerate(slopes):
        m[i][dim - 1] = s
    return AffineMap(m, [ZERO] * dim)


def affine_inverse(am: AffineMap) -> AffineMap:
    """The inverse affine map, by rational Gauss-Jordan elimination of
    [M | I]; raises ValueError for a singular M."""
    n = am.dim
    aug = [list(am.matrix[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = [row[n:] for row in red]
    t = [-sum(inv[i][k] * am.shift[k] for k in range(n)) for i in range(n)]
    return AffineMap(inv, t)


def shear_frame(slopes, up) -> tuple[AffineMap, AffineMap]:
    """(frame, back): the shear x_i += slopes[i] x_last followed by the
    lift x_last += up, and its inverse in closed form, the shear by the
    negated slopes after x_last -= up."""
    dim = len(slopes) + 1
    frame = [[ONE if i == j else ZERO for j in range(dim)]
             for i in range(dim)]
    back = [list(row) for row in frame]
    for i, s in enumerate(slopes):
        frame[i][-1], back[i][-1] = s, -s
    return (AffineMap(frame, [ZERO] * (dim - 1) + [up]),
            AffineMap(back, [s * up for s in slopes] + [-up]))


def point_in_simplex(p, simplex) -> bool:
    """Exact closed-containment test for any nondegenerate simplex."""
    pts = list(simplex)
    k = len(pts)
    rows = [[q[c] for q in pts] for c in range(p.dim)]
    rows.append([ONE] * k)
    rhs = list(p.coords) + [ONE]
    sol = solution_set([row + [rv] for row, rv in zip(rows, rhs)])
    if sol is None:
        return False
    lam, dirs = sol
    if dirs:
        raise ValueError("degenerate simplex")
    return all(v >= 0 for v in lam)


def box_h(hs) -> list[tuple]:
    """Exact bounding box of points in homogeneous form: per axis a pair
    (lo, hi) of fractions, each kept as (numerator, positive
    denominator)."""
    box = []
    for i in range(len(hs[0]) - 1):
        lo = hi = (hs[0][i], hs[0][-1])
        for h in hs[1:]:
            c = (h[i], h[-1])
            if c[0] * lo[1] < lo[0] * c[1]:
                lo = c
            elif c[0] * hi[1] > hi[0] * c[1]:
                hi = c
        box.append((lo, hi))
    return box


def boxes_apart_h(box_a, box_b) -> bool:
    """Do two box_h boxes miss each other along some axis?"""
    for (la, ha), (lb, hb) in zip(box_a, box_b):
        if ha[0] * lb[1] < lb[0] * ha[1] or hb[0] * la[1] < la[0] * hb[1]:
            return True
    return False


def brute_pairs(boxes, split=None):
    """Every (i, j), i < j, i < split, whose box_h boxes meet, by testing
    all pairs: what geom.overlapping_pairs finds by its sweep."""
    split = len(boxes) if split is None else split
    return [(i, j) for i in range(min(split, len(boxes)))
            for j in range(i + 1, len(boxes))
            if not boxes_apart_h(boxes[i], boxes[j])]


def polygon_edge_contact(mesh, poly):
    """The immersed contact test that read poly's own edges as the
    polygon: a polygon edge may meet a triangle only as one of its sides
    or at a corner that is a vertex of the triangle.  It agrees with
    otherdims.polygon_contact_clean wherever the mesh's boundary edges
    are the polygon's edges."""
    n = len(poly)
    index = {p.coords: v for v, p in enumerate(mesh.vertices)}
    corners = [index.get(p.coords) for p in poly.vertices]
    hom = [homogeneous(p) for p in mesh.vertices]
    ends = [[homogeneous(p) for p in poly.edge(e)] for e in range(n)]
    # the polygon's corners after the mesh's vertices, each edge padded
    # to three indices as a triangle
    nv = len(hom)
    ends_at = [(nv + e, nv + (e + 1) % n) for e in range(n)]
    boxes = key_boxes(hom + [homogeneous(p) for p in poly.vertices],
                       [(a, b, b) for a, b in ends_at] + mesh.triangles)
    for e, j in overlapping_pairs(boxes, split=n):
        if j < n:
            continue
        ti = j - n
        tri = mesh.triangles[ti]
        a, b = poly.edge(e)
        ia, ib = corners[e], corners[(e + 1) % n]
        if ia in tri and ib in tri:
            continue
        rows = ends[e] + [hom[v] for v in tri if v != ia and v != ib]
        if int_rank(rows) == len(rows):
            continue
        pts = mesh.triangle_points(ti)
        kind, data = segment_simplex_meet(a, b, pts)
        if kind == "empty":
            continue
        if kind == "point":
            hit = a + (b - a).scale(data)
            if (hit == a or hit == b) and hit in pts:
                continue
            return ("edge %d pierces triangle %d at %s"
                    % (e, ti, tuple(hit.coords)))
        t0, t1 = data
        if t0 == 0 and t1 == 1 and a in pts and b in pts:
            continue
        return "edge %d overlaps triangle %d" % (e, ti)
    return None


class SegIntersection:
    """Classification of the meet of two closed segments in the plane.

    kind is 'empty', 'point' or 'overlap'.  For 'point', point is the
    exact location and contact tells whether it is interior to both
    segments ('interior-interior') or touches an endpoint of at least
    one ('endpoint-touch').  For 'overlap' the segments share a
    positive-length collinear piece.
    """

    __slots__ = ("kind", "point", "contact", "params")

    def __init__(self, kind, point=None, contact=None, params=None):
        self.kind = kind
        self.point = point
        self.contact = contact
        self.params = params  # (s, t) along each segment for 'point'

    def __repr__(self):
        if self.kind == "point":
            return "SegIntersection(point, %r, %s)" % (self.point, self.contact)
        return "SegIntersection(%s)" % self.kind


def seg_intersect_2d(a: Point, b: Point, c: Point, d: Point) -> SegIntersection:
    """Exact intersection classification of closed segments [a,b], [c,d],
    on the rationals."""
    if a.dim != 2 or b.dim != 2 or c.dim != 2 or d.dim != 2:
        raise ValueError("seg_intersect_2d expects planar points")
    r = b - a
    s = d - c
    denom = r[0] * s[1] - r[1] * s[0]
    acx, acy = c[0] - a[0], c[1] - a[1]
    if denom != 0:
        t = (acx * s[1] - acy * s[0]) / denom
        u = (acx * r[1] - acy * r[0]) / denom
        if 0 <= t <= 1 and 0 <= u <= 1:
            p = Point((a[0] + t * r[0], a[1] + t * r[1]))
            interior = 0 < t < 1 and 0 < u < 1
            return SegIntersection(
                "point", p,
                "interior-interior" if interior else "endpoint-touch",
                (t, u))
        return SegIntersection("empty")
    # denom == 0: parallel directions, or a degenerate segment
    r_zero = r[0] == 0 and r[1] == 0
    s_zero = s[0] == 0 and s[1] == 0
    if r_zero and s_zero:
        if a == c:
            return SegIntersection("point", a, "endpoint-touch", (ZERO, ZERO))
        return SegIntersection("empty")
    if r_zero:
        if point_on_segment(a, c, d):
            return SegIntersection("point", a, "endpoint-touch")
        return SegIntersection("empty")
    if s_zero:
        if point_on_segment(c, a, b):
            return SegIntersection("point", c, "endpoint-touch")
        return SegIntersection("empty")
    if acx * r[1] - acy * r[0] != 0:
        return SegIntersection("empty")  # parallel, different lines
    # collinear: interval overlap along a coordinate where r is nonzero
    axis = 0 if r[0] != 0 else 1
    a0, b0, c0, d0 = a[axis], b[axis], c[axis], d[axis]
    lo1, hi1 = (a0, b0) if a0 <= b0 else (b0, a0)
    lo2, hi2 = (c0, d0) if c0 <= d0 else (d0, c0)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo > hi:
        return SegIntersection("empty")
    if lo == hi:
        pt = a if a[axis] == lo else b
        if pt[axis] != lo:  # degenerate [a,b]: take from [c,d]
            pt = c if c[axis] == lo else d
        return SegIntersection("point", pt, "endpoint-touch")
    return SegIntersection("overlap")


def point_on_segment(p: Point, a: Point, b: Point) -> bool:
    """Exact test: does p lie on the closed segment [a, b] (any dim)?"""
    return segment_param(p, a, b) is not None


def segment_param(p: Point, a: Point, b: Point):
    """Parameter t with p = a + t(b-a), or None if p is off the segment."""
    d = b - a
    w = p - a
    t = None
    for i in range(p.dim):
        if d[i] != 0:
            t = w[i] / d[i]
            break
    if t is None:
        return ZERO if p == a else None
    if t < 0 or t > 1:
        return None
    if all(w[i] == t * d[i] for i in range(p.dim)):
        return t
    return None


def lift_at_height(m3, h) -> TriMesh:
    """The R^3 mesh m3 placed in the hyperplane x_4 = h of R^4, triangle
    by triangle."""
    mesh = TriMesh(4)
    for t, tag in enumerate(m3.provenance):
        add_triangle(mesh, *(Point((p[0], p[1], p[2], h))
                             for p in m3.triangle_points(t)), tag=tag)
    return mesh


def embedded_flat_oracle(poly, seed=0, rule="orientation"):
    """embedded_4d on a polygon in one hyperplane x_4 = h, built apart:
    spanning_surface_r3 spans and certifies the polygon of its first
    three coordinates in R^3, and that surface is placed at height h,
    with the R^3 certificate and no wall."""
    from plspan.seifert import spanning_surface_r3

    h = poly.vertices[0][3]
    p3 = ClosedPolygon([Point(v.coords[:3]) for v in poly.vertices])
    m3, rep3 = spanning_surface_r3(p3, seed=seed, rule=rule)
    mesh = lift_at_height(m3, h)
    report = _embedded_report(mesh, rep3, len(poly.vertices), 0, seed, 0)
    report.update(rep3["cert"]["census"], cert=rep3["cert"])
    return mesh, report


def embedded_attempt_framed(poly, slopes, seed, attempt,
                            rule="orientation"):
    """otherdims._embedded_attempt built in the sheared and lifted frame:
    P* and the walls are placed there, and the finished mesh is mapped
    back through the frame's inverse."""
    from plspan.seifert import _construct_r3

    verts = poly.vertices
    n = len(verts)
    frame, back = shear_frame(slopes, ONE - min(v[3] for v in verts))
    pv = [frame.apply(v) for v in verts]
    p3 = ClosedPolygon([Point((v[0], v[1], v[2])) for v in pv])
    if validate_embedded(p3) is not None:
        raise ValueError("projection not embedded")
    m3, rep3 = _construct_r3(p3, seed, rule)
    mesh = lift_at_height(m3, ZERO)
    p3v = p3.vertices
    base_edges = m3.boundary_edges()
    walls = 0
    for ia, ib in base_edges:
        wa, wb = m3.vertices[ia], m3.vertices[ib]
        hosts = []
        for i in range(n):
            ta = segment_param(wa, p3v[i], p3v[(i + 1) % n])
            tb = segment_param(wb, p3v[i], p3v[(i + 1) % n])
            if ta is not None and tb is not None:
                hosts.append((i, ta, tb))
        _require(len(hosts) == 1,
                 "embedded4: boundary edge not on exactly one polygon edge")
        host, ta, tb = hosts[0]
        ea, eb = pv[host], pv[(host + 1) % n]
        ua = ea + (eb - ea).scale(ta)
        ub = ea + (eb - ea).scale(tb)
        wa4 = Point((wa[0], wa[1], wa[2], ZERO))
        wb4 = Point((wb[0], wb[1], wb[2], ZERO))
        tag = "wall4 %d" % host
        if ua.coords <= ub.coords:
            add_triangle(mesh, wa4, wb4, ua, tag=tag)
            add_triangle(mesh, wb4, ub, ua, tag=tag)
        else:
            add_triangle(mesh, wa4, wb4, ub, tag=tag)
            add_triangle(mesh, wa4, ub, ua, tag=tag)
        walls += 2
    final = mesh.transform(back)
    cert = certify(final, poly)
    _require(cert["failure"] is None, cert["failure"])
    census = cert["census"]
    _require(rule != "orientation" or census["orientable"],
             "orientation-smoothed surface not orientable")
    _require(census["chi"] == rep3["euler"],
             "embedded4: chi differs from the base surface's")
    report = _embedded_report(final, rep3, n, walls, seed, attempt)
    report.update(census, cert=cert)
    return final, report


def construct_r3_framed(poly, seed, rule="orientation"):
    """seifert._construct_r3 built in the sheared and lifted frame: the
    polygon's lowest vertex at height 1, a circuit at depth k on the
    plane z = -k with its walls straight up over it, and the finished
    mesh mapped back through the frame's inverse.  Returns the
    uncertified mesh and the report, as _construct_r3 does."""
    from plspan.diagram import project_polygon
    from plspan.geom import earclip_2d
    from plspan.seifert import (_add_wall, assign_levels,
                                insert_interior_vertices, smooth)

    dia = project_polygon(poly, seed=seed)
    g = smooth(insert_interior_vertices(dia), rule)
    levels = assign_levels(g)
    up = ONE - min(v[2] for v in poly.vertices)
    nodes = g.marked.nodes
    pos = [point_of(nd.pos) for nd in nodes]

    def lifted(i):
        point = nodes[i].point
        return Point((pos[i][0], pos[i][1],
                      Fraction(point[2], point[3]) + up))

    def bottom(i, k):
        return Point((pos[i][0], pos[i][1], -k))

    raw = TriMesh(3)
    for ci, circ in enumerate(g.circuits):
        k = levels[ci]
        for a, b, c in earclip_2d([homogeneous(pos[i]) for i in circ]):
            add_triangle(raw, bottom(circ[a], k), bottom(circ[b], k),
                         bottom(circ[c], k), tag="bowl %d" % ci)
        for e, a in enumerate(circ):
            b = circ[(e + 1) % len(circ)]
            _add_wall(raw, a, b, lambda i: raw.add_vertex(bottom(i, k)),
                      lambda i: raw.add_vertex(lifted(i)),
                      "wall %d %d" % (ci, e))
    for x, q in enumerate(g.marked.quads):
        partner = {}
        for a, b in g.whites[x]:
            partner[a], partner[b] = b, a
        x1, y1 = lifted(q["in_over"]), lifted(q["out_over"])
        x2 = lifted(partner[q["in_over"]])
        y2 = lifted(partner[q["out_over"]])
        add_triangle(raw, x1, x2, y1, tag="bowtie %d" % x)
        add_triangle(raw, x2, y1, y2, tag="bowtie %d" % x)
    mesh = raw.transform(shear_frame(dia.slopes, up)[1])
    s, c = len(g.circuits), len(g.marked.quads)
    total = sum(len(circ) for circ in g.circuits)
    return mesh, {
        "circuits": s,
        "circuit_sizes": [len(circ) for circ in g.circuits],
        "levels": list(levels),
        "crossings": c,
        "bowls": total - 2 * s,
        "walls": 2 * total,
        "bowties": 2 * c,
        "triangles": len(mesh.triangles),
        "euler": s - c,
        "n": len(poly.vertices),
        "writhe": dia.writhe,
        "rule": rule,
        "seed": seed,
    }


def join_cells_rational(hom) -> dict:
    """The integer functionals of every join cell (i, j), i <= j, of the
    polygon with forms hom, keyed by (i, j): int_nullspace of the cell's
    distinct corners.  otherdims.immersed_disk_4d traced all of these
    before it kept only the maximal ones."""
    n = len(hom)
    return {(i, j): int_nullspace(list(dict.fromkeys(
        [hom[i], hom[(i + 1) % n], hom[j], hom[(j + 1) % n]])))
        for i in range(n) for j in range(i, n)}


def flat_meet_rational(forms, cell):
    """otherdims._flat_meet as it was while it solved its rows by
    int_nullspace and returned rationals: ('empty', None), ('point',
    (a, b)), ('line', ((a, b), (da, db))) or ('all', None), in the plane
    coordinates (a, b) of the plane with _plane_forms forms."""
    o, u, v = forms
    rows = [[sum(map(mul, h, u)), sum(map(mul, h, v)), sum(map(mul, h, o))]
            for h in cell]
    # (a, b, t) in the kernel with t != 0 is the plane point (a/t, b/t);
    # only the vector of a free t column has t != 0, and it comes last
    basis = int_nullspace(rows)
    if not basis or basis[-1][2] == 0:
        return ("empty", None)
    *dirs, (a, b, t) = basis
    if not dirs:
        return ("point", (Fraction(a, t), Fraction(b, t)))
    if len(dirs) == 2:
        return ("all", None)
    return ("line", ((Fraction(a, t), Fraction(b, t)), dirs[0][:2]))


def place_disk_rational(poly, forms, traces, rng, reached):
    """otherdims._place_disk as it was while each centre's clearance was
    rational, on the flat_meet_rational traces of every join cell: every
    squared distance a Fraction, their least by min, the radius halved
    as a Fraction until 4 r^2 <= clear2, and the ring made by
    _circle_points.  reached collects the kinds of traces met
    and the branches taken."""
    n = len(poly)
    angles = [2 * math.pi * k / n for k in range(n)]

    def plane_point(a, b):
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        return _primitive([ad * bd * x + an * bd * y + bn * ad * z
                           for x, y, z in zip(*forms)])

    for _ in range(40):
        za = Fraction(rng.randint(-64, 64), 8)
        zb = Fraction(rng.randint(-64, 64), 8)
        d2s = []
        for kind, data in traces:
            reached.add(kind)
            if kind == "point":
                dx, dy = za - data[0], zb - data[1]
                d2s.append(dx * dx + dy * dy)
            elif kind == "line":
                (px, py), (dx, dy) = data
                cr = dx * (zb - py) - dy * (za - px)
                d2s.append(cr * cr / (dx * dx + dy * dy))
        clear2 = min(d2s, default=ONE)
        if clear2 == 0:
            reached.add("centre on a trace")
            continue
        radius = ONE
        while 4 * radius * radius > clear2:
            reached.add("radius halved")
            radius = radius / 2
        ring = _circle_points(angles, radius)
        return ([plane_point(q[0] + za, q[1] + zb) for q in ring],
                plane_point(za, zb))
    return None


def plane_meet_points(hs, vals):
    """Homogeneous points where a triangle meets a plane, given the plane
    functional's integer values at its vertices (not all of one strict
    sign)."""
    meets = [hs[i] for i in range(3) if vals[i] == 0]
    for i in range(3):
        j = (i + 1) % 3
        vi, vj = vals[i], vals[j]
        if (vi > 0 and vj < 0) or (vi < 0 and vj > 0):
            # the functional is vi / w_i at vertex i; its zero on the
            # edge is (vi x_j - vj x_i) / (vi w_j - vj w_i)
            pt = [vi * qc - vj * pc for pc, qc in zip(hs[i], hs[j])]
            if pt[-1] < 0:
                pt = [-c for c in pt]
            meets.append(pt)
    return meets


def crossing_planes_contact_3d(plane_a, plane_b, hs_a, hs_b, vals_ab,
                               vals_ba) -> bool:
    """True when two triangles of R^3 in distinct crossing planes are
    disjoint, by the points where each meets the other's plane: each
    triangle meets the common line in a nonempty interval, and they are
    disjoint iff the intervals are.  hs_a and hs_b list the triangles'
    vertices; vals_ba holds b's functional at hs_a and vals_ab a's at
    hs_b, in the same orders."""
    meets_a = plane_meet_points(hs_a, vals_ba)
    meets_b = plane_meet_points(hs_b, vals_ab)
    # the line runs along the cross product of the planes' normals, so
    # an axis where that is nonzero orders the line's points
    a0, a1, a2 = plane_a[:3]
    b0, b1, b2 = plane_b[:3]
    axis = 0 if a1 * b2 != a2 * b1 else 1 if a2 * b0 != a0 * b2 else 2
    return _interval_gap(meets_a, meets_b, axis) > 0


def coplanar_contact_full(hom, axes, tri_a, tri_b, shared) -> bool:
    """mesh._coplanar_contact_clean with no early exit: all twenty
    orientation signs, then a vertex of one triangle in the other closed
    triangle or a proper crossing of an edge of each."""
    i, j = axes
    ha = [(hom[v][i], hom[v][j], hom[v][-1]) for v in tri_a]
    hb = [(hom[v][i], hom[v][j], hom[v][-1]) for v in tri_b]
    if len(shared) == 2:
        u, v = (k for k in range(3) if tri_a[k] in shared)
        oa = 3 - u - v
        ob = next(k for k in range(3) if tri_b[k] not in shared)
        return orient2d_h(ha[u], ha[v], ha[oa]) \
            * orient2d_h(ha[u], ha[v], hb[ob]) < 0
    side_a = [[orient2d_h(ha[e], ha[(e + 1) % 3], q) for q in hb]
              for e in range(3)]
    side_b = [[orient2d_h(hb[e], hb[(e + 1) % 3], p) for p in ha]
              for e in range(3)]
    turn_a = orient2d_h(*ha)
    turn_b = orient2d_h(*hb)
    for k in range(3):
        if tri_b[k] not in shared \
                and all(side_a[e][k] * turn_a >= 0 for e in range(3)):
            return False
        if tri_a[k] not in shared \
                and all(side_b[e][k] * turn_b >= 0 for e in range(3)):
            return False
    return not any(side_a[ea][eb] * side_a[ea][(eb + 1) % 3] < 0
                   and side_b[eb][ea] * side_b[eb][(ea + 1) % 3] < 0
                   for ea in range(3) for eb in range(3))
