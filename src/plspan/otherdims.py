"""Spanning constructions away from R^3.

Planar polygons triangulate directly with no extra vertices.  In five
or more dimensions a generic cone apex spans with n triangles.  In four
dimensions two routes exist: a 3n-triangle disk whose interior misses
the polygon (it may cross itself, so it is only immersed), and an
embedded surface built by dropping the polygon into a hyperplane,
spanning there, and walling the two copies together.  The drop is the
shear geom._shear on the polygon's forms, and the surface spanned there
is placed back on its forms by the inverse shear, geom._lift, the same
pair the R^3 projection and its low points use.
"""

from __future__ import annotations

import math
import random
from operator import mul

from .geom import (
    ONE,
    Rat,
    ZERO,
    _between,
    _form,
    _hyperplane_4d,
    _lift,
    _line_2d,
    _primitive,
    _shear,
    earclip_2d as _earclip_indices,
    independent,
    int_nullspace,
    key_boxes,
    overlapping_pairs,
    segment_simplex_meet,
)
from .mesh import (TriMesh, _boundary_places, _hull_contact_clean, _require,
                   certify)
from .polygon import ClosedPolygon, _circle_forms, validate_embedded
from .seifert import SMOOTHING_RULES, _add_wall, _construct_r3


# ---------------------------------------------------------------------------
# d = 2

def earclip_2d(poly: ClosedPolygon):
    """Triangulate a planar polygon: exactly n - 2 triangles, no new
    vertices.  A polygon that is not embedded is refused by the ear
    rule, or else by the certificate of the disk its ears make."""
    if poly.dim != 2:
        raise ValueError("earclip_2d expects a planar polygon")
    mesh = TriMesh(2)
    at = mesh.pooler(poly.hom)
    for a, b, c in _earclip_indices(poly.hom):
        mesh.add_triangle_indices(at(a), at(b), at(c), "ear")
    n = len(poly.hom)
    _require(len(mesh.triangles) == n - 2, "earclip: t != n - 2")
    _require(len(mesh.hom) == n, "earclip: added a vertex")
    cert = certify(mesh, poly)
    _require(cert["failure"] is None, cert["failure"])
    report = {"n": n, "dim": 2, "triangles": n - 2, "euler": 1,
              "embedded": True, "strategy": "earclip", "cert": cert}
    return mesh, report


# ---------------------------------------------------------------------------
# d >= 5

def cone_highdim(poly: ClosedPolygon, seed: int = 0, budget: int = 200):
    """Span with the n-triangle fan from a generic apex.

    Apexes are sampled from a seeded rational grid around the polygon
    and accepted only when the fan passes every certificate.
    """
    if poly.dim < 5:
        raise ValueError("cone construction needs dimension >= 5")
    n = len(poly)
    d = poly.dim
    cols = [[Rat(h[i], h[-1]) for h in poly.hom] for i in range(d)]
    lo = [min(col) for col in cols]
    span = [max(max(col) - low, ONE) for col, low in zip(cols, lo)]
    rng = random.Random(seed)
    for attempt in range(budget):
        apex = tuple(lo[i] - span[i]
                     + Rat(rng.randint(0, 12 * int(span[i] * 4)), 4)
                     for i in range(d))
        mesh = TriMesh(d)
        at = mesh.pooler(poly.hom + [_form([c.as_integer_ratio()
                                            for c in apex])])
        for i in range(n):
            mesh.add_triangle_indices(at(i), at((i + 1) % n), at(n),
                                      "cone %d" % i)
        cert = certify(mesh, poly)
        if cert["failure"] is not None:
            continue
        _require(len(mesh.triangles) == n, "cone: t != n")
        report = {"n": n, "dim": d, "triangles": n, "euler": 1,
                  "embedded": True, "strategy": "cone", "seed": seed,
                  "attempt": attempt, "apex": apex, "cert": cert}
        return mesh, report
    raise AssertionError("no clean cone apex in %d attempts (seed %d)"
                         % (budget, seed))


# ---------------------------------------------------------------------------
# d = 4, immersed

def _plane_forms(ho, h1, h2):
    """Integer forms (o, u, v) of the plane origin + a dir1 + b dir2,
    given the forms ho, h1 and h2 of origin, dir1 and dir2.

    For any functional h on homogeneous points, h . o + a h . u + b h . v
    is h's value at the plane point (a, b) times one positive factor,
    o's weight: o + a u + b v is a form of that point.  u and v are
    dir1 and dir2 times positive integers.
    """
    w, s1, s2 = ho[-1], h1[-1], h2[-1]
    return ([c * s1 * s2 for c in ho],
            [c * w * s2 for c in h1[:-1]] + [0],
            [c * w * s1 for c in h2[:-1]] + [0])


def _join_cells(hom):
    """The integer functionals of each maximal join flat of the polygon
    with forms hom, those that vanish together exactly on the flat.

    A maximal flat is spanned by two edges that share no corner, and
    its functional is the one _hyperplane_4d of their four corners; only
    corners in a 2-flat, whose minors all vanish, are solved by
    int_nullspace.  A triangle has no such pair, and its one cell is its
    own plane.
    """
    n = len(hom)
    if n == 3:
        return [int_nullspace(hom)]
    cells = []
    for i in range(n):
        # edges i and j share no corner: j - i is neither 0 nor +-1 mod n
        for j in range(i + 2, n - 1 if i == 0 else n):
            corners = hom[i], hom[i + 1], hom[j], hom[(j + 1) % n]
            h = _hyperplane_4d(*corners)
            cells.append([h] if any(h) else int_nullspace(corners))
    return cells


def _flat_meet(forms, cell):
    """Trace of a join cell's affine flat inside a plane, on integers.

    forms are the plane's _plane_forms; cell holds integer functionals
    that vanish together exactly on the flat.  Each functional h gives
    the row (h . u, h . v, h . o), the equation r0 a + r1 b + r2 = 0 in
    the plane coordinates (a, b): at most 3 rows in 2 unknowns.  Returns
    ('all', None) when every row is 0, so the plane lies in the flat;
    ('line', (r0, r1, r2)) when the rows are multiples of one with
    (r0, r1) != 0; ('point', (X, Y, T)), the point (X / T, Y / T), when
    the rows have rank 2, (X, Y, T) being _line_2d of two independent
    ones and T != 0; and ('empty', None) otherwise.
    """
    o, u, v = forms
    rows = [row for row in ((sum(map(mul, h, u)), sum(map(mul, h, v)),
                             sum(map(mul, h, o))) for h in cell)
            if any(row)]
    if not rows:
        return ("all", None)
    first, *rest = rows
    for row in rest:
        x, y, t = _line_2d(first, row)
        if x or y or t:
            # rank 2 or more: the rows' one common zero (x, y, t), on
            # the plane if t != 0, unless a third row is independent
            if t == 0 or any(p * x + q * y + w * t for p, q, w in rest):
                return ("empty", None)
            return ("point", (x, y, t))
    if first[0] == first[1] == 0:
        return ("empty", None)
    return ("line", first)


def immersed_disk_4d(poly: ClosedPolygon, seed: int = 0, budget: int = 60):
    """Span in R^4 with 3n triangles whose interiors miss the polygon.

    A generic 2-flat F avoids containing any join flat of the edge
    lines, so it meets each in at most a line.  A convex n-gon Q is
    placed in F around a point clear of those traces, then joined to P
    by an annulus of 2n triangles plus an n-triangle fan over Q.  The
    surface may cross itself; what is verified is that it is a disk,
    that its boundary is exactly P, and that nothing but that boundary
    touches P.  Only the maximal join flats are traced (_join_cells):
    every other one lies inside one of them, so its trace does too.
    """
    if poly.dim != 4:
        raise ValueError("immersed disk construction needs dimension 4")
    # Join cells: [v_i, v_i+1, v_j, v_j+1] spans the flat of the extended
    # lines of edges i and j.  Any line meeting two edge lines lies inside
    # one of these flats, so a region avoiding every cell sees the
    # polygon in general position.  Each maximal cell is kept as the
    # integer functionals of its flat, found once for every attempt.
    cells = _join_cells(poly.hom)
    rng = random.Random(seed)
    # every attempt returns or is skipped, so the reason left in last is
    # why the final attempt was skipped
    last = "no attempt ran"
    for attempt in range(budget):
        origin = _primitive([rng.randint(-64, 64) for _ in range(4)] + [8])
        dir1, dir2 = [tuple(rng.randint(-8, 8) for _ in range(4)) + (1,)
                      for _ in range(2)]
        forms = _plane_forms(origin, dir1, dir2)
        # the origin's weight is not 0 and the directions' are, so the
        # three forms are independent iff the directions are
        if not independent(forms):
            last = "the plane is not 2-dimensional"
            continue
        traces = [_flat_meet(forms, cell) for cell in cells]
        if any(kind == "all" for kind, _ in traces):
            last = "the plane lies in a join flat"
            continue
        placement = _place_disk(poly, forms, traces, rng)
        if placement is None:
            last = "no centre off the traces"
            continue
        result = _assemble_disk(poly, *placement)
        if result is None:
            last = "the certificate refused the disk"
            continue
        mesh, report = result
        report.update({"seed": seed, "attempt": attempt})
        return mesh, report
    raise AssertionError("no valid flat placement in %d attempts (seed %d): "
                         "last skipped as %s"
                         % (budget, seed, last))


def _place_disk(poly, forms, traces, rng):
    """(the forms of Q's vertices, the form of the fan apex) for a small
    convex n-gon Q in the plane with _plane_forms forms, clear of the
    _flat_meet traces; None when all 40 centres drawn lie on a trace.

    Each centre (a / 8, b / 8) takes its squared clearance on integers:
    (r0 a + r1 b + 8 r2)^2 / (64 (r0^2 + r1^2)) from a line, ((a T -
    8 X)^2 + (b T - 8 Y)^2) / (64 T^2) from a point, and the least is
    found by cross-multiplication.  Q's vertices and the centre are made
    as integer combinations of the plane's forms.
    """
    n = len(poly)
    # each trace read once: (line?, its integers, the denominator of its
    # squared distances)
    marks = []
    for kind, data in traces:
        if kind == "line":
            marks.append((True, data, 64 * (data[0] ** 2 + data[1] ** 2)))
        elif kind == "point":
            marks.append((False, data, 64 * data[2] ** 2))
    for _ in range(40):
        a, b = rng.randint(-64, 64), rng.randint(-64, 64)
        clear = None
        for line, (x, y, t), den in marks:
            if line:
                num = (x * a + y * b + 8 * t) ** 2
            else:
                p, q = a * t - 8 * x, b * t - 8 * y
                num = p * p + q * q
            if clear is None or num * clear[1] < clear[0] * den:
                clear = num, den
        num, den = clear or (1, 1)
        if num == 0:
            continue  # the centre lies on a trace
        # Q's vertices are n distinct points exactly on the circle of
        # radius r about the centre, in angular order (rounding
        # tan(theta/2) to the 2^-14 grid keeps them apart until n is in
        # the tens of thousands).  So Q is strictly convex, and conv(Q)
        # stays at least r from every trace, as 4 r^2 <= num / den.  That
        # clearance is all the immersed certificate needs, wherever the
        # centre lies relative to conv(P): each contact it forbids puts a
        # point of conv(Q) on a join flat.  With e_k the edges of P, a
        # point x of e_k in an annulus triangle [v_j, v_j+1, q], off e_j,
        # puts q in aff(x, v_j, v_j+1), inside the join flat of e_j and
        # e_k.  A point x of e_k in [v_j, q_j, q_j+1], other than v_j,
        # puts a point of the side [q_j, q_j+1] on the line v_j x, inside
        # the join flat of e_k and an edge at v_j, or inside e_k's own
        # line (cell (k, k)) when k is j - 1 or j.  A point of conv(Q) on
        # e_k, in a fan triangle or at a vertex, lies in cell (k, k).
        # Each of these flats lies inside a maximal one: cells (k, k) and
        # (k, k + 1) inside cell (k, k + 2), whose edges share no corner
        # once n >= 4, and every cell of a triangle inside its plane.  A
        # flat's trace then lies inside the maximal flat's trace, and the
        # distance to a subset is never smaller, so the least clearance
        # over the maximal cells is the least over all cells.  Only a
        # degenerate [v_j, q_j, q_j+1], with v_j on the line of a side of
        # Q, is left for the certificate to refuse.
        # r = 2^-halvings, the largest such power of 2 not above 1
        halvings = 0
        while 4 * den > num << 2 * halvings:
            halvings += 1
        # the vertex at unit-circle form (x, y, w) is the centre (a, b) /
        # 8 plus r (x, y) / w, over the weight 8 2^halvings w
        up = 1 << halvings
        combos = [(8 * up * w, a * up * w + 8 * x, b * up * w + 8 * y)
                  for x, y, w in _circle_forms(
                      [2 * math.pi * k / n for k in range(n)], 1 << 14)]
        combos.append((8, a, b))
        *ring, center = [_primitive([w * p + x * q + y * r
                                     for p, q, r in zip(*forms)])
                         for w, x, y in combos]
        return ring, center
    return None


def polygon_contact_clean(mesh: TriMesh):
    """Witness that a mesh's interior touches its own boundary.

    The pieces of the polygon are the mesh's boundary edges, which
    certify has matched to the polygon first.  A piece may meet a
    triangle only in the face spanned by their shared vertices: the
    whole piece when it is a side of the triangle, a shared end, or
    nothing.  Returns None when every contact is of that form, else a
    description string.  Candidate (piece, triangle) pairs come from the
    one sweep, geom.overlapping_pairs, over the pieces' and the
    triangles' exact bounding boxes, in (piece, triangle) order;
    box-apart pairs never touch.  The simplex pair test on the forms in
    mesh.hom (mesh._hull_contact_clean) decides every pair with a shared
    end, as its four vertices carry at most one affine relation; only
    the pairs it does not clear are intersected exactly.
    """
    pieces = mesh.boundary_edges()
    n = len(pieces)
    hom = mesh.hom
    boxes = key_boxes(hom, [(u, v, v) for u, v in pieces] + mesh.triangles)
    for e, j in overlapping_pairs(boxes, split=n):
        if j < n:
            continue  # two pieces
        ti = j - n
        tri = mesh.triangles[ti]
        u, v = pieces[e]
        if u in tri and v in tri:
            continue  # the piece is a side of the triangle
        if _hull_contact_clean(hom, (u, v), tri, {u, v}.intersection(tri)):
            continue
        a, b = mesh.vertices[u], mesh.vertices[v]
        kind, data = segment_simplex_meet(a, b, mesh.triangle_points(ti))
        if kind == "empty":
            continue
        if kind == "point":
            hit = a + (b - a).scale(data)
            return ("boundary edge %d-%d pierces triangle %d at %s"
                    % (u, v, ti, tuple(hit.coords)))
        return "boundary edge %d-%d overlaps triangle %d" % (u, v, ti)
    return None


def _assemble_disk(poly, q4, center):
    n = len(poly)
    mesh = TriMesh(4)
    # the polygon's vertices, then the inner n-gon's, then the center
    at = mesh.pooler(poly.hom + q4 + [center])
    for j in range(n):
        k = (j + 1) % n
        mesh.add_triangle_indices(at(j), at(k), at(n + k), "annulus %d" % j)
        mesh.add_triangle_indices(at(j), at(n + j), at(n + k),
                                  "annulus %d" % j)
        mesh.add_triangle_indices(at(n + j), at(n + k), at(2 * n),
                                  "fan %d" % j)
    cert = certify(mesh, poly, interior="immersed")
    if cert["failure"] is not None:
        return None
    census = cert["census"]
    _require(len(mesh.triangles) == 3 * n, "immersed4: t != 3n")
    _require(len(mesh.hom) == 2 * n + 1,
             "immersed4: vertex count != 2n + 1")
    _require(len(mesh.edge_census()) == 5 * n,
             "immersed4: edge count != 5n")
    _require(census["chi"] == 1, "immersed4: chi != 1")
    _require(census["boundary_cycles"] == 1,
             "immersed4: boundary is not one cycle")
    report = {"n": n, "dim": 4, "triangles": 3 * n, "euler": 1,
              "boundary_cycles": 1, "strategy": "immersed4",
              "annulus": 2 * n, "fan": n,
              "interior_clear": True, "cert": cert}
    return mesh, report


# ---------------------------------------------------------------------------
# d = 4, embedded

def embedded_4d(poly: ClosedPolygon, seed: int = 0, budget: int = 30,
                rule: str = "orientation"):
    """Embedded spanning surface in R^4 with at most 21 n^2 triangles.

    After a seeded shear, dropping the last coordinate lands the polygon
    on an embedded copy P* in a hyperplane; the R^3 construction spans
    P* there, and a vertical wall of two triangles per boundary edge
    joins the spanning surface back up to the polygon.  A polygon that
    already lies in a hyperplane x_4 = h is its own P*: its spanning
    surface is placed at that height and needs no wall.  Only the R^4
    mesh is certified (mesh.certify: manifold, boundary equal to the
    polygon, embedded, census), once per attempt, flat or walled alike;
    rule 'orientation' also requires it to be orientable.
    """
    if poly.dim != 4:
        raise ValueError("embedded construction needs dimension 4")
    if rule not in SMOOTHING_RULES:
        raise ValueError("unknown smoothing rule %r" % rule)
    rng = random.Random(seed)
    last: Exception | None = None
    for attempt in range(budget):
        if attempt == 0:
            slopes = [ZERO, ZERO, ZERO]
        else:
            slopes = [Rat(rng.randint(-32, 32), 16) for _ in range(3)]
        try:
            mesh, report = _embedded_attempt(poly, slopes, seed, attempt,
                                             rule)
            return mesh, report
        except (ValueError, AssertionError) as exc:
            last = exc
    raise AssertionError("no clean projection in %d attempts (seed %d): %s"
                         % (budget, seed, last))


def _embedded_attempt(poly, slopes, seed, attempt, rule="orientation"):
    n = len(poly)
    # P* is the shadow of the shear x_i += s_i x_4.  The spanning surface
    # of P* goes into the hyperplane x_4 = low with the shear undone:
    # x -> (x - s low, low).  A shear keeps edge parameters, so with low
    # below every vertex the wall over a boundary piece of P* rises to
    # poly's own points at the same parameters on the host edge.  A poly
    # in one hyperplane is spanned there, at its own height, with no wall.
    star = [_shear(h, slopes) for h in poly.hom]
    p3 = ClosedPolygon(star)
    if validate_embedded(p3) is not None:
        raise ValueError("projection not embedded")
    m3, rep3 = _construct_r3(p3, seed, rule)
    low = min(Rat(h[3], h[4]) for h in poly.hom)
    flat = len({Rat(h[3], h[4]) for h in poly.hom}) == 1
    if not flat:
        low -= ONE
    mesh = TriMesh(4)
    # the lift is one-to-one, and its forms are pooled in m3's order
    # before any triangle, so each base vertex keeps its m3 index, which
    # the triangles and the walls below take as its pool index
    base = mesh.pooler([_lift(h, low.numerator, low.denominator, slopes)
                        for h in m3.hom])
    for v in range(len(m3.hom)):
        base(v)
    for (i, j, k), tag in zip(m3.triangles, m3.provenance):
        mesh.add_triangle_indices(i, j, k, tag)
    base_edges = [] if flat else m3.boundary_edges()
    # each base boundary vertex's (edge, t) on P*, placed on integer
    # forms as boundary_matches places it: a corner lies on its two
    # edges, any other vertex on one, and a wall's host edge is the one
    # polygon edge common to both of its ends
    places = _boundary_places(m3.hom, {v for e in base_edges for v in e},
                              p3.hom)

    def on_edges(v):
        if v not in places:
            return set()
        e, t = places[v]
        return {e} if t[0] else {(e - 1) % n, e}

    # the wall top over each base vertex, pooled on its first wall
    tops = {}
    top = mesh.pooler(tops)
    for ia, ib in base_edges:
        hosts = on_edges(ia) & on_edges(ib)
        _require(len(hosts) == 1,
                 "embedded4: boundary edge not on exactly one polygon edge")
        host, = hosts
        for v in (ia, ib):
            if v not in tops:
                e, t = places[v]
                tops[v] = _between(poly.hom[e], poly.hom[(e + 1) % n], *t)
        _add_wall(mesh, ia, ib, lambda v: v, top, "wall4 %d" % host)
    cert = certify(mesh, poly)
    _require(cert["failure"] is None, cert["failure"])
    census = cert["census"]
    _require(rule != "orientation" or census["orientable"],
             "orientation-smoothed surface not orientable")
    _require(census["chi"] == rep3["euler"],
             "embedded4: chi differs from the base surface's")
    report = _embedded_report(mesh, rep3, n, 2 * len(base_edges), seed,
                              attempt)
    report.update(census, cert=cert)
    return mesh, report


def _embedded_report(mesh, rep3, n, walls, seed, attempt):
    """Counts of an embedded4 surface; the caller adds its census and
    certificate.  Raises if t exceeds 21 n^2."""
    t = len(mesh.triangles)
    _require(t <= 21 * n * n, "embedded4: t = %d exceeds 21 n^2" % t)
    return {
        "n": n,
        "dim": 4,
        "triangles": t,
        "wall_triangles": walls,
        "base_triangles": rep3["triangles"],
        "crossings": rep3["crossings"],
        "circuits": rep3["circuits"],
        "euler": rep3["euler"],
        "embedded": True,
        "strategy": "embedded4",
        "seed": seed,
        "attempt": attempt,
    }
