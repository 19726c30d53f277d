import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

import plspan

from plspan.geom import (
    Point,
    affine_rank,
    convex_meet,
    homogeneous,
    int_nullspace,
    orient2d,
    rref,
    segment_simplex_meet,
    sign,
    solution_set,
)
from plspan.mesh import TriMesh, boundary_matches, check_embedded, write_off
from plspan.otherdims import (
    _assemble_disk,
    _embedded_attempt,
    _flat_meet,
    _join_cells,
    _place_disk,
    _plane_forms,
    cone_highdim,
    earclip_2d,
    embedded_4d,
    immersed_disk_4d,
    polygon_contact_clean,
)
from plspan.polygon import (
    ClosedPolygon,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
)

from oracles import (
    _circle_points,
    add_triangle,
    embedded_attempt_framed,
    embedded_flat_oracle,
    flat_meet_rational,
    join_cells_rational,
    place_disk_rational,
    point_of,
    polygon_edge_contact,
)


def lshape():
    return ClosedPolygon([Point((0, 0)), Point((4, 0)), Point((4, 2)),
                          Point((2, 2)), Point((2, 4)), Point((0, 4))])


# -- planar ------------------------------------------------------------


def test_earclip_triangle():
    mesh, rep = earclip_2d(gen_planar_ngon(3))
    assert rep["triangles"] == 1
    assert len(mesh.vertices) == 3


def test_earclip_convex_sevengon():
    mesh, rep = earclip_2d(gen_planar_ngon(7))
    assert rep["triangles"] == 5
    assert mesh.euler_characteristic() == 1


def test_earclip_nonconvex():
    p = lshape()
    mesh, rep = earclip_2d(p)
    assert rep["triangles"] == 4
    assert len(mesh.vertices) == 6
    assert check_embedded(mesh) is None
    assert boundary_matches(mesh, p)


def test_earclip_rejects_bowtie():
    bow = ClosedPolygon([Point((0, 0)), Point((4, 4)), Point((4, 0)),
                         Point((0, 4))])
    with pytest.raises(ValueError):
        earclip_2d(bow)


def test_earclip_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        earclip_2d(gen_random(5, 3, seed=0))


# -- high dimension ----------------------------------------------------


def test_cone_triangle_r5():
    tri = ClosedPolygon([Point((0, 0, 0, 0, 0)), Point((4, 0, 0, 0, 0)),
                         Point((0, 4, 0, 0, 0))])
    mesh, rep = cone_highdim(tri, seed=0)
    assert rep["triangles"] == 3
    apex = Point(rep["apex"])
    for t in range(3):
        assert apex in mesh.triangle_points(t)
    assert check_embedded(mesh) is None


def test_cone_random_octagon_r5():
    p = gen_random(8, 5, seed=2)
    mesh, rep = cone_highdim(p, seed=0)
    assert rep["triangles"] == 8
    assert mesh.euler_characteristic() == 1
    assert mesh.boundary_components() == 1
    assert boundary_matches(mesh, p)
    assert all(tag.startswith("cone") for tag in mesh.provenance)


def test_cone_retries_past_a_flat_fan(monkeypatch):
    # an apex on an edge's line makes a flat fan triangle: certify fails
    # it as degenerate instead of raising in the interior test, and the
    # next apex is drawn as before
    import plspan.otherdims as od
    draws = iter([12, 4, 4, 4, 4,     # apex (2, 0, 0, 0, 0)
                  5, 7, 9, 11, 13])   # apex (1/4, 3/4, 5/4, 7/4, 9/4)

    class Scripted:
        def __init__(self, seed):
            pass

        def randint(self, lo, hi):
            return next(draws)

    monkeypatch.setattr(od, "random", SimpleNamespace(Random=Scripted))
    tri = ClosedPolygon([Point((0, 0, 0, 0, 0)), Point((1, 0, 0, 0, 0)),
                         Point((0, 1, 0, 0, 0))])
    mesh, rep = cone_highdim(tri)
    assert rep["attempt"] == 1
    assert rep["apex"] == tuple(Fraction(k, 4) for k in (1, 3, 5, 7, 9))


def test_cone_rejects_low_dimension():
    with pytest.raises(ValueError):
        cone_highdim(gen_random(5, 4, seed=0))


def test_cone_determinism():
    p = gen_random(7, 6, seed=5)
    m1, r1 = cone_highdim(p, seed=3)
    m2, r2 = cone_highdim(p, seed=3)
    assert r1 == r2
    assert [m1.triangle_points(t) for t in range(len(m1.triangles))] == \
        [m2.triangle_points(t) for t in range(len(m2.triangles))]


# -- immersed disk in R^4 ----------------------------------------------


def test_immersed_triangle():
    tri = ClosedPolygon([Point((0, 0, 0, 0)), Point((4, 0, 0, 0)),
                         Point((0, 4, 0, 0))])
    mesh, rep = immersed_disk_4d(tri, seed=0)
    assert rep["triangles"] == 9
    assert rep["euler"] == 1
    assert len(mesh.vertices) == 7
    assert len(mesh.edge_census()) == 15
    assert boundary_matches(mesh, tri)


def test_immersed_skips_a_plane_that_is_not_2_dimensional(monkeypatch):
    # a zero or a parallel second direction spans no plane: the attempt
    # is skipped before any trace is solved
    import plspan.otherdims as od
    tri = ClosedPolygon([Point((0, 0, 0, 0)), Point((4, 0, 0, 0)),
                         Point((0, 4, 0, 0))])
    for dir2 in ([0, 0, 0, 0], [-2, 4, 0, -6]):
        draws = iter([8, -16, 3, 0] + [1, -2, 0, 3] + dir2)

        class Scripted:
            def __init__(self, seed):
                pass

            def randint(self, lo, hi):
                return next(draws)

        monkeypatch.setattr(od, "random", SimpleNamespace(Random=Scripted))
        with pytest.raises(AssertionError,
                           match="last skipped as the plane is not "
                                 "2-dimensional"):
            immersed_disk_4d(tri, budget=1)


def test_immersed_tags_and_counts():
    p = gen_random(6, 4, seed=1)
    mesh, rep = immersed_disk_4d(p, seed=0)
    n = 6
    assert rep["triangles"] == 3 * n
    tags = [tag.split()[0] for tag in mesh.provenance]
    assert tags.count("annulus") == 2 * n
    assert tags.count("fan") == n
    assert len(mesh.vertices) == 2 * n + 1
    assert mesh.boundary_components() == 1
    assert mesh.validate_manifold() == []


def test_immersed_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        immersed_disk_4d(gen_random(5, 3, seed=0))


def test_immersed_determinism():
    p = gen_random(7, 4, seed=4)
    m1, r1 = immersed_disk_4d(p, seed=2)
    m2, r2 = immersed_disk_4d(p, seed=2)
    assert r1 == r2
    assert [m1.triangle_points(t) for t in range(len(m1.triangles))] == \
        [m2.triangle_points(t) for t in range(len(m2.triangles))]


def _flat_meet_oracle(origin, dir1, dir2, cell_pts):
    """The rational _flat_meet: the cell's flat by rref of its direction
    vectors, then the plane's meet with it by solution_set."""
    base = cell_pts[0]
    red, pivots = rref([list((p - base).coords) for p in cell_pts[1:]])
    gens = red[:len(pivots)]
    # unknowns: a, b (plane coords), then one coefficient per generator
    sol = solution_set([[dir1[c], dir2[c]] + [-g[c] for g in gens]
                        + [base[c] - origin[c]] for c in range(origin.dim)])
    if sol is None:
        return ("empty", None)
    part, basis = sol
    dirs_ab = [(v[0], v[1]) for v in basis if v[0] != 0 or v[1] != 0]
    if not dirs_ab:
        return ("point", (part[0], part[1]))
    d0 = dirs_ab[0]
    for da, db in dirs_ab[1:]:
        if d0[0] * db - d0[1] * da != 0:
            return ("all", None)
    return ("line", ((part[0], part[1]), d0))


def _random_planes(rng, cell_pts):
    """Planes (origin, dir1, dir2) with rational directions: one at
    random, and three planted on the cell, through one of its points at
    plane coordinates away from the origin, with none, one or both
    directions inside its flat."""
    def rnd(lim, den):
        return Point([Fraction(rng.randint(-lim, lim), rng.randint(1, den))
                      for _ in range(4)])

    def inside():
        p, q = rng.sample(cell_pts, 2)
        return (q - p).scale(Fraction(rng.randint(1, 3), rng.randint(1, 3)))

    def through(p, dir1, dir2):
        a, b = Fraction(rng.randint(1, 5), 2), Fraction(rng.randint(1, 5), 3)
        return (p - dir1.scale(a) - dir2.scale(b), dir1, dir2)

    base = rng.choice(cell_pts)
    return [(rnd(8, 8), rnd(8, 3), rnd(8, 3)),
            through(base, rnd(4, 2), rnd(4, 2)),
            through(base, inside(), rnd(4, 2)),
            through(base + inside(), inside(), inside())]


def _line_row(r0, r1, r2):
    """The line r0 a + r1 b + r2 = 0 as its row scaled to lead with 1."""
    lead = Fraction(r0 or r1)
    return r0 / lead, r1 / lead, r2 / lead


def _mark_set(kind, data):
    """A _flat_meet trace as a set: a point by its rational
    coordinates, a line by _line_row."""
    if kind == "point":
        x, y, t = data
        return kind, (Fraction(x, t), Fraction(y, t))
    if kind == "line":
        return kind, _line_row(*data)
    return kind, data


def _rational_set(kind, data):
    """A rational trace, a point or a line by a point and a direction,
    as the set _mark_set gives."""
    if kind == "line":
        (px, py), (dx, dy) = data
        return kind, _line_row(dy, -dx, dx * py - dy * px)
    return kind, data


def test_flat_meet_matches_rational_oracle():
    # every join cell of random R^4 polygons, the edge lines (i = j)
    # included, against random and planted planes: the integer marks
    # give the same set, a point, a line or none, as the rational solve
    rng = random.Random(1968)
    kinds = set()
    for n in range(3, 8):
        verts = gen_random(n, 4, seed=n).vertices
        for i in range(n):
            for j in range(i, n):
                cell_pts = [verts[i], verts[(i + 1) % n],
                            verts[j], verts[(j + 1) % n]]
                cell = int_nullspace([homogeneous(p) for p in cell_pts])
                for origin, dir1, dir2 in _random_planes(rng, cell_pts):
                    if affine_rank([origin, origin + dir1,
                                    origin + dir2]) != 2:
                        continue
                    want = _flat_meet_oracle(origin, dir1, dir2, cell_pts)
                    got = _flat_meet(_plane(origin, dir1, dir2), cell)
                    assert _mark_set(*got) == _rational_set(*want), \
                        (cell_pts, origin, dir1, dir2)
                    kinds.add(got[0])
    assert kinds == {"empty", "point", "line", "all"}


def _point_in_convex_oracle(p, hull) -> bool:
    m = len(hull)
    s = sign(orient2d(hull[0], hull[1], hull[2]))
    return all(sign(orient2d(hull[i], hull[(i + 1) % m], p)) * s >= 0
               for i in range(m))


def _line_misses_convex_oracle(pt, direction, hull) -> bool:
    px, py = pt
    dx, dy = direction
    sides = [sign(dx * (q[1] - py) - dy * (q[0] - px)) for q in hull]
    return all(s > 0 for s in sides) or all(s < 0 for s in sides)


def _hull_clear_oracle(hull2, traces) -> bool:
    m = len(hull2)
    s = sign(orient2d(hull2[0], hull2[1], hull2[2]))
    if s == 0:
        return False
    for i in range(m):
        if sign(orient2d(hull2[i], hull2[(i + 1) % m],
                         hull2[(i + 2) % m])) != s:
            return False
    for kind, data in traces:
        if kind == "empty":
            continue
        if kind == "point":
            if _point_in_convex_oracle(Point(data), hull2):
                return False
        else:
            if not _line_misses_convex_oracle(*data, hull2):
                return False
    return True


def _plane(origin, dir1, dir2):
    """_plane_forms of the plane through the Point origin along the
    Points dir1 and dir2."""
    return _plane_forms(homogeneous(origin), homogeneous(dir1),
                        homogeneous(dir2))


def _plane_marks(poly, origin, dir1, dir2):
    """The _flat_meet traces of the polygon's maximal join cells in the
    plane, or None for a plane that immersed_disk_4d skips."""
    if affine_rank([origin, origin + dir1, origin + dir2]) != 2:
        return None
    forms = _plane(origin, dir1, dir2)
    marks = [_flat_meet(forms, cell) for cell in _join_cells(poly.hom)]
    return None if any(kind == "all" for kind, _ in marks) else marks


def _plane_traces(poly, origin, dir1, dir2):
    """(the rational traces of every join cell, the marks of the maximal
    ones) in the plane, or None for a plane that immersed_disk_4d skips;
    the two sets of cells skip the same planes."""
    if affine_rank([origin, origin + dir1, origin + dir2]) != 2:
        return None
    forms = _plane(origin, dir1, dir2)
    traces = [flat_meet_rational(forms, cell)
              for cell in join_cells_rational(poly.hom).values()]
    marks = [_flat_meet(forms, cell) for cell in _join_cells(poly.hom)]
    skip = any(kind == "all" for kind, _ in traces)
    assert skip == any(kind == "all" for kind, _ in marks), \
        (poly.hom, origin, dir1, dir2)
    return None if skip else (traces, marks)


def _scaled(poly, k):
    """(centroid, poly scaled by k about it)."""
    verts = poly.vertices
    mid = Point([sum(v[c] for v in verts) / len(verts) for c in range(4)])
    return mid, ClosedPolygon([mid + (v - mid).scale(k) for v in verts])


def _first_centre(seed):
    """The first centre _place_disk draws from random.Random(seed)."""
    rng = random.Random(seed)
    return (Fraction(rng.randint(-64, 64), 8),
            Fraction(rng.randint(-64, 64), 8))


def _place_disk_oracle(poly, origin, dir1, dir2, traces, rng, reached):
    """_place_disk as it was while it re-checked Q against the traces
    after the clearance radius; reached collects the branches taken."""
    n = len(poly.vertices)

    def to4(a, b):
        return origin + dir1.scale(a) + dir2.scale(b)

    for _ in range(40):
        za = Fraction(rng.randint(-64, 64), 8)
        zb = Fraction(rng.randint(-64, 64), 8)
        clear2 = None
        ok = True
        for kind, data in traces:
            if kind == "empty":
                continue
            if kind == "point":
                dx, dy = za - data[0], zb - data[1]
                d2 = dx * dx + dy * dy
            else:
                (px, py), (dx, dy) = data
                cr = dx * (zb - py) - dy * (za - px)
                d2 = cr * cr / (dx * dx + dy * dy)
            if d2 == 0:
                ok = False
                break
            if clear2 is None or d2 < clear2:
                clear2 = d2
        if not ok:
            reached.add("centre on a trace")
            continue
        center4 = to4(za, zb)
        if clear2 is None:
            reached.add("only empty traces")
            clear2 = Fraction(1)
        radius = Fraction(1)
        while 4 * radius * radius > clear2:
            reached.add("radius halved")
            radius = radius / 2
        for _ in range(4):
            angles = [2 * math.pi * k / n for k in range(n)]
            ring = _circle_points(angles, radius)
            hull2 = [Point((q[0] + za, q[1] + zb)) for q in ring]
            if not _hull_clear_oracle(hull2, traces):
                reached.add("hull not clear")
                radius = radius / 2
                continue
            return [to4(q[0], q[1]) for q in hull2], center4
    return None


def _placement_inputs(rng):
    """(poly, origin, dir1, dir2, traces, marks): random R^4 polygons in
    random planes with their _plane_traces, the same polygons scaled up
    around a plane through their centroid so that centres fall inside
    their hull, and planar polygons lying in the plane itself, scaled to
    cover part of the centre grid, four times each with only empty
    traces."""
    cases = []
    for n in range(3, 7):
        poly = gen_random(n, 4, seed=n)
        mid, big = _scaled(poly, 8)
        for scaled, planes in ((False, 4), (True, 2)):
            for _ in range(planes):
                if scaled:
                    origin = mid
                    dirs = [Point([rng.randint(-1, 1) for _ in range(4)])
                            for _ in range(2)]
                else:
                    origin = Point([Fraction(rng.randint(-64, 64), 8)
                                    for _ in range(4)])
                    dirs = [Point([rng.randint(-8, 8) for _ in range(4)])
                            for _ in range(2)]
                found = _plane_traces(big if scaled else poly, origin, *dirs)
                if found is not None:
                    cases.append((big if scaled else poly, origin, *dirs,
                                  *found))
    e1, e2 = Point((1, 0, 0, 0)), Point((0, 1, 0, 0))
    for n in (3, 5):
        flat = ClosedPolygon([Point((x * 6, y * 6, 0, 0))
                              for x, y in gen_planar_ngon(n).vertices])
        cases += [(flat, Point((0, 0, 0, 0)), e1, e2,
                   [("empty", None)] * 3, [("empty", None)] * 3)] * 4
    return cases


def test_place_disk_matches_trace_checking_oracle():
    # the clearance radius keeps Q off every trace, so dropping the
    # trace check changes neither the placement nor the random draws
    rng = random.Random(1994)
    reached = set()
    for poly, origin, dir1, dir2, traces, marks in _placement_inputs(rng):
        seed = rng.randrange(1 << 30)
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = _place_disk_oracle(poly, origin, dir1, dir2, traces,
                                  want_rng, reached)
        got = _place_disk(poly, _plane(origin, dir1, dir2), marks, got_rng)
        if want is not None:
            want = ([homogeneous(q) for q in want[0]], homogeneous(want[1]))
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()
    assert "hull not clear" not in reached
    assert {"radius halved", "only empty traces"} <= reached


def test_place_disk_takes_its_first_centre_inside_the_hull(monkeypatch):
    # a pentagon of radius 60 in the plane itself covers the centre grid,
    # so the first centre lies inside its hull; the clearance radius
    # alone keeps the disk off the polygon, and no hull LP runs
    import plspan.geom as geom
    import plspan.otherdims as od
    calls = []
    meet = geom.convex_meet

    def spy(pts_a, pts_b):
        calls.append(len(pts_a))
        return meet(pts_a, pts_b)

    monkeypatch.setattr(geom, "convex_meet", spy)
    flat = ClosedPolygon([Point((x * 60, y * 60, 0, 0))
                          for x, y in gen_planar_ngon(5).vertices])
    placed = _place_disk(flat, _plane(Point((0, 0, 0, 0)),
                                      Point((1, 0, 0, 0)),
                                      Point((0, 1, 0, 0))),
                         [("empty", None)], random.Random(0))
    za, zb = _first_centre(0)
    assert placed[1] == homogeneous(Point((za, zb, 0, 0)))
    assert _assemble_disk(flat, *placed) is not None
    assert calls == [] and not hasattr(od, "convex_meet")
    assert meet([point_of(placed[1])], flat.vertices) is not None


def _edge_planted_planes(rng, offset):
    """(s, poly, k, origin, dir1, dir2, traces, marks) for s < 30: a
    plane meeting edge k of gen_random's polygon at offset along the
    first axis from the first centre of random.Random(s)."""
    for s in range(30):
        poly = gen_random(4 + s % 5, 4, seed=s)
        verts = poly.vertices
        n = len(verts)
        za, zb = _first_centre(s)
        k = rng.randrange(n)
        hit = verts[k] + (verts[(k + 1) % n] - verts[k]).scale(
            Fraction(rng.randint(1, 7), 8))
        found = None
        while found is None:
            dir1, dir2 = [Point([rng.randint(-8, 8) for _ in range(4)])
                          for _ in range(2)]
            origin = hit - dir1.scale(za + offset) - dir2.scale(zb)
            found = _plane_traces(poly, origin, dir1, dir2)
        yield (s, poly, k, origin, dir1, dir2, *found)


def test_place_disk_clears_an_edge_planted_near_its_first_centre():
    # each plane meets one edge of the polygon a quarter from the first
    # centre, so the disk certifies only because the radius shrinks to
    # keep conv(Q) off that edge's trace
    rng = random.Random(2002)
    for s, poly, k, origin, dir1, dir2, _, marks in \
            _edge_planted_planes(rng, Fraction(1, 4)):
        za, zb = _first_centre(s)
        edge = join_cells_rational(poly.hom)[k, k]
        assert _mark_set(*_flat_meet(_plane(origin, dir1, dir2), edge)) == \
            ("point", (za + Fraction(1, 4), zb))
        placed = _place_disk(poly, _plane(origin, dir1, dir2), marks,
                             random.Random(s))
        assert placed[1] == homogeneous(origin + dir1.scale(za)
                                        + dir2.scale(zb))
        assert _assemble_disk(poly, *placed) is not None, s


def _lifted_planar(n, scale):
    """gen_planar_ngon(n) scaled by scale, in the 2-flat x_3 = x_4 = 0
    of R^4."""
    return ClosedPolygon([Point((x * scale, y * scale, 0, 0))
                          for x, y in gen_planar_ngon(n).vertices])


def _clearance_cases(rng):
    """(poly, origin, dir1, dir2, seed) for the clearance oracle: the
    placement inputs; planes meeting an edge a quarter from the first
    centre or at it; planes through the centroid of polygons scaled
    x8..x64; and polygons in a hyperplane (a torus stick lifted by
    x_4 = x_1) and in a 2-flat (lifted planar n-gons), each in random
    planes and in planes with one or both directions along the
    polygon's flat, through a point of it, so that a plane inside it is
    skipped, or off it."""
    cases = [case[:4] + (rng.randrange(99),)
             for case in _placement_inputs(rng)]
    for offset in (Fraction(1, 4), 0):
        cases += [(poly, origin, dir1, dir2, s)
                  for s, poly, _, origin, dir1, dir2, _, _
                  in _edge_planted_planes(rng, offset)]
    for case in range(8):
        mid, big = _scaled(gen_random(4 + case % 5, 4, seed=case),
                           8 << case % 4)
        cases.append((big, mid, *[Point([rng.randint(-8, 8)
                                         for _ in range(4)])
                                  for _ in range(2)], case))
    torus = ClosedPolygon([Point((v[0], v[1], v[2], v[0]))
                           for v in gen_torus_stick(3).vertices])
    flats = [(torus, lambda: [rng.randint(-3, 3) for _ in range(3)],
              lambda c: Point(c + [c[0]]))]
    flats += [(_lifted_planar(n, 6), lambda: [rng.randint(-3, 3)
                                              for _ in range(2)],
               lambda c: Point(c + [0, 0])) for n in (3, 4, 6)]
    for poly, draw, place in flats:
        verts = poly.vertices
        for inside, off in product((0, 1, 2), (0, 1, 0)):
            origin = verts[0] + (verts[1] - verts[0]).scale(
                Fraction(rng.randint(0, 8), 8))
            origin += Point([off * rng.randint(1, 8) for _ in range(4)])
            dirs = [place(draw()) if i < inside
                    else Point([rng.randint(-8, 8) for _ in range(4)])
                    for i in range(2)]
            cases.append((poly, origin, *dirs, rng.randrange(99)))
    return cases


def test_place_disk_matches_rational_clearance_oracle(monkeypatch):
    # the integer marks of the maximal join cells pick the centre, radius
    # and ring of the rational rule on the traces of every join cell,
    # with the same draws, and skip the same planes
    import plspan.otherdims as od
    rng = random.Random(2027)
    branches = set()
    minors, nullspace = od._hyperplane_4d, od.int_nullspace

    def minor_spy(*corners):
        h = minors(*corners)
        branches.add("minor" if any(h) else "zero minor")
        return h

    def nullspace_spy(rows):
        branches.add("elimination of %d corners" % len(rows))
        return nullspace(rows)

    monkeypatch.setattr(od, "_hyperplane_4d", minor_spy)
    monkeypatch.setattr(od, "int_nullspace", nullspace_spy)
    reached, kinds = set(), set()
    for poly, origin, dir1, dir2, seed in _clearance_cases(rng):
        found = _plane_traces(poly, origin, dir1, dir2)
        if found is None:
            reached.add("plane skipped")
            continue
        traces, marks = found
        kinds.update(kind for kind, _ in marks)
        forms = _plane(origin, dir1, dir2)
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = place_disk_rational(poly, forms, traces, want_rng, reached)
        assert _place_disk(poly, forms, marks, got_rng) == want
        assert got_rng.getstate() == want_rng.getstate()
    assert reached == {"empty", "point", "line", "centre on a trace",
                       "radius halved", "plane skipped"}
    assert kinds == {"empty", "point", "line"}
    assert branches == {"minor", "zero minor", "elimination of 3 corners",
                        "elimination of 4 corners"}


def test_immersed_disk_solves_generic_join_cells_by_minors(monkeypatch):
    # criterion 06's polygons have no four corners of two disjoint edges
    # in one 2-flat, so every maximal join cell is its one nonzero 4x4
    # minor functional and none is eliminated; a planar pentagon lifted
    # into R^4 has all its corners in one 2-flat, so each of its
    # n (n - 3) / 2 = 5 cells is eliminated
    import plspan.otherdims as od
    calls = []
    nullspace = od.int_nullspace
    monkeypatch.setattr(od, "int_nullspace",
                        lambda rows: calls.append(len(rows))
                        or nullspace(rows))
    for i in range(20):
        immersed_disk_4d(gen_random(4 + i % 9, 4, seed=i), seed=i)
    assert calls == []
    mesh, rep = immersed_disk_4d(_lifted_planar(5, 6), seed=0)
    assert rep["triangles"] == len(mesh.triangles) == 15
    assert calls == [4] * 5


def test_place_disk_certifies_centres_inside_and_outside_the_hull():
    # planes through the centroid of polygons scaled x16..x64: the
    # clearance proof holds wherever the centre lies, and the hull LP,
    # kept here only as an oracle, runs until it has seen both sides
    rng = random.Random(2020)
    inside = set()
    for case in range(60):
        mid, big = _scaled(gen_random(5 + case % 4, 4, seed=case),
                           16 << case % 3)
        dir1, dir2 = [Point([rng.randint(-8, 8) for _ in range(4)])
                      for _ in range(2)]
        marks = _plane_marks(big, mid, dir1, dir2)
        if marks is None:
            continue
        placed = _place_disk(big, _plane(mid, dir1, dir2), marks, rng)
        assert _assemble_disk(big, *placed) is not None, case
        if inside != {True, False}:
            inside.add(convex_meet([point_of(placed[1])], big.vertices)
                       is not None)
    assert inside == {True, False}


def _octagon_400():
    """An R^4 octagon with vertices near +-400 e_i, large against the
    builder's centre grid."""
    axes = [(0, 1), (2, 1), (1, 1), (3, 1),
            (0, -1), (2, -1), (1, -1), (3, -1)]
    return ClosedPolygon([
        Point([400 * s * (c == i) + (7 * k % 5) * (c + 1)
               for c in range(4)])
        for k, (i, s) in enumerate(axes)])


def _scaled_12gon():
    return _scaled(gen_random(12, 4, seed=0), 4)[1]


@pytest.mark.parametrize("make", [_octagon_400, _scaled_12gon])
def test_immersed_spans_large_polygons_quickly(make):
    # polygons large against the centre grid span as fast as small ones
    poly = make()
    start = time.perf_counter()
    mesh, rep = immersed_disk_4d(poly, seed=0)
    assert time.perf_counter() - start < 1
    assert rep["triangles"] == len(mesh.triangles) == 3 * len(poly.vertices)


@pytest.mark.parametrize("patch, reason", [
    ("_place_disk", "no centre off the traces"),
    ("_assemble_disk", "the certificate refused the disk"),
])
def test_immersed_failure_names_why_the_last_attempt_was_skipped(
        monkeypatch, patch, reason):
    import plspan.otherdims as od
    monkeypatch.setattr(od, patch, lambda *args: None)
    with pytest.raises(AssertionError) as exc:
        immersed_disk_4d(gen_random(5, 4, seed=0), budget=3)
    assert str(exc.value) == ("no valid flat placement in 3 attempts "
                              "(seed 0): last skipped as " + reason)


def _contact_oracle(mesh):
    """polygon_contact_clean with no filter: every boundary edge against
    every triangle through segment_simplex_meet, in the same order; a
    contact is allowed only in the face the two share."""
    for u, v in mesh.boundary_edges():
        a, b = mesh.vertices[u], mesh.vertices[v]
        for ti, tri in enumerate(mesh.triangles):
            kind, data = segment_simplex_meet(a, b, mesh.triangle_points(ti))
            if kind == "empty":
                continue
            if kind == "point":
                hit = a + (b - a).scale(data)
                if (hit == a and u in tri) or (hit == b and v in tri):
                    continue
                return ("boundary edge %d-%d pierces triangle %d at %s"
                        % (u, v, ti, tuple(hit.coords)))
            if u in tri and v in tri:
                continue
            return "boundary edge %d-%d overlaps triangle %d" % (u, v, ti)
    return None


def _contact_soup(rng):
    """A grid polygon in R^4, half the time in the hyperplane x_4 = 0,
    and triangles over its corners and grid points of the same
    hyperplane: corners shared, polygon edges as triangle sides, and
    piercings inside a common hyperplane."""
    flat = rng.random() < 0.5

    def grid():
        return Point([rng.randint(0, 3) for _ in range(3)]
                     + [0 if flat else rng.randint(0, 3)])

    while True:
        try:
            poly = ClosedPolygon([grid() for _ in range(rng.randint(3, 5))])
            break
        except ValueError:
            continue
    n = len(poly.vertices)
    pool = poly.vertices + [grid() for _ in range(4)]
    mesh = TriMesh(4)
    while len(mesh.triangles) < 5:
        if rng.random() < 0.4:
            e = rng.randrange(n)
            pts = [*poly.edge(e), rng.choice(pool)]
        else:
            pts = rng.sample(pool, 3)
        if affine_rank(pts) == 2:
            add_triangle(mesh, *pts)
    return mesh, poly


def _disk_soup(rng):
    """An immersed-disk-shaped mesh over a grid polygon in R^4: the
    annulus and fan of _assemble_disk around grid points placed at
    random, so its boundary is the polygon's own edges, or None when a
    draw breaks that."""
    def grid():
        return Point([rng.randint(0, 3) for _ in range(4)])

    try:
        poly = ClosedPolygon([grid() for _ in range(rng.randint(3, 5))])
    except ValueError:
        return None
    verts = poly.vertices
    n = len(verts)
    q = [grid() for _ in range(n)]
    centre = grid()
    mesh = TriMesh(4)
    for j in range(n):
        for tri in ((verts[j], verts[(j + 1) % n], q[(j + 1) % n]),
                    (verts[j], q[j], q[(j + 1) % n]),
                    (q[j], q[(j + 1) % n], centre)):
            if affine_rank(tri) != 2:
                return None
            add_triangle(mesh, *tri)
    index = {p.coords: i for i, p in enumerate(mesh.vertices)}
    sides = {tuple(sorted(index[p.coords] for p in poly.edge(e)))
             for e in range(n)}
    if len(mesh.vertices) != 2 * n + 1 or set(mesh.boundary_edges()) != sides:
        return None
    return mesh, poly


def test_polygon_contact_clean_matches_unfiltered_oracle(monkeypatch):
    # box-apart pairs are dropped by the sweep, and sides, affinely
    # independent pairs and pairs whose one affine relation clears them
    # go without segment_simplex_meet; the description string must not
    # change.  Every pair with a shared end is decided by the pair test,
    # so one that reaches segment_simplex_meet overlaps the triangle.
    # Where the boundary edges are the polygon's own edges, the verdict
    # is that of the test that read the polygon's edges.
    import plspan.otherdims as od
    reached = set()
    hull, meet = od._hull_contact_clean, od.segment_simplex_meet
    sweep = od.overlapping_pairs
    swept = []  # (edge/triangle pairs kept, all edge/triangle pairs)

    def sweep_spy(boxes, split):
        pairs = sweep(boxes, split=split)
        swept.append((sum(j >= split for _, j in pairs),
                      split * (len(boxes) - split)))
        return pairs

    def hull_spy(hom, piece, tri, shared):
        clean = hull(hom, piece, tri, shared)
        pts = [Point([Fraction(x, h[-1]) for x in h[:-1]])
               for h in {hom[v] for v in piece + tri}]
        relations = len(pts) - 1 - affine_rank(pts)
        if relations == 0:
            assert clean
            reached.add("independent")
        elif relations == 1:
            reached.add(("relation", clean, len(shared)))
        else:
            assert not clean and not shared
            reached.add("open")
        return clean

    def meet_spy(a, b, pts):
        kind, data = meet(a, b, pts)
        reached.add("exact")
        if a in pts or b in pts:
            assert kind == "segment", (a, b, pts)
        return kind, data

    monkeypatch.setattr(od, "_hull_contact_clean", hull_spy)
    monkeypatch.setattr(od, "segment_simplex_meet", meet_spy)
    monkeypatch.setattr(od, "overlapping_pairs", sweep_spy)
    on_polygon = []
    for n in (3, 5):
        poly = gen_random(n, 4, seed=n)
        on_polygon.append((immersed_disk_4d(poly, seed=0)[0], poly))
    rng = random.Random(6)
    while len(on_polygon) < 80:
        soup = _disk_soup(rng)
        if soup is not None:
            on_polygon.append(soup)
    soups = [_contact_soup(rng)[0] for _ in range(150)]
    verdicts, polygon_verdicts = set(), set()
    for mesh in [m for m, _ in on_polygon] + soups:
        got = polygon_contact_clean(mesh)
        assert got == _contact_oracle(mesh), (mesh.vertices, got)
        verdicts.add(got is None)
    for mesh, poly in on_polygon:
        clean = polygon_contact_clean(mesh) is None
        assert clean == (polygon_edge_contact(mesh, poly) is None)
        polygon_verdicts.add(clean)
    assert verdicts == polygon_verdicts == {True, False}
    assert reached >= {"independent", "open", "exact",
                       ("relation", True, 0), ("relation", False, 0),
                       ("relation", True, 1), ("relation", False, 1)}, \
        reached
    kept, total = map(sum, zip(*swept))
    assert 0 < kept < total


# -- embedded surface in R^4 -------------------------------------------


def test_embedded_flat_triangle_skips_walls():
    tri = ClosedPolygon([Point((0, 0, 0, 2)), Point((4, 0, 0, 2)),
                         Point((0, 4, 0, 2))])
    mesh, rep = embedded_4d(tri, seed=0)
    assert rep["triangles"] == 7
    assert rep["wall_triangles"] == 0
    assert rep["euler"] == 1
    assert boundary_matches(mesh, tri)


def test_embedded_lifted_trefoil():
    tre = gen_torus_stick(3)
    p = ClosedPolygon([Point((v[0], v[1], v[2], v[0]))
                       for v in tre.vertices])
    mesh, rep = embedded_4d(p, seed=0)
    n = rep["n"]
    assert rep["triangles"] <= 21 * n * n
    assert rep["crossings"] == 3
    assert rep["genus"] == 1
    assert rep["embedded"]
    assert rep["wall_triangles"] == rep["triangles"] - rep["base_triangles"]
    assert boundary_matches(mesh, p)
    assert check_embedded(mesh) is None


def test_embedded_retries_degenerate_projection():
    # two vertices collide when the last coordinate is dropped, so the
    # unsheared attempt must be rejected
    p = ClosedPolygon([Point((0, 0, 0, 0)), Point((4, 0, 0, 1)),
                       Point((0, 0, 0, 4)), Point((0, 4, 0, 1))])
    mesh, rep = embedded_4d(p, seed=0)
    assert rep["attempt"] >= 1
    assert rep["euler"] == 1
    assert boundary_matches(mesh, p)


def test_embedded_wall_count_matches_boundary():
    p = gen_random(5, 4, seed=7)
    mesh, rep = embedded_4d(p, seed=0)
    walls = sum(1 for tag in mesh.provenance if tag.startswith("wall4"))
    assert walls == rep["wall_triangles"]
    # two wall triangles per edge of the spanned projection boundary
    assert walls == 2 * (rep["n"] + 4 * rep["crossings"])


def test_embedded_determinism():
    p = gen_random(5, 4, seed=9)
    m1, r1 = embedded_4d(p, seed=1)
    m2, r2 = embedded_4d(p, seed=1)
    assert r1 == r2
    assert [m1.triangle_points(t) for t in range(len(m1.triangles))] == \
        [m2.triangle_points(t) for t in range(len(m2.triangles))]


def test_builders_clear_each_vertex_once(monkeypatch):
    # every builder pools each point on its first use and adds triangles
    # by index, and clears no point: the polygon's corners come as its
    # forms, the cone's apex and the immersed disk's plane, inner n-gon
    # and centre are drawn as forms, and embedded_4d builds and lifts its
    # base surface on forms and makes its wall tops, the boundary, as
    # forms.  So geom.homogeneous runs for none of them before the
    # mesh is certified.
    import plspan.geom as geom_mod
    import plspan.mesh as mesh_mod
    import plspan.otherdims as od
    import plspan.polygon as polygon_mod
    builds = [(earclip_2d, lshape()),
              (cone_highdim, gen_random(7, 5, seed=2)),
              (immersed_disk_4d, gen_random(6, 4, seed=1)),
              (embedded_4d, gen_random(5, 4, seed=7))]
    cleared = []
    homogeneous = geom_mod.homogeneous
    for mod in (geom_mod, mesh_mod, polygon_mod):
        monkeypatch.setattr(mod, "homogeneous",
                            lambda p: cleared.append(p) or homogeneous(p))
    built = []
    certify = od.certify

    def certify_spy(mesh, poly, **kwargs):
        built.append((len(cleared), mesh))
        cert = certify(mesh, poly, **kwargs)
        cleared.clear()
        return cert

    monkeypatch.setattr(od, "certify", certify_spy)
    for build, poly in builds:
        mesh, _ = build(poly)
        assert built[-1] == (0, mesh)
        assert len(mesh.hom) > len(poly) or build is earclip_2d
    assert {made for made, _ in built} == {0}
    assert not hasattr(od, "homogeneous")


def _lifted_torus(m):
    return ClosedPolygon([Point((v[0], v[1], v[2], v[0]))
                          for v in gen_torus_stick(m).vertices])


def _off_bytes(mesh, tmp_path):
    path = tmp_path / "m.off"
    write_off(mesh, str(path))
    return path.read_bytes()


def test_embedded_attempt_matches_framed_oracle(tmp_path):
    # built in poly's own frame, an attempt gives the mesh and report that
    # building in the sheared frame and mapping back gave, byte for byte
    def off(mesh):
        return _off_bytes(mesh, tmp_path)

    polys = [_lifted_torus(3)]
    polys += [gen_random(n, 4, seed=s) for n in range(4, 7) for s in range(4)]
    rng = random.Random(47)
    built = 0
    for poly in polys:
        for attempt in range(1, 4):
            slopes = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 32), 16)
                      for _ in range(3)]
            try:
                want = embedded_attempt_framed(poly, slopes, 0, attempt)
            except (ValueError, AssertionError) as exc:
                with pytest.raises(type(exc), match="^%s$" % re.escape(
                        str(exc))):
                    _embedded_attempt(poly, slopes, 0, attempt)
                continue
            got = _embedded_attempt(poly, slopes, 0, attempt)
            assert off(got[0]) == off(want[0]), (poly, slopes)
            assert got[1] == want[1]
            built += 1
    assert built > 30


def test_flat_embedded4_matches_the_lifted_r3_surface(tmp_path):
    # a polygon in one hyperplane x_4 = h takes the ordinary attempt,
    # certified once in R^4, and gets the mesh and report of the R^3
    # surface spanned and certified apart and placed at height h
    bases = [(gen_torus_stick(3), "orientation"),
             (gen_torus_stick(3), "white-edge"),
             (gen_random(6, 3, seed=4), "orientation"),
             (gen_planar_ngon(3, dim=3), "orientation")]
    for base, rule in bases:
        for h in (0, Fraction(5, 3), Fraction(-7, 2)):
            poly = ClosedPolygon([Point(list(v) + [h])
                                  for v in base.vertices])
            want = embedded_flat_oracle(poly, rule=rule)
            got = embedded_4d(poly, rule=rule)
            assert got[1]["wall_triangles"] == 0 and got[1]["attempt"] == 0
            assert _off_bytes(got[0], tmp_path) \
                == _off_bytes(want[0], tmp_path), (base, rule, h)
            assert got[1] == want[1], (base, rule, h)


def test_lifted_torus_surface_needs_no_lp(monkeypatch):
    # criterion 07's lifted torus m=3: integer ranks decide every pair of
    # the R^4 surface, so the vertex-enumeration LP never runs
    import plspan.geom as geom
    calls = []
    lp = geom._meet_solutions

    def spy(*args):
        calls.append(args)
        return lp(*args)

    monkeypatch.setattr(geom, "_meet_solutions", spy)
    base = gen_torus_stick(3)
    poly = ClosedPolygon([Point((v[0], v[1], v[2], v[0]))
                          for v in base.vertices])
    mesh, rep = embedded_4d(poly, seed=0)
    assert rep["embedded"] is True
    assert check_embedded(mesh) is None
    assert calls == []


def test_count_bound_raises_under_python_O():
    # the t <= 21 n^2 bound is an explicit raise, not an assert that
    # python -O would strip
    code = """
from plspan.geom import Point
from plspan.mesh import CertificateError, TriMesh
from plspan.otherdims import _embedded_report
assert False, "asserts run"
mesh = TriMesh(4)
for k in range(22):
    mesh.add_triangle_indices(*(mesh.add_vertex(Point(p)) for p in (
        (k, 0, 0, 0), (k, 1, 0, 0), (k, 0, 1, 0))))
try:
    _embedded_report(mesh, {}, 1, 0, 0, 0)
except CertificateError as exc:
    print("raised:", exc)
"""
    src = str(Path(plspan.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "raised: embedded4: t = 22 exceeds 21 n^2"


def test_embedded_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        embedded_4d(gen_random(5, 3, seed=0))


def test_embedded_rejects_unknown_rule(monkeypatch):
    # an unknown smoothing rule is refused before any attempt runs, as
    # smooth refuses it, instead of failing all of the retry budget
    import plspan.otherdims as od
    attempts = []
    monkeypatch.setattr(od, "_embedded_attempt",
                        lambda *args: attempts.append(args))
    with pytest.raises(ValueError, match="unknown smoothing rule 'bogus'"):
        embedded_4d(gen_random(4, 4, seed=0), rule="bogus")
    assert attempts == []
