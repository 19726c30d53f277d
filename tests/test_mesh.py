import ast
import functools
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plspan.geom import (
    Point,
    _lead_minor,
    affine_rank,
    homogeneous,
    int_nullspace,
    int_rank,
    orient2d,
    orient3d,
    rat_str,
    rref,
    sign,
    simplex_intersect,
)
from plspan.polygon import (
    ClosedPolygon,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    gen_twist_writhe,
    validate_embedded,
)
from plspan.seifert import spanning_surface_r3
from plspan.mesh import (
    TriMesh,
    boundary_matches,
    certify,
    check_embedded,
    export_obj,
    import_obj,
    read_off,
    write_off,
)

from oracles import (
    AffineMap,
    add_triangle,
    affine_inverse,
    int_det,
    point_in_simplex,
    segment_param,
    shear_last_into,
)


def tetrahedron():
    m = TriMesh(3)
    a, b, c, d = (Point([0, 0, 0]), Point([4, 0, 0]),
                  Point([0, 4, 0]), Point([0, 0, 4]))
    add_triangle(m, a, b, c)
    add_triangle(m, a, b, d)
    add_triangle(m, a, c, d)
    add_triangle(m, b, c, d)
    return m


def fan_over_polygon(pts, apex=None):
    """Cone a planar cycle from its first vertex (or a given apex)."""
    m = TriMesh(pts[0].dim)
    if apex is None:
        apex = pts[0]
        for i in range(1, len(pts) - 1):
            add_triangle(m, apex, pts[i], pts[i + 1])
    else:
        for i in range(len(pts)):
            add_triangle(m, apex, pts[i], pts[(i + 1) % len(pts)])
    return m


def test_vertex_pooling():
    m = TriMesh(3)
    i = m.add_vertex(Point([1, "1/2", 0]))
    j = m.add_vertex(Point(["2/2", "0.5", 0]))
    assert i == j
    assert len(m.vertices) == 1
    # the pool key is the integer form: every spelling of a value pools
    k = m.add_vertex(Point(["1/2", "-3/4", 2]))
    assert m.add_vertex(Point([Fraction(2, 4), Fraction(-6, 8), 2])) == k
    assert m.add_vertex(Point(["0.5", "-0.75", "2.0"])) == k
    assert m.add_vertex(Point(["1/2", "-3/4", "5/2"])) == 2
    assert len(m.vertices) == len(m.hom) == 3


def _hom_in_sync(mesh):
    return len(mesh.hom) == len(mesh.vertices) and all(
        h == homogeneous(p) for h, p in zip(mesh.hom, mesh.vertices))


def test_hom_is_each_vertex_integer_form(tmp_path):
    # mesh.hom, cleared once at pooling, stays the integer form of every
    # vertex through add_vertex, transform and read_off
    rng = random.Random(77)
    m = TriMesh(4)
    for _ in range(12):
        add_triangle(m, *(Point([rnd_frac(rng, den=6) for _ in range(4)])
                          for _ in range(3)))
    m.add_vertex(Point(["1/3", "0.25", -2, "7/5"]))
    assert _hom_in_sync(m)
    sh = shear_last_into(4, ["1/3", "-2/7", "5/2"])
    assert _hom_in_sync(m.transform(sh))
    path = tmp_path / "m.off"
    write_off(m, str(path))
    back = read_off(str(path))
    assert back.hom == m.hom and _hom_in_sync(back)


def test_certify_clears_no_denominators(monkeypatch):
    # certify reads mesh.hom and the polygon's own forms, poly.hom:
    # homogeneous runs on no mesh vertex and no polygon corner
    import plspan
    poly = gen_torus_stick(3)
    mesh, _ = spanning_surface_r3(poly, seed=0)
    seen = []
    for name in ("geom", "mesh", "otherdims", "polygon", "seifert",
                 "diagram"):
        monkeypatch.setattr(getattr(plspan, name), "homogeneous",
                            lambda p: seen.append(p) or homogeneous(p),
                            raising=False)
    for interior in ("embedded", "immersed"):
        cert = certify(mesh, poly, interior=interior)
        assert cert["failure"] is None
    assert seen == []


def test_tetrahedron_topology():
    m = tetrahedron()
    assert m.validate_manifold() == []
    assert m.euler_characteristic() == 2
    assert m.boundary_edges() == []
    assert m.boundary_components() == 0
    assert m.connected_components() == 1
    ok, orient = m.orientation_propagate()
    assert ok and len(orient) == 4 and all(o in (-1, 1) for o in orient)
    assert m.genus() == 0
    assert check_embedded(m) is None


def test_face_edge_identity_three_t_is_2e_minus_m():
    # triple of triangle count vs edges and boundary edges
    for mesh in (tetrahedron(),
                 fan_over_polygon([Point([0, 0, 0]), Point([4, 0, 0]),
                                   Point([4, 4, 0]), Point([0, 4, 0]),
                                   Point([-2, 2, 0])])):
        t = len(mesh.triangles)
        e = len(mesh.edge_census())
        mbound = len(mesh.boundary_edges())
        assert 3 * t == 2 * e - mbound


def test_validate_catches_bad_meshes():
    m = TriMesh(3)
    a, b, c = Point([0, 0, 0]), Point([1, 0, 0]), Point([0, 1, 0])
    add_triangle(m, a, b, c)
    add_triangle(m, a, b, c)  # duplicate
    probs = m.validate_manifold()
    assert any("duplicates" in p for p in probs)

    m2 = TriMesh(3)
    add_triangle(m2, a, b, Point([2, 0, 0]))  # collinear
    assert any("degenerate" in p for p in m2.validate_manifold())

    m3 = TriMesh(3)
    i = m3.add_vertex(a)
    j = m3.add_vertex(b)
    m3.add_triangle_indices(i, j, i)
    assert any("repeats" in p for p in m3.validate_manifold())

    # an edge in three triangles
    m4 = TriMesh(3)
    for apexpt in (Point([0, 1, 0]), Point([0, 0, 1]), Point([0, -1, 0])):
        add_triangle(m4, a, Point([1, 0, 0]), apexpt)
    assert any("3 triangles" in p for p in m4.validate_manifold())


def test_moebius_strip_is_not_orientable():
    # five triangles closing up with a half twist
    m = TriMesh(3)
    pts = [Point([0, 0, 0]), Point([4, 0, 0]), Point([6, 3, 0]),
           Point([3, 6, 0]), Point([0, 4, 1])]
    idx = [m.add_vertex(p) for p in pts]
    faces = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    for i, j, k in faces:
        m.add_triangle_indices(idx[i], idx[j], idx[k])
    ok, cycle = m.orientation_propagate()
    assert not ok
    assert len(cycle) >= 3
    # consecutive triangles in the witness chain share an edge
    for t1, t2 in zip(cycle, cycle[1:]):
        shared = set(m.triangles[t1]) & set(m.triangles[t2])
        assert len(shared) == 2
    with pytest.raises(ValueError):
        m.genus()


def test_genus_of_torus_grid():
    # 4x4 torus grid triangulated, genus 1; coordinates are a placeholder
    # pool since only the combinatorics matter here
    n = 4
    m = TriMesh(3)
    idx = {}
    for i in range(n):
        for j in range(n):
            idx[(i, j)] = m.add_vertex(Point([i, j, i * n + j]))
    for i in range(n):
        for j in range(n):
            a = idx[(i, j)]
            b = idx[((i + 1) % n, j)]
            c = idx[((i + 1) % n, (j + 1) % n)]
            d = idx[(i, (j + 1) % n)]
            m.add_triangle_indices(a, b, c)
            m.add_triangle_indices(a, c, d)
    assert m.euler_characteristic() == 0
    assert m.boundary_components() == 0
    ok, _ = m.orientation_propagate()
    assert ok
    assert m.genus() == 1


# ---------------------------------------------------------------------------
# embeddedness: filtered sweep against the unfiltered quadratic oracle

def _embedded_oracle(mesh, order=None):
    """All pairs, no filters: straight to the simplex intersection.

    Pairs are visited as (order[i], order[j]), i < j, with order the
    triangle indices unless given.  Returns the first pair meeting
    outside its shared face with simplex_intersect's witness (the
    centroid for a repeated triangle), or None."""
    nt = len(mesh.triangles)
    order = list(range(nt)) if order is None else order
    for pos, a in enumerate(order):
        for b in order[pos + 1:]:
            sa, sb = set(mesh.triangles[a]), set(mesh.triangles[b])
            allowed = [mesh.vertices[v] for v in sa & sb]
            pts_a = mesh.triangle_points(a)
            if len(sa & sb) == 3:
                return (a, b, Point([sum(p[i] for p in pts_a) / 3
                                     for i in range(mesh.dim)]))
            w = simplex_intersect(pts_a, mesh.triangle_points(b), allowed)
            if w is not None:
                return (a, b, w)
    return None


def rnd_frac(rng, lim=5, den=2):
    return Fraction(rng.randint(-lim, lim), rng.randint(1, den))


def _random_soup(rng):
    """Random small triangle soup, some sharing vertices via pooling."""
    m = TriMesh(3)
    pool = [Point([rnd_frac(rng), rnd_frac(rng), rnd_frac(rng)])
            for _ in range(8)]
    tris = 0
    while tris < 6:
        trio = rng.sample(range(len(pool)), 3)
        pts = [pool[t] for t in trio]
        if affine_rank(pts) != 2:
            continue
        key = frozenset(p.coords for p in pts)
        if any(frozenset(mesh_pt.coords for mesh_pt
                         in m.triangle_points(t)) == key
               for t in range(len(m.triangles))):
            continue
        add_triangle(m, *pts)
        tris += 1
    return m


def _planar_soup(rng, dim):
    """Mostly coplanar triangles: half unit squares of a grid in a plane,
    which share vertices and edges and line up their edges along grid
    lines; now and then one of them mirrored through its centroid; and
    now and then a stray triangle over half-grid points that may cut
    into them, lie in their plane, or touch it in a point or an edge
    from one side."""
    tilt = Fraction(rng.randint(-2, 2), 2)

    def lift(x, y, off=0):
        return Point([x, y, tilt * x + y + off] + [off] * (dim - 3))

    m = TriMesh(dim)
    cells = rng.sample([(x, y) for x in range(3) for y in range(3)],
                       rng.randint(2, 4))
    for x, y in cells:
        a, b, c, d = lift(x, y), lift(x + 1, y), lift(x + 1, y + 1), \
            lift(x, y + 1)
        halves = ((a, b, c), (a, c, d)) if rng.random() < 0.5 \
            else ((a, b, d), (b, c, d))
        for tri in halves[:rng.randint(1, 2)]:
            add_triangle(m, *tri)
    if rng.random() < 0.2:
        # a triangle's point reflection through its centroid crosses it
        # as a hexagram: proper edge crossings, no vertex inside
        pts = m.triangle_points(rng.randrange(len(m.triangles)))
        add_triangle(m, *(Point([2 * sum(q[i] for q in pts) / 3 - p[i]
                                 for i in range(dim)]) for p in pts))
    for _ in range(rng.choice((0, 0, 1, 2))):
        off, lifted = rng.choice((0, 1, -1)), rng.randint(1, 2)
        pts = [lift(Fraction(rng.randint(0, 6), 2),
                    Fraction(rng.randint(0, 6), 2), off * (k < lifted))
               for k in range(3)]
        key = frozenset(p.coords for p in pts)
        if affine_rank(pts) == 2 and all(
                frozenset(q.coords for q in m.triangle_points(t)) != key
                for t in range(len(m.triangles))):
            add_triangle(m, *pts)
    return m


def _cycled_axes(m):
    """A copy of m with coordinates (x, y, z, ...) -> (y, z, x, ...),
    vertex and triangle order kept."""
    out = TriMesh(m.dim)
    for p in m.vertices:
        out.add_vertex(Point([p[1], p[2], p[0]] + list(p.coords[3:])))
    for tri in m.triangles:
        out.add_triangle_indices(*tri)
    return out


@functools.lru_cache(maxsize=None)
def _oracle_soups():
    """Random and planar soups for the embeddedness tests, and the first
    thirty planar soups with cycled axes: the planar soups' planes
    z = t x + y + c with t = 0 then contain the last axis."""
    rng = random.Random(1234)
    soups = [_random_soup(rng) for _ in range(40)]
    rng = random.Random(2003)
    planar = [_planar_soup(rng, rng.choice((3, 3, 4))) for _ in range(60)]
    return soups + planar + [_cycled_axes(m) for m in planar[:30]]


@functools.lru_cache(maxsize=None)
def _oracle_soup_verdicts():
    return [check_embedded(m) is None for m in _oracle_soups()]


def _spy_pair_tests(monkeypatch, mesh_mod, names):
    """Wrap the named pair tests of mesh_mod.  Returns (calls, watch):
    calls lists [name, pair, shared count, result] per call, where pair is the
    frozenset of the two triangles' indices in the mesh last passed to
    watch(mesh), read off whatever form the test takes its triangles
    in: vertex indices, homogeneous forms in any order, or Points."""
    calls = []
    tri_of, vertex_of = {}, {}

    def watch(m):
        calls.clear()
        tri_of.clear()
        tri_of.update({frozenset(tri): t for t, tri in enumerate(m.triangles)})
        vertex_of.clear()
        for v, (p, h) in enumerate(zip(m.vertices, m.hom)):
            vertex_of[p.coords] = vertex_of[h] = v

    def tri(xs):
        return tri_of[frozenset(
            x if isinstance(x, int) else vertex_of[getattr(x, "coords", x)]
            for x in xs)]

    def pair_of(name, args):
        if name == "_coplanar_contact_clean":
            _, _, tri_a, tri_b, shared = args
        elif name == "_tri_pair_meets_3d":
            tri_a, tri_b, shared = args[0], args[1], ()
            if tri_a[0] not in vertex_of:
                # forms projected into a 3-flat by the hull test, which
                # was called last, on the same pair
                return calls[-1][1], 0
        elif name == "_hull_contact_clean":
            _, tri_a, tri_b, shared = args
        elif name == "_shared_edge_clean":
            tri_a, tri_b = args[:2]
            shared = set(tri_a) & set(tri_b)
        else:  # simplex_intersect
            tri_a, tri_b, shared = args
        return frozenset((tri(tri_a), tri(tri_b))), len(shared)

    def spy(name, fn):
        def wrapped(*args):
            call = [name, *pair_of(name, args), None]
            calls.append(call)
            call[-1] = fn(*args)
            return call[-1]
        monkeypatch.setattr(mesh_mod, name, wrapped)

    for name in names:
        spy(name, getattr(mesh_mod, name))
    return calls, watch


def _pinned_3d(m, a, b):
    """Oracle for the pin test in R^3, on a pair sharing one vertex: the
    two other vertices of one triangle strictly on one side of the
    other's plane."""
    for s, t in ((a, b), (b, a)):
        plane = m.triangle_points(s)
        sides = {orient3d(*plane, m.vertices[v]) for v in m.triangles[t]
                 if v not in m.triangles[s]}
        if sides in ({1}, {-1}):
            return True
    return False


def _record_pair_tests(m, got, calls, reached):
    """Add to reached the (test, shared count) of each call _spy_pair_tests
    saw on m, and check that no pair sharing an edge reaches the
    crossing-plane or hull test, and that the LP runs only on pairs that
    meet outside their shared face, in R^3 or after the coplanar test.
    When m is embedded (got is None), every candidate pair was visited:
    pairs sharing an edge off each other's plane, and in R^3 pairs
    sharing a vertex with a triangle pinned to it by the other's plane
    (rational orient3d), must reach no test at all, and add
    ('edge, off the plane', 2) and ('pinned vertex', 1)."""
    tested = {}
    for name, pair, k, result in calls:
        tested.setdefault(pair, set()).add(name)
        reached.add((name, k))
        # R^3 tests and the coplanar test decide each pair they see, so
        # only a pair meeting outside its shared face goes on to the LP
        if name == "simplex_intersect" and (
                m.dim == 3 or "_coplanar_contact_clean" in tested[pair]):
            assert result is not None, (pair, tested[pair])
    for a in range(len(m.triangles)):
        for b in range(a + 1, len(m.triangles)):
            names = tested.get(frozenset((a, b)), set())
            shared = set(m.triangles[a]) & set(m.triangles[b])
            if len(shared) == 2:
                assert not names & {"_tri_pair_meets_3d",
                                    "_hull_contact_clean"}, (a, b, names)
            if got is not None or len(shared) not in (1, 2):
                continue
            coplanar = affine_rank(
                [m.vertices[v] for v in m.triangles[a]]
                + [m.vertices[v] for v in m.triangles[b]
                   if v not in shared]) == 2
            if len(shared) == 2 and not coplanar:
                assert not names, (a, b, names)
                reached.add(("edge, off the plane", 2))
            elif len(shared) == 1 and m.dim == 3 and not coplanar \
                    and _pinned_3d(m, a, b):
                assert not names, (a, b, names)
                reached.add(("pinned vertex", 1))


def test_check_embedded_matches_unfiltered_oracle(monkeypatch):
    # check_embedded must give the oracle's verdict and, with the oracle
    # visiting pairs in the sweep order, its first pair and witness, and
    # reach every branch (_record_pair_tests): pairs sharing an edge off
    # each other's plane and pinned pairs decided with no later test,
    # the coplanar test on pairs sharing nothing, a vertex and an edge,
    # the sign rule on coplanar R^3 pairs sharing an edge,
    # the crossing-plane kernel on pairs sharing nothing, the signs of
    # the one affine relation on pairs sharing a vertex, and the full
    # simplex intersection.
    import plspan.mesh as mesh_mod
    later = ("_coplanar_contact_clean", "_shared_edge_clean",
             "_tri_pair_meets_3d", "_hull_contact_clean",
             "simplex_intersect")
    calls, watch = _spy_pair_tests(monkeypatch, mesh_mod, later)
    # the pin test runs first: a pair reaching the crossing-plane kernel
    # never has the free vertices of a triangle strictly on one side of
    # the other's plane, nor all of them on it, and a pair reaching the
    # relation never has a triangle's two free coefficients of strictly
    # opposite signs
    crossing = mesh_mod._tri_pair_meets_3d

    def crossing_spy(hs_a, hs_b, vals_ba, vals_ab):
        for vals in (vals_ab, vals_ba):
            assert len(vals) == 3 and any(vals)
            assert not (all(x > 0 for x in vals)
                        or all(x < 0 for x in vals)), (hs_a, hs_b)
        return crossing(hs_a, hs_b, vals_ba, vals_ab)

    relation = mesh_mod._relation_clean
    reached = set()

    def relation_spy(on_a, on_b):
        for on in (on_a, on_b):
            assert len(on) == 2 and on[0] * on[1] >= 0, (on_a, on_b)
        reached.add(("_relation_clean", 1))
        return relation(on_a, on_b)

    monkeypatch.setattr(mesh_mod, "_tri_pair_meets_3d", crossing_spy)
    monkeypatch.setattr(mesh_mod, "_relation_clean", relation_spy)
    verdicts = set()
    for trial, m in enumerate(_oracle_soups()):
        watch(m)
        got = check_embedded(m)
        # check_embedded's sweep order: triangles sorted stably by least x
        sweep = sorted(range(len(m.triangles)), key=lambda t: min(
            p[0] for p in m.triangle_points(t)))
        want = _embedded_oracle(m, sweep)
        if want is None:
            assert got is None, (trial, got)
        else:
            assert (got.tri_a, got.tri_b, got.point) == want, (trial, got)
        verdicts.add(got is None)
        # in R^3 the sign rule decides every coplanar pair sharing an edge
        assert m.dim != 3 or not any(
            name == "_coplanar_contact_clean" and k == 2
            for name, _, k, _ in calls), trial
        _record_pair_tests(m, got, calls, reached)
    assert verdicts == {True, False}
    assert reached >= {("edge, off the plane", 2), ("pinned vertex", 1),
                       ("_coplanar_contact_clean", 0),
                       ("_coplanar_contact_clean", 1),
                       ("_coplanar_contact_clean", 2),
                       ("_shared_edge_clean", 2),
                       ("_tri_pair_meets_3d", 0),
                       ("_relation_clean", 1)}, reached
    assert ("_tri_pair_meets_3d", 1) not in reached
    assert any(name == "simplex_intersect" for name, _ in reached)


def test_planar_triangles_need_no_elimination():
    # a triangle of R^2 has no plane functional: one nonzero determinant
    # of its three forms says so, and only a collinear one, whose kernel
    # vector marks it degenerate, runs an elimination
    import plspan.geom as geom
    from plspan.mesh import _tri_planes
    rng = random.Random(55)
    eliminations = []
    bareiss = geom._bareiss
    reached = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_bareiss", lambda rows, reduce=False:
                   eliminations.append(1) or bareiss(rows, reduce))
        for _ in range(200):
            a, b = (Point([rnd_frac(rng) for _ in range(2)]) for _ in "ab")
            c = Point([rnd_frac(rng) for _ in range(2)]) if rng.randint(0, 1) \
                else a + (b - a).scale(Fraction(rng.randint(-4, 8), 4))
            if len({a, b, c}) < 3:
                continue
            flat = affine_rank([a, b, c]) < 2
            eliminations.clear()
            planes = _tri_planes([homogeneous(p) for p in (a, b, c)],
                                 (0, 1, 2))
            assert (planes != []) == flat == bool(eliminations), (a, b, c)
            reached.add(flat)
    assert reached == {True, False}


def test_tri_data_functionals_give_plane_sides():
    # d - 2 independent integer functionals per triangle of R^d, zero at
    # its vertices, with the sign of the rational affine functional
    # h . x + h_0 at any point
    from plspan.mesh import _tri_planes
    rng = random.Random(22)
    for _ in range(300):
        d = rng.randint(2, 5)
        pts = [Point([rnd_frac(rng) for _ in range(d)]) for _ in range(3)]
        if affine_rank(pts) != 2:
            continue
        hom = [homogeneous(p) for p in pts]
        planes = _tri_planes(hom, (0, 1, 2))
        assert len(planes) == d - 2
        assert planes == [] or int_rank(planes) == d - 2
        q = Point([rnd_frac(rng) for _ in range(d)])
        for h in planes:
            assert all(sum(a * x for a, x in zip(h, hv)) == 0 for hv in hom)
            value = sum(a * x for a, x in zip(h, q.coords)) + h[-1]
            assert sign(sum(a * x for a, x in zip(h, homogeneous(q)))) \
                == sign(value)


def _small_rats():
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _plane_triples(draw):
    """Three points of R^3; half the time the third lies on the line
    through the first two, or repeats one of them."""
    p, q = (Point(draw(st.lists(_small_rats(), min_size=3, max_size=3)))
            for _ in range(2))
    if draw(st.booleans()):
        r = Point(draw(st.lists(_small_rats(), min_size=3, max_size=3)))
    else:
        t = draw(_small_rats())
        r = Point([a + t * (b - a) for a, b in zip(p, q)])
    return p, q, r


_BIG = st.integers(-2 ** 60, 2 ** 60)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(3, 5).flatmap(lambda w: st.lists(
    st.lists(_BIG, min_size=w, max_size=w), min_size=2, max_size=2)),
    st.lists(_BIG, min_size=3, max_size=3), st.booleans())
def test_line_2d_is_the_determinant_with_a_third_row(rows, x, repeat):
    # the signed 2x2 minors of p and q, read on their entries 0, 1 and
    # last, give det[x; p; q], and vanish when p and q are one row
    from plspan.geom import _line_2d
    p, q = rows if not repeat else (rows[0], list(rows[0]))
    line = _line_2d(p, q)
    assert sum(a * b for a, b in zip(line, x)) == \
        int_det([x, p[:2] + p[-1:], q[:2] + q[-1:]])
    if repeat:
        assert not any(line)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_plane_triples(), st.lists(_small_rats(), min_size=3, max_size=3))
def test_plane_3d_is_a_multiple_of_the_nullspace_functional(pts, x):
    # the signed minors give det[x; p; q; r], a nonzero multiple of
    # int_nullspace's one functional for a triangle, and zero exactly on
    # affinely dependent triples
    from plspan.geom import _plane_3d
    hs = [homogeneous(p) for p in pts]
    plane = _plane_3d(*hs)
    hx = homogeneous(Point(x))
    assert sum(a * b for a, b in zip(plane, hx)) == int_det([hx] + hs)
    flat = affine_rank(list(pts)) < 2
    assert (not any(plane)) == flat
    if not flat:
        (h,) = int_nullspace(hs)
        assert int_rank([plane, h]) == 1


@st.composite
def _hyperplane_quads(draw):
    """Four integer rows of length 5 to 7 with entries of either sign up
    to 2^60; half the time one of them is a small integer combination of
    the other three, which may be dependent themselves."""
    width = draw(st.integers(5, 7))
    rows = [draw(st.lists(_BIG, min_size=width, max_size=width))
            for _ in range(3)]
    if draw(st.booleans()):
        rows.append(draw(st.lists(_BIG, min_size=width, max_size=width)))
    else:
        if draw(st.booleans()):
            rows[2] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        cs = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        rows.append([sum(c * r[k] for c, r in zip(cs, rows))
                     for k in range(width)])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_hyperplane_quads(), st.lists(_BIG, min_size=5, max_size=5))
def test_hyperplane_4d_is_a_multiple_of_the_nullspace_functional(rows, x):
    # the signed 4x4 minors of the rows, read on their entries 0 to 3 and
    # last, give det[x; p; q; r; s], zero exactly when those columns are
    # dependent, and else a nonzero multiple of their one int_nullspace
    # functional
    from plspan.geom import _hyperplane_4d
    h = _hyperplane_4d(*rows)
    rows = [r[:4] + r[-1:] for r in rows]
    assert sum(a * b for a, b in zip(h, x)) == int_det([x] + rows)
    flat = int_rank(rows) < 4
    assert (not any(h)) == flat
    if not flat:
        (k,) = int_nullspace(rows)
        assert int_rank([h, k]) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_plane_triples(), _small_rats(), _small_rats().filter(bool),
       st.permutations(range(3)), st.integers(0, 2))
def test_shared_edge_sign_rule_matches_coplanar_test(pts, s, t, order_a,
                                                     turn_b):
    # coplanar triangles a = uvx and b = uvz of R^3 sharing the edge uv,
    # z = u + s (v - u) + t (x - u) on x's side of uv or (with -t) on the
    # other, b running uv in either direction, a's vertices in any order
    # and b's in any rotation: the sign rule on the two _plane_3d vectors
    # gives the orientation test's verdict, clean iff z is across uv
    from plspan.mesh import (_coplanar_contact_clean, _plane_3d,
                             _plane_axes, _shared_edge_clean)
    assume(affine_rank(list(pts)) == 2)
    u, v, x = pts
    tri_a = tuple(order_a)
    verdicts = set()
    for side in (t, -t):
        z = Point([p + s * (q - p) + side * (r - p) for p, q, r in zip(u, v, x)])
        hom = [homogeneous(p) for p in (u, v, x, z)]
        plane_a = _plane_3d(*(hom[i] for i in tri_a))
        for edge in ((0, 1), (1, 0)):
            tri_b = (*edge, 3)
            tri_b = tri_b[turn_b:] + tri_b[:turn_b]
            plane_b = _plane_3d(*(hom[i] for i in tri_b))
            got = _shared_edge_clean(tri_a, tri_b, plane_a, plane_b)
            assert got == _coplanar_contact_clean(
                hom, _plane_axes([plane_a], 3), tri_a, tri_b, [0, 1])
            assert got == (side < 0)
            verdicts.add(got)
    assert verdicts == {True, False}


def _grid_form(rng):
    """The form of a point with coordinates in -3..3 over a weight 1..3."""
    return tuple(rng.randint(-3, 3) for _ in range(3)) + (rng.randint(1, 3),)


def _in_plane(rng, tri):
    """The form of a point on the plane of the forms tri: an integer
    combination of them of positive weight, an affine one of the points."""
    while True:
        ks = [rng.randint(-2, 3) for _ in range(3)]
        h = tuple(sum(k * q[c] for k, q in zip(ks, tri)) for c in range(4))
        if h[-1] > 0:
            return h


def _crossing_pair(rng, kind):
    """Forms a and b of two triangles of R^3 on the small grid, by kind:
    'random'; 'vertex' or 'edge' with one or two vertices of a on b's
    plane; 'end' with a's edge a0a1 halved by a point X of b's edge b0b1,
    which ends both segments on the crossing line; 'inside' with a small
    triangle about a point inside b."""
    b = [_grid_form(rng) for _ in range(3)]
    a = [_grid_form(rng) for _ in range(3)]
    if kind in ("vertex", "edge"):
        for i in rng.sample(range(3), 1 if kind == "vertex" else 2):
            a[i] = _in_plane(rng, b)
    elif kind == "end":
        x = [p + q for p, q in zip(b[0], b[1])]
        y = a[0]
        a[1] = tuple(2 * x[c] * y[3] - y[c] * x[3] for c in range(3)) \
            + (x[3] * y[3],)
    elif kind == "inside":
        c = [p + q + r for p, q, r in zip(*b)]
        a = [tuple(16 * c[i] + rng.randint(-3, 3) for i in range(3))
             + (16 * c[3],) for _ in range(3)]
    rng.shuffle(a)
    rng.shuffle(b)
    return a, b


def _segment_relation(hs_a, hs_b, vals_ba, vals_ab, plane_a, plane_b):
    """How the segments where each triangle meets the other's plane lie
    on the crossing line, by the constructed points of the oracle:
    'apart', 'touch' in one point, 'end' sharing an end, one 'inside'
    the other, or 'overlap'."""
    from plspan.geom import coord_keys
    from oracles import plane_meet_points
    meets_a = plane_meet_points(hs_a, vals_ba)
    meets_b = plane_meet_points(hs_b, vals_ab)
    a0, a1, a2 = plane_a[:3]
    b0, b1, b2 = plane_b[:3]
    axis = 0 if a1 * b2 != a2 * b1 else 1 if a2 * b0 != a0 * b2 else 2
    keys = coord_keys(meets_a + meets_b, axis)
    ka, kb = keys[:len(meets_a)], keys[len(meets_a):]
    (la, ha), (lb, hb) = (min(ka), max(ka)), (min(kb), max(kb))
    if la > hb or lb > ha:
        return "apart"
    if la == hb or lb == ha:
        return "touch"
    if la == lb or ha == hb:
        return "end"
    if la < lb <= hb < ha or lb < la <= ha < hb:
        return "inside"
    return "overlap"


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_tri_pair_kernel_matches_crossing_line_oracle(seed):
    # the orientation-sign kernel gives the crossing-line oracle's
    # verdict on triangle pairs in crossing planes, from the small grid
    # and planted: a vertex or an edge of one on the other's plane,
    # segments ending at one point of the crossing line, one segment
    # inside the other.  Both argument orders agree, and so does the
    # hull test on the pair mapped into a 3-flat of R^4.  Every turn of
    # each triangle and both sides of the plane are reached, with the
    # lone vertex off the plane and on it, and every relation of the
    # two segments.
    import plspan.geom as geom
    from plspan.mesh import _hull_contact_clean
    from oracles import crossing_planes_contact_3d
    rng = random.Random(seed)
    lone = geom._lone_vertex
    reached = set()

    def lone_spy(vals):
        i, up = lone(vals)
        reached.add((i, up, vals[i] == 0))
        return i, up

    kinds = ("random", "vertex", "edge", "end", "inside")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_lone_vertex", lone_spy)
        for trial in range(600):
            hs_a, hs_b = _crossing_pair(rng, kinds[trial % len(kinds)])
            plane_a, plane_b = geom._plane_3d(*hs_a), geom._plane_3d(*hs_b)
            if not any(plane_a) or not any(plane_b):
                continue
            vals_ab = [sum(map(operator.mul, plane_a, q)) for q in hs_b]
            vals_ba = [sum(map(operator.mul, plane_b, q)) for q in hs_a]
            if not any(vals_ab) or any(min(v) > 0 or max(v) < 0
                                       for v in (vals_ab, vals_ba)):
                continue
            clean = crossing_planes_contact_3d(plane_a, plane_b, hs_a, hs_b,
                                               vals_ab, vals_ba)
            meets = geom._tri_pair_meets_3d(hs_a, hs_b, vals_ba, vals_ab)
            assert meets == (not clean), (hs_a, hs_b)
            assert geom._tri_pair_meets_3d(hs_b, hs_a, vals_ab, vals_ba) \
                == meets, (hs_a, hs_b)
            reached.add(_segment_relation(hs_a, hs_b, vals_ba, vals_ab,
                                          plane_a, plane_b))
            reached.add(("zeros", sum(v == 0 for v in vals_ab)))
            while True:
                lin = [[rng.randint(-2, 2) for _ in range(3)]
                       for _ in range(4)]
                if int_rank(lin) == 3:
                    break
            shift = [rng.randint(-3, 3) for _ in range(4)]
            hom4 = [tuple(sum(r * x for r, x in zip(row, h[:3])) + t * h[3]
                          for row, t in zip(lin, shift)) + (h[3],)
                    for h in hs_a + hs_b]
            assert _hull_contact_clean(hom4, (0, 1, 2), (3, 4, 5), set()) \
                == clean, (hs_a, hs_b)
    assert {(i, up, on) for i in range(3) for up in (True, False)
            for on in (True, False)} <= reached, reached
    assert {"apart", "touch", "end", "inside", "overlap", ("zeros", 0),
            ("zeros", 1), ("zeros", 2)} <= reached, reached


def _coplanar_pair(rng):
    """2-D Points of a triangle pair on a small grid, b's own vertices
    moved by a random offset, as a list and two index triples sharing
    none, one or two indices, each triangle nondegenerate; now and then
    a bowtie, b's free vertices on a's edge lines through their shared
    vertex, mostly across it (b a point reflection of a, or scaled), so
    that every edge line has a vertex on it, now and then one on a's
    side instead, where b overlaps an edge of a."""
    while True:
        off = [rng.randint(-4, 4) for _ in range(2)]
        pts = [Point([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      + (k > 2) * off[i] for i in range(2)])
               for k in range(6)]
        shared = rng.choice((0, 0, 1, 1, 2, "bowtie"))
        a = [0, 1, 2]
        if shared == "bowtie":
            pts[3:5] = [pts[0] + (pts[0] - p).scale(
                Fraction(rng.choice((2, 2, 1, 3, 4, -1)), 2))
                for p in pts[1:3]]
            b = [0, 3, 4]
        else:
            b = rng.sample(a, shared) + [3, 4, 5][:3 - shared]
        rng.shuffle(a)
        rng.shuffle(b)
        if all(orient2d(*(pts[v] for v in t)) for t in (a, b)):
            return pts, tuple(a), tuple(b)


def _first_separating_edge(pts, tri_a, tri_b):
    """The first edge, of a's then b's, whose line has every vertex of
    the other triangle but the edge's own ends strictly on the side away
    from its own triangle, as (0 or 1, edge); None when none does."""
    for side, (tri, other) in enumerate(((tri_a, tri_b), (tri_b, tri_a))):
        for e in range(3):
            u, v, w = tri[e], tri[(e + 1) % 3], tri[(e + 2) % 3]
            turn = orient2d(pts[u], pts[v], pts[w])
            if all(orient2d(pts[u], pts[v], pts[x]) * turn < 0
                   for x in other if x not in (u, v)):
                return side, e
    return None


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_coplanar_edge_exit_matches_full_test(seed):
    # coplanar triangle pairs of R^3 from a small grid of a plane mapped
    # in by an integer affine map, sharing no vertex, one or an edge:
    # the test gives the full test's verdict, and takes the signs only
    # up to the first separating edge, of a's and then b's, or all
    # twenty when none separates.  A pair no edge separates meets
    # outside what it shares (simplex_intersect has a witness when it
    # shares nothing), unless it shares one vertex w and b's free
    # vertices lie weakly outside a's two edge lines through w, checked
    # by rational orient2d.  Each of the six exits, and a pair no edge
    # separates sharing nothing, an edge, and a vertex with either
    # verdict, also with b's free vertices on a's lines through w (a
    # bowtie), are reached: pairs are drawn until they are, at least 300.
    import plspan.mesh as mesh_mod
    from oracles import coplanar_contact_full
    rng = random.Random(seed)
    signs = []
    orient = mesh_mod.orient2d_h
    reached = set()
    exits = {(side, e) for side in (0, 1) for e in range(3)} \
        | {(0, False), (1, True), (1, False), (2, False),
           ("bowtie", True), ("bowtie", False)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_mod, "orient2d_h",
                   lambda *q: signs.append(1) or orient(*q))
        for trial in range(4000):
            if trial >= 300 and exits <= reached:
                break
            pts, tri_a, tri_b = _coplanar_pair(rng)
            while True:
                lin = [[rng.randint(-2, 2) for _ in range(2)]
                       for _ in range(3)]
                if int_rank(lin) == 2:
                    break
            shift = [Fraction(rng.randint(-3, 3), 2) for _ in range(3)]
            lifted = [Point([r[0] * p[0] + r[1] * p[1] + t
                             for r, t in zip(lin, shift)]) for p in pts]
            hom = [homogeneous(p) for p in lifted]
            shared = set(tri_a) & set(tri_b)
            axes = mesh_mod._plane_axes(
                [mesh_mod._plane_3d(*(hom[v] for v in tri_a))], 3)
            signs.clear()
            got = mesh_mod._coplanar_contact_clean(hom, axes, tri_a, tri_b,
                                                   shared)
            assert got == coplanar_contact_full(hom, axes, tri_a, tri_b,
                                                shared), (pts, tri_a, tri_b)
            edge = _first_separating_edge(pts, tri_a, tri_b)
            if edge is not None:
                side, e = edge
                assert got and len(signs) == 3 * e + 4 + 10 * side, \
                    (pts, tri_a, tri_b, edge)
                reached.add(edge)
                continue
            assert len(signs) == 20, (pts, tri_a, tri_b)
            if len(shared) == 1:
                (w,) = shared
                p, q = (v for v in tri_a if v != w)
                opposite = all(
                    orient2d(pts[w], pts[u], pts[x])
                    * orient2d(pts[w], pts[u], pts[o]) <= 0
                    for u, o in ((p, q), (q, p)) for x in tri_b if x != w)
                assert got == opposite, (pts, tri_a, tri_b)
                if all(orient2d(pts[w], pts[p], pts[x])
                       * orient2d(pts[w], pts[q], pts[x]) == 0
                       for x in tri_b):
                    reached.add(("bowtie", got))
            else:
                assert not got, (pts, tri_a, tri_b)
            if not shared:
                assert simplex_intersect([lifted[v] for v in tri_a],
                                         [lifted[v] for v in tri_b]) \
                    is not None, (pts, tri_a, tri_b)
            reached.add((len(shared), got))
    assert exits <= reached, reached


def test_check_embedded_names_the_first_degenerate_triangle():
    # a segment-like triangle beside another: apart from it, where no
    # pair test would see it, or straddling it, where the simplex
    # intersection would; in R^3 and R^4, in either order
    flat = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    for other in ([(5, 5, 5), (6, 5, 5), (5, 6, 5)],
                  [(1, 0, -1), (1, 1, 1), (1, -1, 1)]):
        for dim in (3, 4):
            for first in (0, 1):
                m = TriMesh(dim)
                tris = [flat, other] if first == 0 else [other, flat]
                for tri in tris:
                    add_triangle(m, *(Point(list(p) + [0] * (dim - 3))
                                      for p in tri))
                with pytest.raises(ValueError,
                                   match="^triangle %d is degenerate$"
                                   % first):
                    check_embedded(m)


def test_validate_manifold_degeneracy_matches_rank_oracle():
    # "is degenerate" exactly for the triangles whose three vertex forms
    # have rank < 3, on collinear, near-collinear and general triangles
    # of R^2..R^5; in R^3 the verdict is read off the plane's minors.
    # check_embedded raises naming the first triangle of rank < 3.
    rng = random.Random(23)
    kinds = set()
    for trial in range(240):
        dim = 2 + trial % 4
        m = TriMesh(dim)
        for _ in range(rng.randint(1, 4)):
            p, q = ([rnd_frac(rng) for _ in range(dim)] for _ in range(2))
            t = rnd_frac(rng)
            r = [a + t * (b - a) for a, b in zip(p, q)]
            kind = rng.choice(("collinear", "near", "general"))
            if kind == "near":
                k = rng.randrange(dim)
                r[k] += Fraction(rng.choice((-1, 1)), 10 ** rng.randint(3, 9))
            elif kind == "general":
                r = [rnd_frac(rng) for _ in range(dim)]
            add_triangle(m, Point(p), Point(q), Point(r))
        flat = [t for t, tri in enumerate(m.triangles)
                if int_rank([m.hom[v] for v in tri]) < 3]
        want = {t for t in flat if len(set(m.triangles[t])) == 3}
        got = {int(msg.split()[1]) for msg in m.validate_manifold()
               if msg.endswith("is degenerate")}
        assert got == want, (trial, m.vertices, m.triangles)
        kinds.update(("flat" if t in want else "clean", dim)
                     for t in range(len(m.triangles)))
        if flat:
            with pytest.raises(ValueError,
                               match="^triangle %d is degenerate$" % flat[0]):
                check_embedded(m)
    assert kinds == {(v, d) for v in ("flat", "clean") for d in (2, 3, 4, 5)}


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_embedded_verdicts_invariant_under_relabelling(seed):
    # the sweep visits pairs in another order and each pair test sees
    # its triangles' vertices in another order, but the verdict stays:
    # triangles permuted, each triangle's vertices rotated, and the
    # coordinate axes permuted
    soups = _oracle_soups()
    verdicts = _oracle_soup_verdicts()
    assert set(verdicts) == {True, False}
    rng = random.Random(seed)
    for m, want in zip(soups, verdicts):
        axes = rng.sample(range(m.dim), m.dim)
        image = TriMesh(m.dim)
        for t in rng.sample(range(len(m.triangles)), len(m.triangles)):
            k = rng.randrange(3)
            tri = m.triangles[t][k:] + m.triangles[t][:k]
            add_triangle(image, *(Point([m.vertices[v][i] for i in axes])
                                  for v in tri))
        assert (check_embedded(image) is None) == want


def test_check_embedded_finds_piercing():
    m = TriMesh(3)
    add_triangle(m, Point([0, 0, 0]), Point([8, 0, 0]), Point([0, 8, 0]))
    add_triangle(m, Point([1, 1, -1]), Point([1, 1, 1]), Point([5, 5, 1]))
    v = check_embedded(m)
    assert v is not None
    assert point_in_simplex(v.point, m.triangle_points(v.tri_a))
    assert point_in_simplex(v.point, m.triangle_points(v.tri_b))


def test_check_embedded_in_r4():
    m = TriMesh(4)
    add_triangle(m, Point([0, 0, 0, 0]), Point([4, 0, 0, 0]),
                 Point([0, 4, 0, 0]))
    # meets the first triangle's plane only beyond its extent
    add_triangle(m, Point([9, 9, 0, 0]), Point([10, 9, 1, 0]),
                 Point([9, 10, 0, 1]))
    assert check_embedded(m) is None
    add_triangle(m, Point([1, 1, -1, 0]), Point([1, 1, 1, 0]),
                 Point([2, 2, 1, 0]))
    assert check_embedded(m) is not None


def test_transform_preserves_structure():
    m = tetrahedron()
    sh = shear_last_into(3, ["1/3", "-2/7"])
    m2 = m.transform(sh)
    assert len(m2.vertices) == len(m.vertices)
    assert m2.triangles == m.triangles
    assert m2.euler_characteristic() == 2
    assert check_embedded(m2) is None
    back = m2.transform(affine_inverse(sh))
    assert back.vertices == m.vertices


# ---------------------------------------------------------------------------
# metamorphic: embeddedness verdicts do not depend on the frame

def _moved_vertex_copy(mesh, rng):
    """A copy of the mesh with one vertex moved to the centroid of a
    triangle it is not on, keeping every triangle nondegenerate; the
    moved vertex pierces that triangle."""
    while True:
        t = rng.randrange(len(mesh.triangles))
        v = rng.choice([u for u in range(len(mesh.vertices))
                        if u not in mesh.triangles[t]])
        pts = mesh.triangle_points(t)
        verts = list(mesh.vertices)
        verts[v] = Point([sum(p[i] for p in pts) / 3
                          for i in range(mesh.dim)])
        out = TriMesh(mesh.dim)
        for tri, tag in zip(mesh.triangles, mesh.provenance):
            add_triangle(out, *(verts[i] for i in tri), tag=tag)
        if len(out.vertices) == len(verts) and not any(
                affine_rank(out.triangle_points(k)) != 2
                for k in range(len(out.triangles))):
            return out


def _moved_vertex_polygon(poly, rng):
    """A copy of the polygon with one vertex moved to the midpoint of an
    edge it is not on."""
    n = len(poly.vertices)
    while True:
        e = rng.randrange(n)
        v = rng.choice([u for u in range(n) if u not in (e, (e + 1) % n)])
        a, b = poly.edge(e)
        verts = list(poly.vertices)
        verts[v] = Point([(a[i] + b[i]) / 2 for i in range(poly.dim)])
        try:
            return ClosedPolygon(verts)
        except ValueError:
            continue


@functools.lru_cache(maxsize=None)
def _metamorphic_corpus():
    rng = random.Random(1979)
    r3 = [gen_torus_stick(3), gen_torus_stick(4), gen_twist_writhe(1),
          gen_random(6, 3, seed=2)]
    meshes = []
    for poly in r3:
        mesh = spanning_surface_r3(poly)[0]
        meshes += [mesh, _moved_vertex_copy(mesh, rng)]
    polys = []
    for poly in r3 + [gen_planar_ngon(5), gen_random(7, 2, seed=1)]:
        polys += [poly, _moved_vertex_polygon(poly, rng)]
    return (meshes, polys, [check_embedded(m) is None for m in meshes],
            [validate_embedded(p) is None for p in polys])


def _affine_bijection(dim):
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    square = st.lists(st.lists(entry, min_size=dim, max_size=dim),
                      min_size=dim, max_size=dim)
    return st.builds(AffineMap, square.filter(
        lambda m: len(rref(m)[1]) == dim), st.lists(entry, min_size=dim,
                                                    max_size=dim))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_affine_bijection(3), _affine_bijection(2))
def test_embedded_verdicts_invariant_under_affine_bijections(map3, map2):
    # an affine bijection permutes the sweep order but must keep every
    # verdict; moved-vertex copies stay caught, with a witness in both
    # triangles of the violation
    meshes, polys, mesh_verdicts, poly_verdicts = _metamorphic_corpus()
    assert set(mesh_verdicts) == set(poly_verdicts) == {True, False}
    for mesh, want in zip(meshes, mesh_verdicts):
        image = mesh.transform(map3)
        got = check_embedded(image)
        assert (got is None) == want
        if got is not None:
            assert point_in_simplex(got.point, image.triangle_points(got.tri_a))
            assert point_in_simplex(got.point, image.triangle_points(got.tri_b))
    for poly, want in zip(polys, poly_verdicts):
        amap = map3 if poly.dim == 3 else map2
        image = ClosedPolygon([amap.apply(v) for v in poly.vertices])
        assert (validate_embedded(image) is None) == want


# ---------------------------------------------------------------------------
# boundary matching

def square_polygon():
    return ClosedPolygon([Point([0, 0, 0]), Point([4, 0, 0]),
                          Point([4, 4, 0]), Point([0, 4, 0])])


def test_boundary_matches_fan():
    poly = square_polygon()
    m = fan_over_polygon(poly.vertices)
    assert boundary_matches(m, poly)


def test_boundary_matches_subdivided_edge():
    poly = square_polygon()
    mid = Point([2, 0, 0])
    apex = Point([2, 2, 5])
    m = TriMesh(3)
    add_triangle(m, apex, poly.vertices[0], mid)
    add_triangle(m, apex, mid, poly.vertices[1])
    add_triangle(m, apex, poly.vertices[1], poly.vertices[2])
    add_triangle(m, apex, poly.vertices[2], poly.vertices[3])
    add_triangle(m, apex, poly.vertices[3], poly.vertices[0])
    assert boundary_matches(m, poly)
    # reversed orientation of every triangle still matches
    m2 = TriMesh(3)
    for t in range(len(m.triangles)):
        a, b, c = m.triangle_points(t)
        add_triangle(m2, a, c, b)
    assert boundary_matches(m2, poly)


def test_boundary_matches_rejects_wrong_boundary():
    poly = square_polygon()
    # skips one corner entirely
    tri = ClosedPolygon(poly.vertices[:3])
    m = fan_over_polygon([Point([0, 0, 0]), Point([4, 0, 0]),
                          Point([4, 4, 0])])
    assert not boundary_matches(m, poly)
    assert boundary_matches(m, tri)
    # boundary vertex off the polygon
    m2 = fan_over_polygon([Point([0, 0, 0]), Point([4, 0, 0]),
                           Point([5, 5, 0]), Point([0, 4, 0])])
    assert not boundary_matches(m2, poly)
    # closed mesh has no boundary at all
    assert not boundary_matches(tetrahedron(), poly)
    # two components: the fan plus a distant floater ring
    m3 = fan_over_polygon(poly.vertices)
    far = [Point([20, 20, 0]), Point([24, 20, 0]), Point([22, 23, 1])]
    add_triangle(m3, *far)
    assert not boundary_matches(m3, poly)


# ---------------------------------------------------------------------------
# census: the one edge incidence against per-call triangle scans
#
# The oracles are the census methods and boundary_matches as they were
# before TriMesh kept its edge incidence: each scans the triangle list.

def _edge_census_oracle(mesh):
    census = {}
    for i, j, k in mesh.triangles:
        for e in ((i, j), (j, k), (k, i)):
            key = (min(e), max(e))
            census[key] = census.get(key, 0) + 1
    return census


def _boundary_edges_oracle(mesh):
    return sorted(e for e, c in _edge_census_oracle(mesh).items() if c == 1)


def _euler_oracle(mesh):
    used = set()
    for tri in mesh.triangles:
        used.update(tri)
    return len(used) - len(_edge_census_oracle(mesh)) + len(mesh.triangles)


def _connected_oracle(mesh):
    nt = len(mesh.triangles)
    parent = list(range(nt))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_edge = {}
    for t, (i, j, k) in enumerate(mesh.triangles):
        for e in ((i, j), (j, k), (k, i)):
            by_edge.setdefault((min(e), max(e)), []).append(t)
    for tris in by_edge.values():
        for other in tris[1:]:
            ra, rb = find(tris[0]), find(other)
            if ra != rb:
                parent[ra] = rb
    return len({find(t) for t in range(nt)})


def _boundary_components_oracle(mesh):
    edges = _boundary_edges_oracle(mesh)
    if not edges:
        return 0
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(u) for e in edges for u in e})


def _orientation_oracle(mesh):
    nt = len(mesh.triangles)
    adj = {t: [] for t in range(nt)}
    by_edge = {}
    for t, (i, j, k) in enumerate(mesh.triangles):
        for a, b in ((i, j), (j, k), (k, i)):
            by_edge.setdefault((min(a, b), max(a, b)), []).append(
                (t, 1 if a < b else -1))
    for lst in by_edge.values():
        if len(lst) == 2:
            (t1, d1), (t2, d2) = lst
            rel = -d1 * d2
            adj[t1].append((t2, rel))
            adj[t2].append((t1, rel))
    orient = [0] * nt
    parent_edge = {}

    def path_to_root(x):
        out = [x]
        while x in parent_edge:
            x = parent_edge[x]
            out.append(x)
        return out

    for start in range(nt):
        if orient[start] != 0:
            continue
        orient[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for u, rel in adj[t]:
                want = orient[t] * rel
                if orient[u] == 0:
                    orient[u] = want
                    parent_edge[u] = t
                    stack.append(u)
                elif orient[u] != want:
                    pa, pb = path_to_root(t), path_to_root(u)
                    meet = next(x for x in pa if x in set(pb))
                    cyc = pa[:pa.index(meet) + 1]
                    cyc += list(reversed(pb[:pb.index(meet)]))
                    return (False, cyc)
    return (True, orient)


def _boundary_matches_oracle(mesh, polygon, reached):
    """boundary_matches with its degree and component pre-checks; adds
    the name of the check that decided a False to reached."""
    edges = _boundary_edges_oracle(mesh)
    if not edges:
        reached.add("no boundary")
        return False
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        reached.add("degree")
        return False
    if _boundary_components_oracle(mesh) != 1:
        reached.add("components")
        return False
    pverts = polygon.vertices
    n = len(pverts)
    corner_of, interior_of = {}, {}
    corner_pool = {p.coords: i for i, p in enumerate(pverts)}
    for bv in deg:
        p = mesh.vertices[bv]
        ci = corner_pool.get(p.coords)
        if ci is not None:
            corner_of[bv] = ci
            continue
        hit = None
        for e in range(n):
            t = segment_param(p, pverts[e], pverts[(e + 1) % n])
            if t is not None and 0 < t < 1:
                hit = (e, t)
                break
        if hit is None:
            reached.add("off the polygon")
            return False
        interior_of[bv] = hit
    if len(corner_of) != n or set(corner_of.values()) != set(range(n)):
        reached.add("corners")
        return False
    vert_at_corner = {ci: bv for bv, ci in corner_of.items()}
    expected = set()
    count = 0
    for e in range(n):
        inner = sorted(((t, bv) for bv, (ei, t) in interior_of.items()
                        if ei == e), key=lambda x: x[0])
        chain = [vert_at_corner[e]] + [bv for _, bv in inner] \
            + [vert_at_corner[(e + 1) % n]]
        for u, v in zip(chain, chain[1:]):
            if u == v:
                return False
            expected.add((min(u, v), max(u, v)))
            count += 1
    if count != len(edges) or expected != set(edges):
        reached.add("edge set")
        return False
    reached.add("match")
    return True


def _moebius(m, pts):
    """Five triangles over five points closing up with a half twist."""
    idx = [m.add_vertex(p) for p in pts]
    for i, j, k in ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)):
        m.add_triangle_indices(idx[i], idx[j], idx[k])


def _census_soup(rng):
    """Random combinatorial meshes over a small pool, so that edges lie
    in three or more triangles and vertices repeat inside a triangle, in
    pieces that need not be connected, some with a Moebius band."""
    m = TriMesh(3)
    pool = [m.add_vertex(Point([rng.randint(-3, 3) for _ in range(3)]))
            for _ in range(rng.randint(3, 9))]
    for _ in range(rng.randint(1, 12)):
        m.add_triangle_indices(*(rng.choice(pool) for _ in range(3)))
    if rng.random() < 0.3:
        _moebius(m, [Point([20 + rng.randint(0, 9), rng.randint(0, 9), k])
                     for k in range(5)])
    return m


def _disk_over(rng, poly):
    """A fan from an apex over poly's edges, each edge subdivided at up
    to two rational points, mutated one random way: a triangle dropped,
    reversed, repeated or added at a boundary vertex, a floating piece or
    Moebius band, a subdivision point moved off the polygon, or two of
    them swapped along the ring."""
    n = len(poly.vertices)
    ring = []
    for e in range(n):
        a, b = poly.edge(e)
        ts = sorted({Fraction(rng.randint(1, 7), 8)
                     for _ in range(rng.randint(0, 2))})
        ring += [a] + [a + (b - a).scale(t) for t in ts]
    kind = rng.randrange(9)
    if kind == 1:
        i = rng.randrange(len(ring))
        ring[i] = ring[i] + Point([0, 0, 1])
    elif kind == 2:
        i = rng.randrange(len(ring) - 1)
        ring[i], ring[i + 1] = ring[i + 1], ring[i]
    apex = Point([0, 0, 5])
    m = TriMesh(3)
    for i in range(len(ring)):
        add_triangle(m, apex, ring[i], ring[(i + 1) % len(ring)])
    if kind == 3:
        m = TriMesh(3)
        drop = rng.randrange(len(ring))
        for i in range(len(ring)):
            if i != drop:
                add_triangle(m, apex, ring[i], ring[(i + 1) % len(ring)])
    elif kind == 4:
        add_triangle(m, *m.triangle_points(rng.randrange(len(ring))))
    elif kind == 5:
        add_triangle(m, ring[rng.randrange(len(ring))], Point([30, 0, 0]),
                     Point([30, 1, 0]))
    elif kind == 6:
        add_triangle(m, Point([30, 0, 0]), Point([31, 0, 0]),
                     Point([30, 1, 0]))
    elif kind == 7:
        _moebius(m, [Point([40 + rng.randint(0, 9), rng.randint(0, 9), k])
                     for k in range(5)])
    elif kind == 8:
        flipped = TriMesh(3)
        for t in range(len(m.triangles)):
            a, b, c = m.triangle_points(t)
            add_triangle(flipped, a, c, b)
        m = flipped
    return m


def test_census_matches_triangle_scanning_oracles():
    # every census read off the edge incidence equals the scan of the
    # triangle list it replaced, orientation cycles included, on soups
    # and on mutated disks
    rng = random.Random(1111)
    seen = set()
    polys = [gen_planar_ngon(n, dim=3, radius=4) for n in (3, 4, 5, 7)]
    for trial in range(400):
        if trial % 2:
            m = _census_soup(rng)
        else:
            m = _disk_over(rng, rng.choice(polys))
        census = m.edge_census()
        assert list(census.items()) == \
            list(_edge_census_oracle(m).items()), trial
        assert m.boundary_edges() == _boundary_edges_oracle(m), trial
        assert m.euler_characteristic() == _euler_oracle(m), trial
        assert m.connected_components() == _connected_oracle(m), trial
        assert m.boundary_components() == \
            _boundary_components_oracle(m), trial
        assert m.orientation_propagate() == _orientation_oracle(m), trial
        seen.add(("orientable", m.orientation_propagate()[0]))
        seen.add(("triple edge", max(census.values()) > 2))
        seen.add(("repeat", any(len(set(tri)) < 3 for tri in m.triangles)))
        seen.add(("connected", m.connected_components() == 1))
    assert seen == {(name, flag) for name in ("orientable", "triple edge",
                                              "repeat", "connected")
                    for flag in (True, False)}


def _axis_polygons():
    """Polygons in R^2, R^3 and R^4, some of their edges axis-parallel."""
    def poly(*rows):
        return ClosedPolygon([Point(r) for r in rows])

    return [
        poly((0, 0), (4, 0), (4, 4), (0, 4)),
        poly((0, 0), (4, 0), (6, 3), (2, 6), (-1, 3)),
        gen_planar_ngon(5, dim=2, radius=4),
        poly((0, 0, 0), (4, 0, 0), (4, 4, 0), (4, 4, 4), (0, 4, 4),
             (0, 0, 4)),
        poly((0, 0, 0), (6, 0, 0), (3, 5, 2), (1, 2, 6)),
        poly((0, 0, 0, 0), (4, 0, 0, 0), (4, 4, 0, 0), (4, 4, 4, 0),
             (4, 4, 4, 4), (0, 2, 3, 1)),
        gen_random(6, 4, seed=3),
    ]


def _ring_disk(rng, poly):
    """A fan from an off-polygon apex over poly's edges, each subdivided
    at up to two rational points, with at most one point moved: onto its
    edge's line outside the edge, or into its edge's box off its line
    (kept on the line when the box is the edge), or two points swapped,
    or a triangle dropped."""
    n, d = len(poly.vertices), poly.dim
    ring, inner = [], []
    for e in range(n):
        a, b = poly.edge(e)
        ring.append(a)
        for t in sorted({Fraction(rng.randint(1, 7), 8)
                         for _ in range(rng.randint(0, 2))}):
            inner.append((len(ring), e))
            ring.append(a + (b - a).scale(t))
    kind = rng.randrange(5)
    if kind in (1, 2) and inner:
        i, e = rng.choice(inner)
        a, b = poly.edge(e)
        if kind == 1:
            t = rng.choice((Fraction(-1, 4), Fraction(-3, 2), Fraction(5, 4),
                            Fraction(5, 2)))
            ring[i] = a + (b - a).scale(t)
        else:
            axes = [k for k in range(d) if a[k] != b[k]]
            s = [Fraction(1, 2)] * d
            if len(axes) > 1:
                s[rng.choice(axes)] = Fraction(rng.choice((1, 3)), 4)
            ring[i] = Point([a[k] + s[k] * (b[k] - a[k]) for k in range(d)])
    elif kind == 3 and len(ring) > 3:
        i = rng.randrange(len(ring) - 1)
        ring[i], ring[i + 1] = ring[i + 1], ring[i]
    apex = Point([Fraction(1, 3 + k) for k in range(d)])
    drop = rng.randrange(len(ring)) if kind == 4 else None
    m = TriMesh(d)
    for i in range(len(ring)):
        if i != drop:
            add_triangle(m, apex, ring[i], ring[(i + 1) % len(ring)])
    return m


def test_boundary_matches_without_its_prechecks_matches_oracle(monkeypatch):
    # the degree and component pre-checks are implied by the final edge
    # set test: the verdict is the oracle's whichever check decided it
    import plspan.mesh as mesh_mod
    tested = set()
    edge_param = mesh_mod._edge_param

    def spy(p, a, b):
        t = edge_param(p, a, b)
        tested.add("on the edge" if t else "in the box, off the line")
        return t

    monkeypatch.setattr(mesh_mod, "_edge_param", spy)
    rng = random.Random(2222)
    reached = set()
    polys = [gen_planar_ngon(n, dim=3, radius=4) for n in (3, 4, 5, 7)]
    for trial in range(400):
        poly = rng.choice(polys)
        if trial % 4 == 3:
            m = _census_soup(rng)
        elif trial % 4 == 2 and len(poly) > 3:
            # a disk over all but the last corner
            m = _disk_over(rng, ClosedPolygon(poly.vertices[:-1]))
        else:
            m = _disk_over(rng, poly)
        assert boundary_matches(m, poly) == \
            _boundary_matches_oracle(m, poly, reached), trial
    assert reached == {"no boundary", "degree", "components",
                       "off the polygon", "corners", "edge set", "match"}
    # the integer test on the sweep's (vertex, edge) candidates against
    # the oracle's rational segment_param over every pair: polygons in
    # R^2, R^3 and R^4 with axis-parallel edges, boundary vertices on an
    # edge's line outside the edge and inside an edge's box off its line
    rng = random.Random(3333)
    reached = set()
    polys = _axis_polygons()
    for trial in range(300):
        poly = polys[trial % len(polys)]
        m = _ring_disk(rng, poly)
        assert boundary_matches(m, poly) == \
            _boundary_matches_oracle(m, poly, reached), trial
    assert {"match", "off the polygon", "edge set"} <= reached
    assert tested == {"on the edge", "in the box, off the line"}


# ---------------------------------------------------------------------------
# serialization

def test_off_round_trip_is_exact(tmp_path):
    m = TriMesh(4)
    add_triangle(m, Point(["1/3", "-7/11", 0, 2]),
                 Point([5, "1/2", "22/7", 0]),
                 Point([0, 0, 1, "355/113"]), tag="lid")
    add_triangle(m, Point(["1/3", "-7/11", 0, 2]),
                 Point([5, "1/2", "22/7", 0]),
                 Point([9, 9, 9, 9]), tag="side wall")
    p = tmp_path / "m.off"
    write_off(m, str(p))
    m2 = read_off(str(p))
    assert m2.dim == 4
    assert m2.vertices == m.vertices
    assert m2.triangles == m.triangles
    assert m2.provenance == m.provenance
    # a second round trip writes the identical file
    p2 = tmp_path / "m2.off"
    write_off(m2, str(p2))
    assert p.read_text() == p2.read_text()


def _spellings(c: Fraction) -> list[str]:
    """Ways a pl-off file may spell the coordinate c."""
    n, d = c.numerator, c.denominator
    out = [str(c), "%d/%d" % (2 * n, 2 * d), "%d/%d" % (3 * n, 3 * d)]
    if d == 1:
        out.append("%d/1" % n)
    if c == 0:
        out += ["-0", "-0/5", "0/4", "000"]
    return out


def test_read_off_makes_each_form_from_its_tokens(tmp_path):
    # read_off parses a vertex line straight to its form, which is
    # homogeneous(Point(tokens)) however the coordinates are spelled;
    # the Points are made from the forms when vertices is read
    rng = random.Random(2024)
    path = tmp_path / "m.off"
    for _ in range(60):
        dim = rng.randint(2, 5)
        pts = {tuple(rnd_frac(rng, 6, 6) for _ in range(dim))
               for _ in range(rng.randint(3, 10))}
        rows = [[rng.choice(_spellings(c)) for c in p] for p in pts]
        path.write_text("pl-off %d\n%d 1 0\n%s\n3 0 1 2\n" % (
            dim, len(rows), "\n".join(" ".join(r) for r in rows)))
        mesh = read_off(str(path))
        assert mesh.hom == [homogeneous(Point(r)) for r in rows]
        assert mesh.vertices == [Point(r) for r in rows]


def test_write_off_prints_each_coordinate_as_rat_str(tmp_path):
    # the text printed from each form is rat_str of the rational
    # coordinate: 'p/q' in lowest terms, or 'p'
    rng = random.Random(11)
    path = tmp_path / "m.off"
    for dim in (2, 3, 4):
        m = TriMesh(dim)
        for _ in range(20):
            add_triangle(m, *(Point([rnd_frac(rng, 9, 7) for _ in range(dim)])
                              for _ in range(3)))
        write_off(m, str(path))
        lines = path.read_text().split("\n")
        assert lines[1] == "%d %d 0" % (len(m.vertices), len(m.triangles))
        assert lines[2:2 + len(m.vertices)] == [
            " ".join(rat_str(c) for c in p.coords) for p in m.vertices]


def test_vertices_are_a_view_made_from_the_forms():
    # every vertex, pooled by its form or by a Point, gets its Point on
    # the first read of vertices; a Point pooled again keeps its index
    m = TriMesh(2)
    assert m._add_form((1, 2, 4)) == 0
    assert m._points == []
    p = Point([3, "1/3"])
    assert m.add_vertex(p) == 1
    assert m._add_form((5, 0, 1)) == 2
    assert m.add_vertex(Point(["1/4", "1/2"])) == 0
    assert m.hom == [(1, 2, 4), (9, 1, 3), (5, 0, 1)]
    assert m._points == []
    assert m.vertices == [Point(["1/4", "1/2"]), p, Point([5, 0])]
    assert len(m._points) == 3


def test_off_rejects_garbage(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("OFF\n3 1 0\n")
    with pytest.raises(ValueError):
        read_off(str(p))


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_off_names_an_empty_file(tmp_path, text):
    p = tmp_path / "empty.off"
    p.write_text(text)
    with pytest.raises(ValueError, match="^empty pl-off file$"):
        read_off(str(p))


def test_obj_export_and_refusal(tmp_path):
    m = tetrahedron()
    p = tmp_path / "m.obj"
    export_obj(m, str(p))
    text = p.read_text()
    assert text.count("\nf ") + text.startswith("f ") == 4
    assert "v 0 0 0" in text or "v 0 0 0\n" in text
    m4 = TriMesh(4)
    add_triangle(m4, Point([0, 0, 0, 0]), Point([1, 0, 0, 0]),
                 Point([0, 1, 0, 0]))
    with pytest.raises(ValueError):
        export_obj(m4, str(tmp_path / "m4.obj"))
    with pytest.raises(ValueError):
        import_obj(str(p))


# ---------------------------------------------------------------------------
# embeddedness in R^4 and R^5: hull-rank decisions against the oracle

def _flat_soup(rng, dim, k, tilted):
    """Up to five triangles over eight grid points of a k-flat of R^dim:
    an axis-parallel flat (x_{k+1}, ..., x_dim constant) or one spanned
    by random rational directions."""
    origin = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
    if tilted:
        basis = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for _ in range(dim)] for _ in range(k)]
    else:
        basis = [[int(i == j) for j in range(dim)] for i in range(k)]
    pool = [Point([o + sum(t * b[c] for t, b in zip(ts, basis))
                   for c, o in enumerate(origin)])
            for ts in ([rng.randint(-3, 3) for _ in range(k)]
                       for _ in range(8))]
    m = TriMesh(dim)
    seen = set()
    for _ in range(60):
        pts = [pool[i] for i in rng.sample(range(8), 3)]
        key = frozenset(p.coords for p in pts)
        if key not in seen and affine_rank(pts) == 2:
            seen.add(key)
            add_triangle(m, *pts)
        if len(m.triangles) == 5:
            break
    return m


def test_check_embedded_r4_r5_matches_oracle(monkeypatch):
    # Soups (dim, flat dim, tilted) in R^4 and R^5 spanning the whole
    # space, a hyperplane x_d = const, a tilted hyperplane, a 3-flat or
    # a 2-flat.  The pair and witness must be the oracle's in sweep
    # order, and every decision must be reached: a shared edge off the
    # other's plane, the coplanar test sharing nothing, a vertex and an
    # edge, and in the hull test affinely independent vertices, the
    # signs of a single affine relation (six vertices spanning a 4-flat,
    # five spanning a 3-flat) and six vertices in a 3-flat (the
    # crossing-plane kernel); then the LP.  No pair sharing an edge reaches
    # the hull test (_record_pair_tests).
    import plspan.mesh as mesh_mod
    calls, watch = _spy_pair_tests(monkeypatch, mesh_mod, (
        "_coplanar_contact_clean", "_hull_contact_clean",
        "_tri_pair_meets_3d", "simplex_intersect"))
    reached = set()
    relation = mesh_mod._relation_clean

    def relation_spy(on_a, on_b):
        assert len(on_a) == len(on_b)
        reached.add(("_relation_clean", 3 - len(on_a)))
        return relation(on_a, on_b)

    monkeypatch.setattr(mesh_mod, "_relation_clean", relation_spy)
    configs = [(4, 4, True), (4, 3, False), (4, 3, True), (4, 2, True),
               (5, 5, True), (5, 4, False), (5, 4, True), (5, 3, True)]
    rng = random.Random(404)
    verdicts = set()
    for trial in range(24):
        m = _flat_soup(rng, *configs[trial % len(configs)])
        watch(m)
        got = check_embedded(m)
        sweep = sorted(range(len(m.triangles)), key=lambda t: min(
            p[0] for p in m.triangle_points(t)))
        want = _embedded_oracle(m, sweep)
        if want is None:
            assert got is None, (trial, got)
        else:
            assert (got.tri_a, got.tri_b, got.point) == want, (trial, got)
        verdicts.add(got is None)
        # the hull test clears every pair of affinely independent vertices
        for name, pair, k, result in calls:
            pts = {m.vertices[v] for t in pair for v in m.triangles[t]}
            if name == "_hull_contact_clean" \
                    and affine_rank(list(pts)) == len(pts) - 1:
                assert result, pair
                reached.add(("independent", k))
        _record_pair_tests(m, got, calls, reached)
    assert verdicts == {True, False}
    assert reached >= {("edge, off the plane", 2),
                       ("_coplanar_contact_clean", 0),
                       ("_coplanar_contact_clean", 1),
                       ("_coplanar_contact_clean", 2),
                       ("independent", 0), ("independent", 1),
                       ("_tri_pair_meets_3d", 0),
                       ("_relation_clean", 0),
                       ("_relation_clean", 1)}, reached
    assert any(name == "simplex_intersect" for name, _ in reached)


def _planted_pair(rng, dim, shared, kind):
    """(points, tri_a, tri_b, shared index set, meets) for a triangle
    pair of R^dim whose distinct vertices carry exactly one affine
    relation: six spanning a 4-flat, or five (one shared) spanning a
    3-flat.  Planted in R^k, k = 4 - shared, then mapped into R^dim by an
    injective integer affine map.  kind 'edge' or 'face' puts a free
    vertex of b on an edge of a or inside it, 'cross' makes the two
    centroids one point, and 'apart' separates the free vertices of a
    from b's by a hyperplane through the shared vertex, if any; only
    'apart' leaves the triangles meeting in at most that vertex."""
    k = 4 - shared

    def pt(off=0):
        return [rnd_frac(rng, 4, 3) + (off if i == 0 else 0)
                for i in range(k)]

    while True:
        s = [pt()] if shared else []
        x0 = s[0][0] if shared else 0
        if kind == "apart":
            a = [pt(x0 + 8) for _ in range(3 - shared)]
            b = [pt(x0 - 8) for _ in range(3 - shared)]
        elif kind == "cross":
            c = pt()
            a, b = ([pt() for _ in range(2 - shared)] for _ in range(2))
            for tri in (a, b):
                tri.append([3 * ci - sum(q[i] for q in s + tri)
                            for i, ci in enumerate(c)])
        else:
            a = [pt() for _ in range(3 - shared)]
            corners = s + a
            if kind == "edge":
                i, j = rng.sample(range(3), 2)
                t = Fraction(rng.randint(1, 3), 4)
                on = [x + t * (y - x) for x, y in zip(corners[i],
                                                      corners[j])]
            else:
                w = [Fraction(rng.randint(1, 4)) for _ in range(3)]
                on = [sum(wi * q[c] for wi, q in zip(w, corners)) / sum(w)
                      for c in range(k)]
            b = [on] + [pt() for _ in range(2 - shared)]
        basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(k)]
        if int_rank(basis) < k:
            continue
        origin = [rnd_frac(rng) for _ in range(dim)]
        pts = [Point([o + sum(x * row[c] for x, row in zip(q, basis))
                      for c, o in enumerate(origin)]) for q in s + a + b]
        tri_a = list(range(3))
        tri_b = list(range(shared)) + list(range(3, len(pts)))
        rng.shuffle(tri_a)
        rng.shuffle(tri_b)
        if len(set(pts)) == len(pts) \
                and affine_rank([pts[v] for v in tri_a]) == 2 \
                and affine_rank([pts[v] for v in tri_b]) == 2 \
                and affine_rank(pts) == len(pts) - 2:
            return (pts, tuple(tri_a), tuple(tri_b), set(range(shared)),
                    kind != "apart")


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_relation_rule_matches_simplex_intersect(seed):
    # Radon's rule gives the LP's verdict on planted pairs of R^4 and
    # R^5 whose distinct vertices carry one affine relation, sharing no
    # vertex or one: meeting on an edge, inside a face or at a common
    # centroid, or apart but for the shared vertex.  Both verdicts come
    # up with each count of shared vertices.  The hull test reads the
    # relation off forms projected into the hull, the direct call off
    # the whole forms.
    from plspan.mesh import _hull_contact_clean, _relation_clean
    rng = random.Random(seed)
    for dim in (4, 5):
        for shared in (0, 1):
            for kind in ("edge", "face", "cross", "apart"):
                pts, tri_a, tri_b, common, meets = _planted_pair(
                    rng, dim, shared, kind)
                witness = simplex_intersect(
                    [pts[v] for v in tri_a], [pts[v] for v in tri_b],
                    [pts[v] for v in common])
                assert (witness is not None) == meets, (kind, pts)
                hom = [homogeneous(p) for p in pts]
                assert _hull_contact_clean(hom, tri_a, tri_b, common) \
                    != meets, (kind, pts)
                free_a = [v for v in tri_a if v not in common]
                free_b = [v for v in tri_b if v not in common]
                cols = [hom[v] for v in free_a + free_b + sorted(common)]
                (rel,) = int_nullspace(list(zip(*cols)))
                on_a, on_b = rel[:len(free_a)], rel[len(free_a):][:len(free_b)]
                assert _relation_clean(on_a, on_b) != meets, (kind, pts)


def _planted_simplices(rng, dim, sizes, shared, k, axes=None):
    """(points, a, b, shared index set) for two simplices of R^dim with
    sizes[0] and sizes[1] vertices, sharing `shared` of them (0 or 1),
    all drawn from a small grid of R^k and mapped into R^dim by an
    injective integer affine map, so their distinct vertices lie in a
    k-flat; each simplex nondegenerate, no two points equal.  With axes
    given (k of them), the flat is parallel to those coordinate axes,
    every other coordinate a nonzero constant."""
    n = sizes[0] + sizes[1] - shared
    while True:
        flat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                 for _ in range(k)] for _ in range(n)]
        basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(k)]
        if axes is not None:
            basis = [[int(c == j) for c in range(dim)] for j in axes]
        if int_rank(basis) < k:
            continue
        origin = [rnd_frac(rng) or 1 for _ in range(dim)]
        pts = [Point([o + sum(x * row[c] for x, row in zip(q, basis))
                      for c, o in enumerate(origin)]) for q in flat]
        a = list(range(sizes[0]))
        b = list(range(sizes[0] - shared, n))
        rng.shuffle(a)
        rng.shuffle(b)
        if len(set(pts)) == n and all(affine_rank([pts[v] for v in s])
                                      == len(s) - 1 for s in (a, b)):
            return pts, tuple(a), tuple(b), set(a) & set(b)


def _r3_segment_pair(rng, kind):
    """(points, a, b, shared index set) for a segment pair of R^3:
    'crossing' at an interior point of both, 'touching' with an end of b
    inside a, 'apart' in a's plane with b on a ray leaving a, 'backtrack'
    with b = qr running back over a = pq from their shared end; else
    _planted_simplices' pair with its distinct vertices in a kind-flat,
    sharing none or one."""
    if kind in (1, 2, 3):
        return _planted_simplices(rng, 3, (2, 2), rng.randint(0, 1), kind)
    while True:
        p, q, d = (Point([rnd_frac(rng) for _ in range(3)]) for _ in range(3))
        t = Fraction(rng.randint(1, 3), 4)
        m = Point([a + t * (b - a) for a, b in zip(p, q)])
        if kind == "crossing":
            pts = [p, q, Point([a - b for a, b in zip(m, d)]),
                   Point([a + b for a, b in zip(m, d)])]
        elif kind == "touching":
            pts = [p, q, m, Point([a + b for a, b in zip(m, d)])]
        elif kind == "apart":
            pts = [p, q, Point([a + b for a, b in zip(m, d)]),
                   Point([a + 2 * b for a, b in zip(m, d)])]
        else:  # backtrack
            pts = [p, q, m]
        if len(set(pts)) == len(pts) and (
                kind == "backtrack" or affine_rank(pts) == 2):
            b = (1, 2) if kind == "backtrack" else (2, 3)
            return pts, (0, 1), b, {0, 1} & set(b)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_r3_segment_pairs_decided_by_one_determinant(seed):
    # segment pairs of R^3 with independent, coplanar or collinear
    # vertices, crossing, touching, apart in a plane or running back
    # over each other: at most four rows clear the pair by one
    # determinant when they are independent, and only then; a dependent
    # pair goes on to the elimination.  The same pair lifted into R^4
    # gets the same verdict, and runs no elimination exactly when its
    # lead minor, on x, y, (z) and the weight, is nonzero: then it is
    # independent and cleared.  Four independent rows always have one;
    # three may not, when they lie in a plane parallel to the z axis.
    # A cleared pair misses the LP.
    import plspan.mesh as mesh_mod
    rng = random.Random(seed)
    eliminations = []
    bareiss = mesh_mod._bareiss
    reached = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_mod, "_bareiss",
                   lambda rows: eliminations.append(1) or bareiss(rows))
        for kind in (1, 2, 3, "crossing", "touching", "apart",
                     "backtrack") * 3:
            pts, a, b, common = _r3_segment_pair(rng, kind)
            eliminations.clear()
            clean = mesh_mod._hull_contact_clean(
                [homogeneous(p) for p in pts], a, b, common)
            early = not eliminations
            eliminations.clear()
            hom4 = [homogeneous(Point([*p, 0])) for p in pts]
            lifted = mesh_mod._hull_contact_clean(hom4, a, b, common)
            lifted_early = not eliminations
            assert clean == lifted, (kind, pts)
            independent = affine_rank(pts) == len(pts) - 1
            assert early == independent, (kind, pts)
            minor = _lead_minor([hom4[v] for v in a]
                                + [hom4[v] for v in b if v not in common])
            assert lifted_early == (minor != 0), (kind, pts)
            assert not lifted_early or independent and lifted, (kind, pts)
            if independent:
                reached.add(("lifted", lifted_early))
            lp = simplex_intersect([pts[v] for v in a], [pts[v] for v in b],
                                   [pts[v] for v in common])
            assert not clean or lp is None, (kind, pts)
            if kind in ("crossing", "touching", "backtrack"):
                assert not clean and lp is not None, (kind, pts)
            elif kind == "apart":
                assert clean and not early, pts
            reached.add((early, clean))
    assert reached >= {(True, True), (False, True), (False, False),
                       ("lifted", True)}, reached


def _r3_vertex_pair(rng, plant):
    """Shared vertex, a's two free vertices and b's of a triangle pair of
    R^3 that the plane signs leave open: not coplanar, and neither
    triangle's free vertices strictly on one side of the other's plane.
    With plant set, a free vertex of b lies inside a's face."""
    while True:
        s, a1, a2, b1, b2 = (Point([rnd_frac(rng) for _ in range(3)])
                             for _ in range(5))
        if plant:
            w = [Fraction(rng.randint(1, 3)) for _ in range(3)]
            b1 = Point([sum(wi * q[c] for wi, q in zip(w, (s, a1, a2)))
                        / sum(w) for c in range(3)])
        sides_b = {orient3d(s, a1, a2, q) for q in (b1, b2)}
        sides_a = {orient3d(s, b1, b2, q) for q in (a1, a2)}
        pinned = ({1}, {-1})
        if len({s, a1, a2, b1, b2}) == 5 and sides_b != {0} \
                and sides_a not in pinned and sides_b not in pinned \
                and affine_rank([s, a1, a2]) == affine_rank([s, b1, b2]) == 2:
            return s, a1, a2, b1, b2


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_simplex_pair_rule_matches_simplex_intersect(seed):
    # One rule for every simplex pair: segment/segment and
    # segment/triangle pairs of R^3..R^5 sharing no vertex or one, with
    # their distinct vertices in a 1-, 2- or 3-flat.  Independent
    # vertices and a single affine relation decide with the LP's
    # verdict; more relations leave the pair open, but for two
    # triangles in a 3-flat.  Both kinds reach a clean relation, a
    # meeting one and an open pair.
    import plspan.mesh as mesh_mod
    rng = random.Random(seed)
    reached = set()
    cases = [(dim, sizes, shared, k) for dim in (3, 4, 5)
             for sizes, flats in (((2, 2), (1, 2, 3)), ((2, 3), (2, 3)))
             for shared in (0, 1) for k in flats]
    for dim, sizes, shared, k in cases * 3:
        pts, a, b, common = _planted_simplices(rng, dim, sizes, shared, k)
        hom = [homogeneous(p) for p in pts]
        clean = mesh_mod._hull_contact_clean(hom, a, b, common)
        lp = simplex_intersect([pts[v] for v in a], [pts[v] for v in b],
                               [pts[v] for v in common])
        relations = len(pts) - 1 - affine_rank(pts)
        if relations <= 1:
            assert clean == (lp is None), (a, b, pts)
            case = (relations, clean)
        else:
            assert not clean, (a, b, pts)
            case = "open"
        reached.add((sizes, case))
    for sizes in ((2, 2), (2, 3)):
        assert {(sizes, (1, True)), (sizes, (1, False)), (sizes, "open")} \
            <= reached, reached
    # two triangles with six vertices in a 3-flat go to the crossing-plane
    # kernel on three pivot axes and the weight, and it decides them; in a
    # flat with constant coordinates outside axes, the weight column is
    # a multiple of the first of them, whichever pivot that is
    for dim in (4, 5):
        for skip in [None, *range(dim)]:
            axes = None if skip is None else sorted(rng.sample(
                [j for j in range(dim) if j != skip], 3))
            pts, a, b, _ = _planted_simplices(rng, dim, (3, 3), 0, 3, axes)
            clean = mesh_mod._hull_contact_clean(
                [homogeneous(p) for p in pts], a, b, set())
            lp = simplex_intersect([pts[v] for v in a], [pts[v] for v in b],
                                   [])
            assert clean == (lp is None), (a, b, pts)
    # R^3 triangles sharing a vertex, in all nine pairs of its positions
    # in the two triangles: the relation read off the plane values must
    # give check_embedded the LP's verdict whatever the positions
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        relation = mesh_mod._relation_clean
        mp.setattr(mesh_mod, "_relation_clean",
                   lambda on_a, on_b: calls.append(1) or relation(on_a, on_b))
        for meets in (True, False) * 3:
            while True:
                s, a1, a2, b1, b2 = _r3_vertex_pair(rng, plant=meets)
                if (simplex_intersect([s, a1, a2], [s, b1, b2], [s])
                        is not None) == meets:
                    break
            for pos_a in range(3):
                for pos_b in range(3):
                    tri_a = [a1, a2]
                    tri_a.insert(pos_a, s)
                    tri_b = [b1, b2]
                    tri_b.insert(pos_b, s)
                    m = TriMesh(3)
                    add_triangle(m, *tri_a)
                    add_triangle(m, *tri_b)
                    calls.clear()
                    got = check_embedded(m)
                    assert calls == [1], (pos_a, pos_b)
                    assert (got is not None) == meets, (pos_a, pos_b)


def test_certify_verdicts_witnesses_and_first_failure():
    square = [Point([0, 0]), Point([4, 0]), Point([4, 4]), Point([0, 4])]
    poly = ClosedPolygon(square)
    disk = fan_over_polygon(square)
    cert = certify(disk, poly)
    assert cert["interior"] == "embedded"
    assert cert["verdicts"] == {"manifold": True, "boundary_match": True,
                                "embedded": True}
    assert cert["witnesses"] == {} and cert["failure"] is None
    assert cert["census"] == {"chi": 1, "boundary_cycles": 1,
                              "connected": True, "orientable": True,
                              "genus": 0}
    # without a polygon there is no boundary verdict
    assert "boundary_match" not in certify(disk)["verdicts"]

    # another polygon: only the boundary fails
    moved = ClosedPolygon([p + Point([1, 0]) for p in square])
    cert = certify(disk, moved)
    assert cert["verdicts"]["boundary_match"] is False
    assert cert["failure"] == "boundary does not match the polygon"

    # a repeated triangle breaks the manifold and the embedding; every
    # verdict is still derived, and the first failure names the manifold
    dup = fan_over_polygon(square)
    add_triangle(dup, *dup.triangle_points(0))
    cert = certify(dup, poly)
    assert cert["verdicts"] == {"manifold": False, "boundary_match": False,
                                "embedded": False}
    assert cert["witnesses"]["manifold_witness"] == \
        "triangle 2 duplicates another"
    assert cert["witnesses"]["violation_witness"].startswith(
        "EmbeddingViolation(0, 2, ")
    assert cert["failure"] == \
        "surface not manifold: triangle 2 duplicates another"
    assert cert["census"]["genus"] is None

    with pytest.raises(ValueError):
        certify(disk, interior="immersed")
    with pytest.raises(ValueError):
        certify(disk, poly, interior="sideways")


def test_immersed_certificate_needs_a_matching_boundary(monkeypatch):
    # the contact test reads the boundary edges as the polygon, so a
    # boundary that is not the polygon fails the interior by name, and
    # the contact test never runs
    import plspan.otherdims as od
    square = [Point([0, 0, 0, 0]), Point([4, 0, 0, 0]), Point([4, 4, 0, 0]),
              Point([0, 4, 0, 0])]
    disk = fan_over_polygon(square, apex=Point([2, 2, 1, 1]))
    ran = []
    contact = od.polygon_contact_clean
    monkeypatch.setattr(od, "polygon_contact_clean",
                        lambda mesh: ran.append(1) or contact(mesh))
    cert = certify(disk, ClosedPolygon(square), interior="immersed")
    assert cert["verdicts"]["complementary-immersed"] is True and ran
    ran.clear()
    moved = ClosedPolygon([p + Point([1, 0, 0, 0]) for p in square])
    cert = certify(disk, moved, interior="immersed")
    assert cert["verdicts"] == {"manifold": True, "boundary_match": False,
                                "complementary-immersed": False}
    assert cert["witnesses"] == {
        "violation_witness": "the boundary does not match the polygon"}
    assert cert["failure"] == "boundary does not match the polygon"
    assert ran == []


def test_src_has_no_assert_statements():
    # python -O strips assert; every check in the package is an explicit
    # raise (mesh._require raises CertificateError)
    import plspan
    found = []
    for path in sorted(Path(plspan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_points_are_cleared_only_by_the_objects_that_hold_them():
    # each point's integer form is made once, by what holds the point:
    # the mesh when it pools a Point, a polygon in its constructor when
    # it is given Points.  The diagram, the marks, the R^3 surface and
    # the new points of the cone and the immersed disk make their forms
    # from forms, read_off and read_polygon from the file's text.
    # Besides those, only affine_rank (simplex_intersect's input check)
    # calls geom.homogeneous
    import plspan
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + "." + child.name
            elif isinstance(child, ast.Call) and "homogeneous" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.append(scope)
            visit(child, inner)

    for path in sorted(Path(plspan.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=path.name), path.stem)
    assert set(found) == {"mesh.TriMesh.add_vertex",
                          "polygon.ClosedPolygon.__init__",
                          "geom.affine_rank"}


def test_mesh_and_otherdims_leave_rational_elimination_to_geom():
    # hyperplanes come from geom.int_nullspace and embedded4 builds in
    # the input frame, so no frame is inverted; the rational rref and
    # nullspace stay behind geom's simplex meets and LP
    import plspan
    rational = {"rref", "nullspace", "inverse"}
    found = []
    for name in ("mesh.py", "otherdims.py"):
        path = Path(plspan.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), filename=name)):
            used = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            found += ["%s:%d %s" % (name, node.lineno, ref)
                      for ref in sorted(used & rational)]
    assert found == []
