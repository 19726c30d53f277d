import math
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plspan.geom import (Point, affine_rank, homogeneous, rat,
                         simplex_intersect)
from plspan.polygon import (
    ClosedPolygon,
    _circle_forms,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    gen_twist_writhe,
    polygon_text,
    read_polygon,
    validate_embedded,
    write_polygon,
)

import oracles


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        ClosedPolygon([Point([0, 0]), Point([1, 1])])
    with pytest.raises(ValueError):
        ClosedPolygon([Point([0, 0]), Point([1, 1, 1]), Point([2, 0])])
    with pytest.raises(ValueError):
        ClosedPolygon([Point([0, 0]), Point([0, 0]), Point([2, 0])])
    with pytest.raises(ValueError):
        # closing vertex equals the first
        ClosedPolygon([Point([0, 0]), Point([2, 0]), Point([0, 0])])
    with pytest.raises(ValueError):
        # one point spelled two ways
        ClosedPolygon([Point(["1/2", 0]), Point(["0.5", "0/3"]),
                       Point([2, 1])])


def test_polygon_keeps_each_corner_integer_form():
    for poly in (gen_torus_stick(3), gen_random(7, 4, seed=2),
                 ClosedPolygon([Point(["1/3", "-5/2"]), Point(["0.25", 2]),
                                Point([3, "7/6"])])):
        assert poly.hom == [homogeneous(v) for v in poly.vertices]


def test_validate_embedded_accepts_square():
    sq = ClosedPolygon([Point([0, 0, 0]), Point([4, 0, 0]),
                        Point([4, 4, 0]), Point([0, 4, 0])])
    assert validate_embedded(sq) is None


def test_validate_embedded_catches_bowtie():
    bow = ClosedPolygon([Point([0, 0, 0]), Point([2, 2, 0]),
                         Point([2, 0, 0]), Point([0, 2, 0])])
    v = validate_embedded(bow)
    assert v is not None
    assert {v.edge_a, v.edge_b} == {0, 2}
    assert v.point == Point([1, 1, 0])


def test_validate_embedded_catches_touching_vertex():
    # vertex of one edge lands inside a far edge
    poly = ClosedPolygon([Point([0, 0, 0]), Point([8, 0, 0]),
                          Point([8, 4, 0]), Point([4, 0, 0]),
                          Point([0, 4, 0])])
    assert validate_embedded(poly) is not None


def _validate_oracle(poly):
    """Every edge pair, no filters, straight to simplex_intersect."""
    n = len(poly.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            shared = ([poly.vertices[j]] if j == i + 1
                      else [poly.vertices[0]] if i == 0 and j == n - 1
                      else [])
            w = simplex_intersect(poly.edge(i), poly.edge(j), shared)
            if w is not None:
                return (i, j, w)
    return None


def _grid_polygon(rng, dim):
    """A 3- to 6-gon on a small grid, in R^dim or in a plane of it, so
    that collinear, overlapping and touching edges are common."""
    n = rng.randint(3, 6)
    planar = dim > 2 and rng.random() < 0.5
    tilt = [rng.randint(-1, 1) for _ in range(dim)]
    verts = []
    for _ in range(n):
        c = [rng.randint(0, 3) for _ in range(dim)]
        if planar:
            c = c[:2] + [tilt[k] * c[0] + c[1] for k in range(2, dim)]
        verts.append(Point(c))
    try:
        return ClosedPolygon(verts)
    except ValueError:
        return None


def _pair_class(poly, ea, eb):
    """'straight' or 'fold-back' for adjacent collinear edges (the far
    ends on opposite sides of the shared vertex, or on one side),
    'coplanar' for non-adjacent edges whose ends span a plane, else
    None."""
    pts = poly.vertices
    shared = set(ea) & set(eb)
    if shared:
        (s,) = shared
        (u,), (v,) = set(ea) - shared, set(eb) - shared
        if affine_rank([pts[u], pts[s], pts[v]]) != 1:
            return None
        dot = sum((x - y) * (z - y)
                  for x, y, z in zip(pts[u], pts[s], pts[v]))
        return "straight" if dot < 0 else "fold-back"
    ends = [pts[v] for v in ea + eb]
    return "coplanar" if affine_rank(ends) == 2 else None


def test_validate_embedded_matches_unfiltered_oracle(monkeypatch):
    # orientation signs (planar) and the simplex pair test (R^3, R^4)
    # clear pairs before simplex_intersect: same first pair and witness
    # as the oracle.  In R^3 and R^4 the pair test decides collinear
    # adjacent edges, straight on or folding back, and non-adjacent
    # edges in a common plane, with the LP's verdict, so simplex_intersect
    # only builds their witness.
    import plspan.polygon as pm
    hull = pm._hull_contact_clean
    reached = set()
    current = []

    def hull_spy(hom, ea, eb, shared):
        clean = hull(hom, ea, eb, shared)
        poly = current[0]
        kind = _pair_class(poly, ea, eb)
        if kind is not None:
            pts = poly.vertices
            lp = simplex_intersect([pts[v] for v in ea], [pts[v] for v in eb],
                                   [pts[v] for v in shared])
            assert clean == (lp is None), (kind, ea, eb, pts)
            reached.add((poly.dim, kind, clean))
        return clean

    monkeypatch.setattr(pm, "_hull_contact_clean", hull_spy)
    rng = random.Random(89)
    for dim in (2, 3, 4):
        verdicts = set()
        # a run straight on through vertex 1, drawn rarely on the grid
        straight = ClosedPolygon([Point([2 * x, x, 0, 1][:dim])
                                  for x in (0, 1, 2)]
                                 + [Point([1, 3, 2, 0][:dim])])
        for poly in [straight] + [_grid_polygon(rng, dim)
                                  for _ in range(40)]:
            if poly is None:
                continue
            current[:] = [poly]
            got = validate_embedded(poly)
            want = _validate_oracle(poly)
            if want is None:
                assert got is None, (dim, poly.vertices, got)
            else:
                assert (got.edge_a, got.edge_b, got.point) == want, \
                    (dim, poly.vertices, got)
            verdicts.add(got is None)
        assert verdicts == {True, False}, dim
    for dim in (3, 4):
        assert {(dim, "straight", True), (dim, "fold-back", False),
                (dim, "coplanar", True), (dim, "coplanar", False)} \
            <= reached, (dim, reached)


def test_a_corner_of_weight_zero_is_refused():
    # a form with weight 0 names no point, an all-zero one included: the
    # constructor names the corner instead of dividing by zero later
    for corners, i in (([(1, 0, 0), (0, 1, 1), (1, 1, 1)], 0),
                       ([(0, 1, 1), (1, 1, 1), (0, 0, 0)], 2)):
        with pytest.raises(ValueError, match="corner %d has weight 0" % i):
            ClosedPolygon(corners)


def test_zero_turns():
    p = ClosedPolygon([Point([0, 0]), Point([2, 0]), Point([4, 0]),
                       Point([2, 3])])
    assert p.zero_turns() == [1]
    assert gen_planar_ngon(6).zero_turns() == []


def test_zero_turns_matches_affine_rank_oracle():
    # zero_turns ranks the three forms at each vertex; the oracle takes
    # the affine rank of the three points.  Random rational polygons in
    # R^2..R^5, with vertices planted on the line through their two
    # neighbours (between them, beyond either end, or a backtrack onto
    # the previous vertex), so both verdicts occur in every dimension
    rng = random.Random(103)
    reached = set()
    for trial in range(400):
        dim = 2 + trial % 4
        n = rng.randint(3, 8)
        verts = [Point([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(dim)]) for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(0, n // 2)):
            a, b = verts[i - 1], verts[(i + 1) % n]
            verts[i] = a + (b - a).scale(Fraction(rng.randint(-6, 10), 4))
        if any(verts[i] == verts[i - 1] for i in range(n)):
            continue
        want = [i for i in range(n)
                if affine_rank([verts[i - 1], verts[i],
                                verts[(i + 1) % n]]) < 2]
        assert ClosedPolygon(verts).zero_turns() == want, (trial, verts)
        reached |= {(dim, i in want) for i in range(n)}
    assert reached == {(d, z) for d in range(2, 6) for z in (True, False)}


def test_planar_ngon_on_exact_circle():
    for n in (3, 4, 5, 7, 12, 30):
        poly = gen_planar_ngon(n, radius="3/2")
        assert len(poly.vertices) == n
        r2 = rat("9/4")
        for v in poly.vertices:
            assert v[0] * v[0] + v[1] * v[1] == r2
        assert validate_embedded(poly) is None


def test_planar_ngon_refuses_a_zero_radius_and_turns_a_negative_one():
    # a zero radius is refused by name, before any snapping, in either
    # spelling and dimension; a negative one is the polygon turned by pi
    for radius in (0, "0", "0/3"):
        for dim in (2, 3):
            with pytest.raises(ValueError, match="radius must be nonzero"):
                gen_planar_ngon(5, dim=dim, radius=radius)
    for n in (3, 4, 7):
        for dim in (2, 3):
            pos = gen_planar_ngon(n, dim=dim, radius="3/2")
            neg = gen_planar_ngon(n, dim=dim, radius="-3/2")
            assert neg.vertices == [p.scale(-1) for p in pos.vertices]


def test_circle_forms_match_rational_circle_points():
    # the integer unit-circle forms are the Fraction points of the
    # reference, pi's (-1, 0) included, at both denominators in use
    for denom in (1 << 14, 1 << 15):
        for n in range(3, 65):
            angles = [2 * math.pi * k / n for k in range(n)]
            got = [(Fraction(x, w), Fraction(y, w))
                   for x, y, w in _circle_forms(angles, denom)]
            assert got == oracles._circle_points(angles, 1, denom), (n, denom)
            if n % 2 == 0:
                assert got[n // 2] == (-1, 0)


def test_planar_ngon_convex():
    from plspan.geom import orient2d
    poly = gen_planar_ngon(9)
    n = len(poly.vertices)
    turns = {orient2d(poly.vertices[i], poly.vertices[(i + 1) % n],
                      poly.vertices[(i + 2) % n]) for i in range(n)}
    assert turns == {1}


def test_planar_ngon_dim3():
    poly = gen_planar_ngon(5, dim=3)
    assert poly.dim == 3
    assert all(v[2] == 0 for v in poly.vertices)
    with pytest.raises(ValueError):
        gen_planar_ngon(5, dim=4)
    with pytest.raises(ValueError):
        gen_planar_ngon(2)


def test_torus_stick_basic():
    for m in (3, 4, 5):
        poly = gen_torus_stick(m)
        assert len(poly.vertices) == 2 * m
        assert poly.dim == 3
        assert len({v.coords for v in poly.vertices}) == 2 * m
        assert validate_embedded(poly) is None
    with pytest.raises(ValueError):
        gen_torus_stick(2)


def test_torus_stick_heights_alternate():
    poly = gen_torus_stick(4)
    for k, v in enumerate(poly.vertices):
        assert v[2] == (1 if k % 2 == 0 else -1)


def test_twist_writhe_vertex_count():
    for m in (1, 2, 3):
        poly = gen_twist_writhe(m)
        assert len(poly.vertices) == 6 * m + 3
        assert poly.dim == 3
        assert validate_embedded(poly) is None
    with pytest.raises(ValueError):
        gen_twist_writhe(0)


def test_gen_random_deterministic():
    a = gen_random(9, 3, seed=11)
    b = gen_random(9, 3, seed=11)
    c = gen_random(9, 3, seed=12)
    assert [v.coords for v in a.vertices] == [v.coords for v in b.vertices]
    assert [v.coords for v in a.vertices] != [v.coords for v in c.vertices]


def test_gen_random_dims_embedded():
    for dim in (2, 3, 4):
        for seed in (0, 7):
            poly = gen_random(8, dim, seed=seed)
            assert poly.dim == dim
            assert len(poly.vertices) == 8
            assert validate_embedded(poly) is None
            assert not poly.zero_turns()


def test_polygon_file_round_trip(tmp_path):
    poly = ClosedPolygon([Point(["1/3", "-2/7", 5]),
                          Point([0, "0.25", "-9/4"]),
                          Point([1, 1, 1]),
                          Point(["22/7", 0, 0])])
    path = tmp_path / "p.poly"
    write_polygon(poly, str(path))
    back = read_polygon(str(path))
    assert back.dim == poly.dim
    assert [v.coords for v in back.vertices] \
        == [v.coords for v in poly.vertices]
    # comments and blank lines are tolerated
    spiced = "# a polygon\n" + path.read_text() + "\n# trailing note\n"
    path2 = tmp_path / "p2.poly"
    path2.write_text(spiced)
    again = read_polygon(str(path2))
    assert [v.coords for v in again.vertices] \
        == [v.coords for v in poly.vertices]


_COORD = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _corner_lists(draw, min_size=0, min_dim=0):
    """Coordinate lists of min_size..6 corners with mixed signs and
    denominators, in one dimension min_dim..4, or in mixed ones one time
    in eight; a drawn corner may be repeated as the next."""
    dim = draw(st.integers(min_dim, 4))
    corners = []
    for _ in range(draw(st.integers(min_size, 6))):
        if corners and draw(st.integers(0, 5)) == 0:
            corners.append(corners[-1])
            continue
        d = dim + (draw(st.integers(0, 7)) == 0)
        corners.append(draw(st.lists(_COORD, min_size=d, max_size=d)))
    return corners


def _built(corners):
    """(hom, vertices, dim) of ClosedPolygon(corners), or the message it
    refuses them with."""
    try:
        poly = ClosedPolygon(corners)
    except ValueError as exc:
        return str(exc)
    return poly.hom, poly.vertices, poly.dim


@settings(max_examples=400, deadline=None)
@given(_corner_lists(), st.integers(-6, 6).filter(bool))
@example([[1, 2], [3, 4]], 1)  # fewer than 3 corners
@example([[1, 2], [3, 4, 5], [0, 1]], 2)  # mixed dimensions
@example([[1], [2], [3]], -1)  # dimension < 2
@example([[1, 2], [Fraction(3, 2), 4], [Fraction(3, 2), 4]], 3)  # repeated
@example([[Fraction(-1, 2), 2], [Fraction(5, 6), 0], [0, Fraction(7, 4)]], -4)
def test_polygon_from_points_and_from_forms_agree(coords, k):
    # any integer form of each corner, w = k times a common denominator
    # of the corner, any sign, builds the polygon its Points build, with
    # the same forms and vertices, or is refused with the same message
    forms = []
    for c in coords:
        w = k * lcm(*(Fraction(x).denominator for x in c))
        forms.append(tuple(int(x * w) for x in c) + (w,))
    assert _built(forms) == _built([Point(c) for c in coords])


@settings(max_examples=200, deadline=None)
@given(_corner_lists(min_size=3, min_dim=2))
def test_polygon_file_keeps_the_forms(tmp_path_factory, coords):
    # polygon_text prints what rat_str printed of the rational
    # coordinates, and reading it back gives the same forms
    points = [Point(c) for c in coords]
    assume(isinstance(_built(points), tuple))
    poly = ClosedPolygon(points)
    assert polygon_text(poly) == oracles.polygon_text(poly)
    path = str(tmp_path_factory.mktemp("poly") / "p.poly")
    write_polygon(poly, path)
    assert read_polygon(path).hom == poly.hom


def test_polygon_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.poly"
    p.write_text("pl-polygon 3\n0 0 0\n")
    with pytest.raises(ValueError):
        read_polygon(str(p))
    p.write_text("pl-polygon 3 2\n0 0 0\n1 1 1\n")
    with pytest.raises(ValueError):
        read_polygon(str(p))
    p.write_text("pl-polygon 3 3\n0 0 0\n1 1\n2 2 2\n")
    with pytest.raises(ValueError):
        read_polygon(str(p))


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_polygon_file_names_an_empty_file(tmp_path, text):
    p = tmp_path / "empty.poly"
    p.write_text(text)
    with pytest.raises(ValueError, match="^empty pl-polygon file$"):
        read_polygon(str(p))
