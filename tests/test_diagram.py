import random
import re
from fractions import Fraction

import pytest

from plspan.geom import (
    Point,
    ZERO,
    _lift,
    homogeneous,
    key_boxes,
    overlapping_pairs,
    rat,
    sign,
)
from plspan.diagram import (
    _projection_problems,
    find_general_position,
    project_polygon,
)
from plspan.mesh import _edge_param
from plspan.polygon import (
    ClosedPolygon,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    gen_twist_writhe,
)

from oracles import (
    lift_point,
    point_of,
    point_on_segment,
    seg_intersect_2d,
    shadow_point,
    shear_last_into,
)


def _problems(pts):
    """_projection_problems on the forms of the planar points pts, with
    each crossing point, a canonical form, read back as a Point."""
    problem, crossings = _projection_problems([homogeneous(p) for p in pts])
    if crossings is None:
        return problem, None
    points = [point_of(c[4]) for c in crossings]
    assert [c[4] for c in crossings] == [homogeneous(p) for p in points]
    return problem, [(*c[:4], p, c[5]) for c, p in zip(crossings, points)]


def test_trefoil_diagram():
    d = project_polygon(gen_torus_stick(3), seed=0)
    assert len(d.crossings) == 3
    assert abs(d.writhe) == 3
    assert len({c.sign for c in d.crossings}) == 1
    assert len(d.walk) == 6 + 2 * 3


def test_planar_polygon_has_no_crossings():
    d = project_polygon(gen_planar_ngon(5, dim=3))
    assert d.crossings == []
    assert d.writhe == 0
    assert len(d.walk) == 5


def test_twist_family_signs():
    for m in (1, 2):
        d = project_polygon(gen_twist_writhe(m), seed=0)
        assert len(d.crossings) == m * (m + 1)
        assert all(c.sign == 1 for c in d.crossings)
        assert d.writhe == m * (m + 1)


def test_torus_stick_writhe_formula():
    for m in (3, 4, 5, 6):
        d = project_polygon(gen_torus_stick(m), seed=0)
        assert d.writhe == m * (m - 2)
        # surplus crossings beyond the writhe cancel in pairs
        assert (len(d.crossings) - d.writhe) % 2 == 0


def test_writhe_is_orientation_independent():
    for poly in (gen_torus_stick(3), gen_twist_writhe(2)):
        rev = ClosedPolygon(poly.vertices[::-1])
        d1 = project_polygon(poly, seed=0)
        d2 = project_polygon(rev, seed=0)
        assert d1.writhe == d2.writhe
        assert len(d1.crossings) == len(d2.crossings)


def _strand_params(d, c):
    """role -> (edge, t, point) of crossing c's two passages in d's walk,
    t the parameter of the passage's point strictly inside its edge of
    the polygon (None when it is not)."""
    hom = d.polygon.hom
    n = len(hom)
    out = {}
    for w in d.walk:
        if w.kind == "cross" and w.ref == c.index:
            t = _edge_param(w.point, hom[w.edge], hom[(w.edge + 1) % n])
            out[w.role] = (w.edge, t and Fraction(*t), point_of(w.point))
    return out


def _over_is_higher(d, c):
    strands = _strand_params(d, c)
    return strands["over"][2][2] > strands["under"][2][2]


def test_crossing_geometry_is_exact():
    poly = gen_torus_stick(4)
    d = project_polygon(poly, seed=0)
    shadow = [point_of(h) for h in d.shadow]
    n = len(shadow)
    for c in d.crossings:
        assert _over_is_higher(d, c)
        strands = _strand_params(d, c)
        assert [strands[r][0] for r in ("over", "under")] \
            == [c.over_edge, c.under_edge]
        # each passage's point lies strictly inside its edge, at the
        # parameter where that edge's shadow passes the crossing
        for edge, t, _ in strands.values():
            assert t is not None and 0 < t < 1
            a, b = shadow[edge], shadow[(edge + 1) % n]
            got = Point([a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])])
            assert got == point_of(c.pos)
            assert point_on_segment(got, a, b)


def test_walk_structure():
    poly = gen_torus_stick(3)
    d = project_polygon(poly, seed=0)
    n = len(d.shadow)
    # every vertex appears once, every crossing exactly twice
    verts = [w for w in d.walk if w.kind == "vertex"]
    cross = [w for w in d.walk if w.kind == "cross"]
    assert len(verts) == n
    assert [w.ref for w in verts] == list(range(n))
    byref = {}
    for w in cross:
        byref.setdefault(w.ref, []).append(w.role)
    assert set(byref) == {c.index for c in d.crossings}
    assert all(sorted(roles) == ["over", "under"]
               for roles in byref.values())
    # each edge opens with its corner, and the points of its passages
    # rise strictly along it
    for i in range(n):
        a, b = poly.hom[i], poly.hom[(i + 1) % n]
        corner, *stops = [w for w in d.walk if w.edge == i]
        assert corner.kind == "vertex" and corner.point == a
        params = [_edge_param(w.point, a, b) for w in stops]
        assert None not in params
        params = [Fraction(*t) for t in params]
        assert params == sorted(set(params))


def test_lift_inverts_the_shear():
    # the vertical edge forces nonzero slopes; the rational lift and
    # geom._lift on the forms agree
    def lifts(d, h, point):
        zn, zd = point[2], point[3]
        want = lift_point(d.slopes, point_of(h), Fraction(zn, zd))
        assert _lift(h, zn, zd, d.slopes) == homogeneous(want)
        return want

    for poly in (gen_torus_stick(3), _vertical_edge()):
        d = project_polygon(poly, seed=0)
        verts = poly.vertices
        n = len(verts)
        for i, v in enumerate(verts):
            assert lifts(d, d.shadow[i], poly.hom[i]) == v
        # every walk stop's point lies on its own edge, and its shadow
        # lifts back to it at its height
        for w in d.walk:
            a, b = poly.hom[w.edge], poly.hom[(w.edge + 1) % n]
            assert w.point == a or _edge_param(w.point, a, b) is not None
            assert lifts(d, w.pos, w.point) == point_of(w.point)
    assert any(d.slopes)


def test_shadow_and_crossing_forms_match_rational_shear():
    # on random rational polygons, under the identity and under random
    # slopes (a vertex over another forces the shear), each shadow form
    # is homogeneous() of the rational shadow point, and each crossing
    # form that of the shadow point at its parameter along edge i
    from plspan.polygon import validate_embedded
    rng = random.Random(24)
    sheared = kept = crossed = 0
    for k in range(60):
        verts = [Point([Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                        for _ in range(3)]) for _ in range(rng.randint(4, 9))]
        if k % 2:
            verts[0] = Point((verts[2][0], verts[2][1], verts[2][2] + 1))
        poly = ClosedPolygon(verts)
        if validate_embedded(poly) is not None:
            continue
        for seed in range(3):
            slopes, shadow, hits = find_general_position(poly, seed=seed)
            pts = [shadow_point(v, slopes) for v in verts]
            assert shadow == [homogeneous(p) for p in pts]
            n = len(pts)
            for i, _, t, _, pos, _ in hits:
                a, b = pts[i], pts[(i + 1) % n]
                assert pos == homogeneous(a + (b - a).scale(t))
            crossed += len(hits)
            sheared += any(slopes)
            kept += not any(slopes)
    assert sheared > 40 and kept > 40 and crossed > 100


def test_general_position_fixes_vertical_edge():
    poly = ClosedPolygon([Point([0, 0, 0]), Point([0, 0, 2]),
                          Point([3, 1, 3]), Point([4, -1, 1])])
    from plspan.polygon import validate_embedded
    assert validate_embedded(poly) is None
    with pytest.raises(AssertionError):
        find_general_position(poly, budget=1)  # identity only
    slopes, shadow, _ = find_general_position(poly, seed=0)
    assert any(slopes) and shadow[0] != shadow[1]
    d = project_polygon(poly, seed=0)
    assert len(d.walk) >= 4


def test_rejects_wrong_dimension():
    flat = gen_planar_ngon(4)
    with pytest.raises(ValueError):
        project_polygon(flat)


def test_random_polygons_project_cleanly():
    for seed in range(8):
        poly = gen_random(8, 3, seed=seed)
        d = project_polygon(poly, seed=seed)
        n = len(poly.vertices)
        assert len(d.crossings) <= n * (n - 3) // 2
        for c in d.crossings:
            assert c.sign in (-1, 1)
            assert all(t is not None
                       for _, t, _ in _strand_params(d, c).values())
            assert _over_is_higher(d, c)
        assert len(d.walk) == n + 2 * len(d.crossings)


# ---------------------------------------------------------------------------
# the swept, sign-cleared shadow check against the all-pairs rational loop

def _projection_oracle(pts):
    """_projection_problems as an all-pairs loop running seg_intersect_2d
    on every edge pair, with each crossing's sign taken from the
    rational edge directions."""
    n = len(pts)
    crossings = []
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if a == b:
            return "edge %d projects to a point" % i, None
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            c, d = pts[j], pts[(j + 1) % n]
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            hit = seg_intersect_2d(a, b, c, d)
            if hit.kind == "overlap":
                return "edges %d,%d overlap in projection" % (i, j), None
            if hit.kind == "empty":
                continue
            if adjacent:
                shared = pts[j] if j == i + 1 else pts[i]
                if hit.point != shared:
                    return ("adjacent edges %d,%d meet away from corner"
                            % (i, j), None)
                continue
            if hit.contact != "interior-interior":
                return "edges %d,%d touch at an endpoint" % (i, j), None
            r, s = b - a, d - c
            crossings.append((i, j) + hit.params
                             + (hit.point, sign(r[0] * s[1] - r[1] * s[0])))
    seen = set()
    for *_, point, _ in crossings:
        if point.coords in seen:
            return "two crossings coincide", None
        seen.add(point.coords)
    for v in pts:
        if v.coords in seen:
            return "a crossing hits a projected vertex", None
    return None, crossings


def test_projection_problems_match_all_pairs_oracle(monkeypatch):
    # grid shadows make collinear overlaps, endpoint touches, adjacent
    # backtracks and coincident crossings common; the hand-picked ones
    # make sure each appears.  Same problem, or the same crossings with
    # the same points, parameters and signs, as the oracle.  One integer
    # seg_intersect_2d call decides each candidate pair of the sweep; the
    # corpus must reach every kind, and the last call of a rejected
    # shadow names its problem.
    import plspan.diagram as diagram_mod
    intersect = diagram_mod.seg_intersect_2d
    hits = []

    def intersect_spy(*args):
        hits.append(intersect(*args))
        return hits[-1]

    monkeypatch.setattr(diagram_mod, "seg_intersect_2d", intersect_spy)

    def shadow(*xy):
        return [Point(p) for p in xy]

    cases = [
        shadow((0, 0), (4, 0), (4, 4), (0, 4)),                # clean
        shadow((0, 0), (4, 4), (4, 0), (0, 4)),                # bowtie
        shadow((0, 0), (4, 0), (2, 0), (2, 3)),                # overlap
        shadow((0, 0), (4, 0), (4, 3), (2, 0), (0, 3)),        # touch
        shadow((0, 0), (2, 0), (1, 0), (1, 2)),                # backtrack
        shadow((0, 0), (4, 4), (4, 0), (0, 4), (2, 0), (2, 4)),  # coincide
        shadow((0, 0), (3, 0), (3, 0), (0, 3)),                # point edge
    ]
    rng = random.Random(1979)
    for _ in range(300):
        n = rng.randint(3, 9)
        cases.append([Point([rng.randint(0, 4), Fraction(rng.randint(0, 8), 2)])
                      for _ in range(n)])
    for poly in (gen_torus_stick(5), gen_twist_writhe(2),
                 gen_random(9, 3, seed=4)):
        cases.append([Point([v[0], v[1]]) for v in poly.vertices])
    problems = set()
    kinds = set()
    for k, pts in enumerate(cases):
        want = _projection_oracle(pts)
        hits.clear()
        assert _problems(pts) == want, (k, pts)
        problem = want[0] and re.sub(r"\d+", "#", want[0])
        problems.add(problem)
        kinds.update(hits)
        if problem == "edges #,# overlap in projection":
            assert hits[-1] == "overlap", (k, pts)
        elif problem == "edges #,# touch at an endpoint":
            assert hits[-1] == "touch", (k, pts)
        elif problem != "edge # projects to a point":
            hom = [homogeneous(p) for p in pts]
            n = len(pts)
            pairs = overlapping_pairs(key_boxes(
                hom, [(i, (i + 1) % n) for i in range(n)]))
            assert len(hits) == len(pairs), (k, pts)
            assert "overlap" not in hits, (k, pts)
            if problem is None:
                assert hits.count("cross") == len(want[1]), (k, pts)
    assert kinds == {None, "cross", "touch", "overlap"}
    assert problems == {None, "edge # projects to a point",
                        "edges #,# overlap in projection",
                        "edges #,# touch at an endpoint",
                        "two crossings coincide"}


# ---------------------------------------------------------------------------
# the slope-only shear stage against the full affine applies it replaced

def _shadow_oracle(poly):
    return [Point([v[0], v[1]]) for v in poly.vertices]


def _general_position_oracle(poly, seed, budget):
    """The shear search with one AffineMap.apply per vertex and attempt."""
    rng = random.Random(seed)
    den = 1024
    tried = set()
    for k in range(budget):
        if k == 0:
            s1 = s2 = ZERO
        else:
            s1 = rat(str(rng.randint(-den, den)) + "/" + str(den))
            s2 = rat(str(rng.randint(-den, den)) + "/" + str(den))
        if (s1, s2) in tried:
            continue
        tried.add((s1, s2))
        shear = shear_last_into(3, [s1, s2])
        image = ClosedPolygon([shear.apply(v) for v in poly.vertices])
        problem, crossings = _problems(_shadow_oracle(image))
        if problem is None:
            return shear, crossings
    raise AssertionError("no generic projection found within budget")


def _project_oracle(poly, seed):
    """project_polygon through the shear map and its applies: the
    slopes, the shadow, the crossings and the walk, each stop with its
    point on poly, at its rational parameter along its edge."""
    shear, hits = _general_position_oracle(poly, seed, 1000)
    slopes = (shear.matrix[0][2], shear.matrix[1][2])
    pts = _shadow_oracle(ClosedPolygon([shear.apply(v)
                                        for v in poly.vertices]))
    n = len(pts)
    verts3 = poly.vertices

    def point_at(edge, t):
        a, b = verts3[edge], verts3[(edge + 1) % n]
        return a + (b - a).scale(t)

    crossings = []
    per_edge = {i: [] for i in range(n)}
    # the sign is taken again from the rational shadow directions
    for i, j, t, u, point, _ in hits:
        zi, zj = point_at(i, t)[2], point_at(j, u)[2]
        assert zi != zj
        if zi > zj:
            over_edge, under_edge, tp, up = i, j, t, u
        else:
            over_edge, under_edge, tp, up = j, i, u, t
        odir = pts[(over_edge + 1) % n] - pts[over_edge]
        udir = pts[(under_edge + 1) % n] - pts[under_edge]
        sgn = sign(odir[0] * udir[1] - odir[1] * udir[0])
        idx = len(crossings)
        crossings.append((idx, over_edge, under_edge, point, sgn))
        per_edge[over_edge].append((tp, idx, "over"))
        per_edge[under_edge].append((up, idx, "under"))
    walk = []
    for i in range(n):
        walk.append(("vertex", i, None, i, pts[i], verts3[i]))
        for t, idx, role in sorted(per_edge[i], key=lambda e: e[0]):
            walk.append(("cross", idx, role, i, crossings[idx][3],
                         point_at(i, t)))
    return slopes, pts, crossings, walk


def _touching_shadow():
    """Embedded, but vertex 4 projects into the shadow of edge 0."""
    return ClosedPolygon([Point(c) for c in (
        (0, 0, 0), (4, 0, 0), (4, 3, 0), (2, 3, 1), (2, 0, 2), (1, -3, 2))])


def _vertical_edge():
    return ClosedPolygon([Point([0, 0, 0]), Point([0, 0, 2]),
                          Point([3, 1, 3]), Point([4, -1, 1])])


def test_projection_matches_affine_apply_oracle():
    from plspan.polygon import validate_embedded
    rejected = [_vertical_edge(), _touching_shadow()]
    for poly in rejected:
        assert validate_embedded(poly) is None
        with pytest.raises(AssertionError):
            find_general_position(poly, budget=1)  # identity only
    polys = ([gen_twist_writhe(m) for m in (1, 2, 3)] + [gen_torus_stick(3)]
             + [gen_random(10, 3, seed=k) for k in range(4)] + rejected)
    kept = 0
    for p, poly in enumerate(polys):
        for seed in range(8):
            slopes, shadow, crossings, walk = _project_oracle(poly, seed)
            d = project_polygon(poly, seed=seed)
            key = (p, seed)
            # the forms are those of the oracle's rational points
            assert d.slopes == slopes, key
            assert d.shadow == [homogeneous(p) for p in shadow], key
            assert d.shadow == [homogeneous(shadow_point(v, slopes))
                                for v in poly.vertices], key
            assert [(c.index, c.over_edge, c.under_edge, c.pos, c.sign)
                    for c in d.crossings] \
                == [(*c[:3], homogeneous(c[3]), c[4]) for c in crossings], key
            assert [(w.kind, w.ref, w.role, w.edge, w.pos, w.point)
                    for w in d.walk] \
                == [(*w[:4], homogeneous(w[4]), homogeneous(w[5]))
                    for w in walk], key
            assert find_general_position(poly, seed=seed)[0] == slopes, key
            kept += not any(d.slopes)
    # every polygon but the two rejected ones keeps the vertical shadow
    assert kept == 8 * (len(polys) - len(rejected))
