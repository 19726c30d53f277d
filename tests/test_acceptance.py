"""Acceptance checklist, one test per criterion.

Run with -v for one pass/fail line per criterion; each test also prints
its own summary line so `pytest -s` output reads as a checklist.
"""

import json
import time

from plspan.bounds import (
    crossing_lower_bound,
    family_bounds,
    genus_lower_bound,
    torus_genus,
    writhe_lower_bound,
)
from plspan.cli import main
from plspan.diagram import project_polygon
from plspan.geom import Point, Rat
from plspan.mesh import TriMesh, check_embedded
from plspan.otherdims import cone_highdim, earclip_2d, embedded_4d, \
    immersed_disk_4d
from plspan.polygon import (
    ClosedPolygon,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    gen_twist_writhe,
    validate_embedded,
    write_polygon,
)
from plspan.seifert import spanning_surface_r3

from oracles import add_triangle

FIVE_CERTS = ("manifold", "orientable", "embedded", "boundary_match",
              "chi_consistent")


def _span_via_cli(poly, tmp_path, tag, extra=()):
    ppath = tmp_path / ("%s.poly" % tag)
    rpath = tmp_path / ("%s.json" % tag)
    write_polygon(poly, str(ppath))
    code = main(["span", str(ppath), "--report", str(rpath)] + list(extra))
    with open(rpath) as fh:
        return code, json.load(fh)


def _r3_corpus():
    out = [("torus3", gen_torus_stick(3)), ("torus4", gen_torus_stick(4)),
           ("twist1", gen_twist_writhe(1)), ("twist2", gen_twist_writhe(2)),
           ("hex", gen_planar_ngon(6, dim=3))]
    for s in range(4):
        out.append(("rand%d" % s, gen_random(9, 3, seed=s)))
    return out


def test_criterion_01_budget_and_certificates(tmp_path):
    polys = [("torus m=%d" % m, gen_torus_stick(m)) for m in range(3, 9)]
    polys += [("random n=%d seed=%d" % (4 + i % 13, i),
               gen_random(4 + i % 13, 3, seed=i)) for i in range(50)]
    worst = (0.0, "")
    for k, (name, poly) in enumerate(polys):
        start = time.perf_counter()
        code, rep = _span_via_cli(poly, tmp_path, "c1_%d" % k)
        elapsed = time.perf_counter() - start
        worst = max(worst, (elapsed, name))
        assert code == 0, (name, rep.get("error"))
        n, c, t = rep["n"], rep["c"], rep["t"]
        assert t <= 3 * n + 14 * c <= 7 * n * n, name
        for cert in FIVE_CERTS:
            assert rep["certificates"][cert] is True, (name, cert)
        assert elapsed < 10.0, "%s took %.1fs (timings %s)" % (
            name, elapsed, json.dumps(rep["timings"], sort_keys=True))
    print("criterion 01: PASS (%d polygons, worst %.2fs, %s)"
          % (len(polys), worst[0], worst[1]))


def test_criterion_02_count_identity():
    for name, poly in _r3_corpus():
        _, rep = spanning_surface_r3(poly, seed=0)
        sizes = rep["circuit_sizes"]
        c, s, t = rep["crossings"], rep["circuits"], rep["triangles"]
        assert t == sum(sz - 2 for sz in sizes) + 2 * sum(sizes) + 2 * c
        assert rep["euler"] == s - c, name
    print("criterion 02: PASS (count identity on %d builds)"
          % len(_r3_corpus()))


def test_criterion_03_trefoil_end_to_end():
    _, rep = spanning_surface_r3(gen_torus_stick(3), seed=0)
    assert rep["crossings"] == 3
    assert rep["circuits"] == 2
    assert rep["triangles"] == 56
    assert rep["euler"] == -1
    assert rep["genus"] == 1 == torus_genus(3, 2)
    assert genus_lower_bound(1) == 5 <= 56
    assert writhe_lower_bound(rep["writhe"]) == 4 <= 56
    print("criterion 03: PASS (trefoil c=3 s=2 t=56 chi=-1 genus=1)")


def test_criterion_04_planar():
    checked = 0
    for n in range(3, 21):
        convex = gen_planar_ngon(n)
        _, rep = earclip_2d(convex)
        assert rep["triangles"] == n - 2
        checked += 1
        if n >= 4:
            verts = list(convex.vertices)
            verts[1] = verts[1].scale(Rat(1, 8))
            dented = ClosedPolygon(verts)
            assert validate_embedded(dented) is None
            _, rep = earclip_2d(dented)
            assert rep["triangles"] == n - 2
            checked += 1
    print("criterion 04: PASS (%d planar polygons, t = n-2)" % checked)


def test_criterion_05_cone_high_dimensions():
    for i in range(20):
        n = 4 + i % 9
        dim = 5 + i % 2
        poly = gen_random(n, dim, seed=i)
        mesh, rep = cone_highdim(poly, seed=i, budget=100)
        assert rep["triangles"] == n == len(mesh.triangles)
        assert rep["attempt"] < 100
    print("criterion 05: PASS (20 cones in R5/R6, n triangles each)")


def test_criterion_06_immersed_disks():
    for i in range(20):
        n = 4 + i % 9
        poly = gen_random(n, 4, seed=i)
        mesh, rep = immersed_disk_4d(poly, seed=i)
        assert rep["triangles"] == 3 * n
        assert rep["euler"] == 1
        assert rep["boundary_cycles"] == 1
        assert rep["interior_clear"] is True
    print("criterion 06: PASS (20 immersed disks in R4, 3n triangles)")


def test_criterion_07_embedded_r4():
    for m in (3, 4):
        base = gen_torus_stick(m)
        poly = ClosedPolygon([Point((v[0], v[1], v[2], v[0]))
                              for v in base.vertices])
        mesh, rep = embedded_4d(poly, seed=0)
        n = rep["n"]
        assert rep["triangles"] <= 21 * n * n
        assert rep["embedded"] is True
        assert mesh.dim == 4
        assert check_embedded(mesh) is None
    print("criterion 07: PASS (lifted torus sticks m=3,4 in R4)")


def test_criterion_08_twist_writhe_family():
    for m in range(1, 6):
        poly = gen_twist_writhe(m)
        n = len(poly.vertices)
        assert n == 6 * m + 3
        dia = project_polygon(poly, seed=0)
        assert dia.writhe == m * (m + 1)
        low = m * (m + 1) + 1
        assert low >= family_bounds(n)[1]
    print("criterion 08: PASS (twist writhe m(m+1), m=1..5)")


def test_criterion_09_writhe_bound_universal():
    for name, poly in _r3_corpus():
        _, rep = spanning_surface_r3(poly, seed=0)
        best = max(abs(project_polygon(poly, seed=s).writhe)
                   for s in range(8))
        assert rep["triangles"] >= best + 1, name
    print("criterion 09: PASS (t >= max|w|+1 over 8 projections each)")


def test_criterion_10_crossing_bound():
    for m in range(2, 6):
        poly = gen_twist_writhe(m)
        n = 6 * m + 3
        bound = crossing_lower_bound(m * (m + 1), n)
        for s in range(8):
            dia = project_polygon(poly, seed=s)
            assert len(dia.crossings) >= bound
    print("criterion 10: PASS (crossing bound, twist m=2..5)")


def test_criterion_11_family_identity():
    for m in range(3, 51):
        assert family_bounds(2 * m)[0] == \
            genus_lower_bound(torus_genus(m, m - 1))
    print("criterion 11: PASS (family identity m=3..50)")


def test_criterion_12_negative_controls():
    # half-twisted band: orientation assignment must fail with a chain
    band = TriMesh(3)
    pts = [Point([0, 0, 0]), Point([4, 0, 0]), Point([6, 3, 0]),
           Point([3, 6, 0]), Point([0, 4, 1])]
    idx = [band.add_vertex(p) for p in pts]
    for i, j, k in [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]:
        band.add_triangle_indices(idx[i], idx[j], idx[k])
    ok, witness = band.orientation_propagate()
    assert not ok and witness

    bowtie = ClosedPolygon([Point((0, 0, 0)), Point((2, 2, 0)),
                            Point((2, 0, 0)), Point((0, 2, 0))])
    violation = validate_embedded(bowtie)
    assert violation is not None
    assert violation.point == Point((1, 1, 0))

    import random
    knot = gen_torus_stick(3)
    verts = knot.vertices
    rng = random.Random(0)
    for _ in range(10):
        apex = Point([Rat(rng.randint(-40, 40), 4) for _ in range(3)])
        fan = TriMesh(3)
        for i in range(len(verts)):
            add_triangle(fan, verts[i], verts[(i + 1) % len(verts)], apex)
        assert check_embedded(fan) is not None
    print("criterion 12: PASS (all three negative controls witness)")


def test_criterion_13_determinism(tmp_path):
    poly = gen_torus_stick(3)
    ppath = tmp_path / "p.poly"
    write_polygon(poly, str(ppath))
    outs = []
    for run in ("a", "b"):
        mpath = tmp_path / ("%s.off" % run)
        rpath = tmp_path / ("%s.json" % run)
        assert main(["span", str(ppath), "--seed", "3",
                     "--mesh-out", str(mpath),
                     "--report", str(rpath)]) == 0
        with open(rpath) as fh:
            rep = json.load(fh)
        rep.pop("timings")
        outs.append((mpath.read_bytes(), json.dumps(rep, sort_keys=True)))
    assert outs[0] == outs[1]
    print("criterion 13: PASS (byte-identical mesh and report)")
