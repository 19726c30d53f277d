import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import plspan
from plspan.diagram import project_polygon
from plspan.geom import (
    ONE,
    Point,
    Rat,
    ZERO,
    _lift,
    _shear,
    homogeneous,
    rat,
)
from plspan.mesh import (TriMesh, _edge_param, boundary_matches,
                         check_embedded, write_off)
from plspan.polygon import (
    ClosedPolygon,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    gen_twist_writhe,
    read_polygon,
    validate_embedded,
    write_polygon,
)
from plspan.seifert import (
    MarkedDiagram,
    _add_wall,
    _construct_r3,
    _marks_valid,
    _place_marks,
    _ray_parity,
    assign_levels,
    build_surface,
    insert_interior_vertices,
    quad_edge_colors,
    smooth,
    spanning_surface_r3,
)

from oracles import (
    affine_inverse,
    construct_r3_framed,
    lift_point,
    mark_point,
    point_of,
    point_on_segment,
    seg_intersect_2d,
    shear_last_into,
)


def _edge_params(poly, nodes):
    """Each node's parameter along its edge of poly, from its point: 0
    at the corner opening the edge, a rational strictly inside it, or
    None for a point elsewhere."""
    hom = poly.hom
    out = []
    for nd in nodes:
        a, b = hom[nd.edge], hom[(nd.edge + 1) % len(hom)]
        t = _edge_param(nd.point, a, b)
        out.append(0 if nd.point == a else t and Rat(*t))
    return out


def test_trefoil_marks():
    poly = gen_torus_stick(3)
    dia = project_polygon(poly)
    mk = insert_interior_vertices(dia)
    # 6 corners + 2 passages and 4 marks per crossing
    assert len(mk.nodes) == 6 + 6 * 3
    assert len(mk.quads) == 3
    for x, q in enumerate(mk.quads):
        assert set(q) == {"in_over", "out_over", "in_under", "out_under"}
        sides = mk.quad_edges(x)
        assert len(sides) == 4
        # every mark sits strictly inside its edge
        for idx in q.values():
            nd = mk.nodes[idx]
            assert nd.kind == "mark"
            t, = _edge_params(poly, [nd])
            assert t is not None and 0 < t < 1


def test_trefoil_circuits():
    dia = project_polygon(gen_torus_stick(3))
    g = smooth(insert_interior_vertices(dia))
    assert len(g.circuits) == 2
    assert sum(len(c) for c in g.circuits) == 18
    assert sorted(assign_levels(g)) == [1, 2]


def test_trefoil_surface():
    mesh, rep = spanning_surface_r3(gen_torus_stick(3))
    assert rep["crossings"] == 3
    assert rep["circuits"] == 2
    assert rep["triangles"] == 56
    assert rep["euler"] == -1
    assert rep["genus"] == 1
    assert rep["orientable"] and rep["connected"]
    assert rep["boundary_cycles"] == 1
    assert rep["embedded"]


def test_quad_colors_alternate():
    # quad_edge_colors reads the first side's colour and alternates it;
    # each side's colour, read on its own by the retrying rational ray
    # count from its midpoint, is the one given
    corpus = [gen_torus_stick(m) for m in (3, 4, 5)]
    corpus += [gen_twist_writhe(m) for m in (1, 2)]
    corpus += [gen_random(9, 3, seed=s) for s in range(4)]
    seen = 0
    for poly in corpus:
        mk = insert_interior_vertices(project_polygon(poly))
        shadow = [point_of(h) for nd, h in zip(mk.nodes, mk.hom)
                  if nd.kind == "vertex"]
        segs = list(zip(shadow, shadow[1:] + shadow[:1]))
        for x in range(len(mk.quads)):
            colors = quad_edge_colors(mk, x)
            assert colors == [_ray_parity_oracle(
                (point_of(mk.hom[a]) + point_of(mk.hom[b])).scale(Rat(1, 2)),
                segs) for a, b in mk.quad_edges(x)], (poly, x)
            assert colors[0] == colors[2] != colors[1] == colors[3]
            seen += 1
    assert seen > 40


def test_white_edge_rule_matches_orientation_on_trefoil():
    dia = project_polygon(gen_torus_stick(3))
    mk = insert_interior_vertices(dia)
    canon = lambda g: sorted(tuple(sorted(c)) for c in g.circuits)
    assert canon(smooth(mk, "white-edge")) == canon(smooth(mk, "orientation"))


def test_smooth_rejects_unknown_rule():
    dia = project_polygon(gen_planar_ngon(4, dim=3))
    mk = insert_interior_vertices(dia)
    with pytest.raises(ValueError):
        smooth(mk, "checker")


def test_planar_ngon_counts():
    # a crossing-free diagram spans with one disk: n-2 bottom triangles
    # plus two walls per edge
    for n in (3, 4, 5, 8):
        mesh, rep = spanning_surface_r3(gen_planar_ngon(n))
        assert rep["crossings"] == 0
        assert rep["circuits"] == 1
        assert rep["bowties"] == 0
        assert rep["triangles"] == 3 * n - 2
        assert rep["genus"] == 0
        assert rep["levels"] == [1]


def test_planar_square_in_r3():
    mesh, rep = spanning_surface_r3(gen_planar_ngon(4, dim=3))
    assert rep["triangles"] == 10
    assert rep["embedded"]


def test_twist_surface():
    mesh, rep = spanning_surface_r3(gen_twist_writhe(2))
    assert rep["n"] == 15
    assert rep["crossings"] == 6
    assert rep["triangles"] >= 7
    assert rep["embedded"] and rep["orientable"]
    assert rep["boundary_cycles"] == 1


def _moved_vertex(n, seed):
    """gen_random(n, 3, seed) with vertex 0 moved over vertex 2, so the
    vertical shadow is not generic and the projection shears."""
    verts = list(gen_random(n, 3, seed=seed).vertices)
    verts[0] = Point((verts[2][0], verts[2][1], verts[0][2]))
    return ClosedPolygon(verts)


def test_wall_bases_sit_on_level_planes():
    for poly in (gen_torus_stick(3), _moved_vertex(7, 0)):
        dia = project_polygon(poly)
        g = smooth(insert_interior_vertices(dia))
        levels = assign_levels(g)
        mesh, trace = build_surface(g, levels)
        low = min(v[2] for v in poly.vertices)
        for t, tag in enumerate(mesh.provenance):
            kind = tag.split()[0]
            pts = mesh.triangle_points(t)
            if kind == "bowl":
                k = levels[int(tag.split()[1])]
                assert all(p[2] == low - 1 - k for p in pts)
            elif kind == "wall":
                k = levels[int(tag.split()[1])]
                lows = [p for p in pts if p[2] == low - 1 - k]
                highs = [p for p in pts if p[2] >= low]
                assert len(lows) + len(highs) == 3
                assert len(lows) in (1, 2)
            else:
                assert kind == "bowtie"
                assert all(p[2] >= low for p in pts)
    assert any(dia.slopes)


def test_surface_matches_sheared_frame_oracle(tmp_path):
    # built in poly's own frame, the surface and report are the ones that
    # building in the sheared, lifted frame and mapping back gave, byte
    # for byte, on polygons whose projection shears
    def off(mesh):
        path = tmp_path / "m.off"
        write_off(mesh, str(path))
        return path.read_bytes()

    polys = [_moved_vertex(n, s) for n in range(5, 11) for s in (0, 1)]
    built = 0
    for poly in polys:
        if validate_embedded(poly) is not None:
            continue
        assert any(project_polygon(poly).slopes)
        for rule in ("orientation", "white-edge"):
            want = construct_r3_framed(poly, 0, rule)
            got = _construct_r3(poly, 0, rule)
            assert off(got[0]) == off(want[0]), (poly, rule)
            assert got[1] == want[1], (poly, rule)
            built += 1
    assert built >= 20


def test_marked_diagram_keeps_each_node_integer_form():
    # MarkedDiagram keeps its nodes' forms, which are canonical; the
    # corner nodes' forms, in walk order, are the shadow's, which
    # quad_edge_colors reads
    for poly in (gen_torus_stick(3), gen_twist_writhe(2),
                 gen_random(8, 3, seed=5)):
        dia = project_polygon(poly)
        marked = insert_interior_vertices(dia)
        assert marked.hom == [nd.pos for nd in marked.nodes]
        assert marked.hom == [homogeneous(point_of(h)) for h in marked.hom]
        assert [h for nd, h in zip(marked.nodes, marked.hom)
                if nd.kind == "vertex"] == dia.shadow


def test_mark_forms_match_rational_marks():
    # each mark's form is homogeneous() of the rational point factor of
    # the way from its passage to the neighbouring walk stop, under the
    # identity and under a shear, at several offsets
    sheared = 0
    for poly in (gen_torus_stick(3), gen_twist_writhe(2),
                 gen_random(9, 3, seed=3), _moved_vertex(7, 0),
                 _moved_vertex(8, 1)):
        dia = project_polygon(poly)
        sheared += any(dia.slopes)
        walk = dia.walk
        for factor in (Rat(1, 4), Rat(1, 16), Rat(3, 4)):
            nodes, _ = _place_marks(dia, factor)
            for i, nd in enumerate(nodes):
                if nd.kind != "mark":
                    continue
                before = nd.role.startswith("in")
                passage = nodes[i + 1] if before else nodes[i - 1]
                w = next(k for k, st in enumerate(walk) if st is passage)
                near = walk[w - 1] if before else walk[(w + 1) % len(walk)]
                want = mark_point(point_of(passage.pos), point_of(near.pos),
                                  factor)
                assert nd.pos == homogeneous(want)
    assert sheared == 2


def test_lift_forms_match_rational_lift():
    # geom._lift is homogeneous() of the rational lift, the shear undone,
    # for random shadow points, heights and slopes; in R^4 (k = 3 slopes)
    # geom._shear is the shear map with its last coordinate dropped and
    # _lift its inverse map, and _shear undoes _lift.  A slope may be
    # given in lowest terms or not: _shear and _lift read only its
    # numerator and denominator.
    rng = random.Random(31)

    def frac(lim, den):
        return Rat(rng.randint(-lim, lim), rng.randint(1, den))

    for k in range(400):
        slopes = (ZERO, ZERO) if k % 4 == 0 else (frac(1024, 1024),
                                                  frac(1024, 1024))
        pos = Point([frac(50, 30), frac(50, 30)])
        z = frac(40, 12)
        assert _lift(homogeneous(pos), z.numerator, z.denominator, slopes) \
            == homogeneous(lift_point(slopes, pos, z))
    for k in range(300):
        slopes = [rng.choice((ZERO, frac(32, 16), frac(1024, 1024)))
                  for _ in range(3)]
        shear = shear_last_into(4, slopes)
        back = affine_inverse(shear)
        if k % 2:
            # the same slopes not in lowest terms, as (numerator,
            # denominator) pairs with a common factor
            m = rng.randint(2, 9)
            slopes = [SimpleNamespace(numerator=s.numerator * m,
                                      denominator=s.denominator * m)
                      for s in slopes]
        p4 = Point([frac(50, 30) for _ in range(4)])
        h = homogeneous(p4)
        sheared = shear.apply(p4)
        assert _shear(h, slopes) == homogeneous(Point(sheared.coords[:3]))
        z = frac(40, 12)
        pos = Point([frac(50, 30) for _ in range(3)])
        g = homogeneous(pos)
        lifted = _lift(g, z.numerator, z.denominator, slopes)
        assert lifted == homogeneous(back.apply(Point(list(pos) + [z])))
        assert _shear(lifted, slopes) == g
        assert _lift(_shear(h, slopes), h[3], h[4], slopes) == h


def test_add_wall_orders_base_vertices_as_fraction_tuples():
    # the cross-multiplied comparison of the base vertices' forms is the
    # lexicographic order of their Fraction coordinates, ties included
    rng = random.Random(5)
    for dim in (3, 4):
        for _ in range(300):
            pts = [Point([Rat(rng.randint(-2, 2), rng.randint(1, 3))
                          for _ in range(dim)]) for _ in range(4)]
            mesh = TriMesh(dim)
            ids = [mesh.add_vertex(p) for p in pts]
            _add_wall(mesh, 0, 1, ids.__getitem__,
                      lambda v: ids[2 + v], "wall")
            top = ids[2] if pts[0].coords <= pts[1].coords else ids[3]
            assert mesh.triangles[0] == (ids[0], ids[1], top)


def test_r3_span_and_write_make_no_point(tmp_path, monkeypatch):
    # from the polygon file to the mesh file, read_polygon, write_polygon,
    # spanning_surface_r3 and write_off run on integer forms: no Point is
    # made on the success path, until the mesh's vertices are read
    import plspan.geom as geom_mod
    paths = [str(tmp_path / ("%d.poly" % k)) for k in range(2)]
    for path, poly in zip(paths, (gen_torus_stick(3), gen_twist_writhe(2))):
        write_polygon(poly, path)
    made = []
    init = geom_mod.Point.__init__
    monkeypatch.setattr(geom_mod.Point, "__init__",
                        lambda self, coords: made.append(1)
                        or init(self, coords))
    for k, path in enumerate(paths):
        poly = read_polygon(path)
        write_polygon(poly, path + ".again")
        mesh, rep = spanning_surface_r3(poly)
        write_off(mesh, str(tmp_path / ("%d.off" % k)))
        assert rep["embedded"] and rep["orientable"]
    assert made == []
    assert len(mesh.vertices) == len(made) == len(mesh.hom)


def test_circuits_do_not_depend_on_the_mark_offset():
    # each reconnection joins the marks of one crossing by strand end or
    # face colour, not by position, so a smaller mark offset cannot mend
    # a failed smoothing: circuits and white pairs agree at every offset
    # that places valid marks
    corpus = [gen_torus_stick(3), gen_torus_stick(4), gen_twist_writhe(3)]
    corpus += [gen_random(4 + k % 9, 3, seed=k) for k in range(15)]
    crossings = compared = 0
    for poly in corpus:
        dia = project_polygon(poly)
        crossings += len(dia.crossings)
        placed = []
        for factor in (Rat(1, 4), Rat(1, 8), Rat(1, 32), Rat(1, 64)):
            marked = MarkedDiagram(dia, *_place_marks(dia, factor), factor)
            if _marks_valid(marked):
                placed.append(marked)
        assert len(placed) >= 2
        compared += len(placed) == 4
        for rule in ("orientation", "white-edge"):
            smoothings = {repr((g.circuits, g.whites)) for g in
                          (smooth(marked, rule) for marked in placed)}
            assert len(smoothings) == 1, (poly, rule)
    assert crossings > 50 and compared > len(corpus) // 2


def test_count_identity_across_corpus():
    corpus = [gen_torus_stick(3), gen_torus_stick(4), gen_twist_writhe(1),
              gen_planar_ngon(6, dim=3)]
    for seed in range(4):
        corpus.append(gen_random(9, 3, seed=seed))
    for poly in corpus:
        mesh, rep = spanning_surface_r3(poly)
        n, c, s = rep["n"], rep["crossings"], rep["circuits"]
        total = sum(rep["circuit_sizes"])
        assert total == n + 4 * c
        assert rep["triangles"] == (total - 2 * s) + 2 * total + 2 * c
        assert rep["triangles"] <= 3 * n + 14 * c <= 7 * n * n
        assert rep["euler"] == s - c
        assert rep["boundary_cycles"] == 1
        assert rep["orientable"] and rep["embedded"]


def test_white_edge_rule_builds_verified_surfaces():
    # the checkerboard reconnection need not be orientable, but every
    # other guarantee must still hold
    for poly in (gen_torus_stick(3), gen_torus_stick(4),
                 gen_random(8, 3, seed=2)):
        mesh, rep = spanning_surface_r3(poly, rule="white-edge")
        assert rep["embedded"]
        assert rep["boundary_cycles"] == 1
        assert rep["euler"] == rep["circuits"] - rep["crossings"]


def test_surface_boundary_is_subdivision_of_input():
    poly = gen_torus_stick(3)
    mesh, rep = spanning_surface_r3(poly)
    assert boundary_matches(mesh, poly)
    assert check_embedded(mesh) is None


def test_determinism():
    a_mesh, a = spanning_surface_r3(gen_torus_stick(4), seed=5)
    b_mesh, b = spanning_surface_r3(gen_torus_stick(4), seed=5)
    assert a == b
    assert [a_mesh.triangle_points(t) for t in range(len(a_mesh.triangles))] \
        == [b_mesh.triangle_points(t) for t in range(len(b_mesh.triangles))]


def test_build_clears_each_vertex_once(monkeypatch):
    # the builder lifts each node's form straight to its R^3 form once
    # and pools that form for every triangle corner it makes: no vertex
    # is cleared, and each vertex's form is made once
    import plspan.mesh as mesh_mod
    import plspan.seifert as seifert_mod
    cleared, pooled = [], []
    homogeneous = mesh_mod.homogeneous
    monkeypatch.setattr(mesh_mod, "homogeneous",
                        lambda p: cleared.append(p) or homogeneous(p))
    add_form = mesh_mod.TriMesh._add_form
    monkeypatch.setattr(mesh_mod.TriMesh, "_add_form",
                        lambda self, h: pooled.append(h)
                        or add_form(self, h))
    built = []
    certify = seifert_mod.certify

    def certify_spy(mesh, poly):
        built.append((len(cleared), len({id(h) for h in pooled}),
                      len(mesh.hom)))
        return certify(mesh, poly)

    monkeypatch.setattr(seifert_mod, "certify", certify_spy)
    mesh, _ = spanning_surface_r3(gen_torus_stick(5))
    assert built == [(0, len(mesh.hom), len(mesh.hom))]


def test_provenance_counts():
    mesh, rep = spanning_surface_r3(gen_torus_stick(3))
    kinds = [tag.split()[0] for tag in mesh.provenance]
    assert kinds.count("bowl") == rep["bowls"]
    assert kinds.count("wall") == rep["walls"]
    assert kinds.count("bowtie") == rep["bowties"]
    assert rep["bowls"] + rep["walls"] + rep["bowties"] == rep["triangles"]


def test_rejects_high_dimension():
    from plspan.geom import Point
    verts = [Point((0, 0, 0, 0)), Point((1, 0, 0, 1)), Point((0, 1, 1, 0))]
    with pytest.raises(ValueError):
        spanning_surface_r3(ClosedPolygon(verts))


# ---------------------------------------------------------------------------
# integer contact tests against their rational oracles

def _rational_contact(pa, pb, pc, pd, allowed):
    """Contact of two closed planar segments decided on the rationals:
    clear when empty or a single point listed in allowed."""
    lo = [max(min(pa[i], pb[i]), min(pc[i], pd[i])) for i in (0, 1)]
    hi = [min(max(pa[i], pb[i]), max(pc[i], pd[i])) for i in (0, 1)]
    if lo[0] > hi[0] or lo[1] > hi[1]:
        return True
    hit = seg_intersect_2d(pa, pb, pc, pd)
    return hit.kind == "empty" or (hit.kind == "point"
                                   and hit.point in allowed)


def _marks_valid_oracle(nodes, quads):
    """_marks_valid with every contact decided by seg_intersect_2d."""
    n_nodes = len(nodes)
    segs = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    pos = [point_of(nd.pos) for nd in nodes]
    qedges = []
    for x, q in enumerate(quads):
        ring = (q["in_over"], q["in_under"], q["out_over"], q["out_under"],
                q["in_over"])
        if len({pos[idx].coords for idx in ring}) != 4:
            return False
        qedges += [(x, a, b) for a, b in zip(ring, ring[1:])]
    for x, a, b in qedges:
        for u, v in segs:
            allowed = [pos[k] for k in (a, b) if k in (u, v)]
            if not _rational_contact(pos[a], pos[b], pos[u], pos[v],
                                     allowed):
                return False
    for i, (xi, a, b) in enumerate(qedges):
        for xj, c, d in qedges[i + 1:]:
            allowed = [pos[k] for k in {a, b} & {c, d}] if xi == xj else []
            if not _rational_contact(pos[a], pos[b], pos[c], pos[d],
                                     allowed):
                return False
    return True


def _circuits_disjoint_oracle(nodes, circuits):
    pos = [point_of(nd.pos) for nd in nodes]
    edges = [(c[e], c[(e + 1) % len(c)]) for c in circuits
             for e in range(len(c))]
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            allowed = [pos[k] for k in {a, b} & {c, d}]
            if not _rational_contact(pos[a], pos[b], pos[c], pos[d],
                                     allowed):
                return False
    return True


def _grid_nodes(rng, count):
    return [SimpleNamespace(pos=homogeneous(Point([rng.randint(0, 4),
                                                   Rat(rng.randint(0, 8),
                                                       2)])))
            for _ in range(count)]


def test_marks_valid_integer_contacts_match_rational_oracle(monkeypatch):
    # real placements at offset factors from safe to far too large, and
    # grid placements full of collinear and touching sides; the corpus
    # must reach both verdicts and collinear sides
    import plspan.geom as geom_mod
    cases = []
    polys = [gen_torus_stick(3), gen_twist_writhe(1)]
    polys += [gen_random(n, 3, seed=s) for n, s in ((6, 1), (7, 3), (8, 5))]
    for poly in polys:
        dia = project_polygon(poly)
        for factor in (Rat(1, 4), Rat(1, 2), Rat(3, 4), Rat(15, 16)):
            cases.append(_place_marks(dia, factor))
    rng = random.Random(1979)
    sides = ("in_over", "in_under", "out_over", "out_under")
    for _ in range(150):
        nodes = _grid_nodes(rng, rng.randint(6, 12))
        quads = [dict(zip(sides, rng.sample(range(len(nodes)), 4)))
                 for _ in range(rng.randint(1, 2))]
        cases.append((nodes, quads))
    collinear = []
    cmp = geom_mod._coord_cmp
    monkeypatch.setattr(geom_mod, "_coord_cmp",
                        lambda *args: collinear.append(1) or cmp(*args))
    verdicts = set()
    for k, (nodes, quads) in enumerate(cases):
        want = _marks_valid_oracle(nodes, quads)
        marked = MarkedDiagram(None, nodes, quads, None)
        assert _marks_valid(marked) == want, k
        verdicts.add(want)
    assert verdicts == {True, False}
    assert collinear


def test_marks_valid_sweeps_no_walk_pair(monkeypatch):
    # quad sides come first and walk segments second; the sweep is asked
    # for no pair of two walk segments, and a diagram without crossings,
    # which has no quad sides, asks for no pair at all
    import plspan.seifert as seifert_mod
    swept = []
    sweep = seifert_mod.overlapping_pairs

    def spy(boxes, split=None):
        pairs = sweep(boxes, split=split)
        swept.append((split, len(boxes), pairs))
        return pairs

    monkeypatch.setattr(seifert_mod, "overlapping_pairs", spy)
    for poly in (gen_planar_ngon(5, dim=3), gen_torus_stick(4),
                 gen_twist_writhe(2)):
        dia = project_polygon(poly)
        for factor in (Rat(1, 4), Rat(15, 16)):
            nodes, quads = _place_marks(dia, factor)
            swept.clear()
            marked = MarkedDiagram(dia, nodes, quads, factor)
            assert _marks_valid(marked) == _marks_valid_oracle(nodes, quads)
            for split, count, pairs in swept:
                assert split == 4 * len(quads) and count == split + len(nodes)
                assert all(i < split for i, _ in pairs)
            if not quads:
                assert swept == [(0, len(nodes), [])]


def test_smoothed_circuits_are_disjoint():
    # smooth relies on the proper diagram and _marks_valid to keep the
    # circuits apart; every pair of circuit edges is decided here by
    # seg_intersect_2d, under both rules
    corpus = [gen_torus_stick(m) for m in range(3, 7)]
    corpus += [gen_twist_writhe(m) for m in range(1, 4)]
    corpus += [gen_random(n, 3, seed=s) for n in range(6, 13)
               for s in range(5)]
    crossings = 0
    for poly in corpus:
        marked = insert_interior_vertices(project_polygon(poly))
        crossings += len(marked.quads)
        for rule in ("orientation", "white-edge"):
            g = smooth(marked, rule)
            assert _circuits_disjoint_oracle(marked.nodes, g.circuits), \
                (poly, rule)
    assert crossings > 100


def test_place_marks_keeps_the_walk_stops():
    # corners and passages are the walk's own stop objects, in walk
    # order; each crossing gets four marks, one per strand end, each
    # strictly between its passage and the neighbouring stop.  Every
    # node's shadow is its point on the polygon sheared, under the
    # identity and under a forced shear.
    sheared = 0
    for poly in (gen_planar_ngon(5, dim=3), gen_torus_stick(4),
                 gen_twist_writhe(2), gen_random(9, 3, seed=3),
                 _moved_vertex(7, 0)):
        dia = project_polygon(poly)
        sheared += any(dia.slopes)
        for factor in (Rat(1, 4), Rat(1, 16)):
            nodes, quads = _place_marks(dia, factor)
            stops = [nd for nd in nodes if nd.kind != "mark"]
            assert len(stops) == len(dia.walk)
            assert all(a is b for a, b in zip(stops, dia.walk))
            assert len(nodes) == len(dia.walk) + 4 * len(dia.crossings)
            marks = set()
            for x, q in enumerate(quads):
                assert set(q) == {"in_over", "out_over", "in_under",
                                  "out_under"}
                for side, idx in q.items():
                    nd = nodes[idx]
                    assert (nd.kind, nd.ref, nd.role) == ("mark", x, side)
                    passage = nodes[idx + 1 if side[:2] == "in" else idx - 1]
                    assert passage.kind == "cross" and passage.ref == x
                    assert nd.edge == passage.edge
                    assert passage.role == side.split("_")[1]
                    marks.add(idx)
            assert marks == {i for i, nd in enumerate(nodes)
                             if nd.kind == "mark"}
            assert all(_shear(nd.point, dia.slopes) == nd.pos
                       for nd in nodes)
            # params rise strictly along each edge, so every mark lies
            # strictly inside its edge, between the stops on either side
            params = _edge_params(poly, nodes)
            assert None not in params
            for (a, ta), (b, tb) in zip(zip(nodes, params),
                                        zip(nodes[1:], params[1:])):
                assert a.edge != b.edge or ta < tb
    assert sheared == 1


def _ray_parity_oracle(p, segs):
    """The retrying rational ray count that the half-open rule replaced:
    parity of crossings of a ray from p, whose direction is retried until
    it meets no segment end and runs along no segment."""
    budget = 2 * len(segs) + 5
    for attempt in range(budget):
        k = (attempt + 1) // 2 if attempt % 2 else -(attempt // 2)
        dx, dy = ONE, rat(k)
        count = 0
        bad = False
        for pu, pv in segs:
            rx, ry = pv[0] - pu[0], pv[1] - pu[1]
            wx, wy = pu[0] - p[0], pu[1] - p[1]
            den = rx * dy - ry * dx
            if den == 0:
                if wx * dy - wy * dx == 0:
                    # segment collinear with the ray line
                    vx, vy = pv[0] - p[0], pv[1] - p[1]
                    if wx * dx + wy * dy >= 0 or vx * dx + vy * dy >= 0:
                        bad = True
                        break
                continue
            t = (rx * wy - ry * wx) / den
            s = (dx * wy - dy * wx) / den
            if t == 0 and 0 <= s <= 1:
                raise ValueError("ray origin lies on a segment")
            if t > 0:
                if s == 0 or s == 1:
                    bad = True
                    break
                if 0 < s < 1:
                    count += 1
        if not bad:
            return count % 2
    raise AssertionError("no clean ray direction found")


def test_ray_parity_half_open_rule_matches_retrying_oracle():
    # grid polygons in random order: self-intersecting, with collinear
    # runs, repeated vertices and vertices at the query's height; some
    # queries see two polygons at once.  Queries on a segment are left
    # out, as the callers' certificates guarantee.
    rng = random.Random(2001)

    def grid_polygon():
        return [Point([rng.randint(0, 4), Rat(rng.randint(0, 8), 2)])
                for _ in range(rng.randint(3, 9))]

    def edges(poly):
        return list(zip(poly, poly[1:] + poly[:1]))

    parities, at_vertex_height = set(), 0
    for _ in range(400):
        segs = edges(grid_polygon())
        if rng.random() < 0.3:
            segs += edges(grid_polygon())
        ys = [u[1] for u, _ in segs]
        y = rng.choice(ys) if rng.random() < 0.5 else Rat(rng.randint(0, 16), 4)
        p = Point([Rat(rng.randint(-2, 18), 4), y])
        if any(point_on_segment(p, u, v) for u, v in segs):
            continue
        want = _ray_parity_oracle(p, segs)
        hsegs = [(homogeneous(u), homogeneous(v)) for u, v in segs]
        assert _ray_parity(homogeneous(p), hsegs) == want, (p, segs)
        parities.add(want)
        at_vertex_height += y in ys
    assert parities == {0, 1} and at_vertex_height > 50
    # an edge through p that crosses its height is caught
    square = edges([Point([0, 0]), Point([2, 0]), Point([2, 2]),
                    Point([0, 2])])
    with pytest.raises(ValueError):
        _ray_parity(homogeneous(Point([2, 1])),
                    [(homogeneous(u), homogeneous(v)) for u, v in square])


def test_count_identity_raises_under_python_O():
    # build_surface's count identities are explicit raises: with one bowl
    # triangle dropped, python -O still stops at bowls = sum|C| - 2s
    code = """
import plspan.geom as geom
import plspan.seifert as seifert
from plspan.mesh import CertificateError
from plspan.polygon import gen_torus_stick
assert False, "asserts run"
seifert.earclip_2d = lambda pts: geom.earclip_2d(pts)[1:]
try:
    seifert.spanning_surface_r3(gen_torus_stick(3))
except CertificateError as exc:
    print("raised:", exc)
"""
    src = str(Path(plspan.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "raised: seifert: bowls != sum|C| - 2s"
