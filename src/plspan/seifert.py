"""Spanning surface construction in R^3 via circuit smoothing.

Pipeline: project the polygon to a proper diagram, split every crossing
open by placing four vertices around it, reconnect the strands so the
shadow falls apart into disjoint simple circuits, rank the circuits by
containment depth, then span: one triangulated disk per circuit pushed
below the polygon, two wall triangles from each circuit edge up to the
polygon, vertical in the shadow, and two bridge triangles per crossing
joining the strands where they swap, in the polygon's own frame.  All
geometry runs on canonical integer forms: each walk stop carries its
point on the polygon as an R^3 form beside its shadow's, each mark's
forms are cut from its neighbours' forms, the tops of the walls are
those points, and the low points are shadows lifted by geom._lift, the
projection's shear undone.  Every structural claim the construction
relies on is certified once, by mesh.certify, on the finished mesh.
"""

from __future__ import annotations

from .diagram import WalkNode, project_polygon
from .geom import (
    ONE,
    Rat,
    _between,
    _lift,
    earclip_2d,
    key_boxes,
    orient2d_h,
    overlapping_pairs,
    seg_pair_clear_h,
)
from .mesh import TriMesh, _require, certify
from .polygon import ClosedPolygon

# halvings of the mark offset fraction before insert_interior_vertices
# gives up
SHRINK_BUDGET = 40


class MarkedDiagram:
    """Diagram refined with four extra vertices around every crossing.

    nodes lists the diagram walk's own stops in cyclic order, corners
    (kind 'vertex') and passages (kind 'cross'), with a WalkNode of kind
    'mark' just before and just after each passage, its role naming the
    strand end ('in_over', ...); quads maps each crossing to its four
    mark node indices by side.  factor is the offset fraction of the
    placement: each mark sits at factor times the parameter distance
    from its crossing to the nearest other stop on the same edge.  hom
    holds each node's planar integer form, its pos; every reader takes
    those.
    """

    __slots__ = ("diagram", "nodes", "quads", "factor", "hom")

    def __init__(self, diagram, nodes, quads, factor):
        self.diagram = diagram
        self.nodes = nodes
        self.quads = quads
        self.factor = factor
        self.hom = [nd.pos for nd in nodes]

    def quad_edges(self, x: int) -> list[tuple[int, int]]:
        """The four mixed-strand vertex pairs around crossing x, in
        cyclic order; these are the sides of a convex quadrilateral."""
        q = self.quads[x]
        return [(q["in_over"], q["in_under"]),
                (q["in_under"], q["out_over"]),
                (q["out_over"], q["out_under"]),
                (q["out_under"], q["in_over"])]


def insert_interior_vertices(diagram) -> MarkedDiagram:
    """Place four vertices around every crossing of the diagram.

    The marks cut each strand just before and just after its passage.
    A placement is accepted only if each side of every crossing
    quadrilateral touches the refined walk exactly at its own two
    endpoints and meets no other quadrilateral; the offset fraction,
    1/4 at first, is halved until that holds.
    """
    factor = Rat(1, 4)
    for _ in range(SHRINK_BUDGET):
        marked = MarkedDiagram(diagram, *_place_marks(diagram, factor),
                               factor)
        if _marks_valid(marked):
            return marked
        factor = factor / 2
    raise AssertionError(
        "could not isolate crossings within %d shrink steps" % SHRINK_BUDGET)


def _place_marks(diagram, factor):
    walk = diagram.walk
    n_walk = len(walk)
    nodes: list[WalkNode] = []
    quads: list[dict] = [dict() for _ in diagram.crossings]
    p, q = factor.numerator, factor.denominator

    def mark(stop, near, side):
        # factor of the way from stop to the stop near, in the shadow
        # and on the polygon alike, as the shear is linear
        quads[stop.ref][side] = len(nodes)
        nodes.append(WalkNode("mark", stop.ref, side, stop.edge,
                              _between(stop.pos, near.pos, p, q),
                              _between(stop.point, near.point, p, q)))

    for w, stop in enumerate(walk):
        if stop.kind == "vertex":
            nodes.append(stop)
            continue
        # the walk opens each edge with its corner, so both neighbours of
        # a passage lie on its edge: a stop on the same edge, or the
        # corner at either end of it
        mark(stop, walk[w - 1], "in_" + stop.role)
        nodes.append(stop)
        mark(stop, walk[(w + 1) % n_walk], "out_" + stop.role)
    return nodes, quads


def _marks_valid(marked: MarkedDiagram) -> bool:
    hom = marked.hom
    sides = []
    for x, q in enumerate(marked.quads):
        ring = (q["in_over"], q["in_under"], q["out_over"], q["out_under"],
                q["in_over"])
        if len({hom[idx] for idx in ring}) != 4:
            return False
        sides += [(x, a, b) for a, b in zip(ring, ring[1:])]
    n_nodes = len(hom)
    walk = [(None, i, (i + 1) % n_nodes) for i in range(n_nodes)]
    segs = sides + walk
    boxes = key_boxes(hom, [(a, b) for _, a, b in segs])
    for i, j in overlapping_pairs(boxes, split=len(sides)):
        xi, a, b = segs[i]
        xj, c, d = segs[j]
        # a quad side may touch the walk only at its own endpoints, and
        # sides of one quad meet only at their common corner; sides of
        # different quads not at all
        touch = xj is None or xi == xj
        if not seg_pair_clear_h(hom, a, b, c, d, allow_shared=touch):
            return False
    return True


class SmoothedGraph:
    """Result of cutting the crossings open and reconnecting strands.

    circuits are vertex-disjoint simple cycles (node index lists in
    cyclic order) that together visit every corner and every mark.
    whites maps each crossing to the two vertex pairs joined there.
    """

    __slots__ = ("marked", "circuits", "whites")

    def __init__(self, marked, circuits, whites):
        self.marked = marked
        self.circuits = circuits
        self.whites = whites


def _ray_parity(p, segs) -> int:
    """Parity of the crossings of a ray from p with closed polygons.

    p and the segment ends are homogeneous planar points, and segs must
    close up into cycles.  The rightward horizontal ray is counted by
    the half-open rule (Hormann & Agathos, CGTA 2001): a segment counts
    when exactly one end lies strictly above p and one orientation sign
    puts its crossing of p's height right of p.  For closed polygons
    this is the parity every generic ray from p sees.  p must lie off
    the segments; a segment through p that crosses its height raises.
    """
    count = 0
    for u, v in segs:
        v_above = v[1] * p[2] > p[1] * v[2]
        if (u[1] * p[2] > p[1] * u[2]) == v_above:
            continue
        turn = orient2d_h(u, v, p)
        if turn == 0:
            raise ValueError("ray origin lies on a segment")
        count += (turn > 0) == v_above
    return count % 2


def quad_edge_colors(marked: MarkedDiagram, x: int) -> list[int]:
    """Checkerboard color of the face each quad side of crossing x lies
    in: 0 for white (the unbounded face's color), 1 for black.  The
    first side's is the ray parity of its midpoint against the shadow
    (the corner nodes' forms in walk order); the rest alternate, since
    _marks_valid keeps the walk off the quad sides but at their ends, so
    in the quad the shadow is the two strands through x, its diagonals,
    and a path from one side's midpoint to the next crosses it once."""
    hom = marked.hom
    shadow = [h for nd, h in zip(marked.nodes, hom) if nd.kind == "vertex"]
    a, b = marked.quad_edges(x)[0]
    c = _ray_parity(_between(hom[a], hom[b], 1, 2),
                    list(zip(shadow, shadow[1:] + shadow[:1])))
    return [c, 1 - c, c, 1 - c]


SMOOTHING_RULES = ("orientation", "white-edge")


def smooth(marked: MarkedDiagram, rule: str = "orientation") -> SmoothedGraph:
    """Delete the passages and reconnect the four marks at each crossing.

    rule 'orientation' joins each incoming strand end to the outgoing
    end of the other strand, which keeps every circuit coherently
    directed.  rule 'white-edge' instead joins the two quadrilateral
    sides lying in white faces of the checkerboard coloring; the two
    rules agree at a crossing exactly when those sides are the
    direction-respecting ones.

    The circuits are disjoint simple cycles by construction.  Every node
    but a passage has two neighbours: a corner its walk neighbours, a
    mark its walk neighbour off the passage and its partner in the white
    pair holding it, as the two pairs split the quad.  A circuit edge is
    a walk segment that touches no passage, or a quad side.  Marks lie
    strictly between consecutive stops (factor <= 1/4), so the proper
    diagram keeps those walk segments apart except at shared nodes, and
    _marks_valid cleared every quad side against every walk segment and
    every other quad side.
    """
    if rule not in SMOOTHING_RULES:
        raise ValueError("unknown smoothing rule %r" % rule)
    nodes = marked.nodes
    n_nodes = len(nodes)
    adj: dict[int, list[int]] = {i: [] for i in range(n_nodes)
                                 if nodes[i].kind != "cross"}
    for i in range(n_nodes):
        j = (i + 1) % n_nodes
        if nodes[i].kind == "cross" or nodes[j].kind == "cross":
            continue
        adj[i].append(j)
        adj[j].append(i)
    whites: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for x, q in enumerate(marked.quads):
        if rule == "orientation":
            pair = ((q["in_over"], q["out_under"]),
                    (q["in_under"], q["out_over"]))
        else:
            sides = marked.quad_edges(x)
            colors = quad_edge_colors(marked, x)
            pair = tuple(sides[i] for i in range(4) if colors[i] == 0)
        for a, b in pair:
            adj[a].append(b)
            adj[b].append(a)
        whites.append(pair)
    circuits = []
    seen = set()
    for start in adj:
        if start in seen:
            continue
        circ = [start]
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            circ.append(cur)
            seen.add(cur)
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        _require(len(circ) >= 3, "circuit of length %d" % len(circ))
        circuits.append(circ)
    return SmoothedGraph(marked, circuits, whites)


def assign_levels(g: SmoothedGraph) -> list[int]:
    """Containment depth per circuit: 1 for circuits enclosing no other
    circuit, else one more than the deepest circuit inside."""
    hom = g.marked.hom
    s = len(g.circuits)
    polys = []
    for circ in g.circuits:
        hs = [hom[i] for i in circ]
        polys.append(list(zip(hs, hs[1:] + hs[:1])))
    reps = [poly[0][0] for poly in polys]
    inside = [[False] * s for _ in range(s)]
    for outer in range(s):
        for inner in range(s):
            if inner == outer:
                continue
            inside[outer][inner] = _ray_parity(reps[inner],
                                               polys[outer]) == 1
    levels = [0] * s
    order = sorted(range(s), key=lambda c: sum(inside[c]))
    for c in order:
        deepest = 0
        for d in range(s):
            if inside[c][d]:
                _require(levels[d] > 0, "levels: inner circuit ranked late")
                deepest = max(deepest, levels[d])
        levels[c] = deepest + 1
    n = len(g.marked.diagram.shadow)
    _require(max(levels) <= n, "levels: depth exceeds n")
    return levels


def _add_wall(mesh, a, b, low, top, tag) -> None:
    """Two triangles on the quadrilateral low(a) low(b) top(b) top(a),
    the wall over the base edge low(a) low(b); low and top give pool
    indices (TriMesh.pooler).  The diagonal runs from the top over the
    lexicographically smaller base vertex (forms cross-multiplied by the
    weights) to the other base vertex."""
    la, lb = low(a), low(b)
    ha, hb = mesh.hom[la], mesh.hom[lb]
    if [c * hb[-1] for c in ha[:-1]] <= [c * ha[-1] for c in hb[:-1]]:
        mesh.add_triangle_indices(la, lb, top(a), tag)
        mesh.add_triangle_indices(lb, top(b), top(a), tag)
    else:
        mesh.add_triangle_indices(la, lb, top(b), tag)
        mesh.add_triangle_indices(la, top(b), top(a), tag)


def build_surface(g: SmoothedGraph, levels: list[int]):
    """Assemble the spanning mesh in the polygon's own frame.

    Each circuit node's top is its point on the polygon; on a circuit
    at depth k its low point is its shadow lifted (geom._lift) to height
    floor - k, floor lying one below the polygon.  Per circuit: its disk
    triangulated through the low points, and two wall triangles per
    circuit edge up to the tops (_add_wall).  Per crossing: two bridge
    triangles joining the tops of the reconnection segments across the
    strand swap.  Returns (mesh, trace) where trace records the piece
    counts and euler = s - c, the Euler characteristic that
    spanning_surface_r3 requires of the certified mesh.
    """
    marked = g.marked
    dia = marked.diagram
    mesh = TriMesh(3)
    floor = min(Rat(h[2], h[3]) for h in dia.polygon.hom) - ONE
    fn, fd = floor.numerator, floor.denominator
    # every corner and mark lies on exactly one circuit
    lows = {}
    for circ, k in zip(g.circuits, levels):
        for i in circ:
            lows[i] = _lift(marked.hom[i], fn - k * fd, fd, dia.slopes)
    top = mesh.pooler([nd.point for nd in marked.nodes])
    low = mesh.pooler(lows)

    bowls = walls = 0
    for ci, circ in enumerate(g.circuits):
        for a, b, c in earclip_2d([marked.hom[i] for i in circ]):
            mesh.add_triangle_indices(low(circ[a]), low(circ[b]),
                                      low(circ[c]), "bowl %d" % ci)
            bowls += 1
        m = len(circ)
        for e in range(m):
            _add_wall(mesh, circ[e], circ[(e + 1) % m], low, top,
                      "wall %d %d" % (ci, e))
            walls += 2
    bowties = 0
    for x, q in enumerate(marked.quads):
        partner = {}
        for a, b in g.whites[x]:
            partner[a] = b
            partner[b] = a
        x1, x2 = top(q["in_over"]), top(partner[q["in_over"]])
        y1, y2 = top(q["out_over"]), top(partner[q["out_over"]])
        mesh.add_triangle_indices(x1, x2, y1, "bowtie %d" % x)
        mesh.add_triangle_indices(x2, y1, y2, "bowtie %d" % x)
        bowties += 2
    s = len(g.circuits)
    c = len(marked.quads)
    total_len = sum(len(circ) for circ in g.circuits)
    t = len(mesh.triangles)
    _require(bowls == total_len - 2 * s, "seifert: bowls != sum|C| - 2s")
    _require(walls == 2 * total_len, "seifert: walls != 2 sum|C|")
    _require(bowties == 2 * c, "seifert: bowties != 2c")
    _require(t == bowls + walls + bowties,
             "seifert: t != bowls + walls + bowties")
    n = len(dia.shadow)
    _require(total_len == n + 4 * c, "seifert: sum|C| != n + 4c")
    _require(t <= 3 * n + 14 * c <= 7 * n * n,
             "seifert: t = %d exceeds 3n + 14c or 7n^2" % t)
    trace = {
        "circuits": s,
        "circuit_sizes": [len(circ) for circ in g.circuits],
        "levels": list(levels),
        "crossings": c,
        "bowls": bowls,
        "walls": walls,
        "bowties": bowties,
        "triangles": t,
        "euler": s - c,
    }
    return mesh, trace


def spanning_surface_r3(poly: ClosedPolygon, seed: int = 0,
                        rule: str = "orientation"):
    """Build and certify a triangulated surface spanning poly.

    poly must live in R^3 (planar input is lifted to z = 0 first).  The
    mesh is assembled in poly's own frame, so its boundary is a
    subdivision of poly itself.
    mesh.certify derives every certificate once, on the returned mesh;
    rule 'orientation' also requires it to be orientable.  Returns (mesh,
    report), the certificate under report['cert'].  Raises
    CertificateError when a certificate fails.
    """
    if poly.dim == 2:
        poly = ClosedPolygon([(x, y, 0, w) for x, y, w in poly.hom])
    mesh, report = _construct_r3(poly, seed, rule)
    cert = certify(mesh, poly)
    _require(cert["failure"] is None, cert["failure"])
    _require(rule != "orientation" or cert["census"]["orientable"],
             "orientation-smoothed surface not orientable")
    _require(cert["census"]["chi"] == report["euler"],
             "seifert: chi != s - c")
    report.update(cert["census"], embedded=True, cert=cert)
    return mesh, report


def _construct_r3(poly: ClosedPolygon, seed: int, rule: str):
    """The construction half of spanning_surface_r3: the uncertified mesh
    in poly's frame, and the report of its piece counts."""
    dia = project_polygon(poly, seed=seed)
    # the circuits do not depend on the mark offset, so smoothing at a
    # smaller one cannot mend a failed smoothing
    g = smooth(insert_interior_vertices(dia), rule)
    levels = assign_levels(g)
    mesh, trace = build_surface(g, levels)
    report = dict(trace)
    report.update({
        "n": len(poly),
        "writhe": dia.writhe,
        "rule": rule,
        "seed": seed,
    })
    return mesh, report
