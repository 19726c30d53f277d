"""Triangle meshes with exact coordinates.

A TriMesh is a vertex pool plus index triples.  Vertices are pooled by
their canonical integer forms (geom.homogeneous), kept in mesh.hom and
read by every certificate, so two triangles touch in the mesh sense iff
they share pool indices.  The builders pool each form on its first use
(TriMesh.pooler) and append triangles by index; mesh.vertices is a view
that makes a vertex's Point from its form on first read.  read_off
parses each vertex line straight to its form, and write_off prints each
coordinate from it.
Validation, Euler characteristic, orientability, boundary extraction
and the embeddedness check all live here, the first four reading one
edge incidence kept as triangles are added, and certify runs each of
them once on a finished surface.  check_embedded decides each candidate
pair of the sweep from its triangles' integer plane functionals;
_hull_contact_clean, the simplex pair test in the vertices' affine
hull, is shared with the polygon check and the immersed certificate.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd
from operator import mul
from typing import Optional

from .geom import (
    Point,
    _bareiss,
    _form,
    _lead_minor,
    _plane_3d,
    _point,
    _ratio,
    _tri_pair_meets_3d,
    homogeneous,
    independent,
    int_nullspace,
    key_boxes,
    orient2d_h,
    overlapping_pairs,
    sign,
    simplex_intersect,
)


class CertificateError(AssertionError):
    """A certificate of a finished surface, or a count identity or bound
    it rests on, does not hold.  Raised explicitly, so it survives
    python -O; an AssertionError, so the builders' retry loops and the
    CLI catch it."""


def _require(holds: bool, what: str) -> None:
    """Raise CertificateError(what) unless holds: for count identities,
    bounds and certificates that must not be stripped by python -O."""
    if not holds:
        raise CertificateError(what)


# endings of validate_manifold's problems for a triangle of affine rank < 2
FLAT_PROBLEMS = ("repeats a vertex", "is degenerate")


def _add_sides(sides, t, tri) -> None:
    """Record triangle t = (i, j, k) in the edge incidence sides: each
    edge (min, max) -> [(triangle, +1 when it runs min -> max, else -1)]."""
    i, j, k = tri
    for a, b in ((i, j), (j, k), (k, i)):
        sides.setdefault((min(a, b), max(a, b)), []).append(
            (t, 1 if a < b else -1))


def _count_components(nodes, links) -> int:
    """Classes of nodes under the pairs in links, by union-find."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in parent})


class TriMesh:
    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("mesh dimension must be at least 2")
        self.dim = dim
        # the canonical integer form of each vertex, the pool key, read
        # by every certificate; the Points are a view made on demand
        self.hom: list[tuple] = []
        self._points: list[Point] = []
        self.triangles: list[tuple[int, int, int]] = []
        self.provenance: list[str] = []
        self._pool: dict[tuple, int] = {}
        # the edge incidence every census and validate_manifold read,
        # kept up to date as triangles are added
        self._sides: dict[tuple[int, int], list[tuple[int, int]]] = {}

    # -- construction -----------------------------------------------------

    @property
    def vertices(self) -> list[Point]:
        """The pooled points, in pool order; each vertex gets its Point,
        made from its form, on the first read after it was pooled."""
        pts = self._points
        if len(pts) < len(self.hom):
            pts += [_point(h) for h in self.hom[len(pts):]]
        return pts

    def add_vertex(self, p: Point) -> int:
        if p.dim != self.dim:
            raise ValueError("vertex dimension mismatch")
        # the form is canonical (w minimal), so it pools like p.coords
        return self._add_form(homogeneous(p))

    def _add_form(self, h: tuple) -> int:
        """Pool index of the point with canonical form h, pooling it if
        new; its Point is made from h when vertices is read."""
        idx = self._pool.get(h)
        if idx is None:
            idx = len(self.hom)
            self.hom.append(h)
            self._pool[h] = idx
        return idx

    def pooler(self, forms):
        """A function key -> pool index of the point with canonical form
        forms[key], pooling it on its first call: a builder makes each
        form once however many triangles it corners."""
        return lambda key: self._add_form(forms[key])

    def add_triangle_indices(self, i: int, j: int, k: int, tag: str = "") -> int:
        n = len(self.hom)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError("triangle references missing vertex")
        t = len(self.triangles)
        self.triangles.append((i, j, k))
        self.provenance.append(tag)
        _add_sides(self._sides, t, (i, j, k))
        return t

    def triangle_points(self, t: int) -> tuple[Point, Point, Point]:
        i, j, k = self.triangles[t]
        return self.vertices[i], self.vertices[j], self.vertices[k]

    def transform(self, affine) -> "TriMesh":
        """Image mesh under an affine map; indices and tags carry over."""
        out = TriMesh(self.dim)
        for p in self.vertices:
            out.add_vertex(affine.apply(p))
        if len(out.vertices) != len(self.vertices):
            raise ValueError("map identified distinct vertices")
        for (i, j, k), tag in zip(self.triangles, self.provenance):
            out.add_triangle_indices(i, j, k, tag)
        return out

    # -- census -----------------------------------------------------------

    def edge_census(self) -> dict[tuple[int, int], int]:
        return {e: len(sides) for e, sides in self._sides.items()}

    def boundary_edges(self) -> list[tuple[int, int]]:
        return sorted(e for e, sides in self._sides.items() if len(sides) == 1)

    def euler_characteristic(self) -> int:
        # every vertex of a triangle ends one of its edges
        used = {v for e in self._sides for v in e}
        return len(used) - len(self._sides) + len(self.triangles)

    def validate_manifold(self) -> list[str]:
        """Structural checks; returns a list of problems (empty = good).

        Conditions: every triangle affinely nondegenerate, no repeated
        vertex inside a triangle, no duplicate triangles, and every edge
        in one or two triangles, read off the edge incidence.  Indices
        are valid already: add_triangle_indices refuses any other.  A
        triangle of affine rank < 2 gets a problem ending in one of
        FLAT_PROBLEMS: all 3x3 minors of its forms vanish, in R^3 the
        entries of _plane_3d.  Elsewhere geom.independent asks one of
        them before any elimination.
        """
        problems = []
        hom = self.hom
        seen = set()
        for t, (i, j, k) in enumerate(self.triangles):
            if len({i, j, k}) < 3:
                problems.append("triangle %d repeats a vertex" % t)
                continue
            key = frozenset((i, j, k))
            if key in seen:
                problems.append("triangle %d duplicates another" % t)
            seen.add(key)
            forms = [hom[i], hom[j], hom[k]]
            if not (any(_plane_3d(*forms)) if self.dim == 3
                    else independent(forms)):
                problems.append("triangle %d is degenerate" % t)
        for e, sides in self._sides.items():
            if len(sides) > 2:
                problems.append("edge %s lies in %d triangles"
                                % (e, len(sides)))
        return problems

    # -- topology ---------------------------------------------------------

    def connected_components(self) -> int:
        """Components of the triangle adjacency graph (shared edges)."""
        return _count_components(
            range(len(self.triangles)),
            ((sides[0][0], t) for sides in self._sides.values()
             for t, _ in sides[1:]))

    def boundary_components(self) -> int:
        """Count cycles formed by the multiplicity-1 edges."""
        edges = self.boundary_edges()
        return _count_components({v for e in edges for v in e}, edges)

    def orientation_propagate(self):
        """Try to orient all triangles consistently.

        Returns (True, orientations) with orientations[t] in {+1, -1}
        meaning keep or flip the stored vertex order, or (False, cycle)
        where cycle is a list of triangle indices forming a closed chain
        that cannot be oriented.
        """
        nt = len(self.triangles)
        adj: dict[int, list[tuple[int, int]]] = {t: [] for t in range(nt)}
        for sides in self._sides.values():
            if len(sides) == 2:
                (t1, d1), (t2, d2) = sides
                # consistent orientation wants opposite traversal
                rel = -d1 * d2  # +1 when already opposite
                adj[t1].append((t2, rel))
                adj[t2].append((t1, rel))
        orient = [0] * nt
        parent_edge: dict[int, int] = {}
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
                        # conflict: walk both tree paths to the root
                        def path_to_root(x):
                            out = [x]
                            while x in parent_edge:
                                x = parent_edge[x]
                                out.append(x)
                            return out
                        pa = path_to_root(t)
                        pb = path_to_root(u)
                        sa, sb = set(pa), set(pb)
                        meet = next(x for x in pa if x in sb)
                        cyc = pa[:pa.index(meet) + 1]
                        cyc += list(reversed(pb[:pb.index(meet)]))
                        return (False, cyc)
        return (True, orient)

    def genus(self) -> int:
        """Genus of a connected orientable mesh, boundary allowed."""
        if not self.triangles:
            raise ValueError("empty mesh has no genus")
        if self.connected_components() != 1:
            raise ValueError("genus needs a connected mesh")
        ok, _ = self.orientation_propagate()
        if not ok:
            raise ValueError("mesh is not orientable")
        chi = self.euler_characteristic()
        b = self.boundary_components()
        g2 = 2 - chi - b
        if g2 < 0 or g2 % 2 != 0:
            raise ValueError("inconsistent genus data (chi=%d, b=%d)" % (chi, b))
        return g2 // 2


# ---------------------------------------------------------------------------
# embeddedness

class EmbeddingViolation:
    """Two triangles meeting away from their shared face."""

    __slots__ = ("tri_a", "tri_b", "point")

    def __init__(self, tri_a: int, tri_b: int, point: Point):
        self.tri_a = tri_a
        self.tri_b = tri_b
        self.point = point

    def __repr__(self):
        return "EmbeddingViolation(%d, %d, %r)" % (self.tri_a, self.tri_b,
                                                   self.point)


def _tri_planes(hom, tri) -> list[tuple]:
    """d - 2 integer functionals h vanishing on the triangle's plane, in
    R^3 _plane_3d, in R^2 none when geom.independent says so; a
    degenerate triangle gets some other number."""
    hs = [hom[v] for v in tri]
    if len(hs[0]) == 4:
        h = _plane_3d(*hs)
        return [h] if any(h) else []
    if len(hs[0]) == 3 and independent(hs):
        return []
    return int_nullspace(hs)


def _row_separates(rows) -> bool:
    return any(min(row) > 0 or max(row) < 0 for row in rows)


def _plane_axes(planes, dim) -> list[int]:
    """The two axes onto which the plane cut out by the functionals
    planes projects injectively: the columns that are not pivots of
    their echelon form, which fixes the pivot coordinates from the
    others.  The weight column is never a pivot, as every point has
    w > 0."""
    pivots = _bareiss(planes)[1]
    return [i for i in range(dim) if i not in pivots]


def _coplanar_contact_clean(hom, axes, tri_a, tri_b, shared) -> bool:
    """Exact contact classification for a coplanar triangle pair.

    True when the triangles meet in nothing beyond the face spanned by
    their shared vertices.  Decided from orientation signs of the
    homogeneous vertices projected onto axes, two axes on which their
    common plane projects injectively.

    The signs come edge by edge, a's edges and then b's, each against
    the other triangle's vertices.  The first edge whose line has every
    vertex of the other triangle, but for the edge's own ends, strictly
    outside clears the pair: they meet at most in those ends, which are
    shared.  Without such an edge, the pair

    - sharing nothing meets: were a and b disjoint, max n.a < min n.b
      for n the outer normal of an edge of a - b (Minkowski) with the
      origin outside; that edge is an edge of a facing n, or of b facing
      -n, plus a point, and its line separates.
    - sharing an edge is not clean: clean, its free vertices lie
      strictly on opposite sides of the edge, whose line separates.
    - sharing one vertex w is clean iff b's free vertices lie weakly
      outside a's two edge lines through w, in the angle opposite a's,
      which meets a's in w alone, a's being below pi.  Conversely, a
      clean pair's angles at w meet in w alone: arcs alpha and beta of
      directions with gaps g and h.  a's edge line at the end of alpha
      facing g has b strictly outside iff g + beta < pi; the other
      three need h + beta, g + alpha or h + alpha below pi.  First and
      last sum to 2 pi, as do the middle two, so all four fail only at
      pi each: then b's angle is a's turned by pi (a bowtie), and b's
      free vertices lie on a's lines.
    """
    i, j = axes
    ha = [(hom[v][i], hom[v][j], hom[v][-1]) for v in tri_a]
    hb = [(hom[v][i], hom[v][j], hom[v][-1]) for v in tri_b]
    # side_a[e][k]: vertex k of b against edge e of a
    side_a, turns = [], []
    for tri, hs, side, other, hs_other in ((tri_a, ha, side_a, tri_b, hb),
                                           (tri_b, hb, [], tri_a, ha)):
        turn = orient2d_h(*hs)
        turns.append(turn)
        for e in range(3):
            row = [orient2d_h(hs[e], hs[e - 2], q) for q in hs_other]
            ends = (tri[e], tri[e - 2])
            if all(x * turn < 0 or v in ends for x, v in zip(row, other)):
                return True
            side.append(row)
    if len(shared) != 1:
        return False
    # a's edges k and k - 1 run from and into the shared vertex k
    k = tri_a.index(*shared)
    return all(x * turns[0] <= 0 for x in side_a[k] + side_a[k - 1])


def _shared_edge_clean(tri_a, tri_b, plane_a, plane_b) -> bool:
    """Contact classification for two coplanar triangles of R^3 sharing
    an edge uv, from their _plane_3d vectors: True when their free
    vertices x and z lie strictly on opposite sides of uv, which makes
    the edge their whole meet.  In the plane, _plane_3d(u, v, z) is a
    positive multiple of _plane_3d(u, v, x) iff z lies on x's side
    (every form has w > 0), and swapping two rows negates it.  So with
    b running the edge against a's direction, the pair is clean iff the
    two vectors share their sign; with b running it along a's, iff
    their signs differ: the vectors are multiples of each other, so
    their first nonzero entries sit at one place."""
    oa = 0 if tri_a[0] not in tri_b else 1 if tri_a[1] not in tri_b else 2
    ob = 0 if tri_b[0] not in tri_a else 1 if tri_b[1] not in tri_a else 2
    first_a = plane_a[0] or plane_a[1] or plane_a[2] or plane_a[3]
    first_b = plane_b[0] or plane_b[1] or plane_b[2] or plane_b[3]
    return ((first_a > 0) == (first_b > 0)) == (tri_a[oa - 2] == tri_b[ob - 1])


def _relation_clean(on_a, on_b) -> bool:
    """Radon's rule for two simplices (segments or triangles) whose
    distinct vertices carry a single affine relation (Radon, Math. Ann.
    1921), given its coefficients at a's free vertices (on_a) and at b's
    (on_b); a shared vertex's coefficient is free.

    True when the simplices meet in at most their shared vertex.  A
    common point other than it, written in barycentric weights of each,
    is such a relation, with a's free coefficients of one sign and b's
    of the other; conversely such signs put a point of a's free face
    into b, or of b's into a.  So the pair meets there iff a's nonzero
    free coefficients share one sign and b's all have the opposite
    (zeros allowed).  Neither side is all zero: a relation among one
    simplex's vertices would make it degenerate.
    """
    signs_a = {sign(x) for x in on_a} - {0}
    return len(signs_a) != 1 or {-sign(x) for x in on_b} - {0} != signs_a


def _hull_contact_clean(hom, a, b, shared) -> bool:
    """Contact classification of two simplices a and b of R^d, segments
    or triangles as vertex indices into hom, with at most the one vertex
    in shared in common, inside the affine hull of their distinct ones.

    True when they meet in at most their shared vertex.  In R^3 at most
    four rows are independent iff one determinant is nonzero, the
    _plane_3d cofactors of three or their value at the fourth, which
    clears such a pair with no elimination.  In R^d, d >= 4, one
    nonzero maximal minor of up to five rows does the same
    (geom._lead_minor, the first row dotted with the geom cofactors
    _line_2d, _plane_3d or _hyperplane_4d of the others).  Else one
    forward elimination of their forms decides the rest.  Affinely
    independent vertices make both faces of one simplex, meeting in the
    face of their common vertices.  A single affine relation decides by
    its signs (_relation_clean): the one int_nullspace vector of the
    forms on the pivot columns, which keep every relation, taken as
    columns.
    Two triangles with six vertices in a 3-flat, projected onto three
    pivot axes and the weight, are decided as check_embedded decides an
    R^3 pair sharing nothing: apart when one lies strictly on one side
    of the other's plane, else by geom._tri_pair_meets_3d's two
    orientation determinants (Guigue and Devillers 2003).  False leaves
    the pair open.
    """
    rows = [hom[v] for v in a] + [hom[v] for v in b if v not in shared]
    if len(rows[0]) == 4 and len(rows) in (3, 4):
        h = _plane_3d(*rows[:3])
        if any(h) if len(rows) == 3 else sum(map(mul, h, rows[3])):
            return True
    elif _lead_minor(rows):
        return True
    ech, pivots = _bareiss(rows)[:2]
    if len(pivots) == len(rows):
        return True
    if len(pivots) == len(rows) - 1:
        (rel,) = int_nullspace([[h[c] for h in rows] for c in pivots])
        return _relation_clean(
            [x for v, x in zip(a, rel) if v not in shared], rel[len(a):])
    if len(rows) == 6 and len(pivots) == 4:
        # the weight column is a combination of the pivot columns, and
        # the last echelon row where it is nonzero marks a pivot it can
        # replace: the other three are axes injective on the 3-flat
        k = max(i for i in range(4) if ech[i][-1])
        axes = pivots[:k] + pivots[k + 1:]
        hs = [tuple(h[i] for i in axes) + (h[-1],) for h in rows]
        hs_a, hs_b = hs[:3], hs[3:]
        plane_a, plane_b = _plane_3d(*hs_a), _plane_3d(*hs_b)
        vals_ab = [sum(map(mul, plane_a, h)) for h in hs_b]
        vals_ba = [sum(map(mul, plane_b, h)) for h in hs_a]
        return _row_separates([vals_ab, vals_ba]) \
            or not _tri_pair_meets_3d(hs_a, hs_b, vals_ba, vals_ab)
    return False


def check_embedded(mesh: TriMesh) -> Optional[EmbeddingViolation]:
    """Exact pairwise embeddedness of all triangles.

    Triangles may meet only in the face spanned by their shared pool
    vertices: nothing, one vertex, or one edge.  Returns None when the
    mesh is embedded, otherwise a violation with an exact witness point.
    Raises ValueError naming the first degenerate triangle.

    Each triangle's plane is given by d - 2 integer functionals on the
    vertices' forms in mesh.hom: in R^3 the signed minors of its three
    rows (_plane_3d), in R^2 none, after one determinant, else
    int_nullspace's basis.  Candidate pairs come from the one sweep,
    geom.overlapping_pairs, over integer key boxes (geom.key_boxes)
    listed in the stable order of least x key, and are visited in that
    order.  Each pair computes only the signs that decide it, by how
    many vertices it shares; in R^3 each is a four-term integer sum:

    - an edge: the opposite vertex of b against a's functionals.  Off
      a's plane, the two planes meet in the edge's line, which each
      triangle meets in the edge alone; in it, the coplanar test decides.
    - a vertex: b's two free vertices against a's functionals, then a's
      against b's.  Both zero make the pair coplanar; both strictly on
      one side of a plane pin the other triangle to the shared vertex.
    - none: all three vertices of each against the other's functionals;
      all on one side of a plane clear the pair.

    A coplanar R^3 pair sharing an edge is decided by the signs of the
    two _plane_3d vectors (_shared_edge_clean); any other coplanar pair
    by orientation signs on the two axes that are not pivots of a's
    functionals, found once per triangle: an edge line with the other
    triangle strictly outside clears it; without one it is clean only
    if it shares one vertex and b lies in the closed angle opposite a's
    there (_coplanar_contact_clean).
    In R^3 the five vertices of a pair sharing a vertex carry one
    affine relation, whose coefficients are the plane values by
    Cramer's rule, and its signs decide the pair (_relation_clean).  A
    pair sharing nothing, in crossing planes, is decided by two
    orientation determinants (geom._tri_pair_meets_3d, after Guigue and
    Devillers, J. Graphics Tools 8(1), 2003): with each triangle turned
    so that one vertex lies alone on its side of the other's plane, one
    determinant orders the first ends of the two triangles' segments on
    the crossing line and the other their second ends.  In R^d, d >= 4,
    the rest are decided inside the affine hull of their distinct
    vertices (_hull_contact_clean): by their independence, by the signs
    of their one affine relation, or, for six vertices in a 3-flat, by
    the same two determinants.  Only pairs still standing reach the full
    simplex intersection, which decides them and builds the witness;
    every test before it is an integer sign.
    """
    hom = mesh.hom
    dim = mesh.dim
    three = dim == 3
    tris = mesh.triangles
    data = [_tri_planes(hom, tri) for tri in tris]
    flat = next((t for t, h in enumerate(data) if len(h) != dim - 2), None)
    if flat is not None:
        raise ValueError("triangle %d is degenerate" % flat)
    # each triangle's vertex set and forms, and in R^3 its one
    # functional, made once for every pair it is in
    corners = [frozenset(tri) for tri in tris]
    forms = [[hom[v] for v in tri] for tri in tris]
    plane = [h for h, in data] if three else None
    boxes = key_boxes(hom, tris)
    order = sorted(range(len(tris)), key=lambda t: boxes[t][0][0])
    axes_of: dict[int, list[int]] = {}
    for pa, pb in overlapping_pairs([boxes[t] for t in order]):
        a, b = order[pa], order[pb]
        tri_a, tri_b = tris[a], tris[b]
        shared = corners[a].intersection(tri_b)
        if len(shared) == 3:
            pts_a = mesh.triangle_points(a)
            cen = Point(sum(p[i] for p in pts_a) / 3 for i in range(dim))
            return EmbeddingViolation(a, b, cen)
        hs_b = [hom[v] for v in tri_b if v not in shared] if shared \
            else forms[b]
        # a's plane misses b, or pins it at the shared vertex; off it, a
        # shared edge leaves the planes meeting in the edge's line
        if three:
            c0, c1, c2, c3 = plane[a]
            vals_ab = [c0 * x + c1 * y + c2 * z + c3 * w
                       for x, y, z, w in hs_b]
            if min(vals_ab) > 0 or max(vals_ab) < 0:
                continue
            coplanar = not any(vals_ab)
        else:
            vals_ab = [[sum(map(mul, h, q)) for q in hs_b] for h in data[a]]
            if _row_separates(vals_ab):
                continue
            coplanar = not any(map(any, vals_ab))
        if not coplanar:
            hs_a = [hom[v] for v in tri_a if v not in shared] if shared \
                else forms[a]
            if three:
                c0, c1, c2, c3 = plane[b]
                vals_ba = [c0 * x + c1 * y + c2 * z + c3 * w
                           for x, y, z, w in hs_a]
                if min(vals_ba) > 0 or max(vals_ba) < 0:
                    continue
            else:
                vals_ba = [[sum(map(mul, h, q)) for q in hs_a]
                           for h in data[b]]
                if _row_separates(vals_ba):
                    continue
        if coplanar and three and len(shared) == 2:
            if _shared_edge_clean(tri_a, tri_b, plane[a], plane[b]):
                continue
        elif coplanar:
            axes = axes_of.get(a) or axes_of.setdefault(
                a, _plane_axes(data[a], dim))
            if _coplanar_contact_clean(hom, axes, tri_a, tri_b, shared):
                continue
        elif three and shared:
            # the five vertices' one affine relation, by Cramer's rule:
            # a's plane values at b's free vertices give b's coefficients,
            # b's at a's give a's, and the two shared positions the sign
            (s,) = shared
            flip = -1 if (tri_a.index(s) + tri_b.index(s)) % 2 else 1
            if _relation_clean((vals_ba[1], -vals_ba[0]),
                               (flip * vals_ab[1], -flip * vals_ab[0])):
                continue
        elif three:
            if not _tri_pair_meets_3d(hs_a, hs_b, vals_ba, vals_ab):
                continue
        elif _hull_contact_clean(hom, tri_a, tri_b, shared):
            continue
        allowed = [mesh.vertices[v] for v in shared]
        witness = simplex_intersect(mesh.triangle_points(a),
                                    mesh.triangle_points(b), allowed)
        if witness is not None:
            return EmbeddingViolation(a, b, witness)
    return None


# ---------------------------------------------------------------------------
# boundary against a closed polygon

def _edge_param(p, a, b):
    """Parameter t of p = a + t (b - a) as (numerator, positive
    denominator) when p lies strictly inside the segment [a, b], else
    None; the three points in homogeneous form."""
    aw = a[-1]
    # p - a and b - a, each scaled by a positive integer
    u = [x * aw - y * p[-1] for x, y in zip(p[:-1], a[:-1])]
    v = [x * aw - y * b[-1] for x, y in zip(b[:-1], a[:-1])]
    k = next((i for i, c in enumerate(v) if c), None)
    if k is None or any(u[i] * v[k] != u[k] * v[i] for i in range(len(v))):
        return None  # a point for an edge, or p off the edge's line
    num, den = u[k] * b[-1], v[k] * p[-1]
    if den < 0:
        num, den = -num, -den
    return (num, den) if 0 < num < den else None


def _boundary_places(hom, verts, phom) -> dict:
    """Where the vertices verts (indices into hom) lie on the closed
    polygon with homogeneous corners phom: vertex -> (edge, t), t its
    parameter along the edge as (numerator, positive denominator), corner
    i at (i, (0, 1)).  Vertices off the polygon are left out.

    A vertex that is not a corner is tested only against the polygon
    edges whose boxes contain it, found by the one sweep, and is placed
    on the first of them, in polygon order, whose line passes through it
    strictly inside the edge.
    """
    n = len(phom)
    corner_pool = {h: i for i, h in enumerate(phom)}
    places: dict[int, tuple[int, tuple]] = {}
    others = []
    for v in verts:
        ci = corner_pool.get(hom[v])
        if ci is None:
            others.append(v)
        else:
            places[v] = (ci, (0, 1))
    if not others:
        return places
    # the boxes of distinct points never meet, so every pair is a vertex
    # and an edge, and a vertex's edges come in polygon order
    k = len(others)
    boxes = key_boxes([hom[v] for v in others] + phom,
                       [(i, i) for i in range(k)]
                       + [(k + e, k + (e + 1) % n) for e in range(n)])
    for i, j in overlapping_pairs(boxes, split=k):
        v, e = others[i], j - k
        if v not in places:
            t = _edge_param(hom[v], phom[e], phom[(e + 1) % n])
            if t is not None:
                places[v] = (e, t)
    return places


def boundary_matches(mesh: TriMesh, polygon) -> bool:
    """Does the mesh boundary trace the polygon exactly once?

    Every boundary vertex must lie on the polygon, and the
    multiplicity-1 edges must be exactly the pairs of consecutive
    boundary vertices along each polygon edge, from corner to corner.
    Those pairs form one cycle through every boundary vertex, so the
    boundary is then a single closed cycle.  Either traversal direction
    is accepted.

    Decided on the integer forms in mesh.hom and polygon.hom, each
    boundary vertex placed on the polygon by _boundary_places.
    """
    edges = mesh.boundary_edges()
    if not edges:
        return False
    n = len(polygon.hom)
    verts = {v for e in edges for v in e}
    places = _boundary_places(mesh.hom, verts, polygon.hom)
    if len(places) != len(verts):
        return False  # boundary vertex off the polygon
    vert_at_corner = {e: v for v, (e, t) in places.items() if not t[0]}
    if len(vert_at_corner) != n:
        return False

    # expected consecutive pairs along each polygon edge
    by_param = cmp_to_key(lambda x, y: x[0][0] * y[0][1] - y[0][0] * x[0][1])
    expected = set()
    count = 0
    for e in range(n):
        inner = sorted(((t, v) for v, (ei, t) in places.items()
                        if ei == e and t[0]), key=by_param)
        chain = [vert_at_corner[e]] + [v for _, v in inner] \
            + [vert_at_corner[(e + 1) % n]]
        for u, v in zip(chain, chain[1:]):
            if u == v:
                return False
            expected.add((min(u, v), max(u, v)))
            count += 1
    if count != len(edges):
        return False
    return expected == set(edges)


# ---------------------------------------------------------------------------
# certification

INTERIOR_CERTIFICATES = {"embedded": "embedded",
                         "immersed": "complementary-immersed"}


def certify(mesh: TriMesh, polygon=None, interior: str = "embedded") -> dict:
    """Derive every certificate of a finished surface, each exactly once.

    Runs validate_manifold, orientation_propagate, boundary_matches
    against polygon when one is given, the interior test and the census.
    interior 'embedded' runs check_embedded; 'immersed' certifies that
    the interior misses the polygon (otherdims.polygon_contact_clean).
    Both take nondegenerate triangles only, so when validate_manifold
    finds a triangle of affine rank < 2, the interior verdict is false
    with that problem as its witness, and neither test runs; this is the
    one place nondegeneracy is decided.  The immersed test reads the
    boundary edges as the polygon, so a boundary that does not match it
    fails the interior by name, untested.  Returns a dict: 'interior', the
    interior certificate's name; 'verdicts', {name: bool} for manifold,
    boundary_match and the interior; 'witnesses', the manifold_witness,
    orientation_witness and violation_witness of the checks that failed;
    'census', chi, boundary_cycles, connected, orientable and genus (None
    unless a connected orientable manifold); 'failure', the first failed
    verdict as a message, or None.  Every builder calls it once on the mesh it
    returns; `plspan verify` calls it on the files.
    """
    if interior not in INTERIOR_CERTIFICATES:
        raise ValueError("unknown interior certificate %r" % interior)
    if interior == "immersed" and polygon is None:
        raise ValueError("the immersed certificate needs the polygon")
    kind = INTERIOR_CERTIFICATES[interior]
    verdicts: dict = {}
    witnesses: dict = {}
    failures = []
    problems = mesh.validate_manifold()
    verdicts["manifold"] = not problems
    if problems:
        witnesses["manifold_witness"] = problems[0]
        failures.append("surface not manifold: %s" % problems[0])
    orientable, cycle = mesh.orientation_propagate()
    if not orientable:
        witnesses["orientation_witness"] = repr(cycle)
    if polygon is not None:
        verdicts["boundary_match"] = boundary_matches(mesh, polygon)
        if not verdicts["boundary_match"]:
            failures.append("boundary does not match the polygon")
    what = "self-intersection" if interior == "embedded" \
        else "interior touches the polygon"
    flat = next((p for p in problems if p.endswith(FLAT_PROBLEMS)), None)
    if flat is not None:
        clash = flat
    elif interior == "embedded":
        violation = check_embedded(mesh)
        clash = None if violation is None else repr(violation)
    elif not verdicts["boundary_match"]:
        clash = "the boundary does not match the polygon"
    else:
        from .otherdims import polygon_contact_clean
        clash = polygon_contact_clean(mesh)
    verdicts[kind] = clash is None
    if clash is not None:
        witnesses["violation_witness"] = clash
        failures.append("%s: %s" % (what, clash))
    chi = mesh.euler_characteristic()
    cycles = mesh.boundary_components()
    connected = mesh.connected_components() == 1
    genus = None
    twice = 2 - chi - cycles
    if orientable and connected and not problems \
            and twice >= 0 and twice % 2 == 0:
        genus = twice // 2
    return {
        "interior": kind,
        "verdicts": verdicts,
        "witnesses": witnesses,
        "census": {"chi": chi, "boundary_cycles": cycles,
                   "connected": connected, "orientable": orientable,
                   "genus": genus},
        "failure": failures[0] if failures else None,
    }


# ---------------------------------------------------------------------------
# serialization

def write_off(mesh: TriMesh, path: str) -> None:
    """Exact mesh format: rational coordinates, each printed from its
    form as str(Fraction) prints it, and provenance in comments."""
    lines = ["pl-off %d" % mesh.dim,
             "%d %d 0" % (len(mesh.hom), len(mesh.triangles))]
    for h in mesh.hom:
        w = h[-1]
        lines.append(" ".join(_ratio_text(c, w) for c in h[:-1]))
    for (i, j, k), tag in zip(mesh.triangles, mesh.provenance):
        face = "3 %d %d %d" % (i, j, k)
        if tag:
            face += " # " + tag
        lines.append(face)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _ratio_text(c: int, w: int) -> str:
    g = gcd(c, w)
    return "%d" % (c // g) if g == w else "%d/%d" % (c // g, w // g)


def read_off(path: str) -> TriMesh:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty pl-off file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "pl-off":
        raise ValueError("not a pl-off file")
    dim = int(head[1])
    if len(lines) < 2 or lines[1].split()[2:] != ["0"]:
        raise ValueError("pl-off count line must be 'vertices faces 0'")
    nv, nf = (int(x) for x in lines[1].split()[:2])
    if nv < 0 or nf < 0:
        raise ValueError("pl-off count line %r has a negative count"
                         % lines[1])
    if len(lines) != 2 + nv + nf:
        raise ValueError("truncated pl-off file")
    mesh = TriMesh(dim)
    for ln in lines[2:2 + nv]:
        toks = ln.split()
        if len(toks) != dim:
            raise ValueError("bad vertex line: %r" % ln)
        mesh._add_form(_form([_ratio(tok) for tok in toks]))
    if len(mesh.hom) != nv:
        raise ValueError("pl-off repeats a vertex")
    for ln in lines[2 + nv:]:
        body, _, tag = ln.partition("#")
        toks = body.split()
        if len(toks) != 4 or toks[0] != "3":
            raise ValueError("bad face line: %r" % ln)
        i, j, k = (int(t) for t in toks[1:])
        mesh.add_triangle_indices(i, j, k, tag.strip())
    return mesh


def export_obj(mesh: TriMesh, path: str) -> None:
    """Viewer convenience, 3D only.  Coordinates degrade to floats."""
    if mesh.dim != 3:
        raise ValueError("OBJ export is only defined for meshes in R^3")
    lines = []
    for p in mesh.vertices:
        lines.append("v %.17g %.17g %.17g" % tuple(float(c) for c in p.coords))
    for i, j, k in mesh.triangles:
        lines.append("f %d %d %d" % (i + 1, j + 1, k + 1))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_obj(path: str) -> TriMesh:
    raise ValueError("OBJ floats cannot round-trip exact coordinates; "
                     "use read_off")
