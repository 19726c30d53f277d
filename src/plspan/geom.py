"""Exact rational geometry kernel.

Everything downstream (projections, surface builds, embeddedness
verification) makes combinatorial decisions from signs and containment
tests computed here.  No floating point enters any decision path: all
coordinates are rationals with arbitrary-precision integer numerator and
denominator, and all predicates are exact.

There is one scalar type, Rat, which is fractions.Fraction.  The hot
predicates do not lean on it: they take signs of integer determinants
on canonical integer forms (x_1 w, ..., x_d w, w), w > 0 minimal
(homogeneous).  _primitive makes any integer form of a point
canonical, so forms are made from forms (_between, and the shear
_shear with its inverse _lift) and from text (_ratio, which reads plain
'p' and 'p/q' with int()) with no rational built on the way.

Every pairwise test takes its candidate pairs from one sweep,
overlapping_pairs, over bounding boxes on exact integer keys
(key_boxes).  Planar segment pairs have one test, seg_intersect_2d on
forms, and seg_pair_clear_h is its yes/no view; triangle pairs of R^3 in
crossing planes have one too, _tri_pair_meets_3d, two orientation
determinants on the signed minors of _plane_3d.  The ear test of
earclip_2d takes orientation signs alone: on a simple ring an ear whose
closed triangle holds no other vertex has a clear diagonal, so no
segment pair is tested.  There is one elimination loop, the
fraction-free _bareiss: ranks and axes take its forward pass, rref (its
rational view) and int_nullspace (a primitive integer kernel basis) its
Gauss-Jordan pass.  solution_set reads the solutions of a linear system
off rref's result.  Every straight-line determinant comes from one
cofactor family: _line_2d, _plane_3d and _hyperplane_4d give the
functional c of k - 1 rows with c . x = det[x; rows], for k = 3, 4, 5.
Whether up to five rows are independent is asked of one maximal minor
first (independent, by _lead_minor, the first row dotted with the
cofactors of the others): a nonzero one answers, and only a zero one
reaches the elimination.
"""

from __future__ import annotations

from fractions import Fraction
from bisect import bisect_right
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter, le, mul, neg
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction

RatLike = Union[int, str, Fraction]

ZERO = Rat(0)
ONE = Rat(1)


def rat(x: RatLike) -> Rat:
    """Coerce ints, Fractions, 'p/q' strings and exact decimal strings.

    Decimal strings are converted exactly ('0.25' -> 1/4), never through
    a float.  A value already of type Rat comes back unchanged; a string
    is read by _ratio.
    """
    if type(x) is Rat:
        return x
    if isinstance(x, str):
        return Rat(*_ratio(x))
    return Rat(x)


def _ratio(text: str) -> tuple[int, int]:
    """(numerator, positive denominator) of the rational text names, not
    necessarily in lowest terms.  Plain ASCII -?[0-9]+(/[0-9]+)? is read
    with int(); any other text goes through Fraction(str)."""
    num, slash, den = text.partition("/")
    if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() \
            and (not slash or den.isdigit() and den.strip("0")):
        return int(num), int(den or 1)
    try:
        q = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
    return q.numerator, q.denominator


def rat_str(x) -> str:
    """Canonical text form: 'p/q', or just 'p' for integers."""
    return str(rat(x))


def sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class Point:
    """Immutable point of R^d with exact rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        self.coords = tuple(rat(c) for c in coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __add__(self, other: "Point") -> "Point":
        return Point(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Point") -> "Point":
        return Point(a - b for a, b in zip(self.coords, other.coords))

    def scale(self, k) -> "Point":
        k = rat(k)
        return Point(k * a for a in self.coords)

    def __repr__(self) -> str:
        return "Point(%s)" % (", ".join(rat_str(c) for c in self.coords))


# ---------------------------------------------------------------------------
# exact linear algebra

def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over the rationals.

    Entries are ints or rationals.  Returns (reduced rows, pivot column
    indices); the input is not mutated.  Scaling each row to integers by
    the lcm of its denominators leaves the reduced form unchanged, and
    _bareiss's Gauss-Jordan pass leaves that form times its last pivot.
    """
    ints = []
    for row in rows:
        w = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (w // x.denominator) for x in row])
    mat, pivots, last, _ = _bareiss(ints, reduce=True)
    return [[Rat(x, last) for x in row] for row in mat], pivots


def solution_set(aug: Sequence[Sequence]) -> Optional[tuple[list, list]]:
    """Solutions of the linear system with augmented rows [A | b].

    None when the system is inconsistent.  Otherwise (x0, basis): x0
    solves it and is zero on the free columns, and basis holds one
    solution of A x = 0 per free column, 1 there and 0 on the others,
    so every solution is x0 plus one combination of the basis.
    """
    ncols = len(aug[0]) - 1
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # a pivot in the augmented column: 0 = 1
    x0 = [ZERO] * ncols
    for i, c in enumerate(pivots):
        x0[c] = red[i][ncols]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return x0, basis


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull spanned by the points: points are
    affinely independent iff their homogeneous forms are linearly
    independent."""
    return int_rank([homogeneous(p) for p in points]) - 1


def nullspace(rows: Sequence[Sequence]) -> list[list]:
    """Basis of {x : A x = 0} over the rationals."""
    if not rows:
        return []
    return solution_set([list(row) + [0] for row in rows])[1]


# ---------------------------------------------------------------------------
# planar predicates

def orient2d(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    return sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def orient3d(a: Point, b: Point, c: Point, d: Point) -> int:
    """Sign of det[b-a; c-a; d-a]; 0 iff the four points are coplanar."""
    u = b - a
    v = c - a
    w = d - a
    det = (u[0] * (v[1] * w[2] - v[2] * w[1])
           - u[1] * (v[0] * w[2] - v[2] * w[0])
           + u[2] * (v[0] * w[1] - v[1] * w[0]))
    return sign(det)


# ---------------------------------------------------------------------------
# homogeneous integer predicates
#
# A rational point is carried as the integers (x_1 w, ..., x_d w, w), w > 0
# its least common denominator.  A determinant of such rows is the
# rational one times a positive factor, so its sign is exact, and integer
# products skip the gcd normalization that every Fraction operation pays.
# Denominators are cleared one point at a time: a common denominator over
# a whole mesh would grow the integers far beyond any single point's.

def homogeneous(p: Point) -> tuple:
    """Integer form (x_1 w, ..., x_d w, w) of p with w > 0 minimal."""
    return _form([(c.numerator, c.denominator) for c in p.coords])


def _point(h) -> Point:
    """The Point with integer form h, homogeneous() undone."""
    return Point([Rat(c, h[-1]) for c in h[:-1]])


def _primitive(h) -> tuple:
    """homogeneous() of the point with integer form h, any nonzero
    weight: h over the gcd of its entries, signed so that w > 0, as
    every integer form of a point is a multiple of the canonical one."""
    g = gcd(*h)
    if h[-1] < 0:
        g = -g
    return tuple(h) if g == 1 else tuple(c // g for c in h)


def _between(a, b, p: int, q: int) -> tuple:
    """The canonical form of a + (p/q)(b - a), for forms a and b and
    q > 0: ((q - p) a_i w_b + p b_i w_a) over q w_a w_b."""
    wa, wb = a[-1], b[-1]
    r, s = (q - p) * wb, p * wa
    return _primitive([r * x + s * y for x, y in zip(a[:-1], b[:-1])]
                      + [q * wa * wb])


def _form(ratios) -> tuple:
    """The canonical form of the point with coordinates n / d, for the
    pairs (n, d), d > 0, listed in ratios."""
    w = lcm(*(d for _, d in ratios))
    return _primitive([n * (w // d) for n, d in ratios] + [w])


def _shear(h, slopes) -> tuple:
    """The canonical form of (x_1 + s_1 z, ..., x_k + s_k z), the shadow
    of the point with form h = (X_1, ..., X_k, Z, W) under the shear by
    the k rational slopes: with L the lcm of their denominators b_i,
    (X_i L + a_i (L / b_i) Z, W L)."""
    big = lcm(*(s.denominator for s in slopes))
    z = h[-2]
    return _primitive([x * big + s.numerator * (big // s.denominator) * z
                       for x, s in zip(h, slopes)] + [h[-1] * big])


def _lift(h, zn: int, zd: int, slopes) -> tuple:
    """The canonical form of the point with shadow form h = (X_1, ...,
    X_k, W) and last coordinate zn / zd, zd > 0: _shear undone, (x_i -
    s_i z, z), over the weight W zd L, L as in _shear."""
    big = lcm(*(s.denominator for s in slopes))
    w = h[-1]
    d, wz = zd * big, w * zn
    return _primitive([x * d - s.numerator * (big // s.denominator) * wz
                       for x, s in zip(h, slopes)] + [wz * big, w * d])


def _bareiss(rows, reduce=False) -> tuple[list, list[int], int, int]:
    """Fraction-free row echelon form of an integer matrix.

    Bareiss's elimination (Math. Comp. 1968): after k pivot steps each
    entry still to be reduced is a (k+1)-minor of the row-permuted input
    (the k pivot rows and columns plus its own row and column), so the
    division by the previous pivot is exact and no entry grows beyond a
    minor.  Returns (rows, pivot columns, last pivot, row swaps); the
    last pivot is the minor on the pivot rows and columns.

    With reduce set, each step also clears the rows above its pivot
    (fraction-free Gauss-Jordan): every entry stays a minor, every pivot
    ends equal to the last one, and the rows returned are the reduced
    row echelon form times it.  Without it, only the entries right of
    each pivot are kept: the pivot column below a pivot is left stale.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    prev, swaps, r = 1, 0, 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        top = m[r]
        p = top[c]
        if reduce:
            # whole rows: left of c the pivot row is zero, so there the
            # step scales by p / prev, turning earlier pivots into p
            for row in m[:r] + m[r + 1:]:
                f = row[c]
                row[:] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        else:
            for row in m[r + 1:]:
                f = row[c]
                row[c + 1:] = [(p * x - f * y) // prev
                               for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, prev, swaps


def int_rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(_bareiss(rows)[1])


def _lead_minor(rows) -> int:
    """The maximal minor of k <= 5 integer rows of length k or more on
    their first k - 1 columns and their last: the first row dotted with
    the cofactors of the others (_line_2d, _plane_3d, _hyperplane_4d);
    0, which proves nothing, for other rows.  On forms the last is the
    weight column, never zero, and the first are the coordinates that a
    polygon lifted into a higher space keeps, while its last
    coordinates are 0."""
    k = len(rows)
    if k > min(5, len(rows[0])):
        return 0
    if k == 1:
        return rows[0][-1]
    # column j < k - 1 of the minor is the rows' entry j, and column
    # k - 1 their last; the rows are read in place, but for k = 4 the
    # cofactor rows are taken as 4-tuples for _plane_3d's unpacking
    a = rows[0]
    if k == 2:
        b = rows[1]
        return a[0] * b[-1] - a[-1] * b[0]
    if k == 3:
        c0, c1, c2 = _line_2d(rows[1], rows[2])
        return a[0] * c0 + a[1] * c1 + a[-1] * c2
    if k == 4:
        c0, c1, c2, c3 = _plane_3d(*[(r[0], r[1], r[2], r[-1])
                                     for r in rows[1:]])
        return a[0] * c0 + a[1] * c1 + a[2] * c2 + a[-1] * c3
    c0, c1, c2, c3, c4 = _hyperplane_4d(*rows[1:])
    return a[0] * c0 + a[1] * c1 + a[2] * c2 + a[3] * c3 + a[-1] * c4


def independent(rows) -> bool:
    """Whether k integer rows are linearly independent.  For k <= 5
    rows of length k or more one maximal minor asks first (_lead_minor):
    a nonzero minor proves independence, and only a zero one falls back
    to _bareiss's rank, so the answer is the elimination's."""
    return bool(_lead_minor(rows)) or len(_bareiss(rows)[1]) == len(rows)


def int_nullspace(rows) -> list[tuple]:
    """Primitive integer basis of {x : A x = 0} for an integer matrix A.

    One vector per free column of A's reduced form, positive there and
    zero on the other free columns: nullspace's basis, each vector
    scaled to coprime integers.  Read off _bareiss's Gauss-Jordan pass,
    whose rows are the reduced form times the last pivot, so no rational
    is built.
    """
    if not rows:
        return []
    mat, pivots, last, _ = _bareiss(rows, reduce=True)
    ncols = len(rows[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = last
        for i, c in enumerate(pivots):
            v[c] = -mat[i][f]
        g = gcd(*v) if last > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def _line_2d(p, q) -> tuple:
    """Integer functional c with c . x = det[x; p; q], for homogeneous
    points p, q of the plane: its entries are the signed 2x2 minors of
    the rows p, q, read on their entries 0, 1 and last.  It vanishes on
    their line, and it is zero exactly when p and q are one point."""
    p0, p1, p2, q0, q1, q2 = p[0], p[1], p[-1], q[0], q[1], q[-1]
    return (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0)


def orient2d_h(a, b, c) -> int:
    """orient2d of planar points in homogeneous form (x w, y w, w)."""
    return sign(a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _plane_3d(p, q, r) -> tuple:
    """Integer functional c with c . x = det[x; p; q; r], for homogeneous
    points p, q, r of R^3: its entries are the signed 3x3 minors of the
    rows p, q, r.  It vanishes on their plane, and it is zero exactly
    when the three points are affinely dependent."""
    q0, q1, q2, q3 = q
    r0, r1, r2, r3 = r
    m01, m02, m03 = q0 * r1 - q1 * r0, q0 * r2 - q2 * r0, q0 * r3 - q3 * r0
    m12, m13, m23 = q1 * r2 - q2 * r1, q1 * r3 - q3 * r1, q2 * r3 - q3 * r2
    p0, p1, p2, p3 = p
    return (p1 * m23 - p2 * m13 + p3 * m12,
            p2 * m03 - p0 * m23 - p3 * m02,
            p0 * m13 - p1 * m03 + p3 * m01,
            p1 * m02 - p0 * m12 - p2 * m01)


def _hyperplane_4d(p, q, r, s) -> tuple:
    """Integer functional c with c . x = det[x; p; q; r; s], for
    homogeneous points p, q, r, s of R^4: its entries are the signed 4x4
    minors of the rows p, q, r, s, read on their entries 0 to 3 and
    last.  It vanishes on their affine hull, and it is zero exactly when
    the four points are affinely dependent."""
    # the 2x2 minors m_ij of r and s on columns i < j, then the 3x3
    # minors t_ijl of q, r and s
    r0, r1, r2, r3, r4 = r[0], r[1], r[2], r[3], r[-1]
    s0, s1, s2, s3, s4 = s[0], s[1], s[2], s[3], s[-1]
    m01, m02, m03 = r0 * s1 - r1 * s0, r0 * s2 - r2 * s0, r0 * s3 - r3 * s0
    m04, m12, m13 = r0 * s4 - r4 * s0, r1 * s2 - r2 * s1, r1 * s3 - r3 * s1
    m14, m23, m24 = r1 * s4 - r4 * s1, r2 * s3 - r3 * s2, r2 * s4 - r4 * s2
    m34 = r3 * s4 - r4 * s3
    q0, q1, q2, q3, q4 = q[0], q[1], q[2], q[3], q[-1]
    t012 = q0 * m12 - q1 * m02 + q2 * m01
    t013 = q0 * m13 - q1 * m03 + q3 * m01
    t014 = q0 * m14 - q1 * m04 + q4 * m01
    t023 = q0 * m23 - q2 * m03 + q3 * m02
    t024 = q0 * m24 - q2 * m04 + q4 * m02
    t034 = q0 * m34 - q3 * m04 + q4 * m03
    t123 = q1 * m23 - q2 * m13 + q3 * m12
    t124 = q1 * m24 - q2 * m14 + q4 * m12
    t134 = q1 * m34 - q3 * m14 + q4 * m13
    t234 = q2 * m34 - q3 * m24 + q4 * m23
    p0, p1, p2, p3, p4 = p[0], p[1], p[2], p[3], p[-1]
    return (p1 * t234 - p2 * t134 + p3 * t124 - p4 * t123,
            p2 * t034 - p0 * t234 - p3 * t024 + p4 * t023,
            p0 * t134 - p1 * t034 + p3 * t014 - p4 * t013,
            p1 * t024 - p0 * t124 - p2 * t014 + p4 * t012,
            p0 * t123 - p1 * t023 + p2 * t013 - p3 * t012)


def _lone_vertex(vals) -> tuple[int, bool]:
    """(i, up) for a triangle whose vertices take the values vals under a
    plane's functional, not all of one strict sign and not all zero:
    vertex i lies alone on one closed side of the plane, the positive
    one when up, and the other two on the other closed side, off the
    plane when vertex i is on it."""
    for i in range(3):
        v, u, w = vals[i], vals[i - 2], vals[i - 1]
        if v or u and w:
            if v >= 0 >= u and w <= 0:
                return i, True
            if v <= 0 <= u and w >= 0:
                return i, False


def _tri_pair_meets_3d(hs_a, hs_b, vals_ba, vals_ab) -> bool:
    """Whether two triangles of R^3 in distinct, crossing planes meet,
    by two orientation signs and no constructed point (Guigue and
    Devillers, "Fast and Robust Triangle-Triangle Overlap Test Using
    Orientation Predicates", J. Graphics Tools 8(1), 2003).

    hs_a and hs_b hold the vertices' forms; vals_ba holds b's plane
    functional (_plane_3d) at hs_a and vals_ab a's at hs_b, neither all
    of one strict sign nor all zero.  Write det[a; b; c; d] =
    _plane_3d(b, c, d) . a for the determinant of four forms.  Each
    triangle is turned so that its first vertex is alone on its side of
    the other's plane (_lone_vertex): p1 q1 r1 and p2 q2 r2.  Swapping
    q2 and r2 reverses b's plane, so that p1 lies on its positive side,
    and swapping q1 and r1 puts p2 on the positive side of a's.  Each
    triangle meets the line where the planes cross in one segment, from
    k1 on p1q1 to l1 on p1r1 and from k2 on p2q2 to l2 on p2r2, and with
    these orientations the line runs from k1 to l1 and from l2 to k2 in
    the same direction, so the segments meet iff k1 <= k2 and l2 <= l1.
    The plane through p1, q1 and p2 meets the line only in k1 and holds
    p2, so det[p1; q1; p2; q2], the side of q2 and so of k2, orders k2
    against k1; det[p1; r1; r2; p2] orders l2 against l1 the same way.
    The triangles meet iff neither determinant is negative.
    """
    i, up_a = _lone_vertex(vals_ba)
    j, up_b = _lone_vertex(vals_ab)
    p1, q1, r1 = hs_a[i], hs_a[i - 2], hs_a[i - 1]
    p2, q2, r2 = hs_b[j], hs_b[j - 2], hs_b[j - 1]
    if not up_b:
        q1, r1 = r1, q1
    if not up_a:
        q2, r2 = r2, q2
    return sum(map(mul, _plane_3d(q1, p2, q2), p1)) >= 0 \
        and sum(map(mul, _plane_3d(r1, r2, p2), p1)) >= 0


def coord_keys(hs, axis) -> list[int]:
    """Integer keys floor(x 2^s) of the points' coordinates x on axis,
    2^s above every squared denominator w: distinct coordinates differ
    by 1 / (w w') > 2^-s or more, so keys compare as coordinates do."""
    shift = 2 * max(map(itemgetter(-1), hs)).bit_length()
    return [(h[axis] << shift) // h[-1] for h in hs]


def key_boxes(hom, groups) -> list[tuple[tuple, tuple]]:
    """Exact bounding boxes of groups of points, on the integer
    coord_keys of the homogeneous points hom.

    groups are index tuples into hom, all of one size of at least two (a
    single point is (i, i)).  A box is (lo, hi): lo holds the group's
    least key per axis, then the negated greatest ones, and hi the
    reverse, so boxes a and b meet iff lo_a <= hi_b entrywise.
    """
    if not groups:
        return []
    corners = list(zip(*groups, strict=True))
    least, most = [], []
    for i in range(len(hom[0]) - 1):
        keys = coord_keys(hom, i)
        ends = [list(map(keys.__getitem__, c)) for c in corners]
        least.append(list(map(min, *ends)))
        most.append(list(map(max, *ends)))
    return list(zip(zip(*least, *(map(neg, m) for m in most)),
                    zip(*most, *(map(neg, m) for m in least))))


SWEEP_MIN_BOXES = 17


def sweep_axis(boxes) -> int:
    """The first axis along which a sweep of key_boxes meets the fewest
    candidates, each box meeting those whose low end lies in its span."""
    low, high = zip(*boxes)
    return min(range(len(low[0]) // 2), key=lambda a: sum(map(
        bisect_right, repeat(sorted(map(itemgetter(a), low))),
        map(itemgetter(a), high))))


def overlapping_pairs(boxes, split=None) -> list[tuple[int, int]]:
    """Every (i, j), i < j, whose key_boxes boxes meet, in lexicographic
    order.

    With split given, boxes[:split] and boxes[split:] are two lists, and
    only pairs with i < split are reported: pairs inside the first list
    and pairs across the two, none inside the second.

    A sorted sweep (Bentley & Ottmann 1979) along sweep_axis, the axis
    with the fewest overlapping intervals (Zomorodian & Edelsbrunner,
    IJCGA 2002): each box, taken by increasing low end, is paired with
    the later ones whose low end does not pass its high end, and the
    boxes' ends on every axis decide each of those candidates.  Below
    SWEEP_MIN_BOXES boxes every pair is a candidate, as below the cutoff
    of Zomorodian & Edelsbrunner's hybrid: choosing the axis costs more
    there than it saves.
    """
    n = len(boxes)
    if split is None:
        split = n
    if n < 2 or not split:
        return []
    low, high = zip(*boxes)
    if n < SWEEP_MIN_BOXES:
        return [(i, j) for i in range(split) for top in [high[i]]
                for j in range(i + 1, n) if all(map(le, low[j], top))]
    axis = sweep_axis(boxes)
    lo = list(map(itemgetter(axis), low))
    order = sorted(range(n), key=lo.__getitem__)
    lows = sorted(lo)
    return sorted([(i, j) if i < j else (j, i)
                   for pos, i in enumerate(order) for top in [high[i]]
                   for j in order[pos + 1:bisect_right(lows, top[axis], pos)]
                   if (i < split or j < split) and all(map(le, low[j], top))])


def _coord_cmp(p, q, axis) -> int:
    """Sign of p - q along axis, for homogeneous points."""
    return sign(p[axis] * q[-1] - q[axis] * p[-1])


def _interval_gap(pts_a, pts_b, axis) -> int:
    """For two sets of homogeneous points on one line, ordered along an
    axis injective on it: whether their spans share a piece of positive
    length (-1), a single point (0) or nothing (+1)."""
    keys = coord_keys(list(pts_a) + list(pts_b), axis)
    a, b = keys[:len(pts_a)], keys[len(pts_a):]
    return sign(max(min(a), min(b)) - min(max(a), max(b)))


def seg_intersect_2d(hom, a: int, b: int, c: int, d: int) -> Optional[str]:
    """How the closed planar segments [a, b] and [c, d] meet.

    a..d index hom, a list of homogeneous points.  None when the
    segments are disjoint, 'cross' when each strictly separates the
    other's endpoints, 'touch' when they meet in a single point
    otherwise, and 'overlap' when they share a piece of positive
    length; segments of length zero included.  Decided by integer
    orientation signs and, on a common line, coordinate comparisons.
    """
    ha, hb, hc, hd = hom[a], hom[b], hom[c], hom[d]
    o1 = orient2d_h(ha, hb, hc)
    o2 = orient2d_h(ha, hb, hd)
    if o1 * o2 > 0:
        return None
    o3 = orient2d_h(hc, hd, ha)
    o4 = orient2d_h(hc, hd, hb)
    if o3 * o4 > 0:
        return None
    if o1 and o2 and o3 and o4:
        return "cross"
    if o1 or o2 or o3 or o4:
        return "touch"  # distinct lines, so a single point
    # all four on one line: it projects injectively onto any axis on
    # which the points are not all equal
    axis = next((i for i in range(2)
                 if any(_coord_cmp(p, ha, i) for p in (hb, hc, hd))), None)
    if axis is None:
        return "touch"  # all four points coincide
    gap = _interval_gap((ha, hb), (hc, hd), axis)
    return None if gap > 0 else "touch" if gap == 0 else "overlap"


def seg_pair_clear_h(hom, a: int, b: int, c: int, d: int,
                     allow_shared: bool = True) -> bool:
    """seg_intersect_2d's verdict as a permission: True when the
    segments are disjoint, or when allow_shared is set and they meet
    only at an endpoint they share.  Indices, not coordinates, say
    which endpoint the segments share; a single contact point of two
    segments with a common endpoint is that endpoint."""
    kind = seg_intersect_2d(hom, a, b, c, d)
    return kind is None or (kind == "touch" and allow_shared
                            and bool({a, b} & {c, d}))


# ---------------------------------------------------------------------------
# convex simplex intersection via exact feasibility

def _meet_solutions(pts_a: list[Point], pts_b: list[Point]):
    """Every basic feasible solution x = (lam, mu) >= 0 of
    sum lam_i a_i = sum mu_j b_j, sum lam = 1, sum mu = 1, in increasing
    support-mask order.

    Vertices of the feasible set have linearly independent support
    columns, so enumerating column subsets finds all of them exactly;
    at <= 6 columns that is cheap.
    """
    cols = [list(p.coords) + [ONE, ZERO] for p in pts_a]
    cols += [[-c for c in p.coords] + [ZERO, ONE] for p in pts_b]
    b = [ZERO] * pts_a[0].dim + [ONE, ONE]
    n = len(cols)
    m = len(b)
    for mask in range(1, 1 << n):
        support = [i for i in range(n) if mask & (1 << i)]
        if len(support) > m:
            continue
        sol = solution_set([[cols[i][r] for i in support] + [b[r]]
                            for r in range(m)])
        if sol is None or sol[1] or any(v < 0 for v in sol[0]):
            continue  # no solution, not a unique one, or not feasible
        full = [ZERO] * n
        for i, v in zip(support, sol[0]):
            full[i] = v
        yield full


def _weighted_point(lam, pts: list[Point]) -> Point:
    return Point(sum(l * p.coords[k] for l, p in zip(lam, pts))
                 for k in range(pts[0].dim))


def simplex_intersect(simplex_a: Sequence[Point], simplex_b: Sequence[Point],
                      allowed: Sequence[Point] = ()) -> Optional[Point]:
    """Do two closed simplices meet outside their shared face?

    simplex_a, simplex_b: vertex lists (2 for a segment, 3 for a
    triangle) of nondegenerate simplices in a common R^d.  allowed lists
    vertices shared by both simplices whose spanned face is permitted
    contact (a shared endpoint, or a shared edge).

    Returns an exact witness Point of a forbidden intersection, or None
    when the simplices are disjoint away from the allowed face.  The
    test is symmetric in the two simplices.

    This is the complete test, and the one that builds witnesses: it
    enumerates the vertices of a small exact LP.  The pairwise sweeps
    (mesh.check_embedded, polygon.validate_embedded) first clear pairs
    by integer signs and ranks and call it only for the rest.
    """
    pts_a = list(simplex_a)
    pts_b = list(simplex_b)
    if not pts_a or not pts_b:
        raise ValueError("empty simplex")
    dim = pts_a[0].dim
    if any(p.dim != dim for p in pts_a + pts_b):
        raise ValueError("dimension mismatch")
    if affine_rank(pts_a) != len(pts_a) - 1:
        raise ValueError("degenerate simplex a")
    if affine_rank(pts_b) != len(pts_b) - 1:
        raise ValueError("degenerate simplex b")
    allowed = list(allowed)
    for p in allowed:
        if p not in pts_a or p not in pts_b:
            raise ValueError("allowed vertex is not shared by both simplices")

    # Feasibility system: sum lam_i a_i = sum mu_j b_j, sum lam = 1,
    # sum mu = 1, lam, mu >= 0.  A common point lies in the allowed face
    # iff its barycentric weight off the allowed vertices is zero (in
    # either simplex; they agree on common points), so we maximize the
    # off-face weight of simplex a and report a violation iff it can be
    # made positive -- or, with no allowed face, iff the system is
    # feasible at all.
    na, nb = len(pts_a), len(pts_b)
    obj = [ZERO if pts_a[i] in allowed else ONE for i in range(na)]
    obj += [ZERO] * nb

    def value(x):
        return sum(o * v for o, v in zip(obj, x))

    # the feasible set is a polytope (the convex-combination rows bound
    # every variable by 1), so the maximum is attained at a vertex; max
    # keeps the first basic feasible solution of largest value
    x = max(_meet_solutions(pts_a, pts_b), key=value, default=None)
    if x is None or value(x) == 0:
        return None
    return _weighted_point(x, pts_a)


def convex_meet(pts_a: Sequence[Point], pts_b: Sequence[Point]):
    """A point of conv(pts_a) & conv(pts_b), or None if they are disjoint.

    Unlike simplex_intersect this accepts arbitrary finite point sets
    (affinely dependent is fine).  A handful of candidate separating
    functionals is tried first; the exact feasibility enumeration only
    runs when none of them certifies disjointness.
    """
    pts_a = list(pts_a)
    pts_b = list(pts_b)
    if not pts_a or not pts_b:
        raise ValueError("empty point set")
    dim = pts_a[0].dim
    if any(p.dim != dim for p in pts_a + pts_b):
        raise ValueError("dimension mismatch")
    ca = [sum(p[i] for p in pts_a) / len(pts_a) for i in range(dim)]
    cb = [sum(p[i] for p in pts_b) / len(pts_b) for i in range(dim)]
    candidates = [[ca[i] - cb[i] for i in range(dim)]]
    for i in range(dim):
        w = [ZERO] * dim
        w[i] = ONE
        candidates.append(w)
    for w in candidates:
        if all(c == 0 for c in w):
            continue
        va = [sum(wc * pc for wc, pc in zip(w, p.coords)) for p in pts_a]
        vb = [sum(wc * pc for wc, pc in zip(w, p.coords)) for p in pts_b]
        if min(va) > max(vb) or min(vb) > max(va):
            return None
    x = next(_meet_solutions(pts_a, pts_b), None)
    return None if x is None else _weighted_point(x, pts_a)


def segment_simplex_meet(a: Point, b: Point, simplex: Sequence[Point]):
    """Exact intersection of closed segment [a,b] with a closed
    nondegenerate simplex.

    Returns ('empty', None), ('point', t) or ('segment', (t0, t1)) where
    the t values parametrize [a, b].  A point fixes the barycentric
    weights of a nondegenerate simplex, so only t can be free; two or
    more free directions raise ValueError.
    """
    pts = list(simplex)
    k = len(pts)
    d = b - a
    # unknowns: barycentric weights lam_1..lam_k, parameter t;
    # equations: sum lam_i p_i - t (b - a) = a, sum lam = 1
    aug = [[p[c] for p in pts] + [-d[c], a[c]] for c in range(a.dim)]
    aug.append([ONE] * k + [ZERO, ONE])
    sol = solution_set(aug)
    if sol is None:
        return ("empty", None)
    base, dirs = sol
    if len(dirs) > 1:
        raise ValueError("degenerate simplex")
    dirv = dirs[0] if dirs else [ZERO] * (k + 1)
    # base + s dirv must keep lam >= 0 and 0 <= t <= 1: coef s >= bound
    constraints = [(dirv[i], -base[i]) for i in range(k + 1)]
    constraints.append((-dirv[k], base[k] - ONE))
    lo = hi = None  # None = unbounded
    for coef, bound in constraints:
        if coef == 0:
            if bound > 0:
                return ("empty", None)
        elif coef > 0:
            lo = bound / coef if lo is None else max(lo, bound / coef)
        else:
            hi = bound / coef if hi is None else min(hi, bound / coef)
    if lo is not None and hi is not None and lo > hi:
        return ("empty", None)
    if dirv[k] == 0:
        # t is constant along the solutions: one point of the segment
        return ("point", base[k])
    # t in [0, 1] bounds s from both sides when dirv[k] != 0
    t_lo, t_hi = sorted((base[k] + lo * dirv[k], base[k] + hi * dirv[k]))
    if t_lo == t_hi:
        return ("point", t_lo)
    return ("segment", (t_lo, t_hi))


def earclip_2d(hom) -> list[tuple[int, int, int]]:
    """Triangulate a simple planar polygon without new vertices.

    hom holds the corners' integer forms (x w, y w, w).  Returns
    len(hom)-2 index triples.  There is one exact ear test: a corner b,
    between a and c on the ring, is clipped when it turns the ring's way
    and no other active vertex lies in the closed triangle abc.  On a
    simple ring that implies the diagonal ac meets no ring edge but at
    its ends.  Let an edge e meet ac at a point other than a shared end,
    with neither end of e in the closed triangle.  If e lies on the line
    ac, it holds a or c in its interior; if not, it crosses to b's side
    of ac and leaves the closed triangle through ab or bc, so it crosses
    one of them or holds a, b or c in its interior.  Either makes the
    ring non-simple.  So clipping keeps the ring simple, and a non-simple
    ring is refused here ("no ear found", "final triangle degenerate")
    or by the certificate of the disk its ears make.
    """
    n = len(hom)
    if n < 3:
        raise ValueError("need at least 3 points")
    if any(len(h) != 3 for h in hom):
        raise ValueError("earclip works on planar points")
    # the signed area, twice over: each term is x_a y_b - x_b y_a
    turn = sign(sum(Fraction(a[0] * b[1] - b[0] * a[1], a[2] * b[2])
                    for a, b in zip(hom, hom[1:] + hom[:1])))
    if turn == 0:
        raise ValueError("polygon has zero area")
    ring = list(range(n))
    tris: list[tuple[int, int, int]] = []
    scan_from = 0
    while len(ring) > 3:
        m = len(ring)
        for off in range(m):
            i = (scan_from + off) % m
            ia, ib, ic = ring[(i - 1) % m], ring[i], ring[(i + 1) % m]
            ha, hb, hc = hom[ia], hom[ib], hom[ic]
            if orient2d_h(ha, hb, hc) != turn:
                continue
            if any(_in_closed_tri(hom[j], ha, hb, hc, turn)
                   for j in ring if j not in (ia, ib, ic)):
                continue
            tris.append((ia, ib, ic))
            ring.pop(i)
            scan_from = (i - 1) % len(ring)
            break
        else:
            raise ValueError("no ear found; polygon is not simple")
    a, b, c = ring
    if orient2d_h(hom[a], hom[b], hom[c]) != turn:
        raise ValueError("final triangle degenerate; polygon is not simple")
    tris.append((a, b, c))
    return tris


def _in_closed_tri(p, a, b, c, turn) -> bool:
    return (orient2d_h(a, b, p) * turn >= 0
            and orient2d_h(b, c, p) * turn >= 0
            and orient2d_h(c, a, p) * turn >= 0)
