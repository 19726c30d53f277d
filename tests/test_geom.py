import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plspan.geom import (
    Point,
    Rat,
    _between,
    _form,
    _lead_minor,
    _primitive,
    _ratio,
    affine_rank,
    earclip_2d,
    homogeneous,
    independent,
    int_nullspace,
    int_rank,
    key_boxes,
    nullspace,
    orient2d,
    orient2d_h,
    orient3d,
    overlapping_pairs,
    rat,
    rat_str,
    rref,
    seg_intersect_2d as seg_kind,
    seg_pair_clear_h,
    segment_simplex_meet,
    simplex_intersect,
    solution_set,
    sweep_axis,
)
from plspan.mesh import CertificateError
from plspan.otherdims import earclip_2d as earclip_disk
from plspan.polygon import ClosedPolygon, validate_embedded

from oracles import (
    AffineMap,
    affine_inverse,
    box_h,
    brute_pairs,
    flat_axes,
    int_det,
    point_in_simplex,
    point_on_segment,
    seg_intersect_2d,
    segment_param,
    shear_frame,
    shear_last_into,
)


def rnd_frac(rng, lim=8, den=4):
    return Fraction(rng.randint(-lim, lim), rng.randint(1, den))


def rnd_point(rng, dim, lim=8, den=4):
    return Point([rnd_frac(rng, lim, den) for _ in range(dim)])


# ---------------------------------------------------------------------------
# scalar plumbing

# digits, signs, slashes, decimal points, exponents, underscores and a
# few non-ASCII digits: Arabic-Indic and fullwidth one, superscript two
_NUMBER_TEXT = st.text(alphabet="0123456789-+/.e_\u0661\uff11\u00b2",
                       max_size=7)


@settings(max_examples=600, deadline=None)
@given(_NUMBER_TEXT)
@example("2/4")
@example("-0")
@example("-0/3")
@example("007/010")
@example("1/0")
@example("0/0")
@example("-1/-2")
@example("+3")
@example("1_0")
@example("1e3")
@example("0.25")
@example("\u0661/\uff12")
@example("\u00b2")
@example("")
def test_rat_parses_text_as_fraction_does(text):
    # the plain -?[0-9]+(/[0-9]+)? fast path and the Fraction(str)
    # fallback accept the same strings as Fraction(str), with its
    # value; a zero denominator is a ValueError, not ZeroDivisionError
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ValueError):
            rat(text)
        with pytest.raises(ValueError):
            _ratio(text)
        return
    got = rat(text)
    assert type(got) is Rat and got == want
    n, d = _ratio(text)
    assert d > 0 and Fraction(n, d) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                          st.integers(1, 10**4)), min_size=1, max_size=5),
       st.integers(-50, 50).filter(bool))
def test_primitive_and_form_are_homogeneous(pairs, k):
    # any integer form, scaled by any nonzero k, made canonical is
    # homogeneous() of its point; so is the form of the coordinates'
    # text, however it is spelled ('2/4', '-0/3', ...)
    p = Point([Fraction(n, d) for n, d in pairs])
    h = homogeneous(p)
    w = math.prod(d for _, d in pairs)
    raw = [n * (w // d) for n, d in pairs] + [w]
    assert _primitive([k * c for c in raw]) == h
    assert _form([(n * abs(k), d * abs(k)) for n, d in pairs]) == h
    assert _form([_ratio("%d/%d" % (n * abs(k), d * abs(k)))
                  for n, d in pairs]) == h


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 12)),
                min_size=4, max_size=4),
       st.integers(-8, 8), st.integers(1, 8))
def test_between_is_the_rational_interpolation(pairs, p, q):
    # _between(a, b, p, q) is homogeneous() of a + (p/q)(b - a)
    a = Point([Fraction(n, d) for n, d in pairs[:2]])
    b = Point([Fraction(n, d) for n, d in pairs[2:]])
    want = a + (b - a).scale(Fraction(p, q))
    assert _between(homogeneous(a), homogeneous(b), p, q) \
        == homogeneous(want)


def test_rat_parses_fractions_and_decimals_exactly():
    assert rat("3/7") == Rat(3, 7)
    assert rat("0.25") == Rat(1, 4)
    assert rat("-1.1") == Rat(-11, 10)
    assert rat(5) == Rat(5)
    assert rat_str(rat("4/8")) == "1/2"
    assert rat_str(rat("3")) == "3"
    with pytest.raises(ValueError, match="zero denominator"):
        rat("1/0")


def test_rat_returns_a_rat_unchanged_and_normalizes_the_rest():
    x = Rat(6, 14)
    assert rat(x) is x

    class Sub(Fraction):
        pass

    for raw in ("6/14", "0.5", 3, Sub(6, 14)):
        got = rat(raw)
        assert type(got) is Rat and got == Fraction(raw)
    assert str(rat(Sub(6, 14))) == "3/7"


def test_point_arithmetic_and_hash():
    p = Point([1, 2, 3])
    q = Point(["1/2", "0.5", 0])
    assert (p - p) == Point([0, 0, 0])
    assert (p + q)[0] == rat("3/2")
    assert hash(Point([2, 4])) == hash(Point(["2", "4"]))
    assert p.scale(2) == Point([2, 4, 6])


# ---------------------------------------------------------------------------
# linear algebra

def test_rref_identity_and_rank():
    red, piv = rref([[1, 0], [0, 1]])
    assert piv == [0, 1]
    assert len(rref([[1, 2], [2, 4]])[1]) == 1
    assert len(rref([[1, 2], [3, 4]])[1]) == 2


def _rref_oracle(rows):
    """Rational Gauss-Jordan, kept apart from the fraction-free kernel
    that rref, int_rank, int_det and flat_axes share."""
    mat = [list(map(rat, row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [e * inv for e in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _mixed_fractions(min_cols=0, max_cols=6):
    """Matrices of mixed denominators, about half their rows combinations
    of a few others: tall, wide, rank-deficient, zero rows and columns."""
    entry = st.one_of(st.just(0), st.fractions(
        min_value=-6, max_value=6, max_denominator=7))

    @st.composite
    def build(draw):
        nrows = draw(st.integers(1, 6))
        ncols = draw(st.integers(min_cols, max_cols))
        base = draw(st.lists(st.lists(entry, min_size=ncols,
                                      max_size=ncols), min_size=1,
                             max_size=3))
        rows = []
        for _ in range(nrows):
            if draw(st.booleans()):
                co = draw(st.lists(entry, min_size=len(base),
                                   max_size=len(base)))
                rows.append([sum((k * b[j] for k, b in zip(co, base)),
                                 Fraction(0)) for j in range(ncols)])
            else:
                rows.append(draw(st.lists(entry, min_size=ncols,
                                          max_size=ncols)))
        return rows

    return build()


@settings(max_examples=250, deadline=None)
@given(_mixed_fractions())
@example([[0, 0], [0, 0], [0, 0]])
@example([[], []])
@example([[Fraction(1, 2), 3, 0, Fraction(-5, 3)],
          [1, 6, 0, Fraction(-10, 3)], [0, 0, 0, 7]])
def test_rref_matches_rational_gauss_jordan(rows):
    red, pivots = rref(rows)
    assert (red, pivots) == _rref_oracle(rows)
    assert all(isinstance(x, Rat) for row in red for x in row)


def test_solution_set_basic():
    x0, basis = solution_set([[2, 0, 6], [0, 4, 8]])
    assert x0 == [3, 2] and basis == []  # unique
    assert solution_set([[1, 1, 1], [2, 2, 3]]) is None  # inconsistent
    x0, basis = solution_set([[1, 1, 1], [2, 2, 2]])  # underdetermined
    assert x0 == [1, 0] and basis == [[-1, 1]]


@settings(max_examples=200, deadline=None)
@given(_mixed_fractions(min_cols=1, max_cols=7))
def test_solution_set_solves_and_spans(aug):
    ncols = len(aug[0]) - 1
    pivots = _rref_oracle([row[:-1] for row in aug])[1]
    sol = solution_set(aug)
    if sol is None:
        assert _rref_oracle(aug)[1] == pivots + [ncols]  # 0 = 1
        return
    x0, basis = sol
    for row in aug:
        assert sum(a * x for a, x in zip(row, x0)) == row[-1]
        for v in basis:
            assert sum(a * x for a, x in zip(row, v)) == 0
    free = [c for c in range(ncols) if c not in pivots]
    assert len(basis) == len(free) == ncols - len(pivots)
    assert all(x0[f] == 0 for f in free)
    for v, f in zip(basis, free):
        assert [v[g] for g in free] == [int(g == f) for g in free]


@settings(max_examples=250, deadline=None)
@given(_mixed_fractions())
@example([[0, 0], [0, 0], [0, 0]])
@example([[], []])
@example([[0, 3, 0, -6], [0, -2, 0, 4]])
def test_int_nullspace_is_a_primitive_kernel_basis(rows):
    # the rows scaled to integers: tall, wide, rank-deficient, with zero
    # rows and zero columns
    rows = [[int(x * math.lcm(*(Fraction(y).denominator for y in row)))
             for x in row] for row in rows]
    ncols = len(rows[0])
    red, pivots = _rref_oracle(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = int_nullspace(rows)
    assert len(basis) == len(free) == ncols - len(pivots)
    for v, f in zip(basis, free):
        assert all(type(x) is int for x in v)
        assert math.gcd(*v) == 1 and v[f] > 0
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0
        # the rational basis vector of f: 1 there, 0 on the other free
        # columns, minus the reduced rows' entries on the pivots
        want = [Fraction(int(c == f)) for c in range(ncols)]
        for i, c in enumerate(pivots):
            want[c] = -red[i][f]
        assert [Fraction(x, v[f]) for x in v] == want


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rnd_frac(rng) for _ in range(4)] for _ in range(2)]
        for v in nullspace(rows):
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_affine_rank_of_triangle():
    tri = [Point([0, 0, 0]), Point([1, 0, 0]), Point([0, 1, 0])]
    assert affine_rank(tri) == 2
    assert affine_rank([Point([0, 0]), Point([1, 1]), Point([2, 2])]) == 1


def _low_rank_matrix(rng, nrows, ncols):
    """Integer rows, about half of them combinations of a few others."""
    base = [[rng.randint(-3, 3) for _ in range(ncols)]
            for _ in range(rng.randint(1, nrows))]
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.5:
            co = [rng.randint(-2, 2) for _ in base]
            rows.append([sum(k * b[j] for k, b in zip(co, base))
                         for j in range(ncols)])
        else:
            rows.append([rng.randint(-5, 5) for _ in range(ncols)])
    return rows


def test_int_rank_and_det_match_rational_elimination():
    # Bareiss's exact divisions must hold with row swaps and skipped
    # columns: rank against rational elimination, determinant against
    # cofactor expansion
    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j]
                   * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    rng = random.Random(1968)
    for _ in range(800):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = _low_rank_matrix(rng, nrows, ncols)
        assert int_rank(rows) == len(_rref_oracle(rows)[1]), rows
        sq = _low_rank_matrix(rng, nrows, nrows)
        assert int_det(sq) == det(sq), sq


_BIG = st.integers(-2 ** 60, 2 ** 60)


def _planted_rows(data, plant):
    """k integer rows of length n, k <= 5 and k <= n <= 7, planted:
    'lead' independent by a triangular block on the lead minor's
    columns (the first k - 1 and the last), 'hidden' independent by one
    on the first k columns while the last is a combination of the first
    k - 1, so the lead minor vanishes, 'dependent' with the last row a
    combination of the others, 'repeated' with one row twice, and
    'free' with no plan."""
    low = 2 if plant in ("dependent", "repeated") else 1
    k = data.draw(st.integers(low, 5))
    n = data.draw(st.integers(k + (plant == "hidden"), 7))
    rows = [data.draw(st.lists(_BIG, min_size=n, max_size=n))
            for _ in range(k)]
    nonzero = _BIG.filter(bool)
    if plant in ("lead", "hidden"):
        cols = list(range(k - 1)) + [n - 1 if plant == "lead" else k - 1]
        for i, row in enumerate(rows):
            row[cols[i]] = data.draw(nonzero)
            for c in cols[i + 1:]:
                row[c] = 0
        if plant == "hidden":
            co = data.draw(st.lists(st.integers(-3, 3), min_size=k - 1,
                                    max_size=k - 1))
            for row in rows:
                row[-1] = sum(x * y for x, y in zip(co, row))
    elif plant == "dependent":
        co = data.draw(st.lists(st.integers(-3, 3), min_size=k - 1,
                                max_size=k - 1))
        rows[-1] = [sum(x * r[c] for x, r in zip(co, rows))
                    for c in range(n)]
    elif plant == "repeated":
        i, j = sorted(data.draw(st.lists(st.integers(0, k - 1), min_size=2,
                                         max_size=2, unique=True)))
        rows[j] = list(rows[i])
    return rows


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_independent_asks_one_minor_before_any_elimination(data):
    # the lead minor is the determinant of its k columns, a nonzero one
    # answers with no elimination, and a zero one falls back to _bareiss,
    # whose rank is the answer: each plant reaches its branch
    import plspan.geom as geom
    eliminations = []
    bareiss = geom._bareiss
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_bareiss",
                   lambda rows: eliminations.append(1) or bareiss(rows))
        for plant in ("lead", "hidden", "dependent", "repeated", "free"):
            rows = _planted_rows(data, plant)
            k = len(rows)
            minor = _lead_minor(rows)
            assert minor == int_det([r[:k - 1] + r[-1:] for r in rows])
            eliminations.clear()
            got = independent(rows)
            assert bool(eliminations) == (minor == 0), (plant, rows)
            assert got == (int_rank(rows) == k), (plant, rows)
            branch = {"lead": (True, True), "hidden": (False, True),
                      "dependent": (False, False),
                      "repeated": (False, False)}.get(plant)
            assert branch in (None, (minor != 0, got)), (plant, rows)


def test_affine_rank_and_flat_axes_on_flats():
    # grid points of a random k-flat of R^d: affine_rank finds k, and
    # the k axes of flat_axes keep every point apart and every affine
    # relation among them
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randint(2, 5)
        k = rng.randint(0, d)
        origin = [rnd_frac(rng) for _ in range(d)]
        basis = [[rnd_frac(rng, 3, 2) for _ in range(d)] for _ in range(k)]
        pts = [Point([o + sum(rng.randint(-3, 3) * b[c] for b in basis)
                      for c, o in enumerate(origin)]) for _ in range(6)]
        rank = len(_rref_oracle([list((p - pts[0]).coords)
                                 for p in pts[1:]])[1])
        assert affine_rank(pts) == rank
        axes = flat_axes([homogeneous(p) for p in pts])
        assert len(axes) == rank and axes == sorted(axes)
        proj = [Point([p[i] for i in axes]) for p in pts]
        assert affine_rank(proj) == rank
        assert len(set(proj)) == len(set(pts))
    assert affine_rank([]) == -1


def test_affine_inverse_is_identity_on_random_points():
    # invertible map, then its inverse, on 1000 random rational points
    rng = random.Random(2024)
    maps = []
    for dim in (2, 3, 4):
        while True:
            m = [[rnd_frac(rng, 5, 3) for _ in range(dim)] for _ in range(dim)]
            t = [rnd_frac(rng, 5, 3) for _ in range(dim)]
            try:
                am = AffineMap(m, t)
                inv = affine_inverse(am)
            except ValueError:
                continue
            maps.append((am, inv, dim))
            break
    count = 0
    while count < 1000:
        am, inv, dim = maps[count % len(maps)]
        p = rnd_point(rng, dim, 50, 17)
        assert inv.apply(am.apply(p)) == p
        assert am.apply(inv.apply(p)) == p
        count += 1


def test_affine_compose_and_shear():
    sh = shear_last_into(3, ["1/2", -2])
    p = Point([1, 1, 4])
    assert sh.apply(p) == Point([3, -7, 4])
    inv = affine_inverse(sh)
    assert inv.apply(sh.apply(p)) == p
    assert sh.apply(inv.apply(p)) == p


def test_shear_frame_is_the_lifted_shear_and_its_inverse():
    # the oracles' closed-form inverse equals the rref-backed one exactly
    rng = random.Random(1907)
    for dim in (2, 3, 4, 5):
        for _ in range(5):
            slopes = [rnd_frac(rng, 5, 7) for _ in range(dim - 1)]
            up = rnd_frac(rng, 9, 4)
            frame, back = shear_frame(slopes, up)
            shear = shear_last_into(dim, slopes)
            inv = affine_inverse(frame)
            assert (back.matrix, back.shift) == (inv.matrix, inv.shift)
            for _ in range(3):
                p = rnd_point(rng, dim, 20, 9)
                img = shear.apply(p)
                assert frame.apply(p) == Point(list(img)[:-1]
                                               + [img[-1] + up])


# ---------------------------------------------------------------------------
# orientation predicates

def test_orient2d_signs():
    a, b, c = Point([0, 0]), Point([1, 0]), Point([0, 1])
    assert orient2d(a, b, c) == 1
    assert orient2d(a, c, b) == -1
    assert orient2d(a, b, Point([2, 0])) == 0


def test_orient3d_signs():
    a = Point([0, 0, 0])
    b = Point([1, 0, 0])
    c = Point([0, 1, 0])
    d = Point([0, 0, 1])
    assert orient3d(a, b, c, d) == 1
    assert orient3d(a, c, b, d) == -1
    assert orient3d(a, b, c, Point([3, -2, 0])) == 0


# ---------------------------------------------------------------------------
# segment intersection vs a brute-force parametric oracle

def oracle_seg(a, b, c, d):
    """Independent classification of [a,b] cap [c,d].

    Works entirely in Fraction: Cramer for the transversal case, interval
    overlap of projection parameters for the collinear case.
    """
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    dx, dy = Fraction(d[0]), Fraction(d[1])
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    den = rx * sy - ry * sx
    cross_ac = (cx - ax) * ry - (cy - ay) * rx
    if den != 0:
        t = ((cx - ax) * sy - (cy - ay) * sx) / den
        u = cross_ac / den
        if 0 <= t <= 1 and 0 <= u <= 1:
            interior = 0 < t < 1 and 0 < u < 1
            return ("point", (ax + t * rx, ay + t * ry), interior)
        return ("empty", None, None)
    if cross_ac != 0 and (rx, ry) != (0, 0):
        return ("empty", None, None)
    if (rx, ry) == (0, 0) and (sx, sy) == (0, 0):
        if (ax, ay) == (cx, cy):
            return ("point", (ax, ay), False)
        return ("empty", None, None)
    if (rx, ry) == (0, 0):
        # degenerate first segment: a on [c,d]?
        if (ax - cx) * sy - (ay - cy) * sx != 0:
            return ("empty", None, None)
        dot = (ax - cx) * sx + (ay - cy) * sy
        if 0 <= dot <= sx * sx + sy * sy:
            return ("point", (ax, ay), False)
        return ("empty", None, None)
    # collinear with [a,b] nondegenerate: parameters of c and d along it
    rr = rx * rx + ry * ry
    tc = ((cx - ax) * rx + (cy - ay) * ry) / rr
    td = ((dx - ax) * rx + (dy - ay) * ry) / rr
    lo, hi = min(tc, td), max(tc, td)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return ("empty", None, None)
    if lo == hi:
        return ("point", (ax + lo * rx, ay + lo * ry), False)
    return ("overlap", None, None)


def seg_cases(rng, n):
    """Random segment pairs with the degenerate families over-sampled."""
    for _ in range(n):
        mode = rng.randrange(6)
        a = rnd_point(rng, 2, 5, 3)
        b = rnd_point(rng, 2, 5, 3)
        if mode == 0:
            c, d = rnd_point(rng, 2, 5, 3), rnd_point(rng, 2, 5, 3)
        elif mode == 1:
            # parallel copy
            off = rnd_point(rng, 2, 3, 2)
            c, d = a + off, b + off
        elif mode == 2:
            # collinear pieces
            t0, t1 = rnd_frac(rng, 3, 2), rnd_frac(rng, 3, 2)
            dvec = b - a
            c = a + dvec.scale(t0)
            d = a + dvec.scale(t1)
        elif mode == 3:
            # shared endpoint
            c = b
            d = rnd_point(rng, 2, 5, 3)
        elif mode == 4:
            # endpoint of one interior to the other
            t = rnd_frac(rng, 2, 3)
            c = a + (b - a).scale(t)
            d = rnd_point(rng, 2, 5, 3)
        else:
            # degenerate segment
            c = d = rnd_point(rng, 2, 5, 3)
        yield a, b, c, d


def test_seg_intersect_matches_parametric_oracle():
    rng = random.Random(31337)
    checked = 0
    for a, b, c, d in seg_cases(rng, 3000):
        got = seg_intersect_2d(a, b, c, d)
        kind, pt, interior = oracle_seg(a.coords, b.coords, c.coords, d.coords)
        assert got.kind == kind, (a, b, c, d, got.kind, kind)
        if kind == "point":
            assert got.point == Point(pt)
            want = "interior-interior" if interior else "endpoint-touch"
            assert got.contact == want, (a, b, c, d)
        checked += 1
    assert checked == 3000


def test_seg_intersect_is_symmetric():
    rng = random.Random(99)
    for a, b, c, d in seg_cases(rng, 500):
        r1 = seg_intersect_2d(a, b, c, d)
        r2 = seg_intersect_2d(c, d, a, b)
        assert r1.kind == r2.kind
        if r1.kind == "point":
            assert r1.point == r2.point
            assert r1.contact == r2.contact


def test_seg_intersect_handpicked():
    a, b = Point([0, 0]), Point([4, 4])
    c, d = Point([0, 4]), Point([4, 0])
    r = seg_intersect_2d(a, b, c, d)
    assert r.kind == "point" and r.point == Point([2, 2])
    assert r.contact == "interior-interior"
    # touch at endpoint
    r = seg_intersect_2d(a, b, b, Point([9, 0]))
    assert r.kind == "point" and r.contact == "endpoint-touch"
    # collinear overlap
    r = seg_intersect_2d(Point([0, 0]), Point([3, 0]),
                         Point([1, 0]), Point([5, 0]))
    assert r.kind == "overlap"
    # collinear disjoint
    r = seg_intersect_2d(Point([0, 0]), Point([1, 0]),
                         Point([2, 0]), Point([5, 0]))
    assert r.kind == "empty"


def test_point_on_segment_and_param():
    a, b = Point([0, 0, 0]), Point([2, 4, 6])
    m = Point([1, 2, 3])
    assert point_on_segment(m, a, b)
    assert segment_param(m, a, b) == rat("1/2")
    assert not point_on_segment(Point([1, 2, 4]), a, b)
    assert segment_param(Point([3, 6, 9]), a, b) is None


# ---------------------------------------------------------------------------
# simplex intersection: 2D cross-check against the segment kernel

def test_simplex_intersect_agrees_with_seg_kernel_2d():
    rng = random.Random(424242)
    done = 0
    for a, b, c, d in seg_cases(rng, 800):
        if a == b or c == d:
            continue  # simplex_intersect requires nondegenerate input
        ref = seg_intersect_2d(a, b, c, d)
        got = simplex_intersect([a, b], [c, d])
        if ref.kind == "empty":
            assert got is None
        else:
            assert got is not None
            # witness must actually lie on both segments
            assert point_on_segment(got, a, b)
            assert point_on_segment(got, c, d)
        done += 1
    assert done > 500


def test_simplex_intersect_allowed_shared_endpoint():
    a, b, c = Point([0, 0]), Point([4, 0]), Point([4, 3])
    # sharing vertex b only: fine once b is allowed
    assert simplex_intersect([a, b], [b, c]) is not None
    assert simplex_intersect([a, b], [b, c], allowed=[b]) is None
    # collinear extension through b is still only touching at b
    d = Point([8, 0])
    assert simplex_intersect([a, b], [b, d], allowed=[b]) is None
    # overlapping collinear segments violate even with shared endpoint
    e = Point([2, 0])
    assert simplex_intersect([a, b], [e, d], allowed=[]) is not None


# ---------------------------------------------------------------------------
# simplex intersection: 3D cross-check against an independent
# edge-versus-triangle oracle

def _oracle_seg_tri_3d(p, q, tri):
    """Does closed segment [p,q] meet closed triangle tri in R^3?

    Solves p + s(q-p) = t0 + u(t1-t0) + v(t2-t0) by Cramer; the parallel
    and coplanar cases reduce to 2D tests in the triangle's plane.
    """
    t0, t1, t2 = tri
    e1 = [Fraction(t1[i]) - Fraction(t0[i]) for i in range(3)]
    e2 = [Fraction(t2[i]) - Fraction(t0[i]) for i in range(3)]
    dvec = [Fraction(q[i]) - Fraction(p[i]) for i in range(3)]
    rhs = [Fraction(p[i]) - Fraction(t0[i]) for i in range(3)]

    def det3(c0, c1, c2):
        # determinant with c0, c1, c2 as columns
        return (c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
                - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
                + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1]))

    # columns: e1, e2, -d ; unknowns u, v, s
    den = det3(e1, e2, [-x for x in dvec])
    if den != 0:
        u = det3(rhs, e2, [-x for x in dvec]) / den
        v = det3(e1, rhs, [-x for x in dvec]) / den
        s = det3(e1, e2, rhs) / den
        return u >= 0 and v >= 0 and u + v <= 1 and 0 <= s <= 1
    # segment parallel to the plane (or degenerate): coplanar?
    normal = [e1[1] * e2[2] - e1[2] * e2[1],
              e1[2] * e2[0] - e1[0] * e2[2],
              e1[0] * e2[1] - e1[1] * e2[0]]
    if sum(n * r for n, r in zip(normal, rhs)) != 0:
        return False
    # coplanar: drop the dominant coordinate of the normal
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]

    def flat(pt):
        return Point([Fraction(pt[i]) for i in keep])

    fp, fq = flat(p), flat(q)
    ftri = [flat(t) for t in tri]
    # meet iff an edge of the triangle crosses [p,q], or an endpoint of
    # [p,q] is inside the triangle
    for i in range(3):
        r = seg_intersect_2d(fp, fq, ftri[i], ftri[(i + 1) % 3])
        if r.kind != "empty":
            return True
    for pt in (fp, fq):
        s1 = orient2d(ftri[0], ftri[1], pt)
        s2 = orient2d(ftri[1], ftri[2], pt)
        s3 = orient2d(ftri[2], ftri[0], pt)
        if (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0):
            return True
    return False


def _oracle_tri_tri_3d(t1, t2):
    """Triangles meet iff some closed edge of one meets the other."""
    for i in range(3):
        if _oracle_seg_tri_3d(t1[i], t1[(i + 1) % 3], t2):
            return True
        if _oracle_seg_tri_3d(t2[i], t2[(i + 1) % 3], t1):
            return True
    return False


def _rnd_triangle(rng, lim=4):
    while True:
        tri = [rnd_point(rng, 3, lim, 2) for _ in range(3)]
        if affine_rank(tri) == 2:
            return tri


def test_simplex_intersect_agrees_with_tri_tri_oracle():
    rng = random.Random(555)
    agree = 0
    hits = 0
    for _ in range(250):
        t1 = _rnd_triangle(rng)
        if rng.random() < 0.5:
            t2 = _rnd_triangle(rng)
        else:
            # nearby copy: forces plenty of genuine intersections
            off = rnd_point(rng, 3, 1, 2)
            t2 = [v + off for v in t1]
        want = _oracle_tri_tri_3d([v.coords for v in t1],
                                  [v.coords for v in t2])
        got = simplex_intersect(t1, t2)
        assert (got is not None) == want, (t1, t2)
        if got is not None:
            hits += 1
            # witness lies in both triangles
            assert point_in_simplex(got, t1)
            assert point_in_simplex(got, t2)
        agree += 1
    assert agree == 250 and hits > 25


def test_simplex_intersect_shared_edge_3d():
    # two triangles folded along a common edge meet only on that edge
    p, q = Point([0, 0, 0]), Point([4, 0, 0])
    r1 = Point([2, 3, 1])
    r2 = Point([2, 3, -1])
    assert simplex_intersect([p, q, r1], [p, q, r2], allowed=[p, q]) is None
    # fold onto the same plane (z = y/3): overlapping interiors
    r3 = Point([2, 3, 1])
    r4 = Point([2, "3/2", "1/2"])
    w = simplex_intersect([p, q, r3], [p, q, r4], allowed=[p, q])
    assert w is not None
    assert point_in_simplex(w, [p, q, r3])
    assert point_in_simplex(w, [p, q, r4])


def test_simplex_intersect_is_symmetric():
    rng = random.Random(808)
    for _ in range(60):
        t1 = _rnd_triangle(rng)
        t2 = _rnd_triangle(rng)
        r12 = simplex_intersect(t1, t2)
        r21 = simplex_intersect(t2, t1)
        assert (r12 is None) == (r21 is None)


def test_simplex_intersect_4d():
    # segment through a triangle in R^4
    tri = [Point([0, 0, 0, 0]), Point([4, 0, 0, 0]), Point([0, 4, 0, 0])]
    seg = [Point([1, 1, -1, 0]), Point([1, 1, 5, 0])]
    w = simplex_intersect(seg, tri)
    assert w == Point([1, 1, 0, 0])
    # same segment shifted off the triangle's 2-flat in the last axis
    seg2 = [Point([1, 1, -1, 1]), Point([1, 1, 5, 1])]
    assert simplex_intersect(seg2, tri) is None


def test_segment_simplex_meet_cases():
    tri = [Point([0, 0, 0]), Point([4, 0, 0]), Point([0, 4, 0])]
    kind, t = segment_simplex_meet(Point([1, 1, -2]), Point([1, 1, 2]), tri)
    assert kind == "point" and t == rat("1/2")
    kind, _ = segment_simplex_meet(Point([9, 9, -2]), Point([9, 9, 2]), tri)
    assert kind == "empty"
    kind, (t0, t1) = segment_simplex_meet(Point([-2, 1, 0]), Point([6, 1, 0]), tri)
    assert kind == "segment" and t0 == rat("1/4") and t1 < 1
    assert point_in_simplex(Point([1, 1, 0]), tri)
    assert not point_in_simplex(Point([3, 3, 0]), tri)


def _segment_simplex_meet_oracle(a, b, simplex):
    """segment_simplex_meet as it was with an endpoint-sampling branch
    for two or more free directions (which the new one refuses)."""
    pts = list(simplex)
    k = len(pts)
    d = b - a
    rows, rhs = [], []
    for c in range(a.dim):
        rows.append([p[c] for p in pts] + [-d[c]])
        rhs.append(a[c])
    rows.append([1] * k + [0])
    rhs.append(1)
    sol = solution_set([row + [rv] for row, rv in zip(rows, rhs)])
    if sol is None:
        return ("empty", None)
    base, dirs = sol
    if not dirs:
        lam, t = base[:k], base[k]
        if all(v >= 0 for v in lam) and 0 <= t <= 1:
            return ("point", t)
        return ("empty", None)
    if len(dirs) > 1:
        hits = [t for t, pt in ((0, a), (1, b)) if point_in_simplex(pt, pts)]
        if len(hits) == 2:
            return ("segment", (0, 1))
        if hits:
            return ("point", hits[0])
        return ("empty", None)
    dirv = dirs[0]
    lo, hi = None, None
    constraints = [(dirv[i], -base[i]) for i in range(k)]
    constraints.append((dirv[k], -base[k]))
    constraints.append((-dirv[k], base[k] - 1))
    for coef, bound in constraints:
        if coef == 0:
            if bound > 0:
                return ("empty", None)
        elif coef > 0:
            v = bound / coef
            if lo is None or v > lo:
                lo = v
        else:
            v = bound / coef
            if hi is None or v < hi:
                hi = v
    if lo is not None and hi is not None and lo > hi:
        return ("empty", None)
    if dirv[k] == 0:
        return ("point", base[k])
    t_lo = base[k] + lo * dirv[k]
    t_hi = base[k] + hi * dirv[k]
    if t_lo > t_hi:
        t_lo, t_hi = t_hi, t_lo
    if t_lo == t_hi:
        return ("point", t_lo)
    return ("segment", (t_lo, t_hi))


def _segment_simplex_pairs(rng):
    """Random segment/simplex pairs in R^2..R^5, and planted ones: a
    segment through a point of the simplex, one lying in its flat
    through two of its points, a zero-length one, and one ending at a
    vertex."""
    dim = rng.randint(2, 5)
    k = rng.randint(2, min(3, dim + 1))
    while True:
        simplex = [rnd_point(rng, dim, 4, 2) for _ in range(k)]
        if affine_rank(simplex) == k - 1:
            break
    lam = [Fraction(rng.randint(0, 4)) for _ in range(k)]
    if not any(lam):
        lam[0] = Fraction(1)
    inside = Point([sum(w * p[c] for w, p in zip(lam, simplex)) / sum(lam)
                    for c in range(dim)])
    kind = rng.randrange(5)
    a = rnd_point(rng, dim, 4, 2)
    if kind == 0:
        b = rnd_point(rng, dim, 4, 2)
    elif kind == 1:
        # through the planted point, which may lie on either end
        b = inside + (inside - a).scale(Fraction(rng.randint(0, 4), 2))
    elif kind == 2:
        p, q = rng.sample(simplex, 2)
        s, t = Fraction(rng.randint(-2, 3), 2), Fraction(rng.randint(-2, 3), 2)
        a, b = p + (q - p).scale(s), p + (q - p).scale(t)
    elif kind == 3:
        a = b = rng.choice((inside, a))
    else:
        b = rng.choice(simplex)
    return a, b, simplex


def test_segment_simplex_meet_matches_sampling_oracle():
    rng = random.Random(1723)
    kinds = set()
    for trial in range(1500):
        a, b, simplex = _segment_simplex_pairs(rng)
        got = segment_simplex_meet(a, b, simplex)
        assert got == _segment_simplex_meet_oracle(a, b, simplex), trial
        kinds.add(got[0])
    assert kinds == {"empty", "point", "segment"}
    # three coincident vertices leave two free weights: refused, where
    # the sampling branch missed the contact at the segment's midpoint
    tri = [Point([1, 1, 0])] * 3
    a, b = Point([0, 0, 0]), Point([2, 2, 0])
    assert _segment_simplex_meet_oracle(a, b, tri) == ("empty", None)
    with pytest.raises(ValueError, match="degenerate simplex"):
        segment_simplex_meet(a, b, tri)


# ---------------------------------------------------------------------------
# integer predicates against the rational kernel

def test_homogeneous_form_and_orient2d_h():
    rng = random.Random(77)
    for _ in range(300):
        pts = [rnd_point(rng, 2, 3, 6) for _ in range(3)]
        hom = [homogeneous(p) for p in pts]
        for p, h in zip(pts, hom):
            assert h[-1] > 0
            assert Point([Fraction(x, h[-1]) for x in h[:-1]]) == p
        assert orient2d_h(*hom) == orient2d(*pts)


def _seg_contact_oracle(a, b, c, d, allowed):
    """Are closed planar segments [a, b] and [c, d] disjoint, or do they
    meet in a single point listed in allowed?  Decided on the rationals."""
    hit = seg_intersect_2d(a, b, c, d)
    return hit.kind == "empty" or (hit.kind == "point"
                                   and hit.point in allowed)


def _grid_segment_pairs():
    """1500 (points, hom, a, b, c, d): grid points make collinear,
    touching, coincident and zero-length segments common; indices say
    which endpoint two segments share."""
    rng = random.Random(78)
    for _ in range(1500):
        pts = [Point([rng.randint(0, 3), rng.randint(0, 3)])
               for _ in range(4)]
        a, b = rng.sample(range(4), 2)
        c, d = rng.sample(range(4), 2)
        yield pts, [homogeneous(p) for p in pts], a, b, c, d


def test_seg_pair_clear_h_never_contradicts_seg_intersect():
    reached = set()
    for pts, hom, a, b, c, d in _grid_segment_pairs():
        shared = {a, b} & {c, d}
        got = seg_pair_clear_h(hom, a, b, c, d)
        assert got is not None
        want = _seg_contact_oracle(pts[a], pts[b], pts[c], pts[d],
                                   [pts[k] for k in shared])
        assert got == want, (pts, a, b, c, d)
        # without permission to touch, a shared endpoint is a contact
        strict = seg_pair_clear_h(hom, a, b, c, d, allow_shared=False)
        assert strict == _seg_contact_oracle(pts[a], pts[b], pts[c],
                                             pts[d], []), (pts, a, b, c, d)
        if shared:
            assert strict is False
        zero = pts[a] == pts[b] or pts[c] == pts[d]
        reached.add((zero, len(shared), got))
    # (zero-length segment, shared indices, verdict): a zero-length
    # segment at a shared endpoint is that point, so it never collides,
    # and (0, 2) against (2, 0) is clear only on equal points
    assert reached == {(z, k, v) for z in (False, True) for k in (0, 1, 2)
                       for v in (False, True)} - {
        (True, 1, False), (True, 2, False), (False, 2, True)}


def _rational_kind(a, b, c, d):
    """The integer classifier's kind, read off the rational oracle."""
    hit = seg_intersect_2d(a, b, c, d)
    if hit.kind == "point":
        return "cross" if hit.contact == "interior-interior" else "touch"
    return None if hit.kind == "empty" else hit.kind


def test_seg_intersect_2d_kind_matches_rational_oracle():
    # the grid corpus above, zero-length and shared-index segments
    # included, reaches every kind
    kinds = set()
    for pts, hom, a, b, c, d in _grid_segment_pairs():
        want = _rational_kind(pts[a], pts[b], pts[c], pts[d])
        assert seg_kind(hom, a, b, c, d) == want, (pts, a, b, c, d)
        kinds.add(want)
    assert kinds == {None, "cross", "touch", "overlap"}


def _grid_coord():
    return st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_grid_coord(), _grid_coord()), min_size=4,
                max_size=4),
       st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_seg_intersect_2d_kind_is_invariant(coords, idx):
    # the kind does not depend on which segment comes first, on either
    # segment's direction, or on the frame: axes swapped, one negated
    hom = [homogeneous(Point(xy)) for xy in coords]
    a, b, c, d = idx
    kind = seg_kind(hom, a, b, c, d)
    assert kind == _rational_kind(*(Point(coords[i]) for i in idx))
    for order in ((c, d, a, b), (b, a, c, d), (a, b, d, c), (d, c, b, a)):
        assert seg_kind(hom, *order) == kind, order
    swapped = [(y, x, w) for x, y, w in hom]
    flipped = [(-x, y, w) for x, y, w in hom]
    assert seg_kind(swapped, a, b, c, d) == kind
    assert seg_kind(flipped, a, b, c, d) == kind


def _earclip_oracle(points, collinear=None):
    """earclip_2d's ear rule with the diagonal test a simple ring
    implies made explicit: every ear test made on the rationals, orient2d
    signs, and each cut diagonal tested against every ring edge by
    seg_intersect_2d.  Each ring edge on the diagonal's line that the
    diagonal meets is appended to collinear."""
    n = len(points)
    area2 = sum(points[i][0] * points[(i + 1) % n][1]
                - points[(i + 1) % n][0] * points[i][1] for i in range(n))
    turn = (area2 > 0) - (area2 < 0)
    if turn == 0:
        raise ValueError("polygon has zero area")

    def inside(p, a, b, c):
        return all(orient2d(u, v, p) * turn >= 0
                   for u, v in ((a, b), (b, c), (c, a)))

    def diagonal_clear(ring, ia, ic):
        m = len(ring)
        for k in range(m):
            u, v = ring[k], ring[(k + 1) % m]
            hit = seg_intersect_2d(points[ia], points[ic], points[u],
                                   points[v])
            if hit.kind == "empty":
                continue
            if collinear is not None and orient2d(
                    points[ia], points[ic], points[u]) == 0 == orient2d(
                    points[ia], points[ic], points[v]):
                collinear.append((ia, ic, u, v))
            if hit.kind == "overlap":
                return False
            if u in (ia, ic) or v in (ia, ic):
                shared = points[u] if u in (ia, ic) else points[v]
                if hit.point == shared:
                    continue
            return False
        return True

    ring = list(range(n))
    tris = []
    scan_from = 0
    while len(ring) > 3:
        m = len(ring)
        for off in range(m):
            i = (scan_from + off) % m
            ia, ib, ic = ring[(i - 1) % m], ring[i], ring[(i + 1) % m]
            pa, pb, pc = points[ia], points[ib], points[ic]
            if orient2d(pa, pb, pc) != turn:
                continue
            if any(inside(points[j], pa, pb, pc)
                   for j in ring if j not in (ia, ib, ic)):
                continue
            if not diagonal_clear(ring, ia, ic):
                continue
            tris.append((ia, ib, ic))
            ring.pop(i)
            scan_from = (i - 1) % len(ring)
            break
        else:
            raise ValueError("no ear found; polygon is not simple")
    a, b, c = ring
    if orient2d(points[a], points[b], points[c]) != turn:
        raise ValueError("final triangle degenerate; polygon is not simple")
    tris.append((a, b, c))
    return tris


def test_earclip_refuses_bad_input_by_message():
    square = [homogeneous(Point(xy)) for xy in
              ((0, 0), ("1/2", 0), ("1/2", "1/3"), (0, "1/3"))]
    assert earclip_2d(square) == [(3, 0, 1), (1, 2, 3)]
    for hom, message in (
            (square[:2], "need at least 3 points"),
            ([homogeneous(Point([x, 0, 1])) for x in range(3)],
             "earclip works on planar points"),
            ([homogeneous(Point([x, 2 * x])) for x in range(4)],
             "polygon has zero area")):
        with pytest.raises(ValueError, match=message):
            earclip_2d(hom)


def test_earclip_integer_ear_test_matches_rational_oracle():
    # grid polygons ordered by angle around a point, so most are simple
    # and many have collinear runs, repeated directions and vertices
    # touching edges; a shuffled order gives non-simple ones too.  On a
    # simple ring the ears are the oracle's, whose diagonal test the
    # corpus must see meet edges on the diagonal's line.  A non-simple
    # ring is refused by the ear rule or, when its ears still make n - 2
    # triangles, by the certificate of their disk.
    rng = random.Random(2002)
    collinear = []
    seen = set()
    for trial in range(250):
        n = rng.randint(4, 10)
        cx, cy = rng.randint(0, 6), rng.randint(0, 6)
        pts = [Point([rng.randint(0, 6), Fraction(rng.randint(0, 12), 2)])
               for _ in range(n)]
        if rng.random() < 0.8:
            pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        else:
            rng.shuffle(pts)
        if any(pts[i] == pts[(i + 1) % n] for i in range(n)):
            continue
        poly = ClosedPolygon(pts)
        if validate_embedded(poly) is None:
            want = _earclip_oracle(pts, collinear)
            assert earclip_2d(poly.hom) == want, (trial, pts)
            seen.add("simple")
            continue
        try:
            earclip_2d(poly.hom)
        except ValueError:
            seen.add("refused by the ear rule")
            continue
        with pytest.raises(CertificateError):
            earclip_disk(poly)
        seen.add("refused by the certificate")
    assert len(seen) == 3, seen
    assert collinear


# ---------------------------------------------------------------------------
# candidate pairs: the one sweep against all pairs

def _box(*points):
    return [Point(p) for p in points]


def _sweep_both(groups, split=None):
    """(overlapping_pairs on the groups' key boxes, brute_pairs on their
    exact rational boxes); each group a list of Points.  The sweep runs
    however few the boxes, and must find the pairs that testing every
    pair of key boxes finds."""
    import plspan.geom as geom_mod
    points = [p for g in groups for p in g]
    hom = [homogeneous(p) for p in points]
    index, at = [], 0
    size = max([2] + [len(g) for g in groups])
    for g in groups:
        # groups padded to one size by repeating their first point
        index.append([at] * (size - len(g)) + list(range(at, at + len(g))))
        at += len(g)
    boxes = key_boxes(hom, index)
    assert all(lo <= hi for box in boxes for lo, hi in zip(*box))
    got = overlapping_pairs(boxes, split=split)
    least = geom_mod.SWEEP_MIN_BOXES
    geom_mod.SWEEP_MIN_BOXES = 2
    try:
        assert overlapping_pairs(boxes, split=split) == got
    finally:
        geom_mod.SWEEP_MIN_BOXES = least
    return got, brute_pairs([box_h([homogeneous(p) for p in g])
                             for g in groups], split)


@st.composite
def _box_lists(draw):
    # corners on a small grid with mixed denominators, so that zero-width
    # boxes, shared faces and equal low ends (also as unequal numerator,
    # denominator pairs such as 1/1 and 2/2, or 2/3 and 4/6) are common
    dim = draw(st.integers(1, 5))
    coord = st.builds(Fraction, st.integers(-2, 6), st.sampled_from((1, 2, 3)))
    corner = st.lists(coord, min_size=dim, max_size=dim)
    return [_box(*pts) for pts in draw(st.lists(
        st.lists(corner, min_size=1, max_size=3), max_size=9))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_box_lists())
@example([])
@example([_box((1, 2))])
@example([_box((1, 1)), _box((1, 1)), _box((0, 1), (2, 1))])
@example([_box((0, 0), (1, 1)), _box((1, 0), (2, 1)), _box((1, 1), (2, 2)),
          _box((2, 2), (3, 3))])
@example([_box((0, 0), (1, 1)), _box((0, 2), (1, 3)), _box((0, 1), (4, 1)),
          _box((0, 5), (0, 5))])
@example([_box((0,), (1,)), _box((1,), (2,)), _box((Fraction(3, 2),)),
          _box((3,))])
def test_overlapping_pairs_matches_all_pairs(boxes):
    got, want = _sweep_both(boxes)
    assert got == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_box_lists(), st.integers(0, 9))
@example([_box((0, 0), (1, 1)), _box((0, 0), (1, 1))], 2)  # empty second
@example([_box((0, 0), (1, 1)), _box((0, 0), (1, 1))], 0)  # empty first
@example([_box((0,), (2,)), _box((1,), (3,)), _box((1,), (2,))], 1)
def test_overlapping_pairs_split_matches_cross_pairs(boxes, split):
    # two lists: the pairs inside the first and across, none inside the
    # second, still in lexicographic order
    split = min(split, len(boxes))
    got, want = _sweep_both(boxes, split)
    assert got == want


def test_overlapping_pairs_sweeps_each_axis():
    # boxes long along some axes and short along the others: the sweep
    # takes the axis with the fewest overlapping intervals, every axis
    # gets taken, and the pairs are those of all-pairs testing, with and
    # without split, whichever axis is swept
    rng = random.Random(31)
    for dim in (2, 3, 4):
        taken = set()
        for trial in range(60):
            short = rng.randrange(dim)
            groups = []
            for _ in range(rng.randint(2, 30)):
                base = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                        for _ in range(dim)]
                span = [Fraction(rng.randint(0, 2), rng.choice((1, 2)))
                        if k == short else Fraction(rng.randint(4, 12))
                        for k in range(dim)]
                far = [b + w for b, w in zip(base, span)]
                groups.append(_box(base, far) if rng.random() < 0.9
                              else _box(base))
            hom = [homogeneous(p) for g in groups for p in g]
            at, index = 0, []
            for g in groups:
                index.append([at, at + len(g) - 1])
                at += len(g)
            taken.add(sweep_axis(key_boxes(hom, index)))
            split = rng.randint(0, len(groups))
            for cut in (None, split):
                got, want = _sweep_both(groups, cut)
                assert got == want, (dim, trial, cut)
        assert taken == set(range(dim)), (dim, taken)
