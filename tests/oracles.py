"""Rational reference implementations shared by the tests.

plspan decides these questions another way, or no longer needs them;
the tests keep them to check the package's answers against.
"""

from plspan.geom import ONE, ZERO, AffineMap, rref, solution_set


def affine_inverse(am: AffineMap) -> AffineMap:
    """The inverse affine map, by rational Gauss-Jordan elimination of
    [M | I]; raises ValueError for a singular M."""
    n = am.dim
    aug = [list(am.matrix[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    inv = [row[n:] for row in red]
    t = [-sum(inv[i][k] * am.shift[k] for k in range(n)) for i in range(n)]
    return AffineMap(inv, t)


def point_in_simplex(p, simplex) -> bool:
    """Exact closed-containment test for any nondegenerate simplex."""
    pts = list(simplex)
    k = len(pts)
    rows = [[q[c] for q in pts] for c in range(p.dim)]
    rows.append([ONE] * k)
    rhs = list(p.coords) + [ONE]
    sol = solution_set([row + [rv] for row, rv in zip(rows, rhs)])
    if sol is None:
        return False
    lam, dirs = sol
    if dirs:
        raise ValueError("degenerate simplex")
    return all(v >= 0 for v in lam)
