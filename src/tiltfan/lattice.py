"""Exact integer and rational linear algebra on plain tuples.

Vectors are tuples of ints, matrices are tuples of row tuples.  Everything
is arbitrary precision; no floats anywhere.  Elimination is fraction-free
on integers; only the result of `solve_exact` is made of Fractions.
"""

from math import gcd
from operator import mul

from .errors import DetNotUnit, ZeroVector


def mat(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    """The transpose, as a tuple of tuples: the columns of a row-major
    matrix, or the matrix whose columns are the vectors m; () for no rows."""
    return tuple(zip(*m)) if m else ()


def matvec(m, v):
    return tuple(dot(r, v) for r in m)


def matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def vadd(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vsub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vneg(v):
    return tuple(-x for x in v)


def vscale(c, v):
    return tuple(c * x for x in v)


def dot(u, v):
    return sum(map(mul, u, v))


def is_zero(v):
    return all(x == 0 for x in v)


def primitive(v):
    """Divide an integer vector by the gcd of its entries, keeping signs."""
    if is_zero(v):
        raise ZeroVector("cannot normalize the zero vector")
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    piv_cols, d, sign = _eliminate([list(row) for row in m], n)
    return sign * d if len(piv_cols) == n else 0


def _eliminate(a, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in place.

    Pivots go down columns 0..ncols-1, each in the first nonzero row at or
    below the current one.  Every step divides exactly by the previous pivot,
    so all entries stay integers.  At the end the k-th row carries the k-th
    pivot, every pivot entry equals the last pivot d (1 if there is none),
    other pivot columns are zero, and so are the rows without a pivot left of
    ncols.  Returns (pivot columns, d, sign of the row permutation).
    """
    piv_cols = []
    prev = sign = 1
    for c in range(ncols):
        r = len(piv_cols)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        d = top[c]
        for i, row in enumerate(a):
            if i == r:
                continue
            f = row[c]
            if f:
                a[i] = [(d * x - f * y) // prev for x, y in zip(row, top)]
            elif d != prev:
                a[i] = [d * x // prev for x in row]
        piv_cols.append(c)
        prev = d
        if r + 1 == len(a):
            break
    return piv_cols, prev, sign


def solve_exact(m, rhs):
    """Solve m x = rhs over the rationals; None if singular or inconsistent."""
    from fractions import Fraction

    cols_n = len(m[0]) if m else 0
    a = [list(row) + [b] for row, b in zip(m, rhs)]
    piv_cols, d, _sign = _eliminate(a, cols_n)
    if len(piv_cols) < cols_n or any(row[cols_n] for row in a[len(piv_cols):]):
        return None
    return tuple(Fraction(row[cols_n], d) for row in a[:cols_n])


def pivot_columns(rows, ncols):
    """Indices of the columns of the integer matrix with the given rows and
    ncols columns that are not in the span of the columns left of them."""
    return _eliminate([list(row) for row in rows], ncols)[0]


def rank(rows, ncols):
    """Rank of the integer matrix with the given rows and ncols columns."""
    return len(pivot_columns(rows, ncols))


def scaled_inverse(m):
    """(det m, det m * m^-1) as integers for a square matrix m; None if singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    piv_cols, d, sign = _eliminate(a, n)
    if len(piv_cols) < n:
        return None
    # the row operations took [m | 1] to [d 1 | d m^-1], and det m = sign * d
    return sign * d, tuple(tuple(sign * x for x in row[n:]) for row in a)


def invert_unimodular(m):
    """Integer inverse of a matrix with determinant +-1."""
    det, adj = scaled_inverse(m) or (0, None)
    if det not in (1, -1):
        raise DetNotUnit(f"determinant is {det}, not a unit")
    return adj if det == 1 else tuple(tuple(-x for x in row) for row in adj)


def kernel_functional(rows, n):
    """Primitive integer functional vanishing on the span of `rows` in rank n.

    `rows` must span a hyperplane (rank n-1).  The sign is fixed: the last
    nonzero entry is positive.
    """
    a = [list(row) for row in rows]
    piv_cols, d, _sign = _eliminate(a, n)
    free = [c for c in range(n) if c not in piv_cols]
    if len(free) != 1:
        raise ValueError(f"span has corank {len(free)}, expected a hyperplane")
    c0 = free[0]
    s = 1 if d > 0 else -1
    sol = [0] * n
    sol[c0] = s * d
    for i, c in enumerate(piv_cols):
        sol[c] = -s * a[i][c0]
    return primitive(tuple(sol))
