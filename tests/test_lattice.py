from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from tiltfan import lattice as la
from tiltfan.errors import DetNotUnit, ZeroVector


def test_determinant_examples():
    assert la.determinant(((1, 0), (2, 1))) == 1
    assert la.determinant(((0, 2), (-2, 0))) == 4
    assert la.determinant(((2, 0), (0, 1))) == 2


def test_determinant_singular_and_empty():
    assert la.determinant(((1, 2), (2, 4))) == 0
    assert la.determinant(()) == 1


def test_invert_unimodular():
    ident = la.identity(3)
    assert la.invert_unimodular(ident) == ident
    m = ((-1, 0), (2, 1))
    assert la.invert_unimodular(m) == m  # involution: m * m = id
    assert la.matmul(m, m) == la.identity(2)
    with pytest.raises(DetNotUnit):
        la.invert_unimodular(((2, 0), (0, 1)))


def test_primitive():
    assert la.primitive((2, -4)) == (1, -2)
    assert la.primitive((0, -3)) == (0, -1)
    assert la.primitive((1, -2)) == (1, -2)  # idempotent
    with pytest.raises(ZeroVector):
        la.primitive((0, 0))


unimodular_elementary = st.sampled_from(
    [(i, j, c) for i in range(3) for j in range(3) if i != j for c in (-2, -1, 1, 2)]
)


@given(st.lists(unimodular_elementary, min_size=0, max_size=6))
def test_invert_unimodular_on_random_products(ops):
    m = la.identity(3)
    for i, j, c in ops:
        e = [list(r) for r in la.identity(3)]
        e[i][j] = c
        m = la.matmul(m, tuple(tuple(r) for r in e))
    assert la.determinant(m) in (1, -1)
    assert la.matmul(la.invert_unimodular(m), m) == la.identity(3)


@given(st.lists(st.integers(-30, 30), min_size=3, max_size=3))
def test_primitive_idempotent(entries):
    v = tuple(entries)
    if all(x == 0 for x in v):
        return
    p = la.primitive(v)
    assert la.primitive(p) == p


def test_kernel_functional():
    f = la.kernel_functional([(1, 0, 0), (0, 1, 0)], 3)
    assert f in ((0, 0, 1), (0, 0, -1))
    f = la.kernel_functional([(1, 1)], 2)
    assert la.dot(f, (1, 1)) == 0


# -- the elimination kernel against a textbook Fraction elimination ------------


def ref_rref(rows, ncols):
    """Gauss-Jordan over Fractions with unit pivots: (rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
    return a, piv


def ref_det(m):
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * ref_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def ref_inverse(m):
    n = len(m)
    a, piv = ref_rref([list(row) + list(e) for row, e in zip(m, la.identity(n))], n)
    assert len(piv) == n
    return tuple(tuple(int(x) for x in row[n:]) for row in a)


def ref_solve(m, rhs):
    cols_n = len(m[0])
    a, piv = ref_rref([list(row) + [b] for row, b in zip(m, rhs)], cols_n)
    if len(piv) < cols_n or any(row[cols_n] for row in a[len(piv):]):
        return None
    return tuple(row[cols_n] for row in a[:cols_n])


def ref_kernel(rows, n):
    """The primitive kernel vector with last nonzero entry positive, or None
    when the kernel is not a line."""
    a, piv = ref_rref(rows, n)
    free = [c for c in range(n) if c not in piv]
    if len(free) != 1:
        return None
    sol = [Fraction(0)] * n
    sol[free[0]] = Fraction(1)
    for i, c in enumerate(piv):
        sol[c] = -a[i][free[0]]
    den = 1
    for x in sol:
        den = den * x.denominator // gcd(den, x.denominator)
    v = [int(x * den) for x in sol]
    g = 0
    for x in v:
        g = gcd(g, x)
    last = [x for x in v if x][-1]
    return tuple(x // g if last > 0 else -x // g for x in v)


@st.composite
def unimodular(draw, max_rank=6):
    """Products of elementary row operations, row negations and a row permutation."""
    n = draw(st.integers(1, max_rank))
    m = [list(row) for row in la.identity(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        m[i] = [-x for x in m[i]] if i == j else [x + c * y for x, y in zip(m[i], m[j])]
    return la.mat([m[k] for k in draw(st.permutations(range(n)))])


def small_matrix(rows, cols, bound=3):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(la.mat)


@st.composite
def dependent_rows(draw, rows, cols):
    """Matrix whose last row is an integer combination of the others."""
    m = list(draw(small_matrix(rows - 1, cols)))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=rows - 1, max_size=rows - 1))
    m.append(tuple(sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(cols)))
    return la.mat(m), coeffs


@given(unimodular())
def test_invert_unimodular_matches_reference(m):
    inv = la.invert_unimodular(m)
    assert inv == ref_inverse(m)
    assert la.matmul(m, inv) == la.identity(len(m))


@given(st.integers(1, 5).flatmap(lambda n: small_matrix(n, n)))
def test_invert_unimodular_on_random_matrices(m):
    det = ref_det(m)
    if det in (1, -1):
        assert la.invert_unimodular(m) == ref_inverse(m)
    else:
        with pytest.raises(DetNotUnit, match=f"^determinant is {det}, not a unit$"):
            la.invert_unimodular(m)


@given(st.integers(2, 6).flatmap(lambda n: dependent_rows(n, n)), st.randoms())
def test_invert_unimodular_rejects_singular(m_coeffs, rnd):
    m = list(m_coeffs[0])
    rnd.shuffle(m)
    with pytest.raises(DetNotUnit, match="^determinant is 0, not a unit$"):
        la.invert_unimodular(tuple(m))


@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rc: st.tuples(small_matrix(*rc), small_matrix(1, rc[0]).map(lambda v: v[0]))
    )
)
def test_solve_exact_matches_reference(m_rhs):
    m, rhs = m_rhs
    assert la.solve_exact(m, rhs) == ref_solve(m, rhs)


@given(unimodular(), st.data())
def test_solve_exact_on_unimodular_systems(m, data):
    rhs = data.draw(small_matrix(1, len(m), bound=9))[0]
    x = la.solve_exact(m, rhs)
    assert x == ref_solve(m, rhs)
    assert all(v.denominator == 1 for v in x)
    assert la.matvec(m, x) == rhs


@given(
    st.integers(2, 5).flatmap(lambda n: dependent_rows(n, n - 1)),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.integers(1, 3),
)
def test_solve_exact_inconsistent_is_none(m_coeffs, b, delta):
    m, coeffs = m_coeffs
    rhs = b[: len(m) - 1]
    rhs.append(sum(c * x for c, x in zip(coeffs, rhs)) + delta)
    assert la.solve_exact(m, tuple(rhs)) is None


@given(unimodular(), st.data())
def test_kernel_functional_of_hyperplanes(m, data):
    n = len(m)
    if n == 1:
        return
    # integer combinations of n - 1 independent rows span a hyperplane
    base = m[: n - 1]
    k = data.draw(st.integers(n - 1, n + 1))
    coeffs = data.draw(small_matrix(k, n - 1))
    if la.determinant(coeffs[: n - 1]) == 0:
        return
    rows = [tuple(sum(c * r[j] for c, r in zip(row, base)) for j in range(n)) for row in coeffs]
    f = la.kernel_functional(rows, n)
    assert f == ref_kernel(rows, n)
    assert all(la.dot(f, r) == 0 for r in base)
    assert [x for x in f if x][-1] > 0


@given(
    st.tuples(st.integers(0, 5), st.integers(1, 5)).flatmap(lambda kn: small_matrix(*kn)),
    st.integers(1, 5),
)
def test_kernel_functional_matches_reference(rows, n):
    rows = [row[:n] + (0,) * (n - len(row)) for row in rows]
    expected = ref_kernel(rows, n)
    if expected is None:
        with pytest.raises(ValueError, match="corank"):
            la.kernel_functional(rows, n)
    else:
        f = la.kernel_functional(rows, n)
        assert f == expected
        assert [x for x in f if x][-1] > 0


def test_kernel_functional_sign_convention():
    assert la.kernel_functional([(1, 1)], 2) == (-1, 1)
    assert la.kernel_functional([(-2, 0, 0), (0, 0, 3)], 3) == (0, 1, 0)
    assert la.kernel_functional([(0, 3, 0), (0, 0, -1)], 3) == (1, 0, 0)
    assert la.kernel_functional([], 1) == (1,)
    with pytest.raises(ValueError, match="corank 2"):
        la.kernel_functional([(1, 0, 0)], 3)
    with pytest.raises(ValueError, match="corank 0"):
        la.kernel_functional([(1, 0), (0, 1)], 2)


@given(st.integers(0, 5).flatmap(lambda n: small_matrix(n, n)))
def test_determinant_matches_laplace(m):
    assert la.determinant(m) == ref_det(m)


@given(st.integers(1, 5).flatmap(lambda n: small_matrix(n, n)))
def test_scaled_inverse_is_the_adjugate(m):
    det = ref_det(m)
    got = la.scaled_inverse(m)
    if det == 0:
        assert got is None
    else:
        inv = ref_rref([list(row) + list(e) for row, e in zip(m, la.identity(len(m)))], len(m))[0]
        assert got == (det, tuple(tuple(det * x for x in row[len(m):]) for row in inv))


@given(st.tuples(st.integers(0, 5), st.integers(1, 5)).flatmap(lambda rc: small_matrix(*rc)))
def test_rank_matches_reference(rows):
    n = len(rows[0]) if rows else 1
    assert la.rank(rows, n) == len(ref_rref(rows, n)[1])


def test_non_square_is_rejected():
    with pytest.raises(ValueError, match="non-square"):
        la.determinant(((1, 2),))
    with pytest.raises(ValueError, match="non-square"):
        la.scaled_inverse(((1, 2),))
