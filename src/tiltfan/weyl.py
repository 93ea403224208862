"""Symmetrizable Cartan matrices, Weyl chambers by wall crossing, Coxeter
fans, root systems and descent statistics.

Everything is computed in the simple-root basis: the reflection s_i sends
alpha_j to alpha_j - c_ij alpha_i, and the Coxeter fan lives in the dual
basis, so the chamber of w has ray matrix (M_w^T)^{-1}: its rays are the
rows r_1, ..., r_n of M_w^{-1}, r_k opposite the wall of s_k.

The group is enumerated as its chambers, with no group matrices or words:
`fan.wall_crossing_search` crosses wall k from the chamber of w to that of
w s_k, and (M_w s_k)^{-1} = s_k M_w^{-1} changes only row k, to
r_k' = -r_k - sum_{j != k} c_kj r_j, with c_kj read from row k of C (the
transpose would give the dual type).  Each element is its tuple of rays in
generator order; the descents are read off its columns.  The functions that
need the whole group accept an already enumerated element list, so one
enumeration can serve a fan and its descents.  The roots need no group:
finiteness is read off the Cartan data.
"""

from dataclasses import dataclass
from math import lcm

from . import lattice as la
from .errors import NotFiniteType, TiltfanError, parse_int, reading
from .fan import BudgetExhausted, fan_from_cones, wall_crossing_search


@dataclass(frozen=True)
class CartanData:
    c: tuple  # rows of the Cartan matrix
    d: tuple  # diagonal symmetrizer, C D symmetric

    def __post_init__(self):
        c, d = self.c, self.d
        n = len(c)
        if n < 1:
            raise TiltfanError("rank must be >= 1")
        if any(len(row) != n for row in c) or len(d) != n:
            raise TiltfanError("Cartan matrix and symmetrizer sizes disagree")
        for i in range(n):
            if c[i][i] != 2:
                raise TiltfanError("diagonal entries must equal 2")
            if d[i] < 1:
                raise TiltfanError("symmetrizer entries must be positive")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise TiltfanError("off-diagonal entries must be nonpositive")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise TiltfanError("zero pattern must be symmetric")
                if c[i][j] * d[j] != c[j][i] * d[i]:
                    raise TiltfanError("C D is not symmetric")

    @property
    def n(self):
        return len(self.c)

    def reflection(self, i):
        """Matrix of s_i on the simple-root basis (columns are images)."""
        n = self.n
        return tuple(
            tuple((1 if r == j else 0) - (self.c[i][j] if r == i else 0) for j in range(n))
            for r in range(n)
        )

    def gram(self):
        """Integer Gram matrix of the W-invariant form: lcm(d) * D^{-1} C."""
        k = lcm(*self.d)
        return tuple(
            tuple(k * self.c[i][j] // self.d[i] for j in range(self.n)) for i in range(self.n)
        )

    def norm(self, v):
        g = self.gram()
        return sum(v[i] * g[i][j] * v[j] for i in range(self.n) for j in range(self.n))


def cartan_preset(type_, n):
    """Cartan data of type A_n (symmetrizer 1) or B_n (last entry doubled)."""
    if type_ not in ("A", "B", "a", "b"):
        raise TiltfanError(f"unknown preset type {type_!r}")
    if n < 1:
        raise TiltfanError("rank must be >= 1")
    c = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    if type_.upper() == "A":
        return CartanData(la.mat(c), tuple([1] * n))
    if n >= 2:
        c[n - 1][n - 2] = -2
    d = [1] * n
    d[n - 1] = 2 if n >= 2 else 1
    return CartanData(la.mat(c), tuple(d))


def cartan_from_json(data):
    with reading("not Cartan data"):
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        if "type" in data:
            return cartan_preset(data["type"], parse_int(data["n"]))
        c = tuple(tuple(map(parse_int, row)) for row in data["C"])
        return CartanData(c, tuple(map(parse_int, data["D"])))


def _crossed_ray(c, rays, k):
    """Row k of s_k M_w^-1, r_k - sum_j c_kj r_j, where rays are the rows of
    M_w^-1 (c_kk = 2 makes it -r_k - sum_{j != k} c_kj r_j)."""
    return tuple(x - la.dot(c[k], col) for x, col in zip(rays[k], zip(*rays)))


def weyl_enumerate(cartan, budget=2_000_000):
    """Every element w as the rows of M_w^-1, its chamber's rays in generator
    order, found by crossing walls from the identity in breadth-first order.

    Returns BudgetExhausted, with the partial fan of the chambers found,
    when the group fails to close within the budget (non-finite type).
    """
    return wall_crossing_search(la.identity(cartan.n), _crossed_ray, budget, cartan.c)


def _finite_elements(cartan, budget, elements):
    """The given element list, else a fresh enumeration that must close."""
    if elements is None:
        elements = weyl_enumerate(cartan, budget)
    if isinstance(elements, BudgetExhausted):
        raise NotFiniteType(f"Weyl group did not close within {elements.budget} elements")
    return elements


def coxeter_fan(cartan, budget=2_000_000, elements=None):
    """Fan of Weyl chambers in dominant-weight coordinates; |W| chambers.

    `elements` is the output of `weyl_enumerate`; without it the group is
    enumerated here under `budget`.
    """
    elements = _finite_elements(cartan, budget, elements)
    return fan_from_cones(elements, la.identity(cartan.n), require_complete=True)


def require_finite_type(cartan):
    """Raise NotFiniteType unless the Weyl group is finite.

    It is finite iff the symmetric matrix C D is positive definite, that is
    (Sylvester) iff every leading principal minor of C D is positive.
    """
    cd = [[x * dj for x, dj in zip(row, cartan.d)] for row in cartan.c]
    for k in range(1, cartan.n + 1):
        minor = la.determinant([row[:k] for row in cd[:k]])
        if minor <= 0:
            raise NotFiniteType(
                f"not of finite type: leading principal minor {k} of C D is {minor}"
            )


def root_system(cartan):
    """(all roots, short roots) as vectors in the simple-root basis."""
    require_finite_type(cartan)
    n = cartan.n
    gens = [cartan.reflection(i) for i in range(n)]
    roots = {tuple(1 if i == j else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                r2 = la.matvec(g, r)
                if r2 not in roots:
                    roots.add(r2)
                    nxt.append(r2)
        frontier = nxt
    min_norm = min(cartan.norm(r) for r in roots)
    short = {r for r in roots if cartan.norm(r) == min_norm}
    return roots, short


def descent_histogram(cartan, budget=2_000_000, elements=None):
    """W-Eulerian numbers: counts of elements by number of left descents.

    s_i is a descent of w iff w^{-1}(alpha_i) is a negative root.
    """
    elements = _finite_elements(cartan, budget, elements)
    n = cartan.n
    hist = [0] * (n + 1)
    for w in elements:
        cols = la.columns(w)
        des = sum(1 for c in cols if all(x <= 0 for x in c))
        hist[des] += 1
    return tuple(hist)


def short_root_polytope(cartan):
    """Convex hull of the short roots in simple-root coordinates."""
    from .polytope import convex_hull

    _roots, short = root_system(cartan)
    return convex_hull(sorted(short))
