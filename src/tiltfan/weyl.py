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
transpose would give the dual type).  A Cartan row has few nonzero entries
off the diagonal (at most three in finite type), so the search is handed
them once per enumeration, and each crossing sums over those alone.  The
search interns each ray once: an element is the tuple of its ray ids in
generator order, into a table of the distinct rays.  The descents are read
off one bitmask of positive coordinates per ray.  The functions that need
the whole group accept an already finished enumeration (ray table,
elements, neighbour table), so one enumeration can serve a fan and its
descents; without one they check finiteness before they enumerate.  The
roots need no group: finiteness is read off the Cartan data.
"""

from collections import namedtuple
from math import inf, lcm

from . import lattice as la
from .errors import (NotFiniteType, TiltfanError, check_schema_version, parse_array,
                     parse_int, reading)
from .fan import BudgetExhausted, fan_from_ids, wall_crossing_search


class CartanData(namedtuple("CartanData", "c d")):
    """The rows `c` of a Cartan matrix C and its diagonal symmetrizer `d`,
    with C D symmetric; checked on construction."""

    __slots__ = ()

    def __new__(cls, c, d):
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
        return super().__new__(cls, c, d)

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
        check_schema_version(data)
        if "type" in data:
            if "C" in data or "D" in data:
                raise ValueError('give either "type" and "n" or "C" and "D", not both')
            return cartan_preset(data["type"], parse_int(data["n"]))
        c = tuple(tuple(map(parse_int, parse_array(row, "a row of C")))
                  for row in parse_array(data["C"], "C"))
        return CartanData(c, tuple(map(parse_int, parse_array(data["D"], "D"))))


def _crossed_ray(terms, rays, k):
    """Row k of s_k M_w^-1, -r_k - sum_{j != k} c_kj r_j, where rays are the
    rows of M_w^-1 and terms[k] lists the (j, c_kj) with c_kj != 0, j != k."""
    out = [-x for x in rays[k]]
    for j, c in terms[k]:
        out = [x - c * y for x, y in zip(out, rays[j])]
    return tuple(out)


def weyl_enumerate(cartan, budget=2_000_000):
    """(rays, elements, across): every element w as the rows of M_w^-1, its
    chamber's rays in generator order, held as ids into the ray table
    `rays`, found by crossing walls from the identity in breadth-first
    order, and the search's neighbour table (across[i][k] is the index of
    w_i s_k).

    Returns BudgetExhausted, with the partial fan of the chambers found,
    when the group fails to close within the budget (non-finite type).
    """
    terms = tuple(tuple((j, x) for j, x in enumerate(row) if x and j != k)
                  for k, row in enumerate(cartan.c))
    return wall_crossing_search(la.identity(cartan.n), _crossed_ray, budget, terms)


def _finite_elements(cartan, elements):
    """The given enumeration, which must have closed, else a fresh one of a
    group that `require_finite_type` admits, with no budget: a finite group
    closes, however large (|W(E8)| = 696,729,600)."""
    if elements is None:
        require_finite_type(cartan)
        return weyl_enumerate(cartan, budget=inf)
    if isinstance(elements, BudgetExhausted):
        raise NotFiniteType(f"Weyl group did not close within {elements.budget} elements")
    return elements


def coxeter_fan(cartan, elements=None):
    """Fan of Weyl chambers in dominant-weight coordinates; |W| chambers.

    `elements` is the output of `weyl_enumerate`, whose ray table, elements
    and neighbour table go to `fan_from_ids`; without it the group is
    enumerated here.
    """
    return fan_from_ids(*_finite_elements(cartan, elements))


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
    g = cartan.gram()
    norm = {r: la.dot(r, la.matvec(g, r)) for r in roots}
    min_norm = min(norm.values())
    short = {r for r, x in norm.items() if x == min_norm}
    return roots, short


def descent_histogram(cartan, elements=None):
    """W-Eulerian numbers: counts of elements by number of left descents.

    s_i is a descent of w iff w^{-1}(alpha_i) is a negative root, that is
    iff no ray of w's chamber (row of M_w^-1) has a positive coordinate i.
    Each ray's positive coordinates are one bitmask, so the number of
    descents of w is n minus the popcount of the OR of its rays' masks.
    `elements` is the output of `weyl_enumerate`, as for `coxeter_fan`.
    """
    rays, elements, _across = _finite_elements(cartan, elements)
    n = cartan.n
    positive = [sum(1 << i for i, x in enumerate(r) if x > 0) for r in rays]
    hist = [0] * (n + 1)
    for w in elements:
        mask = 0
        for t in w:
            mask |= positive[t]
        hist[n - mask.bit_count()] += 1
    return tuple(hist)
