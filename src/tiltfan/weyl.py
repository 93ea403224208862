"""Symmetrizable Cartan matrices, Weyl group enumeration, Coxeter fans,
root systems and descent statistics.

Everything is computed in the simple-root basis: the reflection s_i sends
alpha_j to alpha_j - c_ij alpha_i, and the Coxeter fan lives in the dual
basis, so the chamber of w has ray matrix (M_w^T)^{-1}.

The enumeration also returns the inverse of each element: it reaches w s_i
from w, and (M_w s_i)^{-1} = s_i M_w^{-1} since s_i is an involution.  The
inverses are built only once the group has closed, so a search that runs
out of budget pays for no more than the matrices and words.  The chamber
rays are the rows of M_w^{-1} and the descents are read off its columns,
with no inversion per element.  The functions that need the whole group
accept an already enumerated element list, so one enumeration can serve a
fan, its descents and its roots.
"""

from dataclasses import dataclass
from math import lcm

from . import lattice as la
from .errors import NotFiniteType, TiltfanError, parse_int, reading
from .fan import BudgetExhausted, fan_from_cones


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


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple  # action on the simple-root basis
    word: tuple  # one shortest word of generator indices (1-based)
    inverse: tuple  # matrix of the inverse element

    @property
    def length(self):
        return len(self.word)


def weyl_enumerate(cartan, budget=2_000_000):
    """BFS over right multiplication by the generators, deduplicated by matrix.

    Returns all elements with shortest words, or BudgetExhausted when the
    group fails to close within the budget (non-finite type).
    """
    n = cartan.n
    gens = [cartan.reflection(i) for i in range(n)]
    identity = la.identity(n)
    elements = {identity: ((), None)}  # matrix -> (word, matrix it was reached from)
    frontier = [identity]
    while frontier:
        nxt = []
        for k, m in enumerate(frontier):
            word = elements[m][0]
            for i in range(n):
                m2 = la.matmul(m, gens[i])
                if m2 not in elements:
                    if len(elements) >= budget:
                        # m itself, the rest of its level and the next
                        # level found so far
                        unexpanded = len(frontier) - k + len(nxt)
                        return BudgetExhausted(len(elements), unexpanded, budget)
                    elements[m2] = (word + (i + 1,), m)
                    nxt.append(m2)
        frontier = nxt
    # (M_w s_i)^-1 = s_i M_w^-1, in BFS order so every parent comes first
    inverses = {}
    result = []
    for m, (word, parent) in elements.items():
        inverses[m] = la.matmul(gens[word[-1] - 1], inverses[parent]) if word else identity
        result.append(WeylElement(m, word, inverses[m]))
    return result


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
    cones = {frozenset(w.inverse) for w in elements}  # the columns of (M_w^T)^{-1}
    if len(cones) != len(elements):
        raise AssertionError("distinct Weyl elements produced equal chambers")
    return fan_from_cones(cones, la.identity(cartan.n), require_complete=True)


def root_system(cartan, budget=2_000_000, elements=None):
    """(all roots, short roots) as vectors in the simple-root basis."""
    _finite_elements(cartan, budget, elements)
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
        cols = la.columns(w.inverse)
        des = sum(1 for c in cols if all(x <= 0 for x in c))
        hist[des] += 1
    return tuple(hist)


def short_root_polytope(cartan, budget=2_000_000):
    """Convex hull of the short roots in simple-root coordinates."""
    from .polytope import convex_hull

    _roots, short = root_system(cartan, budget)
    return convex_hull(sorted(short))
