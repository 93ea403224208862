"""Extended exchange-matrix mutation and breadth-first g-fan enumeration.

The seed carries the exchange matrix B together with the c- and g-matrices;
mutation uses [x]+ = max(x, 0) throughout.  The g-update branches on the
sign of the current c-vector, which is well defined by sign-coherence.  The
g-fan is enumerated by `fan.wall_crossing_search`, with the g-vectors of a
seed as its chamber and the seed as the state of the chamber.
"""

from dataclasses import dataclass

from . import lattice as la
from .errors import NotSkewSymmetric, SignIncoherence
from .fan import (  # noqa: F401 (BudgetExhausted and build_fan are re-exported)
    BudgetExhausted,
    build_fan,
    fan_from_cones,
    wall_crossing_search,
)


def _pos(x):
    return x if x > 0 else 0


@dataclass(frozen=True)
class ExtendedSeed:
    b: tuple  # n x n skew-symmetric, rows
    c: tuple  # columns are c-vectors
    g: tuple  # columns are g-vectors

    @property
    def n(self):
        return len(self.b)

    def chamber_key(self):
        """Unordered cluster: the sorted tuple of g-matrix columns."""
        return tuple(sorted(la.columns(self.g)))


def initial_seed(b):
    b = la.mat(b)
    n = len(b)
    if any(len(row) != n for row in b):
        raise NotSkewSymmetric("exchange matrix must be square")
    for i in range(n):
        for j in range(n):
            if b[i][j] != -b[j][i]:
                raise NotSkewSymmetric(f"B[{i}][{j}] != -B[{j}][{i}]")
    return ExtendedSeed(b, la.identity(n), la.identity(n))


def _exchanged_g(seed, g_cols, k):
    """The g-vector that replaces column k (0-based) of the seed's g-matrix,
    whose columns are g_cols, under mutation at k.

    The update branches on the sign of the k-th c-vector, which is well
    defined by sign-coherence.
    """
    ck = [row[k] for row in seed.c]
    if all(x >= 0 for x in ck):
        sign = 1
    elif all(x <= 0 for x in ck):
        sign = -1
    else:
        raise SignIncoherence(k + 1)
    new_gk = la.vneg(g_cols[k])
    for i, row in enumerate(seed.b):
        coeff = _pos(-sign * row[k])
        if coeff:
            new_gk = la.vadd(new_gk, la.vscale(coeff, g_cols[i]))
    return new_gk


def mutate(seed, k, g_cols=None):
    """Mutate in direction k (1-based), returning a new seed.

    g_cols, if given, are the columns of the new g-matrix, as the caller
    already exchanged them; else column k is exchanged here.
    """
    n = seed.n
    if not 1 <= k <= n:
        raise IndexError(f"mutation direction {k} out of range 1..{n}")
    k -= 1
    b, c, g = seed.b, seed.c, seed.g

    new_b = tuple(
        tuple(
            -b[i][j]
            if i == k or j == k
            else b[i][j] + _pos(b[i][k]) * _pos(b[k][j]) - _pos(-b[i][k]) * _pos(-b[k][j])
            for j in range(n)
        )
        for i in range(n)
    )
    # same rule applied to the lower block of [B; C]
    new_c = tuple(
        tuple(
            -c[i][j]
            if j == k
            else c[i][j] + _pos(c[i][k]) * _pos(b[k][j]) - _pos(-c[i][k]) * _pos(-b[k][j])
            for j in range(n)
        )
        for i in range(n)
    )

    if g_cols is None:
        g_cols = la.columns(g)
        g_cols[k] = _exchanged_g(seed, g_cols, k)
    new_g = la.from_columns(g_cols)

    return ExtendedSeed(new_b, new_c, new_g)


def enumerate_gfan(b, budget=100_000):
    """Breadth-first closure of mutation; a Fan on closure, else BudgetExhausted
    with the partial fan of the chambers found.

    Chambers are the unordered g-column sets, so distinct mutation-tree
    vertices giving the same cluster collapse.  Crossing wall k computes
    only the exchanged g-vector; the full seed is mutated only for a new
    chamber, taking its g-matrix from that chamber.  Directions are
    explored in increasing order with a FIFO frontier, which makes the
    enumeration deterministic.
    """
    seed0 = initial_seed(b)
    result = wall_crossing_search(la.columns(seed0.g), _exchanged_g, budget, seed0,
                                  lambda seed, g_cols, k: mutate(seed, k + 1, g_cols),
                                  partial_fan=True)
    if isinstance(result, BudgetExhausted):
        return result
    return fan_from_cones(result, result[0], require_complete=True)
