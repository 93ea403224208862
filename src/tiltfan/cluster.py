"""Extended exchange-matrix mutation and breadth-first g-fan enumeration.

The seed carries the exchange matrix B together with the c- and g-matrices.
Mutation at k rewrites only the rows of B and C with a nonzero entry in
column k (Fomin-Zelevinsky matrix mutation).  The g-update branches on the
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
    whose columns are g_cols, under mutation at k:
    g'_k = -g_k + sum_i [-sign b_ik]+ g_i.

    The update branches on the sign of the k-th c-vector, which is well
    defined by sign-coherence.
    """
    ck = [row[k] for row in seed.c]
    if min(ck) >= 0:
        sign = 1
    elif max(ck) <= 0:
        sign = -1
    else:
        raise SignIncoherence(k + 1)
    new_gk = la.vneg(g_cols[k])
    for row, g in zip(seed.b, g_cols):
        coeff = -sign * row[k]
        if coeff > 0:
            new_gk = tuple(x + coeff * y for x, y in zip(new_gk, g))
    return new_gk


def _mutated_rows(rows, bk, k):
    """Rows of B or C after mutation at k, bk being row k of B.

    A row whose entry x in column k is nonzero gains |x| b_kj wherever
    sgn(b_kj) = sgn(x) and has its column k negated, which is
    b'_ij = b_ij + sgn(b_ik) [b_ik b_kj]+; every other row is unchanged.
    """
    pos = [y if y > 0 else 0 for y in bk]
    neg = [y if y < 0 else 0 for y in bk]
    out = []
    for row in rows:
        x = row[k]
        if x:
            a = abs(x)
            row = [v + a * y for v, y in zip(row, pos if x > 0 else neg)]
            row[k] = -x
        out.append(tuple(row))
    return out


def mutate(seed, k, g_cols=None):
    """Mutate in direction k (1-based), returning a new seed.

    g_cols, if given, are the columns of the new g-matrix, as the caller
    already exchanged them; else column k is exchanged here.
    """
    n = seed.n
    if not 1 <= k <= n:
        raise IndexError(f"mutation direction {k} out of range 1..{n}")
    k -= 1
    bk = seed.b[k]
    new_b = _mutated_rows(seed.b, bk, k)
    new_b[k] = la.vneg(bk)
    # the same rule on the lower block of [B; C]
    new_c = _mutated_rows(seed.c, bk, k)

    if g_cols is None:
        g_cols = la.columns(seed.g)
        g_cols[k] = _exchanged_g(seed, g_cols, k)
    return ExtendedSeed(tuple(new_b), tuple(new_c), la.from_columns(g_cols))


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
                                  lambda seed, g_cols, k: mutate(seed, k + 1, g_cols))
    if isinstance(result, BudgetExhausted):
        return result
    return fan_from_cones(result, result[0], require_complete=True)
