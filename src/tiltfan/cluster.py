"""Extended exchange-matrix mutation and breadth-first g-fan enumeration.

A seed carries the exchange matrix B together with the c- and g-matrices.
Mutation at k rewrites only the rows of B and C with a nonzero entry in
column k (Fomin-Zelevinsky matrix mutation).  The g-update reads row k of
B (b_ik = -b_ki, checked by `initial_seed` and kept by mutation) and the
sign of the k-th c-vector, which is well defined by sign-coherence.  The
g-fan is enumerated by `fan.wall_crossing_search` with the g-vectors of a
seed as its chamber and, as the state of the chamber, only the rows of B
and C: the search never builds a g-matrix, and a crossing reads the sign
of the one c-vector it needs.
"""

from collections import namedtuple

from . import lattice as la
from .errors import NotSkewSymmetric, SignIncoherence
from .fan import (  # noqa: F401 (build_fan is re-exported)
    BudgetExhausted,
    build_fan,
    fan_from_ids,
    wall_crossing_search,
)


class ExtendedSeed(namedtuple("ExtendedSeed", "b c g")):
    """The rows of the n x n skew-symmetric B, and the c- and g-matrices,
    whose columns are the c- and g-vectors."""

    __slots__ = ()

    @property
    def n(self):
        return len(self.b)

    def chamber_key(self):
        """Unordered cluster: the sorted tuple of g-matrix columns."""
        return tuple(sorted(la.transpose(self.g)))


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


def _exchanged_g(state, g_cols, k):
    """The g-vector that replaces g_cols[k] (k 0-based) under mutation at k,
    in the seed whose search state is (B rows, C rows):
    g'_k = -g_k + sum_i [s b_ki]+ g_i, s the sign of the k-th c-vector,
    column k of C.

    s is well defined by sign-coherence; b_ki = -b_ik by skew-symmetry,
    so row k of B holds every coefficient.
    """
    b, c = state
    col = [row[k] for row in c]
    sign = 1 if min(col) >= 0 else -1 if max(col) <= 0 else 0
    if not sign:
        raise SignIncoherence(k + 1)
    new_gk = [-x for x in g_cols[k]]
    for coeff, g in zip(b[k], g_cols):
        coeff *= sign
        if coeff > 0:
            new_gk = [x + coeff * y for x, y in zip(new_gk, g)]
    return tuple(new_gk)


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


def _mutated_state(state, k):
    """The search state (B rows, C rows) after mutation at k (0-based): the
    one rule on the rows of [B; C]."""
    b, c = state
    bk = b[k]
    new_b = _mutated_rows(b, bk, k)
    new_b[k] = la.vneg(bk)
    return tuple(new_b), tuple(_mutated_rows(c, bk, k))


def mutate(seed, k):
    """Mutate in direction k (1-based), returning a new seed; SignIncoherence
    if the k-th c-vector has both signs."""
    n = seed.n
    if not 1 <= k <= n:
        raise IndexError(f"mutation direction {k} out of range 1..{n}")
    k -= 1
    state = seed.b, seed.c
    g_cols = list(la.transpose(seed.g))
    g_cols[k] = _exchanged_g(state, g_cols, k)
    new_b, new_c = _mutated_state(state, k)
    return ExtendedSeed(new_b, new_c, la.transpose(g_cols))


def enumerate_gfan(b, budget=100_000):
    """Breadth-first closure of mutation; a Fan on closure, else BudgetExhausted
    with the partial fan of the chambers found.

    Chambers are the unordered g-vector sets, so distinct mutation-tree
    vertices giving the same cluster collapse.  A chamber's g-vectors are
    the search's rays, and its state is only (B rows, C rows): crossing
    wall k computes the exchanged g-vector from row k of B and the sign of
    column k of C, read at that crossing, and a new chamber's state is
    mutated from its parent's, with no g-matrix.  Directions are explored
    in increasing order with a FIFO frontier, which makes the enumeration
    deterministic.
    The search's ray table, chambers as ray ids and neighbour table go to
    `fan_from_ids`, so no g-vector is hashed again.
    """
    seed0 = initial_seed(b)
    result = wall_crossing_search(la.transpose(seed0.g), _exchanged_g, budget, (seed0.b, seed0.c),
                                  lambda state, _rays, k: _mutated_state(state, k))
    if isinstance(result, BudgetExhausted):
        return result
    return fan_from_ids(*result)
