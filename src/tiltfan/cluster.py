"""Extended exchange-matrix mutation and breadth-first g-fan enumeration.

The seed carries the exchange matrix B together with the c- and g-matrices;
mutation uses [x]+ = max(x, 0) throughout.  The g-update branches on the
sign of the current c-vector, which is well defined by sign-coherence.
"""

from collections import deque
from dataclasses import dataclass, field

from . import lattice as la
from .errors import NotSkewSymmetric, SignIncoherence
from .fan import BudgetExhausted, build_fan, fan_from_cones  # noqa: F401 (re-exported)


def _pos(x):
    return x if x > 0 else 0


@dataclass(frozen=True)
class ExtendedSeed:
    b: tuple  # n x n skew-symmetric, rows
    c: tuple  # columns are c-vectors
    g: tuple  # columns are g-vectors
    history: tuple = field(default=(), compare=False)

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


def _exchanged_g(b, c, g_cols, k):
    """The g-vector that replaces column k (0-based) under mutation at k.

    The update branches on the sign of the k-th c-vector, which is well
    defined by sign-coherence.
    """
    ck = [row[k] for row in c]
    if all(x >= 0 for x in ck):
        sign = 1
    elif all(x <= 0 for x in ck):
        sign = -1
    else:
        raise SignIncoherence(k + 1)
    new_gk = la.vneg(g_cols[k])
    for i, row in enumerate(b):
        coeff = _pos(-sign * row[k])
        if coeff:
            new_gk = la.vadd(new_gk, la.vscale(coeff, g_cols[i]))
    return new_gk


def mutate(seed, k):
    """Mutate in direction k (1-based), returning a new seed."""
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

    g_cols = la.columns(g)
    new_gk = _exchanged_g(b, c, g_cols, k)
    new_g = la.from_columns([new_gk if j == k else g_cols[j] for j in range(n)])

    return ExtendedSeed(new_b, new_c, new_g, seed.history + (k + 1,))


def enumerate_gfan(b, budget=100_000):
    """Breadth-first closure of mutation; a Fan on closure, else BudgetExhausted.

    Chambers are deduplicated by their unordered g-column sets, so distinct
    mutation-tree vertices giving the same cluster collapse.  Each direction
    first computes only the exchanged g-vector; the full seed is mutated
    only for a new chamber.  Directions are explored in increasing order
    with a FIFO frontier, which makes the enumeration deterministic.  On
    exhaustion, `frontier` counts the chambers found whose neighbours were
    not all examined.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    seed0 = initial_seed(b)
    n = seed0.n
    base_key = seed0.chamber_key()
    seen = {base_key}
    queue = deque([seed0])
    frontier = 0
    while queue and not frontier:
        seed = queue.popleft()
        g_cols = la.columns(seed.g)
        for k in range(n):
            key = tuple(sorted(g_cols[:k] + [_exchanged_g(seed.b, seed.c, g_cols, k)]
                               + g_cols[k + 1:]))
            if key in seen:
                continue
            if len(seen) >= budget:
                # the seed under expansion has unexamined neighbours too
                frontier = len(queue) + 1
                break
            seen.add(key)
            queue.append(mutate(seed, k + 1))

    if frontier:
        return BudgetExhausted(len(seen), frontier, budget, fan_from_cones(seen, base_key))
    return fan_from_cones(seen, base_key, require_complete=True)


def b_matrix_preset(name):
    """Small library of named exchange matrices used by tests and the CLI."""
    presets = {
        "a2": ((0, 1), (-1, 0)),
        "a3": ((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
        "d4": ((0, 1, 1, 1), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0)),
        "kronecker": ((0, 2), (-2, 0)),
    }
    return presets[name]
