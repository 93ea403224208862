import pytest
from hypothesis import given, settings, strategies as st

from tiltfan import lattice as la
from tiltfan.cluster import (
    BudgetExhausted,
    enumerate_gfan,
    initial_seed,
    mutate,
)
from tiltfan.errors import NotSkewSymmetric

from conftest import B_A2, B_A3, B_D4, B_KRONECKER, b_type_a


def test_initial_seed():
    s = initial_seed(B_KRONECKER)
    assert s.c == la.identity(2) and s.g == la.identity(2)
    with pytest.raises(NotSkewSymmetric):
        initial_seed(((0, 1), (1, 0)))


def test_kronecker_first_steps():
    s1 = mutate(initial_seed(B_KRONECKER), 1)
    assert la.columns(s1.g) == [(-1, 2), (0, 1)]
    assert la.columns(s1.c) == [(-1, 0), (2, 1)]
    s12 = mutate(s1, 2)
    assert la.columns(s12.g) == [(-1, 2), (-2, 3)]
    assert la.columns(s12.c) == [(3, 2), (-2, -1)]


def test_mutation_is_involutive():
    s = initial_seed(B_A3)
    for k in (1, 2, 3):
        assert mutate(mutate(s, k), k).b == s.b
        assert mutate(mutate(s, k), k).c == s.c
        assert mutate(mutate(s, k), k).g == s.g


def test_mutate_index_range():
    s = initial_seed(B_A2)
    with pytest.raises(IndexError):
        mutate(s, 0)
    with pytest.raises(IndexError):
        mutate(s, 3)


def test_enumerate_a2(pentagon_fan):
    assert len(pentagon_fan.chambers) == 5
    assert set(pentagon_fan.rays) == {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)}
    assert pentagon_fan.complete == "certified"


def test_enumerate_a3(a3_cluster_fan):
    assert len(a3_cluster_fan.chambers) == 14
    assert len(a3_cluster_fan.rays) == 9


def test_enumerate_d4():
    fan = enumerate_gfan(B_D4)
    assert len(fan.chambers) == 50


def test_kronecker_exhausts_budget():
    result = enumerate_gfan(B_KRONECKER, budget=100)
    assert isinstance(result, BudgetExhausted)
    assert result.explored >= 100
    assert result.partial_fan.complete == "unknown"


def _skew(n, entries):
    b = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = entries[k]
            b[j][i] = -entries[k]
            k += 1
    return tuple(tuple(r) for r in b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(st.integers(1, n), min_size=0, max_size=8),
        )
    )
)
def test_duality_and_sign_coherence_under_mutation(data):
    n, entries, word = data
    seed = initial_seed(_skew(n, entries))
    for k in word:
        seed = mutate(seed, k)
    # C^T G = identity
    assert la.matmul(la.transpose(seed.c), seed.g) == la.identity(n)
    # column sign-coherence of C
    for col in la.columns(seed.c):
        assert all(x >= 0 for x in col) or all(x <= 0 for x in col)
    # row sign-coherence of G
    for row in seed.g:
        assert all(x >= 0 for x in row) or all(x <= 0 for x in row)


def test_general_g_rule_agrees_with_simplified():
    """Recompute g-columns with the two-sum recursion using the initial B
    columns and the C block; must match the sign-coherent shortcut."""

    def general_mutate_g(seed, b0, k):
        n = seed.n
        k -= 1
        g_cols = la.columns(seed.g)
        b0_cols = la.columns(b0)
        new = la.vneg(g_cols[k])
        for i in range(n):
            if seed.b[i][k] > 0:
                new = la.vadd(new, la.vscale(seed.b[i][k], g_cols[i]))
        for i in range(n):
            e = seed.c[i][k]
            if e > 0:
                new = la.vsub(new, la.vscale(e, b0_cols[i]))
        return new

    for b0 in (B_A2, B_A3, B_KRONECKER):
        seed = initial_seed(b0)
        import random

        rng = random.Random(7)
        for _ in range(8):
            k = rng.randrange(1, seed.n + 1)
            expected = general_mutate_g(seed, b0, k)
            seed = mutate(seed, k)
            assert la.columns(seed.g)[k - 1] == expected


def test_dedup_collapses_permuted_clusters():
    s = initial_seed(B_A2)
    a = mutate(mutate(s, 1), 2)
    key = a.chamber_key()
    assert key == tuple(sorted(la.columns(a.g)))


def _full_mutation_bfs(b):
    """Reference search: mutate every seed in every direction, one seed per
    chamber key."""
    from collections import deque

    seed0 = initial_seed(b)
    seeds = {seed0.chamber_key(): seed0}
    queue = deque([seed0])
    while queue:
        seed = queue.popleft()
        for k in range(1, seed.n + 1):
            nxt = mutate(seed, k)
            if nxt.chamber_key() not in seeds:
                seeds[nxt.chamber_key()] = nxt
                queue.append(nxt)
    return seeds


def _chamber_keys(fan):
    return {fan.chamber_key(ci) for ci in range(len(fan.chambers))}


CLUSTER_CASES = [
    b_type_a(2, (1, 0)),
    b_type_a(3, (2, 0, 1)),
    b_type_a(4, (1, 3, 0, 2)),
    b_type_a(5, (4, 1, 3, 0, 2)),
    B_D4,
]


@pytest.mark.parametrize("b", CLUSTER_CASES)
def test_g_first_search_matches_full_mutation_bfs(b, monkeypatch):
    import tiltfan.cluster as cluster

    calls = []
    exchanges = []
    exchanged_g = cluster._exchanged_g

    def counting_mutate(seed, k, *g_cols):
        calls.append(k)
        return mutate(seed, k, *g_cols)

    def counting_exchange(seed, g_cols, k):
        exchanges.append(k)
        return exchanged_g(seed, g_cols, k)

    monkeypatch.setattr(cluster, "mutate", counting_mutate)
    monkeypatch.setattr(cluster, "_exchanged_g", counting_exchange)
    fan = enumerate_gfan(b)
    # each g-vector is exchanged once per wall crossing, never again in mutate
    assert len(exchanges) == fan.rank * len(fan.chambers)
    reference = _full_mutation_bfs(b)
    assert _chamber_keys(fan) == set(reference)
    assert len(calls) == len(fan.chambers) - 1


@pytest.mark.parametrize("b", CLUSTER_CASES[:3])
def test_mutate_takes_the_exchanged_g_matrix(b):
    from tiltfan.cluster import _exchanged_g

    for seed in _full_mutation_bfs(b).values():
        for k in range(seed.n):
            g_cols = la.columns(seed.g)
            g_cols[k] = _exchanged_g(seed, g_cols, k)
            assert mutate(seed, k + 1, tuple(g_cols)) == mutate(seed, k + 1)


@pytest.mark.parametrize("b", CLUSTER_CASES)
def test_wall_normals_are_the_c_vectors(b):
    """Tropical duality: up to sign, the wall normals of the g-fan are the
    c-vectors of all seeds."""
    fan = enumerate_gfan(b)
    normals = {frozenset((w.normal, la.vneg(w.normal))) for w in fan.walls}
    c_vectors = {
        frozenset((c, la.vneg(c)))
        for seed in _full_mutation_bfs(b).values()
        for c in la.columns(seed.c)
    }
    assert normals == c_vectors


def test_budget_exhaustion_reports_the_frontier():
    result = enumerate_gfan(b_type_a(6), budget=10)
    assert isinstance(result, BudgetExhausted)
    assert (result.explored, result.budget) == (10, 10)
    assert result.frontier > 0
