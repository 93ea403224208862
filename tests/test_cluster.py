from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import tiltfan.cluster as cluster
from tiltfan import lattice as la
from tiltfan.cluster import (
    BudgetExhausted,
    ExtendedSeed,
    enumerate_gfan,
    initial_seed,
    mutate,
    wall_crossing_search,
)
from tiltfan.errors import NotSkewSymmetric, SignIncoherence

from conftest import B_A2, B_A3, B_D4, B_KRONECKER, b_type_a, cones, negated
from test_fan import A_EDGES, D_EDGES, _tree_orientations


def test_initial_seed():
    s = initial_seed(B_KRONECKER)
    assert s.c == la.identity(2) and s.g == la.identity(2)
    with pytest.raises(NotSkewSymmetric):
        initial_seed(((0, 1), (1, 0)))


def test_kronecker_first_steps():
    s1 = mutate(initial_seed(B_KRONECKER), 1)
    assert la.transpose(s1.g) == ((-1, 2), (0, 1))
    assert la.transpose(s1.c) == ((-1, 0), (2, 1))
    s12 = mutate(s1, 2)
    assert la.transpose(s12.g) == ((-1, 2), (-2, 3))
    assert la.transpose(s12.c) == ((3, 2), (-2, -1))


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
    assert isinstance(result, BudgetExhausted) and not isinstance(result, tuple)
    assert result.explored >= 100
    assert result.partial_fan.complete == "unknown"
    assert result.partial_fan is result.partial_fan  # built once


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
    for col in la.transpose(seed.c):
        assert all(x >= 0 for x in col) or all(x <= 0 for x in col)
    # row sign-coherence of G
    for row in seed.g:
        assert all(x >= 0 for x in row) or all(x <= 0 for x in row)


def _dense_mutate_bc(b, c, k):
    """Reference: B and C mutated at k (0-based) by the dense rule
    b'_ij = b_ij + [b_ik]+ [b_kj]+ - [-b_ik]+ [-b_kj]+ on every entry."""

    def pos(x):
        return max(x, 0)

    n = len(b)

    def rule(rows, negate_row_k):
        return tuple(
            tuple(
                -row[j]
                if j == k or (negate_row_k and i == k)
                else row[j] + pos(row[k]) * pos(b[k][j]) - pos(-row[k]) * pos(-b[k][j])
                for j in range(n)
            )
            for i, row in enumerate(rows)
        )

    return rule(b, True), rule(c, False)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n),
        )
    )
)
def test_sparse_mutation_matches_the_dense_rule(data):
    """Only the rows with a nonzero entry in column k change, and they change
    as the dense [x]+ formula says, for every k and any integer C."""
    n, entries, c = data
    b, c = _skew(n, entries), tuple(map(tuple, c))
    # the B/C step alone: an arbitrary C need not be sign-coherent
    state = b, c
    for k in range(n):
        new_b, new_c = cluster._mutated_state(state, k)
        assert (new_b, new_c) == _dense_mutate_bc(b, c, k)


def test_general_g_rule_agrees_with_simplified():
    """Recompute g-columns with the two-sum recursion using the initial B
    columns and the C block; must match the sign-coherent shortcut."""

    def general_mutate_g(seed, b0, k):
        n = seed.n
        k -= 1
        g_cols = la.transpose(seed.g)
        b0_cols = la.transpose(b0)
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
            assert la.transpose(seed.g)[k - 1] == expected


def test_dedup_collapses_permuted_clusters():
    s = initial_seed(B_A2)
    a = mutate(mutate(s, 1), 2)
    key = a.chamber_key()
    assert key == tuple(sorted(la.transpose(a.g)))


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
    crossings = []
    exchanges = []
    mutated_state = cluster._mutated_state
    exchanged_g = cluster._exchanged_g

    def counting_crossing(state, k):
        crossings.append(k)
        return mutated_state(state, k)

    def counting_exchange(state, g_cols, k):
        exchanges.append(k)
        return exchanged_g(state, g_cols, k)

    monkeypatch.setattr(cluster, "_mutated_state", counting_crossing)
    monkeypatch.setattr(cluster, "_exchanged_g", counting_exchange)
    fan = enumerate_gfan(b)
    # each wall is crossed once, from the side that reaches it first, and
    # only a new chamber's state is mutated
    assert len(exchanges) == len(fan.walls)
    assert len(crossings) == len(fan.chambers) - 1
    reference = _full_mutation_bfs(b)
    assert _chamber_keys(fan) == set(reference)


def _seed_exchange(seed, g_cols, k):
    """The exchange read off a whole seed: the sign of column k of C and
    column k of B, g'_k = -g_k + sum_i [-s b_ik]+ g_i."""
    ck = [row[k] for row in seed.c]
    if min(ck) >= 0:
        sign = 1
    elif max(ck) <= 0:
        sign = -1
    else:
        raise SignIncoherence(k + 1)
    new = la.vneg(g_cols[k])
    for row, g in zip(seed.b, g_cols):
        if -sign * row[k] > 0:
            new = la.vadd(new, la.vscale(-sign * row[k], g))
    return new


def _seed_search(b, budget):
    """Reference route: the wall-crossing search with the mutate-built
    ExtendedSeed of each chamber as its state."""

    def cross(seed, rays, k):
        new = mutate(seed, k + 1)
        assert la.transpose(new.g) == tuple(rays)
        return new

    seed0 = initial_seed(b)
    return wall_crossing_search(la.transpose(seed0.g), _seed_exchange, budget, seed0, cross)


def check_against_the_seed_route(b, budget=100_000):
    """enumerate_gfan's search finds the reference's chambers in the same
    order with the same neighbour table, or, out of budget, the same cones
    and frontier."""
    results = []

    def spy(*args):
        results.append(wall_crossing_search(*args))
        return results[-1]

    with patch.object(cluster, "wall_crossing_search", spy):
        enumerate_gfan(b, budget)
    got, want = results[0], _seed_search(b, budget)
    if isinstance(want, BudgetExhausted):
        assert isinstance(got, BudgetExhausted)
        assert (got.frontier, got.cones) == (want.frontier, want.cones)
    else:
        assert got == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.integers(1, 60),
        )
    )
)
def test_search_state_matches_the_seed_route(data):
    n, entries, budget = data
    check_against_the_seed_route(_skew(n, entries), budget)


@pytest.mark.parametrize("b", [*_tree_orientations(4, A_EDGES[4]),
                               *_tree_orientations(4, D_EDGES[4])],
                         ids=[f"A4-{i}" for i in range(8)] + [f"D4-{i}" for i in range(8)])
def test_every_a4_and_d4_orientation_matches_the_seed_route(b):
    check_against_the_seed_route(b)


def test_mixed_c_vector_raises_sign_incoherence():
    """C's second column, (1, -1), has both signs: mutate and the search's
    exchange both refuse direction 2, and direction 1 still mutates."""
    seed = ExtendedSeed(B_A2, ((1, 1), (0, -1)), la.identity(2))
    with pytest.raises(SignIncoherence) as by_mutate:
        mutate(seed, 2)
    with pytest.raises(SignIncoherence) as by_search:
        cluster._exchanged_g((seed.b, seed.c), la.transpose(seed.g), 1)
    assert by_mutate.value.k == by_search.value.k == 2
    assert str(by_mutate.value) == str(by_search.value)
    assert mutate(seed, 1).b == mutate(initial_seed(B_A2), 1).b


@pytest.mark.parametrize("b", CLUSTER_CASES)
def test_wall_normals_are_the_c_vectors(b):
    """Tropical duality: up to sign, the wall normals of the g-fan are the
    c-vectors of all seeds."""
    fan = enumerate_gfan(b)
    normals = {frozenset((w.normal, la.vneg(w.normal))) for w in fan.walls}
    c_vectors = {
        frozenset((c, la.vneg(c)))
        for seed in _full_mutation_bfs(b).values()
        for c in la.transpose(seed.c)
    }
    assert normals == c_vectors


def test_budget_exhaustion_reports_the_frontier():
    result = enumerate_gfan(b_type_a(6), budget=10)
    assert isinstance(result, BudgetExhausted)
    assert (result.explored, result.budget) == (10, 10)
    assert result.frontier > 0


@pytest.mark.parametrize("b", [b for n, edges in [(3, A_EDGES[3]), (4, A_EDGES[4]),
                                                  (5, A_EDGES[5]), (4, D_EDGES[4]),
                                                  (5, D_EDGES[5])]
                               for b in _tree_orientations(n, edges)])
def test_the_opposite_quiver_has_the_negated_fan(b):
    """-B is the exchange matrix of the opposite quiver, the quiver of A^op,
    and Sigma(A^op) = -Sigma(A), on every orientation of A3, A4, A5, D4, D5."""
    assert cones(enumerate_gfan(negated(b))) == cones(enumerate_gfan(b), -1)
