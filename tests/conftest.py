"""Shared builders for the test graphs and fans."""

import pytest

from tiltfan.brauer import BrauerGraph
from tiltfan.cluster import enumerate_gfan


def cyc_sigma(cycles):
    sigma = {}
    for cyc in cycles:
        for i, h in enumerate(cyc):
            sigma[h] = cyc[(i + 1) % len(cyc)]
    return sigma


def edge_bar(n):
    bar = {}
    for i in range(1, n + 1):
        bar[f"{i}a"] = f"{i}b"
        bar[f"{i}b"] = f"{i}a"
    return bar


def half_edges(n):
    return [f"{i}{ab}" for i in range(1, n + 1) for ab in "ab"]


def path_tree(n):
    """Brauer tree on a path: edge i joins v_{i-1} and v_i."""
    cycles = [("1a",)] + [(f"{i}b", f"{i+1}a") for i in range(1, n)] + [(f"{n}b",)]
    return BrauerGraph(half_edges(n), cyc_sigma(cycles), edge_bar(n))


def star_tree(n):
    """Brauer tree with all edges at one central vertex."""
    cycles = [tuple(f"{i}a" for i in range(1, n + 1))]
    cycles += [(f"{i}b",) for i in range(1, n + 1)]
    return BrauerGraph(half_edges(n), cyc_sigma(cycles), edge_bar(n))


def loop_graph(n=2):
    """Bridge edge 1 plus a loop (edge 2) at its far endpoint."""
    assert n == 2
    cycles = [("1a",), ("1b", "2a", "2b")]
    return BrauerGraph(half_edges(2), cyc_sigma(cycles), edge_bar(2))


def gamma2():
    """Odd-cycle: path edges 1, 2 and a loop 3 at the middle vertex, with the
    loop halves separated by the path edges in the cyclic order."""
    cycles = [("1a",), ("2a", "3a", "1b", "3b"), ("2b",)]
    return BrauerGraph(half_edges(3), cyc_sigma(cycles), edge_bar(3))


def gamma3():
    """Same underlying graph as gamma2 with adjacent loop halves."""
    cycles = [("1a",), ("3a", "1b", "2a", "3b"), ("2b",)]
    return BrauerGraph(half_edges(3), cyc_sigma(cycles), edge_bar(3))


def triangle():
    cycles = [("1a", "3b"), ("2a", "1b"), ("3a", "2b")]
    return BrauerGraph(half_edges(3), cyc_sigma(cycles), edge_bar(3))


def odd_cycle(n):
    """3-cycle on edges 1..3 plus pendant edges 4..n at the first cycle vertex."""
    first = ("1a", "3b") + tuple(f"{i}a" for i in range(4, n + 1))
    cycles = [first, ("2a", "1b"), ("3a", "2b")] + [(f"{i}b",) for i in range(4, n + 1)]
    return BrauerGraph(half_edges(n), cyc_sigma(cycles), edge_bar(n))


def odd_cycle_5():
    return odd_cycle(5)


def double_edge():
    """Two parallel edges between two vertices: an even cycle (type Other)."""
    cycles = [("1a", "2a"), ("1b", "2b")]
    return BrauerGraph(half_edges(2), cyc_sigma(cycles), edge_bar(2))


B_A2 = ((0, 1), (-1, 0))
B_A3 = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
B_D4 = ((0, 1, 1, 1), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0))
B_KRONECKER = ((0, 2), (-2, 0))


def b_type_a(n, perm=None):
    """Exchange matrix of linearly oriented A_n, vertices relabelled by perm."""
    perm = list(perm or range(n))
    b = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        b[perm[i]][perm[i + 1]] = 1
        b[perm[i + 1]][perm[i]] = -1
    return tuple(tuple(r) for r in b)


@pytest.fixture(scope="session")
def pentagon_fan():
    return enumerate_gfan(B_A2)


@pytest.fixture(scope="session")
def a3_cluster_fan():
    return enumerate_gfan(B_A3)
