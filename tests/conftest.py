"""Shared builders for the test graphs and fans."""

from functools import cache
from itertools import combinations, permutations

import pytest

from tiltfan import lattice as la
from tiltfan.brauer import BrauerGraph, chambers_by_cliques
from tiltfan.cluster import enumerate_gfan
from tiltfan.fan import BudgetExhausted
from tiltfan.weyl import CartanData, cartan_preset, coxeter_fan


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


def mirror(graph):
    """The ribbon graph with every sigma-cycle reversed: the Brauer graph of
    the opposite algebra, whose g-fan is the negated one."""
    cycles = [tuple(reversed(cyc)) for cyc in graph.vertex_cycles]
    return BrauerGraph(graph.half_edges, cyc_sigma(cycles), graph.bar)


def cones(fan, sign=1):
    """The chambers of a fan as a set, each the sorted tuple of its rays
    multiplied by sign: the fan whatever the order of its tables."""
    return {tuple(sorted(tuple(sign * x for x in fan.rays[i]) for i in c)) for c in fan.chambers}


def vector_chambers(search):
    """A closed `wall_crossing_search` result (rays, chambers, across) as
    (chambers, across), each chamber read through the ray table as the
    tuple of its rays in wall order; a BudgetExhausted passes through."""
    if isinstance(search, BudgetExhausted):
        return search
    rays, chambers, across = search
    return [tuple(rays[t] for t in c) for c in chambers], across


def negated(m):
    """-m: for an exchange matrix B, that of the opposite quiver."""
    return tuple(tuple(-x for x in row) for row in m)


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


def simply_laced(n, edges):
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    return CartanData(la.mat(c), (1,) * n)


FINITE_TYPES = {
    **{f"{t}{n}": cartan_preset(t, n) for t in "AB" for n in (2, 3, 4, 5)},
    **{f"C{n}": CartanData(la.transpose(cartan_preset("B", n).c), (2,) * (n - 1) + (1,))
       for n in (3, 4, 5)},
    "D4": simply_laced(4, [(0, 1), (1, 2), (1, 3)]),
    "D5": simply_laced(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
    "F4": CartanData(((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
                     (2, 2, 1, 1)),
    "G2": CartanData(((2, -1), (-3, 2)), (1, 3)),
    "G2 dual": CartanData(((2, -3), (-1, 2)), (3, 1)),
}

# one builder per front-end fan of rank <= 6 that the tests build
FRONT_END_FANS = {
    **{f"cluster A{n}": (lambda n=n: enumerate_gfan(b_type_a(n))) for n in range(1, 6)},
    "cluster A3 (B_A3)": lambda: enumerate_gfan(B_A3),
    "cluster D4": lambda: enumerate_gfan(B_D4),
    "coxeter A1": lambda: coxeter_fan(cartan_preset("A", 1)),
    **{f"coxeter {name}": (lambda cd=cd: coxeter_fan(cd)) for name, cd in FINITE_TYPES.items()},
    **{f"path {n}": (lambda n=n: chambers_by_cliques(path_tree(n))) for n in range(2, 7)},
    **{f"star {n}": (lambda n=n: chambers_by_cliques(star_tree(n))) for n in range(3, 7)},
    **{f"odd {n}": (lambda n=n: chambers_by_cliques(odd_cycle(n))) for n in range(3, 7)},
    **{f"brauer {make.__name__}": (lambda make=make: chambers_by_cliques(make()))
       for make in (loop_graph, gamma2, gamma3, triangle)},
}


@cache
def front_end_fan(name):
    """The fan of FRONT_END_FANS[name], built once per test session."""
    return FRONT_END_FANS[name]()


@pytest.fixture(scope="session")
def pentagon_fan():
    return enumerate_gfan(B_A2)


@pytest.fixture(scope="session")
def a3_cluster_fan():
    return enumerate_gfan(B_A3)


def lattice_iso(p, q):
    """Unimodular map carrying the vertex set of p onto that of q, or None:
    the isomorphism oracle for rank <= 3, where the tests compare polytopes
    up to lattice isomorphism.

    Brute force: anchor an independent vertex tuple of p and try every
    ordered tuple of q's vertices as its image; first match wins under a
    deterministic ordering.
    """
    n = p.rank
    if n != q.rank:
        return None
    if n > 3:
        raise ValueError("isomorphism search implemented for rank <= 3")
    if len(p.vertices) != len(q.vertices):
        return None
    anchor = None
    for sub in combinations(p.vertices, n):
        if la.determinant(la.transpose(sub)) != 0:
            anchor = sub
            break
    if anchor is None:
        return None
    a_mat = la.transpose(anchor)
    p_set = set(p.vertices)
    q_set = set(q.vertices)
    for image in permutations(q.vertices, n):
        # solve M * anchor_i = image_i  =>  M = image_mat * anchor_mat^{-1}
        img_mat = la.transpose(image)
        m = _rational_matmul_inverse(img_mat, a_mat)
        if m is None:
            continue
        if la.determinant(m) not in (1, -1):
            continue
        if {tuple(la.matvec(m, v)) for v in p_set} == q_set:
            return m
    return None


def _rational_matmul_inverse(img_mat, a_mat):
    """Integer matrix M with M a_mat = img_mat, or None."""
    inv = la.scaled_inverse(a_mat)
    if inv is None:
        return None
    d, adj = inv
    m = la.matmul(img_mat, adj)  # d * M
    if any(x % d for row in m for x in row):
        return None
    return tuple(tuple(x // d for x in row) for row in m)
