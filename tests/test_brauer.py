import json
from collections import Counter
from functools import cache
from itertools import combinations, permutations, product
from math import comb

import pytest

from tiltfan import brauer
from tiltfan import lattice as la
from tiltfan.brauer import (
    ODD_CYCLE,
    OTHER,
    TREE,
    BrauerGraph,
    chambers_by_cliques,
    graph_from_json,
    graph_to_json,
    pair_admissible,
    root_map,
    self_admissible_walks,
    target_roots,
)
from tiltfan.cli import main
from tiltfan.combinatorics import f_vector, h_vector
from tiltfan.errors import Disconnected, UnsupportedGraph
from tiltfan.fan import CERTIFIED, fan_from_cones, hasse_orient
from tiltfan.polytope import g_polytope, root_polytope

from conftest import (
    cones,
    cyc_sigma,
    double_edge,
    edge_bar,
    front_end_fan,
    gamma2,
    gamma3,
    half_edges,
    loop_graph,
    mirror,
    odd_cycle,
    odd_cycle_5,
    path_tree,
    star_tree,
    triangle,
)

TREE3_CLASSES = {
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, -1, 1),
    (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, 1, 0), (0, -1, 1), (-1, 1, -1),
}

ODD3_CLASSES = {
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1),
    (1, 1, -1), (2, 0, -1), (0, 2, -1),
    (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, 1, 0), (-1, 0, 1), (0, -1, 1),
    (-1, -1, 1), (-2, 0, 1), (0, -2, 1),
}


def test_classify():
    assert path_tree(3).classify() == TREE
    assert loop_graph().classify() == ODD_CYCLE
    assert double_edge().classify() == OTHER
    assert triangle().classify() == ODD_CYCLE
    assert gamma2().classify() == ODD_CYCLE


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        BrauerGraph(
            half_edges(2),
            cyc_sigma([("1a",), ("1b",), ("2a",), ("2b",)]),
            edge_bar(2),
        )


def test_single_edge_walks():
    g = path_tree(1)
    walks = self_admissible_walks(g)
    assert {w.class_vector for w in walks} == {(1,), (-1,)}


def test_tree3_walk_classes():
    walks = self_admissible_walks(path_tree(3))
    assert len(walks) == 12
    assert {w.class_vector for w in walks} == TREE3_CLASSES


def test_odd_cycle3_walk_classes():
    for g in (gamma2(), gamma3()):
        walks = self_admissible_walks(g)
        assert len(walks) == 18
        assert {w.class_vector for w in walks} == ODD3_CLASSES
        for w in walks:  # the reverse reading is the same walk
            halves, _ext, signs = w.readings[1]
            again = brauer.SignedWalk(g, halves, signs[1])
            assert again == w and hash(again) == hash(w)


def test_unsupported_graph():
    with pytest.raises(UnsupportedGraph):
        self_admissible_walks(double_edge())


# Betti number 2: two loops at one vertex, and the theta graph (three
# parallel edges); the ribbon-graph sweeps only reach Betti numbers 0 and 1
BETTI_TWO = {
    "two loops": {"half_edges": ["a", "b", "c", "d"], "sigma": [["a", "b", "c", "d"]],
                  "bar": [["a", "b"], ["c", "d"]]},
    "theta": {"half_edges": half_edges(3), "sigma": [["1a", "2a", "3a"], ["1b", "3b", "2b"]],
              "bar": [["1a", "1b"], ["2a", "2b"], ["3a", "3b"]]},
}


@pytest.mark.parametrize("name", BETTI_TWO)
def test_betti_number_two_is_unsupported(name, tmp_path, capsys):
    graph = graph_from_json(BETTI_TWO[name])
    assert graph.n_edges - graph.n_vertices + 1 == 2
    assert graph.classify() == OTHER
    for routine in (self_admissible_walks, root_map, target_roots):
        with pytest.raises(UnsupportedGraph):
            routine(graph)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(BETTI_TWO[name]))
    assert main(["brauer", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: graph of type Other is g-infinite\n")


def test_pair_admissible_disjoint_edges():
    walks = {w.class_vector: w for w in self_admissible_walks(path_tree(3))}
    assert pair_admissible(walks[(1, 0, 0)], walks[(0, 0, 1)])


def test_pair_inadmissible_opposite_signs():
    walks = {w.class_vector: w for w in self_admissible_walks(path_tree(3))}
    assert not pair_admissible(walks[(1, 0, 0)], walks[(-1, 1, 0)])
    assert not pair_admissible(walks[(1, 0, 0)], walks[(-1, 0, 0)])


def test_tree3_chambers():
    fan = chambers_by_cliques(path_tree(3))
    f = f_vector(fan)
    assert f == (1, 12, 30, 20)
    assert h_vector(f) == (1, 9, 9, 1)
    # every chamber has three pairwise-admissible walks, e.g. the base
    base_rays = {fan.rays[i] for i in fan.chambers[fan.base]}
    assert base_rays == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_odd_cycle3_chambers_and_difference():
    fan2 = chambers_by_cliques(gamma2())
    fan3 = chambers_by_cliques(gamma3())
    for fan in (fan2, fan3):
        f = f_vector(fan)
        assert f == (1, 18, 48, 32)
        assert h_vector(f) == (1, 15, 15, 1)
    assert set(fan2.rays) == set(fan3.rays)
    chambers2 = {frozenset(fan2.rays[i] for i in c) for c in fan2.chambers}
    chambers3 = {frozenset(fan3.rays[i] for i in c) for c in fan3.chambers}
    assert chambers2 != chambers3


def test_hasse_histogram_matches_h():
    fan = chambers_by_cliques(path_tree(3))
    hist = hasse_orient(fan).out_degree_histogram(len(fan.chambers), fan.rank)
    assert hist == (1, 9, 9, 1)


def test_tree_walks_are_simple_paths():
    g = path_tree(4)
    for w in self_admissible_walks(g):
        vertices = [g.vertex_of[w.halves[0]]]
        vertices += [g.vertex_of[g.bar[h]] for h in w.halves]
        assert len(set(vertices)) == len(vertices)


def test_root_map_single_edge():
    g = path_tree(1)
    rm = root_map(g)
    images = {rm.apply(w.class_vector) for w in self_admissible_walks(g)}
    assert images == {(1, -1), (-1, 1)}


def test_root_map_bijections():
    for g in (path_tree(3), gamma2(), gamma3(), triangle()):
        rm = root_map(g)
        walks = self_admissible_walks(g)
        images = [rm.apply(w.class_vector) for w in walks]
        assert len(set(images)) == len(walks)
        assert set(images) == target_roots(g)


def test_root_map_edge_images_are_roots():
    for g in (path_tree(4), odd_cycle_5()):
        rm = root_map(g)
        tgt = target_roots(g)
        for img in rm.edge_images:
            assert img in tgt


@pytest.mark.parametrize("make", [lambda: path_tree(5), lambda: star_tree(5),
                                  lambda: odd_cycle(3), lambda: odd_cycle(5)],
                         ids=["path 5", "star 5", "odd 3", "odd 5"])
def test_root_map_is_a_lattice_isomorphism_onto_the_root_system(make):
    """`root_map` sends the rays bijectively onto the roots, and its n edge
    images have rank n, so it carries the g-polytope (the hull of the rays)
    onto the root polytope, lattice onto root lattice, in every rank."""
    graph = make()
    fan = chambers_by_cliques(graph)
    rm = root_map(graph)
    images = [rm.apply(r) for r in fan.rays]
    assert len(set(images)) == len(images)
    assert set(images) == target_roots(graph)
    assert la.rank(rm.edge_images, rm.n_vertices) == fan.rank


def test_fan_sign_coherent_wrt_positive_base():
    # build_fan validates sign-coherence; reaching here means it held
    fan = chambers_by_cliques(star_tree(3))
    assert fan.complete == "certified"
    assert f_vector(fan) == (1, 12, 30, 20)


def test_graph_json_round_trip():
    g = gamma3()
    data = graph_to_json(g)
    g2 = graph_from_json(data)
    assert graph_to_json(g2) == data
    f1 = f_vector(chambers_by_cliques(g))
    f2 = f_vector(chambers_by_cliques(g2))
    assert f1 == f2


def _clique_fan(graph):
    """Reference: the chambers as the maximal cliques of the compatibility
    graph, by Bron-Kerbosch with pivoting, each of size n."""
    walks = self_admissible_walks(graph)
    n = graph.n_edges
    adj = {i: set() for i in range(len(walks))}
    for i, j in combinations(range(len(walks)), 2):
        if pair_admissible(walks[i], walks[j]):
            adj[i].add(j)
            adj[j].add(i)

    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(frozenset(), set(range(len(walks))), set())
    assert all(len(c) == n for c in cliques)
    rays = [w.class_vector for w in walks]
    cones = [[rays[i] for i in c] for c in cliques]
    return fan_from_cones(cones, la.identity(n))


@pytest.mark.parametrize("make, args", [(path_tree, (n,)) for n in range(2, 8)]
                         + [(star_tree, (n,)) for n in range(3, 6)]
                         + [(odd_cycle, (n,)) for n in range(3, 7)]
                         + [(make, ()) for make in (loop_graph, gamma2, gamma3, triangle)])
def test_wall_crossing_matches_the_clique_search(make, args):
    graph = make(*args)
    fan, reference = chambers_by_cliques(graph), _clique_fan(graph)
    assert fan == reference
    assert fan.walls == reference.walls
    assert fan.complete == reference.complete == "certified"


def test_a_refused_compatible_pair_breaks_the_exchange(monkeypatch):
    graph = path_tree(3)
    walks = {w.class_vector: w for w in self_admissible_walks(graph)}
    refused = frozenset((walks[(1, 0, 0)], walks[(0, 1, 0)]))
    assert pair_admissible(*refused)
    admissible = brauer.pair_admissible
    monkeypatch.setattr(brauer, "pair_admissible",
                        lambda w1, w2: frozenset((w1, w2)) != refused and admissible(w1, w2))
    # the unit walks of e1 and e2, whose pair the start check reads
    with pytest.raises(AssertionError,
                       match="^start walks 11 and 8 are not admissible with each other$"):
        chambers_by_cliques(graph)


def test_self_admissible_walks_with_one_class_vector_are_refused(monkeypatch):
    """Admitting every candidate walk lets two walks with one class through."""
    monkeypatch.setattr(brauer, "pair_admissible", lambda w1, w2: True)
    with pytest.raises(AssertionError,
                       match="^distinct admissible walks share a class vector$"):
        self_admissible_walks(gamma2())


def test_a_wall_that_no_walk_crosses_breaks_the_exchange(monkeypatch):
    """With only the unit walks admissible with each other, no walk
    replaces one of them."""
    graph = path_tree(3)
    units = {w for w in self_admissible_walks(graph) if w.class_vector in la.identity(3)}
    admissible = brauer.pair_admissible
    monkeypatch.setattr(brauer, "pair_admissible", lambda w1, w2: (
        admissible(w1, w2) if w1 == w2 else w1 in units and w2 in units))
    with pytest.raises(AssertionError,
                       match=r"^\d+ walks cross the wall opposite walk \d+, expected 1$"):
        chambers_by_cliques(graph)


# the Brauer graphs of FRONT_END_FANS whose mirror is checked, and those of
# them whose fan is not centrally symmetric
MIRRORED = {"path 3": path_tree(3), "path 4": path_tree(4), "star 4": star_tree(4),
            "star 5": star_tree(5), "brauer loop_graph": loop_graph(), "brauer gamma2": gamma2(),
            "brauer gamma3": gamma3(), "brauer triangle": triangle(), "odd 4": odd_cycle(4),
            "odd 5": odd_cycle(5)}
NOT_SYMMETRIC = {"star 4", "star 5", "brauer gamma3", "odd 4", "odd 5"}


@pytest.mark.parametrize("name", MIRRORED)
def test_the_mirror_graph_has_the_negated_fan(name):
    """Reversing every sigma-cycle gives the Brauer graph of the opposite
    algebra A^op, and Sigma(A^op) = -Sigma(A).  Where the fan is not
    centrally symmetric, the check needs the mirror."""
    fan = front_end_fan(name)
    assert cones(chambers_by_cliques(mirror(MIRRORED[name]))) == cones(fan, -1)
    assert (cones(fan) != cones(fan, -1)) == (name in NOT_SYMMETRIC)


# (self-admissible walks, admissible pairs among them), as counted by the
# walk code before each walk kept one record of its facts
WALK_AND_PAIR_COUNTS = (
    [((path_tree, (n,)), counts) for n, counts in zip(
        range(2, 8), [(6, 6), (12, 30), (20, 90), (30, 210), (42, 420), (56, 756)])]
    + [((star_tree, (n,)), counts) for n, counts in zip(range(3, 6), [(12, 30), (20, 90), (30, 210)])]
    + [((odd_cycle, (n,)), counts) for n, counts in zip(
        range(3, 7), [(18, 48), (32, 160), (50, 400), (72, 840)])]
    + [((loop_graph, ()), (8, 8))]
    + [((make, ()), (18, 48)) for make in (gamma2, gamma3, triangle)]
)


@pytest.mark.parametrize("graph_of, counts", WALK_AND_PAIR_COUNTS)
def test_walk_and_admissible_pair_counts(graph_of, counts):
    make, args = graph_of
    walks = self_admissible_walks(make(*args))
    pairs = sum(pair_admissible(w1, w2) for w1, w2 in combinations(walks, 2))
    assert (len(walks), pairs) == counts


def _reference_edge_images(graph):
    """`root_map` as it was when it ran its own BFS spanning tree: rooted at
    the vertex of the least half-edge, edges scanned in index order per
    frontier vertex, loops skipped."""
    root = graph.vertex_of[min(graph.half_edges)]
    color = {root: 1}
    tree_edges = set()
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for e in range(graph.n_edges):
                h, hb = graph.edges[e]
                u1, u2 = graph.vertex_of[h], graph.vertex_of[hb]
                if u1 == u2:
                    continue
                if u1 == v and u2 not in color:
                    color[u2] = -color[v]
                    tree_edges.add(e)
                    nxt.append(u2)
                elif u2 == v and u1 not in color:
                    color[u1] = -color[v]
                    tree_edges.add(e)
                    nxt.append(u1)
        frontier = nxt
    images = []
    for e, (h, hb) in enumerate(graph.edges):
        u, v = graph.vertex_of[h], graph.vertex_of[hb]
        img = [0] * graph.n_vertices
        img[u] += color[u]
        img[v] += -color[u] if e in tree_edges else color[u]
        images.append(tuple(img))
    return tuple(images)


@pytest.mark.parametrize("make, args", [(path_tree, (n,)) for n in range(1, 8)]
                         + [(star_tree, (n,)) for n in range(3, 6)]
                         + [(odd_cycle, (n,)) for n in range(3, 7)]
                         + [(make, ()) for make in (loop_graph, gamma2, gamma3, triangle)])
def test_root_map_reads_the_graph_spanning_tree(make, args):
    graph = make(*args)
    assert root_map(graph).edge_images == _reference_edge_images(graph)


def test_no_half_edges_is_disconnected():
    with pytest.raises(Disconnected):
        BrauerGraph((), {}, {})


# -- every small ribbon graph -------------------------------------------------


def _sigmas(n):
    """Every vertex permutation of the half-edges 0..2n-1 with n or n + 1
    cycles, as the tuple of images: the candidates for a connected ribbon
    graph with n edges that is a tree or has one cycle."""
    for sigma in permutations(range(2 * n)):
        seen, cycles = set(), 0
        for h in range(2 * n):
            if h not in seen:
                cycles += 1
                while h not in seen:
                    seen.add(h)
                    h = sigma[h]
        if cycles in (n, n + 1):
            yield sigma


def _ribbon_graph(sigma):
    """The BrauerGraph on half-edges h0..h(2n-1) with vertex permutation
    sigma and bar h(2i) <-> h(2i+1); Disconnected if it is not connected."""
    names = [f"h{h}" for h in range(len(sigma))]
    return BrauerGraph(names, {names[h]: names[x] for h, x in enumerate(sigma)},
                       {names[h]: names[h ^ 1] for h in range(len(sigma))})


def ribbon_graphs(n):
    """(graph, 1) for every connected ribbon graph with n edges on n or
    n + 1 vertices, half-edges labelled as in `_ribbon_graph`."""
    for sigma in _sigmas(n):
        try:
            yield _ribbon_graph(sigma), 1
        except Disconnected:
            pass


def ribbon_graph_classes(n):
    """(graph, count) for one graph of each isomorphism class of
    `ribbon_graphs(n)`, count the number of labelled graphs in the class.

    Two labellings are isomorphic when a relabelling that keeps the bar
    pairs (permute the edges, swap the ends of some) conjugates one sigma
    into the other; the class of sigma is its orbit under those 2^n n!
    relabellings, and its first member in the order of `_sigmas` stands
    for it.
    """
    relabellings = [
        tuple(2 * order[h >> 1] + ((h & 1) ^ flips[h >> 1]) for h in range(2 * n))
        for order in permutations(range(n)) for flips in product((0, 1), repeat=n)
    ]
    seen = set()
    for sigma in _sigmas(n):
        if sigma in seen:
            continue
        orbit = set()
        for g in relabellings:
            conjugate = [0] * (2 * n)
            for h, x in enumerate(sigma):
                conjugate[g[h]] = g[x]
            orbit.add(tuple(conjugate))
        seen |= orbit
        try:
            yield _ribbon_graph(sigma), len(orbit)
        except Disconnected:
            pass


def _reference_cycle_edges(graph):
    """The leaf-stripping rule `BrauerGraph` used before `classify` read the
    spanning tree: the edges that survive repeatedly stripping non-loop
    edges at a degree-1 vertex, empty for a tree and the cycle for a graph
    with one cycle."""
    deg = [0] * graph.n_vertices
    alive = set(range(graph.n_edges))
    for h, hb in graph.edges:
        deg[graph.vertex_of[h]] += 1
        deg[graph.vertex_of[hb]] += 1
    changed = True
    while changed:
        changed = False
        for e in sorted(alive):
            h, hb = graph.edges[e]
            u, v = graph.vertex_of[h], graph.vertex_of[hb]
            if u != v and (deg[u] == 1 or deg[v] == 1):
                alive.discard(e)
                deg[u] -= 1
                deg[v] -= 1
                changed = True
    return frozenset(alive)


def _reference_classify(graph, cycle):
    """`classify` by Betti number and the parity of the stripped cycle."""
    betti = graph.n_edges - graph.n_vertices + 1
    if betti == 0:
        return TREE
    if betti != 1:
        return OTHER
    return ODD_CYCLE if len(cycle) % 2 == 1 else OTHER


@cache
def _root_polytope_counts(type_, n):
    poly = root_polytope(type_, n)
    return len(poly.vertices), len(poly.facets)


def check_ribbon_graphs(graphs):
    """Run the paper's classification over (graph, count) pairs and return
    the counts of trees, odd cycles and other graphs.

    A tree or odd cycle with n edges has a certified fan of C(2n, n) or
    2^(2n-1) chambers whose rays `root_map` sends one-to-one onto
    `target_roots`, and a g-polytope with the vertex and facet counts of
    the A_n or C_n root polytope.  Every other graph raises
    UnsupportedGraph.  `classify` agrees with the leaf-stripping reference,
    and every self-admissible walk uses an edge of the reference's cycle at
    most once and any other edge at most twice.
    """
    counts = Counter()
    for graph, count in graphs:
        kind = graph.classify()
        cycle = _reference_cycle_edges(graph)
        assert kind == _reference_classify(graph, cycle), graph_to_json(graph)
        counts[kind] += count
        n = graph.n_edges
        if kind == OTHER:
            with pytest.raises(UnsupportedGraph):
                chambers_by_cliques(graph)
            with pytest.raises(UnsupportedGraph):
                root_map(graph)
            continue
        for w in self_admissible_walks(graph):
            uses = Counter(graph.edge_of[h] for h in w.halves)
            assert all(c <= (1 if e in cycle else 2) for e, c in uses.items()), \
                graph_to_json(graph)
        fan = chambers_by_cliques(graph)
        assert fan.complete == CERTIFIED, graph_to_json(graph)
        chambers = comb(2 * n, n) if kind == TREE else 2 ** (2 * n - 1)
        assert len(fan.chambers) == chambers, graph_to_json(graph)
        rm = root_map(graph)
        images = [rm.apply(r) for r in fan.rays]
        assert len(set(images)) == len(images), graph_to_json(graph)
        assert set(images) == target_roots(graph), graph_to_json(graph)
        g = g_polytope(fan)
        assert (len(g.vertices), len(g.facets)) == _root_polytope_counts(
            "A" if kind == TREE else "C", n), graph_to_json(graph)
    return counts[TREE], counts[ODD_CYCLE], counts[OTHER]


# (trees, odd cycles, other graphs) among the connected labelled ribbon
# graphs with n edges on n or n + 1 vertices
RIBBON_GRAPH_COUNTS = {1: (1, 1, 0), 2: (4, 8, 2), 3: (40, 128, 48), 4: (672, 3072, 1392),
                       5: (16128, 98304, 49920)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_small_ribbon_graph(n):
    assert check_ribbon_graphs(ribbon_graphs(n)) == RIBBON_GRAPH_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ribbon_graph_classes_count_the_labelled_graphs(n):
    assert check_ribbon_graphs(ribbon_graph_classes(n)) == RIBBON_GRAPH_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_admissible_is_symmetric(n):
    """On every pair of self-admissible walks of every tree and odd cycle
    with n edges: `chambers_by_cliques` tests each unordered pair once."""
    for graph, _count in ribbon_graphs(n):
        if graph.classify() == OTHER:
            continue
        walks = self_admissible_walks(graph)
        for w1, w2 in combinations(walks, 2):
            assert pair_admissible(w1, w2) == pair_admissible(w2, w1), graph_to_json(graph)
