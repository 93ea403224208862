import pytest

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
from tiltfan.combinatorics import f_vector, h_vector
from tiltfan.errors import Disconnected, UnsupportedGraph
from tiltfan.fan import hasse_orient

from conftest import (
    cyc_sigma,
    double_edge,
    edge_bar,
    gamma2,
    gamma3,
    half_edges,
    loop_graph,
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


def test_unsupported_graph():
    with pytest.raises(UnsupportedGraph):
        self_admissible_walks(double_edge())


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


def test_walk_edge_multiplicity_bounds():
    g = odd_cycle_5()
    cyc = g.cycle_edges()
    for w in self_admissible_walks(g):
        counts = {}
        for h in w.halves:
            e = g.edge_of[h]
            counts[e] = counts.get(e, 0) + 1
        for e, c in counts.items():
            assert c <= (1 if e in cyc else 2)


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


def test_cycle_edges():
    assert path_tree(4).cycle_edges() == frozenset()
    assert star_tree(3).cycle_edges() == frozenset()
    assert loop_graph().cycle_edges() == frozenset({1})
    assert odd_cycle_5().cycle_edges() == frozenset({0, 1, 2})
    assert double_edge().cycle_edges() == frozenset({0, 1})
