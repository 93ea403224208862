"""The checks too slow for tier-1: fans past what the unit tests build, the
stored benchmark fans, and one short benchmark run per workload.

Run from the repository root:

    PYTHONPATH=src:tests python -m pytest ci

The CLI runs in-process through `cli.main`, and each front-end once more
as `python -m tiltfan.cli` in a fresh interpreter; Coxeter A7, B6 and A8,
each held to a peak-RSS bound, and `benchmarks/run.py` run in their own
processes.
No bytecode is written under benchmarks/, so the checkout stays as it is.
"""

import json
import os
import subprocess
import sys
from functools import cache
from math import factorial
from pathlib import Path

import pytest

from tiltfan import cluster, weyl
from tiltfan.brauer import chambers_by_cliques
from tiltfan.cli import main
from tiltfan.cluster import enumerate_gfan
from tiltfan.combinatorics import f_vector
from tiltfan.errors import NotConvex
from tiltfan.fan import CERTIFIED
from tiltfan.polytope import convexity_report, g_polytope, root_polytope, short_root_polytope
from tiltfan.weyl import CartanData, cartan_preset, coxeter_fan, weyl_enumerate

from conftest import b_type_a, cones, mirror, negated, odd_cycle, path_tree, simply_laced
from test_brauer import RIBBON_GRAPH_COUNTS, check_ribbon_graphs, ribbon_graph_classes, ribbon_graphs
from test_cli import write
from test_combinatorics import _face_count
from test_fan import (
    A_EDGES,
    D_EDGES,
    _assert_pivots_match_elimination,
    _parts,
    _principal,
    _shuffled,
    _tree_orientations,
    check_idempotent_reductions,
)
from test_polytope import check_dual_is_the_short_root_polytope, check_rank2_classification

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "benchmarks"))
from inputs import brauer_graph  # noqa: E402
from oracle import narayana_h  # noqa: E402


def e_type(n):
    """Cartan data of E_n in Bourbaki's labelling: 1-3-4-5-..., 2 on 4."""
    return simply_laced(n, [(0, 2), (1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n - 1)])


@cache
def coxeter_a6():
    return coxeter_fan(cartan_preset("A", 6))


def run(argv, capsys, status=0):
    """(stdout, stderr) of `tiltfan argv`, which must exit with status."""
    assert main(argv) == status, capsys.readouterr().err
    return capsys.readouterr()


# -- fan files through the CLI -------------------------------------------------


@pytest.mark.parametrize("path", sorted((ROOT / "benchmarks" / "fans").glob("*.json")),
                         ids=lambda path: path.stem)
def test_stored_fan_passes_paranoid(path, tmp_path, capsys):
    """Each stored fan is certified and written back as the same document:
    the canonical ray, chamber and base order are those it was stored in."""
    out = tmp_path / "fan.json"
    run(["fan", "--input", str(path), "--paranoid", "--fan", str(out)], capsys)
    assert json.loads(out.read_text()) == json.loads(path.read_text())


def test_partial_kronecker_fan_reads_back_with_its_status_word(tmp_path, capsys):
    """The Kronecker matrix never closes, so --budget 50 ends in exit 2."""
    matrix = write(tmp_path, "kron.json", {"B": [[0, 2], [-2, 0]]})
    partial = tmp_path / "p.json"
    run(["cluster", "--matrix", matrix, "--budget", "50", "--fan", str(partial)], capsys, 2)
    stored = json.loads(partial.read_text())["complete"]
    assert run(["fan", "--input", str(partial)], capsys).out.endswith(f" complete={stored}\n")


def test_affine_a2_search_reports_its_exhausted_budget(tmp_path, capsys):
    """The affine Weyl group is infinite: --fan writes the partial fan of the
    2000 elements found."""
    cartan = write(tmp_path, "at2.json", {"C": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
                                          "D": [1, 1, 1]})
    partial = tmp_path / "p.json"
    err = run(["weyl", "--cartan", cartan, "--budget", "2000", "--fan", str(partial)],
              capsys, 2).err
    assert err == ("budget exhausted: explored 2000 elements, frontier 109, budget 2000; "
                   "writing partial fan\n")
    out = run(["fan", "--input", str(partial)], capsys).out
    assert out.endswith(", 2000 chambers, complete=unknown\n")


def tiltfan_process(argv, cwd):
    """`python -m tiltfan.cli argv` in a fresh interpreter, run in cwd."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "tiltfan.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv, chambers", [
    (["cluster", "--matrix", "a4.json", "--analyze", "--fan", "fan.json"], 42),
    (["weyl", "--type", "B", "--n", "3", "--analyze", "--eulerian", "--roots"], 48),
    (["brauer", "--graph", "path3.json", "--analyze", "--roots"], 20),
], ids=["cluster A4", "weyl B3", "brauer path 3"])
def test_each_front_end_in_a_fresh_process(argv, chambers, tmp_path):
    """The console entry point, from a cold start: the report comes first
    on stdout, and its last f-vector entry counts the chambers."""
    write(tmp_path, "a4.json", {"B": b_type_a(4)})
    write(tmp_path, "path3.json", brauer_graph("path", 3))
    done = tiltfan_process(argv, tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    report, _end = json.JSONDecoder().raw_decode(done.stdout)
    assert report["f"][-1] == chambers
    if "--fan" in argv:
        assert len(json.loads((tmp_path / "fan.json").read_text())["chambers"]) == chambers


def test_a_bad_matrix_in_a_fresh_process_is_one_error_line(tmp_path):
    write(tmp_path, "bad.json", {"B": [[0, 1], [1, 0]]})
    done = tiltfan_process(["cluster", "--matrix", "bad.json"], tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr


def check_read_back(path, chambers, capsys):
    """`fan --input --paranoid` certifies the front-end's file with the table
    derived from it, and `fan --fan` writes back the same bytes."""
    again = path.with_name("again.json")
    out = run(["fan", "--input", str(path), "--paranoid", "--fan", str(again)], capsys).out
    assert out.endswith(f", {chambers} chambers, complete=certified\n")
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("type_, n, chambers", [("A", 6, 5040), ("B", 5, 3840)],
                         ids=["A6", "B5"])
def test_coxeter_fan_reads_back_certified(type_, n, chambers, tmp_path, capsys):
    """|W(A6)| = 7! and |W(B5)| = 2^5 5!."""
    path = tmp_path / "fan.json"
    run(["weyl", "--type", type_, "--n", str(n), "--fan", str(path)], capsys)
    check_read_back(path, chambers, capsys)


@pytest.mark.parametrize("kind, n, chambers, roots", [
    ("path", 7, 3432, 56), ("odd", 6, 2048, 72), ("star", 5, 252, 30), ("path", 8, 12870, 72),
], ids=["path 7", "odd 6", "star 5", "path 8"])
def test_brauer_fan_reads_back_certified(kind, n, chambers, roots, tmp_path, capsys):
    """C(2n, n) chambers for a tree and 2^(2n-1) for an odd cycle, and as many
    distinct --roots images as A_n (n(n+1)) or C_n (2n^2) has roots."""
    graph = write(tmp_path, "graph.json", brauer_graph(kind, n))
    path = tmp_path / "fan.json"
    table = json.loads(run(["brauer", "--graph", graph, "--fan", str(path), "--roots"],
                           capsys).out)["roots"]
    assert len({tuple(v) for v in table.values()}) == roots
    check_read_back(path, chambers, capsys)


@pytest.mark.parametrize("fan_of, opposite_of, chambers, symmetric", [
    (lambda: enumerate_gfan(b_type_a(7)), lambda: enumerate_gfan(negated(b_type_a(7))),
     1430, False),
    (lambda: chambers_by_cliques(path_tree(7)),
     lambda: chambers_by_cliques(mirror(path_tree(7))), 3432, True),
    (lambda: chambers_by_cliques(odd_cycle(6)),
     lambda: chambers_by_cliques(mirror(odd_cycle(6))), 2048, False),
    (coxeter_a6, coxeter_a6, 5040, True),
], ids=["cluster A7", "brauer path 7", "brauer odd 6", "coxeter A6"])
def test_the_opposite_algebra_has_the_negated_fan(fan_of, opposite_of, chambers, symmetric):
    """Sigma(A^op) = -Sigma(A) past the ranks that tier-1 reaches: -B for a
    cluster algebra, the mirror graph for a Brauer graph algebra, and the
    Coxeter fan itself for a preprojective algebra, which is isomorphic to
    its opposite."""
    fan = fan_of()
    assert len(fan.chambers) == chambers
    assert cones(opposite_of()) == cones(fan, -1)
    assert (cones(fan) == cones(fan, -1)) == symmetric


@pytest.mark.parametrize("make, chambers", [
    (coxeter_a6, 5040),
    (lambda: enumerate_gfan(b_type_a(7)), 1430),
    (lambda: chambers_by_cliques(path_tree(7)), 3432),
], ids=["coxeter A6", "cluster A7", "brauer path 7"])
def test_pivoted_inverses_match_full_elimination_at_scale(make, chambers):
    """Fan, walls, normals and status of build_fan are those of full
    elimination past the sizes that tier-1 reaches, in the front-end's
    chamber order and in a shuffled one."""
    import random

    fan = make()
    assert len(fan.chambers) == chambers
    assert _assert_pivots_match_elimination(fan.rays, fan.chambers, fan.base) == _parts(fan)
    assert _assert_pivots_match_elimination(*_shuffled(fan, random.Random(5)))[2] == CERTIFIED


def test_cluster_a8_reads_back_certified(tmp_path, capsys):
    """Catalan(9) = 4,862 clusters of type A8, and the h-vector of the
    associahedron is the row of Narayana numbers N(9, k)."""
    matrix = write(tmp_path, "a8.json", {"B": b_type_a(8)})
    path = tmp_path / "fan.json"
    report = json.loads(run(["cluster", "--matrix", matrix, "--analyze", "--fan", str(path)],
                            capsys).out)
    assert report["h"] == list(narayana_h(8))
    check_read_back(path, 4862, capsys)


def _cluster_a8_walls():
    fan = enumerate_gfan(b_type_a(8))
    assert len(fan.chambers) == 4862
    return len(fan.walls)


def _weyl_a7_walls():
    """7 |W| / 2 for the elements of W(A7), enumerated without a fan."""
    _rays, elements, _ = weyl_enumerate(cartan_preset("A", 7))
    assert len(elements) == 40320
    return 7 * len(elements) // 2


@pytest.mark.parametrize("module, exchange, walls_of, walls", [
    (cluster, "_exchanged_g", _cluster_a8_walls, 19_448),
    (weyl, "_crossed_ray", _weyl_a7_walls, 141_120),
], ids=["cluster A8", "coxeter A7"])
def test_one_exchange_per_wall(module, exchange, walls_of, walls, monkeypatch):
    """The search crosses each wall once, past the ranks that tier-1 reaches."""
    original = getattr(module, exchange)
    calls = []

    def counted(state, rays, k):
        calls.append(k)
        return original(state, rays, k)

    monkeypatch.setattr(module, exchange, counted)
    assert walls_of() == walls
    assert len(calls) == walls


# -- fans and polytopes past tier-1 --------------------------------------------


@pytest.mark.parametrize("poly, counts", [
    (lambda: short_root_polytope(e_type(7)), (126, 632)),
    (lambda: root_polytope("C", 7), (14, 128)),
], ids=["E7", "C7"])
def test_root_polytope_matches_its_closed_form(poly, counts):
    """Every root of E7 is short; C7 has 2n vertices and 2^n facets.  Both
    are past rank 4, where the double-description hull has no cap."""
    p = poly()
    assert (len(p.vertices), len(p.facets)) == counts


@pytest.mark.parametrize("edges", [A_EDGES[5], D_EDGES[5]], ids=["A5", "D5"])
def test_idempotent_reductions_of_every_orientation(edges):
    """At the cone of the shifted projectives P_j[1], j outside each vertex
    subset S, the star is the front-end fan of the sub-diagram on S."""
    for b in _tree_orientations(5, edges):
        check_idempotent_reductions(enumerate_gfan(b),
                                    lambda keep, b=b: enumerate_gfan(_principal(b, keep)))


def test_idempotent_reductions_of_coxeter_a6():
    cd = cartan_preset("A", 6)
    check_idempotent_reductions(coxeter_a6(), lambda keep: coxeter_fan(
        CartanData(_principal(cd.c, keep), tuple(cd.d[i] for i in keep))))


@pytest.mark.parametrize("fan, chambers", [
    (coxeter_a6, 5040),
    (lambda: chambers_by_cliques(odd_cycle(6)), 2048),
    (lambda: enumerate_gfan(b_type_a(7)), 1430),
], ids=["coxeter A6", "brauer odd 6", "cluster A7"])
def test_f_vector_from_the_walls_equals_the_face_count(fan, chambers):
    fan = fan()
    assert len(fan.chambers) == chambers
    assert f_vector(fan) == _face_count(fan)


def test_coxeter_a6_dual_is_the_short_root_polytope():
    check_dual_is_the_short_root_polytope(coxeter_a6(), cartan_preset("A", 6))


def test_rank2_classify_decides_every_sign_coherent_fan_with_entries_up_to_3():
    """26 subdivisions of each of quadrants 2-4; bound 4 would give 101 each,
    1,030,301 fans, too many for one check."""
    check_rank2_classification(3, 17_576, 16)


COXETER = """
import json, sys
from tiltfan.combinatorics import f_vector, h_vector
from tiltfan.polytope import g_polytope
from tiltfan.weyl import cartan_preset, coxeter_fan
fan = coxeter_fan(cartan_preset(sys.argv[1], int(sys.argv[2])))
g = g_polytope(fan)
with open("/proc/self/status") as status:
    peak_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) // 1024
print(json.dumps([len(fan.chambers), fan.complete, len(g.vertices), len(g.facets),
                  h_vector(f_vector(fan)), peak_mb]))
"""


def coxeter_in_its_own_process(type_, n):
    """[chambers, status, g-polytope vertices and facets, h-vector, peak RSS
    in MB] of the Coxeter fan of type_ n.  Its own process, whose VmHWM
    (kilobytes, Linux) measures this fan alone; the peak is read once the
    g-polytope is built, before the h-vector.  Not ru_maxrss: a child's
    starts at the resident size of the process that forked it, here the
    test run, some 87 MB by then."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", COXETER, type_, str(n)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_coxeter_a7_within_57_mb():
    """8! chambers, and the permutohedron's polar pair: 2^8 - 2 vertices and
    8 * 7 facets; h is the row of Eulerian numbers.  47 MB measured (see
    the A8 test)."""
    *counts, h, peak_mb = coxeter_in_its_own_process("A", 7)
    assert counts == [40320, CERTIFIED, 254, 56]
    assert h == [1, 247, 4293, 15619, 15619, 4293, 247, 1]
    assert peak_mb <= 57


def test_coxeter_b6_within_64_mb():
    """2^6 6! chambers, and a cube for the g-polytope, dual to the short
    root polytope (the cross-polytope): 2^6 vertices and 2 * 6 facets; h is
    the row of type-B Eulerian numbers.  53 MB measured (see the A8
    test)."""
    *counts, h, peak_mb = coxeter_in_its_own_process("B", 6)
    assert counts == [46080, CERTIFIED, 64, 12]
    assert h == [1, 722, 10543, 23548, 10543, 722, 1]
    assert peak_mb <= 64


def test_coxeter_a8_within_435_mb():
    """9! chambers, and the permutohedron's polar pair: 2^9 - 2 vertices and
    9 * 8 facets; h is the row of Eulerian numbers.  Its 1,451,520 walls
    are stored as nothing of their own: the fan keeps the neighbour table
    and each chamber's inverse as 8 ids into a table of the 72 distinct
    rows, which keeps rank 8 inside the bound, about a fifth above the
    peak (361 MB measured on a 2-vCPU Linux box with Python 3.11, against
    474 MB with sorted per-wall columns and 905 MB when each wall was a
    record of three tuples)."""
    *counts, h, peak_mb = coxeter_in_its_own_process("A", 8)
    assert counts == [362880, CERTIFIED, 510, 72]
    assert h == [1, 502, 14608, 88234, 156190, 88234, 14608, 502, 1]
    assert peak_mb <= 435


def test_coxeter_e6_is_certified_and_not_g_convex():
    """|W(E6)| = 51,840; g_polytope raises NotConvex at the first wall with
    v_C . r_b > 1, and convexity_report gives the same verdict."""
    fan = coxeter_fan(e_type(6))
    assert (len(fan.chambers), fan.complete) == (51840, CERTIFIED)
    with pytest.raises(NotConvex):
        g_polytope(fan)
    assert not convexity_report(fan).convex


@pytest.mark.parametrize("graphs", [ribbon_graph_classes, ribbon_graphs],
                         ids=["one per isomorphism class", "every labelling"])
def test_every_ribbon_graph_with_4_edges(graphs):
    """672 trees, 3,072 odd cycles and 1,392 unsupported graphs.  All 5,136
    labellings, as well as one per class weighted by its orbit: the spanning
    tree that classify and root_map read depends on the labelling."""
    assert check_ribbon_graphs(graphs(4)) == RIBBON_GRAPH_COUNTS[4] == (672, 3072, 1392)


def test_every_ribbon_graph_class_with_5_edges():
    """16,128 trees, 98,304 odd cycles and 49,920 unsupported graphs, one
    per isomorphism class weighted by its orbit.  The odd cycles with n
    edges number 8^(n-1) (n-1)! for n = 1..5."""
    assert check_ribbon_graphs(ribbon_graph_classes(5)) == RIBBON_GRAPH_COUNTS[5]
    assert [RIBBON_GRAPH_COUNTS[n][1] for n in range(1, 6)] == \
        [8 ** (n - 1) * factorial(n - 1) for n in range(1, 6)]


# -- the benchmark's oracle ----------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["cluster", "coxeter", "brauer", "stored"])
def test_benchmark_outputs_match_the_closed_forms(workload, trace):
    """run.py exits 0 even when an output is wrong; the verdict is the
    "correct" field of the JSON object on its last line.  With --trace 1
    the tracer wraps the library's functions by name, so a renamed or
    removed one fails here."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
