"""Acceptance criteria, one test per criterion.

Every assertion is exact integer/rational equality; each test prints a
single "criterion N: PASS" line on success (run with -s to see them).
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from tiltfan import lattice as la
from tiltfan.brauer import chambers_by_cliques, root_map, self_admissible_walks, target_roots
from tiltfan.cli import kase_family_fan
from tiltfan.cluster import BudgetExhausted, enumerate_gfan, initial_seed, mutate
from tiltfan.combinatorics import (
    dehn_sommerville,
    ehrhart_bruteforce,
    ehrhart_count,
    f_vector,
    h_vector,
)
from tiltfan.fan import CERTIFIED, hasse_orient, reduce_at_cone, sign_filter
from tiltfan.polytope import (
    NONCONVEX_POSITIVE,
    canonical_rank2_fan,
    convexity_report,
    dual_polytope,
    g_polytope,
    rank2_classify,
    root_polytope,
    short_root_polytope,
)
from tiltfan.weyl import cartan_preset, coxeter_fan, descent_histogram

from conftest import (
    B_A2,
    B_A3,
    B_D4,
    B_KRONECKER,
    gamma2,
    gamma3,
    lattice_iso,
    odd_cycle_5,
    path_tree,
    star_tree,
    triangle,
)

# g/c-matrices along the two alternating mutation branches, read off the
# worked two-vertex multi-arrow example (rows of the 2x2 matrices)
KRONECKER_TOP = [
    ((1,), ((-1, 2), (0, 1)), ((-1, 0), (2, 1))),
    ((1, 2), ((3, -2), (2, -1)), ((-1, -2), (2, 3))),
    ((1, 2, 1), ((-3, 4), (-2, 3)), ((-3, -2), (4, 3))),
    ((1, 2, 1, 2), ((5, -4), (4, -3)), ((-3, -4), (4, 5))),
    ((1, 2, 1, 2, 1), ((-5, 6), (-4, 5)), ((-5, -4), (6, 5))),
]
KRONECKER_BOTTOM = [
    ((2,), ((1, 0), (0, -1)), ((1, 0), (0, -1))),
    ((2, 1), ((-1, 0), (0, -1)), ((-1, 0), (0, -1))),
    ((2, 1, 2), ((-1, 0), (-2, 1)), ((-1, -2), (0, 1))),
    ((2, 1, 2, 1), ((1, -2), (2, -3)), ((-3, -2), (2, 1))),
    ((2, 1, 2, 1, 2), ((-3, 2), (-4, 3)), ((-3, -4), (2, 3))),
    ((2, 1, 2, 1, 2, 1), ((3, -4), (4, -5)), ((-5, -4), (4, 3))),
    ((2, 1, 2, 1, 2, 1, 2), ((-5, 4), (-6, 5)), ((-5, -6), (4, 5))),
]

TABLE_A = {1: (1, 1), 2: (1, 4, 1), 3: (1, 11, 11, 1), 4: (1, 26, 66, 26, 1)}
TABLE_B = {2: (1, 6, 1), 3: (1, 23, 23, 1), 4: (1, 76, 230, 76, 1)}


def f_type_a(n):
    return tuple(factorial(n + m) // (factorial(m) ** 2 * factorial(n - m)) for m in range(n + 1))


def h_type_a(n):
    return tuple(comb(n, k) ** 2 for k in range(n + 1))


def f_type_c(n):
    return tuple(n * 2 ** (2 * m) * comb(n + m, 2 * m) // (n + m) for m in range(n + 1))


def h_type_c(n):
    return tuple(comb(2 * n, 2 * k) for k in range(n + 1))


def test_criterion_01_kronecker_recursion():
    checked = 0
    for seq, c_expected, g_expected in KRONECKER_TOP + KRONECKER_BOTTOM:
        seed = initial_seed(B_KRONECKER)
        for k in seq:
            seed = mutate(seed, k)
        assert seed.c == c_expected, (seq, seed.c)
        assert seed.g == g_expected, (seq, seed.g)
        checked += 1
    assert checked == 12
    print(f"criterion 1: PASS ({checked} checkpoints, exact)")


def test_criterion_02_brauer_tree_n3():
    graph = path_tree(3)
    walks = self_admissible_walks(graph)
    classes = {w.class_vector for w in walks}
    expected = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, -1, 1),
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, 1, 0), (0, -1, 1), (-1, 1, -1),
    }
    assert classes == expected
    fan = chambers_by_cliques(graph)
    f = f_vector(fan)
    h = h_vector(f)
    assert f == (1, 12, 30, 20)
    assert h == (1, 9, 9, 1)
    assert dehn_sommerville(h)
    hist = hasse_orient(fan).out_degree_histogram(len(fan.chambers), fan.rank)
    assert hist == (1, 9, 9, 1)
    print("criterion 2: PASS (12 classes, f=(1,12,30,20), h=hist=(1,9,9,1))")


def test_criterion_03_brauer_odd_cycle_n3():
    expected = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1),
        (1, 1, -1), (2, 0, -1), (0, 2, -1),
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, 1, 0), (-1, 0, 1), (0, -1, 1),
        (-1, -1, 1), (-2, 0, 1), (0, -2, 1),
    }
    g_d, g_c = gamma3(), gamma2()
    walks = self_admissible_walks(g_d)
    assert {w.class_vector for w in walks} == expected
    fan_d = chambers_by_cliques(g_d)
    f = f_vector(fan_d)
    assert f == (1, 18, 48, 32)
    assert h_vector(f) == (1, 15, 15, 1)
    # the other ribbon structure: same classes, different chamber set
    walks_c = self_admissible_walks(g_c)
    assert {w.class_vector for w in walks_c} == expected
    fan_c = chambers_by_cliques(g_c)
    assert f_vector(fan_c) == (1, 18, 48, 32)
    set_d = {frozenset(fan_d.rays[i] for i in c) for c in fan_d.chambers}
    set_c = {frozenset(fan_c.rays[i] for i in c) for c in fan_c.chambers}
    assert set_d != set_c
    print("criterion 3: PASS (18 classes, f=(1,18,48,32), chamber sets differ)")


def test_criterion_04_root_bijection_and_iso():
    tree = path_tree(3)
    rm = root_map(tree)
    walks = self_admissible_walks(tree)
    images = {rm.apply(w.class_vector) for w in walks}
    assert len(images) == len(walks) == 12
    assert images == target_roots(tree)

    oc = gamma3()
    rm = root_map(oc)
    walks = self_admissible_walks(oc)
    images = {rm.apply(w.class_vector) for w in walks}
    assert len(images) == len(walks) == 18
    assert images == target_roots(oc)

    m_a = lattice_iso(g_polytope(chambers_by_cliques(tree)), root_polytope("A", 3))
    assert m_a is not None and la.determinant(m_a) in (1, -1)
    m_c = lattice_iso(g_polytope(chambers_by_cliques(oc)), root_polytope("C", 3))
    assert m_c is not None and la.determinant(m_c) in (1, -1)
    print("criterion 4: PASS (bijections onto 12/18 roots; unimodular isos found)")


def test_criterion_05_closed_formulas():
    for n in range(1, 6):
        fan = chambers_by_cliques(path_tree(n))
        f = f_vector(fan)
        assert f == f_type_a(n), (n, f)
        assert h_vector(f) == h_type_a(n)
    fan = chambers_by_cliques(star_tree(5))
    assert f_vector(fan) == f_type_a(5)

    for graph, n in ((triangle(), 3), (gamma2(), 3), (odd_cycle_5(), 5)):
        fan = chambers_by_cliques(graph)
        f = f_vector(fan)
        assert f == f_type_c(n), (n, f)
        assert h_vector(f) == h_type_c(n)
    print("criterion 5: PASS (trees n=1..5 incl. star; odd-cycles n=3,5)")


def test_criterion_06_ehrhart_consistency():
    fans = [
        chambers_by_cliques(path_tree(3)),
        chambers_by_cliques(gamma2()),
        chambers_by_cliques(gamma3()),
        kase_family_fan(3, 3),
    ]
    fans += [coxeter_fan(cartan_preset("A", n)) for n in range(1, 5)]
    fans += [coxeter_fan(cartan_preset("B", n)) for n in range(2, 5)]
    for fan in fans:
        h = h_vector(f_vector(fan))
        for ell in (1, 2, 3, 4):
            assert ehrhart_bruteforce(fan, ell) == ehrhart_count(h, ell)
    print(f"criterion 6: PASS (brute force = closed form, ell=1..4, {len(fans)} fans)")


def test_criterion_07_eulerian_tables():
    for n, row in TABLE_A.items():
        cd = cartan_preset("A", n)
        assert descent_histogram(cd) == row
        assert h_vector(f_vector(coxeter_fan(cd))) == row
    for n, row in TABLE_B.items():
        cd = cartan_preset("B", n)
        assert descent_histogram(cd) == row
        assert h_vector(f_vector(coxeter_fan(cd))) == row
    print("criterion 7: PASS (type A n=1..4 and type B n=2..4, fans agree)")


def test_criterion_08_preprojective_duality_and_volume():
    for n in (2, 3):
        cd = cartan_preset("B", n)
        fan = coxeter_fan(cd)
        dual, reflexive, _ = dual_polytope(fan)
        assert reflexive
        short = short_root_polytope(cd)
        if set(dual.vertices) != set(short.vertices):
            assert lattice_iso(dual, short) is not None
        volume = Fraction(len(fan.chambers), factorial(n))
        assert volume == 2**n
    print("criterion 8: PASS (B2/B3 duals reflexive = short-root polytopes; vol = 2^n)")


def test_criterion_09_rank2_classification():
    for k in range(1, 8):
        assert rank2_classify(canonical_rank2_fan(k)) == k
    assert rank2_classify(enumerate_gfan(B_A2)) == 2
    assert rank2_classify(coxeter_fan(cartan_preset("B", 2))) == 6
    assert rank2_classify(chambers_by_cliques(path_tree(2))) == 3
    assert rank2_classify(kase_family_fan(4, 5)) is None
    print("criterion 9: PASS (canonical 1..7; A2->2, B2->6, 2-path tree->3, (4,5)->not convex)")


def test_criterion_10_cluster_finiteness_boundary():
    a3 = enumerate_gfan(B_A3)
    assert len(a3.chambers) == 14
    report = convexity_report(a3)
    assert report.convex
    primal = g_polytope(a3)
    dual, reflexive, per_chamber = dual_polytope(a3)
    assert reflexive
    # dual vertices are the column sums of the c-matrices
    sums = _c_column_sums(B_A3)
    for ci in range(len(a3.chambers)):
        key = a3.chamber_key(ci)
        assert tuple(int(x) for x in per_chamber[ci]) == sums[key]
    # P = (P^c)*: the facets of P are exactly {<v, x> <= 1} over dual vertices
    facet_normals = {n for n, off in primal.facets if off == 1}
    assert len(facet_normals) == len(primal.facets)
    assert facet_normals == set(dual.vertices)

    d4 = enumerate_gfan(B_D4)
    assert len(d4.chambers) == 50
    rep = convexity_report(d4)
    assert not rep.convex
    assert any(w.kind == NONCONVEX_POSITIVE for w in rep.walls)

    result = enumerate_gfan(B_KRONECKER, budget=10_000)
    assert isinstance(result, BudgetExhausted)
    print("criterion 10: PASS (A3: 14 chambers convex reflexive, P=(P^c)*; D4: 50, nonconvex; Kronecker exhausts 10^4)")


def _c_column_sums(b_matrix):
    """Map each chamber key of the closed mutation search to sum_i c_i."""
    seed = initial_seed(b_matrix)
    out = {}
    frontier = [seed]
    seen = {seed.chamber_key()}
    out[seed.chamber_key()] = tuple(map(sum, seed.c))
    while frontier:
        nxt = []
        for s in frontier:
            for k in range(1, s.n + 1):
                t = mutate(s, k)
                key = t.chamber_key()
                if key not in seen:
                    seen.add(key)
                    out[key] = tuple(map(sum, t.c))
                    nxt.append(t)
        frontier = nxt
    return out


def test_criterion_11_property_suites():
    rng = random.Random(20260810)
    for trial in range(500):
        n = rng.randint(2, 4)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                b[i][j] = rng.randint(-2, 2)
                b[j][i] = -b[i][j]
        seed = initial_seed(tuple(tuple(r) for r in b))
        length = rng.randint(0, 8)
        for _ in range(length):
            k = rng.randint(1, n)
            before = seed
            seed = mutate(seed, k)
            assert mutate(seed, k).g == before.g  # involution
        assert la.matmul(la.transpose(seed.c), seed.g) == la.identity(n)
        for col in la.transpose(seed.c):
            assert all(x >= 0 for x in col) or all(x <= 0 for x in col)
        for row in seed.g:
            assert all(x >= 0 for x in row) or all(x <= 0 for x in row)

    fans = [
        enumerate_gfan(B_A2),
        enumerate_gfan(B_A3),
        enumerate_gfan(B_D4),
        coxeter_fan(cartan_preset("B", 2)),
        chambers_by_cliques(path_tree(3)),
        chambers_by_cliques(gamma3()),
        kase_family_fan(3, 3),
    ]
    for fan in fans:
        assert fan.complete == CERTIFIED
        # wall-regularity: every codimension-1 face in exactly two chambers
        owners = {}
        for ci, c in enumerate(fan.chambers):
            for sub in combinations(sorted(c), fan.rank - 1):
                owners.setdefault(sub, []).append(ci)
        assert all(len(v) == 2 for v in owners.values())
        # acyclic orientation with unique source and sink
        orient = hasse_orient(fan)
        out = orient.out_degrees(len(fan.chambers))
        assert out.count(0) == 1 and out.count(fan.rank) == 1
        indeg = [0] * len(fan.chambers)
        succ = {i: [] for i in range(len(fan.chambers))}
        for s, d, _ in orient.arrows:
            indeg[d] += 1
            succ[s].append(d)
        pending = [i for i, d in enumerate(indeg) if d == 0]
        seen = 0
        work = list(indeg)
        while pending:
            v = pending.pop()
            seen += 1
            for w in succ[v]:
                work[w] -= 1
                if work[w] == 0:
                    pending.append(w)
        assert seen == len(fan.chambers)
        # sign-filter coverage
        covered = set()
        for eps in product((1, -1), repeat=fan.rank):
            chambers = sign_filter(fan, eps)
            assert len(chambers) == len(set(chambers))
            covered.update(chambers)
        assert covered == set(range(len(fan.chambers)))
        # reductions at every ray re-certify completeness
        for i in range(len(fan.rays)):
            red = reduce_at_cone(fan, [i])
            assert red.complete == CERTIFIED
    print("criterion 11: PASS (500 mutation sequences; fan properties on 7 fans)")
