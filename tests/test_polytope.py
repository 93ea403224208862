from fractions import Fraction

import pytest

from tiltfan import lattice as la
from tiltfan.brauer import chambers_by_cliques
from tiltfan.cli import kase_family_fan
from tiltfan.cluster import enumerate_gfan
from tiltfan.errors import NotConvex, NotRank2
from tiltfan.fan import inverse_from_normals
from tiltfan.polytope import (
    NONCONVEX_POSITIVE,
    SINGLE_RAY,
    ZERO,
    canonical_rank2_fan,
    convex_hull,
    convexity_report,
    dual_polytope,
    g_polytope,
    lattice_iso,
    rank2_classify,
    root_polytope,
    smooth_fano,
)
from tiltfan.weyl import cartan_preset, coxeter_fan

from conftest import B_D4, b_type_a, gamma3, odd_cycle, path_tree, star_tree


def square_fan():
    from tiltfan.fan import build_fan

    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    return build_fan(rays, [{0, 1}, {1, 2}, {2, 3}, {3, 0}], 0)


def test_hull_oracle_rank2():
    points = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (0, 0)]
    poly = convex_hull(points)
    assert poly.vertices == tuple(sorted(points[:-1]))
    for p in points:
        assert poly.contains(p)
    for normal, off in poly.facets:
        assert any(la.dot(normal, v) == off for v in poly.vertices)


def test_hull_oracle_rank3():
    # octahedron: every input point a vertex, every facet supporting
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    poly = convex_hull(pts)
    assert len(poly.vertices) == 6
    assert len(poly.facets) == 8
    assert poly.contains((0, 0, 0))
    assert not poly.contains((1, 1, 1))


def test_convexity_pentagon(pentagon_fan):
    rep = convexity_report(pentagon_fan)
    assert rep.convex
    kinds = sorted(w.kind for w in rep.walls)
    assert kinds == [SINGLE_RAY, SINGLE_RAY, SINGLE_RAY, ZERO, ZERO]


def test_convexity_square():
    rep = convexity_report(square_fan())
    assert rep.convex
    assert all(w.kind == ZERO for w in rep.walls)


def test_convexity_kase():
    assert convexity_report(kase_family_fan(3, 3)).convex
    rep = convexity_report(kase_family_fan(4, 5))
    assert not rep.convex
    assert any(w.kind == NONCONVEX_POSITIVE for w in rep.walls)


def test_g_polytope_pentagon(pentagon_fan):
    poly = g_polytope(pentagon_fan)
    assert len(poly.vertices) == 5
    assert set(poly.vertices) == set(pentagon_fan.rays)


def test_g_polytope_b2_parallelogram():
    # the hull of the eight rays has four vertices; the other rays lie
    # on facet interiors
    fan = coxeter_fan(cartan_preset("B", 2))
    poly = g_polytope(fan)
    assert set(poly.vertices) == {(0, 1), (-2, 1), (0, -1), (2, -1)}
    for r in fan.rays:
        assert any(la.dot(n, r) == off for n, off in poly.facets)


def test_g_polytope_rank1():
    from tiltfan.fan import build_fan

    fan = build_fan([(1,), (-1,)], [{0}, {1}], 0)
    assert g_polytope(fan).vertices == ((-1,), (1,))


def test_g_polytope_requires_convex():
    with pytest.raises(NotConvex):
        g_polytope(kase_family_fan(4, 5))


def test_dual_polytope_pentagon(pentagon_fan):
    poly, reflexive, per_chamber = dual_polytope(pentagon_fan)
    assert reflexive
    assert set(poly.vertices) == {(1, 1), (0, 1), (-1, 0), (-1, -1), (1, -1)}
    base = pentagon_fan.base
    assert tuple(per_chamber[base]) == (Fraction(1), Fraction(1))


def test_dual_vertices_support_primal(pentagon_fan):
    primal = g_polytope(pentagon_fan)
    _poly, _refl, per_chamber = dual_polytope(pentagon_fan)
    for v in per_chamber:
        values = [sum(a * b for a, b in zip(v, vert)) for vert in primal.vertices]
        assert max(values) == 1


def test_smooth_fano():
    square = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert smooth_fano(square)
    pentagon = convex_hull([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)])
    assert smooth_fano(pentagon)
    b2 = g_polytope(coxeter_fan(cartan_preset("B", 2)))
    assert not smooth_fano(b2)


def test_rank2_classification():
    for k in range(1, 8):
        assert rank2_classify(canonical_rank2_fan(k)) == k


def test_rank2_classify_frontends(pentagon_fan):
    assert rank2_classify(pentagon_fan) == 2
    assert rank2_classify(coxeter_fan(cartan_preset("B", 2))) == 6
    assert rank2_classify(chambers_by_cliques(path_tree(2))) == 3
    assert rank2_classify(kase_family_fan(4, 5)) is None


def test_rank2_classify_requires_rank2(a3_cluster_fan):
    with pytest.raises(NotRank2):
        rank2_classify(a3_cluster_fan)


def test_root_polytope_a1():
    seg = root_polytope("A", 1)
    assert seg.vertices == ((-1,), (1,))


def test_root_polytope_a2():
    hexagon = root_polytope("A", 2)
    assert len(hexagon.vertices) == 6
    boundary = [p for p in hexagon.vertices]
    assert set(boundary) == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}


def test_root_polytope_c2():
    square = root_polytope("C", 2)
    # the long roots are the vertices; short roots sit on the edges
    assert len(square.vertices) == 4


def test_lattice_iso_examples(a3_cluster_fan):
    tree_fan = chambers_by_cliques(path_tree(3))
    m = lattice_iso(g_polytope(tree_fan), root_polytope("A", 3))
    assert m is not None
    assert la.determinant(m) in (1, -1)
    oc_fan = chambers_by_cliques(gamma3())
    m2 = lattice_iso(g_polytope(oc_fan), root_polytope("C", 3))
    assert m2 is not None


def test_lattice_iso_negative():
    pentagon = convex_hull([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)])
    square = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert lattice_iso(pentagon, square) is None


def test_rays_on_boundary_unique_interior_point(pentagon_fan, a3_cluster_fan):
    for fan in (pentagon_fan, a3_cluster_fan):
        poly = g_polytope(fan)
        for r in fan.rays:
            assert any(la.dot(n, r) == off for n, off in poly.facets)
        # the origin is the only interior lattice point
        bounds = [max(abs(v[i]) for v in poly.vertices) for i in range(fan.rank)]
        interior = []
        from itertools import product

        for p in product(*(range(-b, b + 1) for b in bounds)):
            if all(la.dot(n, p) < off for n, off in poly.facets):
                interior.append(p)
        assert interior == [tuple([0] * fan.rank)]


def test_d4_not_convex():
    fan = enumerate_gfan(B_D4)
    with pytest.raises(NotConvex):
        g_polytope(fan)


def test_compare_fan_invariants(pentagon_fan, a3_cluster_fan):
    from tiltfan.polytope import compare_fan_invariants

    verdict, _, _ = compare_fan_invariants(pentagon_fan, pentagon_fan)
    assert verdict == "match"
    verdict, pa, pb = compare_fan_invariants(pentagon_fan, a3_cluster_fan)
    assert verdict == "differ"
    assert pa["f"] != pb["f"]


def test_compare_fan_invariants_counts_vertices_in_rank5():
    from tiltfan.polytope import compare_fan_invariants

    verdict, pa, pb = compare_fan_invariants(chambers_by_cliques(path_tree(5)),
                                             chambers_by_cliques(odd_cycle(5)), ell_max=1)
    assert verdict == "differ"
    assert (pa["hull_vertices"], pb["hull_vertices"]) == (30, 10)


def _reference_polar_pair(fan):
    """`g_polytope` and `dual_polytope` as they were before they read the
    chamber inverses: the hulls of the rays and of the v_C, each v_C by an
    exact solve of R^T v = 1."""
    per_chamber = tuple(
        tuple(la.solve_exact(la.transpose(fan.ray_matrix(ci)), (1,) * fan.rank))
        for ci in range(len(fan.chambers))
    )
    return convex_hull(fan.rays, fan.rank), convex_hull(per_chamber, fan.rank), per_chamber


ORACLE_FANS = {
    **{f"cluster A{n}": (lambda n=n: enumerate_gfan(b_type_a(n))) for n in range(1, 5)},
    **{f"coxeter {t}{n}": (lambda t=t, n=n: coxeter_fan(cartan_preset(t, n)))
       for t, n in (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3))},
    **{f"path {n}": (lambda n=n: chambers_by_cliques(path_tree(n))) for n in (2, 3, 4)},
    **{f"star {n}": (lambda n=n: chambers_by_cliques(star_tree(n))) for n in (3, 4)},
    **{f"odd {n}": (lambda n=n: chambers_by_cliques(odd_cycle(n))) for n in (3, 4)},
    **{f"kase {ell},{m}": (lambda ell=ell, m=m: kase_family_fan(ell, m))
       for ell in (1, 2, 3) for m in (1, 2, 3)},
    **{f"canonical {k}": (lambda k=k: canonical_rank2_fan(k)) for k in range(1, 8)},
}


@pytest.mark.parametrize("name", ORACLE_FANS)
def test_polar_pair_matches_the_hulls(name):
    fan = ORACLE_FANS[name]()
    ref_g, ref_dual, ref_per_chamber = _reference_polar_pair(fan)
    dual, reflexive, per_chamber = dual_polytope(fan)
    assert reflexive
    assert per_chamber == ref_per_chamber
    for poly, ref in ((g_polytope(fan), ref_g), (dual, ref_dual)):
        assert poly.vertices == ref.vertices
        assert poly.facets == tuple(sorted(ref.facets))


@pytest.mark.parametrize("make, vertices, facets", [
    (lambda: chambers_by_cliques(path_tree(5)), 30, 62),  # A_5 root polytope
    (lambda: chambers_by_cliques(odd_cycle(5)), 10, 32),  # C_5 root polytope
    (lambda: coxeter_fan(cartan_preset("A", 5)), 62, 30),  # dual of the A_5 one
    (lambda: coxeter_fan(cartan_preset("B", 4)), 16, 8),  # the 4-cube
], ids=["path 5", "odd 5", "coxeter A5", "coxeter B4"])
def test_polar_pair_closed_forms_beyond_the_hull_cap(make, vertices, facets):
    fan = make()
    g = g_polytope(fan)
    dual, reflexive, per_chamber = dual_polytope(fan)
    assert (len(g.vertices), len(g.facets)) == (vertices, facets)
    assert (len(dual.vertices), len(dual.facets)) == (facets, vertices)
    assert reflexive and len(per_chamber) == len(fan.chambers)
    assert all(off == 1 for _n, off in g.facets + dual.facets)


def test_polytopes_of_a_rank0_fan_raise():
    from tiltfan.fan import build_fan

    fan = build_fan([], [()], 0)
    for polytope_of in (g_polytope, dual_polytope):
        with pytest.raises(ValueError):
            polytope_of(fan)



def _reference_convexity_report(fan):
    """`convexity_report` as it was before it read chamber inverses: the
    coefficients of v + v' by an exact solve in the basis (shared rays, v)."""
    from tiltfan.polytope import RAY_SUM, ConvexityReport, WallClass

    out = []
    for w in fan.walls:
        shared = sorted(w.shared)
        ca, cb = w.chambers
        (free_a,), (free_b,) = fan.chambers[ca] - w.shared, fan.chambers[cb] - w.shared
        basis = la.from_columns([fan.rays[i] for i in shared] + [fan.rays[free_a]],
                                rank=fan.rank)
        total = la.vadd(fan.rays[free_a], fan.rays[free_b])
        coeffs = tuple(int(x) for x in la.solve_exact(basis, total))
        part, last = coeffs[:-1], coeffs[-1]
        if last != 0 or any(c < 0 for c in part):
            kind, data = "NotPositive", coeffs
        elif not any(part):
            kind, data = ZERO, ()
        elif sum(part) == 1:
            kind, data = SINGLE_RAY, (shared[part.index(1)],)
        elif sum(part) == 2 and max(part) <= 2:
            kind, data = RAY_SUM, tuple(shared[i] for i, c in enumerate(part) for _ in range(c))
        else:
            kind, data = NONCONVEX_POSITIVE, coeffs
        out.append(WallClass(tuple(shared), kind, data))
    convex = all(wc.kind in (ZERO, SINGLE_RAY, RAY_SUM) for wc in out)
    return ConvexityReport(convex, tuple(out))


def test_convexity_report_matches_the_exact_solve():
    from tiltfan.weyl import CartanData

    fans = [
        enumerate_gfan(((0, 1), (-1, 0))),
        enumerate_gfan(B_D4),
        kase_family_fan(4, 5),
        kase_family_fan(3, 3),
        coxeter_fan(cartan_preset("B", 3)),
        coxeter_fan(CartanData(((2, -1), (-3, 2)), (1, 3))),
        chambers_by_cliques(gamma3()),
        chambers_by_cliques(path_tree(4)),
        square_fan(),
    ]
    kinds = set()
    for fan in fans:
        rep = convexity_report(fan)
        assert rep == _reference_convexity_report(fan)
        kinds.update(wc.kind for wc in rep.walls)
    assert kinds == {ZERO, SINGLE_RAY, NONCONVEX_POSITIVE, "RaySum"}


def test_convexity_report_rebuilds_each_chamber_inverse_once(monkeypatch):
    from tiltfan import polytope

    fan = coxeter_fan(cartan_preset("A", 3))
    calls = []

    def counted(rays, idx, normals):
        calls.append(tuple(idx))
        return inverse_from_normals(rays, idx, normals)

    monkeypatch.setattr(polytope, "inverse_from_normals", counted)
    assert convexity_report(fan).convex
    assert sorted(calls) == sorted({tuple(sorted(fan.chambers[w.chambers[0]])) for w in fan.walls})


def _reference_root_polytope(type_, n):
    """`root_polytope` as it was before it read `weyl.root_system`: the roots
    listed in the unit basis u_i, then solved in the simple-root basis."""
    t = type_.upper()
    nv = n + 1 if t == "A" else n
    unit = lambda k: tuple(1 if i == k else 0 for i in range(nv))
    if t == "A":
        roots = [la.vsub(unit(i), unit(j)) for i in range(nv) for j in range(nv) if i != j]
        basis = [la.vsub(unit(i), unit(i + 1)) for i in range(n)]
    else:
        roots = []
        for i in range(nv):
            roots += [la.vscale(2, unit(i)), la.vscale(-2, unit(i))]
            for j in range(i + 1, nv):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.append(la.vadd(la.vscale(si, unit(i)), la.vscale(sj, unit(j))))
        basis = [la.vsub(unit(i), unit(i + 1)) for i in range(n - 1)] + [la.vscale(2, unit(n - 1))]
    b = la.from_columns(basis, rank=nv)
    coords = []
    for r in roots:
        sol = la.solve_exact(b, r)
        assert all(x.denominator == 1 for x in sol)
        coords.append(tuple(int(x) for x in sol))
    return convex_hull(coords, n)


@pytest.mark.parametrize("type_, n", [(t, n) for t in "AC" for n in range(1, 5)])
def test_root_polytope_matches_the_unit_basis_construction(type_, n):
    assert root_polytope(type_, n) == _reference_root_polytope(type_, n)


@pytest.mark.parametrize("type_, n", [("A", 0), ("C", -1), ("B", 2), ("D", 4)])
def test_root_polytope_rejects_bad_input(type_, n):
    with pytest.raises(ValueError):
        root_polytope(type_, n)
