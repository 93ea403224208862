from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tiltfan import lattice as la
from tiltfan.brauer import chambers_by_cliques
from tiltfan.cli import kase_family_fan
from tiltfan.cluster import enumerate_gfan
from tiltfan.combinatorics import f_vector, h_vector
from tiltfan.errors import NotConvex, NotRank2
from tiltfan.fan import CERTIFIED, fan_from_cones
from tiltfan.polytope import (
    NONCONVEX_POSITIVE,
    NOT_POSITIVE,
    RAY_SUM,
    SINGLE_RAY,
    ZERO,
    LatticePolytope,
    canonical_rank2_fan,
    convex_hull,
    convexity_report,
    dual_polytope,
    g_polytope,
    rank2_classify,
    rank2_fan_from_rays,
    root_polytope,
    short_root_polytope,
    smooth_fano,
)
from tiltfan.weyl import cartan_preset, coxeter_fan, root_system

from conftest import (
    B_D4,
    FINITE_TYPES,
    FRONT_END_FANS,
    b_type_a,
    front_end_fan,
    gamma3,
    lattice_iso,
    odd_cycle,
    path_tree,
    simply_laced,
    star_tree,
)


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


def _rank_subset_hull(points, rank=None):
    """`convex_hull` as it was before double description, the oracle for
    rank <= 4: the facets are the supporting hyperplanes through
    rank-subsets of the points, the vertices the points whose active facet
    normals span the space.  It adds the check the old hull lacked: the
    points are not full-dimensional iff no subset spans a hyperplane or
    every point lies on one facet."""
    points = sorted({tuple(int(x) for x in p) for p in points})
    if not points:
        raise ValueError("no points")
    rank = rank or len(points[0])
    if rank == 1:
        lo, hi = points[0], points[-1]
        if lo == hi:
            raise ValueError("hull is not full-dimensional")
        return LatticePolytope((lo, hi), tuple(sorted((((1,), hi[0]), ((-1,), -lo[0])))))
    facets = set()
    for sub in combinations(points, rank):
        try:
            normal = la.kernel_functional([la.vsub(p, sub[0]) for p in sub[1:]], rank)
        except ValueError:
            continue
        off = la.dot(normal, sub[0])
        values = [la.dot(normal, p) - off for p in points]
        if all(v <= 0 for v in values):
            facets.add((normal, off))
        elif all(v >= 0 for v in values):
            facets.add((la.vneg(normal), -off))
    if not facets or any(all(la.dot(n, p) == off for p in points) for n, off in facets):
        raise ValueError("hull is not full-dimensional")
    vertices = [p for p in points
                if la.rank([n for n, off in facets if la.dot(n, p) == off], rank) == rank]
    return LatticePolytope(tuple(vertices), tuple(sorted(facets)))


@st.composite
def point_sets(draw):
    """Integer point sets in ranks 1-4 with repeated points.  Half of them
    also hold the points +-4 e_i, whose hull contains every other point;
    then half of all sets are flattened onto the hyperplane x_n = x_1 + c
    (x_n = c in rank 1), so that they are not full-dimensional."""
    n = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=7))
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    if draw(st.booleans()):
        points += [tuple(s * 4 * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    if draw(st.booleans()):
        c = draw(coord)
        points = [p[:-1] + ((p[0] if n > 1 else 0) + c,) for p in points]
    return points


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_hull_matches_the_rank_subset_oracle(points):
    try:
        expected = _rank_subset_hull(points)
    except ValueError:
        with pytest.raises(ValueError, match="^hull is not full-dimensional$"):
            convex_hull(points)
        return
    assert convex_hull(points) == expected


@pytest.mark.parametrize("points", [
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
    [(0, 0), (1, 1), (2, 2)],
    [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)],
    [(0, 0, 0, 0), (1, 1, 1, 1), (-2, -2, -2, -2)],
    [(3,), (3,)],
], ids=["coplanar rank 3", "collinear rank 2", "flat rank 4", "collinear rank 4", "one point"])
def test_hull_of_points_that_are_not_full_dimensional_raises(points):
    with pytest.raises(ValueError, match="^hull is not full-dimensional$"):
        convex_hull(points)


@pytest.mark.parametrize("points", [[(0, 0), (1, 0, 5), (0, 1)]], ids=["ragged"])
def test_hull_refuses_points_of_another_rank(points):
    with pytest.raises(ValueError, match="^hull of points with other than 2 coordinates$"):
        convex_hull(points)


def test_hull_of_a_segment_lists_its_facets_sorted():
    assert convex_hull([(2,), (-1,), (0,), (2,)]) == LatticePolytope(
        ((-1,), (2,)), (((-1,), 1), ((1,), 2)))


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


def _quadrant_subdivisions(u, v, bound):
    """Every sequence of rays strictly between the axes u and v, v a quarter
    turn counterclockwise from u, with entries in [-bound, bound] and each
    consecutive pair from u to v a lattice basis of determinant 1."""
    inner = [la.vadd(la.vscale(a, u), la.vscale(b, v))
             for a in range(1, bound + 1) for b in range(1, bound + 1) if gcd(a, b) == 1]

    def det(p, q):
        return p[0] * q[1] - p[1] * q[0]

    def after(last):
        if det(last, v) == 1:
            yield ()
        for w in inner:
            if det(last, w) == 1:
                yield from ((w,) + rest for rest in after(w))

    return list(after(u))


def sign_coherent_rank2_fans(bound):
    """Every complete rank-2 fan with base chamber cone{e1, e2} that is
    sign-coherent and has ray entries in [-bound, bound]: the four axes and
    a unimodular subdivision of each of quadrants 2, 3 and 4."""
    axes = ((0, 1), (-1, 0), (0, -1), (1, 0))
    quadrants = [_quadrant_subdivisions(u, v, bound) for u, v in zip(axes, axes[1:])]
    for parts in product(*quadrants):
        yield rank2_fan_from_rays(list(axes) + [r for part in parts for r in part])


def check_rank2_classification(bound, fans, classified):
    """rank2_classify never raises on the sign-coherent fans of `bound`, and
    gives a class exactly when the fan polytope is convex and no ray lies
    strictly inside the negative quadrant."""
    seen = found = 0
    for fan in sign_coherent_rank2_fans(bound):
        klass = rank2_classify(fan)
        g_convex = convexity_report(fan).convex and not any(x < 0 and y < 0 for x, y in fan.rays)
        assert (klass is not None) == g_convex, fan.rays
        seen += 1
        found += klass is not None
    assert (seen, found) == (fans, classified)


def test_rank2_classify_decides_every_small_sign_coherent_fan():
    check_rank2_classification(2, 125, 16)


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


def starred_orthant_fan():
    """The eight coordinate orthants of Z^3, the positive one starred at
    (1, 1, 1) into three chambers: a certified, sign-coherent fan whose
    polytope is the hull of its rays, but not a g-fan.  The walls inside
    the positive orthant have r_a + r_b = (1, 1, 1) - e_i, a negative
    shared-ray coefficient."""
    e = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    cones = [(e[i], e[j], (1, 1, 1)) for i, j in combinations(range(3), 2)]
    cones += [tuple(la.vscale(s, u) for s, u in zip(signs, e))
              for signs in product((1, -1), repeat=3) if signs != (1, 1, 1)]
    return fan_from_cones(cones, tuple(la.vneg(u) for u in e))


def test_a_fan_with_not_positive_walls_can_be_convex():
    fan = starred_orthant_fan()
    assert fan.complete == CERTIFIED
    assert (len(fan.chambers), len(fan.walls)) == (10, 15)
    rep = convexity_report(fan)
    kinds = [wc.kind for wc in rep.walls]
    assert {k: kinds.count(k) for k in kinds} == {ZERO: 9, RAY_SUM: 3, NOT_POSITIVE: 3}
    assert all(wc.data[:2] == (-1, 1) for wc in rep.walls if wc.kind == NOT_POSITIVE)
    assert rep.convex
    g = g_polytope(fan)
    assert g == convex_hull(fan.rays)
    assert (len(g.vertices), len(g.facets)) == (7, 7)
    assert all(off == 1 for _n, off in g.facets)
    dual, _reflexive, per_chamber = dual_polytope(fan)
    assert len(set(per_chamber)) == 7
    assert dual == convex_hull(per_chamber)
    assert smooth_fano(g) is False


def test_convexity_report_agrees_with_g_polytope():
    """convexity_report says convex exactly when g_polytope succeeds, and on
    a convex fan the polytope is smooth Fano iff the v_C are pairwise
    distinct: a unimodular facet simplex is the cone of one chamber."""
    fans = [front_end_fan(name) for name in FRONT_END_FANS]
    fans += [kase_family_fan(ell, m) for ell in range(1, 9) for m in range(1, 9)]
    fans += [canonical_rank2_fan(k) for k in range(1, 8)]
    for fan in fans:
        convex = convexity_report(fan).convex
        try:
            g = g_polytope(fan)
        except NotConvex:
            assert not convex
            continue
        assert convex
        per_chamber = dual_polytope(fan)[2]
        assert smooth_fano(g) == (len(set(per_chamber)) == len(fan.chambers))


def _reference_polar_pair(fan):
    """`g_polytope` and `dual_polytope` as they were before they read the
    chamber inverses: the hulls of the rays and of the v_C, each v_C by an
    exact solve of R^T v = 1."""
    per_chamber = tuple(
        tuple(la.solve_exact(la.transpose(fan.ray_matrix(ci)), (1,) * fan.rank))
        for ci in range(len(fan.chambers))
    )
    return (_rank_subset_hull(fan.rays, fan.rank), _rank_subset_hull(per_chamber, fan.rank),
            per_chamber)


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
        ca, cb = w.chambers
        face = set(fan.chambers[ca]) & set(fan.chambers[cb])
        shared = sorted(face)
        (free_a,), (free_b,) = set(fan.chambers[ca]) - face, set(fan.chambers[cb]) - face
        basis = la.transpose([fan.rays[i] for i in shared] + [fan.rays[free_a]])
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
    fans = [
        enumerate_gfan(((0, 1), (-1, 0))),
        enumerate_gfan(B_D4),
        kase_family_fan(4, 5),
        kase_family_fan(3, 3),
        coxeter_fan(cartan_preset("B", 3)),
        coxeter_fan(FINITE_TYPES["G2"]),
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


def _count_inverse_passes(monkeypatch):
    """Refuse every elimination in `la` and record the chamber inverses of
    each `_inverse_rows` pass, so a test sees how often they are built."""
    from tiltfan import polytope

    def refuse(*args):
        raise AssertionError("a chamber inverse was computed by elimination")

    for name in ("scaled_inverse", "invert_unimodular", "solve_exact"):
        monkeypatch.setattr(la, name, refuse)
    passes = []
    build = polytope._inverse_rows

    def counted(fan):
        rows = build(fan)
        passes.append(rows)
        return rows

    monkeypatch.setattr(polytope, "_inverse_rows", counted)
    return passes


def _assert_inverses(fan, rows):
    assert len(rows) == len(fan.chambers)
    for c, chamber_rows in zip(fan.chambers, rows):
        assert len(chamber_rows) == len(c)
        for i, row in zip(c, chamber_rows):
            assert all(la.dot(row, fan.rays[j]) == int(i == j) for j in c)


def test_convexity_report_rebuilds_each_chamber_inverse_once(monkeypatch):
    """convexity_report builds every chamber inverse in one pass over the
    walls, each row a signed wall normal: no inverse by elimination."""
    fan = coxeter_fan(cartan_preset("A", 3))
    passes = _count_inverse_passes(monkeypatch)
    assert convexity_report(fan).convex
    assert len(passes) == 1
    _assert_inverses(fan, passes[0])


def test_g_polytope_rebuilds_each_chamber_inverse_once(monkeypatch):
    """g_polytope and dual_polytope each build every chamber inverse in one
    pass over the walls: no inverse by elimination."""
    fan = coxeter_fan(cartan_preset("A", 3))
    passes = _count_inverse_passes(monkeypatch)
    g = g_polytope(fan)
    assert len(passes) == 1
    _assert_inverses(fan, passes[0])
    dual, reflexive, per_chamber = dual_polytope(fan)
    assert len(passes) == 2
    assert reflexive and len(per_chamber) == len(fan.chambers) == 24
    assert set(dual.vertices) == {n for n, _off in g.facets}


def _reference_root_polytope(type_, n):
    """`root_polytope` as it was before it read `weyl.root_system`: the roots
    listed in the unit basis u_i, then solved in the simple-root basis, and
    their hull by the rank-subset oracle."""
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
    b = la.transpose(basis)
    coords = []
    for r in roots:
        sol = la.solve_exact(b, r)
        assert all(x.denominator == 1 for x in sol)
        coords.append(tuple(int(x) for x in sol))
    return _rank_subset_hull(coords, n)


@pytest.mark.parametrize("type_, n", [(t, n) for t in "AC" for n in range(1, 5)])
def test_root_polytope_matches_the_unit_basis_construction(type_, n):
    assert root_polytope(type_, n) == _reference_root_polytope(type_, n)


@pytest.mark.parametrize("type_, n", [("A", 0), ("C", -1), ("B", 2), ("D", 4)])
def test_root_polytope_rejects_bad_input(type_, n):
    with pytest.raises(ValueError):
        root_polytope(type_, n)


@pytest.mark.parametrize("n", [5, 6])
def test_root_polytope_closed_forms_past_rank_4(n):
    a_n, c_n = root_polytope("A", n), root_polytope("C", n)
    assert (len(a_n.vertices), len(a_n.facets)) == (n * (n + 1), 2 ** (n + 1) - 2)
    assert (len(c_n.vertices), len(c_n.facets)) == (2 * n, 2 ** n)


@pytest.mark.parametrize("cd, vertices, facets", [
    (simply_laced(5, [(0, 1), (1, 2), (2, 3), (2, 4)]), 40, 42),
    (simply_laced(6, [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]), 72, 54),
], ids=["D5", "E6"])
def test_simply_laced_root_polytopes(cd, vertices, facets):
    """Every root of D5 and E6 is short and a vertex of the root polytope."""
    roots, short = root_system(cd)
    poly = short_root_polytope(cd)
    assert short == roots and poly.vertices == tuple(sorted(roots))
    assert (len(poly.vertices), len(poly.facets)) == (vertices, facets)


@pytest.mark.parametrize("type_, n", [(t, n) for t in "AB" for n in (3, 4, 5)])
def test_short_root_polytope_is_the_dual_of_the_coxeter_fan(type_, n):
    """The dual of the preprojective g-polytope is the short root polytope:
    a hull of the short roots against the v_C of the chamber inverses."""
    cd = cartan_preset(type_, n)
    assert short_root_polytope(cd) == dual_polytope(coxeter_fan(cd))[0]


def check_dual_is_the_short_root_polytope(fan, cd):
    """Hull-free certificate that the dual of the preprojective g-polytope
    is conv(short roots): its vertices are exactly the short roots, and
    every short root satisfies every dual facet."""
    dual = dual_polytope(fan)[0]
    _roots, short = root_system(cd)
    assert set(dual.vertices) == short
    assert all(dual.contains(s) for s in short)


@pytest.mark.parametrize("name", [f"{t}{n}" for t in "AB" for n in (2, 3, 4, 5)])
def test_dual_is_the_short_root_polytope_without_a_hull(name):
    check_dual_is_the_short_root_polytope(front_end_fan(f"coxeter {name}"), FINITE_TYPES[name])


@pytest.mark.parametrize("name", FINITE_TYPES)
def test_g_convex_preprojective_types(name):
    """Of the finite types of rank <= 5, exactly A_n and B_n (in the
    preset's convention) have a convex g-polytope; the others raise
    NotConvex."""
    fan = coxeter_fan(FINITE_TYPES[name])
    if name[0] in "AB":
        g_polytope(fan)
    else:
        with pytest.raises(NotConvex):
            g_polytope(fan)


def _smooth_fano_or_none(fan):
    """smooth_fano of the g-polytope, None when the fan polytope is not convex."""
    try:
        return smooth_fano(g_polytope(fan))
    except NotConvex:
        return None


def test_the_smooth_fano_front_end_fans():
    """Of the front-end fans, exactly the rank-1 and type-A2 ones have a
    smooth Fano g-polytope.  arXiv 2203.15213 characterises the algebras
    whose g-polytope is smooth Fano; this pins what the sweep finds, not
    the theorem."""
    smooth = [name for name in FRONT_END_FANS if _smooth_fano_or_none(front_end_fan(name))]
    assert smooth == ["cluster A1", "cluster A2", "coxeter A1", "coxeter A2", "path 2"]


def _block_diagonal(*blocks):
    n = sum(map(len, blocks))
    b, offset = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            b[offset + i][offset:offset + len(row)] = row
        offset += len(block)
    return tuple(map(tuple, b))


@pytest.mark.parametrize("parts, chambers, h, smooth", [
    ((1, 1, 1), 8, (1, 3, 3, 1), True),
    ((2, 1), 10, (1, 4, 4, 1), True),
    ((2, 2), 25, (1, 6, 11, 6, 1), True),
    ((2, 2, 2), 125, (1, 9, 30, 45, 30, 9, 1), True),
    ((3, 1), 28, (1, 7, 12, 7, 1), False),
])
def test_products_of_type_a_cluster_fans(parts, chambers, h, smooth):
    """A block-diagonal exchange matrix gives the product fan: chambers and
    h-vectors multiply, (1, 3, 1)^2 = (1, 6, 11, 6, 1) for A2 x A2.
    Products of A1 and A2 have a smooth Fano g-polytope, A3 x A1 does not."""
    fan = enumerate_gfan(_block_diagonal(*map(b_type_a, parts)))
    assert (len(fan.chambers), fan.complete) == (chambers, CERTIFIED)
    assert h_vector(f_vector(fan)) == h
    assert _smooth_fano_or_none(fan) is smooth
