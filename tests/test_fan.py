import json
from itertools import chain, combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tiltfan import fan as fan_module
from tiltfan import lattice as la
from tiltfan.brauer import chambers_by_cliques
from tiltfan.cli import kase_family_fan
from tiltfan.cluster import enumerate_gfan
from tiltfan.combinatorics import ehrhart_bruteforce, f_vector
from tiltfan.errors import (
    IncompleteFan,
    NonUnimodularChamber,
    NotAFace,
    OrderViolation,
    SignCoherenceViolation,
    TiltfanError,
)
from tiltfan.fan import (
    CERTIFIED,
    UNKNOWN,
    build_fan,
    faces,
    fan_from_cones,
    fan_from_json,
    fan_to_json,
    hasse_orient,
    reduce_at_cone,
    sign_filter,
    verify_pairwise_intersections,
)
from tiltfan.polytope import (
    convex_hull,
    convexity_report,
    dual_polytope,
    g_polytope,
    rank2_classify,
    rank2_fan_from_rays,
    smooth_fano,
)
from tiltfan.weyl import CartanData, cartan_preset, coxeter_fan

from conftest import (
    B_A2,
    B_A3,
    B_KRONECKER,
    FRONT_END_FANS,
    b_type_a,
    front_end_fan,
    odd_cycle,
    odd_cycle_5,
    path_tree,
    star_tree,
    vector_chambers,
)

FAN_FILES = Path(__file__).resolve().parent.parent / "benchmarks" / "fans"

PENTAGON_RAYS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
PENTAGON_CHAMBERS = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}]


def pentagon():
    return build_fan(PENTAGON_RAYS, PENTAGON_CHAMBERS, 0)


def test_build_pentagon_complete():
    fan = pentagon()
    assert fan.complete == CERTIFIED
    assert len(fan.walls) == 5


def test_build_single_orthant_unknown():
    fan = build_fan([(1, 0), (0, 1)], [{0, 1}], 0)
    assert fan.complete == UNKNOWN


def test_build_rejects_dependent_rays():
    with pytest.raises(NonUnimodularChamber):
        build_fan([(1, 0), (-1, 0)], [{0, 1}], 0)
    with pytest.raises(NonUnimodularChamber) as exc:
        build_fan([(1, 0), (1, 2)], [{0, 1}], 0)
    assert exc.value.det == 2


def test_build_rejects_nonprimitive_ray():
    with pytest.raises(ValueError):
        build_fan([(2, 0), (0, 1)], [{0, 1}], 0)


def test_build_rejects_sign_incoherence():
    # chamber {e1, -e1+...} sits astride the base orthant
    rays = [(1, 0), (0, 1), (1, -1), (-1, 0)]
    with pytest.raises(SignCoherenceViolation):
        build_fan(rays, [{0, 1}, {1, 3}, {0, 2}, {2, 3}], 0)


def test_faces_counts():
    fan = pentagon()
    assert len(faces(fan, 0)) == 1
    assert faces(fan, 0) == {()}
    assert faces(fan, 1) == {(0,), (1,), (2,), (3,), (4,)}
    assert len(faces(fan, 1)) == 5
    assert faces(fan, 2) == {tuple(sorted(c)) for c in PENTAGON_CHAMBERS}
    incomplete = build_fan([(1, 0), (0, 1)], [{0, 1}], 0)
    with pytest.raises(IncompleteFan):
        faces(incomplete, 1)
    for i in (-1, 3):
        with pytest.raises(TiltfanError, match=f"^face dimension {i} out of range$"):
            faces(fan, i)


@pytest.mark.parametrize("call, what", [
    (f_vector, "f-vector"),
    (lambda fan: ehrhart_bruteforce(fan, 1), "Ehrhart enumeration"),
    (lambda fan: faces(fan, 1), "face enumeration"),
    (hasse_orient, "orientation"),
    (lambda fan: reduce_at_cone(fan, ()), "reduction"),
    (convexity_report, "convexity"),
    (g_polytope, "convexity"),
    (dual_polytope, "convexity"),
    (rank2_classify, "classification"),
], ids=["f_vector", "ehrhart_bruteforce", "faces", "hasse_orient", "reduce_at_cone",
        "convexity_report", "g_polytope", "dual_polytope", "rank2_classify"])
def test_a_partial_fan_is_refused_where_completeness_is_needed(call, what):
    with pytest.raises(IncompleteFan, match=f"^{what} requires a certified-complete fan$"):
        call(enumerate_gfan(B_KRONECKER, budget=10).partial_fan)


@pytest.mark.parametrize("call, message", [
    (lambda: verify_pairwise_intersections(enumerate_gfan(b_type_a(4), budget=3).partial_fan),
     "paranoid verification is limited to rank <= 3"),
    (lambda: smooth_fano(convex_hull([(0, 0), (1, 0), (0, 1)])),
     "smooth-Fano test needs the origin strictly inside"),
    (lambda: ehrhart_bruteforce(pentagon(), 0), "dilation factor must be >= 1"),
    (lambda: convex_hull([]), "no points"),
    (lambda: fan_module.wall_crossing_search([(1, 0), (0, 1)], None, 0), "budget must be >= 1"),
    (lambda: rank2_fan_from_rays([(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)]),
     r"the base cone \(\(1, 0\), \(0, 1\)\) is not one of the cones"),
    (lambda: fan_from_cones([((1, 0), (0, 1))], ((1, 0), (0, -1))),
     r"the base cone \(\(1, 0\), \(0, -1\)\) is not one of the cones"),
], ids=["paranoid rank 4", "smooth Fano off the origin", "dilation 0", "empty hull",
        "budget 0", "base cone split", "base ray missing"])
def test_library_guards_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_hasse_pentagon():
    fan = pentagon()
    orient = hasse_orient(fan)
    degs = sorted(orient.out_degrees(len(fan.chambers)))
    assert degs == [0, 1, 1, 1, 2]
    # unique source is the base, unique sink its negative
    srcs = [c for c, d in enumerate(orient.out_degrees(5)) if d == 2]
    assert srcs == [fan.base]


def test_hasse_rank1():
    fan = build_fan([(1,), (-1,)], [{0}, {1}], 0)
    orient = hasse_orient(fan)
    assert len(orient.arrows) == 1
    src, dst, _ = orient.arrows[0]
    assert fan.rays[next(iter(fan.chambers[src]))] == (1,)
    assert fan.rays[next(iter(fan.chambers[dst]))] == (-1,)


def test_hasse_orient_refuses_a_wall_split_by_the_base_chamber():
    """The ray (-1, -1) spans a wall whose normal is positive on one base
    ray and negative on the other, so no orientation away from the base
    exists; counting the walls each chamber leaves through needs none."""
    from tiltfan.combinatorics import f_vector
    from tiltfan.polytope import rank2_fan_from_rays

    fan = rank2_fan_from_rays([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)])
    assert fan.complete == CERTIFIED and fan.rays[0] == (-1, -1)
    with pytest.raises(OrderViolation) as exc:
        hasse_orient(fan)
    assert exc.value.wall == (0,)
    assert str(exc.value) == "wall (0,) admits no normal that is nonnegative on the base chamber"
    assert f_vector(fan) == (1, 5, 5)


def test_hasse_acyclic_unique_source_sink(pentagon_fan, a3_cluster_fan):
    for fan in (pentagon_fan, a3_cluster_fan):
        orient = hasse_orient(fan)
        n = len(fan.chambers)
        out = orient.out_degrees(n)
        indeg = [0] * n
        succ = {i: [] for i in range(n)}
        for s, d, _ in orient.arrows:
            indeg[d] += 1
            succ[s].append(d)
        assert out.count(fan.rank) == 1  # source crosses every wall downward
        assert out.count(0) == 1
        assert indeg.count(0) == 1
        # topological order exists: acyclic
        order = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        pending = list(order)
        indeg2 = list(indeg)
        while pending:
            v = pending.pop()
            seen += 1
            for w in succ[v]:
                indeg2[w] -= 1
                if indeg2[w] == 0:
                    pending.append(w)
        assert seen == n


def test_sign_filter_pentagon():
    fan = pentagon()
    plus = sign_filter(fan, (1, 1))
    assert [sorted(fan.rays[i] for i in fan.chambers[c]) for c in plus] == [
        [(0, 1), (1, 0)]
    ]
    minus = sign_filter(fan, (-1, -1))
    assert [sorted(fan.rays[i] for i in fan.chambers[c]) for c in minus] == [
        [(-1, 0), (0, -1)]
    ]
    for eps in ((1,), (1, 0), (1, 1, 1)):
        with pytest.raises(TiltfanError, match="^eps must be a vector over"):
            sign_filter(fan, eps)


def test_sign_filter_covers_all_chambers(pentagon_fan, a3_cluster_fan):
    for fan in (pentagon_fan, a3_cluster_fan):
        covered = set()
        for eps in _orthants(fan.rank):
            covered.update(sign_filter(fan, eps))
        assert covered == set(range(len(fan.chambers)))


def _orthants(n):
    return product((1, -1), repeat=n)


def test_reduce_pentagon_at_ray():
    fan = pentagon()
    red = reduce_at_cone(fan, [fan.rays.index((0, 1))])
    assert red.rank == 1
    assert len(red.chambers) == 2
    assert red.complete == CERTIFIED


def test_reduce_at_empty_cone_is_identity():
    fan = pentagon()
    assert reduce_at_cone(fan, []) is fan


def test_reduce_full_chamber_gives_rank_zero():
    fan = pentagon()
    red = reduce_at_cone(fan, fan.chambers[0])
    assert red.rank == 0
    assert red.chambers == ((),)
    assert red.complete == CERTIFIED


def test_reduce_not_a_face():
    fan = pentagon()
    # rays 0 and 2 never span a common cone: (1,0) and (-1,1)
    with pytest.raises(NotAFace):
        reduce_at_cone(fan, [0, 2])


@pytest.mark.parametrize("make", [
    lambda: enumerate_gfan(B_A3),
    lambda: enumerate_gfan(b_type_a(4)),
    lambda: coxeter_fan(cartan_preset("A", 3)),
    lambda: coxeter_fan(cartan_preset("B", 3)),
    lambda: chambers_by_cliques(path_tree(4)),
], ids=["cluster A3", "cluster A4", "weyl A3", "weyl B3", "brauer path4"])
def test_each_reduction_builds_one_fan(make, monkeypatch):
    # the base is picked on the projected rays, so the reduced fan is built once
    fan = make()
    calls = []
    original = fan_module.build_fan

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fan_module, "build_fan", counting)
    for i in range(len(fan.rays)):
        calls.clear()
        red = reduce_at_cone(fan, [i])
        assert len(calls) == 1
        assert red.complete == CERTIFIED
        assert red.rank == fan.rank - 1
        assert len(red.chambers) == sum(1 for c in fan.chambers if i in c)


def test_reduce_a3_star_counts(a3_cluster_fan):
    fan = a3_cluster_fan
    for i in range(len(fan.rays)):
        red = reduce_at_cone(fan, [i])
        star = sum(1 for c in fan.chambers if i in c)
        assert red.rank == 2
        assert len(red.chambers) == star
        assert red.complete == CERTIFIED


# -- idempotent reduction: Sigma(A/<e>) at the shifted projectives -------------


def _tree_orientations(n, edges):
    """Exchange matrices of every orientation of the tree on vertices 0..n-1."""
    for signs in product((1, -1), repeat=len(edges)):
        b = [[0] * n for _ in range(n)]
        for (i, j), sign in zip(edges, signs):
            b[i][j], b[j][i] = sign, -sign
        yield tuple(map(tuple, b))


def _principal(m, keep):
    return tuple(tuple(m[i][j] for j in keep) for i in keep)


def _chamber_sets(fan, base_rays):
    """The chambers as sets of ray vectors, in the coordinates of base_rays."""
    s_inv = la.invert_unimodular(la.transpose(base_rays))
    coords = [la.matvec(s_inv, r) for r in fan.rays]
    return {frozenset(coords[i] for i in c) for c in fan.chambers}


def check_idempotent_reductions(fan, sub_fan):
    """At the cone of the rays -e_j, j outside each nonempty proper vertex
    subset S, compare with sub_fan(S), the front-end fan of the sub-diagram:
    (a) the star with coordinates j dropped, unit vectors as base, equals it;
    (b) `reduce_at_cone` equals it in base-chamber coordinates, up to the
    order of the base rays."""
    n = fan.rank
    for size in range(1, n):
        for keep in combinations(range(n), size):
            sigma = {fan.rays.index(tuple(-int(i == j) for i in range(n)))
                     for j in range(n) if j not in keep}
            expected = sub_fan(keep)
            star = [[tuple(fan.rays[i][j] for j in keep) for i in c if i not in sigma]
                    for c in fan.chambers if sigma.issubset(c)]
            assert fan_from_cones(star, la.identity(size)) == expected, keep
            red = reduce_at_cone(fan, sigma)
            target = _chamber_sets(expected, la.identity(size))
            base = [red.rays[i] for i in red.chambers[red.base]]
            assert any(_chamber_sets(red, order) == target for order in permutations(base)), keep


A_EDGES = {n: [(i, i + 1) for i in range(n - 1)] for n in (3, 4, 5)}
D_EDGES = {n: [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)] for n in (4, 5)}


@pytest.mark.parametrize("n, edges", [(3, A_EDGES[3]), (4, A_EDGES[4]), (4, D_EDGES[4])],
                         ids=["A3", "A4", "D4"])
def test_idempotent_reductions_of_cluster_fans(n, edges):
    for b in _tree_orientations(n, edges):
        check_idempotent_reductions(enumerate_gfan(b),
                                    lambda keep, b=b: enumerate_gfan(_principal(b, keep)))


@pytest.mark.parametrize("type_, n", [("A", 3), ("A", 4), ("A", 5), ("B", 3), ("B", 4), ("B", 5)])
def test_idempotent_reductions_of_coxeter_fans(type_, n):
    cd = cartan_preset(type_, n)
    check_idempotent_reductions(coxeter_fan(cd), lambda keep: coxeter_fan(
        CartanData(_principal(cd.c, keep), tuple(cd.d[i] for i in keep))))


def test_paranoid_verification(a3_cluster_fan):
    from tiltfan.errors import TiltfanError
    from tiltfan.fan import Fan, verify_pairwise_intersections

    verify_pairwise_intersections(pentagon())
    verify_pairwise_intersections(a3_cluster_fan)
    # cone{(1,0),(1,1)} contains cone{(2,1),(1,1)}: not a face intersection
    bad = Fan(2, ((1, 0), (1, 1), (2, 1)), ((0, 1), (1, 2)), 0)
    with pytest.raises(TiltfanError):
        verify_pairwise_intersections(bad)


def test_json_round_trip(a3_cluster_fan):
    data = fan_to_json(a3_cluster_fan)
    again = fan_from_json(data)
    assert fan_to_json(again) == data
    assert data["schema_version"] == 1
    assert data["rays"] == sorted(data["rays"])


def _wall_fans():
    from tiltfan.brauer import chambers_by_cliques
    from tiltfan.cluster import enumerate_gfan
    from tiltfan.weyl import cartan_preset, coxeter_fan

    from conftest import B_D4, b_type_a, odd_cycle_5, path_tree, triangle

    for n in (2, 3, 4, 5):
        yield f"cluster A{n}", enumerate_gfan(b_type_a(n))
    yield "cluster D4", enumerate_gfan(B_D4)
    yield "weyl A3", coxeter_fan(cartan_preset("A", 3))
    yield "weyl B3", coxeter_fan(cartan_preset("B", 3))
    yield "brauer path 4", chambers_by_cliques(path_tree(4))
    yield "brauer triangle", chambers_by_cliques(triangle())
    yield "brauer odd 5", chambers_by_cliques(odd_cycle_5())
    for path in sorted(FAN_FILES.glob("*.json")):
        yield path.name, fan_from_json(json.loads(path.read_text()))


def test_wall_normals_match_kernel_functional():
    """The normals taken from chamber inverses equal the kernel functional of
    the shared rays, signed to be positive on the first chamber's free ray,
    and are 1 and -1 on the free rays, which the wall holds in chamber order."""
    from tiltfan import lattice as la

    names = []
    for name, fan in _wall_fans():
        names.append(name)
        assert fan.walls, name
        for w in fan.walls:
            ca, cb = w.chambers
            face = set(fan.chambers[ca]) & set(fan.chambers[cb])
            shared = [fan.rays[i] for i in sorted(face)]
            kf = la.kernel_functional(shared, fan.rank)
            (free_a,) = set(fan.chambers[ca]) - face
            (free_b,) = set(fan.chambers[cb]) - face
            assert w.free == (free_a, free_b), (name, w)
            signed = kf if la.dot(kf, fan.rays[free_a]) > 0 else la.vneg(kf)
            assert w.normal == signed, (name, w)
            sides = la.dot(w.normal, fan.rays[free_a]), la.dot(w.normal, fan.rays[free_b])
            assert sides == (1, -1), (name, w)
    assert sum(name.endswith(".json") for name in names) == 12


def test_overlapping_chambers_sharing_a_ray_are_rejected():
    from tiltfan.errors import TiltfanError

    # cone{e1, e2} and cone{e2, e1 + e2} share e2 but both lie right of it
    with pytest.raises(TiltfanError, match=r"share face \(1,\) but overlap"):
        build_fan([(1, 0), (0, 1), (1, 1)], [{0, 1}, {1, 2}], 0)


def test_fan_from_json_rejects_a_non_fan():
    from tiltfan.errors import ParseError

    for data in ({"B": [[0, 1], [-1, 0]]}, [1, 2], {"rays": [], "chambers": []}):
        with pytest.raises(ParseError, match="not a fan"):
            fan_from_json(data)


def _oracle_accepts(fan):
    """The exhaustive rank <= 3 pairwise loop, forced past the certificate."""
    from tiltfan.errors import TiltfanError
    from tiltfan.fan import Fan, verify_pairwise_intersections

    try:
        verify_pairwise_intersections(
            Fan(fan.rank, fan.rays, fan.chambers, fan.base, fan.walls, UNKNOWN))
    except TiltfanError:
        return False
    return True


def test_certificate_agrees_with_the_pairwise_oracle():
    from tiltfan.brauer import chambers_by_cliques
    from tiltfan.errors import TiltfanError
    from tiltfan.fan import Fan

    from conftest import gamma2, path_tree

    fans = [(name, fan) for name, fan in _wall_fans() if fan.rank <= 3]
    fans += [("brauer path3", chambers_by_cliques(path_tree(3))),
             ("brauer gamma2", chambers_by_cliques(gamma2()))]
    for name, fan in fans:
        assert fan.complete == CERTIFIED, name
        assert _oracle_accepts(fan), name
    assert len(fans) == 16
    # cone{(1,0),(1,1)} contains cone{(2,1),(1,1)}: both routes reject it
    rays, chambers = ((1, 0), (1, 1), (2, 1)), ((0, 1), (1, 2))
    with pytest.raises(TiltfanError):
        build_fan(rays, chambers, 0)
    assert not _oracle_accepts(Fan(2, rays, chambers, 0))
    # the double cover below passes every wall check; both routes reject it
    rays, chambers = _octahedral_double_cover()
    with pytest.raises(TiltfanError):
        build_fan(rays, chambers, 0)
    assert not _oracle_accepts(Fan(3, tuple(rays), tuple(tuple(sorted(c)) for c in chambers), 0))


OCTAHEDRAL_RING = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]


def _octahedral_double_cover():
    """Rays +-e3 and a ring of eight around the e3-axis, coning twice around
    it: 16 unimodular chambers {+-e3, r_i, r_i+1}, every wall in exactly two
    chambers on opposite sides of it, covering the space twice."""
    ring = OCTAHEDRAL_RING + [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    rays = [(0, 0, 1), (0, 0, -1)] + ring
    chambers = [frozenset({p, 2 + i, 2 + (i + 1) % 8}) for p in (0, 1) for i in range(8)]
    return rays, chambers


def _test_point_count(rays, chambers, base):
    from tiltfan import lattice as la
    from tiltfan.fan import holds_test_point

    y0 = tuple(map(sum, zip(*(rays[i] for i in chambers[base]))))
    return sum(
        holds_test_point(*la.scaled_inverse(la.transpose([rays[i] for i in sorted(c)])), y0)
        for c in chambers
    )


def test_test_point_counts_the_covering_degree():
    from itertools import combinations

    from tiltfan import lattice as la

    rays, chambers = _octahedral_double_cover()
    owners = {}
    for ci, c in enumerate(chambers):
        assert abs(la.determinant(la.transpose([rays[i] for i in sorted(c)]))) == 1
        for sub in combinations(sorted(c), 2):
            owners.setdefault(frozenset(sub), []).append(ci)
    for sub, (ca, cb) in owners.items():
        normal = la.kernel_functional([rays[i] for i in sorted(sub)], 3)
        (free_a,), (free_b,) = chambers[ca] - sub, chambers[cb] - sub
        assert la.dot(normal, rays[free_a]) * la.dot(normal, rays[free_b]) < 0
    assert _test_point_count(rays, chambers, 0) == 2
    with pytest.raises(SignCoherenceViolation):
        build_fan(rays, chambers, 0)

    rays = [(0, 0, 1), (0, 0, -1)] + OCTAHEDRAL_RING
    chambers = [frozenset({p, 2 + i, 2 + (i + 1) % 4}) for p in (0, 1) for i in range(4)]
    assert _test_point_count(rays, chambers, 0) == 1
    assert build_fan(rays, chambers, 0).complete == CERTIFIED


def test_covering_degree_other_than_one_is_an_error(monkeypatch):
    """A complete-looking table whose test point lies in d != 1 chambers is
    refused; the pentagon is made to report d = 5 by a predicate that
    places the test point in every chamber."""
    from tiltfan import fan as fan_module
    from tiltfan.errors import TiltfanError

    monkeypatch.setattr(fan_module, "holds_test_point", lambda det, adj, y0: True)
    with pytest.raises(TiltfanError, match=r"^a generic point lies in 5 chambers$"):
        pentagon()
    # a partial fan proves nothing by its count, so it is not refused
    assert build_fan([(1, 0), (0, 1), (-1, 1)], [{0, 1}, {1, 2}], 0).complete == UNKNOWN


CANONICAL_SOURCES = {
    **{f"cluster A{n}": (lambda n=n: enumerate_gfan(b_type_a(n))) for n in (2, 3, 4, 5)},
    "weyl A3": lambda: coxeter_fan(cartan_preset("A", 3)),
    "weyl B3": lambda: coxeter_fan(cartan_preset("B", 3)),
    "brauer path 4": lambda: chambers_by_cliques(path_tree(4)),
    "brauer odd 5": lambda: chambers_by_cliques(odd_cycle_5()),
    "kase 4 5": lambda: kase_family_fan(4, 5),
}


@pytest.mark.parametrize("name", CANONICAL_SOURCES)
def test_every_front_end_returns_the_canonical_form(name):
    """fan_from_json(fan_to_json(f)) == f: every front-end builds its fan
    through fan_from_ids, whose tables are already the canonical ones."""
    fan = CANONICAL_SOURCES[name]()
    again = fan_from_json(fan_to_json(fan))
    assert again == fan
    assert (again.walls, again.complete) == (fan.walls, fan.complete)


# -- the search against one that crosses every wall --------------------------


def _crossing_every_wall(rays, exchange, budget, state=None, cross=None):
    """Reference search: crosses every wall of every chamber, the one it was
    reached through included, and fills the neighbour table by ray set at
    every crossing."""
    from collections import deque

    if budget < 1:
        raise ValueError("budget must be >= 1")
    rays = tuple(rays)
    found = {tuple(sorted(rays)): rays}
    queue = deque([(rays, state)])
    walls = []
    while queue:
        rays, state = queue.popleft()
        for k in range(len(rays)):
            new = rays[:k] + (exchange(state, rays, k),) + rays[k + 1:]
            key = tuple(sorted(new))
            walls.append((tuple(sorted(rays)), k, key))
            if key in found:
                continue
            if len(found) >= budget:
                return fan_module.BudgetExhausted(len(queue) + 1, budget, tuple(found.values()))
            found[key] = new
            queue.append((new, cross(state, new, k) if cross else state))
    index = {key: i for i, key in enumerate(found)}
    across = [[None] * len(rays) for _ in found]
    for key, k, other in walls:
        across[index[key]][k] = index[other]
    return list(found.values()), across


@pytest.fixture
def paired_searches(monkeypatch):
    """Every front-end search also runs the reference search on the same
    arguments; the list collects (search result, reference result, the
    search's exchange calls), a closed search's chambers read as rays
    through its ray table, which holds each ray once and has every id in
    some chamber."""
    from tiltfan import brauer, cluster, weyl

    triples = []

    def paired(rays, exchange, *args, **kwargs):
        calls = []

        def counted(state, chamber, k):
            calls.append(k)
            return exchange(state, chamber, k)

        got = fan_module.wall_crossing_search(rays, counted, *args, **kwargs)
        if not isinstance(got, fan_module.BudgetExhausted):
            table, chambers, _ = got
            assert len(set(table)) == len(table)
            assert set(chain.from_iterable(chambers)) == set(range(len(table)))
        triples.append((vector_chambers(got), _crossing_every_wall(rays, exchange, *args, **kwargs),
                        len(calls)))
        return got

    for module in (cluster, weyl, brauer):
        monkeypatch.setattr(module, "wall_crossing_search", paired)
    return triples


@pytest.mark.parametrize("name", FRONT_END_FANS)
def test_search_skipping_the_arrival_wall_finds_the_same_chambers(name, paired_searches):
    """Every exchange the library ships is an involution, so a wall whose
    entry the other side already filled, the arrival wall among them, would
    only find that chamber again: crossing each wall once leaves the
    chambers and their order as they were, the neighbour table is the one
    read off every crossing from both sides, and the exchange runs once per
    wall."""
    fan = FRONT_END_FANS[name]()
    [(got, ref, exchanges)] = paired_searches
    assert len(got[0]) > 1 and got == ref
    assert exchanges == len(fan.walls)


def test_the_compared_searches_reach_past_64_rays(paired_searches):
    """A chamber's key is the bitmask of its ray ids, a Python int of any
    width: the comparison covers Brauer odd 6, whose 72 rays take ids past
    63."""
    fan = FRONT_END_FANS["odd 6"]()
    [(got, ref, _)] = paired_searches
    assert len(fan.rays) == 72 and got == ref


def test_search_skipping_the_arrival_wall_exhausts_budgets_the_same(paired_searches):
    """Explored, frontier and partial fan at every budget up to the chamber
    count of cluster A3 (14), and at budgets 1..50 on the Kronecker matrix,
    where the skipped walls are those filled from their other side."""
    for budget in range(1, 15):
        enumerate_gfan(B_A3, budget=budget)
    for budget in range(1, 51):
        enumerate_gfan(B_KRONECKER, budget=budget)
    assert len(paired_searches) == 64
    for got, ref, _ in paired_searches:
        if isinstance(ref, fan_module.BudgetExhausted):
            assert isinstance(got, fan_module.BudgetExhausted)
            assert (got.explored, got.frontier, got.budget, got.cones) == \
                (ref.explored, ref.frontier, ref.budget, ref.cones)
            assert fan_to_json(got.partial_fan) == fan_to_json(ref.partial_fan)
        else:
            assert got == ref
    # A3 closes exactly at budget 14, the Kronecker search never does
    closed = [isinstance(got, tuple) for got, _, _ in paired_searches]
    assert closed == [False] * 13 + [True] + [False] * 50


E1, E2, E1_NEG, E2_NEG, E12 = (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)
# the ray that replaces the other one of a rank-2 chamber, by the ray kept:
# around e2 and -e2 three chambers each, passed round in opposite senses,
# and e2 and -e2 swapped around every other ray
NOT_AN_INVOLUTION = {
    E2: {E1: E1_NEG, E1_NEG: E12, E12: E1},
    E2_NEG: {E1: E12, E12: E1_NEG, E1_NEG: E1},
    **{kept: {E2: E2_NEG, E2_NEG: E2} for kept in (E1, E1_NEG, E12)},
}


def test_an_exchange_that_is_not_an_involution_gives_a_refused_table():
    """Crossing from chamber 3 finds chamber 2 through the wall that chamber
    4 was reached through, and crossing from chamber 5 finds chamber 0
    through the wall it crossed to chamber 1: both entries keep their first
    chamber, so the table is not reciprocal and `build_fan` refuses it."""
    calls = []

    def exchange(_, rays, k):
        calls.append(k)
        return NOT_AN_INVOLUTION[rays[1 - k]][rays[k]]

    chambers, across = vector_chambers(fan_module.wall_crossing_search([E1, E2], exchange, 100))
    assert chambers == [(E1, E2), (E1_NEG, E2), (E1, E2_NEG), (E1_NEG, E2_NEG),
                        (E12, E2_NEG), (E12, E2)]
    assert across == [[1, 2], [0, 3], [4, 0], [2, 1], [2, 5], [0, 4]]
    assert len(calls) == 12 - 5  # every entry but the 5 walls that new chambers came through
    with pytest.raises(TiltfanError, match=r"^the neighbour table is not reciprocal: "):
        fan_from_cones(chambers, chambers[0], across=across)


@pytest.mark.parametrize("returned, ray", [(1, r"\(0, 1\)"), (0, r"\(-1, 0\)")],
                         ids=["the ray it replaces", "another ray of the chamber"])
def test_an_exchange_that_returns_a_ray_of_the_chamber_is_refused(returned, ray):
    """On the coordinate fan of rank 2, crossing wall 1 of chamber 1,
    (-e1, e2), returns e2, the ray it replaces, or -e1, the other one.
    Either would key a chamber by one ray id, where distinct degenerate
    chambers could merge, so the search refuses it at that crossing."""

    def exchange(_, rays, k):
        if rays == (E1_NEG, E2) and k == 1:
            return rays[returned]
        return la.vneg(rays[k])

    with pytest.raises(TiltfanError, match=rf"^the exchange across wall 1 of chamber 1 "
                                           rf"returns its ray {ray}$"):
        fan_module.wall_crossing_search([E1, E2], exchange, 100)


ORDER_FANS = [
    enumerate_gfan(B_A2),
    enumerate_gfan(B_A3),
    coxeter_fan(cartan_preset("B", 2)),
    kase_family_fan(2, 3),
    enumerate_gfan(b_type_a(4), budget=6).partial_fan,
]


@given(st.sampled_from(range(len(ORDER_FANS))), st.data())
def test_fan_from_cones_ignores_the_order_of_cones_and_rays(k, data):
    fan = ORDER_FANS[k]
    cones = [[fan.rays[i] for i in c] for c in fan.chambers]
    cones = [data.draw(st.permutations(c)) for c in data.draw(st.permutations(cones))]
    base = data.draw(st.permutations([fan.rays[i] for i in fan.chambers[fan.base]]))
    again = fan_from_cones(cones, base)
    assert again == fan
    assert (again.walls, again.complete) == (fan.walls, fan.complete)


def _assert_increasing(fan, name):
    """Every chamber is the tuple of its rank ray indices, strictly increasing."""
    for c in fan.chambers:
        assert type(c) is tuple and len(c) == fan.rank, (name, c)
        assert all(a < b for a, b in zip(c, c[1:])), (name, c)


def test_every_route_gives_chambers_as_increasing_tuples():
    """Front-end fans, a partial fan and reductions at every ray and at every
    face of the first chamber hold each chamber in one form."""
    fans = {name: front_end_fan(name) for name in FRONT_END_FANS}
    fans["partial Kronecker at 50"] = enumerate_gfan(B_KRONECKER, budget=50).partial_fan
    for name, fan in fans.items():
        _assert_increasing(fan, name)
    for name in ("cluster A4", "cluster D4", "coxeter B3", "coxeter G2", "path 4", "odd 3"):
        fan = fans[name]
        cones = [(i,) for i in range(len(fan.rays))]
        cones += [face for size in range(fan.rank + 1)
                  for face in combinations(fan.chambers[0], size)]
        for cone in cones:
            _assert_increasing(reduce_at_cone(fan, cone), (name, cone))


@given(st.sampled_from(range(len(ORDER_FANS))), st.data())
def test_a_shuffled_fan_file_reads_as_increasing_tuples(k, data):
    """A file listing its chambers, and the rays inside each, in any order
    gives the same canonical file back."""
    doc = fan_to_json(ORDER_FANS[k])
    order = data.draw(st.permutations(range(len(doc["chambers"]))))
    shuffled = dict(doc, base=order.index(doc["base"]),
                    chambers=[data.draw(st.permutations(doc["chambers"][ci])) for ci in order])
    fan = fan_from_json(shuffled)
    _assert_increasing(fan, k)
    assert fan_to_json(fan) == doc


# -- chamber inverses by exchange pivots against full elimination -------------


def _parts(fan):
    """A fan's tables, its walls as a list of `Wall`s and its status: what
    two builders of one fan agree on, whatever holds their walls."""
    return fan[:4], list(fan.walls), fan.complete


def _outcome(rays, chambers, base):
    """build_fan's `_parts`, or its error as (class, message)."""
    try:
        fan = build_fan(rays, chambers, base)
    except TiltfanError as exc:
        return type(exc), str(exc)
    return _parts(fan)


def _eliminating_build_fan(rays, chambers, base):
    """build_fan as it was before it pivoted across walls: facets and their
    owners by subsets, every chamber inverted by full elimination in index
    order, each wall's free rays and normal from its first owner."""
    from itertools import combinations

    from tiltfan.fan import Fan, Wall, holds_test_point

    rays = tuple(tuple(int(x) for x in r) for r in rays)
    rank = len(rays[0]) if rays else 0
    for r in rays:
        if la.is_zero(r) or la.primitive(r) != r:
            raise TiltfanError(f"ray {r} is not primitive")
    if any(len(r) != rank for r in rays):
        raise TiltfanError(f"rays of lengths {sorted({len(r) for r in rays})} in one fan")
    if len(set(rays)) != len(rays):
        raise TiltfanError("duplicate rays")
    chambers = tuple(frozenset(int(i) for i in c) for c in chambers)
    if len(set(chambers)) != len(chambers):
        raise TiltfanError("duplicate chambers")
    for ci, c in enumerate(chambers):
        if any(not 0 <= i < len(rays) for i in c):
            raise TiltfanError(f"chamber {ci} names a ray index outside 0..{len(rays) - 1}")
    if not 0 <= base < len(chambers):
        raise TiltfanError("base chamber index out of range")
    if rank == 0:
        if chambers != (frozenset(),):
            raise TiltfanError("a rank-0 fan has exactly the trivial chamber")
        return Fan(0, (), ((),), 0, (), CERTIFIED)
    for ci, c in enumerate(chambers):
        if len(c) != rank:
            raise TiltfanError(f"chamber {ci} has {len(c)} rays, expected {rank}")

    facet_owners = {}
    for ci, c in enumerate(chambers):
        for sub in combinations(sorted(c), rank - 1):
            facet_owners.setdefault(frozenset(sub), []).append(ci)
    y0 = tuple(map(sum, zip(*(rays[i] for i in chambers[base]))))
    covering = 0
    normals = {}
    for ci, c in enumerate(chambers):
        idx = sorted(c)
        det, adj = la.scaled_inverse(la.transpose([rays[i] for i in idx])) or (0, None)
        if det not in (1, -1):
            raise NonUnimodularChamber(ci, det)
        covering += holds_test_point(det, adj, y0)
        for free_a in idx:
            sub = c - {free_a}
            owners = facet_owners[sub]
            if len(owners) != 2 or owners[0] != ci:
                continue
            (free_b,) = chambers[owners[1]] - sub
            row = la.vscale(det, adj[idx.index(free_a)])
            if la.dot(row, rays[free_b]) >= 0:
                normals[sub] = None
            else:
                normals[sub] = (free_a, free_b), row

    incoherent = fan_module._sign_incoherence(rays, chambers, [rays[i] for i in chambers[base]])
    if incoherent:
        raise SignCoherenceViolation(*incoherent)
    walls, dangling = [], []
    for sub, owners in sorted(facet_owners.items(), key=lambda kv: tuple(sorted(kv[0]))):
        if len(owners) > 2:
            raise TiltfanError(f"face {tuple(sorted(sub))} lies in {len(owners)} chambers")
        if len(owners) == 1:
            dangling.append(sub)
            continue
        ca, cb = owners
        if normals[sub] is None:
            raise TiltfanError(
                f"chambers {ca} and {cb} share face {tuple(sorted(sub))} but overlap")
        walls.append(Wall((ca, cb), *normals[sub]))
    if not dangling and covering != 1:
        raise TiltfanError(f"a generic point lies in {covering} chambers")
    chambers = tuple(tuple(sorted(c)) for c in chambers)
    return Fan(rank, rays, chambers, base, tuple(walls), UNKNOWN if dangling else CERTIFIED)


def _reference_outcome(*args):
    """_outcome of `_eliminating_build_fan`, an independent route, its walls
    put in the order of `Walls`: by first chamber, then by the place of
    free[0] in it."""
    try:
        fan = _eliminating_build_fan(*args)
    except TiltfanError as exc:
        return type(exc), str(exc)
    tables, walls, complete = _parts(fan)
    walls.sort(key=lambda w: (w.chambers[0], fan.chambers[w.chambers[0]].index(w.free[0])))
    return tables, walls, complete


def _assert_pivots_match_elimination(rays, chambers, base):
    got = _outcome(rays, chambers, base)
    assert got == _reference_outcome(rays, chambers, base)
    return got


def _shuffled(fan, rnd):
    """The fan's table with its chambers in a random order."""
    order = list(range(len(fan.chambers)))
    rnd.shuffle(order)
    return list(fan.rays), [fan.chambers[ci] for ci in order], order.index(fan.base)


def _front_end_fans():
    from conftest import FINITE_TYPES, gamma2

    yield from _wall_fans()
    yield "weyl B4", coxeter_fan(cartan_preset("B", 4))
    yield "weyl G2", coxeter_fan(FINITE_TYPES["G2"])
    yield "brauer star 4", chambers_by_cliques(star_tree(4))
    yield "brauer gamma2", chambers_by_cliques(gamma2())
    yield "kase 4 5", kase_family_fan(4, 5)
    for budget in (2, 5, 9, 20, 41):
        yield f"partial cluster A4 at {budget}", enumerate_gfan(b_type_a(4), budget).partial_fan
    yield "partial Kronecker at 50", enumerate_gfan(B_KRONECKER, budget=50).partial_fan


def test_pivoted_inverses_match_full_elimination_on_front_end_fans():
    """Fan, walls, normals and status are those of full elimination, in the
    front-end's chamber order and in shuffled ones."""
    import random

    rnd = random.Random(7)
    for name, fan in _front_end_fans():
        got = _assert_pivots_match_elimination(fan.rays, fan.chambers, fan.base)
        assert got == _parts(fan), name
        for _ in range(2):
            got = _assert_pivots_match_elimination(*_shuffled(fan, rnd))
            assert got[2] == fan.complete, name


STORED_FANS = sorted(path.name for path in FAN_FILES.glob("*.json"))


@pytest.mark.parametrize("name", [*FRONT_END_FANS, *STORED_FANS])
def test_the_wall_columns_read_as_the_walls_of_full_elimination(name):
    """Read as `Wall`s, the tables of every front-end and stored fan give
    the walls of `_eliminating_build_fan`: one per pair ci < across[ci][k],
    in (ci, k) order, its normal row k of ci's inverse.  The tables are
    tuples and a function of the fan, so a second build from the derived
    table is equal and hashes equal."""
    if name in FRONT_END_FANS:
        fan = front_end_fan(name)
    else:
        fan = fan_from_json(json.loads((FAN_FILES / name).read_text()))
    tables = fan.walls
    walls = list(tables)
    assert walls == _reference_outcome(fan.rays, fan.chambers, fan.base)[1]
    assert len(tables) == len(walls) == fan.rank * len(fan.chambers) // 2
    positions = [(ci, k, j) for ci, row in enumerate(tables.across)
                 for k, j in enumerate(row) if ci < j]
    assert list(tables.positions()) == positions
    assert [w.normal for w in walls] == [tables.rows[tables.inverses[ci][k]]
                                         for ci, k, _j in positions]
    assert all(tables.inverses[j][tables.across[j].index(ci)] == tables.inverses[ci][k] ^ 1
               for ci, k, j in positions)
    assert tables.chambers is fan.chambers
    again = build_fan(fan.rays, fan.chambers, fan.base)
    assert (again, hash(again)) == (fan, hash(fan))
    assert all(type(table) is tuple for table in again.walls._tables())
    assert all(type(row) is tuple for row in again.walls.across + again.walls.inverses)


def test_pivoted_inverses_match_full_elimination_on_broken_tables():
    """Non-unimodular chambers, overlapping pairs, sign-incoherent chambers,
    a double cover and dangling faces give the errors of full elimination."""
    import random

    rnd = random.Random(11)
    # the square with one ray moved: two chambers of determinant 2
    square = [(1, 0), (0, 1), (-1, 0), (1, -2)]
    tables = [
        (square, [{0, 1}, {1, 2}, {2, 3}, {3, 0}], 0),
        ([(1, 0), (0, 1), (1, 1)], [{0, 1}, {1, 2}], 0),
        ([(1, 0), (1, 1), (2, 1)], [{0, 1}, {1, 2}], 0),
        ([(1, 0), (0, 1), (1, -1), (-1, 0)], [{0, 1}, {1, 3}, {0, 2}, {2, 3}], 0),
        (*_octahedral_double_cover(), 0),
    ]
    # every ray of cluster A3 and Weyl B3 in turn moved off its place
    for fan in (enumerate_gfan(B_A3), coxeter_fan(cartan_preset("B", 3))):
        for k, r in enumerate(fan.rays):
            moved = la.primitive(la.vadd(la.vscale(2, r), fan.rays[(k + 1) % len(fan.rays)]))
            if moved not in fan.rays:
                rays = list(fan.rays)
                rays[k] = moved
                tables.append((rays, list(fan.chambers), fan.base))
        # a chamber dropped: dangling faces
        tables.append((list(fan.rays), list(fan.chambers[1:]), 0))
    outcomes = set()
    for rays, chambers, base in tables:
        got = _assert_pivots_match_elimination(rays, chambers, base)
        outcomes.add(got[0] if isinstance(got[0], type) else "fan")
        order = list(range(len(chambers)))
        for _ in range(3):
            rnd.shuffle(order)
            _assert_pivots_match_elimination(
                rays, [chambers[ci] for ci in order], order.index(base))
    assert outcomes == {NonUnimodularChamber, SignCoherenceViolation, TiltfanError, "fan"}


def _calls_under_build_fan(monkeypatch, fan, name):
    """The number of calls of `la.<name>` made by build_fan on the fan's
    tables, which must give the fan back."""
    calls = []
    original = getattr(la, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(la, name, counting)
    again = build_fan(fan.rays, fan.chambers, fan.base)
    made = len(calls)
    assert (again, again.walls) == (fan, fan.walls)
    return made


FEW_NORMAL_FANS = pytest.mark.parametrize("make", [
    lambda: coxeter_fan(cartan_preset("A", 5)),
    lambda: chambers_by_cliques(odd_cycle(6)),
], ids=["coxeter A5", "brauer odd 6"])


@FEW_NORMAL_FANS
def test_build_fan_eliminates_for_few_chambers(make, monkeypatch):
    """Every chamber but the first of a component (and few others) gets its
    inverse by a pivot across a wall, not by full elimination."""
    fan = make()
    calls = _calls_under_build_fan(monkeypatch, fan, "scaled_inverse")
    assert len(fan.chambers) in (720, 2048)
    assert 1 <= calls <= len(fan.chambers) // 100


@FEW_NORMAL_FANS
def test_build_fan_takes_fewer_dot_products_than_walls(make, monkeypatch):
    """Each pairing of a row with a ray, and each row's test-point verdict,
    is one `la.dot` made once per build, and the rows are the few wall
    normals: fewer dot products than walls (1,800 on Coxeter A5, 6,144 on
    Brauer odd 6), where a full pivot per chamber took 6,511 and 21,576."""
    fan = make()
    assert _calls_under_build_fan(monkeypatch, fan, "dot") < len(fan.walls)


def _stellar_subdivision(rank, steps, rnd):
    """(rays, chambers, base) of the orthant fan of +-e_i after `steps`
    random stellar subdivisions, each at the sum of the rays of a face of
    dimension >= 2: the chambers through the face are replaced by the cones
    that swap one face ray for the sum.  No face of the positive orthant is
    subdivided, so it stays a chamber, the base, and the fan stays
    sign-coherent; every cone stays unimodular.  Most new rays lie on few
    walls, so far fewer rows repeat than on a g-fan."""
    rays = [tuple(s * int(i == j) for j in range(rank)) for s in (1, -1) for i in range(rank)]
    positive = frozenset(range(rank))
    chambers = {frozenset(i + rank * (s < 0) for i, s in enumerate(signs))
                for signs in product((1, -1), repeat=rank)}
    for _ in range(steps):
        chamber = rnd.choice(sorted(map(sorted, chambers)))
        face = frozenset(rnd.sample(chamber, rnd.randint(2, rank)))
        if face <= positive:
            continue
        rays.append(tuple(map(sum, zip(*(rays[i] for i in face)))))
        for c in [c for c in chambers if face <= c]:
            chambers.remove(c)
            chambers.update(c - {i} | {len(rays) - 1} for i in face)
    chambers = sorted(map(sorted, chambers))
    return rays, chambers, chambers.index(sorted(positive))


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_pivoted_inverses_match_full_elimination_when_few_rows_repeat(rank):
    """On stellar subdivisions of the orthant fan, whose distinct wall
    normals are a large share of their walls, the fan, walls, normals and
    status are those of full elimination, in the given chamber order and in
    shuffled ones."""
    import random

    rnd = random.Random(rank)
    for steps in (4, 12, 30):
        rays, chambers, base = _stellar_subdivision(rank, steps, rnd)
        _tables, walls, complete = _assert_pivots_match_elimination(rays, chambers, base)
        assert complete == CERTIFIED
        assert 5 * len({w.normal for w in walls}) > len(walls)
        order = list(range(len(chambers)))
        for _ in range(2):
            rnd.shuffle(order)
            _assert_pivots_match_elimination(
                rays, [chambers[ci] for ci in order], order.index(base))


def _reference_sign_incoherence(rays, chambers, base_rays):
    """The coordinate loop `_sign_incoherence` ran before it kept sign sets."""
    s_inv = la.invert_unimodular(la.transpose(sorted(base_rays, reverse=True)))
    coords = [la.matvec(s_inv, r) for r in rays]
    for ci, c in enumerate(chambers):
        for coord in range(len(s_inv)):
            vals = [coords[i][coord] for i in c]
            if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                return ci, coord
    return None


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=8),
    st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=6),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
             max_size=4),
    st.booleans(),
)))
def test_sign_incoherence_matches_the_coordinate_loop(case):
    """The same (chamber, coordinate) as the plain loop, for chambers given
    as lists or as sorted tuples of distinct indices (as `build_fan` passes
    them)."""
    rays, chambers, ops, as_sets = case
    n = len(rays[0])
    base = [list(row) for row in la.identity(n)]
    for i, j, c in ops:
        if i != j:
            base[i] = [x + c * y for x, y in zip(base[i], base[j])]
    chambers = [[i for i in c if i < len(rays)] for c in chambers]
    if as_sets:
        chambers = [tuple(sorted(set(c))) for c in chambers]
    base = [tuple(r) for r in base]
    assert (fan_module._sign_incoherence(rays, chambers, base)
            == _reference_sign_incoherence(rays, chambers, base))


# -- the search's neighbour table against the derived one ---------------------


def test_search_tables_give_the_fans_of_the_derived_tables(monkeypatch):
    """Every front-end fan built through its search's neighbour table equals
    fan_from_json(fan_to_json(fan)), whose table is derived from the facets:
    the same Fan, walls, normals and status."""
    tables = []
    original = fan_module.build_fan

    def recording(rays, chambers, base, across=None):
        tables.append(across is not None)
        return original(rays, chambers, base, across)

    monkeypatch.setattr(fan_module, "build_fan", recording)
    searched = set()
    for name, fan in _front_end_fans():
        if tables == [True]:
            searched.add(name)
        again = fan_from_json(fan_to_json(fan))
        assert (again, again.walls, again.complete) == (fan, fan.walls, fan.complete), name
        assert all(w.normal for w in fan.walls), name
        tables.clear()
    assert searched == {
        "cluster A2", "cluster A3", "cluster A4", "cluster A5", "cluster D4",
        "weyl A3", "weyl B3", "weyl B4", "weyl G2",
        "brauer path 4", "brauer triangle", "brauer odd 5", "brauer star 4", "brauer gamma2",
    }


def _search_tables():
    """(rays, chambers, base, across) as the cluster, Weyl and Brauer
    front-ends hand them to build_fan, on cluster A3, Weyl B3 and Brauer
    star 3."""
    captured = []
    original = fan_module.build_fan

    def capturing(rays, chambers, base, across=None):
        # a copy: build_fan turns the rows of the table it is given into tuples
        captured.append((rays, chambers, base, [list(row) for row in across]))
        return original(rays, chambers, base, across)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_module, "build_fan", capturing)
        enumerate_gfan(B_A3)
        coxeter_fan(cartan_preset("B", 3))
        chambers_by_cliques(star_tree(3))
    return captured


def _corrupted_tables():
    """(kind, rays, chambers, base, across) with one fault in a search table,
    put in the row of chamber 0, where the pass over the table starts, or
    in chamber 0 itself: a ray named twice in place of another, which
    leaves the chamber's set of rays one short."""
    for rays, chambers, base, across in _search_tables():
        n = len(rays[0])
        sets = [frozenset(c) for c in chambers]
        for k in range(n):
            j = across[0][k]
            table = [list(row) for row in across]
            table[0][k] = 0
            yield "itself", rays, chambers, base, table
            far = next(i for i, c in enumerate(sets) if len(c & sets[0]) == n - 2)
            table = [list(row) for row in across]
            table[0][k] = far
            yield "n - 2 rays", rays, chambers, base, table
            # chamber j names another of its neighbours across the wall it
            # shares with chamber 0
            (free_b,) = sets[j] - sets[0]
            kb = list(chambers[j]).index(free_b)
            table = [list(row) for row in across]
            table[j][kb] = across[j][(kb + 1) % n]
            yield "non-reciprocal", rays, chambers, base, table
        for short in (across[0][:-1], across[0] + [0]):
            table = [list(row) for row in across]
            table[0] = short
            yield "row length", rays, chambers, base, table
        table = [list(row) for row in across]
        table[0][0] = None
        yield "no neighbour", rays, chambers, base, table
        table[0][0] = len(chambers)
        yield "out of range", rays, chambers, base, table
        yield "row count", rays, chambers, base, across[:-1]
        repeated = [(chambers[0][0],) + tuple(chambers[0][:-1])] + list(chambers[1:])
        yield "repeated ray", rays, repeated, base, across


CORRUPTION_MESSAGES = {
    "itself": r"^chamber 0, across wall \d of chamber 0, does not share its other 2 rays$",
    "n - 2 rays": r"^chamber \d+, across wall \d of chamber 0, does not share its other 2 rays$",
    "non-reciprocal": r"^the neighbour table is not reciprocal: chamber 0 has \d+ across a wall, "
                      r"\d+ has \d+ across it$",
    "row length": r"^row 0 of the neighbour table has [24] entries, expected 3$",
    "no neighbour": r"^the neighbour table names no chamber across wall 0 of chamber 0$",
    "out of range": r"^the neighbour table names chamber \d+ outside 0\.\.\d+$",
    "row count": r"^the neighbour table has \d+ rows for \d+ chambers$",
    "repeated ray": r"^chamber 0 has 2 rays, expected 3$",
}


def test_corrupted_search_tables_are_refused():
    """A table with one bad entry or row raises TiltfanError, never a Fan,
    and the intact tables still give certified fans."""
    for rays, chambers, base, across in _search_tables():
        assert build_fan(rays, chambers, base, across).complete == CERTIFIED
    kinds = []
    for kind, rays, chambers, base, table in _corrupted_tables():
        with pytest.raises(TiltfanError, match=CORRUPTION_MESSAGES[kind]):
            build_fan(rays, chambers, base, table)
        kinds.append(kind)
    assert len(kinds) == 3 * (3 * 3 + 2 + 4)


def test_every_entry_of_a_search_table_is_checked():
    """Each entry across[ci][k] of the cluster, Weyl and Brauer search
    tables, replaced in turn by None, by ci itself or by the chamber across
    the next wall, is refused: the pass checks every entry, from one side
    or the other."""
    fault = (r"^(the neighbour table names no chamber across wall \d|"
             r"chamber \d+, across wall \d of chamber \d+, does not share|"
             r"the neighbour table is not reciprocal: )")
    cases = 0
    for rays, chambers, base, across in _search_tables():
        n = len(rays[0])
        for ci, row in enumerate(across):
            for k in range(n):
                for bad in (None, ci, row[(k + 1) % n]):
                    table = [list(r) for r in across]
                    table[ci][k] = bad
                    with pytest.raises(TiltfanError, match=fault):
                        build_fan(rays, chambers, base, table)
                    cases += 1
    assert cases == 3 * 3 * (14 + 48 + 20)


# Coxeter A2 and cluster A2 by hand, the rays clockwise and each chamber
# listed counterclockwise, so all but the last list their rays in
# decreasing order.  Each has two neighbour tables: `ordered`, read against
# each chamber's ray indices in increasing order, and `listed`, read against
# the order in which the chamber lists them.
UNSORTED_TABLES = {
    "hexagon": ([(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)],
                [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (0, 5)], 5,
                [[1, 5], [2, 0], [3, 1], [4, 2], [5, 3], [4, 0]],
                [[5, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 0]]),
    "pentagon": ([(1, 0), (0, -1), (-1, 0), (-1, 1), (0, 1)],
                 [(1, 0), (2, 1), (3, 2), (4, 3), (0, 4)], 4,
                 [[1, 4], [2, 0], [3, 1], [4, 2], [3, 0]],
                 [[4, 1], [0, 2], [1, 3], [2, 4], [3, 0]]),
}


@pytest.mark.parametrize("name", UNSORTED_TABLES)
def test_a_table_is_read_against_increasing_ray_indices(name):
    """A table over chambers listed unsorted names, in row ci, the chamber
    across the facet opposite the k-th smallest ray index of chamber ci:
    read that way it gives the Fan of the derived table, and read in the
    order the chambers list their rays it is refused."""
    rays, chambers, base, ordered, listed = UNSORTED_TABLES[name]
    fan = build_fan(rays, chambers, base, ordered)
    assert _parts(fan) == _outcome(rays, chambers, base)
    assert fan.complete == CERTIFIED
    far = len(chambers) - 1
    with pytest.raises(TiltfanError, match=rf"^chamber {far}, across wall 0 of chamber 0, "
                                           r"does not share its other 1 rays$"):
        build_fan(rays, chambers, base, listed)


def test_a_face_in_three_chambers_is_refused_with_or_without_a_table():
    """Chambers {e1, e2}, {e2, -e1} and {e2, e1 + e2} share the ray e2.  A
    table that passes each of them on to the next is not reciprocal; the
    derived table finds the face in three chambers."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]
    chambers = [(0, 1), (1, 2), (1, 4), (2, 3), (3, 0)]
    # each of the three names the next across the face (1,); the face (4,)
    # of the third lies in no other chamber
    across = [[1, 4], [3, 2], [None, 0], [4, 1], [0, 3]]
    with pytest.raises(TiltfanError, match=r"^the neighbour table is not reciprocal: "
                                           r"chamber 0 has 1 across a wall, 1 has 2 across it$"):
        build_fan(rays, chambers, 0, across=across)
    with pytest.raises(TiltfanError, match=r"^face \(1,\) lies in 3 chambers$"):
        build_fan(rays, chambers, 0)


def _records():
    """A few instances of every record type of the package, each with the
    names of its fields."""
    from tiltfan import brauer, cluster, polytope

    fan = enumerate_gfan(B_A3)
    exhausted = enumerate_gfan(B_KRONECKER, budget=5)
    graph = path_tree(3)
    report = polytope.convexity_report(fan)
    seed = cluster.initial_seed(B_A3)
    return [
        *((w, ("chambers", "free", "normal")) for w in list(fan.walls)[:3]),
        (fan.walls, ("chambers", "across", "inverses", "rows")),
        *((f, ("rank", "rays", "chambers", "base", "walls", "complete"))
          for f in (fan, pentagon(), exhausted.partial_fan)),
        (exhausted, ("frontier", "budget", "cones")),
        (hasse_orient(fan), ("arrows",)),
        *((s, ("b", "c", "g")) for s in (seed, cluster.mutate(seed, 1))),
        *((c, ("c", "d")) for c in (cartan_preset("A", 3), cartan_preset("B", 2))),
        *((w, ("graph", "halves", "first_sign", "class_vector", "readings", "end_signs", "turns"))
          for w in brauer.self_admissible_walks(graph)[:3]),
        (brauer.root_map(graph), ("edge_images", "n_vertices")),
        (polytope.g_polytope(fan), ("vertices", "facets")),
        *((wc, ("wall", "kind", "data")) for wc in report.walls[:3]),
        (report, ("convex", "walls")),
    ]


def test_records_are_immutable():
    records = _records()
    assert len({type(r) for r, _ in records}) == 12
    for record, fields in records:
        for name in fields + ("unknown_field",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
