import pytest
from hypothesis import given, strategies as st

from tiltfan import fan as fan_module
from tiltfan import lattice as la
from tiltfan.brauer import chambers_by_cliques
from tiltfan.cli import kase_family_fan
from tiltfan.cluster import enumerate_gfan
from tiltfan.errors import (
    DanglingWall,
    IncompleteFan,
    NonUnimodularChamber,
    NotAFace,
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
    restrict_to_coordinates,
    sign_filter,
)
from tiltfan.weyl import cartan_preset, coxeter_fan

from conftest import (
    B_A2,
    B_A3,
    B_KRONECKER,
    b_type_a,
    odd_cycle,
    odd_cycle_5,
    path_tree,
    star_tree,
)

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
    with pytest.raises(DanglingWall):
        build_fan([(1, 0), (0, 1)], [{0, 1}], 0, require_complete=True)


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


def test_restrict_pentagon():
    fan = pentagon()
    sub = restrict_to_coordinates(fan, [0])
    assert set(sub.rays) == {(1,), (-1,)}
    assert sub.complete == CERTIFIED
    full = restrict_to_coordinates(fan, [0, 1])
    assert set(full.rays) == set(fan.rays)
    assert len(full.chambers) == len(fan.chambers)


def test_restrict_ray_support_invariant(a3_cluster_fan):
    fan = a3_cluster_fan
    for subset in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        sub = restrict_to_coordinates(fan, subset)
        expected = {
            tuple(r[j] for j in subset)
            for r in fan.rays
            if all(r[j] == 0 for j in range(fan.rank) if j not in subset)
        }
        assert set(sub.rays) == expected


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


def test_sign_filter_covers_all_chambers(pentagon_fan, a3_cluster_fan):
    for fan in (pentagon_fan, a3_cluster_fan):
        covered = set()
        for eps in _orthants(fan.rank):
            covered.update(sign_filter(fan, eps))
        assert covered == set(range(len(fan.chambers)))


def _orthants(n):
    from itertools import product

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
    red = reduce_at_cone(fan, sorted(fan.chambers[0]))
    assert red.rank == 0
    assert red.chambers == (frozenset(),)
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
    # the candidate bases are tested on the projected rays, so no refused
    # candidate pays for a build_fan call
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


def test_paranoid_verification(a3_cluster_fan):
    from tiltfan.errors import TiltfanError
    from tiltfan.fan import Fan, verify_pairwise_intersections

    verify_pairwise_intersections(pentagon())
    verify_pairwise_intersections(a3_cluster_fan)
    # cone{(1,0),(1,1)} contains cone{(2,1),(1,1)}: not a face intersection
    bad = Fan(2, ((1, 0), (1, 1), (2, 1)), (frozenset({0, 1}), frozenset({1, 2})), 0)
    with pytest.raises(TiltfanError):
        verify_pairwise_intersections(bad)


def test_json_round_trip(a3_cluster_fan):
    data = fan_to_json(a3_cluster_fan)
    again = fan_from_json(data)
    assert fan_to_json(again) == data
    assert data["schema_version"] == 1
    assert data["rays"] == sorted(data["rays"])


def _wall_fans():
    import json
    from pathlib import Path

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
    fans = Path(__file__).resolve().parent.parent / "benchmarks" / "fans"
    for path in sorted(fans.glob("*.json")):
        yield path.name, fan_from_json(json.loads(path.read_text()))


def test_wall_normals_match_kernel_functional():
    """The normals taken from chamber inverses equal the kernel functional of
    the shared rays, and the two free rays lie strictly on opposite sides."""
    from tiltfan import lattice as la

    names = []
    for name, fan in _wall_fans():
        names.append(name)
        assert fan.walls, name
        for w in fan.walls:
            shared = [fan.rays[i] for i in sorted(w.shared)]
            assert w.normal == la.kernel_functional(shared, fan.rank), (name, w)
            ca, cb = w.chambers
            (free_a,) = fan.chambers[ca] - w.shared
            (free_b,) = fan.chambers[cb] - w.shared
            assert la.dot(w.normal, fan.rays[free_a]) * la.dot(w.normal, fan.rays[free_b]) < 0
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
    from dataclasses import replace

    from tiltfan.errors import TiltfanError
    from tiltfan.fan import verify_pairwise_intersections

    try:
        verify_pairwise_intersections(replace(fan, complete=UNKNOWN))
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
    rays, chambers = ((1, 0), (1, 1), (2, 1)), (frozenset({0, 1}), frozenset({1, 2}))
    with pytest.raises(TiltfanError):
        build_fan(rays, chambers, 0)
    assert not _oracle_accepts(Fan(2, rays, chambers, 0))
    # the double cover below passes every wall check; both routes reject it
    rays, chambers = _octahedral_double_cover()
    with pytest.raises(TiltfanError):
        build_fan(rays, chambers, 0)
    assert not _oracle_accepts(Fan(3, tuple(rays), tuple(chambers), 0))


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
        holds_test_point(*la.scaled_inverse(la.from_columns([rays[i] for i in sorted(c)])), y0)
        for c in chambers
    )


def test_test_point_counts_the_covering_degree():
    from itertools import combinations

    from tiltfan import lattice as la

    rays, chambers = _octahedral_double_cover()
    owners = {}
    for ci, c in enumerate(chambers):
        assert abs(la.determinant(la.from_columns([rays[i] for i in sorted(c)]))) == 1
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
    through fan_from_cones, whose tables are already the canonical ones."""
    fan = CANONICAL_SOURCES[name]()
    again = fan_from_json(fan_to_json(fan))
    assert again == fan
    assert (again.walls, again.complete) == (fan.walls, fan.complete)


# -- the search against one that crosses every wall --------------------------


def _crossing_every_wall(rays, exchange, budget, state=None, cross=None):
    """Reference search: crosses every wall of every chamber, the one it was
    reached through included."""
    from collections import deque

    if budget < 1:
        raise ValueError("budget must be >= 1")
    rays = tuple(rays)
    found = {tuple(sorted(rays)): rays}
    queue = deque([(rays, state)])
    while queue:
        rays, state = queue.popleft()
        for k in range(len(rays)):
            new = rays[:k] + (exchange(state, rays, k),) + rays[k + 1:]
            key = tuple(sorted(new))
            if key in found:
                continue
            if len(found) >= budget:
                return fan_module.BudgetExhausted(len(found), len(queue) + 1, budget,
                                                  tuple(found.values()))
            found[key] = new
            queue.append((new, cross(state, new, k) if cross else state))
    return list(found.values())


@pytest.fixture
def paired_searches(monkeypatch):
    """Every front-end search also runs the reference search on the same
    arguments; the list collects (search result, reference result)."""
    from tiltfan import brauer, cluster, weyl

    pairs = []

    def paired(*args, **kwargs):
        got = fan_module.wall_crossing_search(*args, **kwargs)
        pairs.append((got, _crossing_every_wall(*args, **kwargs)))
        return got

    for module in (cluster, weyl, brauer):
        monkeypatch.setattr(module, "wall_crossing_search", paired)
    return pairs


@pytest.mark.parametrize("build", [
    lambda: enumerate_gfan(b_type_a(4)),
    lambda: coxeter_fan(cartan_preset("B", 3)),
    lambda: chambers_by_cliques(star_tree(4)),
], ids=["cluster A4", "weyl B3", "brauer star 4"])
def test_search_skipping_the_arrival_wall_finds_the_same_chambers(build, paired_searches):
    """Crossing back through the arrival wall always finds the parent, so
    skipping it leaves the chambers and their order as they were."""
    build()
    [(got, ref)] = paired_searches
    assert len(got) > 1 and got == ref


def test_search_skipping_the_arrival_wall_exhausts_budgets_the_same(paired_searches):
    """Explored, frontier and partial fan at every budget up to the chamber
    count of cluster A3 (14), and at budgets 1..50 on the Kronecker matrix."""
    for budget in range(1, 15):
        enumerate_gfan(B_A3, budget=budget)
    for budget in range(1, 51):
        enumerate_gfan(B_KRONECKER, budget=budget)
    assert len(paired_searches) == 64
    for got, ref in paired_searches:
        if isinstance(ref, fan_module.BudgetExhausted):
            assert isinstance(got, fan_module.BudgetExhausted)
            assert (got.explored, got.frontier, got.budget, got.cones) == \
                (ref.explored, ref.frontier, ref.budget, ref.cones)
            assert fan_to_json(got.partial_fan) == fan_to_json(ref.partial_fan)
        else:
            assert got == ref
    # A3 closes exactly at budget 14, the Kronecker search never does
    assert [isinstance(got, list) for got, _ in paired_searches] == [False] * 13 + [True] + [False] * 50


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


# -- chamber inverses by exchange pivots against full elimination -------------


def _outcome(rays, chambers, base, require_complete=False):
    """build_fan's Fan, walls and status, or its error as (class, message)."""
    try:
        fan = build_fan(rays, chambers, base, require_complete)
    except TiltfanError as exc:
        return type(exc), str(exc)
    return fan, fan.walls, fan.complete


def _reference_outcome(*args):
    """_outcome with every chamber inverted by full elimination, as build_fan
    did before it pivoted across walls."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_module, "_inverse_across_a_wall", lambda *a: None)
        return _outcome(*args)


def _assert_pivots_match_elimination(rays, chambers, base, require_complete=False):
    got = _outcome(rays, chambers, base, require_complete)
    assert got == _reference_outcome(rays, chambers, base, require_complete)
    return got


def _shuffled(fan, rnd):
    """The fan's table with its chambers in a random order."""
    order = list(range(len(fan.chambers)))
    rnd.shuffle(order)
    return list(fan.rays), [fan.chambers[ci] for ci in order], order.index(fan.base)


def _front_end_fans():
    from tiltfan.weyl import CartanData

    from conftest import gamma2

    yield from _wall_fans()
    yield "weyl B4", coxeter_fan(cartan_preset("B", 4))
    yield "weyl G2", coxeter_fan(CartanData(((2, -1), (-3, 2)), (1, 3)))
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
        complete = fan.complete == CERTIFIED
        got = _assert_pivots_match_elimination(fan.rays, fan.chambers, fan.base, complete)
        assert got == (fan, fan.walls, fan.complete), name
        for _ in range(2):
            got = _assert_pivots_match_elimination(*_shuffled(fan, rnd))
            assert got[2] == fan.complete, name


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


def _scaled_inverse_calls(monkeypatch, make):
    """(chambers, scaled_inverse calls made by build_fan) for the fan of make()."""
    fan = make()
    calls = []
    original = la.scaled_inverse

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(la, "scaled_inverse", counting)
    again = build_fan(fan.rays, fan.chambers, fan.base)
    assert (again, again.walls) == (fan, fan.walls)
    return len(fan.chambers), len(calls)


@pytest.mark.parametrize("make", [
    lambda: coxeter_fan(cartan_preset("A", 5)),
    lambda: chambers_by_cliques(odd_cycle(6)),
], ids=["coxeter A5", "brauer odd 6"])
def test_build_fan_eliminates_for_few_chambers(make, monkeypatch):
    """Every chamber but the first of a component (and few others) gets its
    inverse by a pivot across a wall, not by full elimination."""
    chambers, calls = _scaled_inverse_calls(monkeypatch, make)
    assert chambers in (720, 2048)
    assert 1 <= calls <= chambers // 100


def _reference_sign_incoherence(rays, chambers, base_rays):
    """The coordinate loop `_sign_incoherence` ran before it kept sign sets."""
    s_inv = la.invert_unimodular(la.from_columns(sorted(base_rays, reverse=True)))
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
    as lists (as `reduce_at_cone` passes them) or frozensets."""
    rays, chambers, ops, as_sets = case
    n = len(rays[0])
    base = [list(row) for row in la.identity(n)]
    for i, j, c in ops:
        if i != j:
            base[i] = [x + c * y for x, y in zip(base[i], base[j])]
    chambers = [[i for i in c if i < len(rays)] for c in chambers]
    if as_sets:
        chambers = [frozenset(c) for c in chambers]
    base = [tuple(r) for r in base]
    assert (fan_module._sign_incoherence(rays, chambers, base)
            == _reference_sign_incoherence(rays, chambers, base))
