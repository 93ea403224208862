import json
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tiltfan.cli import kase_family_fan
from tiltfan.combinatorics import (
    dehn_sommerville,
    ehrhart_bruteforce,
    ehrhart_count,
    f_vector,
    gamma_vector,
    h_vector,
    recover_f,
)
from tiltfan.errors import NotPalindromic
from tiltfan.fan import (
    build_fan,
    faces,
    fan_from_cones,
    fan_from_json,
    hasse_orient,
    reduce_at_cone,
)
from tiltfan.polytope import canonical_rank2_fan
from tiltfan.weyl import cartan_preset, descent_histogram

from conftest import FRONT_END_FANS, front_end_fan
from test_acceptance import f_type_a

STORED_FANS = Path(__file__).resolve().parent.parent / "benchmarks" / "fans"


def rank1_fan():
    return build_fan([(1,), (-1,)], [{0}, {1}], 0)


def test_f_vector_rank1():
    assert f_vector(rank1_fan()) == (1, 2)


def test_h_vector_examples():
    assert h_vector((1, 2)) == (1, 1)
    assert h_vector((1, 12, 30, 20)) == (1, 9, 9, 1)
    assert h_vector((1, 18, 48, 32)) == (1, 15, 15, 1)


def test_h_f_round_trip():
    for f in [(1, 2), (1, 12, 30, 20), (1, 18, 48, 32), (1, 5, 5), (1, 8, 8)]:
        assert recover_f(h_vector(f)) == f


@given(st.lists(st.integers(0, 50), min_size=1, max_size=6))
def test_round_trip_random(tail):
    f = (1,) + tuple(tail)
    assert recover_f(h_vector(f)) == f


def test_gamma_examples():
    assert gamma_vector((1, 1)) == (1,)
    assert gamma_vector((1, 3, 1)) == (1, 1)
    assert gamma_vector((1, 9, 9, 1)) == (1, 6)
    assert gamma_vector((1, 15, 15, 1)) == (1, 12)


def test_gamma_rejects_non_palindromic():
    with pytest.raises(NotPalindromic):
        gamma_vector((1, 2, 1, 0))


def test_dehn_sommerville():
    assert dehn_sommerville((1, 9, 9, 1))
    assert dehn_sommerville((1, 6, 6, 1))
    assert not dehn_sommerville((1, 2, 1, 0))


def test_ehrhart_count_examples():
    assert ehrhart_count((1, 1), 3) == 7
    assert ehrhart_count((1, 9, 9, 1), 1) == 13
    assert ehrhart_count((1, 3, 1), 2) == 16
    assert ehrhart_count((1, 9, 9, 1), 0) == 1


def test_ehrhart_bruteforce_rank1():
    assert ehrhart_bruteforce(rank1_fan(), 3) == 7


def test_ehrhart_bruteforce_matches_closed_form(pentagon_fan, a3_cluster_fan):
    for fan in (pentagon_fan, a3_cluster_fan):
        h = h_vector(f_vector(fan))
        for ell in (1, 2, 3, 4):
            assert ehrhart_bruteforce(fan, ell) == ehrhart_count(h, ell)


def test_pentagon_lattice_points(pentagon_fan):
    # 5 rays + origin at dilation 1
    assert ehrhart_bruteforce(pentagon_fan, 1) == 6


def test_h_properties_on_enumerated_fans(pentagon_fan, a3_cluster_fan):
    for fan in (pentagon_fan, a3_cluster_fan):
        h = h_vector(f_vector(fan))
        assert h[0] == 1 and h[-1] == 1
        assert sum(h) == len(fan.chambers)
        assert dehn_sommerville(h)
        n = len(h) - 1
        first = h[1 : n // 2 + 1]
        assert all(a <= b for a, b in zip(first, first[1:]))  # unimodality


def _composition_ehrhart(fan, ell):
    """`ehrhart_bruteforce` as it was before it summed multisets of rays:
    every combination sum a_i r_i with a_i >= 0 and sum a_i <= ell in every
    chamber, the coefficients from a recursive composition generator, and
    each point a per-coordinate sum of products.  With no rays the
    generator recurses without end, so it serves rank >= 1 only."""
    points = set()

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for c in fan.chambers:
        rays = [fan.rays[i] for i in sorted(c)]
        for total in range(ell + 1):
            for coeffs in compositions(total, len(rays)):
                points.add(tuple(
                    sum(a * r[j] for a, r in zip(coeffs, rays)) for j in range(fan.rank)))
    return len(points)


def _face_count(fan):
    """The f-vector by listing every face: the oracle of the wall count."""
    return tuple(len(faces(fan, i)) for i in range(fan.rank + 1))


def _rank0_fan(route):
    if route == "fan_from_cones":
        return fan_from_cones([()], ())
    fan = front_end_fan("cluster A3")
    return reduce_at_cone(fan, fan.chambers[fan.base])


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
@pytest.mark.parametrize("route", ["fan_from_cones", "reduce_at_cone"])
def test_ehrhart_bruteforce_rank0(route, ell):
    """A rank-0 fan (the reduction at a full chamber) has the one point 0."""
    fan = _rank0_fan(route)
    assert fan.rank == 0 and f_vector(fan) == (1,)
    assert ehrhart_bruteforce(fan, ell) == ehrhart_count((1,), ell) == 1


def _fans_of_rank_at_most_3(pentagon_fan):
    yield "rank 1", rank1_fan()
    yield "pentagon", pentagon_fan
    for name in FRONT_END_FANS:
        if front_end_fan(name).rank <= 3:
            yield name, front_end_fan(name)
    for k in range(1, 8):
        yield f"canonical {k}", canonical_rank2_fan(k)
    for ell, m in product(range(1, 9), repeat=2):
        yield f"kase {ell},{m}", kase_family_fan(ell, m)


def test_ehrhart_bruteforce_matches_the_composition_enumeration(pentagon_fan):
    for name, fan in _fans_of_rank_at_most_3(pentagon_fan):
        for ell in (1, 2, 3, 4):
            assert ehrhart_bruteforce(fan, ell) == _composition_ehrhart(fan, ell), (name, ell)


@pytest.mark.parametrize("name", FRONT_END_FANS)
def test_f_vector_from_the_walls_matches_the_face_count(name):
    fan = front_end_fan(name)
    assert f_vector(fan) == _face_count(fan)


@pytest.mark.parametrize("name", FRONT_END_FANS)
def test_h_vector_counts_the_hasse_out_degrees(name):
    """The paper's reading of h: h_i counts the chambers with i arrows out
    in the Hasse quiver, on every front-end fan."""
    fan = front_end_fan(name)
    hist = hasse_orient(fan).out_degree_histogram(len(fan.chambers), fan.rank)
    assert h_vector(f_vector(fan)) == hist


def test_f_vector_from_the_walls_on_the_kase_family_and_fixtures(pentagon_fan):
    fans = {"rank 0": fan_from_cones([()], ()), "rank 1": rank1_fan(), "pentagon": pentagon_fan}
    fans.update({f"kase {ell},{m}": kase_family_fan(ell, m)
                 for ell, m in product(range(1, 9), repeat=2)})
    fans.update({path.name: fan_from_json(json.loads(path.read_text()))
                 for path in sorted(STORED_FANS.glob("*.json"))})
    for name, fan in fans.items():
        assert f_vector(fan) == _face_count(fan), name


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("path", "star") for n in range(3, 7)])
def test_brauer_trees_have_the_type_a_f_vector(kind, n):
    """Every Brauer tree with n edges has the fan of type A_n."""
    assert f_vector(front_end_fan(f"{kind} {n}")) == f_type_a(n)


def eulerian_b(n):
    """Type-B Eulerian numbers: signed permutations of n by descents."""
    return tuple(sum((-1) ** (k - i) * comb(n + 1, k - i) * (2 * i + 1) ** n
                     for i in range(k + 1)) for k in range(n + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_coxeter_b_h_vector_is_eulerian(n):
    h = h_vector(f_vector(front_end_fan(f"coxeter B{n}")))
    assert h == eulerian_b(n) == descent_histogram(cartan_preset("B", n))
