import pytest

from tiltfan import lattice as la
from tiltfan import weyl
from tiltfan.cli import main
from tiltfan.combinatorics import f_vector, h_vector
from tiltfan.errors import NotFiniteType, TiltfanError
from tiltfan.fan import fan_from_cones, fan_to_json
from tiltfan.polytope import short_root_polytope
from tiltfan.weyl import (
    BudgetExhausted,
    CartanData,
    cartan_from_json,
    cartan_preset,
    coxeter_fan,
    descent_histogram,
    root_system,
    weyl_enumerate,
)

from conftest import FINITE_TYPES, cones, front_end_fan, vector_chambers

A_TILDE_1 = CartanData(((2, -2), (-2, 2)), (1, 1))
A_TILDE_2 = CartanData(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (1, 1, 1))
HYPERBOLIC = CartanData(((2, -3), (-3, 2)), (1, 1))
# c_01 != c_10: reading the Cartan matrix by columns would give the dual type
G2 = FINITE_TYPES["G2"]
D4 = FINITE_TYPES["D4"]


def reference_enumerate(cartan, budget=2_000_000):
    """The group matrices by BFS over right multiplication by the generators,
    deduplicated by matrix, as `weyl_enumerate` computed them before it
    crossed walls.

    Returns [(M_w, one shortest word, M_w^-1)] in BFS order, the inverses
    from (M_w s_i)^-1 = s_i M_w^-1, or (explored, frontier) when the group
    does not close within the budget.
    """
    n = cartan.n
    gens = [cartan.reflection(i) for i in range(n)]
    identity = la.identity(n)
    elements = {identity: ((), None)}  # matrix -> (word, matrix it was reached from)
    frontier = [identity]
    while frontier:
        nxt = []
        for k, m in enumerate(frontier):
            word = elements[m][0]
            for i in range(n):
                m2 = la.matmul(m, gens[i])
                if m2 not in elements:
                    if len(elements) >= budget:
                        return len(elements), len(frontier) - k + len(nxt)
                    elements[m2] = (word + (i + 1,), m)
                    nxt.append(m2)
        frontier = nxt
    inverses = {}
    result = []
    for m, (word, parent) in elements.items():
        inverses[m] = la.matmul(gens[word[-1] - 1], inverses[parent]) if word else identity
        result.append((m, word, inverses[m]))
    return result


def reference_descents(cartan, reference):
    """Left descents from the word lengths: s_i is one iff l(s_i w) < l(w)."""
    gens = [cartan.reflection(i) for i in range(cartan.n)]
    length = {m: len(word) for m, word, _inv in reference}
    hist = [0] * (cartan.n + 1)
    for m, word, _inv in reference:
        hist[sum(1 for s in gens if length[la.matmul(s, m)] < len(word))] += 1
    return tuple(hist)


# C3 beside B3 and G2 dual beside G2 put the -2 and the -3 on either side of
# the diagonal, so a crossing that read c_jk for c_kj fails one of each pair
@pytest.mark.parametrize(
    "cd",
    [cartan_preset("A", n) for n in range(1, 6)] + [cartan_preset("B", n) for n in (2, 3, 4)]
    + [G2, D4] + [FINITE_TYPES[name] for name in ("C3", "D5", "F4", "G2 dual")],
    ids=[f"A{n}" for n in range(1, 6)] + ["B2", "B3", "B4", "G2", "D4",
                                           "C3", "D5", "F4", "G2 dual"],
)
def test_wall_crossing_matches_the_matrix_search(cd):
    reference = reference_enumerate(cd)
    # the same chambers in the same order: the chamber of w is M_w^-1 by rows
    assert vector_chambers(weyl_enumerate(cd))[0] == [inv for _m, _word, inv in reference]
    expected = fan_from_cones([inv for _m, _w, inv in reference], la.identity(cd.n))
    assert fan_to_json(coxeter_fan(cd)) == fan_to_json(expected)
    assert descent_histogram(cd) == reference_descents(cd, reference)


def test_budget_counts_match_the_matrix_search():
    a3 = cartan_preset("A", 3)
    for budget in range(1, 24):
        result = weyl_enumerate(a3, budget=budget)
        assert (result.explored, result.frontier) == reference_enumerate(a3, budget)
        assert result.budget == budget
    for cd, budget in ((A_TILDE_2, 1000), (A_TILDE_1, 1), (A_TILDE_1, 2), (A_TILDE_1, 101),
                       (HYPERBOLIC, 3), (HYPERBOLIC, 500)):
        result = weyl_enumerate(cd, budget=budget)
        assert (result.explored, result.frontier) == reference_enumerate(cd, budget)


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanData(((2, 1), (-1, 2)), (1, 1))  # positive off-diagonal
    with pytest.raises(ValueError):
        CartanData(((2, -1), (0, 2)), (1, 1))  # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanData(((2, -1), (-2, 2)), (1, 1))  # CD not symmetric
    # the cycle products c12 c23 c31 = -1 and c21 c32 c13 = -2 differ: no D works
    for d in ((1, 1, 1), (1, 2, 1), (2, 1, 1)):
        with pytest.raises(TiltfanError, match=r"^C D is not symmetric$"):
            CartanData(((2, -1, -1), (-2, 2, -1), (-1, -1, 2)), d)


def test_preset_b2():
    cd = cartan_preset("B", 2)
    assert cd.c == ((2, -1), (-2, 2))
    assert cd.d == (1, 2)


def test_enumeration_counts():
    assert len(vector_chambers(weyl_enumerate(cartan_preset("A", 2)))[0]) == 6
    assert len(vector_chambers(weyl_enumerate(cartan_preset("B", 2)))[0]) == 8
    for n in (1, 2, 3, 4):
        assert len(vector_chambers(weyl_enumerate(cartan_preset("A", n)))[0]) == _factorial(n + 1)
    for n in (2, 3, 4):
        assert len(vector_chambers(weyl_enumerate(cartan_preset("B", n)))[0]) == \
            2**n * _factorial(n)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_infinite_type_exhausts_budget():
    result = weyl_enumerate(A_TILDE_1, budget=100)
    assert isinstance(result, BudgetExhausted)
    with pytest.raises(NotFiniteType):
        coxeter_fan(A_TILDE_1)
    with pytest.raises(NotFiniteType, match="^Weyl group did not close within 100 elements$"):
        coxeter_fan(A_TILDE_1, result)


@pytest.mark.parametrize("cd, k, minor",
                         [(A_TILDE_1, 2, 0), (A_TILDE_2, 3, 0), (HYPERBOLIC, 2, -5)],
                         ids=["affine A1", "affine A2", "hyperbolic"])
def test_roots_of_an_infinite_type_are_refused(cd, k, minor):
    """Finiteness is read off the leading principal minors of C D, without
    enumerating the group."""
    message = f"^not of finite type: leading principal minor {k} of C D is {minor}$"
    with pytest.raises(NotFiniteType, match=message):
        root_system(cd)
    with pytest.raises(NotFiniteType):
        short_root_polytope(cd)


@pytest.mark.parametrize("cd", [
    cartan_preset("A", 1), cartan_preset("A", 4), cartan_preset("B", 2), cartan_preset("B", 4),
    G2, D4, A_TILDE_1, A_TILDE_2, HYPERBOLIC,
    FINITE_TYPES["C3"],
    CartanData(((2, -2, 0), (-1, 2, -1), (0, -2, 2)), (2, 1, 2)),
])
def test_finite_type_iff_the_group_closes(cd):
    closes = not isinstance(weyl_enumerate(cd, budget=2000), BudgetExhausted)
    try:
        weyl.require_finite_type(cd)
    except NotFiniteType:
        assert not closes
    else:
        assert closes


def test_coxeter_fan_a1():
    fan = coxeter_fan(cartan_preset("A", 1))
    assert set(fan.rays) == {(1,), (-1,)}
    assert len(fan.chambers) == 2


def test_coxeter_fan_b2_rays():
    fan = coxeter_fan(cartan_preset("B", 2))
    assert len(fan.chambers) == 8
    assert set(fan.rays) == {
        (1, 0), (0, 1), (-1, 1), (-2, 1), (-1, 0), (0, -1), (1, -1), (2, -1),
    }


def test_coxeter_fan_a2_hexagon():
    fan = coxeter_fan(cartan_preset("A", 2))
    assert len(fan.chambers) == 6
    assert h_vector(f_vector(fan)) == (1, 4, 1)


def test_eulerian_tables():
    assert descent_histogram(cartan_preset("A", 3)) == (1, 11, 11, 1)
    assert descent_histogram(cartan_preset("B", 3)) == (1, 23, 23, 1)
    assert descent_histogram(cartan_preset("B", 2)) == (1, 6, 1)


def test_fan_h_equals_eulerian():
    """The h-vector read off the walls is the descent count, on every type."""
    for name, cd in FINITE_TYPES.items():
        fan = front_end_fan(f"coxeter {name}")
        assert h_vector(f_vector(fan)) == descent_histogram(cd), name


def test_root_system_a2():
    roots, short = root_system(cartan_preset("A", 2))
    assert len(roots) == 6
    assert short == roots  # simply laced


def test_root_system_b2():
    roots, short = root_system(cartan_preset("B", 2))
    assert len(roots) == 8
    assert len(short) == 4
    assert (1, 1) in short  # the sum of the simple roots is short


@pytest.mark.parametrize("type_, n, roots, short", [("A", 4, 20, 20), ("B", 4, 32, 8)])
def test_root_system_builds_the_gram_matrix_once(type_, n, roots, short, monkeypatch):
    calls = []
    original = CartanData.gram

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CartanData, "gram", counting)
    found, found_short = root_system(cartan_preset(type_, n))
    assert (len(found), len(found_short)) == (roots, short)
    assert len(calls) == 1


def test_short_root_polytope_shapes():
    seg = short_root_polytope(cartan_preset("A", 1))
    assert seg.vertices == ((-1,), (1,))
    hexagon = short_root_polytope(cartan_preset("A", 2))
    assert set(hexagon.vertices) == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    square = short_root_polytope(cartan_preset("B", 2))
    assert set(square.vertices) == {(0, 1), (1, 1), (0, -1), (-1, -1)}


def test_cartan_json():
    cd = cartan_from_json({"type": "B", "n": 3})
    assert cd == cartan_preset("B", 3)
    cd2 = cartan_from_json({"C": [[2, -1], [-1, 2]], "D": [1, 1]})
    assert cd2 == cartan_preset("A", 2)


def test_word_lengths_are_coxeter_lengths():
    # in A2 the longest element has length 3 and the identity length 0
    cd = cartan_preset("A", 2)
    assert [len(word) for _m, word, _inv in reference_enumerate(cd)] == [0, 1, 1, 2, 2, 3]
    # the length of w counts the walls between its chamber and the base:
    # the positive roots that are negative inside the chamber
    for cd in (cd, cartan_preset("A", 3), cartan_preset("B", 3)):
        positive = [r for r in root_system(cd)[0] if min(r) >= 0]
        elements = vector_chambers(weyl_enumerate(cd))[0]
        for (_m, word, _inv), rays in zip(reference_enumerate(cd), elements):
            inside = tuple(map(sum, zip(*rays)))
            assert sum(1 for r in positive if la.dot(r, inside) < 0) == len(word)


def test_reflections_are_involutions():
    cd = cartan_preset("B", 3)
    for i in range(3):
        s = cd.reflection(i)
        assert la.matmul(s, s) == la.identity(3)


@pytest.mark.parametrize("type_, n", [("A", 3), ("B", 3)])
def test_tracked_inverses(type_, n):
    reference = reference_enumerate(cartan_preset(type_, n))
    elements = vector_chambers(weyl_enumerate(cartan_preset(type_, n)))[0]
    for (m, _word, inverse), rays in zip(reference, elements):
        assert la.matmul(m, inverse) == la.identity(n)
        assert inverse == la.invert_unimodular(m)
        assert la.matmul(m, rays) == la.identity(n)


@pytest.mark.parametrize("type_, n", [("A", 3), ("B", 3)])
def test_functions_accept_the_enumerated_elements(type_, n):
    cd = cartan_preset(type_, n)
    elements = weyl_enumerate(cd)
    fan = coxeter_fan(cd, elements=elements)
    assert fan == coxeter_fan(cd)
    assert fan.walls == coxeter_fan(cd).walls
    assert descent_histogram(cd, elements=elements) == descent_histogram(cd)


def test_weyl_command_enumerates_once(monkeypatch, capsys):
    calls = []
    original = weyl.weyl_enumerate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(weyl, "weyl_enumerate", counting)
    argv = ["weyl", "--type", "A", "--n", "3", "--eulerian", "--roots", "--analyze"]
    assert main(argv) == 0
    assert len(calls) == 1
    assert "[1, 11, 11, 1]" in capsys.readouterr().out


def test_weyl_command_honours_the_budget(tmp_path, capsys):
    assert main(["weyl", "--type", "A", "--n", "3", "--budget", "3"]) == 2
    # e, s1 and s2 are found; expanding e then finds s3: e and both
    # generators found so far are left unexpanded
    assert capsys.readouterr().err == (
        "budget exhausted: explored 3 elements, frontier 3, budget 3\n"
    )
    # --fan writes the partial fan of the elements found, as cluster does
    fan_path = str(tmp_path / "f")
    assert main(["weyl", "--type", "A", "--n", "3", "--budget", "3", "--fan", fan_path]) == 2
    assert capsys.readouterr().err.endswith("budget 3; writing partial fan\n")
    assert main(["fan", "--input", fan_path]) == 0
    assert capsys.readouterr().out == "rank 3, 5 rays, 3 chambers, complete=unknown\n"
    assert main(["weyl", "--type", "A", "--n", "3", "--budget", "24", "--eulerian"]) == 0


def test_a_non_finite_type_is_refused_before_any_enumeration(monkeypatch):
    """Without `elements`, the leading minors of C D decide finiteness first:
    affine A2 at the default budget makes no `weyl_enumerate` call."""
    calls = []
    monkeypatch.setattr(weyl, "weyl_enumerate", lambda *args, **kwargs: calls.append(args))
    for function in (coxeter_fan, descent_histogram):
        with pytest.raises(NotFiniteType,
                           match=r"^not of finite type: leading principal minor 3 of C D is 0$"):
            function(A_TILDE_2)
    assert calls == []


@pytest.mark.parametrize("function", [coxeter_fan, descent_histogram])
def test_a_finite_type_is_enumerated_without_a_budget(function, monkeypatch):
    """Once the Cartan data is of finite type the group closes, so the search
    has no cap: a budget below |W| (696,729,600 for E8) would refuse a
    finite group as not finite."""
    budgets = []
    search = weyl.wall_crossing_search

    def recording(rays, exchange, budget, *args):
        budgets.append(budget)
        return search(rays, exchange, budget, *args)

    monkeypatch.setattr(weyl, "wall_crossing_search", recording)
    function(FINITE_TYPES["D4"])
    assert budgets == [float("inf")]


@pytest.mark.parametrize("name", FINITE_TYPES)
def test_the_coxeter_fan_is_centrally_symmetric(name):
    """The Coxeter fan is the g-fan of a preprojective algebra, which is
    isomorphic to its opposite, so Sigma(A^op) = -Sigma(A) says the fan is
    centrally symmetric; so it is, since -wC = w w0 C for the dominant
    chamber C and the longest element w0."""
    fan = front_end_fan(f"coxeter {name}")
    assert cones(fan) == cones(fan, -1)


@pytest.mark.parametrize("name", FINITE_TYPES)
def test_the_wall_normals_are_the_positive_roots(name):
    """Up to sign, the rows of the Coxeter fan's chamber inverses, its wall
    normals, are exactly the positive roots of `root_system`, the orbit of
    the simple roots under the reflections: two routes that share only the
    Cartan matrix.  The row table holds each normal and its negation once,
    as ids 2t and 2t + 1, and every row is some chamber's."""
    walls = front_end_fan(f"coxeter {name}").walls
    roots, _short = root_system(FINITE_TYPES[name])
    positive = {r for r in roots if min(r) >= 0}
    assert len(positive) == len(roots) // 2
    rows = walls.rows
    assert len(set(rows)) == len(rows) == 2 * len(positive)
    assert all(rows[t + 1] == la.vneg(rows[t]) for t in range(0, len(rows), 2))
    assert set().union(*walls.inverses) == set(range(len(rows)))
    assert {v if min(v) >= 0 else la.vneg(v) for v in rows} == positive
