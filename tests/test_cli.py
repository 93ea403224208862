import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tiltfan.brauer import graph_to_json
from tiltfan.cli import fan_svg, kase_family_fan, main, polytope_to_json
from tiltfan.cluster import enumerate_gfan
from tiltfan.fan import fan_from_json, fan_to_json
from tiltfan.polytope import convex_hull, g_polytope

from conftest import B_KRONECKER, b_type_a, gamma3, path_tree


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_kase_family_fan_shapes():
    fan = kase_family_fan(4, 5)
    assert len(fan.chambers) == 11
    assert set(fan.rays) == {
        (1, 0), (1, -1), (1, -2), (1, -3), (0, -1), (-1, 0),
        (0, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1),
    }
    square = kase_family_fan(1, 1)
    assert len(square.chambers) == 4
    assert set(square.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_brauer_analyze(tmp_path, capsys):
    graph = write(tmp_path, "tree3.json", graph_to_json(path_tree(3)))
    assert main(["brauer", "--graph", graph, "--analyze"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f"] == [1, 12, 30, 20]
    assert report["h"] == [1, 9, 9, 1]
    assert report["dehn_sommerville"] is True
    assert report["ehrhart"]["1"] == 13


def test_weyl_eulerian(tmp_path, capsys):
    assert main(["weyl", "--type", "B", "--n", "2", "--eulerian"]) == 0
    assert json.loads(capsys.readouterr().out) == [1, 6, 1]


def test_cluster_budget_exhaustion(tmp_path, capsys):
    matrix = write(tmp_path, "kron.json", {"n": 2, "B": [[0, 2], [-2, 0]]})
    out = str(tmp_path / "fan.json")
    assert main(["cluster", "--matrix", matrix, "--budget", "100", "--fan", out]) == 2
    data = json.loads((tmp_path / "fan.json").read_text())
    assert len(data["chambers"]) >= 100
    assert data["complete"] == "unknown"


def test_cluster_a2_fan_round_trip(tmp_path):
    matrix = write(tmp_path, "a2.json", {"n": 2, "B": [[0, 1], [-1, 0]]})
    out = str(tmp_path / "fan.json")
    assert main(["cluster", "--matrix", matrix, "--fan", out]) == 0
    fan = fan_from_json(json.loads((tmp_path / "fan.json").read_text()))
    assert len(fan.chambers) == 5
    assert fan_to_json(fan) == json.loads((tmp_path / "fan.json").read_text())


def test_analyze_and_classify_commands(tmp_path, capsys):
    matrix = write(tmp_path, "a2.json", {"n": 2, "B": [[0, 1], [-1, 0]]})
    out = str(tmp_path / "fan.json")
    main(["cluster", "--matrix", matrix, "--fan", out])
    assert main(["analyze", "--input", out, "--ell-max", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h"] == [1, 3, 1]
    assert main(["classify", "--input", out]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == 2


def test_validation_error_exit_code(tmp_path, capsys):
    bad = write(
        tmp_path, "bad.json",
        {"schema_version": 1, "rank": 2, "rays": [[2, 0], [0, 1]],
         "chambers": [[0, 1]], "base": 0},
    )
    assert main(["analyze", "--input", bad]) == 1


@pytest.mark.parametrize("argv", [["cluster", "--matrix", "{a3}", "--analyze"],
                                  ["analyze", "--input", "{fan}"]], ids=["cluster", "analyze"])
def test_out_writes_what_stdout_would_get(argv, tmp_path, capsys):
    a3 = write(tmp_path, "a3.json", {"B": b_type_a(3)})
    fan = str(tmp_path / "fan.json")
    assert main(["cluster", "--matrix", a3, "--fan", fan]) == 0
    argv = [a.format(a3=a3, fan=fan) for a in argv]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(argv + ["--out", str(report)]) == 0
    assert capsys.readouterr() == ("", "")
    assert report.read_text() == printed.out
    assert json.loads(printed.out)["h"] == [1, 6, 6, 1]


def test_brauer_roots_output(tmp_path, capsys):
    graph = write(tmp_path, "g3.json", graph_to_json(gamma3()))
    assert main(["brauer", "--graph", graph, "--roots"]) == 0
    table = json.loads(capsys.readouterr().out)["roots"]
    assert len(table) == 18


def test_svg_deterministic(tmp_path):
    fan = kase_family_fan(3, 3)
    poly = g_polytope(fan)
    assert fan_svg(fan, poly) == fan_svg(fan, poly)
    assert fan_svg(fan, poly).startswith("<svg")


def test_plot_command(tmp_path):
    matrix = write(tmp_path, "a2.json", {"n": 2, "B": [[0, 1], [-1, 0]]})
    out = str(tmp_path / "fan.json")
    svg = str(tmp_path / "fan.svg")
    main(["cluster", "--matrix", matrix, "--fan", out])
    assert main(["plot", "--input", out, "--out", svg]) == 0
    assert (tmp_path / "fan.svg").read_text().startswith("<svg")


def test_plot_outlines_only_a_convex_polytope(tmp_path, capsys):
    outline = 'stroke="#a40000"'
    for ell, m, drawn in ((3, 3, 1), (4, 5, 0)):
        svg = tmp_path / f"kase_{ell}_{m}.svg"
        assert main(["kase", "--ell", str(ell), "--m", str(m), "--plot", str(svg)]) == 0
        assert svg.read_text().count(outline) == drawn
    matrix = write(tmp_path, "a2.json", {"n": 2, "B": [[0, 1], [-1, 0]]})
    partial = str(tmp_path / "partial.json")
    assert main(["cluster", "--matrix", matrix, "--budget", "3", "--fan", partial]) == 2
    capsys.readouterr()
    assert main(["plot", "--input", partial, "--out", str(tmp_path / "partial.svg")]) == 1
    assert capsys.readouterr().err == "error: convexity requires a certified-complete fan\n"


def test_kase_invalid_parameters():
    with pytest.raises(ValueError):
        kase_family_fan(0, 1)


def test_polytope_json_rationals():
    poly = convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    data = polytope_to_json(poly)
    assert data["schema_version"] == 1
    assert all(isinstance(f["offset"], str) for f in data["facets"])


def test_ell_max_cap(tmp_path, capsys):
    matrix = write(tmp_path, "a2.json", {"n": 2, "B": [[0, 1], [-1, 0]]})
    assert main(["cluster", "--matrix", matrix, "--analyze", "--ell-max", "9"]) == 1


@pytest.mark.parametrize("ell_max", ["-2", "0"])
def test_ell_max_below_one_is_a_one_line_error(capsys, ell_max):
    argv = ["kase", "--ell", "2", "--m", "2", "--analyze", "--ell-max", ell_max]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --ell-max must be in 1..8\n"


@pytest.mark.parametrize("argv", [["weyl", "--type", "Q", "--n", "2"],
                                  ["kase", "--ell", "x", "--m", "1"],
                                  ["nosuch"],
                                  [],
                                  ["weyl", "--type", "A", "--n", "2", "--cartan", "c.json"]])
def test_a_bad_command_line_is_a_one_line_error(argv, capsys):
    """argparse's rejections exit 1 with one line, not 2 with the usage text:
    exit 2 means an exhausted budget."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["weyl", "--type", "A", "--n", "2", "--budget", "0"], "--budget must be >= 1"),
    (["weyl", "--type", "A"], "--type requires --n"),
    (["weyl"], "weyl needs either --type/--n or --cartan"),
    # checked before the front-end runs, so the input files need not exist
    (["cluster", "--matrix", "b.json", "--out", "r.json"], "--out requires --analyze"),
    (["brauer", "--graph", "g.json", "--out", "r.json"], "--out requires --analyze"),
    (["weyl", "--type", "A", "--n", "2", "--out", "r.json"], "--out requires --analyze"),
    (["kase", "--ell", "2", "--m", "2", "--out", "r.json"], "--out requires --analyze"),
    (["cluster", "--matrix", "b.json", "--ell-max", "3"], "--ell-max requires --analyze"),
    (["brauer", "--graph", "g.json", "--ell-max", "3"], "--ell-max requires --analyze"),
    (["weyl", "--type", "A", "--n", "2", "--ell-max", "3"], "--ell-max requires --analyze"),
    (["kase", "--ell", "2", "--m", "2", "--ell-max", "3"], "--ell-max requires --analyze"),
    (["weyl", "--cartan", "c.json", "--n", "5"], "--n requires --type"),
])
def test_checked_options_are_one_line_errors(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_analyze_reads_ell_max_4_by_default(tmp_path, capsys):
    path = write(tmp_path, "fan.json", fan_to_json(kase_family_fan(2, 2)))
    assert main(["analyze", "--input", path]) == 0
    assert list(json.loads(capsys.readouterr().out)["ehrhart"]) == ["1", "2", "3", "4"]


PATH3_GRAPH = graph_to_json(path_tree(3))
A2_CARTAN = {"C": [[2, -1], [-1, 2]], "D": [1, 1]}
A2_MATRIX = {"B": [[0, 1], [-1, 0]]}
TWO_HALVES = {"half_edges": ["a", "b"], "sigma": [["a"], ["b"]], "bar": [["a", "b"]]}
PENTAGON = {"rays": [[-1, 0], [-1, 1], [0, -1], [0, 1], [1, 0]],
            "chambers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]], "base": 3}


@pytest.mark.parametrize("command, flag, document, message", [
    ("fan", "--input", dict(PENTAGON, schema_version=2), "unsupported schema version 2"),
    ("brauer", "--graph", dict(PATH3_GRAPH, schema_version=2), "unsupported schema version 2"),
    ("weyl", "--cartan", dict(A2_CARTAN, schema_version=2), "unsupported schema version 2"),
    ("weyl", "--cartan", {"type": "A", "n": 2, "schema_version": "1"},
     "unsupported schema version '1'"),
    ("fan", "--input", dict(PENTAGON, schema_version=True), "unsupported schema version True"),
    ("fan", "--input", dict(PENTAGON, schema_version=1.0), "unsupported schema version 1.0"),
    ("cluster", "--matrix", dict(A2_MATRIX, schema_version=2), "unsupported schema version 2"),
    ("cluster", "--matrix", dict(A2_MATRIX, n=3),
     '{path} is not an exchange matrix: "n" is 3, but B has 2 rows'),
    ("cluster", "--matrix", dict(A2_MATRIX, n="2"),
     "{path} is not an exchange matrix: expected an integer, got '2'"),
    ("brauer", "--graph", dict(TWO_HALVES, sigma=[["a", "b"], ["b", "a"]]),
     "not a Brauer graph: half-edge 'b' appears twice in sigma"),
    ("brauer", "--graph", dict(TWO_HALVES, sigma=[["a", "a"], ["b"]]),
     "not a Brauer graph: half-edge 'a' appears twice in sigma"),
    ("brauer", "--graph", dict(TWO_HALVES, sigma=[["a"], ["b"], []]),
     "not a Brauer graph: sigma has an empty cycle"),
    ("brauer", "--graph", dict(TWO_HALVES, bar=[["a", "b"], ["a", "b"]]),
     "not a Brauer graph: half-edge 'a' appears twice in bar"),
    ("brauer", "--graph", dict(TWO_HALVES, bar=[["a", "b"], ["b", "a"]]),
     "not a Brauer graph: half-edge 'b' appears twice in bar"),
    ("weyl", "--cartan", dict(A2_CARTAN, type="A", n=2),
     'not Cartan data: give either "type" and "n" or "C" and "D", not both'),
    ("weyl", "--cartan", {"type": "A", "n": 2, "D": [1, 1]},
     'not Cartan data: give either "type" and "n" or "C" and "D", not both'),
    ("brauer", "--graph", dict(TWO_HALVES, half_edges=["a", "a", "b"]), "duplicate half-edge names"),
    ("brauer", "--graph", dict(TWO_HALVES, half_edges=["a", "b", "c"]),
     "sigma is not a permutation of the half-edges"),
    ("brauer", "--graph", dict(TWO_HALVES, half_edges=["a", "b", "c"], sigma=[["a"], ["b"], ["c"]]),
     "bar must be defined on every half-edge"),
    ("brauer", "--graph", dict(TWO_HALVES, bar=[["a", "a"], ["b", "b"]]),
     "bar must be a fixed-point-free involution"),
    ("brauer", "--graph", dict(TWO_HALVES, half_edges=["a", 1]),
     "not a Brauer graph: half-edge names are strings, got 1"),
    ("weyl", "--cartan", dict(A2_CARTAN, D=[1]), "Cartan matrix and symmetrizer sizes disagree"),
    ("weyl", "--cartan", dict(A2_CARTAN, C=[[2, -1], [-1, 3]]), "diagonal entries must equal 2"),
    ("weyl", "--cartan", dict(A2_CARTAN, D=[0, 1]), "symmetrizer entries must be positive"),
    ("brauer", "--graph", dict(TWO_HALVES, half_edges="ab"),
     "not a Brauer graph: half_edges must be an array, got 'ab'"),
    ("brauer", "--graph", dict(TWO_HALVES, sigma="ab"),
     "not a Brauer graph: sigma must be an array, got 'ab'"),
    ("brauer", "--graph", dict(TWO_HALVES, sigma={"a": 0, "b": 0}),
     "not a Brauer graph: sigma must be an array, got {{'a': 0, 'b': 0}}"),
    ("brauer", "--graph", dict(TWO_HALVES, bar=["ab"]),
     "not a Brauer graph: a bar pair must be an array, got 'ab'"),
    ("brauer", "--graph", dict(TWO_HALVES, half_edges={"a": 0, "b": 0}, bar=[{"a": 0, "b": 0}]),
     "not a Brauer graph: half_edges must be an array, got {{'a': 0, 'b': 0}}"),
    ("brauer", "--graph", dict(TWO_HALVES, sigma=["a", ["b"]]),
     "not a Brauer graph: a sigma cycle must be an array, got 'a'"),
    ("brauer", "--graph", [TWO_HALVES], "not a Brauer graph: expected a JSON object"),
    ("weyl", "--cartan", [A2_CARTAN], "not Cartan data: expected a JSON object"),
    ("weyl", "--cartan", dict(A2_CARTAN, C=[], D=[]), "rank must be >= 1"),
])
def test_every_input_file_is_checked_for_its_schema(command, flag, document, message,
                                                    tmp_path, capsys):
    """Each file the CLI reads is refused in one line if it names another
    schema version, and a graph or Cartan data if it is not a JSON object;
    an exchange matrix is also refused if its "n" is not the number of rows
    of B, a graph unless half_edges, sigma, its cycles, bar and its pairs
    are arrays, every half-edge lies in exactly one non-empty sigma cycle
    and one bar pair, names are strings and bar is a fixed-point-free
    involution, and Cartan data that is both a preset and a matrix, or
    whose C and D are empty or disagree in size, whose diagonal is not 2 or
    whose symmetrizer is not positive."""
    path = write(tmp_path, "input.json", document)
    assert main([command, flag, path]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("command, flag, document, message", [
    ("fan", "--input", {"rays": [1, 0], "chambers": [[0]], "base": 0},
     "not a fan: a ray must be an array, got 1"),
    ("fan", "--input", dict(PENTAGON, rays=7), "not a fan: rays must be an array, got 7"),
    ("fan", "--input", dict(PENTAGON, chambers=[[0, 1], 3]),
     "not a fan: a chamber must be an array, got 3"),
    ("fan", "--input", dict(PENTAGON, chambers="01"),
     "not a fan: chambers must be an array, got '01'"),
    ("cluster", "--matrix", {"B": 0}, "{path} is not an exchange matrix: B must be an array, got 0"),
    ("cluster", "--matrix", {"B": [[0, 1], "10"]},
     "{path} is not an exchange matrix: a row of B must be an array, got '10'"),
    ("weyl", "--cartan", dict(A2_CARTAN, C=2), "not Cartan data: C must be an array, got 2"),
    ("weyl", "--cartan", dict(A2_CARTAN, C=[[2, -1], -1]),
     "not Cartan data: a row of C must be an array, got -1"),
    ("weyl", "--cartan", dict(A2_CARTAN, D={"1": 1}),
     "not Cartan data: D must be an array, got {{'1': 1}}"),
], ids=["a ray", "rays", "a chamber", "chambers", "B", "a row of B", "C", "a row of C", "D"])
def test_a_field_that_is_not_an_array_is_named(command, flag, document, message, tmp_path,
                                               capsys):
    """Rays, chambers, the rows of B and C, and D are read as arrays: any
    other value is refused in one line that names the field."""
    path = write(tmp_path, "input.json", document)
    assert main([command, flag, path]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tiltfan")


def test_fan_command_paranoid(tmp_path, capsys):
    fan = kase_family_fan(2, 2)
    path = write(tmp_path, "fan.json", fan_to_json(fan))
    assert main(["fan", "--input", path, "--paranoid"]) == 0
    assert "complete=certified" in capsys.readouterr().out
    # the pentagon with its rays and chambers in reverse order is written
    # back with both in canonical order
    scrambled = {"rays": PENTAGON["rays"][::-1],
                 "chambers": [[4 - i for i in c] for c in PENTAGON["chambers"][::-1]],
                 "base": len(PENTAGON["chambers"]) - 1 - PENTAGON["base"]}
    path, out = write(tmp_path, "scrambled.json", scrambled), tmp_path / "out.json"
    assert main(["fan", "--input", path, "--paranoid", "--fan", str(out)]) == 0
    assert json.loads(out.read_text()) == dict(PENTAGON, schema_version=1, rank=2,
                                               complete="certified")


def test_kase_zero_parameter_is_a_one_line_error(capsys):
    assert main(["kase", "--ell", "0", "--m", "2"]) == 1
    assert capsys.readouterr().err == "error: both family parameters must be >= 1\n"


def test_schema_version_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["--schema-version", "1", "kase", "--ell", "1", "--m", "1"])


@pytest.mark.parametrize("argv", [["kase", "--ell", "1", "--m", "1"],
                                  ["brauer", "--graph", "g.json"]])
def test_budget_is_only_an_option_of_the_searches(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv + ["--budget", "3"])
    assert "unrecognized arguments: --budget 3" in capsys.readouterr().err


def test_cluster_budget_line_reports_explored_frontier_and_budget(tmp_path, capsys):
    matrix = write(tmp_path, "a6.json", {"n": 6, "B": b_type_a(6)})
    assert main(["cluster", "--matrix", matrix, "--budget", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("budget exhausted: explored 10 chambers, frontier ")
    assert err.endswith(", budget 10\n")
    assert int(err.split("frontier ")[1].split(",")[0]) > 0
    partial = str(tmp_path / "partial.json")
    assert main(["cluster", "--matrix", matrix, "--budget", "10", "--fan", partial]) == 2
    assert capsys.readouterr().err == err[:-1] + "; writing partial fan\n"
    assert len(json.loads((tmp_path / "partial.json").read_text())["chambers"]) == 10


def test_partial_fan_has_one_status_word(tmp_path, capsys):
    """In memory, in its file and when the file is read back."""
    result = enumerate_gfan(B_KRONECKER, budget=50)
    matrix = write(tmp_path, "kron.json", {"B": [[0, 2], [-2, 0]]})
    partial = str(tmp_path / "p.json")
    assert main(["cluster", "--matrix", matrix, "--budget", "50", "--fan", partial]) == 2
    word = json.loads((tmp_path / "p.json").read_text())["complete"]
    capsys.readouterr()
    assert main(["fan", "--input", partial]) == 0
    assert capsys.readouterr().out == f"rank 2, 51 rays, 50 chambers, complete={word}\n"
    assert result.partial_fan.complete == word == "unknown"


@pytest.mark.parametrize("argv", [
    ["cluster", "--matrix", {"B": [[0, 2], [-2, 0]]}],
    ["weyl", "--cartan", {"C": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "D": [1, 1, 1]}],
], ids=["cluster Kronecker", "weyl affine A2"])
def test_the_partial_fan_is_built_only_for_fan(argv, tmp_path, monkeypatch, capsys):
    """At exit 2 the partial fan is built (one fan_from_cones call) only when
    --fan asks for it."""
    from tiltfan import fan as fan_module

    built = []
    original = fan_module.fan_from_cones
    monkeypatch.setattr(fan_module, "fan_from_cones", lambda *a: built.append(1) or original(*a))
    argv = argv[:2] + [write(tmp_path, "input.json", argv[2]), "--budget", "40"]
    assert main(argv) == 2
    assert not built
    partial = str(tmp_path / "p.json")
    assert main(argv + ["--fan", partial]) == 2
    assert capsys.readouterr().err.endswith("budget 40; writing partial fan\n")
    assert len(built) == 1
    assert len(json.loads((tmp_path / "p.json").read_text())["chambers"]) == 40


FANS = Path(__file__).resolve().parent.parent / "benchmarks" / "fans"


def _count_kernel_calls(monkeypatch):
    from tiltfan import fan as fan_module

    calls = []
    kernel = fan_module.la.kernel_functional
    monkeypatch.setattr(fan_module.la, "kernel_functional",
                        lambda *a: calls.append(1) or kernel(*a))
    return calls


@pytest.mark.parametrize("rank", [4, 5])
def test_paranoid_passes_certified_fans_of_any_rank(tmp_path, monkeypatch, capsys, rank):
    if rank == 4:
        path = str(tmp_path / "a4.json")
        assert main(["weyl", "--type", "A", "--n", "4", "--fan", path]) == 0
    else:
        path = str(FANS / "coxeter_a5.json")
    calls = _count_kernel_calls(monkeypatch)
    capsys.readouterr()
    assert main(["fan", "--input", path, "--paranoid"]) == 0
    chambers = {4: 120, 5: 720}[rank]
    assert capsys.readouterr().out.endswith(f"{chambers} chambers, complete=certified\n")
    assert not calls  # the covering-degree certificate, not the pairwise loop


def test_paranoid_checks_a_partial_fan_pair_by_pair(tmp_path, monkeypatch, capsys):
    matrix = write(tmp_path, "a3.json", {"n": 3, "B": b_type_a(3)})
    partial = str(tmp_path / "partial.json")
    assert main(["cluster", "--matrix", matrix, "--budget", "3", "--fan", partial]) == 2
    calls = _count_kernel_calls(monkeypatch)
    capsys.readouterr()
    assert main(["fan", "--input", partial, "--paranoid"]) == 0
    assert capsys.readouterr().out == "rank 3, 5 rays, 3 chambers, complete=unknown\n"
    assert calls


def _bad_inputs(tmp_path):
    no_b = write(tmp_path, "no_b.json", {"n": 2})
    broken = tmp_path / "broken.json"
    broken.write_text('{"rays": [')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    not_a_fan = write(tmp_path, "a3.json", {"n": 3, "B": b_type_a(3)})
    letter = write(tmp_path, "letter.json", {"B": [["a"]]})
    base_x = write(tmp_path, "base_x.json", {"rays": [[1, 0], [0, 1]], "chambers": [[0, 1]],
                                             "base": "x"})
    twice = write(tmp_path, "twice.json", {"rays": [[1, 0], [0, 1], [1, 0]],
                                           "chambers": [[0, 1]], "base": 0})
    same = write(tmp_path, "same.json", {"rays": [[1, 0], [0, 1]], "chambers": [[0, 1], [1, 0]],
                                         "base": 0})
    mixed = write(tmp_path, "mixed.json", {"rays": [[1, 0], [0, 1, 0]], "chambers": [[0, 1]],
                                           "base": 0})
    row = write(tmp_path, "row.json", {"B": [[0, 1]]})
    preset_x = write(tmp_path, "preset_x.json", {"type": "X", "n": 2})
    short = write(tmp_path, "short.json", {"rays": [[1, 0], [0, 1]], "chambers": [[0]],
                                           "base": 0})
    v2 = write(tmp_path, "v2.json", {"schema_version": 2, "rays": [[1, 0], [0, 1]],
                                     "chambers": [[0, 1]], "base": 0})
    square = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "chambers": [[0, 1], [1, 2], [2, 3], [3, 0]],
              "base": 0}
    rank5 = write(tmp_path, "rank5.json", dict(square, rank=5))
    spare = write(tmp_path, "spare.json", dict(square, rays=square["rays"] + [[5, 7]]))
    base_4 = write(tmp_path, "base_4.json", dict(square, base=4))
    outside = write(tmp_path, "outside.json", {"rays": [[1, 0], [0, 1]], "chambers": [[0, 2]],
                                               "base": 0})
    rank3 = str(tmp_path / "rank3.json")
    assert main(["weyl", "--type", "A", "--n", "3", "--fan", rank3]) == 0
    partial4 = str(tmp_path / "partial4.json")
    assert main(["cluster", "--matrix", write(tmp_path, "a4.json", {"B": b_type_a(4)}),
                 "--budget", "3", "--fan", partial4]) == 2
    svg = str(tmp_path / "out.svg")
    return [
        (["cluster", "--matrix", no_b], f'error: {no_b} has no "B" key\n'),
        (["cluster", "--matrix", str(broken)], f"error: {broken} is not valid JSON: "),
        (["analyze", "--input", str(broken)], f"error: {broken} is not valid JSON: "),
        (["analyze", "--input", str(deep)], f"error: {deep} is not valid JSON: "),
        (["analyze", "--input", not_a_fan],
         "error: not a fan: expected an object with rays, chambers and base\n"),
        (["plot", "--input", rank3, "--out", svg],
         "error: SVG output is rank-2 only; the fan has rank 3\n"),
        (["cluster", "--matrix", not_a_fan, "--plot", svg],
         "error: SVG output is rank-2 only; the fan has rank 3\n"),
        (["brauer", "--graph", no_b], "error: not a Brauer graph: missing key 'half_edges'\n"),
        (["weyl", "--cartan", no_b], "error: not Cartan data: missing key 'C'\n"),
        (["cluster", "--matrix", letter],
         f"error: {letter} is not an exchange matrix: expected an integer, got 'a'\n"),
        (["fan", "--input", base_x], "error: not a fan: expected an integer, got 'x'\n"),
        (["fan", "--input", twice], "error: duplicate rays\n"),
        (["fan", "--input", same], "error: duplicate chambers\n"),
        (["fan", "--input", mixed], "error: rays of lengths [2, 3] in one fan\n"),
        (["fan", "--input", base_4], "error: base chamber index out of range\n"),
        (["cluster", "--matrix", row], "error: exchange matrix must be square\n"),
        (["weyl", "--cartan", preset_x], "error: unknown preset type 'X'\n"),
        (["fan", "--input", short], "error: chamber 0 has 1 rays, expected 2\n"),
        (["fan", "--input", v2], "error: unsupported schema version 2\n"),
        (["fan", "--input", rank5], "error: not a fan: rank 5, but the rays have rank 2\n"),
        (["fan", "--input", spare], "error: ray 4, (5, 7), lies in no chamber\n"),
        (["fan", "--input", outside], "error: chamber 0 names a ray index outside 0..1\n"),
        (["fan", "--input", partial4, "--paranoid"],
         "error: paranoid verification is limited to rank <= 3\n"),
        (["weyl", "--type", "A", "--n", "0"], "error: rank must be >= 1\n"),
        (["fan", "--input", str(tmp_path)], "error: [Errno 21] Is a directory: "),
    ]


def test_bad_inputs_are_one_line_errors(tmp_path, capsys):
    for argv, expected in _bad_inputs(tmp_path):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1, (argv, err)
    assert not (tmp_path / "out.svg").exists()


def test_a_plot_of_rank_other_than_2_is_refused_before_any_output(tmp_path, capsys):
    fan, svg = tmp_path / "F", tmp_path / "S"
    matrix = write(tmp_path, "b1.json", {"B": [[0]]})
    for argv, rank in ((["weyl", "--type", "A", "--n", "3"], 3),
                       (["cluster", "--matrix", matrix], 1)):
        assert main(argv + ["--analyze", "--fan", str(fan), "--plot", str(svg)]) == 1
        expected = f"error: SVG output is rank-2 only; the fan has rank {rank}\n"
        assert capsys.readouterr() == ("", expected)
        assert not fan.exists() and not svg.exists()


# -- fuzzing: any input file gives exit 0, 1 or 2 and never a traceback -------

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(
    ["", "a", "1a", "1b", "2a", "2b", "A", "B", "x\ny"]), st.floats(-2, 2))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["B", "C", "D", "n", "type", "rays", "chambers", "base",
                                     "half_edges", "sigma", "bar", "schema_version", "rank"]),
                    inner, max_size=4)), max_leaves=12)
SMALL = st.integers(-2, 2)
NAMES = st.sampled_from(["1a", "1b", "2a", "2b", "3a", "3b"])
DOCUMENTS = st.one_of(
    JSON,
    st.fixed_dictionaries({"B": st.lists(st.lists(SMALL, max_size=3), max_size=3)}),
    st.fixed_dictionaries({"C": st.lists(st.lists(SMALL, max_size=3), max_size=3),
                           "D": st.lists(st.integers(-1, 2), max_size=3)}),
    st.fixed_dictionaries({"type": st.sampled_from(["A", "B", "C", 1]),
                           "n": st.integers(-1, 3)}),
    st.fixed_dictionaries({"rays": st.lists(st.lists(SMALL, min_size=2, max_size=3), max_size=6),
                           "chambers": st.lists(st.lists(st.integers(-1, 6), max_size=3),
                                                max_size=6),
                           "base": st.integers(-1, 3)}),
    st.fixed_dictionaries({"half_edges": st.lists(NAMES, max_size=6),
                           "sigma": st.lists(st.lists(NAMES, max_size=3), max_size=4),
                           "bar": st.lists(st.lists(NAMES, max_size=2), max_size=3)}),
)
COMMANDS = st.sampled_from([
    ["cluster", "--matrix", "{doc}", "--budget", "20", "--analyze", "--ell-max", "2"],
    ["brauer", "--graph", "{doc}", "--analyze", "--ell-max", "2", "--roots"],
    ["weyl", "--cartan", "{doc}", "--budget", "20", "--eulerian", "--roots"],
    ["fan", "--input", "{doc}", "--paranoid", "--fan", "{out}"],
    ["analyze", "--input", "{doc}", "--ell-max", "2"],
    ["classify", "--input", "{doc}"],
    ["plot", "--input", "{doc}", "--out", "{out}"],
])


def _run_cli(argv):
    """(exit status, stderr) of one CLI call; an escaping exception fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            status = exc.code
    return status, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(COMMANDS, st.one_of(DOCUMENTS, st.text(max_size=12)))
def test_cli_inputs_never_traceback(command, document):
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        if isinstance(document, str):
            doc.write_text(document)  # usually not JSON at all
        else:
            doc.write_text(json.dumps(document))
        argv = [a.format(doc=doc, out=Path(tmp) / "out") for a in command]
        status, err = _run_cli(argv)
    assert status in (0, 1, 2), (argv, document, status)
    assert "Traceback" not in err
    if status == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (document, err)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["weyl", "kase", "cluster"]), st.integers(-2, 4), st.integers(-2, 4))
def test_cli_numeric_options_never_traceback(command, a, b):
    argv = {
        "weyl": ["weyl", "--type", "B", "--n", str(a), "--budget", str(b)],
        "kase": ["kase", "--ell", str(a), "--m", str(b), "--analyze", "--ell-max", "2"],
        "cluster": ["cluster", "--matrix", "missing.json", "--budget", str(a)],
    }[command]
    status, err = _run_cli(argv)
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in err
