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


def test_env_budget(tmp_path, monkeypatch, capsys):
    matrix = write(tmp_path, "kron.json", {"n": 2, "B": [[0, 2], [-2, 0]]})
    monkeypatch.setenv("TILTFAN_BUDGET", "50")
    assert main(["cluster", "--matrix", matrix]) == 2


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
    assert captured.err == "--ell-max must be in 1..8\n"


def test_fan_command_paranoid(tmp_path, capsys):
    fan = kase_family_fan(2, 2)
    path = write(tmp_path, "fan.json", fan_to_json(fan))
    assert main(["fan", "--input", path, "--paranoid"]) == 0
    assert "complete=certified" in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["abc", "0"])
def test_bad_env_budget_is_a_one_line_error(tmp_path, monkeypatch, capsys, budget):
    matrix = write(tmp_path, "a2.json", {"n": 2, "B": [[0, 1], [-1, 0]]})
    monkeypatch.setenv("TILTFAN_BUDGET", budget)
    assert main(["cluster", "--matrix", matrix]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TILTFAN_BUDGET") and err.count("\n") == 1


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
    rank3 = str(tmp_path / "rank3.json")
    assert main(["weyl", "--type", "A", "--n", "3", "--fan", rank3]) == 0
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


# -- fuzzing: any input file gives exit 0, 1 or 2 and never a traceback -------

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(
    ["", "a", "1a", "1b", "2a", "2b", "A", "B", "x\ny"]), st.floats(-2, 2))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["B", "C", "D", "n", "type", "rays", "chambers", "base",
                                     "half_edges", "sigma", "bar", "schema_version"]),
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
