"""The benchmark's own tests: closed forms, seeded inputs, and exact per-layer
counts of the tracer, pinned to the library as it is today.

    python3 -m pytest benchmarks -q

A change that alters how often a layer runs (caching inverses, enumerating
the Weyl group once) is expected to break the pinned counts; update them in
the same change and say so.
"""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from inputs import ROOT, STORED_FANS, import_library, write_inputs  # noqa: E402

import_library()
from jobs import WORKLOADS, build  # noqa: E402
from run import Pass, traced_pass  # noqa: E402
from tracer import LAYERS, OUTSIDE, Tracer  # noqa: E402


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def trace_jobs(workload, work, seed, names):
    """Run the named jobs of a workload one at a time under a fresh count;
    returns {job name: (layer metrics, counts, tracer span columns)}."""
    write_inputs(workload, seed, work / "in")
    jobs, _top = build(workload, work)
    tracer = Tracer()
    tracer.install()
    out = {}
    try:
        for job in jobs:
            if job.name not in names:
                continue
            tracer.reset()
            with tracer.region():
                output = job.run()
            job.check(output)
            spans = (list(tracer.span_layer), list(tracer.span_parent))
            out[job.name] = (tracer.layer_metrics(), dict(tracer.counts), spans)
    finally:
        tracer.uninstall()
    assert set(out) == set(names)
    return out


# -- closed forms ----------------------------------------------------------------


def test_closed_forms_match_published_tables():
    assert [oracle.eulerian_a(n) for n in (1, 2, 3, 4)] == [
        (1, 1), (1, 4, 1), (1, 11, 11, 1), (1, 26, 66, 26, 1)]
    assert [oracle.eulerian_b(n) for n in (2, 3, 4)] == [
        (1, 6, 1), (1, 23, 23, 1), (1, 76, 230, 76, 1)]
    for n in range(1, 8):
        assert oracle.f_from_h(oracle.h_type_a(n)) == oracle.f_type_a(n)
        assert oracle.f_from_h(oracle.h_type_c(n)) == oracle.f_type_c(n)
        assert sum(oracle.narayana_h(n)) == oracle.catalan(n + 1)
        assert sum(oracle.eulerian_a(n)) == oracle.weyl_order("A", n)
        assert sum(oracle.eulerian_b(n)) == oracle.weyl_order("B", n)
    assert oracle.f_type_a(3) == (1, 12, 30, 20)
    assert oracle.f_type_c(5) == (1, 50, 400, 1120, 1280, 512)
    assert [oracle.ehrhart((1, 9, 9, 1), ell) for ell in (1, 2)] == [13, 55]


# -- seeded inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, work):
    def snapshot(seed, dest):
        write_inputs(workload, seed, dest)
        return {p.name: p.read_bytes() for p in sorted(dest.iterdir())}

    first = snapshot(1, work / "a")
    assert first == snapshot(1, work / "b")
    assert first != snapshot(2, work / "c")
    if workload == "stored":
        assert set(first) == {f"{name}.json" for name in STORED_FANS}


# -- the tracer ------------------------------------------------------------------


def test_no_call_escapes_the_wrappers():
    import tiltfan

    modules = [m for name, m in sys.modules.items() if name.startswith("tiltfan.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(fn) for fn in tracer._originals.values()}
        assert len(originals) == len(LAYERS)
        for module in modules:
            for attr, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{attr} escapes"
        assert tiltfan.cluster.build_fan is tiltfan.fan.build_fan
        assert tiltfan.combinatorics.faces is tiltfan.fan.faces
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before


@pytest.mark.parametrize("seed", [1, 2])
def test_weyl_counts(seed, work):
    names = ["coxeter A3", "coxeter A4", "coxeter A5", "coxeter B3", "coxeter B4"]
    traced = trace_jobs("coxeter", work, seed, names)
    for name, (m, counts, _spans) in traced.items():
        type_, n = name[-2], int(name[-1])
        order = oracle.weyl_order(type_, n)
        assert m["weyl.weyl_enumerate.calls"] == 4
        assert m["lattice.invert_unimodular.calls"] == 2 * order + 1
        assert m["fan.build_fan.calls"] == 1
        assert counts["fan.walls"] == n * order // 2
    assert traced["coxeter A5"][0]["lattice.invert_unimodular.calls"] == 1441


@pytest.mark.parametrize("seed", [1, 2])
def test_cluster_counts(seed, work):
    traced = trace_jobs("cluster", work, seed, ["cluster A3", "cluster A4", "cluster A5"])
    for name, (m, counts, _spans) in traced.items():
        n = int(name[-1])
        chambers = oracle.catalan(n + 1)
        assert m["cluster.mutate.calls"] == n * chambers
        assert m["cluster.enumerate_gfan.calls"] == 1
        assert m["fan.build_fan.calls"] == 1
        assert m["lattice.invert_unimodular.calls"] == 1
        assert counts["cluster.chambers"] == chambers
    assert traced["cluster A5"][0]["cluster.mutate.calls"] == 660


def test_brauer_counts(work):
    names = ["brauer path3", "brauer path4", "brauer star4", "brauer odd3", "brauer odd4"]
    traced = trace_jobs("brauer", work, 1, names)
    for m, counts, _spans in traced.values():
        assert m["brauer.chambers_by_cliques.calls"] == 1
        assert m["fan.build_fan.calls"] == 1
        assert 0 < counts["brauer.admitted"] < m["brauer.pair_admissible.calls"]


def test_kernel_functional_runs_under_build_fan(work):
    for workload, name in (("cluster", "cluster A5"), ("brauer", "brauer path4")):
        _m, _c, (layers, parents) = trace_jobs(workload, work / workload, 1, [name])[name]
        kernel = LAYERS.index("lattice.kernel_functional")
        build_fan = LAYERS.index("fan.build_fan")
        hits = [i for i, lid in enumerate(layers) if lid == kernel]
        assert hits and all(layers[parents[i]] == build_fan for i in hits)


def test_self_times_sum_to_the_traced_pass(work):
    write_inputs("stored", 1, work / "in")
    jobs, _top = build("stored", work)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass(jobs[:12], tracer)
    finally:
        tracer.uninstall()
    assert not traced.failures
    m = tracer.layer_metrics()
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(traced.seconds, rel=1e-9)
    assert m[f"{OUTSIDE}.self_s"] >= 0
    assert m["fan.verify_pairwise_intersections.calls"] == 5


def test_untraced_passes_run_the_bare_library(work):
    import tiltfan

    write_inputs("cluster", 1, work / "in")
    jobs, _top = build("cluster", work)
    jobs = jobs[:2]
    original = tiltfan.fan.build_fan
    tracer = Tracer()
    _traced, metrics, _counts = traced_pass(jobs, tracer)
    assert metrics["fan.build_fan.calls"] == 2
    assert tiltfan.fan.build_fan is original and tiltfan.cluster.build_fan is original
    spans = len(tracer.span_layer)
    untraced = Pass(jobs)
    assert not untraced.failures and untraced.scale > 0
    assert len(tracer.span_layer) == spans
