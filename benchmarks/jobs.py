"""Job lists of the four workloads, each job with its closed-form check.

A job's `run` is the timed call into tiltfan; its `check` runs afterwards,
outside the timed region, and raises Mismatch when the output disagrees
with the reference in `oracle.py`.  CLI jobs call `tiltfan.cli.main`
in-process with stdout captured; the rest call library functions that the
CLI does not expose.  Both look functions up on their module at call time
(`lib` is the tiltfan package), so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import oracle
from inputs import BRAUER_GRAPHS, CLUSTER_RANKS, COXETER_TYPES, brauer_name

WORKLOADS = ("cluster", "coxeter", "brauer", "stored")


class Mismatch(Exception):
    """A job's output disagrees with its reference."""


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


def cli_job(cli, name, argv, check):
    argv = [str(a) for a in argv]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        return status, buf.getvalue()

    return Job(name, run, check)


def documents(output, count):
    """The JSON documents a successful CLI call printed, in order."""
    status, text = output
    expect(status == 0, f"exit status {status}")
    decoder = json.JSONDecoder()
    docs = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    expect(len(docs) == count, f"{len(docs)} JSON documents on stdout, expected {count}")
    return docs


def check_report(report, h, ell_max):
    for key, value in oracle.report(h, ell_max).items():
        expect(report.get(key) == value, f"{key} = {report.get(key)}, expected {value}")


def check_fan_file(path, rank, h):
    """The --fan output: rank, ray and chamber counts, certified; then removed,
    so that every pass has to write it again."""
    with open(path) as fh:
        data = json.load(fh)
    path.unlink()
    f = oracle.f_from_h(h)
    expect(data["rank"] == rank, f"fan rank {data['rank']}, expected {rank}")
    expect(len(data["rays"]) == f[1], f"{len(data['rays'])} rays, expected {f[1]}")
    expect(len(data["chambers"]) == f[-1],
           f"{len(data['chambers'])} chambers, expected {f[-1]}")
    expect(data["complete"] == "certified", f"fan is {data['complete']}")


# -- cluster -------------------------------------------------------------------


def cluster_jobs(lib, inp, out):
    jobs = []
    for n in CLUSTER_RANKS:
        fan_out = out / f"a{n}.json"
        h = oracle.narayana_h(n)

        def check(output, n=n, h=h, fan_out=fan_out):
            (report,) = documents(output, 1)
            check_report(report, h, 4)
            expect(report["f"][-1] == oracle.catalan(n + 1), "chambers != Catalan(n+1)")
            check_fan_file(fan_out, n, h)

        argv = ["cluster", "--matrix", inp / f"a{n}.json", "--analyze", "--fan", fan_out]
        jobs.append(cli_job(lib.cli, f"cluster A{n}", argv, check))
    return jobs, f"cluster A{CLUSTER_RANKS[-1]}"


# -- coxeter -------------------------------------------------------------------


def coxeter_jobs(lib, inp, out):
    jobs = []
    for type_, n in COXETER_TYPES:
        fan_out = out / f"{type_}{n}.json"
        h = oracle.eulerian(type_, n)

        def check(output, type_=type_, n=n, h=h, fan_out=fan_out):
            report, descents, roots = documents(output, 3)
            check_report(report, h, 4)
            expect(report["f"][-1] == oracle.weyl_order(type_, n), "chambers != |W|")
            expect(descents == list(h), f"--eulerian row {descents}, expected {list(h)}")
            expect(len(roots["roots"]) == oracle.root_count(type_, n), "root count")
            expect(len(roots["short"]) == oracle.short_root_count(type_, n), "short roots")
            check_fan_file(fan_out, n, h)

        argv = ["weyl", "--cartan", inp / f"{type_}{n}.json", "--eulerian", "--roots",
                "--analyze", "--fan", fan_out]
        jobs.append(cli_job(lib.cli, f"coxeter {type_}{n}", argv, check))
    return jobs, "coxeter A5"


# -- brauer --------------------------------------------------------------------


def brauer_jobs(lib, inp, out):
    jobs = []
    for kind, n in BRAUER_GRAPHS:
        name = brauer_name(kind, n)
        fan_out = out / f"{name}.json"
        tree = kind != "odd"
        f = oracle.f_type_a(n) if tree else oracle.f_type_c(n)
        h = oracle.h_type_a(n) if tree else oracle.h_type_c(n)

        def check(output, n=n, tree=tree, f=f, h=h, fan_out=fan_out):
            report, roots = documents(output, 2)
            expect(report["f"] == list(f), f"f = {report['f']}, expected {list(f)}")
            check_report(report, h, 4)
            images = [tuple(v) for v in roots["roots"].values()]
            expected = oracle.root_count("A" if tree else "C", n)
            expect(len(set(images)) == len(images) == expected,
                   f"{len(set(images))} distinct roots, expected {expected}")
            is_root = oracle.is_type_a_root if tree else oracle.is_type_c_root
            expect(all(is_root(v) for v in images), "image outside the root system")
            check_fan_file(fan_out, n, h)

        argv = ["brauer", "--graph", inp / f"{name}.json", "--analyze", "--roots",
                "--fan", fan_out]
        jobs.append(cli_job(lib.cli, f"brauer {name}", argv, check))
    return jobs, "brauer odd6"


# -- stored --------------------------------------------------------------------

RANK3 = ("cluster_a3", "coxeter_a3", "coxeter_b3", "path3", "gamma2")
# closed-form h-vectors of the stored fans; kase_4_5 is rank 2 with 11 rays
STORED_H = {
    "cluster_a2": oracle.narayana_h(2),
    "coxeter_b2": oracle.eulerian_b(2),
    "path2": oracle.h_type_a(2),
    "kase_4_5": (1, 9, 1),
    "cluster_a3": oracle.narayana_h(3),
    "coxeter_a3": oracle.eulerian_a(3),
    "coxeter_b3": oracle.eulerian_b(3),
    "path3": oracle.h_type_a(3),
    "gamma2": oracle.h_type_c(3),
    "cluster_a6": oracle.narayana_h(6),
    "coxeter_a5": oracle.eulerian_a(5),
    "odd5": oracle.h_type_c(5),
}
# rank-2 polygon classes of the published classification; None = not convex
RANK2_CLASS = {"cluster_a2": 2, "coxeter_b2": 6, "path2": 3, "kase_4_5": None}
KASE_RANGE = range(1, 9)


def stored_jobs(lib, inp, out):
    def read(name):
        with open(inp / f"{name}.json") as fh:
            return lib.fan.fan_from_json(json.load(fh))

    jobs = []
    for name in RANK3:
        f = oracle.f_from_h(STORED_H[name])
        line = f"rank 3, {f[1]} rays, {f[-1]} chambers, complete=certified\n"

        def check(output, line=line):
            status, text = output
            expect(status == 0, f"exit status {status}")
            expect(text == line, f"printed {text!r}, expected {line!r}")

        argv = ["fan", "--input", inp / f"{name}.json", "--paranoid"]
        jobs.append(cli_job(lib.cli, f"paranoid {name}", argv, check))

    for name in ("cluster_a6", "coxeter_a5", "odd5"):
        def check(output, h=STORED_H[name]):
            (report,) = documents(output, 1)
            check_report(report, h, 8)

        argv = ["analyze", "--input", inp / f"{name}.json", "--ell-max", "8"]
        jobs.append(cli_job(lib.cli, f"analyze {name}", argv, check))

    for name in RANK3:
        def run(name=name):
            fan = read(name)
            g = lib.polytope.g_polytope(fan)
            dual, reflexive, per_chamber = lib.polytope.dual_polytope(fan)
            return g, dual, reflexive, per_chamber, lib.polytope.smooth_fano(g)

        def check(output, chambers=oracle.f_from_h(STORED_H[name])[-1]):
            g, dual, reflexive, per_chamber, smooth = output
            expect(reflexive, "dual polytope is not reflexive")
            expect(len(per_chamber) == chambers, "one dual vertex per chamber")
            # polarity of a reflexive polytope: facets <u, x> <= 1, u the dual vertices
            expect(all(off == 1 for _n, off in g.facets), "g-polytope facet offset != 1")
            expect({n for n, _off in g.facets} == set(dual.vertices),
                   "g-polytope facet normals differ from the dual vertices")
            # smooth Fano iff every facet is a single unimodular chamber simplex
            expect(smooth == (len(g.facets) == chambers), "smooth-Fano flag")

        jobs.append(Job(f"polytopes {name}", run, check))

    def run_convexity():
        return lib.polytope.convexity_report(read("cluster_a6"))

    def check_convexity(report):
        expect(report.convex, "cluster A6 fan polytope is not convex")
        walls = 6 * oracle.catalan(7) // 2
        expect(len(report.walls) == walls, f"{len(report.walls)} walls, expected {walls}")

    jobs.append(Job("convexity cluster_a6", run_convexity, check_convexity))

    def check_root_polytope(poly, n=4):
        # the A_n root polytope: all n(n+1) roots are vertices; 2^(n+1)-2 facets
        expect(len(poly.vertices) == oracle.root_count("A", n), "root polytope vertices")
        expect(len(poly.facets) == 2 ** (n + 1) - 2, "root polytope facets")

    jobs.append(Job("root_polytope A4", lambda: lib.polytope.root_polytope("A", 4),
                    check_root_polytope))

    for name in RANK3:
        def run(name=name):
            fan = read(name)
            return [lib.combinatorics.ehrhart_bruteforce(fan, ell) for ell in range(1, 5)]

        def check(counts, h=STORED_H[name]):
            expected = [oracle.ehrhart(h, ell) for ell in range(1, 5)]
            expect(counts == expected, f"brute-force counts {counts}, expected {expected}")

        jobs.append(Job(f"ehrhart {name}", run, check))

    for ell in KASE_RANGE:
        for m in KASE_RANGE:
            svg = out / f"kase_{ell}_{m}.svg"
            rays = ell + m + 2

            def check(output, ell=ell, m=m, rays=rays, svg=svg):
                (report,) = documents(output, 1)
                check_report(report, (1, rays - 2, 1), 4)
                text = svg.read_text()
                svg.unlink()
                expect(text.count("<line") == rays, "one SVG line per ray")
                # the family's polygon is convex iff ell <= 3 and m <= 3
                convex = ell <= 3 and m <= 3
                expect(("#a40000" in text) == convex, "g-polygon drawn iff convex")

            argv = ["kase", "--ell", ell, "--m", m, "--plot", svg, "--analyze"]
            jobs.append(cli_job(lib.cli, f"kase {ell} {m}", argv, check))

    for name, klass in RANK2_CLASS.items():
        def check(output, klass=klass):
            (doc,) = documents(output, 1)
            expect(doc["class"] == klass, f"class {doc['class']}, expected {klass}")

        jobs.append(cli_job(lib.cli, f"classify {name}", ["classify", "--input",
                                                           inp / f"{name}.json"], check))
    return jobs, "paranoid coxeter_b3"


BUILDERS = {
    "cluster": cluster_jobs,
    "coxeter": coxeter_jobs,
    "brauer": brauer_jobs,
    "stored": stored_jobs,
}


def build(workload, work):
    """(jobs, name of the largest job) for a workload whose inputs are in work/in."""
    import tiltfan.cli  # the library is importable only after inputs.setup

    inp, out = work / "in", work / "out"
    out.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](tiltfan, inp, out)
