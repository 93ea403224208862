"""Command-line interface: front-ends to fan construction plus analysis,
classification and rank-2 SVG plots.  All file formats are JSON with an
embedded schema_version; exit status 2 flags an exhausted search budget.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import brauer, cluster, combinatorics, polytope, weyl
from .errors import NotConvex, NotRank2, ParseError, TiltfanError, parse_int, reading
from .fan import (
    BudgetExhausted,
    fan_from_json,
    fan_to_json,
    verify_pairwise_intersections,
)

DEFAULT_BUDGET = 100_000
MAX_ELL = 8


def kase_family_fan(ell, m):
    """The rank-2 fan with rays e1 - i*e2 (i < ell), -e2, e2 - j*e1 (j < m), -e1.

    Complete for every ell, m >= 1; its polytope is convex iff ell <= 3 and
    m <= 3, which makes the family a convenient non-front-end test source.
    """
    if ell < 1 or m < 1:
        raise TiltfanError("both family parameters must be >= 1")
    rays = [(1, -i) for i in range(ell)] + [(0, -1)]
    rays += [(-j, 1) for j in range(m)] + [(-1, 0)]
    rays = sorted(set(rays))
    return polytope.rank2_fan_from_rays(rays)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _rat(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def polytope_to_json(poly):
    return {
        "schema_version": 1,
        "vertices": [list(v) for v in poly.vertices],
        "facets": [
            {"normal": [_rat(x) for x in n], "offset": _rat(off)} for n, off in poly.facets
        ],
    }


def fan_svg(fan, g_poly=None, size=400):
    """Deterministic SVG of a rank-2 fan: chamber simplices, rays, polygon."""
    if fan.rank != 2:
        raise NotRank2(f"SVG output is rank-2 only; the fan has rank {fan.rank}")
    pts = list(fan.rays)
    if g_poly is not None:
        pts += list(g_poly.vertices)
    extent = max(max(abs(x), abs(y)) for x, y in pts)
    scale = (size / 2 - 20) / extent

    def xy(v):
        return (size / 2 + scale * v[0], size / 2 - scale * v[1])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    origin = xy((0, 0))
    for c in sorted(fan.chambers, key=lambda c: tuple(sorted(c))):
        a, b = (xy(fan.rays[i]) for i in sorted(c))
        lines.append(
            f'<polygon points="{origin[0]:.2f},{origin[1]:.2f} {a[0]:.2f},{a[1]:.2f} '
            f'{b[0]:.2f},{b[1]:.2f}" fill="#dce9f5" stroke="none"/>'
        )
    for r in sorted(fan.rays):
        p = xy(r)
        lines.append(
            f'<line x1="{origin[0]:.2f}" y1="{origin[1]:.2f}" x2="{p[0]:.2f}" '
            f'y2="{p[1]:.2f}" stroke="#3465a4" stroke-width="1.5"/>'
        )
    if g_poly is not None:
        ordered = sorted(g_poly.vertices, key=polytope.angle_key)
        path = " ".join(f"{xy(v)[0]:.2f},{xy(v)[1]:.2f}" for v in ordered)
        lines.append(f'<polygon points="{path}" fill="none" stroke="#a40000" stroke-width="2"/>')
    lines.append(f'<circle cx="{origin[0]:.2f}" cy="{origin[1]:.2f}" r="3" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _emit_fan_outputs(fan_obj, args):
    if args.fan:
        _write_json(args.fan, fan_to_json(fan_obj))
    if args.analyze:
        _emit_report(fan_obj, args)
    if args.plot:
        _write_plot(fan_obj, args.plot)
    return 0


def _emit_report(fan_obj, args):
    report = combinatorics.analyze(fan_obj, ell_max=args.ell_max)
    report["schema_version"] = 1
    if args.out:
        _write_json(args.out, report)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()


def _budget_exhausted(result, unit, fan_path):
    """The exit-2 line; given fan_path, the partial fan is built and written
    there."""
    print(
        f"budget exhausted: explored {result.explored} {unit}, "
        f"frontier {result.frontier}, budget {result.budget}"
        + ("; writing partial fan" if fan_path else ""),
        file=sys.stderr,
    )
    if fan_path:
        _write_json(fan_path, fan_to_json(result.partial_fan))
    return 2


def _write_plot(fan_obj, path):
    poly = None
    if fan_obj.rank == 2:
        try:
            poly = polytope.g_polytope(fan_obj)
        except NotConvex:
            pass
    svg = fan_svg(fan_obj, poly)
    with open(path, "w") as fh:
        fh.write(svg)


def _budget(args):
    env = os.environ.get("TILTFAN_BUDGET")
    if args.budget is not None:
        return args.budget
    if env is None:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise TiltfanError(f"TILTFAN_BUDGET must be an integer >= 1, got {env!r}")
    return budget


def cmd_cluster(args):
    data = _load_json(args.matrix)
    if not isinstance(data, dict) or "B" not in data:
        raise ParseError(f'{args.matrix} has no "B" key')
    with reading(f"{args.matrix} is not an exchange matrix"):
        b = tuple(tuple(map(parse_int, row)) for row in data["B"])
    result = cluster.enumerate_gfan(b, budget=_budget(args))
    if isinstance(result, BudgetExhausted):
        return _budget_exhausted(result, "chambers", args.fan)
    return _emit_fan_outputs(result, args)


def cmd_brauer(args):
    graph = brauer.graph_from_json(_load_json(args.graph))
    fan_obj = brauer.chambers_by_cliques(graph)
    status = _emit_fan_outputs(fan_obj, args)
    if args.roots:
        rm = brauer.root_map(graph)
        # the rays are the classes of the self-admissible walks
        table = {",".join(map(str, r)): list(rm.apply(r)) for r in fan_obj.rays}
        json.dump({"schema_version": 1, "roots": table}, sys.stdout, indent=1, sort_keys=True)
        print()
    return status


def cmd_weyl(args):
    if args.type:
        if args.n is None:
            print("--type requires --n", file=sys.stderr)
            return 1
        cartan = weyl.cartan_preset(args.type, args.n)
    elif args.cartan:
        cartan = weyl.cartan_from_json(_load_json(args.cartan))
    else:
        print("weyl needs either --type/--n or --cartan", file=sys.stderr)
        return 1
    enum = weyl.weyl_enumerate(cartan, budget=_budget(args))
    if isinstance(enum, BudgetExhausted):
        return _budget_exhausted(enum, "elements", args.fan)
    fan_obj = weyl.coxeter_fan(cartan, elements=enum)
    status = _emit_fan_outputs(fan_obj, args)
    if args.eulerian:
        print(json.dumps(list(weyl.descent_histogram(cartan, elements=enum))))
    if args.roots:
        roots, short = weyl.root_system(cartan)
        json.dump(
            {
                "schema_version": 1,
                "roots": sorted(map(list, roots)),
                "short": sorted(map(list, short)),
            },
            sys.stdout,
            indent=1,
            sort_keys=True,
        )
        print()
    return status


def cmd_fan(args):
    fan_obj = fan_from_json(_load_json(args.input))
    if args.paranoid:
        verify_pairwise_intersections(fan_obj)
    if args.fan:
        _write_json(args.fan, fan_to_json(fan_obj))
    print(f"rank {fan_obj.rank}, {len(fan_obj.rays)} rays, "
          f"{len(fan_obj.chambers)} chambers, complete={fan_obj.complete}")
    return 0


def cmd_analyze(args):
    _emit_report(fan_from_json(_load_json(args.input)), args)
    return 0


def cmd_classify(args):
    fan_obj = fan_from_json(_load_json(args.input))
    klass = polytope.rank2_classify(fan_obj)
    print(json.dumps({"schema_version": 1, "class": klass}))
    return 0


def cmd_plot(args):
    _write_plot(fan_from_json(_load_json(args.input)), args.out)
    return 0


def cmd_kase(args):
    fan_obj = kase_family_fan(args.ell, args.m)
    return _emit_fan_outputs(fan_obj, args)


def _add_common(p):
    p.add_argument("--ell-max", type=int, default=4, dest="ell_max",
                   help="max Ehrhart dilation (1..8)")
    p.add_argument("--fan", help="write the fan as JSON to this path")
    p.add_argument("--analyze", action="store_true", help="print the analysis report")
    p.add_argument("--out", help="write the analysis report to this path")
    p.add_argument("--plot", help="write a rank-2 SVG rendering to this path")


@functools.cache
def build_parser():
    """The argument parser, built once per process: `set_defaults` binds the
    `cmd_*` functions as they are at the first call."""
    ap = argparse.ArgumentParser(prog="tiltfan",
                                 description="g-fans and g-polytopes, exactly")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="g-fan of a skew-symmetric exchange matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--budget", type=int, help="search budget (chambers)")
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("brauer", help="g-fan of a Brauer graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--roots", action="store_true", help="print the root-lattice table")
    _add_common(p)
    p.set_defaults(func=cmd_brauer)

    p = sub.add_parser("weyl", help="Coxeter fan of a Dynkin Cartan matrix")
    p.add_argument("--type", choices=["A", "B", "a", "b"])
    p.add_argument("--n", type=int)
    p.add_argument("--cartan", help="JSON file with C and D")
    p.add_argument("--eulerian", action="store_true")
    p.add_argument("--roots", action="store_true")
    p.add_argument("--budget", type=int, help="search budget (group elements)")
    _add_common(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("fan", help="validate and canonicalize a fan JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--fan", help="write the canonical fan JSON here")
    p.add_argument("--paranoid", action="store_true")
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("analyze", help="f/h/gamma/Ehrhart report of a fan JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--ell-max", type=int, default=4, dest="ell_max")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="rank-2 polygon class of a fan JSON file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("plot", help="SVG rendering of a rank-2 fan JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("kase", help="built-in two-parameter rank-2 fan family")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_kase)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if not 1 <= getattr(args, "ell_max", 1) <= MAX_ELL:
        print(f"--ell-max must be in 1..{MAX_ELL}", file=sys.stderr)
        return 1
    if getattr(args, "budget", None) is not None and args.budget < 1:
        print("--budget must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except TiltfanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
