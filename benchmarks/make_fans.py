"""Regenerate the stored fans in benchmarks/fans/ from the library.

    python3 benchmarks/make_fans.py

The files are canonical `fan_to_json` output.  Every benchmark run checks
them against closed forms, so a file written by a faulty library fails
there rather than passing silently.
"""

import json

from inputs import FANS, a_matrix, brauer_graph, import_library

import_library()
from tiltfan import brauer, cli, cluster, weyl  # noqa: E402
from tiltfan.fan import fan_to_json  # noqa: E402

BUILDERS = {
    "cluster_a2": lambda: cluster.enumerate_gfan(a_matrix(2)),
    "cluster_a3": lambda: cluster.enumerate_gfan(a_matrix(3)),
    "cluster_a6": lambda: cluster.enumerate_gfan(a_matrix(6)),
    "coxeter_b2": lambda: weyl.coxeter_fan(weyl.cartan_preset("B", 2)),
    "coxeter_a3": lambda: weyl.coxeter_fan(weyl.cartan_preset("A", 3)),
    "coxeter_b3": lambda: weyl.coxeter_fan(weyl.cartan_preset("B", 3)),
    "coxeter_a5": lambda: weyl.coxeter_fan(weyl.cartan_preset("A", 5)),
    "path2": lambda: brauer.chambers_by_cliques(brauer.graph_from_json(brauer_graph("path", 2))),
    "path3": lambda: brauer.chambers_by_cliques(brauer.graph_from_json(brauer_graph("path", 3))),
    "gamma2": lambda: brauer.chambers_by_cliques(brauer.graph_from_json(brauer_graph("gamma2", 3))),
    "odd5": lambda: brauer.chambers_by_cliques(brauer.graph_from_json(brauer_graph("odd", 5))),
    "kase_4_5": lambda: cli.kase_family_fan(4, 5),
}

if __name__ == "__main__":
    FANS.mkdir(exist_ok=True)
    for name, build in BUILDERS.items():
        with open(FANS / f"{name}.json", "w") as fh:
            json.dump(fan_to_json(build()), fh, sort_keys=True)
            fh.write("\n")
