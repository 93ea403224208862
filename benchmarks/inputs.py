"""Seeded inputs for the benchmark workloads, and the set-up step that writes them.

The seed only relabels: it permutes exchange-matrix and Cartan indices,
renames Brauer half-edges, and applies a signed coordinate permutation to
the stored fans.  Every closed-form reference is invariant under these
changes, so the checks in `jobs.py` do not depend on the seed.

Run as a script, this module performs one set-up (import tiltfan, write the
inputs) so that the benchmark can time set-up in a fresh process:

    python3 benchmarks/inputs.py WORKLOAD SEED DEST
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FANS = HERE / "fans"

CLUSTER_RANKS = (3, 4, 5, 6, 7)
COXETER_TYPES = (("A", 3), ("A", 4), ("A", 5), ("B", 3), ("B", 4))
BRAUER_GRAPHS = (
    [("path", n) for n in (3, 4, 5, 6)]
    + [("star", n) for n in (3, 4, 5)]
    + [("odd", n) for n in (3, 4, 5, 6)]
)
# stored fan files (benchmarks/fans/<name>.json) used by the stored workload
STORED_FANS = (
    "cluster_a2", "coxeter_b2", "path2", "kase_4_5",
    "cluster_a3", "coxeter_a3", "coxeter_b3", "path3", "gamma2",
    "cluster_a6", "coxeter_a5", "odd5",
)


def import_library():
    """Import tiltfan from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "tiltfan" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tiltfan sources under {src}")
    sys.path.insert(0, str(src))
    import tiltfan.cli

    if Path(tiltfan.cli.__file__).resolve().parent != src / "tiltfan":
        raise SystemExit(f"benchmark: imported tiltfan from {tiltfan.cli.__file__}")
    return tiltfan.cli


# -- unlabelled inputs ---------------------------------------------------------


def a_matrix(n):
    """Exchange matrix of the linearly oriented A_n quiver."""
    return [[1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(n)] for i in range(n)]


def cartan(type_, n):
    """(C, D) of type A_n or B_n, as `weyl.cartan_preset` defines them."""
    c = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    d = [1] * n
    if type_ == "B":
        c[n - 1][n - 2] = -2
        d[n - 1] = 2
    return c, d


def brauer_cycles(kind, n):
    """Counterclockwise half-edge cycles at each vertex; edge i is (ia, ib)."""
    if kind == "path":
        return [["1a"]] + [[f"{i}b", f"{i + 1}a"] for i in range(1, n)] + [[f"{n}b"]]
    if kind == "star":
        return [[f"{i}a" for i in range(1, n + 1)]] + [[f"{i}b"] for i in range(1, n + 1)]
    if kind == "odd":
        # a triangle on edges 1..3 with pendant edges 4..n at its first vertex
        first = ["1a", "3b"] + [f"{i}a" for i in range(4, n + 1)]
        return [first, ["2a", "1b"], ["3a", "2b"]] + [[f"{i}b"] for i in range(4, n + 1)]
    if kind == "gamma2":
        # path edges 1, 2 and a loop 3 at the middle vertex, loop halves apart
        return [["1a"], ["2a", "3a", "1b", "3b"], ["2b"]]
    raise ValueError(f"unknown Brauer graph kind {kind!r}")


def brauer_graph(kind, n):
    cycles = brauer_cycles(kind, n)
    halves = sorted(h for cyc in cycles for h in cyc)
    return {
        "schema_version": 1,
        "half_edges": halves,
        "sigma": cycles,
        "bar": [[f"{i}a", f"{i}b"] for i in range(1, n + 1)],
    }


def brauer_name(kind, n):
    return f"{kind}{n}"


# -- seeded relabelling --------------------------------------------------------


def permuted_matrix(m, perm):
    return [[m[perm[i]][perm[j]] for j in range(len(m))] for i in range(len(m))]


def relabelled_graph(graph, rng):
    """Rename half-edges and rotate and reorder the vertex cycles."""
    names = graph["half_edges"]
    fresh = [f"h{k:02d}" for k in rng.sample(range(len(names)), len(names))]
    rename = dict(zip(names, fresh))
    sigma = []
    for cyc in graph["sigma"]:
        shift = rng.randrange(len(cyc))
        sigma.append([rename[h] for h in cyc[shift:] + cyc[:shift]])
    rng.shuffle(sigma)
    bar = [[rename[a], rename[b]] if rng.random() < 0.5 else [rename[b], rename[a]]
           for a, b in graph["bar"]]
    rng.shuffle(bar)
    return {"schema_version": 1, "half_edges": sorted(fresh), "sigma": sigma, "bar": bar}


def transformed_fan(data, rng):
    """Image of a fan under a signed coordinate permutation, in canonical form
    (rays sorted lexicographically, chambers sorted), as `fan_to_json` writes it."""
    rank = data["rank"]
    perm = rng.sample(range(rank), rank)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    images = [tuple(signs[i] * r[perm[i]] for i in range(rank)) for r in data["rays"]]
    order = sorted(range(len(images)), key=lambda i: images[i])
    new_of_old = {old: new for new, old in enumerate(order)}
    chambers = sorted(tuple(sorted(new_of_old[i] for i in c)) for c in data["chambers"])
    base = tuple(sorted(new_of_old[i] for i in data["chambers"][data["base"]]))
    return {
        "schema_version": 1,
        "rank": rank,
        "rays": [list(images[i]) for i in order],
        "chambers": [list(c) for c in chambers],
        "base": chambers.index(base),
        "complete": data["complete"],
    }


def _dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def write_inputs(workload, seed, dest):
    """Write the seeded input files of one workload into dest."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cluster":
        for n in CLUSTER_RANKS:
            perm = rng.sample(range(n), n)
            _dump(dest / f"a{n}.json", {"n": n, "B": permuted_matrix(a_matrix(n), perm)})
    elif workload == "coxeter":
        for type_, n in COXETER_TYPES:
            c, d = cartan(type_, n)
            perm = rng.sample(range(n), n)
            _dump(dest / f"{type_}{n}.json",
                  {"C": permuted_matrix(c, perm), "D": [d[p] for p in perm]})
    elif workload == "brauer":
        for kind, n in BRAUER_GRAPHS:
            _dump(dest / f"{brauer_name(kind, n)}.json",
                  relabelled_graph(brauer_graph(kind, n), rng))
    elif workload == "stored":
        for name in STORED_FANS:
            with open(FANS / f"{name}.json") as fh:
                data = json.load(fh)
            _dump(dest / f"{name}.json", transformed_fan(data, rng))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def setup(workload, seed, dest):
    """Everything before the first timed job: import the library, write inputs."""
    cli = import_library()
    write_inputs(workload, seed, dest)
    return cli


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: inputs.py WORKLOAD SEED DEST")
    setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
