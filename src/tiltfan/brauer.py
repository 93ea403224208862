"""Brauer graphs, admissible signed walks and their compatibility fan.

A ribbon graph is a half-edge set with a vertex permutation sigma (whose
orbits, read counterclockwise, are the vertices) and a fixed-point-free
involution pairing half-edges into edges.  Signed walks are non-backtracking
walks with an alternating sign per edge; the non-crossing conditions
NC0-NC3 cut out the admissible ones, whose classes in Z^E are the rays of
the fan, with chambers the maximal pairwise-admissible collections.

Virtual edges: each end of a signed walk carries a formal edge vr_s(h)
sitting immediately before (s = -1) or after (s = +1) the real half-edge h
in the cyclic order around its vertex; they take part in the cyclic-order
tests exactly like real half-edges.
"""

from collections import namedtuple
from itertools import combinations, product
from math import inf

from . import lattice as la
from .errors import (Disconnected, TiltfanError, UnsupportedGraph, check_schema_version,
                     parse_array, reading)
from .fan import fan_from_ids, wall_crossing_search

TREE = "Tree"
ODD_CYCLE = "OddCycle"
OTHER = "Other"


def _is_virtual(sym):
    return isinstance(sym, tuple)


class BrauerGraph:
    """A connected ribbon graph, validated on construction.

    Vertices are the sigma-orbits ordered by their least half-edge, edges the
    bar-pairs ordered by their sorted names.  One BFS spanning tree, rooted
    at the vertex of the least half-edge with edges taken in index order and
    loops skipped, decides connectivity (`Disconnected` if it misses a vertex
    or there are no half-edges) and keeps the bipartite colours and the tree
    edges that `classify` and `root_map` read.
    """

    def __init__(self, half_edges, sigma, bar):
        self.half_edges = tuple(half_edges)
        hs = set(self.half_edges)
        if len(hs) != len(self.half_edges):
            raise TiltfanError("duplicate half-edge names")
        self.sigma = dict(sigma)
        self.bar = dict(bar)
        if set(self.sigma) != hs or set(self.sigma.values()) != hs:
            raise TiltfanError("sigma is not a permutation of the half-edges")
        if set(self.bar) != hs:
            raise TiltfanError("bar must be defined on every half-edge")
        for h in self.half_edges:
            if self.bar[h] == h or self.bar[self.bar[h]] != h:
                raise TiltfanError("bar must be a fixed-point-free involution")

        # vertices = sigma-orbits, canonically ordered by their least member
        seen = set()
        cycles = []
        for h in sorted(self.half_edges):
            if h in seen:
                continue
            cyc = [h]
            seen.add(h)
            x = self.sigma[h]
            while x != h:
                cyc.append(x)
                seen.add(x)
                x = self.sigma[x]
            cycles.append(tuple(cyc))
        self.vertex_cycles = tuple(cycles)
        self.vertex_of = {h: v for v, cyc in enumerate(cycles) for h in cyc}

        # edges ordered by their sorted half-edge names
        pairs = sorted({tuple(sorted((h, self.bar[h]))) for h in self.half_edges})
        self.edges = tuple(pairs)
        self.edge_of = {h: e for e, pair in enumerate(pairs) for h in pair}

        # extended cyclic order with virtual slots, per vertex
        self._positions = []
        for cyc in self.vertex_cycles:
            order = []
            for h in cyc:
                order.extend([("vr", -1, h), h, ("vr", 1, h)])
            self._positions.append({sym: i for i, sym in enumerate(order)})

        # one BFS spanning tree from the vertex of the least half-edge
        if not self.half_edges:
            raise Disconnected("underlying graph is not connected")
        neighbours = [[] for _ in cycles]  # (edge, other end), loops skipped
        for e, (h, hb) in enumerate(self.edges):
            a, b = self.vertex_of[h], self.vertex_of[hb]
            if a != b:
                neighbours[a].append((e, b))
                neighbours[b].append((e, a))
        queue = [self.vertex_of[min(self.half_edges)]]
        self._colour = {queue[0]: 1}
        self._tree_edges = set()
        for v in queue:
            for e, u in neighbours[v]:
                if u not in self._colour:
                    self._colour[u] = -self._colour[v]
                    self._tree_edges.add(e)
                    queue.append(u)
        if len(queue) != self.n_vertices:
            raise Disconnected("underlying graph is not connected")

    # -- basic structure ---------------------------------------------------

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_vertices(self):
        return len(self.vertex_cycles)

    def s(self, sym):
        """Vertex of a real or virtual half-edge."""
        return self.vertex_of[sym[2]] if _is_virtual(sym) else self.vertex_of[sym]

    def cyclic_before(self, vertex, a, b, c):
        """True if a, b, c occur in counterclockwise order around the vertex."""
        pos = self._positions[vertex]
        n = len(pos)
        pa, pb, pc = pos[a], pos[b], pos[c]
        return (pb - pa) % n < (pc - pa) % n

    def classify(self):
        """Tree / OddCycle / Other, read off the spanning tree.

        Betti number E - V + 1 = 0 is a tree and any value but 1 is Other.
        With one cycle, the one edge off the tree closes it, and the cycle is
        odd iff the two ends of that edge have one colour; a loop has both
        ends at one vertex, so it is an odd cycle.
        """
        betti = self.n_edges - self.n_vertices + 1
        if betti == 0:
            return TREE
        if betti != 1:
            return OTHER
        (e,) = set(range(self.n_edges)) - self._tree_edges
        u, v = (self.vertex_of[h] for h in self.edges[e])
        return ODD_CYCLE if self._colour[u] == self._colour[v] else OTHER


def graph_to_json(graph):
    return {
        "schema_version": 1,
        "half_edges": list(graph.half_edges),
        "sigma": [list(cyc) for cyc in graph.vertex_cycles],
        "bar": [list(pair) for pair in graph.edges],
    }


def _half_edge(h):
    if not isinstance(h, str):
        raise TypeError(f"half-edge names are strings, got {h!r}")
    return h


def graph_from_json(data):
    with reading("not a Brauer graph"):
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        check_schema_version(data)
        half_edges = [_half_edge(h) for h in parse_array(data["half_edges"], "half_edges")]
        # each half-edge in exactly one non-empty cycle and one pair
        sigma = {}
        for cyc in parse_array(data["sigma"], "sigma"):
            cyc = [_half_edge(h) for h in parse_array(cyc, "a sigma cycle")]
            if not cyc:
                raise ValueError("sigma has an empty cycle")
            for i, h in enumerate(cyc):
                if h in sigma:
                    raise ValueError(f"half-edge {h!r} appears twice in sigma")
                sigma[h] = cyc[(i + 1) % len(cyc)]
        bar = {}
        for pair in parse_array(data["bar"], "bar"):
            a, b = parse_array(pair, "a bar pair")
            a, b = _half_edge(a), _half_edge(b)
            for h in (a, b):
                if h in bar:
                    raise ValueError(f"half-edge {h!r} appears twice in bar")
            bar[a], bar[b] = b, a
    return BrauerGraph(half_edges, sigma, bar)


class SignedWalk(namedtuple("SignedWalk",
                            "graph halves first_sign readings class_vector end_signs turns")):
    """A walk {w, bar w} with alternating signature, stored canonically,
    with every fact the NC0-NC3 tests read computed once:

    - `halves`, `first_sign`: the half-edges and first sign of the
      canonical reading, the lesser of the two;
    - `readings`: for w and then bar w, the half-edges, the sequence with
      the virtual edges at both ends, and their signs;
    - `class_vector`: the class in Z^E;
    - `end_signs`: the signs of the end half-edges at each end vertex;
    - `turns`: per visited vertex, the pairs ((incoming symbol, sign),
      (outgoing symbol, sign)) of the walk there; the first and last
      contain a virtual edge.

    Built from (graph, halves, first_sign); the other four fields are
    derived from the canonical reading.  Equality is that of the tuple, over
    all seven fields, the graph by identity; the hash reads the first three
    only, since `end_signs` and `turns` are dicts.  The derived fields are
    functions of the first three, so either reading of a walk gives the
    same SignedWalk.
    """

    __slots__ = ()

    def __new__(cls, graph, halves, first_sign):
        g, halves, first = graph, tuple(halves), first_sign
        rev = tuple(g.bar[h] for h in reversed(halves))
        rev_first = first * (-1) ** (len(halves) - 1)
        if (rev, rev_first) < (halves, first):
            halves, first, rev, rev_first = rev, rev_first, halves, first
        readings = (_reading(g, halves, first), _reading(g, rev, rev_first))
        _, ext, signs = readings[0]
        vec = [0] * g.n_edges
        for h, sign in zip(halves, signs[1:]):
            vec[g.edge_of[h]] += sign
        end_signs = {}
        for h, sign in ((halves[0], signs[1]), (g.bar[halves[-1]], signs[-2])):
            end_signs.setdefault(g.vertex_of[h], set()).add(sign)
        turns = {}
        for i in range(1, len(ext)):
            prev = ext[i - 1] if _is_virtual(ext[i - 1]) else g.bar[ext[i - 1]]
            turns.setdefault(g.s(ext[i]), []).append(((prev, signs[i - 1]), (ext[i], signs[i])))
        return super().__new__(cls, g, halves, first, readings, tuple(vec), end_signs, turns)

    def __hash__(self):
        return hash(self[:3])


def _reading(graph, halves, first):
    """(halves, halves with the two virtual end edges, their signs)."""
    signs = tuple(first * (-1) ** i for i in range(len(halves)))
    start = ("vr", -signs[0], halves[0])
    end = ("vr", -signs[-1], graph.bar[halves[-1]])
    return halves, (start,) + halves + (end,), (-signs[0],) + signs + (-signs[-1],)


def _maximal_runs(x, y):
    """Maximal common contiguous runs between half-edge lists x and y."""
    runs = []
    for i in range(len(x)):
        for j in range(len(y)):
            if x[i] != y[j]:
                continue
            if i > 0 and j > 0 and x[i - 1] == y[j - 1]:
                continue  # not a run start
            r = 0
            while i + r < len(x) and j + r < len(y) and x[i + r] == y[j + r]:
                r += 1
            runs.append((i, j, r))
    return runs


def _nc0(w1, w2):
    """The two walks end with one sign at every end vertex they share."""
    e1, e2 = w1.end_signs, w2.end_signs
    return all(len(e1[v] | e2[v]) == 1 for v in e1.keys() & e2.keys())


def _nc2_and_nc1(graph, w1, w2):
    """Check NC1 at every maximal common subwalk and NC2 at the pinned ones.

    An end of a common subwalk where both walks terminate simultaneously
    carries the same virtual edge for both (the signatures agree along the
    run), so the strands nest freely there and that end imposes nothing;
    the neighbourhood-cyclic-ordering pattern couples the two ends exactly
    when both of them are pinned by a continuing or single-ending strand.
    """
    x, x_ext, x_signs = w1.readings[0]
    for y, y_ext, y_signs in w2.readings:
        for i, j, r in _maximal_runs(x, y):
            # NC1: the signatures agree along the run
            if x_signs[i + 1] != y_signs[j + 1]:
                return False
            a = x_ext[i]  # ext index i == real index i-1
            a = a if _is_virtual(a) else graph.bar[a]
            b = y_ext[j]
            b = b if _is_virtual(b) else graph.bar[b]
            c = x_ext[i + r + 1]
            d = y_ext[j + r + 1]
            if (_is_virtual(a) and _is_virtual(b)) or (_is_virtual(c) and _is_virtual(d)):
                continue  # a free end: both strands stop together there
            u = graph.vertex_of[x[i]]
            v = graph.vertex_of[graph.bar[x[i + r - 1]]]
            t1 = x[i]
            tr = graph.bar[x[i + r - 1]]
            ok = (
                graph.cyclic_before(u, t1, a, b) and graph.cyclic_before(v, tr, d, c)
            ) or (
                graph.cyclic_before(u, t1, b, a) and graph.cyclic_before(v, tr, c, d)
            )
            if not ok:
                return False
    return True


def _nc3(graph, w1, w2):
    """The cyclic pattern at every vertex where the two walks cross: four
    distinct symbols, at most one of them virtual."""
    for v in w1.turns.keys() & w2.turns.keys():
        t1, t2 = w1.turns[v], w2.turns[v]
        for nb1, nb2 in product(t1, t2):
            syms = {s for s, _ in nb1 + nb2}
            if (len(syms) == 4 and sum(map(_is_virtual, syms)) <= 1
                    and not _nc3_pattern(graph, v, nb1, nb2)):
                return False
    return True


def _nc3_pattern(graph, vertex, nb1, nb2):
    """Cyclic pattern (x+, x-, y, y') for one of the two role assignments."""
    for primary, secondary in ((nb1, nb2), (nb2, nb1)):
        plus = next(s for s, sg in primary if sg == 1)
        minus = next(s for s, sg in primary if sg == -1)
        if all(graph.cyclic_before(vertex, plus, minus, q) for q, _ in secondary):
            return True
    return False


def pair_admissible(w1, w2):
    """Non-crossing compatibility of two signed walks; with w1 == w2 it
    decides self-admissibility.

    The one rule serves the diagonal: the identity alignment of a walk with
    itself is one run that stops together at both ends, which imposes
    nothing, and a turn met with itself has two distinct symbols, not four.
    """
    graph = w1.graph
    return _nc0(w1, w2) and _nc2_and_nc1(graph, w1, w2) and _nc3(graph, w1, w2)


def _candidate_walks(graph):
    """All signed walks: non-backtracking, with an alternating signature.

    The parity check alone bounds the walks.  An edge used again an odd
    number of steps later needs the other sign, which it refuses; an
    immediate backtrack is such a reuse, one step later.  So the enumeration
    is finite on trees and odd cycles, the graphs that
    `self_admissible_walks` passes, and only there: on a tree a walk is a
    simple path, and on an odd cycle a second pass over a cycle edge comes
    an odd number of steps after the first.
    """
    out = set()

    def extend(path, edge_parity):
        for sign in (1, -1):
            out.add(SignedWalk(graph, tuple(path), sign))
        tail = graph.bar[path[-1]]
        parity = len(path) % 2
        for nxt in graph.vertex_cycles[graph.vertex_of[tail]]:
            e = graph.edge_of[nxt]
            if edge_parity.get(e, parity) != parity:
                continue  # no alternating signature exists
            fresh = e not in edge_parity
            if fresh:
                edge_parity[e] = parity
            path.append(nxt)
            extend(path, edge_parity)
            path.pop()
            if fresh:
                del edge_parity[e]

    for h in graph.half_edges:
        extend([h], {graph.edge_of[h]: 0})
    return out


def self_admissible_walks(graph):
    """All signed walks admissible with themselves, sorted by class vector."""
    kind = graph.classify()
    if kind not in (TREE, ODD_CYCLE):
        raise UnsupportedGraph(f"graph of type {kind} is g-infinite")
    walks = [w for w in _candidate_walks(graph) if pair_admissible(w, w)]
    walks.sort(key=lambda w: (w.class_vector, w.halves))
    classes = [w.class_vector for w in walks]
    if len(set(classes)) != len(classes):
        raise AssertionError("distinct admissible walks share a class vector")
    return walks


def chambers_by_cliques(graph):
    """The fan with rays the admissible walk classes and chambers the
    maximal pairwise-admissible sets of walks, found by wall crossing.

    `wall_crossing_search` runs over walk indices from the unit classes,
    with each walk's admissible partners as one int bitset.  An almost
    complete 2-term silting complex has exactly two completions, so the
    walk across the wall opposite c[k] is the one walk other than c[k]
    admissible with the rest of c (AssertionError if not exactly one).
    The search crosses each wall once and reads the reverse crossing off
    the forward one, which holds when the chamber's walks are pairwise
    admissible: then the walk across from the new chamber is c[k] and no
    other.  That holds for every chamber found if it holds for the start,
    the unit walks, so their n(n-1)/2 pairs are checked first
    (AssertionError if one is refused).
    The search interns the walk indices as ray ids, and `fan_from_ids`
    builds the fan from its chambers and neighbour table as they are, with
    the class vectors of the search's table of walks as the rays.
    The name, from an earlier clique search, stays for its callers (the
    benchmark tracer among them).
    """
    walks = self_admissible_walks(graph)
    n = graph.n_edges
    adj = [0] * len(walks)
    for i, j in combinations(range(len(walks)), 2):
        if pair_admissible(walks[i], walks[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    everyone = (1 << len(walks)) - 1

    def exchange(_, c, k):
        common = everyone & ~(1 << c[k])
        for i, w in enumerate(c):
            if i != k:
                common &= adj[w]
        if common & (common - 1) or not common:
            raise AssertionError(
                f"{bin(common).count('1')} walks cross the wall opposite walk {c[k]}, expected 1")
        return common.bit_length() - 1

    rays = [w.class_vector for w in walks]
    start = [rays.index(e) for e in la.identity(n)]
    for a, b in combinations(start, 2):
        if not adj[a] >> b & 1:
            raise AssertionError(f"start walks {a} and {b} are not admissible with each other")
    table, chambers, across = wall_crossing_search(start, exchange, inf)
    return fan_from_ids([rays[i] for i in table], chambers, across)


class RootMap(namedtuple("RootMap", "edge_images n_vertices")):
    """Linear map Z^E -> Z^V sending walk classes onto the root system:
    `edge_images` holds the image of each edge basis vector, over the
    vertex basis."""

    __slots__ = ()

    def apply(self, class_vector):
        return la.matvec(la.transpose(self.edge_images), class_vector)


def root_map(graph):
    """The bijection of walk classes with the A_n / C_n root system.

    Reads the graph's BFS spanning tree, rooted at the vertex of the least
    half-edge, and the bipartite orientation making that vertex a source:
    a tree edge uv maps to c(u)(e_u - e_v), any other edge to c(u)(e_u + e_v).
    """
    kind = graph.classify()
    if kind not in (TREE, ODD_CYCLE):
        raise UnsupportedGraph(f"graph of type {kind} has no root system")
    images = []
    for e, (h, hb) in enumerate(graph.edges):
        u, v = graph.vertex_of[h], graph.vertex_of[hb]
        c = graph._colour[u]
        img = [0] * graph.n_vertices
        img[u] += c
        img[v] += -c if e in graph._tree_edges else c
        images.append(tuple(img))
    return RootMap(tuple(images), graph.n_vertices)


def target_roots(graph):
    """The root system Phi(Gamma) in the vertex basis, for comparison tests."""
    kind = graph.classify()
    nv = graph.n_vertices
    unit = lambda k: tuple(1 if t == k else 0 for t in range(nv))
    roots = set()
    if kind == TREE:
        for u in range(nv):
            for v in range(nv):
                if u != v:
                    roots.add(tuple(a - b for a, b in zip(unit(u), unit(v))))
    elif kind == ODD_CYCLE:
        for u in range(nv):
            roots.add(tuple(2 * x for x in unit(u)))
            roots.add(tuple(-2 * x for x in unit(u)))
            for v in range(u + 1, nv):
                for su in (1, -1):
                    for sv in (1, -1):
                        roots.add(
                            tuple(su * a + sv * b for a, b in zip(unit(u), unit(v)))
                        )
    else:
        raise UnsupportedGraph(f"graph of type {kind} has no root system")
    return roots
