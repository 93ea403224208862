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

from dataclasses import dataclass
from itertools import combinations

from . import lattice as la
from .errors import Disconnected, TiltfanError, UnsupportedGraph, reading
from .fan import fan_from_cones

TREE = "Tree"
ODD_CYCLE = "OddCycle"
OTHER = "Other"


def _is_virtual(sym):
    return isinstance(sym, tuple)


class BrauerGraph:
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

        if not self._connected():
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

    def _connected(self):
        if not self.half_edges:
            return False
        seen = {self.vertex_of[self.half_edges[0]]}
        stack = list(seen)
        adj = {}
        for h in self.half_edges:
            adj.setdefault(self.vertex_of[h], set()).add(self.vertex_of[self.bar[h]])
        while stack:
            for nb in adj.get(stack.pop(), ()):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.n_vertices

    def cyclic_before(self, vertex, a, b, c):
        """True if a, b, c occur in counterclockwise order around the vertex."""
        pos = self._positions[vertex]
        n = len(pos)
        pa, pb, pc = pos[a], pos[b], pos[c]
        return (pb - pa) % n < (pc - pa) % n

    def classify(self):
        """Tree / OddCycle / Other, by Betti number and cycle parity."""
        betti = self.n_edges - self.n_vertices + 1
        if betti == 0:
            return TREE
        if betti != 1:
            return OTHER
        return ODD_CYCLE if len(self.cycle_edges()) % 2 == 1 else OTHER

    def cycle_edges(self):
        """Edge indices on the unique cycle (empty for a tree).

        These are the edges that survive repeatedly stripping non-loop edges
        at a degree-1 vertex; with more than one cycle, all edges on cycles
        or on paths between them survive.
        """
        deg = [0] * self.n_vertices
        alive = set(range(self.n_edges))
        for h, hb in self.edges:
            deg[self.vertex_of[h]] += 1
            deg[self.vertex_of[hb]] += 1
        changed = True
        while changed:
            changed = False
            for e in sorted(alive):
                h, hb = self.edges[e]
                u, v = self.vertex_of[h], self.vertex_of[hb]
                if u != v and (deg[u] == 1 or deg[v] == 1):
                    alive.discard(e)
                    deg[u] -= 1
                    deg[v] -= 1
                    changed = True
        return frozenset(alive)


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
        half_edges = [_half_edge(h) for h in data["half_edges"]]
        sigma = {}
        for cyc in data["sigma"]:
            cyc = [_half_edge(h) for h in cyc]
            for i, h in enumerate(cyc):
                sigma[h] = cyc[(i + 1) % len(cyc)]
        bar = {}
        for a, b in data["bar"]:
            bar[_half_edge(a)] = _half_edge(b)
            bar[b] = a
    return BrauerGraph(half_edges, sigma, bar)


@dataclass(frozen=True)
class SignedWalk:
    """A walk {w, bar w} with alternating signature, stored canonically."""

    graph: object
    halves: tuple  # half-edge sequence of the canonical representative
    first_sign: int

    def __post_init__(self):
        bar = self.graph.bar
        rev = tuple(bar[h] for h in reversed(self.halves))
        rev_sign = self.first_sign * (-1) ** (len(self.halves) - 1)
        if (rev, rev_sign) < (self.halves, self.first_sign):
            object.__setattr__(self, "halves", rev)
            object.__setattr__(self, "first_sign", rev_sign)

    def __hash__(self):
        return hash((self.halves, self.first_sign))

    def __eq__(self, other):
        return (self.halves, self.first_sign) == (other.halves, other.first_sign)

    def signs(self, halves):
        first = self.first_sign
        if halves != self.halves:  # the reversed representative
            first = self.first_sign * (-1) ** (len(self.halves) - 1)
        return tuple(first * (-1) ** i for i in range(len(halves)))

    def representatives(self):
        bar = self.graph.bar
        rev = tuple(bar[h] for h in reversed(self.halves))
        return (self.halves, rev)

    @property
    def class_vector(self):
        g = self.graph
        vec = [0] * g.n_edges
        for h, s in zip(self.halves, self.signs(self.halves)):
            vec[g.edge_of[h]] += s
        return tuple(vec)

    def endpoints(self):
        """((vertex, sign of the end half-edge), ...) for both ends."""
        g = self.graph
        signs = self.signs(self.halves)
        return (
            (g.vertex_of[self.halves[0]], signs[0]),
            (g.vertex_of[g.bar[self.halves[-1]]], signs[-1]),
        )

    def extended(self, halves):
        """Half-walk with the two virtual edges appended, plus its signs."""
        g = self.graph
        signs = self.signs(halves)
        start = ("vr", -signs[0], halves[0])
        end = ("vr", -signs[-1], g.bar[halves[-1]])
        return (start,) + tuple(halves) + (end,), (-signs[0],) + signs + (-signs[-1],)

    def neighbourhoods(self):
        """(vertex, {(symbol, sign), (symbol, sign)}) at every visited vertex.

        Entry i pairs the (bar of the) incoming half-edge with the outgoing
        one; the first and last entries contain a virtual edge.
        """
        g = self.graph
        ext, signs = self.extended(self.halves)
        out = []
        for i in range(1, len(ext)):
            prev = ext[i - 1]
            prev_sym = prev if _is_virtual(prev) else g.bar[prev]
            vertex = g.s(ext[i])
            out.append((vertex, ((prev_sym, signs[i - 1]), (ext[i], signs[i]))))
        return out


def _maximal_runs(x, y, skip_identity):
    """Maximal common contiguous runs between half-edge lists x and y."""
    runs = []
    for i in range(len(x)):
        for j in range(len(y)):
            if skip_identity and i == j:
                continue
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
    ep1 = {}
    for v, s in w1.endpoints():
        ep1.setdefault(v, set()).add(s)
    ep2 = {}
    for v, s in w2.endpoints():
        ep2.setdefault(v, set()).add(s)
    for v in set(ep1) & set(ep2):
        if len(ep1[v] | ep2[v]) > 1:
            return False
    return True


def _nc2_and_nc1(graph, w1, w2, self_pair):
    """Check NC1 at every maximal common subwalk and NC2 at the pinned ones.

    An end of a common subwalk where both walks terminate simultaneously
    carries the same virtual edge for both (the signatures agree along the
    run), so the strands nest freely there and that end imposes nothing;
    the neighbourhood-cyclic-ordering pattern couples the two ends exactly
    when both of them are pinned by a continuing or single-ending strand.
    """
    x = w1.halves
    x_ext, x_signs = w1.extended(x)
    alignments = []
    if self_pair:
        alignments.append((w2.halves, True))  # (w, w) minus the identity
        bar_rev = w2.representatives()[1]
        alignments.append((bar_rev, False))  # (w, bar w)
    else:
        for y in w2.representatives():
            alignments.append((y, False))

    for y, skip_identity in alignments:
        y_ext, y_signs = w2.extended(y)
        for i, j, r in _maximal_runs(x, y, skip_identity):
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


def _nc3(graph, w1, w2, self_pair):
    nbs1 = w1.neighbourhoods()
    nbs2 = w2.neighbourhoods()
    if self_pair:
        pairs = combinations(range(len(nbs1)), 2)
        items = [(nbs1[i], nbs1[j]) for i, j in pairs]
    else:
        items = [(n1, n2) for n1 in nbs1 for n2 in nbs2]
    for (v1, nb1), (v2, nb2) in items:
        if v1 != v2:
            continue
        syms = [s for s, _ in nb1] + [s for s, _ in nb2]
        if len(set(syms)) != 4:
            continue  # not an intersecting vertex
        if sum(1 for s in syms if _is_virtual(s)) > 1:
            continue  # two or more virtual edges: automatically satisfied
        if not _nc3_pattern(graph, v1, nb1, nb2):
            return False
    return True


def _nc3_pattern(graph, vertex, nb1, nb2):
    """Cyclic pattern (x+, x-, y, y') for one of the two role assignments."""
    for primary, secondary in ((nb1, nb2), (nb2, nb1)):
        plus = next(s for s, sg in primary if sg == 1)
        minus = next(s for s, sg in primary if sg == -1)
        q1, q2 = (s for s, _ in secondary)
        pos = graph._positions[vertex]
        n = len(pos)
        d_minus = (pos[minus] - pos[plus]) % n
        if d_minus < (pos[q1] - pos[plus]) % n and d_minus < (pos[q2] - pos[plus]) % n:
            return True
    return False


def pair_admissible(w1, w2):
    """Non-crossing compatibility of two (individually admissible) signed walks."""
    graph = w1.graph
    self_pair = w1 == w2
    if not _nc0(w1, w2):
        return False
    if not _nc2_and_nc1(graph, w1, w2, self_pair):
        return False
    return _nc3(graph, w1, w2, self_pair)


def _candidate_walks(graph):
    """All signed walks: non-backtracking, parity-consistent, each edge <= 2 uses."""
    out = set()
    cap = 2 * graph.n_edges
    cyc_edges = graph.cycle_edges()

    def extend(path, edge_parity, edge_count):
        m = len(path)
        for sign in (1, -1):
            out.add(SignedWalk(graph, tuple(path), sign))
        if m >= cap:
            return
        tail = graph.bar[path[-1]]
        v = graph.vertex_of[tail]
        for nxt in graph.vertex_cycles[v]:
            if nxt == tail:
                continue
            e = graph.edge_of[nxt]
            parity = m % 2
            if e in edge_parity and edge_parity[e] != parity:
                continue  # no alternating signature exists
            limit = 1 if e in cyc_edges else 2
            if edge_count.get(e, 0) >= limit:
                continue
            edge_count[e] = edge_count.get(e, 0) + 1
            fresh = e not in edge_parity
            if fresh:
                edge_parity[e] = parity
            path.append(nxt)
            extend(path, edge_parity, edge_count)
            path.pop()
            if fresh:
                del edge_parity[e]
            edge_count[e] -= 1

    for h in graph.half_edges:
        extend([h], {graph.edge_of[h]: 0}, {graph.edge_of[h]: 1})
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
    """The fan with rays the admissible walk classes and chambers the maximal cliques."""
    walks = self_admissible_walks(graph)
    n = graph.n_edges
    adj = {i: set() for i in range(len(walks))}
    for i, j in combinations(range(len(walks)), 2):
        if pair_admissible(walks[i], walks[j]):
            adj[i].add(j)
            adj[j].add(i)

    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(frozenset(), set(range(len(walks))), set())
    bad = [c for c in cliques if len(c) != n]
    if bad:
        raise AssertionError(f"maximal clique of size {len(bad[0])}, expected {n}")

    rays = [w.class_vector for w in walks]
    cones = [[rays[i] for i in c] for c in cliques]
    return fan_from_cones(cones, la.identity(n), require_complete=True)


@dataclass(frozen=True)
class RootMap:
    """Linear map Z^E -> Z^V sending walk classes onto the root system."""

    edge_images: tuple  # image of each edge basis vector, over the vertex basis
    n_vertices: int

    def apply(self, class_vector):
        out = [0] * self.n_vertices
        for coeff, img in zip(class_vector, self.edge_images):
            for i, x in enumerate(img):
                out[i] += coeff * x
        return tuple(out)


def root_map(graph):
    """The bijection of walk classes with the A_n / C_n root system.

    Uses the BFS spanning tree rooted at the vertex of the least half-edge
    and the bipartite orientation making that vertex a source.
    """
    kind = graph.classify()
    if kind not in (TREE, ODD_CYCLE):
        raise UnsupportedGraph(f"graph of type {kind} has no root system")
    root = graph.vertex_of[min(graph.half_edges)]
    color = {root: 1}
    tree_edges = set()
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for e in sorted(range(graph.n_edges)):
                h, hb = graph.edges[e]
                u1, u2 = graph.vertex_of[h], graph.vertex_of[hb]
                if u1 == u2:
                    continue
                if u1 == v and u2 not in color:
                    color[u2] = -color[v]
                    tree_edges.add(e)
                    nxt.append(u2)
                elif u2 == v and u1 not in color:
                    color[u1] = -color[v]
                    tree_edges.add(e)
                    nxt.append(u1)
        frontier = nxt

    images = []
    for e, (h, hb) in enumerate(graph.edges):
        u, v = graph.vertex_of[h], graph.vertex_of[hb]
        img = [0] * graph.n_vertices
        if e in tree_edges:
            img[u] += color[u]
            img[v] -= color[u]
        else:
            img[u] += color[u]
            img[v] += color[u]
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
