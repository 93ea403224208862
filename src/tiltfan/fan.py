"""Simplicial fan data model: validation, the wall-crossing search, faces,
walls, Hasse orientation, coordinate restriction, sign filtering and
reduction.

A fan is stored combinatorially: a table of primitive rays plus the maximal
chambers as frozensets of ray indices.  Completeness is a certificate
("certified"), never a volume computation: every codimension-1 face lies in
two chambers on opposite sides of it, and a generic point lies in exactly
one chamber (covering degree 1), which also makes the wall graph
connected.  `build_fan` establishes it in every rank from one integer
inverse per chamber; it proves that any two chambers meet in their common
face, so the exhaustive pairwise check is needed only for fans that are not
certified.  Every other fan, such as the partial fan of a search that ran
out of budget, is "unknown"; there is no third status.

Every Fan is made by `build_fan`; `fan_from_cones` builds the canonical ray
and chamber tables from chambers given as sets of ray vectors.  The cluster,
Weyl and Brauer front-ends find their chambers with one search,
`wall_crossing_search`: each chamber of a g-fan has exactly one neighbour
across each wall (mutation of 2-term silting complexes), so a front-end
only says which ray replaces the one opposite a wall.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations

from . import lattice as la
from .errors import (
    DanglingWall,
    TiltfanError,
    IncompleteFan,
    NonUnimodularChamber,
    NotAFace,
    OrderViolation,
    ParseError,
    SignCoherenceViolation,
    parse_int,
    reading,
)

CERTIFIED = "certified"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Wall:
    """Shared codimension-1 face of two chambers."""

    shared: frozenset
    chambers: tuple  # pair of chamber indices
    normal: tuple  # primitive integer functional vanishing on the shared rays


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple  # tuple of primitive integer vectors
    chambers: tuple  # tuple of frozensets of ray indices
    base: int  # index into chambers
    walls: tuple = field(default=(), compare=False)
    complete: str = field(default=UNKNOWN, compare=False)

    def ray_matrix(self, chamber_index):
        """Columns are the rays of the chamber, in sorted index order."""
        idx = sorted(self.chambers[chamber_index])
        return la.from_columns([self.rays[i] for i in idx], rank=self.rank)

    def base_basis(self):
        """Base-chamber rays in descending lex order, so that a standard
        orthant base yields the unit vectors e_1, ..., e_n in order."""
        return sorted((self.rays[i] for i in self.chambers[self.base]), reverse=True)

    def base_matrix(self):
        return la.from_columns(self.base_basis(), rank=self.rank)

    def chamber_key(self, chamber_index):
        return tuple(sorted(self.rays[i] for i in self.chambers[chamber_index]))


@dataclass(frozen=True)
class BudgetExhausted:
    """Normal outcome of a search that ran out of budget.

    `explored` chambers were found, and `frontier` of them have walls that
    were not all crossed.  `cones` are the chambers found, each the tuple of
    its rays, the start first.  `partial_fan` is their fan, built on first
    use, so a caller that does not ask for it does not pay for it.  Unlike
    a Fan it has no `chambers`, so `hasattr(result, "chambers")` tells the
    two outcomes apart.
    """

    explored: int
    frontier: int
    budget: int
    cones: tuple = field(repr=False, compare=False)

    @cached_property
    def partial_fan(self):
        return fan_from_cones(self.cones, self.cones[0])


def build_fan(rays, chambers, base, require_complete=False):
    """Validate and assemble a Fan.

    Checks ray primitivity/distinctness, chamber unimodularity, wall
    adjacency (free rays strictly on opposite sides of the shared
    hyperplane) and sign-coherence relative to the base chamber.  Each
    chamber's ray matrix is inverted once over the integers; a wall's normal
    is the row of its first chamber's inverse at the ray off the wall, with
    the sign fixed so that the last nonzero entry is positive.

    Chambers are taken in the given order.  Adjacent chambers differ in one
    ray, so a chamber's inverse is one exchange pivot (`la.exchange_inverse`)
    away from that of an earlier neighbour across a wall, whose inverse is
    rebuilt from the normals already found (`inverse_from_normals`); no
    inverse is kept past its chamber.  Full elimination runs only for the
    first chamber of each wall-graph component, for a chamber whose earlier
    neighbours all have a facet without a normal (dangling, in more than
    two chambers, or between overlapping chambers), and for a non-unit
    pivot, where it gives the determinant of NonUnimodularChamber.

    Completeness is certified iff every codimension-1 face lies in exactly
    two chambers and the test point y0 + eps e_1 + eps^2 e_2 + ... (y0 the
    sum of the base rays, eps > 0 infinitesimal) lies in exactly one
    chamber; the same inverses decide the last test (`holds_test_point`).
    If no face dangles but the test point lies in d != 1 chambers, the
    chambers overlap and TiltfanError is raised.  Why this suffices:

    1. With no dangling face, every component of the wall graph is a
       closed, oriented pseudomanifold: across every wall the two chambers
       lie on opposite sides, so their union is a neighbourhood of the
       wall's relative interior.
    2. Hence the radial map of one component to the unit sphere is a local
       homeomorphism off the codimension-2 skeleton, and proper, so over
       the complement of that skeleton's image (connected for rank >= 2)
       it is a covering whose number of sheets is its degree, at least 1
       since its image is open, closed and nonempty.  The test point lies
       on no proper face of any chamber (each chamber coordinate is a
       nonzero polynomial in eps), so the count there is the sum of the
       components' degrees.
    3. A count of 1 therefore leaves one component of degree 1: the wall
       graph is connected, and the map is a bijection off that image; by
       induction on the links of the lower faces (each a pseudomanifold of
       degree 1 in the quotient) it is a homeomorphism.  So the chambers
       cover the space once and any two meet in the cone on their shared
       rays.

    Rank 1 has only the two half-lines, where the count is 1 as well.  The
    certificate costs at most rank dot products per chamber.
    """
    rays = tuple(tuple(int(x) for x in r) for r in rays)
    if rays:
        rank = len(rays[0])
    else:
        rank = 0
    for r in rays:
        if la.is_zero(r) or la.primitive(r) != r:
            raise TiltfanError(f"ray {r} is not primitive")
    if any(len(r) != rank for r in rays):
        raise TiltfanError(f"rays of lengths {sorted({len(r) for r in rays})} in one fan")
    if len(set(rays)) != len(rays):
        raise TiltfanError("duplicate rays")

    chambers = tuple(frozenset(int(i) for i in c) for c in chambers)
    if len(set(chambers)) != len(chambers):
        raise TiltfanError("duplicate chambers")
    for ci, c in enumerate(chambers):
        if any(not 0 <= i < len(rays) for i in c):
            raise TiltfanError(f"chamber {ci} names a ray index outside 0..{len(rays) - 1}")
    if not 0 <= base < len(chambers):
        raise TiltfanError("base chamber index out of range")

    if rank == 0:
        if chambers != (frozenset(),):
            raise TiltfanError("a rank-0 fan has exactly the trivial chamber")
        return Fan(0, (), chambers, 0, (), CERTIFIED)

    for ci, c in enumerate(chambers):
        if len(c) != rank:
            raise TiltfanError(f"chamber {ci} has {len(c)} rays, expected {rank}")

    # wall detection via shared (rank-1)-subsets
    facet_owners = {}
    for ci, c in enumerate(chambers):
        for sub in combinations(sorted(c), rank - 1):
            facet_owners.setdefault(frozenset(sub), []).append(ci)
    first_owned = [[] for _ in chambers]
    for sub, owners in facet_owners.items():
        if len(owners) == 2:
            first_owned[owners[0]].append(sub)

    # one integer inverse per chamber, kept only while its walls are filled
    # and the test point is located in it: row p of the inverse vanishes on
    # every ray but the p-th, where it is 1, so it is the primitive normal
    # of the facet opposite that ray; None marks a wall whose two free rays
    # are not strictly on opposite sides
    y0 = tuple(map(sum, zip(*(rays[i] for i in chambers[base]))))
    covering = 0
    normals = {}
    for ci, c in enumerate(chambers):
        idx = sorted(c)
        inv = _inverse_across_a_wall(rays, chambers, ci, idx, facet_owners, normals)
        if inv is not None:
            det, adj = 1, inv
        else:
            det, adj = la.scaled_inverse(la.from_columns([rays[i] for i in idx])) or (0, None)
            if det not in (1, -1):
                raise NonUnimodularChamber(ci, det)
        covering += holds_test_point(det, adj, y0)
        for sub in first_owned[ci]:
            (free_a,) = c - sub
            (free_b,) = chambers[facet_owners[sub][1]] - sub
            row = adj[idx.index(free_a)]  # det times the inverse row
            if det * la.dot(row, rays[free_b]) >= 0:
                normals[sub] = None
            else:
                last = next(x for x in reversed(row) if x)
                normals[sub] = row if last > 0 else la.vneg(row)

    incoherent = _sign_incoherence(rays, chambers, [rays[i] for i in chambers[base]])
    if incoherent:
        raise SignCoherenceViolation(*incoherent)

    walls = []
    dangling = []
    for sub, owners in sorted(facet_owners.items(), key=lambda kv: tuple(sorted(kv[0]))):
        if len(owners) > 2:
            raise TiltfanError(f"face {tuple(sorted(sub))} lies in {len(owners)} chambers")
        if len(owners) == 1:
            dangling.append(sub)
            continue
        ca, cb = owners
        normal = normals[sub]
        if normal is None:
            raise TiltfanError(
                f"chambers {ca} and {cb} share face {tuple(sorted(sub))} but overlap"
            )
        walls.append(Wall(sub, (ca, cb), normal))

    if dangling and require_complete:
        raise DanglingWall(tuple(sorted(dangling[0])))
    if not dangling and covering != 1:
        raise TiltfanError(f"a generic point lies in {covering} chambers")
    return Fan(rank, rays, chambers, base, tuple(walls), UNKNOWN if dangling else CERTIFIED)


def _inverse_across_a_wall(rays, chambers, ci, idx, facet_owners, normals):
    """Inverse of the ray matrix of chamber ci (columns in the sorted order
    idx) by one exchange pivot from an earlier neighbour across a wall.

    The neighbour's inverse is rebuilt from the normals of its facets; the
    first neighbour whose facets all have one is used.  None if there is no
    such neighbour, or if the pivot is not a unit (then chamber ci is not
    unimodular).
    """
    c = chambers[ci]
    for free_a in idx:
        sub = c - {free_a}
        owners = facet_owners[sub]
        if len(owners) != 2 or owners[1] != ci:
            continue
        nb = sorted(chambers[owners[0]])
        inv = inverse_from_normals(rays, nb, normals)
        if inv is None:
            continue
        (free_b,) = chambers[owners[0]] - sub
        inv = la.exchange_inverse(inv, nb.index(free_b), rays[free_a])
        if inv is None:
            return None
        row_of = dict(zip((free_a if i == free_b else i for i in nb), inv))
        return tuple(row_of[i] for i in idx)
    return None


def inverse_from_normals(rays, idx, normals):
    """Inverse of the unimodular ray matrix with columns rays[i], i in idx,
    from the normals of its facets (`normals` maps a facet, the frozenset of
    its ray indices, to its primitive normal or None).

    Row q vanishes on every ray but idx[q], where it is 1, so it is the
    facet normal opposite that ray, signed by its unit dot with the ray.
    None if a facet has no normal.
    """
    c = frozenset(idx)
    inv = []
    for q in idx:
        normal = normals.get(c - {q})
        if normal is None:
            return None
        inv.append(normal if la.dot(normal, rays[q]) > 0 else la.vneg(normal))
    return tuple(inv)


def fan_from_cones(cones, base_cone, require_complete=False):
    """The Fan whose chambers are the given cones, each a collection of ray
    vectors (tuples of integers), with base chamber base_cone.

    The ray table is sorted and the chambers are sorted by their ray
    indices, as in `fan_to_json`, so the result does not depend on the
    order of the cones or of the rays inside them.  Equal cones are passed
    on to `build_fan`, which rejects them.
    """
    cones = [frozenset(c) for c in cones]
    rays = sorted(set().union(*cones))
    ray_index = {r: i for i, r in enumerate(rays)}
    chambers = sorted((frozenset(ray_index[r] for r in c) for c in cones),
                      key=lambda c: tuple(sorted(c)))
    base = chambers.index(frozenset(ray_index[r] for r in base_cone))
    return build_fan(rays, chambers, base, require_complete)


def _sign_incoherence(rays, chambers, base_rays):
    """Sign-coherence: every chamber sits in one closed orthant of the
    coordinates in the basis base_rays.  Returns (chamber index, coordinate)
    of the first chamber with rays strictly on both sides, else None.
    Chambers are collections of ray indices."""
    s_inv = la.invert_unimodular(la.from_columns(sorted(base_rays, reverse=True)))
    # per coordinate: the rays strictly positive on it, and strictly negative
    sides = [(set(), set()) for _ in s_inv]
    for i, r in enumerate(rays):
        for (positive, negative), x in zip(sides, la.matvec(s_inv, r)):
            if x > 0:
                positive.add(i)
            elif x < 0:
                negative.add(i)
    for ci, c in enumerate(chambers):
        for coord, (positive, negative) in enumerate(sides):
            if not (positive.isdisjoint(c) or negative.isdisjoint(c)):
                return ci, coord
    return None


def wall_crossing_search(rays, exchange, budget, state=None, cross=None):
    """Breadth-first search of a simplicial fan from one chamber by crossing walls.

    A chamber is the tuple of its rays, ray k opposite wall k.  Crossing
    wall k keeps every other ray and puts `exchange(state, rays, k)` in
    place k.  A front-end may carry a state per chamber: `cross(state, new,
    k)` is the state of the chamber `new` across wall k, built only for a
    new chamber; without `cross` every chamber shares the start's state.
    Chambers are deduplicated by their ray sets, and walls are crossed in
    increasing order with a FIFO queue, so the search is deterministic.
    A chamber is not crossed back through the wall it was reached through:
    `exchange` must be an involution there (an almost complete 2-term
    silting complex has exactly two completions), so that chamber is its
    parent, already found.

    Returns the chambers in the order found, the start first, once every
    wall has been crossed.  When a new chamber would exceed `budget` it
    returns BudgetExhausted instead, which holds the chambers found;
    `frontier` counts those with walls not all crossed.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rays = tuple(rays)
    found = {tuple(sorted(rays)): rays}
    queue = deque([(rays, state, -1)])
    while queue:
        rays, state, arrival = queue.popleft()
        for k in range(len(rays)):
            if k == arrival:
                continue
            new = rays[:k] + (exchange(state, rays, k),) + rays[k + 1:]
            key = tuple(sorted(new))
            if key in found:
                continue
            if len(found) >= budget:
                # the chamber under expansion has walls not yet crossed too
                return BudgetExhausted(len(found), len(queue) + 1, budget, tuple(found.values()))
            found[key] = new
            queue.append((new, cross(state, new, k) if cross else state, k))
    return list(found.values())


def holds_test_point(det, adj, y0):
    """Whether the chamber whose ray matrix M has det M = det and
    det * M^-1 = adj contains y0 + eps e_1 + eps^2 e_2 + ... for every small
    eps > 0.

    The point's coordinate on a chamber ray is det * (r.y0 + eps r_1 +
    eps^2 r_2 + ...) for the matching row r of adj, a nonzero polynomial in
    eps, so the point is strictly inside or strictly outside, and the sign
    is that of the first nonzero entry of det * (r.y0, r_1, ..., r_n).
    """
    for row in adj:
        if det * (la.dot(row, y0) or next(x for x in row if x)) < 0:
            return False
    return True


def faces(fan, i):
    """The set of i-faces of the fan, each the sorted tuple of the ray indices
    spanning it (the i-subsets of chambers)."""
    if fan.complete != CERTIFIED:
        raise IncompleteFan("face enumeration requires a certified-complete fan")
    if not 0 <= i <= fan.rank:
        raise TiltfanError(f"face dimension {i} out of range")
    return set(chain.from_iterable(combinations(sorted(c), i) for c in fan.chambers))


@dataclass(frozen=True)
class HasseOrientation:
    """One directed edge per wall; arrows point away from the base chamber side."""

    arrows: tuple  # tuple of (src chamber index, dst chamber index, wall)

    def out_degrees(self, n_chambers):
        deg = [0] * n_chambers
        for src, _dst, _w in self.arrows:
            deg[src] += 1
        return deg

    def out_degree_histogram(self, n_chambers, rank):
        hist = [0] * (rank + 1)
        for d in self.out_degrees(n_chambers):
            hist[d] += 1
        return tuple(hist)


def hasse_orient(fan):
    """Orient every wall from the chamber on the base side to the other side.

    The wall normal is fixed to be nonnegative on the base chamber's rays;
    if neither sign of the normal achieves that, the fan is not ordered.
    """
    if fan.complete != CERTIFIED:
        raise IncompleteFan("orientation requires a certified-complete fan")
    base_rays = [fan.rays[i] for i in sorted(fan.chambers[fan.base])]
    arrows = []
    for w in fan.walls:
        f = w.normal
        vals = [la.dot(f, r) for r in base_rays]
        if all(v <= 0 for v in vals):
            f = la.vneg(f)
        elif not all(v >= 0 for v in vals):
            raise OrderViolation(tuple(sorted(w.shared)))
        ca, cb = w.chambers
        free_a = next(iter(fan.chambers[ca] - w.shared))
        if la.dot(f, fan.rays[free_a]) > 0:
            arrows.append((ca, cb, w))
        else:
            arrows.append((cb, ca, w))
    return HasseOrientation(tuple(arrows))


def restrict_to_coordinates(fan, indices):
    """Subfan of cones lying in the span of the chosen base-chamber rays,
    re-expressed in base-chamber coordinates of rank len(indices)."""
    indices = sorted(set(indices))
    if not all(0 <= i < fan.rank for i in indices):
        raise TiltfanError("coordinate index out of range")
    s_inv = la.invert_unimodular(fan.base_matrix())
    coords = [la.matvec(s_inv, r) for r in fan.rays]
    inside = {
        i
        for i, c in enumerate(coords)
        if all(c[j] == 0 for j in range(fan.rank) if j not in indices)
    }
    new_ray_of = {i: tuple(coords[i][j] for j in indices) for i in inside}
    cones = {frozenset(new_ray_of[i] for i in c & inside) for c in fan.chambers}
    base_cone = [new_ray_of[i] for i in fan.chambers[fan.base] & inside]
    return fan_from_cones([c for c in cones if len(c) == len(indices)], base_cone)


def sign_filter(fan, eps):
    """Chamber indices contained in the closed orthant eps of the base coordinates."""
    if len(eps) != fan.rank or any(e not in (1, -1) for e in eps):
        raise TiltfanError("eps must be a vector over {+1,-1} of length rank")
    s_inv = la.invert_unimodular(fan.base_matrix())
    coords = [la.matvec(s_inv, r) for r in fan.rays]
    out = []
    for ci, c in enumerate(fan.chambers):
        if all(eps[j] * coords[i][j] >= 0 for i in c for j in range(fan.rank)):
            out.append(ci)
    return out


def reduce_at_cone(fan, cone_ray_indices):
    """Project the star of a cone along the quotient by its span.

    cone_ray_indices must be a face of some chamber.  The quotient map is
    the rows of the inverse ray matrix of the first star chamber C (in the
    order below) at the rays of C off the cone: it maps Z^n onto
    Z^(n - |cone|) with kernel the span of the cone.  The base of the
    reduced fan is the image of the lexicographically least chamber (by
    sorted ray vectors) containing the cone whose image keeps the projected
    fan sign-coherent; it exists, as the reduced fan is again a g-fan
    (Jasso reduction).  Candidates are tested on the projected rays, so the
    reduced fan is built once.
    """
    sigma = frozenset(cone_ray_indices)
    if fan.complete != CERTIFIED:
        raise IncompleteFan("reduction requires a certified-complete fan")
    if not sigma:
        return fan
    star = sorted((ci for ci, c in enumerate(fan.chambers) if sigma <= c), key=fan.chamber_key)
    star = [fan.chambers[ci] for ci in star]
    if not star:
        raise NotAFace(f"{tuple(sorted(sigma))} is not a face of any chamber")
    if len(sigma) == fan.rank:
        return fan_from_cones([()], ())

    first = sorted(star[0])
    inv = la.invert_unimodular(la.from_columns([fan.rays[i] for i in first]))
    q = [row for i, row in zip(first, inv) if i not in sigma]
    link = sorted(set().union(*star) - sigma)
    image = [la.matvec(q, fan.rays[i]) for i in link]
    position = {i: p for p, i in enumerate(link)}
    cones = [[position[i] for i in c - sigma] for c in star]
    for cone in cones:
        if _sign_incoherence(image, cones, [image[p] for p in cone]) is None:
            return fan_from_cones([[image[p] for p in c] for c in cones],
                                  [image[p] for p in cone])
    raise TiltfanError(f"no chamber around {tuple(sorted(sigma))} gives a sign-coherent reduction")


def verify_pairwise_intersections(fan):
    """Fan-axiom check: the intersection of any two chambers is the cone
    spanned by their shared rays.

    A certified fan has passed the covering-degree certificate of
    `build_fan`, which proves this in every rank, so it returns at once.
    Any other fan (a partial one, or a Fan assembled by hand) gets the
    exhaustive check, limited to rank <= 3: the intersection of two
    simplicial full-dimensional cones is cut out by the two inverse ray
    matrices; its extreme rays arise as kernels of pairs of active
    constraints, and each must be a nonnegative combination of the shared
    rays (checked in chamber coordinates).
    """
    if fan.complete == CERTIFIED:
        return
    if fan.rank > 3:
        raise TiltfanError("paranoid verification is limited to rank <= 3")
    if fan.rank <= 1:
        return
    inv = [la.invert_unimodular(fan.ray_matrix(ci)) for ci in range(len(fan.chambers))]
    for ca, cb in combinations(range(len(fan.chambers)), 2):
        rows = list(inv[ca]) + list(inv[cb])
        shared = fan.chambers[ca] & fan.chambers[cb]
        shared_positions = [
            k for k, i in enumerate(sorted(fan.chambers[ca])) if i in shared
        ]
        candidates = set()
        if fan.rank == 2:
            groups = [(r,) for r in rows]
        else:
            groups = list(combinations(rows, 2))
        for group in groups:
            try:
                v = la.kernel_functional(list(group), fan.rank)
            except ValueError:
                continue
            for w in (v, la.vneg(v)):
                if all(la.dot(r, w) >= 0 for r in rows):
                    candidates.add(w)
        for w in candidates:
            coords = la.matvec(inv[ca], w)
            ok = all(c >= 0 for c in coords) and all(
                c == 0 for k, c in enumerate(coords) if k not in shared_positions
            )
            if not ok:
                raise TiltfanError(
                    f"chambers {ca} and {cb} intersect outside their shared face"
                )


def fan_to_json(fan):
    """Canonical JSON form: rays sorted lexicographically, chambers sorted."""
    order = sorted(range(len(fan.rays)), key=lambda i: fan.rays[i])
    new_of_old = {old: new for new, old in enumerate(order)}
    chambers = sorted(tuple(sorted(new_of_old[i] for i in c)) for c in fan.chambers)
    base_key = tuple(sorted(new_of_old[i] for i in fan.chambers[fan.base]))
    return {
        "schema_version": 1,
        "rank": fan.rank,
        "rays": [list(fan.rays[i]) for i in order],
        "chambers": [list(c) for c in chambers],
        "base": chambers.index(base_key),
        "complete": fan.complete,
    }


def fan_from_json(data):
    if not isinstance(data, dict) or not {"rays", "chambers", "base"} <= data.keys():
        raise ParseError("not a fan: expected an object with rays, chambers and base")
    version = data.get("schema_version", 1)
    if version != 1:
        raise TiltfanError(f"unsupported schema version {version!r}")
    with reading("not a fan"):
        rays = [tuple(map(parse_int, r)) for r in data["rays"]]
        chambers = [frozenset(map(parse_int, c)) for c in data["chambers"]]
        base = parse_int(data["base"])
    return build_fan(rays, chambers, base)
