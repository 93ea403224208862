"""Simplicial fan data model: validation, the wall-crossing search, faces,
walls, Hasse orientation, sign filtering and Jasso reduction.

A fan is stored combinatorially: a table of primitive rays plus the maximal
chambers, each the tuple of its ray indices in increasing order, the one
order in which a chamber is read as matrix columns, faces and wall
positions.  Completeness is a certificate ("certified"), never a volume
computation: every codimension-1 face lies in two chambers on opposite
sides of it, and a generic point lies in exactly one chamber (covering
degree 1), which also makes the wall graph connected.  `build_fan`
establishes it in every rank from one integer inverse per chamber, held as
ids into a table of distinct rows in +- pairs (wall normals: c-vectors, or
roots on a Coxeter fan), in one breadth-first pass over a neighbour table;
it proves that any two chambers meet in their common face, so the
exhaustive pairwise check is needed only for fans that are not certified.
Every other fan, such as the partial fan of a search that ran out of
budget, is "unknown"; there is no third status.  A rank-n fan has n
|chambers| / 2 walls.  None is stored on its own: `Walls` keeps the
neighbour table and the chamber inverses that `build_fan` checked, which
are the walls and their normals, and gives one `Wall` at a time on demand,
a chamber's inverse, and the h-vector the certificate counted; the row ids
and the test point are read in this module only.

Every Fan is made by `build_fan`; `fan_from_ids` builds the canonical ray
and chamber tables from chambers given as ids into a ray table, and
`fan_from_cones`, for chambers given as sequences of ray vectors, interns
their rays and calls it.  The cluster, Weyl and Brauer front-ends find
their chambers with one search, `wall_crossing_search`: each chamber of a
g-fan has exactly one neighbour across each wall (mutation of 2-term
silting complexes), so a front-end only says which ray replaces the one
opposite a wall, and the search hands back which chamber lies across every
wall.  The search interns each ray once and keys a chamber by the bitmask
of its ray ids; its ray table, chambers and neighbour table go to
`fan_from_ids` as they are.  Mutation is an involution, so the search
crosses each wall once, from the side that reaches it first, and that
crossing fills the table on both sides.  The neighbour table goes with
the chambers to `build_fan`, which checks it instead of finding adjacency
again; a fan read from a file, a partial fan or a reduction has its table
derived from the chambers' facets.
"""

from collections import deque, namedtuple
from functools import cached_property
from itertools import chain, combinations
from operator import lt

from . import lattice as la
from .errors import (
    TiltfanError,
    IncompleteFan,
    NonUnimodularChamber,
    NotAFace,
    OrderViolation,
    ParseError,
    SignCoherenceViolation,
    check_schema_version,
    parse_array,
    parse_int,
    reading,
)

CERTIFIED = "certified"
UNKNOWN = "unknown"


class Wall(namedtuple("Wall", "chambers free normal")):
    """Codimension-1 face of two chambers: one mutation, as `Walls` gives
    it.  The face itself is either chamber less its free ray,
    `wall.face(fan.chambers)`.

    - `chambers`: the pair of chamber indices, ascending;
    - `free`: each chamber's ray off the wall, in the order of `chambers`;
    - `normal`: chambers[0]'s inverse row at free[0], 1 on it and -1 on
      free[1].
    """

    __slots__ = ()

    def face(self, chambers):
        """The shared ray indices, in increasing order."""
        c = chambers[self.chambers[0]]
        k = c.index(self.free[0])
        return c[:k] + c[k + 1:]


class _Immutable:
    """Fields are set once, by `object.__setattr__` in `__init__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Walls(_Immutable):
    """The walls of a fan, read off the tables `build_fan` checked.

    `across` is the neighbour table (see `build_fan`) as a tuple of tuples,
    None across a dangling face; `inverses[ci]` is chamber ci's inverse ray
    matrix as the ids of its rows in `rows`, the distinct rows in +- pairs
    (ids 2t and 2t + 1).  Row k of ci's inverse is the normal of its wall
    opposite its k-th ray, 1 on that ray.  A wall is a pair
    ci < j = across[ci][k], listed in (ci, k) order, with normal
    rows[inverses[ci][k]]; nothing is stored per wall, and a g-fan has few
    distinct rows (up to sign, the positive roots on a Coxeter fan).
    `inverse(ci)` gives the rows; h[i] counts the chambers with i rows
    failing the test point.  Iteration gives `Wall` views, built on demand,
    and `positions` the (ci, k, j) alone.  Equality and hash are those of
    the tables, a function of the fan.  Immutable.
    """

    __slots__ = ("chambers", "across", "inverses", "rows", "h")

    def __init__(self, chambers=(), across=(), inverses=(), rows=(), h=()):
        for name, table in zip(self.__slots__, (chambers, across, inverses, rows, h)):
            object.__setattr__(self, name, table)

    def _tables(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def inverse(self, ci):
        """Chamber ci's inverse, its rows shared tuples of `rows`."""
        return tuple(map(self.rows.__getitem__, self.inverses[ci]))

    def positions(self):
        """(ci, k, j) for each wall: its chambers ci < j, and k the place in
        ci of its free ray."""
        for ci, row in enumerate(self.across):
            for k, j in enumerate(row):
                if j is not None and ci < j:
                    yield ci, k, j

    def __len__(self):
        # every wall is two entries of the table, one on each side
        return sum(len(row) - row.count(None) for row in self.across) // 2

    def __iter__(self):
        chambers, across, inverses, rows, _h = self._tables()
        for ci, k, j in self.positions():
            yield Wall((ci, j), (chambers[ci][k], chambers[j][across[j].index(ci)]),
                       rows[inverses[ci][k]])

    def __eq__(self, other):
        if not isinstance(other, Walls):
            return NotImplemented
        return self._tables() == other._tables()

    def __hash__(self):
        return hash(self._tables())

    def __repr__(self):
        return f"Walls({list(self)!r})"


class Fan(namedtuple("Fan", "rank rays chambers base walls complete",
                     defaults=(Walls(), UNKNOWN))):
    """A simplicial fan: `rays` are primitive integer vectors, each chamber
    is the tuple of its ray indices in increasing order, and `base` is an
    index into `chambers`.  `walls` (a `Walls`) and `complete` are what
    `build_fan` found; equality and hash take in all six fields."""

    __slots__ = ()

    def ray_matrix(self, chamber_index):
        """Columns are the rays of the chamber, in increasing index order."""
        return la.transpose([self.rays[i] for i in self.chambers[chamber_index]])

    def chamber_key(self, chamber_index):
        return tuple(sorted(self.rays[i] for i in self.chambers[chamber_index]))


class BudgetExhausted(_Immutable):
    """Normal outcome of a search that ran out of budget.

    `cones` are the chambers found, each the tuple of its rays, the start
    first: `explored` counts them, and `frontier` of them have walls that
    were not all crossed.  `partial_fan` is their fan, built on first use,
    so a caller that does not ask for it does not pay for it.  Unlike a Fan
    it has no `chambers`, so `hasattr(result, "chambers")` tells the two
    outcomes apart, and it is not a tuple, unlike a closed search's
    (rays, chambers, across).  The search builds `cones` from its ray ids
    once, when it stops.  Immutable; it compares and hashes by identity.
    """

    def __init__(self, frontier, budget, cones):
        object.__setattr__(self, "frontier", frontier)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "cones", cones)

    @property
    def explored(self):
        return len(self.cones)

    @cached_property
    def partial_fan(self):
        return fan_from_cones(self.cones, self.cones[0])


def build_fan(rays, chambers, base, across=None):
    """Validate and assemble a Fan.

    Checks ray primitivity/distinctness, that every ray lies in a chamber,
    chamber unimodularity, wall adjacency (free rays strictly on opposite
    sides of the shared hyperplane) and sign-coherence relative to the base
    chamber.  It is the one place that decides which side of each wall a
    chamber lies on: a `Wall`'s normal is its first chamber's inverse row
    at free[0], 1 on free[0] and -1 on free[1].

    Each chamber is taken as the set of its ray indices and kept as their
    tuple in increasing order; a repeated index collapses, and the chamber
    is then refused for having too few rays.  A tuple of chambers already
    in that form, as `fan_from_ids` passes them, is kept, not copied.
    Adjacency is a neighbour table: across[ci][k] is the chamber on the
    other side of the facet of chamber ci opposite its k-th smallest ray
    index, whatever order the caller listed the rays in (`fan_from_ids`
    permutes a search's rows to match).  A front-end's search knows it
    (`wall_crossing_search`); without one it is derived from which chambers
    own which facet, None marking a dangling face, and a face in more than
    two chambers is an error.  A given table names a chamber across every
    wall; it is taken over, each row replaced by its tuple once checked.
    Every entry is checked: the neighbour has this chamber's rays with
    exactly the k-th one swapped, and the table is reciprocal; so every
    face of the table lies in two chambers, glued across it in pairs.  Each
    entry is checked once, from the chamber reached first: the reciprocity
    test there proves the reverse entry too, which a per-chamber bitmask
    then skips, so the set difference, the test and the wall's pivot value
    are computed once per wall.  Error messages name a wall by that same
    position k.

    One breadth-first pass over the table, component by component, does the
    rest.  A chamber's inverse travels in the queue as the ids of its rows
    in a table of the distinct rows met in this call; row k is the normal
    of the wall opposite ray k, so on a g-fan the rows are its few
    c-vectors.  The first chamber of a component is inverted by full
    elimination; every other chamber's inverse is one exchange pivot from
    its parent's: crossing wall k to ray r_b, with c = M^-1 r_b, row k
    divided by c_k is the pivot, and every other row i loses c_i times it.
    A row is held with its negation, as ids 2t and 2t + 1; each pairing c_i
    and (row, c_i, pivot) update is computed once per call, so a chamber
    costs n lookups, not an O(n^2) pivot.  The pivot leaves the new ray's
    row in the old one's place, and moving that one id to the new ray's
    place in increasing order gives the new chamber's inverse.  A non-unit
    pivot or determinant means a non-unimodular chamber;
    NonUnimodularChamber names the lowest-index one.  Each wall is checked
    from the side reached first, where the other side's free ray must pair
    negatively with its row (the same value c_k is the pivot).  Each
    chamber's inverse is kept as it leaves the queue; with the checked
    table and the row table it is the `Walls` of the fan.

    Completeness is certified iff no face dangles and the test point
    y0 + eps e_1 + eps^2 e_2 + ... (y0 = `base_point`, eps > 0
    infinitesimal) lies in exactly one chamber; a chamber holds it iff each
    of its rows does, which `holds_test_point` decides once per row.  Each
    chamber is tallied by its failing rows, the walls it crosses toward the
    point (Fulton 1993, 5.2): the tally is h, and h_0 the count.  If no
    face dangles but the test point lies in d != 1 chambers, the chambers
    overlap and TiltfanError is raised.  A fan with a dangling face is
    still built, with status "unknown"; `Fan.complete` is the one verdict
    on completeness.  Why this suffices:

    1. With no dangling face, glue the chambers along the table: every
       component is a closed, oriented pseudomanifold, since across every
       wall the two chambers lie on opposite sides, so their union is a
       neighbourhood of the wall's relative interior.
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
       rays.  In particular no face lies in more than two chambers, table
       given or not: a third chamber on a face glued in pairs would come
       with its own neighbour across it, and a point near the face would
       be covered twice.

    Rank 1 has only the two half-lines, where the count is 1 as well, and
    rank 0 the one empty chamber, which holds the point 0.  The certificate
    and h cost one dot product per distinct row and a lookup per chamber row.
    """
    rays = la.mat(rays)
    rank = len(rays[0]) if rays else 0
    for r in rays:
        if la.is_zero(r) or la.primitive(r) != r:
            raise TiltfanError(f"ray {r} is not primitive")
    if any(len(r) != rank for r in rays):
        raise TiltfanError(f"rays of lengths {sorted({len(r) for r in rays})} in one fan")
    if len(set(rays)) != len(rays):
        raise TiltfanError("duplicate rays")

    if type(chambers) is not tuple or not all(map(_is_canonical, chambers)):
        chambers = tuple(tuple(sorted(set(map(int, c)))) for c in chambers)
    if len(set(chambers)) != len(chambers):
        raise TiltfanError("duplicate chambers")
    indices, used = set(range(len(rays))), set(chain.from_iterable(chambers))
    if not indices.issuperset(used):
        ci = next(ci for ci, c in enumerate(chambers) if not indices.issuperset(c))
        raise TiltfanError(f"chamber {ci} names a ray index outside 0..{len(rays) - 1}")
    if not 0 <= base < len(chambers):
        raise TiltfanError("base chamber index out of range")

    for ci, c in enumerate(chambers):
        if len(c) != rank:
            raise TiltfanError(f"chamber {ci} has {len(c)} rays, expected {rank}")
    if used != indices:
        i = min(indices - used)
        raise TiltfanError(f"ray {i}, {rays[i]}, lies in no chamber")

    derived = across is None
    if derived:
        across, crowded = _facet_table(chambers)
    else:
        crowded = []
        if type(across) is not list:
            across = list(across)
        if len(across) != len(chambers):
            raise TiltfanError(
                f"the neighbour table has {len(across)} rows for {len(chambers)} chambers")
        for ci, row in enumerate(across):
            if len(row) != rank:
                raise TiltfanError(
                    f"row {ci} of the neighbour table has {len(row)} entries, expected {rank}")

    y0 = base_point(rays, chambers[base])
    h = [0] * (rank + 1)
    overlaps = []
    dangling = False
    n_rays, n_chambers = len(rays), len(chambers)
    reached = [False] * n_chambers
    proven = [0] * n_chambers  # bit m: across[ci][m] was checked from the other side
    # an inverse is a list of ids into `rows`; r ^ 1 negates row r
    rows, row_ids, fails = [], {}, []
    pairing, updates = {}, {}
    inverses = [None] * n_chambers

    def row_id(row):
        r = row_ids.get(row)
        if r is None:
            r = len(rows)
            for t, x in enumerate((row, la.vneg(row))):
                row_ids[x] = r + t
                rows.append(x)
                fails.append(not holds_test_point(1, (x,), y0))
        return r

    def pairing_of(r, i):
        key = r * n_rays + i
        c = pairing.get(key)
        if c is None:
            c = pairing[key] = la.dot(rows[r], rays[i])
        return c

    for start in range(n_chambers):
        if reached[start]:
            continue
        found = la.scaled_inverse(la.transpose([rays[i] for i in chambers[start]]))
        if found is None or found[0] not in (1, -1):
            raise _non_unimodular(rays, chambers)
        det, inv = found
        reached[start] = True
        queue = deque([(start, [row_id(row) ^ (det < 0) for row in inv])])
        while queue:
            ci, inv = queue.popleft()
            inverses[ci] = tuple(inv)
            h[sum(map(fails.__getitem__, inv))] += 1
            p, row, done = chambers[ci], across[ci], proven[ci]
            for k in range(rank):
                if done >> k & 1:
                    continue
                j = row[k]
                if j is None:
                    if not derived:
                        raise TiltfanError(f"the neighbour table names no chamber "
                                           f"across wall {k} of chamber {ci}")
                    dangling = True
                    continue
                if not 0 <= j < n_chambers:
                    raise TiltfanError(
                        f"the neighbour table names chamber {j} outside 0..{n_chambers - 1}")
                free_a, other = p[k], chambers[j]
                free = set(other).difference(p)
                if len(free) != 1 or free_a in other:
                    raise TiltfanError(f"chamber {j}, across wall {k} of chamber {ci}, "
                                       f"does not share its other {rank - 1} rays")
                (free_b,) = free
                m = other.index(free_b)
                back = across[j][m]
                if back != ci:
                    raise TiltfanError(f"the neighbour table is not reciprocal: chamber {ci} "
                                       f"has {j} across a wall, {j} has {back} across it")
                proven[j] |= 1 << m
                # row k vanishes on the face and is 1 on free_a; c_k is its pivot
                r_k = inv[k]
                c_k = pairing_of(r_k, free_b)
                if not reached[j]:
                    if c_k not in (1, -1):
                        raise _non_unimodular(rays, chambers)
                    pivot = r_k if c_k == 1 else r_k ^ 1
                    nxt = inv.copy()
                    nxt[k] = pivot
                    for i, r in enumerate(inv):
                        c = pairing_of(r, free_b) if i != k else 0
                        if c:
                            s = updates.get((r, c, pivot))
                            if s is None:
                                s = updates[r, c, pivot] = row_id(tuple(
                                    [x - c * y for x, y in zip(rows[r], rows[pivot])]))
                            nxt[i] = s
                    # the pivot's rows follow p with free_b in place k: move
                    # that row to free_b's place in j's rays
                    nxt.insert(m, nxt.pop(k))
                    queue.append((j, nxt))
                    reached[j] = True
                if c_k >= 0:
                    overlaps.append((p[:k] + p[k + 1:], (min(ci, j), max(ci, j))))
            # checked: the row is kept as a tuple in place of the caller's
            across[ci] = tuple(row)

    incoherent = _sign_incoherence(rays, chambers, [rays[i] for i in chambers[base]])
    if incoherent:
        raise SignCoherenceViolation(*incoherent)
    # the first offending face in sorted order
    problems = [(face, f"face {face} lies in {owners} chambers") for face, owners in crowded]
    problems += [(face, f"chambers {ca} and {cb} share face {face} but overlap")
                 for face, (ca, cb) in overlaps]
    if problems:
        raise TiltfanError(min(problems)[1])
    if not dangling and h[0] != 1:
        raise TiltfanError(f"a generic point lies in {h[0]} chambers")
    walls = Walls(chambers, tuple(across), tuple(inverses), tuple(rows), tuple(h))
    return Fan(rank, rays, chambers, base, walls, UNKNOWN if dangling else CERTIFIED)


def _is_canonical(c):
    """Whether c is already a chamber as `build_fan` keeps it: a tuple of
    ints in strictly increasing order."""
    return type(c) is tuple and all(type(i) is int for i in c) and all(map(lt, c, c[1:]))


def _facet_table(chambers):
    """The neighbour table read off facet ownership: None across a facet of
    one chamber, and (facet, number of chambers) for every facet in more
    than two."""
    owners = {}
    for ci, p in enumerate(chambers):
        for k in range(len(p)):
            owners.setdefault(p[:k] + p[k + 1:], []).append((ci, k))
    across = [[None] * len(p) for p in chambers]
    crowded = []
    for face, owned in owners.items():
        if len(owned) == 2:
            (ca, ka), (cb, kb) = owned
            across[ca][ka], across[cb][kb] = cb, ca
        elif len(owned) > 2:
            crowded.append((face, len(owned)))
    return across, crowded


def _non_unimodular(rays, chambers):
    """NonUnimodularChamber for the lowest-index chamber whose ray matrix,
    columns in increasing index order, has a determinant other than +-1."""
    for ci, c in enumerate(chambers):
        det = la.determinant(la.transpose([rays[i] for i in c]))
        if det not in (1, -1):
            return NonUnimodularChamber(ci, det)


def fan_from_cones(cones, base_cone):
    """The Fan whose chambers are the given cones, each a sequence of ray
    vectors (tuples of integers), with base chamber base_cone.

    Interns each ray once and hands the ids to `fan_from_ids`, which makes
    the result independent of the order of the cones and of the rays
    inside them.  Equal cones are passed on to `build_fan`, which
    rejects them; cones that leave a face dangling give a fan with status
    "unknown".  A base cone that is not one of the cones is a TiltfanError.
    """
    cones = [tuple(c) for c in cones]
    ray_ids = {}
    for r in chain.from_iterable(cones):
        ray_ids.setdefault(r, len(ray_ids))
    ids = [tuple(map(ray_ids.__getitem__, c)) for c in cones]
    try:
        key = sorted({ray_ids[r] for r in base_cone})
        base = next(ci for ci, c in enumerate(ids) if sorted(c) == key)
    except (KeyError, StopIteration):
        raise TiltfanError(f"the base cone {tuple(base_cone)} is not one of the cones") from None
    return fan_from_ids(list(ray_ids), ids, base=base)


def fan_from_ids(rays, chambers, across=None, base=0):
    """The Fan of chambers given as tuples of ids into the ray table `rays`
    (distinct rays), in any order, with chamber `base` as its base: a
    closed `wall_crossing_search` returns the first three arguments, and
    its start, chamber 0, is the base.

    The ray table is sorted and renumbered, one list lookup per id, and the
    chambers are sorted by their ray indices, as in `fan_to_json`, so the
    result does not depend on the order of the chambers or of the ids
    inside them.  `across`, a search's neighbour table over the chambers as
    given, across[i][k] opposite the k-th id of chamber i (see
    `build_fan`), is re-indexed to that chamber order, and each row is
    permuted to match its chamber's ray indices in increasing order, the
    order in which `build_fan` reads every row.  Only the canonical chamber
    and neighbour tables are alive while `build_fan` runs, and both end in
    the Fan: it keeps the chamber tuple and turns the rows into tuples in
    place.
    """
    order = sorted(range(len(rays)), key=rays.__getitem__)
    new_id = [0] * len(rays)
    for new, old in enumerate(order):
        new_id[old] = new
    rays = [rays[i] for i in order]
    ids = [tuple(map(new_id.__getitem__, c)) for c in chambers]
    keys = [tuple(sorted(c)) for c in ids]
    order = sorted(range(len(ids)), key=keys.__getitem__)
    new_of_old = [0] * len(order)
    for new, old in enumerate(order):
        new_of_old[old] = new
    base = new_of_old[base]
    if across is not None:
        across = [[new_of_old[across[old][ids[old].index(i)]] for i in keys[old]]
                  for old in order]
    chambers = tuple(keys[ci] for ci in order)
    # only the canonical tables go on: build_fan keeps `chambers` as it is
    del new_id, ids, keys, order, new_of_old
    return build_fan(rays, chambers, base, across)


def _base_signs(rays, base_rays):
    """For each ray, the bitmasks of the coordinates in the basis base_rays,
    taken in descending order, on which it is strictly positive and strictly
    negative."""
    s_inv = la.invert_unimodular(la.transpose(sorted(base_rays, reverse=True)))
    positive, negative = [], []
    for r in rays:
        plus = minus = 0
        for coord, x in enumerate(la.matvec(s_inv, r)):
            if x > 0:
                plus |= 1 << coord
            elif x < 0:
                minus |= 1 << coord
        positive.append(plus)
        negative.append(minus)
    return positive, negative


def _sign_incoherence(rays, chambers, base_rays):
    """Sign-coherence: every chamber sits in one closed orthant of the
    coordinates in the basis base_rays.  Returns (chamber index, coordinate)
    of the first chamber with rays strictly on both sides, else None.
    Chambers are collections of ray indices."""
    positive, negative = _base_signs(rays, base_rays)
    for ci, c in enumerate(chambers):
        plus = minus = 0
        for i in c:
            plus |= positive[i]
            minus |= negative[i]
        both = plus & minus
        if both:
            return ci, (both & -both).bit_length() - 1
    return None


def wall_crossing_search(rays, exchange, budget, state=None, cross=None):
    """Breadth-first search of a simplicial fan from one chamber by crossing walls.

    A chamber is the tuple of its rays, ray k opposite wall k.  Crossing
    wall k keeps every other ray and puts `exchange(state, rays, k)` in
    place k.  A front-end may carry a state per chamber: `cross(state, new,
    k)` is the state of the chamber `new` across wall k, built only for a
    new chamber; without `cross` every chamber shares the start's state.
    Each ray is interned the first time it appears, as an id into the ray
    table, and a chamber is keyed by the int bitmask of its ray ids, so a
    crossing that swaps id a for id b turns the key into
    key ^ (1 << a) | (1 << b) with no hashing of vectors.  An exchange that
    returns a ray of the chamber it crosses from, the one it replaces or
    another, is refused there (TiltfanError naming the chamber and the
    wall).  Walls are crossed in increasing order with a FIFO queue, so
    the search is deterministic.

    Each wall is crossed once.  `exchange` must be an involution (an almost
    complete 2-term silting complex has exactly two completions), so the
    crossing of wall k of chamber i that finds chamber j also fills the
    reverse entry: across[j][m] = i, m the place of the exchanged ray in
    j.  A new chamber thus starts with the wall it was reached through
    filled, and a chamber crosses only the walls whose entry is still
    empty.  A filled entry is never overwritten: if an exchange that is not
    an involution finds a chamber whose reverse entry names another, that
    entry stays, and `build_fan` refuses the table as not reciprocal.

    Returns (rays, chambers, across) once every wall has an entry: the ray
    table, each ray once, by id in the order met (the start's rays are ids
    0..n-1); the chambers in the order found, the start first, each the
    tuple of its ray ids in wall order; and the neighbour table,
    across[i][k] the index of the chamber across wall k of chamber i.
    `fan_from_ids` turns the three into a Fan.  When a new chamber would
    exceed `budget` it returns BudgetExhausted instead, which holds the
    chambers found as tuples of rays; `frontier` counts the chambers not
    yet expanded, the one under expansion included.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rays = tuple(rays)
    n = len(rays)
    table = list(rays)
    ray_ids = {r: t for t, r in enumerate(table)}
    start = tuple(range(n))
    key = (1 << n) - 1
    found = {key: 0}
    chambers, across = [start], [[None] * n]
    queue = deque([(rays, key, state, 0)])
    while queue:
        rays, key, state, i = queue.popleft()
        ids, row = chambers[i], across[i]
        for k in range(n):
            if row[k] is not None:
                continue
            ray = exchange(state, rays, k)
            t = ray_ids.get(ray)
            if t is None:
                t = ray_ids[ray] = len(table)
                table.append(ray)
            elif key >> t & 1:
                raise TiltfanError(f"the exchange across wall {k} of chamber {i} "
                                   f"returns its ray {ray!r}")
            new_key = key ^ (1 << ids[k]) | (1 << t)
            j = found.get(new_key)
            if j is None:
                if len(chambers) >= budget:
                    # the chamber under expansion has walls not yet crossed too
                    cones = tuple(tuple(map(table.__getitem__, c)) for c in chambers)
                    return BudgetExhausted(len(queue) + 1, budget, cones)
                j = found[new_key] = len(chambers)
                new = rays[:k] + (ray,) + rays[k + 1:]
                chambers.append(ids[:k] + (t,) + ids[k + 1:])
                across.append([None] * n)
                across[j][k] = i
                queue.append((new, new_key, cross(state, new, k) if cross else state, j))
            else:
                back = across[j]
                m = chambers[j].index(t)
                if back[m] is None:
                    back[m] = i
            row[k] = j
    return table, chambers, across


def base_point(rays, chamber):
    """y0, the sum of the chamber's rays; for the base chamber, the fan's
    test point is y0 + eps e_1 + eps^2 e_2 + ..."""
    return tuple(map(sum, zip(*(rays[i] for i in chamber))))


def require_certified(fan, what):
    """IncompleteFan unless the fan is certified."""
    if fan.complete != CERTIFIED:
        raise IncompleteFan(f"{what} requires a certified-complete fan")


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
    require_certified(fan, "face enumeration")
    if not 0 <= i <= fan.rank:
        raise TiltfanError(f"face dimension {i} out of range")
    return set(chain.from_iterable(combinations(c, i) for c in fan.chambers))


class HasseOrientation(namedtuple("HasseOrientation", "arrows")):
    """One directed edge per wall; arrows point away from the base chamber
    side.  `arrows` is a tuple of (src chamber index, dst chamber index, wall)."""

    __slots__ = ()

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

    The normal is positive on the first chamber's free ray, so that chamber
    is on the base side iff the normal is >= 0 on the base chamber's rays,
    and the other one iff it is <= 0; if neither holds, the fan is not
    ordered, and OrderViolation names the least such wall by face.  The
    test is made once per row id.
    """
    require_certified(fan, "orientation")
    walls = fan.walls
    base_rays = [fan.rays[i] for i in fan.chambers[fan.base]]
    # per row id, 1: a chamber with that row is on the base side, -1: the
    # chamber across it is, 0: neither
    side = []
    for row in walls.rows:
        vals = [la.dot(row, r) for r in base_rays]
        side.append(1 if min(vals) >= 0 else -1 if max(vals) <= 0 else 0)
    arrows, split = [], []
    for w, (ca, k, cb) in zip(walls, walls.positions()):
        s = side[walls.inverses[ca][k]]
        if s == 1:
            arrows.append((ca, cb, w))
        elif s == -1:
            arrows.append((cb, ca, w))
        else:
            split.append(w.face(fan.chambers))
    if split:
        raise OrderViolation(min(split))
    return HasseOrientation(tuple(arrows))


def sign_filter(fan, eps):
    """Chamber indices contained in the closed orthant eps of the base coordinates."""
    if len(eps) != fan.rank or any(e not in (1, -1) for e in eps):
        raise TiltfanError("eps must be a vector over {+1,-1} of length rank")
    positive, negative = _base_signs(fan.rays, [fan.rays[i] for i in fan.chambers[fan.base]])
    # a chamber in the orthant has no ray strictly on the side -eps[j] of coordinate j
    plus = sum(1 << j for j, e in enumerate(eps) if e == 1)
    minus = sum(1 << j for j, e in enumerate(eps) if e == -1)
    against = [bool(n & plus or p & minus) for p, n in zip(positive, negative)]
    return [ci for ci, c in enumerate(fan.chambers) if not any(against[i] for i in c)]


def reduce_at_cone(fan, cone_ray_indices):
    """The Jasso reduction at a cone: its star projected along the quotient
    by its span.

    cone_ray_indices must be a face of some chamber.  The quotient map q is
    the rows of the inverse ray matrix of the first star chamber C (by
    sorted ray vectors) at the rays of C off the cone: it maps Z^n onto
    Z^(n - |cone|) with kernel the span of the cone, so the projected star
    is a complete unimodular fan.  Its base is the image cone that holds
    q(y0) + eps e_1 + eps^2 e_2 + ... (y0 = `base_point`, eps > 0
    infinitesimal; `holds_test_point`), and exactly one does, by the
    covering argument of `build_fan`.  For a c-sign-coherent fan that is
    the image of the star chamber on the base side of every wall through
    the cone, the Bongartz completion (Jasso 2015).  At the cone of the rays
    -e_j, the shifted projectives P_j[1], the reduction is the fan
    Sigma(A/<e>) of the idempotent reduction, in the coordinates of q.
    """
    sigma = frozenset(cone_ray_indices)
    require_certified(fan, "reduction")
    if not sigma:
        return fan
    star = sorted((ci for ci, c in enumerate(fan.chambers) if sigma.issubset(c)),
                  key=fan.chamber_key)
    if not star:
        raise NotAFace(f"{tuple(sorted(sigma))} is not a face of any chamber")
    q = [row for i, row in zip(fan.chambers[star[0]], fan.walls.inverse(star[0]))
         if i not in sigma]
    star = [fan.chambers[ci] for ci in star]
    image = {i: la.matvec(q, fan.rays[i]) for i in set().union(*star) - sigma}
    cones = [[image[i] for i in c if i not in sigma] for c in star]
    y0 = la.matvec(q, base_point(fan.rays, fan.chambers[fan.base]))
    base = next(c for c in cones
                if holds_test_point(*la.scaled_inverse(la.transpose(c)), y0))
    return fan_from_cones(cones, base)


def verify_pairwise_intersections(fan):
    """Fan-axiom check: the intersection of any two chambers is the cone
    spanned by their shared rays.

    A certified fan has passed the covering-degree certificate of
    `build_fan`, which proves this in every rank, so it returns at once.
    Any other fan (a partial one, or a Fan assembled by hand) gets the
    exhaustive check, limited to rank <= 3: the intersection of two
    simplicial full-dimensional cones is cut out by the two inverse ray
    matrices; its extreme rays arise as kernels of rank - 1 active
    constraints, and each must be a nonnegative combination of the shared
    rays (checked in chamber coordinates).
    """
    if fan.complete == CERTIFIED:
        return
    if fan.rank > 3:
        raise TiltfanError("paranoid verification is limited to rank <= 3")
    inv = [la.invert_unimodular(fan.ray_matrix(ci)) for ci in range(len(fan.chambers))]
    for ca, cb in combinations(range(len(fan.chambers)), 2):
        rows = list(inv[ca]) + list(inv[cb])
        shared = set(fan.chambers[cb])
        off = [k for k, i in enumerate(fan.chambers[ca]) if i not in shared]
        candidates = set()
        for group in combinations(rows, fan.rank - 1):
            try:
                v = la.kernel_functional(list(group), fan.rank)
            except ValueError:
                continue
            for w in (v, la.vneg(v)):
                if all(la.dot(r, w) >= 0 for r in rows):
                    candidates.add(w)
        for w in candidates:
            coords = la.matvec(inv[ca], w)
            ok = all(c >= 0 for c in coords) and all(coords[k] == 0 for k in off)
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
    check_schema_version(data)
    with reading("not a fan"):
        rays = [tuple(map(parse_int, parse_array(r, "a ray")))
                for r in parse_array(data["rays"], "rays")]
        chambers = [tuple(map(parse_int, parse_array(c, "a chamber")))
                    for c in parse_array(data["chambers"], "chambers")]
        base = parse_int(data["base"])
        rank = parse_int(data["rank"]) if "rank" in data else None
    fan = build_fan(rays, chambers, base)
    if rank is not None and rank != fan.rank:
        raise ParseError(f"not a fan: rank {rank}, but the rays have rank {fan.rank}")
    return fan
