"""Lattice polytopes by exact arithmetic: the convex hull of integer points
by double description in every rank, convexity of fan polytopes, the
g-polytope and its dual, reflexivity, the smooth-Fano test, the rank-2
classification, and root polytopes: of types A and C and of the short
roots, hulls of the roots of `weyl.root_system`.

Every chamber inverse is looked up in `fan.Walls` (`Walls.inverse`), never
computed again: the normal of the wall of C opposite ray i, signed to be 1
on it, is row i of C's inverse ray matrix.  Their sum is v_C, with
v_C . r = 1 on the rays of C.  The fan polytope is convex iff v_C . r_b <= 1
across every wall, r_b the free ray of the chamber on the other side
(Cox-Little-Schenck, Toric Varieties, 2011, section 6.1);
`convexity_report` also gives each wall the paper's exchange-triangle
class, which is its convexity test on g-fans."""

from collections import namedtuple

from . import lattice as la
from .errors import (
    NotConvex,
    NotRank2,
    OriginNotInterior,
)
from .fan import fan_from_cones, require_certified
from .weyl import CartanData, cartan_preset, root_system


class LatticePolytope(namedtuple("LatticePolytope", "vertices facets")):
    """`vertices` are integer vectors, sorted; `facets` are the (normal,
    offset) pairs of normal . x <= offset, the normal primitive integer."""

    __slots__ = ()

    @property
    def rank(self):
        return len(self.vertices[0])

    def contains(self, point):
        return all(la.dot(n, point) <= off for n, off in self.facets)

    def facet_vertices(self, facet):
        n, off = facet
        return tuple(v for v in self.vertices if la.dot(n, v) == off)

    def origin_interior(self):
        return all(off > 0 for _n, off in self.facets)


def convex_hull(points):
    """Exact hull of a full-dimensional set of integer points, by double
    description (Motzkin et al. 1953; Fukuda-Prodon 1996).

    The facets a . x <= b are the extreme rays (a, b) of the cone of valid
    inequalities {(a, b) : a . p - b <= 0 for every point p}.  For the first
    n + 1 affinely independent points the cone is simplicial, its rays the
    columns of one scaled inverse.  Every further point p cuts it by
    a . p - b <= 0: the rays it violates go, and each violating ray that is
    adjacent to a satisfying one (no third ray vanishes on every point on
    which both vanish) gives the primitive combination of the two that
    vanishes on p.  Zero sets are bitmasks over the points.  The vertices
    are the points whose incident facet normals span the space.  Raises
    ValueError unless every point has n coordinates and n + 1 of them are
    affinely independent.
    """
    points = sorted({tuple(int(x) for x in p) for p in points})
    if not points:
        raise ValueError("no points")
    n = len(points[0])
    if any(len(p) != n for p in points):
        raise ValueError(f"hull of points with other than {n} coordinates")
    lifted = [p + (-1,) for p in points]
    simplex = la.pivot_columns(la.transpose(lifted), len(points))
    if len(simplex) <= n:
        raise ValueError("hull is not full-dimensional")
    det, adj = la.scaled_inverse([lifted[i] for i in simplex])
    # H (-det adj) = -det^2 I for H the simplex rows: column k of -det adj
    # vanishes on every simplex point but the k-th
    on_all = sum(1 << i for i in simplex)
    rays = [(on_all ^ 1 << i, la.primitive(la.vscale(-det, col)))
            for i, col in zip(simplex, la.transpose(adj))]
    for i in sorted(set(range(len(points))) - set(simplex)):
        h, bit = lifted[i], 1 << i
        signed = [(la.dot(h, x), z, x) for z, x in rays]
        kept = [(z | bit if s == 0 else z, x) for s, z, x in signed if s <= 0]
        plus = [r for r in signed if r[0] > 0]
        minus = [r for r in signed if r[0] < 0]
        masks = [z for z, _x in rays]
        for sp, zp, xp in plus:
            for sm, zm, xm in minus:
                z = zp & zm
                if z.bit_count() < n - 1 or any(
                    z & w == z and w != zp and w != zm for w in masks
                ):
                    continue
                combined = la.vsub(la.vscale(sp, xm), la.vscale(sm, xp))
                kept.append((z | bit, la.primitive(combined)))
        rays = kept
    vertices = tuple(
        p for i, p in enumerate(points)
        if la.rank([x[:n] for z, x in rays if z >> i & 1], n) == n
    )
    return LatticePolytope(vertices, tuple(sorted((x[:n], x[n]) for _z, x in rays)))


# -- convexity of the fan polytope ------------------------------------------

ZERO = "Zero"
SINGLE_RAY = "SingleRay"
RAY_SUM = "RaySum"
NONCONVEX_POSITIVE = "NonconvexPositive"
NOT_POSITIVE = "NotPositive"


class WallClass(namedtuple("WallClass", "wall kind data", defaults=((),))):
    """The class `kind` of a wall, given as its sorted shared ray indices,
    and the `data` the class reads off it: the shared ray of SingleRay, the
    shared rays with multiplicity of RaySum, the coefficients of the other
    classes but Zero."""

    __slots__ = ()


class ConvexityReport(namedtuple("ConvexityReport", "convex walls")):
    """Whether the fan polytope is convex, and a WallClass per wall."""

    __slots__ = ()


def convexity_report(fan):
    """Classify r_a + r_b, the sum of a wall's free rays, in the basis of
    its shared rays, by the first chamber's inverse rows, over every wall.

    The sum s of the shared-ray coefficients is the same from either side,
    and v_C . r_b = s - 1 for C the first chamber, so the fan polytope is
    convex iff s <= 2 on every wall: the toric criterion (Cox-Little-Schenck,
    Toric Varieties, 2011, section 6.1).  The classes are the paper's
    exchange-triangle classification on g-fans, whose coefficients are
    >= 0; other fans can have NotPositive walls and still be convex.
    """
    rows, chambers, across = _inverse_rows(fan), fan.chambers, fan.walls.across
    classes = [_wall_class(fan, ca, k, chambers[cb][across[cb].index(ca)], rows[ca])
               for ca, k, cb in fan.walls.positions()]
    return ConvexityReport(all(s <= 2 for _wc, s in classes),
                           tuple(wc for wc, _s in classes))


def _inverse_rows(fan):
    """rows[C][k], for each chamber C and the k-th ray of C, is row k of
    the inverse of C's ray matrix: the normal of C's wall opposite that
    ray, signed to be 1 on it.  A wall's normal is that row for its first
    chamber, and its negative is the row of the second; each distinct
    normal and its negative are one tuple each, shared by every row that
    is theirs."""
    require_certified(fan, "convexity")
    return list(map(fan.walls.inverse, range(len(fan.chambers))))


def _wall_class(fan, ca, k, free_b, rows):
    """The WallClass of the wall of chamber ca opposite its k-th ray free_a,
    free_b the ray across it, and the sum of its shared-ray coefficients;
    rows are ca's inverse rows (`_inverse_rows`).  The last of coeffs, at
    free_a, is 0: the normal is 1 on free_a and -1 on free_b."""
    chamber = fan.chambers[ca]
    shared = chamber[:k] + chamber[k + 1:]
    total = la.vadd(fan.rays[chamber[k]], fan.rays[free_b])
    coeffs = tuple(la.dot(row, total) for row in rows[:k] + rows[k + 1:] + (rows[k],))
    shared_part = coeffs[:-1]
    if any(c < 0 for c in shared_part):
        kind, data = NOT_POSITIVE, coeffs
    elif all(c == 0 for c in shared_part):
        kind, data = ZERO, ()
    elif sum(shared_part) == 1:
        kind, data = SINGLE_RAY, (shared[shared_part.index(1)],)
    elif sum(shared_part) == 2 and all(c <= 2 for c in shared_part):
        kind, data = RAY_SUM, tuple(shared[i] for i, c in enumerate(shared_part) for _ in range(c))
    else:
        kind, data = NONCONVEX_POSITIVE, coeffs
    return WallClass(shared, kind, data), sum(shared_part)


def _polar_pair(fan):
    """The g-polytope of a convex fan, its dual, and v_C for each chamber C.

    v_C = (M_C^T)^-1 1 is the sum of the rows of M_C^-1, the chamber's signed
    wall normals, so it is integral (reflexivity).  NotConvex is raised at
    the first wall with v_C . r_a > 1, C its second chamber and r_a the
    free ray of the first, the same value as from the first side: the toric
    criterion of `convexity_report`.  The g-polytope has the facets
    v_C . x <= 1 and as vertices the rays whose incident v_C span the
    space; its dual has the two lists swapped.
    """
    if fan.rank == 0:
        raise ValueError("a rank-0 fan has no polytope")
    rays, chambers = fan.rays, fan.chambers
    per_chamber = tuple(tuple(map(sum, zip(*rows))) for rows in _inverse_rows(fan))
    for ca, k, cb in fan.walls.positions():
        if la.dot(per_chamber[cb], rays[chambers[ca][k]]) > 1:
            raise NotConvex("fan polytope is not convex")
    duals = tuple(sorted(set(per_chamber)))
    # a ray's incident v_C, each as its place in `duals`
    place = {v: t for t, v in enumerate(duals)}
    incident = [set() for _ in rays]
    for c, v in zip(chambers, per_chamber):
        t = place[v]
        for i in c:
            incident[i].add(t)
    vertices = tuple(sorted(r for r, ts in zip(rays, incident)
                            if la.rank([duals[t] for t in ts], fan.rank) == fan.rank))
    g = LatticePolytope(vertices, tuple((v, 1) for v in duals))
    return g, LatticePolytope(duals, tuple((r, 1) for r in vertices)), per_chamber


def g_polytope(fan):
    """Convex hull of all rays; requires the fan polytope to be convex."""
    return _polar_pair(fan)[0]


def dual_polytope(fan):
    """Dual polytope, its reflexivity flag (always True: every v_C is
    integral) and the vertex v_C of each chamber, in chamber order."""
    _g, dual, per_chamber = _polar_pair(fan)
    return dual, True, per_chamber


def smooth_fano(poly):
    """True iff every facet's vertex set is a lattice basis."""
    if not poly.origin_interior():
        raise OriginNotInterior("smooth-Fano test needs the origin strictly inside")
    n = poly.rank
    for facet in poly.facets:
        fv = poly.facet_vertices(facet)
        if len(fv) != n:
            return False
        if la.determinant(la.transpose(fv)) not in (1, -1):
            return False
    return True


# -- rank-2 classification ---------------------------------------------------

# ray sets of the seven convex g-polygons, base chamber cone{e1, e2}
CANONICAL_RANK2 = (
    frozenset({(1, 0), (0, 1), (-1, 0), (0, -1)}),
    frozenset({(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1)}),
    frozenset({(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1), (1, -1)}),
    frozenset({(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1), (-2, 1)}),
    frozenset({(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1), (-2, 1), (1, -1)}),
    frozenset({(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1), (-2, 1), (1, -1), (2, -1)}),
    frozenset({(1, 0), (0, 1), (-1, 0), (0, -1), (-1, 1), (-2, 1), (1, -1), (1, -2)}),
)


def canonical_rank2_fan(klass):
    """Build the canonical fan of one of the seven classes (1-based)."""
    rays = sorted(CANONICAL_RANK2[klass - 1])
    return rank2_fan_from_rays(rays)


def angle_key(v):
    """Sort key of a nonzero rank-2 vector by its angle from e1, in [0, 2 pi)."""
    from fractions import Fraction

    x, y = v
    half = 0 if y > 0 or (y == 0 and x > 0) else 1
    return (half, 0 if y == 0 else 1, Fraction(-x, y) if y != 0 else Fraction(0))


def rank2_fan_from_rays(rays):
    """Complete rank-2 fan with chambers the angularly consecutive ray pairs,
    base chamber cone{e1, e2}."""
    ordered = sorted(rays, key=angle_key)
    cones = zip(ordered, ordered[1:] + ordered[:1])
    return fan_from_cones(cones, ((1, 0), (0, 1)))


def rank2_classify(fan):
    """Match a complete rank-2 fan against the seven convex polygon classes.

    Returns the 1-based class, or None for every fan outside the seven
    classes, convex or not.  A complete rank-2 fan is determined by its ray
    set, and each canonical set is convex, so the rays alone decide: their
    image under the base chamber's inverse (`Walls.inverse`) is matched as
    it is, swapped, negated, and swapped and negated, the unimodular maps
    carrying the base chamber onto the positive quadrant or its negative.
    """
    if fan.rank != 2:
        raise NotRank2(f"fan has rank {fan.rank}")
    require_certified(fan, "classification")
    s_inv = fan.walls.inverse(fan.base)
    image = [la.matvec(s_inv, r) for r in fan.rays]
    for x, y in ((0, 1), (1, 0)):
        for sign in (1, -1):
            rays = frozenset((sign * v[x], sign * v[y]) for v in image)
            if rays in CANONICAL_RANK2:
                return CANONICAL_RANK2.index(rays) + 1
    return None


# -- root polytopes -----------------------------------------------------------


def root_polytope(type_, n):
    """Hull of the A_n or C_n root system in the simple-root basis, with the
    roots of `weyl.root_system`.

    C_n has the transpose of B_n's Cartan matrix and symmetrizer
    (2, ..., 2, 1): the long simple root 2 u_n comes last.  C_1 is A_1.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    t = type_.upper()
    if t == "A":
        cartan = cartan_preset("A", n)
    elif t == "C":
        cartan = CartanData(la.transpose(cartan_preset("B", n).c), (2,) * (n - 1) + (1,))
    else:
        raise ValueError(f"root polytope type must be A or C, got {type_!r}")
    roots, _short = root_system(cartan)
    return convex_hull(roots)


def short_root_polytope(cartan):
    """Convex hull of the short roots in simple-root coordinates."""
    _roots, short = root_system(cartan)
    return convex_hull(sorted(short))
