"""Lattice polytopes by exact arithmetic: convexity of fan polytopes, the
g-polytope and its dual read off the chamber inverses in every rank,
reflexivity, the smooth-Fano test, the rank-2 classification, and root
polytopes of types A and C, hulls of the roots of `weyl.root_system` in
rank <= 4."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from . import lattice as la
from .errors import (
    DimensionTooLarge,
    IncompleteFan,
    NotConvex,
    NotRank2,
    OriginNotInterior,
)
from .fan import CERTIFIED, fan_from_cones, inverse_from_normals
from .weyl import CartanData, cartan_preset, root_system


@dataclass(frozen=True)
class LatticePolytope:
    vertices: tuple  # integer vectors, sorted
    facets: tuple  # (normal, offset) pairs, normal . x <= offset, primitive integer

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


def _hyperplane_through(points, rank):
    """Primitive (normal, offset) of the affine hyperplane through the points,
    or None if they are affinely dependent."""
    diffs = [la.vsub(p, points[0]) for p in points[1:]]
    try:
        normal = la.kernel_functional(diffs, rank)
    except ValueError:
        return None
    return normal, la.dot(normal, points[0])


def convex_hull(points, rank=None):
    """Exact hull of full-dimensional integer point sets in rank <= 4.

    Facets come from supporting hyperplanes through rank-subsets; vertices
    are the points whose active facet normals span the whole space.
    """
    points = sorted({tuple(int(x) for x in p) for p in points})
    if not points:
        raise ValueError("no points")
    rank = rank or len(points[0])
    if rank == 1:
        lo, hi = points[0], points[-1]
        if lo == hi:
            raise ValueError("hull is not full-dimensional")
        return LatticePolytope((lo, hi), (((1,), hi[0]), ((-1,), -lo[0])))
    if rank > 4:
        raise DimensionTooLarge("hull implemented for rank <= 4 only")

    facets = {}
    for sub in combinations(points, rank):
        hp = _hyperplane_through(list(sub), rank)
        if hp is None:
            continue
        normal, off = hp
        vals = [la.dot(normal, p) - off for p in points]
        if all(v <= 0 for v in vals):
            facets[(normal, off)] = True
        elif all(v >= 0 for v in vals):
            facets[(la.vneg(normal), -off)] = True
    if not facets:
        raise ValueError("hull is not full-dimensional")

    vertices = []
    for p in points:
        active = [n for (n, off) in facets if la.dot(n, p) == off]
        if len(active) >= rank and la.rank(active, rank) == rank:
            vertices.append(p)
    return LatticePolytope(tuple(sorted(vertices)), tuple(sorted(facets)))


# -- convexity of the fan polytope ------------------------------------------

ZERO = "Zero"
SINGLE_RAY = "SingleRay"
RAY_SUM = "RaySum"
NONCONVEX_POSITIVE = "NonconvexPositive"
NOT_POSITIVE = "NotPositive"


@dataclass(frozen=True)
class WallClass:
    wall: tuple  # sorted shared ray indices
    kind: str
    data: tuple = ()


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    walls: tuple  # WallClass per wall


def convexity_report(fan):
    """Classify v + v' over every wall in the shared-ray basis.

    The sum of the two free rays is an integer combination of the shared
    rays (unimodularity); the fan polytope is convex iff every wall gives
    0, one shared ray, or a sum of two shared rays.  The coefficients are
    read off the inverse of the wall's first chamber's ray matrix, whose
    rows are the fan's signed wall normals; each chamber's inverse is
    rebuilt once, for all the walls it is first in.
    """
    if fan.complete != CERTIFIED:
        raise IncompleteFan("convexity requires a certified-complete fan")
    normals = {w.shared: w.normal for w in fan.walls}
    first_in = [[] for _ in fan.chambers]
    for wi, w in enumerate(fan.walls):
        first_in[w.chambers[0]].append(wi)
    out = [None] * len(fan.walls)
    for ca, wall_indices in enumerate(first_in):
        if not wall_indices:
            continue
        idx = sorted(fan.chambers[ca])
        row_of = dict(zip(idx, inverse_from_normals(fan.rays, idx, normals)))
        for wi in wall_indices:
            out[wi] = _wall_class(fan, fan.walls[wi], row_of)
    convex = all(wc.kind in (ZERO, SINGLE_RAY, RAY_SUM) for wc in out)
    return ConvexityReport(convex, tuple(out))


def _wall_class(fan, w, row_of):
    """The WallClass of wall w; row_of maps each ray of its first chamber
    to the matching row of that chamber's inverse ray matrix."""
    shared = sorted(w.shared)
    (free_a,), (free_b,) = (fan.chambers[ci] - w.shared for ci in w.chambers)
    total = la.vadd(fan.rays[free_a], fan.rays[free_b])
    coeffs = tuple(la.dot(row_of[i], total) for i in shared + [free_a])
    shared_part, last = coeffs[:-1], coeffs[-1]
    if last != 0 or any(c < 0 for c in shared_part):
        kind, data = NOT_POSITIVE, coeffs
    elif all(c == 0 for c in shared_part):
        kind, data = ZERO, ()
    elif sum(shared_part) == 1:
        kind, data = SINGLE_RAY, (shared[shared_part.index(1)],)
    elif sum(shared_part) == 2 and all(c <= 2 for c in shared_part):
        kind, data = RAY_SUM, tuple(shared[i] for i, c in enumerate(shared_part) for _ in range(c))
    else:
        kind, data = NONCONVEX_POSITIVE, coeffs
    return WallClass(tuple(shared), kind, data)


def _polar_pair(fan):
    """The g-polytope of a convex fan, its dual, and v_C for each chamber C.

    v_C = (M_C^T)^-1 1 is the sum of the rows of M_C^-1, the chamber's signed
    wall normals, so it is integral (reflexivity).  The g-polytope has the
    facets v_C . x <= 1 and as vertices the rays whose incident v_C span the
    space; its dual has the two lists swapped.
    """
    if fan.rank == 0:
        raise ValueError("a rank-0 fan has no polytope")
    if not convexity_report(fan).convex:
        raise NotConvex("fan polytope is not convex")
    normals = {w.shared: w.normal for w in fan.walls}
    per_chamber = tuple(tuple(map(sum, zip(*inverse_from_normals(fan.rays, sorted(c), normals))))
                        for c in fan.chambers)
    incident = [set() for _ in fan.rays]
    for c, v in zip(fan.chambers, per_chamber):
        for i in c:
            incident[i].add(v)
    vertices = tuple(sorted(r for r, vs in zip(fan.rays, incident)
                            if la.rank(vs, fan.rank) == fan.rank))
    duals = tuple(sorted(set(per_chamber)))
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
        if la.determinant(la.from_columns(list(fv))) not in (1, -1):
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
    x, y = v
    half = 0 if y > 0 or (y == 0 and x > 0) else 1
    return (half, 0 if y == 0 else 1, Fraction(-x, y) if y != 0 else Fraction(0))


def rank2_fan_from_rays(rays, base_pair=((1, 0), (0, 1))):
    """Complete rank-2 fan with chambers the angularly consecutive ray pairs."""
    ordered = sorted(rays, key=angle_key)
    cones = zip(ordered, ordered[1:] + ordered[:1])
    return fan_from_cones(cones, base_pair, require_complete=True)


def rank2_classify(fan):
    """Match a complete rank-2 fan against the seven convex polygon classes.

    Returns the 1-based class, or None when the polytope is not convex.
    Normalizes by the unimodular maps carrying the base chamber onto the
    positive quadrant or its negative.
    """
    if fan.rank != 2:
        raise NotRank2(f"fan has rank {fan.rank}")
    if fan.complete != CERTIFIED:
        raise IncompleteFan("classification requires a certified-complete fan")
    if not convexity_report(fan).convex:
        return None
    s = fan.base_matrix()
    s_inv = la.invert_unimodular(s)
    targets = [
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((-1, 0), (0, -1)),
        ((0, -1), (-1, 0)),
    ]
    for t1, t2 in targets:
        m = la.matmul(la.from_columns([t1, t2]), s_inv)
        image = frozenset(tuple(la.matvec(m, r)) for r in fan.rays)
        for k, canon in enumerate(CANONICAL_RANK2, start=1):
            if image == canon:
                return k
    raise ValueError("convex rank-2 fan outside the canonical classification")


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
    return convex_hull(roots, n)


# -- lattice isomorphism (rank <= 3) ------------------------------------------


def compare_fan_invariants(fan_a, fan_b, ell_max=3):
    """Invariant-level comparison for fans beyond the isomorphism-search cap.

    Compares f-vectors, g-polytope vertex counts (for convex inputs) and
    Ehrhart counts up to ell_max; "match" is a necessary condition only,
    never an isomorphism claim.
    """
    from .combinatorics import ehrhart_count, f_vector, h_vector

    def profile(fan):
        f = f_vector(fan)
        h = h_vector(f)
        try:
            hull_vertices = len(g_polytope(fan).vertices)
        except NotConvex:
            hull_vertices = None
        return {
            "f": f,
            "hull_vertices": hull_vertices,
            "ehrhart": tuple(ehrhart_count(h, ell) for ell in range(1, ell_max + 1)),
        }

    pa, pb = profile(fan_a), profile(fan_b)
    return ("match" if pa == pb else "differ"), pa, pb


def lattice_iso(p, q):
    """Unimodular map carrying the vertex set of p onto that of q, or None.

    Brute force: anchor an independent vertex tuple of p and try every
    ordered tuple of q's vertices as its image; first match wins under a
    deterministic ordering.
    """
    n = p.rank
    if n != q.rank:
        return None
    if n > 3:
        raise DimensionTooLarge("isomorphism search implemented for rank <= 3")
    if len(p.vertices) != len(q.vertices):
        return None
    anchor = None
    for sub in combinations(p.vertices, n):
        if la.determinant(la.from_columns(list(sub))) != 0:
            anchor = sub
            break
    if anchor is None:
        return None
    a_mat = la.from_columns(list(anchor))
    p_set = set(p.vertices)
    q_set = set(q.vertices)
    for image in permutations(q.vertices, n):
        # solve M * anchor_i = image_i  =>  M = image_mat * anchor_mat^{-1}
        img_mat = la.from_columns(list(image))
        m = _rational_matmul_inverse(img_mat, a_mat)
        if m is None:
            continue
        if la.determinant(m) not in (1, -1):
            continue
        if {tuple(la.matvec(m, v)) for v in p_set} == q_set:
            return m
    return None


def _rational_matmul_inverse(img_mat, a_mat):
    """Integer matrix M with M a_mat = img_mat, or None."""
    inv = la.scaled_inverse(a_mat)
    if inv is None:
        return None
    d, adj = inv
    m = la.matmul(img_mat, adj)  # d * M
    if any(x % d for row in m for x in row):
        return None
    return tuple(tuple(x // d for x in row) for row in m)
