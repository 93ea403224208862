"""Enumerative invariants of a complete fan: f-, h- and gamma-vectors,
Dehn-Sommerville symmetry, Ehrhart counts (closed form and brute force).

The f-vector is counted from the chamber inverses (`f_vector`), not from
the faces, which `fan.faces` lists.  h_i counts the chambers that cross i
walls toward the base chamber's test point, so on a g-fan a chamber
crosses toward it along the arrows into it in the Hasse quiver
(`fan.hasse_orient`), and as h is palindromic, the count is the paper's:
h_i counts the 2-term silting complexes with i left mutations, the
out-degrees of that quiver.
"""

from collections import Counter
from itertools import combinations_with_replacement
from math import comb

from .errors import NotPalindromic
from .fan import faces  # noqa: F401 (re-exported)
from .fan import base_point, holds_test_point, require_certified


def f_vector(fan):
    """(f_-1, f_0, ..., f_{n-1}) where f_{i-1} counts i-element faces.

    h_i is the number of chambers that cross i walls toward the test point
    y0 + eps e_1 + eps^2 e_2 + ... of the base chamber (Fulton 1993, 5.2),
    and f follows by `recover_f`.  Row k of a chamber's inverse is 1 on its
    k-th ray and 0 on the wall opposite, so the chamber crosses that wall
    toward the point iff the row fails it (`holds_test_point`): h_i counts
    the chambers with exactly i failing rows, one verdict per distinct row
    (`Walls.rows`), then one count per chamber.  h_0 is `build_fan`'s
    covering count.
    """
    require_certified(fan, "f-vector")
    walls = fan.walls
    y0 = base_point(fan.rays, fan.chambers[fan.base])
    failing = {r for r, row in enumerate(walls.rows) if not holds_test_point(1, (row,), y0)}
    counts = Counter(map(len, map(failing.intersection, walls.inverses)))
    return recover_f([counts[i] for i in range(fan.rank + 1)])


def h_vector(f):
    """Coefficients of h(x) = f(x-1); inverse of recover_f."""
    n = len(f) - 1
    return tuple(
        sum((-1) ** (j - i) * comb(n - i, j - i) * f[i] for i in range(j + 1))
        for j in range(n + 1)
    )


def recover_f(h):
    """f-vector from the h-vector; round-trips with h_vector."""
    n = len(h) - 1
    return tuple(sum(comb(n - i, j - i) * h[i] for i in range(j + 1)) for j in range(n + 1))


def dehn_sommerville(h):
    return all(h[j] == h[len(h) - 1 - j] for j in range(len(h)))


def gamma_vector(h):
    """Unique gamma with h(x) = sum gamma_i x^i (1+x)^(n-2i); needs palindromic h."""
    if not dehn_sommerville(h):
        raise NotPalindromic(f"h-vector {h} is not palindromic")
    n = len(h) - 1
    # work with descending coefficients [h_0, ..., h_n] of h(x) = sum h_i x^(n-i)
    rem = list(h)
    gamma = []
    for i in range(n // 2 + 1):
        g = rem[i]
        gamma.append(g)
        # subtract g * x^i * (1+x)^(n-2i): descending coeffs sit at offsets i..n-i
        for k in range(n - 2 * i + 1):
            rem[i + k] -= g * comb(n - 2 * i, k)
    return tuple(gamma)


def ehrhart_count(h, ell):
    """Number of lattice points of the ell-th dilate, from the h-vector."""
    n = len(h) - 1
    total = 0
    for j in range(n + 1):
        k = n + ell - j
        if k >= n:
            total += comb(k, n) * h[j]
    return total


def ehrhart_bruteforce(fan, ell):
    """Exact count of points of the ell-th dilate of the fan's polytope.

    Still brute force: every point is listed and deduplicated.  Inside a
    chamber the points are the sums of t of its rays, repeats allowed, for
    t = 0..ell (the multisets of `combinations_with_replacement`); the
    chambers are unimodular, so these are all of its lattice points.  A
    rank-0 fan has the one point 0.
    """
    require_certified(fan, "Ehrhart enumeration")
    if ell < 1:
        raise ValueError("dilation factor must be >= 1")
    points = {(0,) * fan.rank}
    for c in fan.chambers:
        rays = [fan.rays[i] for i in c]
        for t in range(1, ell + 1):
            points.update(tuple(map(sum, zip(*combo)))
                          for combo in combinations_with_replacement(rays, t))
    return len(points)


def analyze(fan, ell_max=4):
    """Full invariant report used by the CLI `analyze` command."""
    f = f_vector(fan)
    h = h_vector(f)
    palindromic = dehn_sommerville(h)
    return {
        "f": list(f),
        "h": list(h),
        "gamma": list(gamma_vector(h)) if palindromic else None,
        "dehn_sommerville": palindromic,
        "ehrhart": {str(ell): ehrhart_count(h, ell) for ell in range(1, ell_max + 1)},
    }
