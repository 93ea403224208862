"""Closed-form references for the benchmark's output checks.

Every value here comes from a published formula, never from tiltfan, so a
check against it is independent of the code under test.
"""

from math import comb, factorial


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def narayana_h(n):
    """h-vector of the A_n cluster complex: Narayana numbers N(n+1, k+1)."""
    return tuple(comb(n + 1, k) * comb(n + 1, k + 1) // (n + 1) for k in range(n + 1))


def eulerian_a(n):
    """Descent numbers of S_{n+1}, the Weyl group of type A_n."""
    m = n + 1
    return tuple(
        sum((-1) ** j * comb(m + 1, j) * (k + 1 - j) ** m for j in range(k + 1))
        for k in range(n + 1)
    )


def eulerian_b(n):
    """Descent numbers of the hyperoctahedral group, the Weyl group of type B_n."""
    return tuple(
        sum((-1) ** (k - j) * comb(n + 1, k - j) * (2 * j + 1) ** n for j in range(k + 1))
        for k in range(n + 1)
    )


def eulerian(type_, n):
    return eulerian_a(n) if type_ == "A" else eulerian_b(n)


def weyl_order(type_, n):
    return factorial(n + 1) if type_ == "A" else 2**n * factorial(n)


def root_count(type_, n):
    """|Phi| for A_n, and for B_n or C_n (which have equally many roots)."""
    return n * (n + 1) if type_ == "A" else 2 * n * n


def short_root_count(type_, n):
    return n * (n + 1) if type_ == "A" else 2 * n


def f_type_a(n):
    return tuple(
        factorial(n + m) // (factorial(m) ** 2 * factorial(n - m)) for m in range(n + 1)
    )


def h_type_a(n):
    return tuple(comb(n, k) ** 2 for k in range(n + 1))


def f_type_c(n):
    return tuple(n * 2 ** (2 * m) * comb(n + m, 2 * m) // (n + m) for m in range(n + 1))


def h_type_c(n):
    return tuple(comb(2 * n, 2 * k) for k in range(n + 1))


def f_from_h(h):
    """f-vector (f_-1, ..., f_{n-1}) of a simplicial sphere with h-vector h."""
    n = len(h) - 1
    return tuple(sum(comb(n - i, j - i) * h[i] for i in range(j + 1)) for j in range(n + 1))


def ehrhart(h, ell):
    """Lattice points in the ell-th dilate of a unimodular fan polytope."""
    n = len(h) - 1
    return sum(comb(n + ell - j, n) * h[j] for j in range(min(ell, n) + 1))


def report(h, ell_max):
    """The fields of `tiltfan analyze` that a closed form determines."""
    return {
        "f": list(f_from_h(h)),
        "h": list(h),
        "dehn_sommerville": True,
        "ehrhart": {str(ell): ehrhart(h, ell) for ell in range(1, ell_max + 1)},
    }


def is_type_a_root(v):
    """e_u - e_v with u != v."""
    return sorted(x for x in v if x) == [-1, 1]


def is_type_c_root(v):
    """+-2 e_u, or +-e_u +- e_v with u != v."""
    nonzero = [abs(x) for x in v if x]
    return nonzero == [2] or nonzero == [1, 1]
