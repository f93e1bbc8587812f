"""Gauss-Jordan elimination over Q: the reference that the column Hermite
helpers of ``polytope`` must equal.  Rank, kernel line, span coordinates and
determinant come from reduced rows here, and the cone's facets from a search
over (n - 1)-subsets of the generators, with no Hermite form anywhere."""

import itertools
from fractions import Fraction
from math import gcd, lcm

from dworksum.polytope import sign_normal


def row_reduce(rows, ncols=None):
    """Gauss-Jordan over Q: (reduced rows, pivot columns, determinant).

    Pivots are sought only in the first ncols columns (default: all), so any
    further columns ride along as right-hand sides.  The determinant is that
    of a square matrix, and 0 whenever the rank falls short of the row
    count."""
    m = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][col]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots, det if len(pivots) == len(m) else Fraction(0)


def mat_rank(rows) -> int:
    return len(row_reduce(rows)[1])


def det(rows) -> int:
    return abs(int(row_reduce(rows)[2]))


def kernel_line(rows, n: int):
    """Primitive integer vector spanning the kernel of the rows in R^n, sign
    normalized, or None unless the kernel is exactly one-dimensional."""
    m, pivots, _ = row_reduce(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * n
    v[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        v[col] = -m[r][free[0]]
    den = lcm(*[x.denominator for x in v])
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return sign_normal(tuple(x // g for x in ints))


def solve_in_span(basis, target):
    """Coefficients c with sum c_i basis_i = target, for independent basis
    vectors and target in their span."""
    k = len(basis)
    m, pivots, _ = row_reduce(
        [[b[i] for b in basis] + [target[i]] for i in range(len(target))], k
    )
    sol = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        sol[col] = m[r][k]
    return sol


def cone_facets(config):
    """Inward primitive normals of the cone over the columns, found as the
    kernel lines of (n - 1)-subsets of generators with every generator on
    one side."""
    n = config.n
    cone = set()
    gens = [w for w in set(config.columns) if any(w)]
    for S in itertools.combinations(gens, n - 1):
        nu = kernel_line(S, n)
        if nu is None:
            continue
        vals = [sum(a * b for a, b in zip(nu, w)) for w in gens]
        if all(v >= 0 for v in vals):
            cone.add(nu)
        elif all(v <= 0 for v in vals):
            cone.add(tuple(-x for x in nu))
    return sorted(cone)
