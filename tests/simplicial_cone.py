"""Simplicial-cone coordinates, the reference that the cover tests of the
simplicial decomposition read: a lattice point is solved for in the span of
a simplex's vertices by back substitution on the same column Hermite
reduction that builds its cell points.
"""

from fractions import Fraction

from dworksum.polytope import _solve_in_span


def cone_coordinates(simplex, w):
    """Exact coordinates of w in the simplicial cone of simplex, or None if
    outside."""
    c = _solve_in_span(simplex.hermite, w)
    # confirm w really is the combination
    n = len(simplex.vertices)
    recon = tuple(
        sum(c[j] * simplex.vertices[j][i] for j in range(n)) for i in range(n)
    )
    if tuple(Fraction(x) for x in w) != recon:
        return None
    if all(ci >= 0 for ci in c):
        return c
    return None
