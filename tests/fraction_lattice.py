"""The lattice enumeration one Fraction weight at a time: the reference that
``polytope.LatticePointSet`` must equal point for point and weight for
weight.  It walks the same box and calls ``NewtonData.weight`` per point."""

import itertools
from fractions import Fraction

from dworksum.polytope import OUTSIDE_CONE


def reference_points(nd, cap, offset=None):
    """(points, weights) with w + offset in the cone and d(w + offset) <= cap,
    sorted by (weight, lex)."""
    cap = Fraction(cap)
    n = nd.config.n
    offset = tuple(Fraction(x) for x in offset) if offset else (Fraction(0),) * n
    pts = nd.points
    lo = [min(cap * min(p[i] for p in pts), 0) - offset[i] for i in range(n)]
    hi = [max(cap * max(p[i] for p in pts), 0) - offset[i] for i in range(n)]
    found = []
    ranges = [range(int(lo[i]) - 2, int(hi[i]) + 3) for i in range(n)]
    for w in itertools.product(*ranges):
        d = nd.weight(tuple(a + b for a, b in zip(w, offset)))
        if d is not OUTSIDE_CONE and d <= cap:
            found.append((d, w))
    found.sort()
    return [w for _, w in found], [d for d, _ in found]
