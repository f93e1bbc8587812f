"""Readings of a ``dwork.SeriesBox`` that only the tests take: its support,
one coefficient, the certified valuation floor of a coefficient and the
diagonal sum, each read straight off the box table; and the series-side S_m
that the tests hold against the character oracle.

The package reads the box in one way only (by cell index, for the operator
matrix) and takes every diagonal by ``dwork.level_diagonal_sum``; these are
the exponent-exact readings the tests compare it against.
"""

from fractions import Fraction

import numpy as np

from dworksum import dwork, padic
from dworksum.polytope import OUTSIDE_CONE


def support(series):
    """(exponents (S, n), coeffs (S, blow)) of the nonzero cells,
    lexicographic in the exponent because the table is row-major."""
    filled = np.flatnonzero(series.coeffs.any(axis=1))
    exponents = np.stack(np.unravel_index(filled, series.dims), axis=1)
    return exponents + series.lo, series.coeffs[filled]


def coeff(series, e):
    """c_e as a ring element, from its cell; zero outside the box."""
    rel = tuple(a - b for a, b in zip(e, series.lo.tolist()))
    if not all(0 <= r < d for r, d in zip(rel, series.dims.tolist())):
        return series.params.zero()
    return series.params.from_coords(
        series.coeffs[np.ravel_multi_index(rel, series.dims)]
    )


def valuation_floor(series, nd, shift, e):
    """Certified lower bound (p-1)/(p Q) d(e - shift) on ord c_e; None means
    c_e is exactly zero (e - shift is outside the cone)."""
    d = nd.weight(tuple(a - b for a, b in zip(e, shift)))
    if d is OUTSIDE_CONE:
        return None
    p = series.params.p
    return Fraction(p - 1, p * series.Q) * d


def diagonal(series):
    """Sum of c_e over the exponents with every e_i = 0 mod Q - 1."""
    exponents, coeffs = support(series)
    on_diagonal = (exponents % (series.Q - 1) == 0).all(axis=1)
    return series.params.from_coords(coeffs[on_diagonal].sum(axis=0))


def series_oracle(config, field, a_coeffs, twist, m, M, nd):
    """S_m from the series side, (value, precision): the level-m series summed
    over the Teichmueller points of the torus, which by orthogonality is
    (q^m - 1)^n times its diagonal sum."""
    ring = padic.ring_create(field.p, field.degree, M)
    lifts = [padic.teichmueller(a, ring) for a in a_coeffs]
    diagonal = dwork.level_diagonal_sum(lifts, twist, m, nd)
    return diagonal * (field.q**m - 1) ** config.n, Fraction(M)
