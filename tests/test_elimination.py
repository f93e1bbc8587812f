"""The column Hermite helpers of ``polytope`` against the Gauss-Jordan
reference of ``gauss_jordan``: rank, kernel line, determinant, span
coordinates, the affine-hull basis and the cone's facets agree exactly on
seeded sweeps over integer and rational matrices."""

from fractions import Fraction
from math import lcm

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import gauss_jordan as gj
from dworksum import polytope as pt

SWEEP = dict(deadline=None, derandomize=True, database=None,
             suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


@st.composite
def matrices(draw, entries):
    """(rows, n): 1..4 rows in Q^n, n <= 4; a row may be a multiple of
    another, so every rank below the row count turns up."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    rows = [tuple(draw(entries) for _ in range(n)) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(k)))[:2]
        a = draw(st.integers(-2, 2))
        rows[i] = tuple(a * x for x in rows[j])
    return rows, n


def combine(basis, c, n):
    return tuple(sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(n))


def check_helpers(data, rows, n):
    assert pt.mat_rank(rows) == gj.mat_rank(rows)
    assert pt.kernel_line(rows, n) == gj.kernel_line(rows, n)
    hermite = pt.column_hermite(rows, n)
    pivot_rows = [r for r, _ in hermite[2]]
    # the pivot rows are the greedy independent rows: the pivot columns of the
    # matrix whose columns are the rows
    assert pivot_rows == gj.row_reduce(list(zip(*rows)))[1]
    basis = [rows[r] for r in pivot_rows]
    drawn = [
        [Fraction(data.draw(st.integers(-3, 3), "c")) for _ in basis]
        for _ in range(2)
    ]
    for target in rows + [combine(basis, c, n) for c in drawn]:
        c = pt._solve_in_span(hermite, target)
        assert all(type(x) is Fraction for x in c)
        assert combine(basis, c, n) == tuple(Fraction(x) for x in target)
        assert c == gj.solve_in_span(basis, target)
    for c in drawn:
        assert pt._solve_in_span(hermite, combine(basis, c, n)) == c
    diffs = [tuple(a - b for a, b in zip(p, rows[0])) for p in rows]
    hull = [diffs[j] for j in gj.row_reduce(list(zip(*diffs)))[1]]
    assert pt._affine_coordinates(rows) == (
        len(hull), [tuple(gj.solve_in_span(hull, d)) for d in diffs]
    )


def test_kernel_line_of_no_rows():
    # a one-point facet subset in one dimension
    assert pt.kernel_line([], 1) == gj.kernel_line([], 1) == (1,)


@settings(max_examples=300, **SWEEP)
@given(data=st.data(), case=matrices(st.integers(-4, 4)))
def test_integer_helpers_match_gauss_jordan(data, case):
    rows, n = case
    check_helpers(data, rows, n)
    if len(rows) == n:
        assert pt.Simplex(rows).det == gj.det(rows)


@settings(max_examples=150, **SWEEP)
@given(data=st.data(),
       case=matrices(st.fractions(min_value=-4, max_value=4, max_denominator=6)))
def test_rational_helpers_match_gauss_jordan(data, case):
    # the facet search of the triangulation runs on rational affine coordinates
    rows, n = case
    check_helpers(data, rows, n)


@st.composite
def configurations(draw):
    n = draw(st.integers(1, 4))
    N = draw(st.integers(n, n + 3))
    A = [[draw(st.integers(-3, 3)) for _ in range(N)] for _ in range(n)]
    assume(gj.mat_rank(A) == n)
    return pt.ExponentConfig(A)


@settings(max_examples=120, **SWEEP)
@given(config=configurations())
def test_newton_data_matches_reference(config):
    nd = pt.newton_data(config)
    # the cone's facets read off the hull equal the (n - 1)-subset search
    assert nd.cone_facets == gj.cone_facets(config)
    functionals = [tuple(Fraction(x, c) for x in nu) for nu, c in nd.facets if c]
    got = [tuple(Fraction(x, nd.denom) for x in L) for L in nd.facet_rows]
    assert got == functionals
    assert nd.denom == lcm(*(x.denominator for l in functionals for x in l))
