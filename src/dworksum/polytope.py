"""Combinatorics of the exponent matrix A: lattice geometry only, with no
finite field (the nondegeneracy certificate over F_{q^s} walks the field
tables in ``lfunction``).

Everything here is exact: facet and face enumeration is brute force over
small point subsets (intended scale is n <= 4, N <= 8), and triangulations
pull at deterministically chosen vertices so repeated runs agree.

Weights are integer-graded.  ``NewtonData`` holds every facet functional
once, as an integer row over the common denominator ``denom``; a lattice
point set scales its offset (for a twist gamma = k/(1 - q), denominator
q - 1) to the same integer grid, so cone membership and denom g d(w + offset)
over a whole enumeration box are two int64 matmuls and a max.
``NewtonData.weight`` reads the same rows for the single-point Fraction value
of the polytope report.

Conventions: the polytope is the convex hull of the origin and the columns
w_1..w_N of A; the cone is generated by the columns.  For w in the cone the
weight d(w) is the smallest a > 0 with w in a*polytope, computed as
max(0, max_F l_F(w)) over the facet functionals l_F that are identically 1
on the facets avoiding the origin.  d is homogeneous and subadditive and
takes values in (1/denom) Z on lattice points.  The cone is the polytope's
tangent cone at the origin, so its facets are the facets through the origin.

One exact elimination kernel carries all of the linear algebra:
``column_hermite``, the unimodular column reduction H = rows U (integer U,
integer or rational rows).  Its pivot count is ``mat_rank``; the column of U
past n - 1 pivots is ``kernel_line`` (hence the facet search ``_facets``
behind ``NewtonData`` and the pulling triangulation); the product of the
pivots is ``Simplex.det``; the pivot rows are the affine-hull basis, and
back substitution on them gives the span coordinates ``_solve_in_span`` (the
affine-hull and simplicial-cone coordinates, the cell points); the columns
of U past the pivots are the relation lattice ``gkz.lattice_kernel``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import floor, lcm, prod

import numpy as np

from .errors import BudgetExceeded, RankDeficient


# int64 coordinates above which a table is refused before it is allocated:
# 2^24 of them are 128 MB.  It bounds the lattice enumeration box here and
# the series tables of ``dwork``, whose torus product holds a few at once
TABLE_LIMIT = 2**24


# ----------------------------------------------------------------------
# exact linear algebra on small matrices
# ----------------------------------------------------------------------

def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def column_hermite(rows, N: int):
    """Unimodular column reduction of a matrix with N columns.

    Returns (H, U, pivots): H = rows @ U is column echelon, U is unimodular
    and pivots lists the (row, column) of each leading entry of H.  A row
    that vanishes on the columns not yet pivoted is skipped, so the pivot
    rows are the greedy independent rows, in order, and every column of H
    past the last pivot vanishes.  The entries may be rational: Euclid on
    (1/D) Z terminates too, and U stays integral."""
    H = [list(row) for row in rows]
    U = [[int(i == j) for j in range(N)] for i in range(N)]

    def col_add(dst, src, f):
        for row in H + U:
            row[dst] += f * row[src]

    def col_swap(a, b):
        for row in H + U:
            row[a], row[b] = row[b], row[a]

    pivots = []
    for r, row in enumerate(H):
        col = len(pivots)
        while True:
            nz = [j for j in range(col, N) if row[j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(row[j]))
            if jmin != col:
                col_swap(col, jmin)
            done = True
            for j in range(col + 1, N):
                if row[j] != 0:
                    col_add(j, col, -(row[j] // row[col]))
                    if row[j] != 0:
                        done = False
            if done:
                break
        if col < N and row[col] != 0:
            pivots.append((r, col))
    return H, U, pivots


def mat_rank(rows) -> int:
    return len(column_hermite(rows, len(rows[0]))[2])


def sign_normal(v):
    """v or -v, whichever has its first nonzero entry positive."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def kernel_line(rows, n: int):
    """Primitive integer vector spanning the kernel of the given row vectors
    in R^n, sign normalized, or None unless the kernel is exactly
    one-dimensional.  Once n - 1 columns pivot, the last column of U spans
    the kernel, and a column of a unimodular matrix is primitive."""
    _, U, pivots = column_hermite(rows, n)
    if len(pivots) != n - 1:
        return None
    return sign_normal([row[-1] for row in U])


def _solve_in_span(hermite, target):
    """Coefficients c, exact Fractions, with target = sum c_i b_i over the
    pivot rows b_i of a matrix whose column Hermite reduction is hermite =
    (H, U, pivots); target must lie in their span.  Then target @ U =
    sum c_i H[r_i], and the pivot rows of H are lower triangular on the
    pivot columns, so back substitution reads c."""
    H, U, pivots = hermite
    k = len(pivots)
    z = [Fraction(_dot(target, [row[j] for row in U])) for j in range(k)]
    T = [H[r] for r, _ in pivots]
    c = [Fraction(0)] * k
    for i in reversed(range(k)):
        c[i] = (z[i] - sum(c[l] * T[l][i] for l in range(i + 1, k))) / T[i][i]
    return c


def _facets(points, dim):
    """Facets of the convex hull of points spanning R^dim, brute force over
    dim-subsets: {(nu, c): indices of the points tight on <nu, x> = c}, with
    nu primitive and every point satisfying <nu, x> <= c."""
    facets = {}
    for S in itertools.combinations(range(len(points)), dim):
        base = points[S[0]]
        nu = kernel_line([_sub(points[i], base) for i in S[1:]], dim)
        if nu is None:
            continue
        c = _dot(nu, base)
        vals = [_dot(nu, p) for p in points]
        if not all(v <= c for v in vals):
            if not all(v >= c for v in vals):
                continue
            nu, c, vals = tuple(-x for x in nu), -c, [-v for v in vals]
        # the tight set contains S, so it spans the supporting hyperplane
        facets[(nu, c)] = tuple(i for i, v in enumerate(vals) if v == c)
    return facets


# ----------------------------------------------------------------------
# configuration and Newton data
# ----------------------------------------------------------------------

class ExponentConfig:
    """Integer n x N matrix of full row rank; columns are the exponents."""

    def __init__(self, A):
        rows = [tuple(int(x) for x in row) for row in A]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix must be rectangular and nonempty")
        self.A = tuple(rows)
        self.n = len(rows)
        self.N = len(rows[0])
        self.columns = [tuple(rows[i][j] for i in range(self.n)) for j in range(self.N)]
        if mat_rank(rows) != self.n:
            raise RankDeficient(f"matrix has rank < n = {self.n}")

    def __repr__(self):
        return f"ExponentConfig({[list(r) for r in self.A]})"


class _OutsideCone:
    __slots__ = ()

    def __repr__(self):
        return "OutsideCone"


OUTSIDE_CONE = _OutsideCone()


class NewtonData:
    """Facets of the polytope, its facet functionals as integer rows over the
    weight denominator, and the inequalities of the cone."""

    def __init__(self, config: ExponentConfig):
        self.config = config
        n = config.n
        pts = [tuple([0] * n)] + config.columns
        self.points = pts  # index 0 is the origin, then columns in order

        # [(nu, c)] with nu primitive; the origin lies on a facet iff c == 0
        self.facets = sorted(_facets(sorted(set(pts)), n))

        # every point of the hull satisfies <nu, x> <= c, and the origin gives
        # 0 <= c; nu is primitive, so the functional nu / c has denominator c
        off = [(nu, c) for nu, c in self.facets if c != 0]
        if not off:
            raise RankDeficient("no facet avoids the origin; degenerate hull")
        self.denom = lcm(*(c for _, c in off))
        # one row L_F = denom * l_F per facet avoiding the origin
        self.facet_rows = [tuple(x * (self.denom // c) for x in nu) for nu, c in off]

        # the cone over the columns is the hull's tangent cone at the origin,
        # cut out by the facets through the origin (inward normals)
        self.cone_facets = sorted(
            tuple(-x for x in nu) for nu, c in self.facets if c == 0
        )

    # -- membership and weight -------------------------------------------

    def in_cone(self, w) -> bool:
        return all(_dot(nu, w) >= 0 for nu in self.cone_facets)

    def weight(self, w):
        """d(w) for w in the cone; OUTSIDE_CONE otherwise."""
        if not self.in_cone(w):
            return OUTSIDE_CONE
        return Fraction(max(0, *(_dot(L, w) for L in self.facet_rows)), self.denom)

    def faces_off_origin(self):
        """Proper faces of the hull avoiding the origin, as sorted tuples of
        column indices (0-based j with w_j on the face).  Every proper face is
        an intersection of facets; subsets of the facet list enumerate them."""
        if len(self.facets) > 20:
            raise BudgetExceeded("too many facets for exhaustive face search")
        pts = self.points
        seen = {}
        for r in range(1, len(self.facets) + 1):
            for sub in itertools.combinations(self.facets, r):
                tight = [
                    k
                    for k, p in enumerate(pts)
                    if all(_dot(nu, p) == c for nu, c in sub)
                ]
                if not tight or 0 in tight:
                    continue  # empty, or the face contains the origin
                cols = tuple(sorted(k - 1 for k in tight))
                seen[cols] = True
        return sorted(seen)


def newton_data(config: ExponentConfig) -> NewtonData:
    return NewtonData(config)


# ----------------------------------------------------------------------
# lattice point enumeration
# ----------------------------------------------------------------------

class LatticePointSet:
    """Integer points with w + offset in the cone and d(w + offset) <= cap,
    sorted by (weight, lex).  The default offset 0 enumerates the cone's own
    lattice points; a twist offset gamma enumerates the natural index set of
    the gamma-shifted monomial space (it coincides with the unshifted set
    whenever every coordinate reach of gamma is below 1).

    With g the common denominator of the offset, every weight is an integer
    grade over denom = nd.denom * g: grades[i] = denom d(w_i + offset), since
    the facet rows L_F = nd.denom l_F give denom g d(w + offset) =
    max(0, max_F <L_F, g w + g offset>).  array holds the points as an
    (len, n) int64 array."""

    def __init__(self, nd: NewtonData, cap, offset=None):
        self.cap = Fraction(cap)
        if self.cap < 0:
            raise ValueError("cap must be >= 0")
        n = nd.config.n
        offset = [Fraction(x) for x in (offset if offset is not None else [0] * n)]
        g = lcm(*(x.denominator for x in offset))
        self.denom = nd.denom * g
        pts = nd.points
        lo = [
            int(min(self.cap * min(p[i] for p in pts), 0) - offset[i]) - 2
            for i in range(n)
        ]
        hi = [
            int(max(self.cap * max(p[i] for p in pts), 0) - offset[i]) + 3
            for i in range(n)
        ]
        dims = [b - a for a, b in zip(lo, hi)]
        cells = prod(dims)
        if cells * n > TABLE_LIMIT:
            raise BudgetExceeded(
                f"lattice enumeration box needs {cells} cells of {n} coordinates "
                f"({' x '.join(map(str, dims))}) at weight cap {self.cap}, "
                f"above the limit {TABLE_LIMIT}"
            )
        # row-major, so the box is in lex order and a stable sort by grade
        # gives (weight, lex)
        box = np.indices(dims, dtype=np.int64).reshape(n, -1).T + lo
        scaled = g * box + np.array([int(x * g) for x in offset], dtype=np.int64)
        rows = np.array(nd.facet_rows, dtype=np.int64)
        cone = np.array(nd.cone_facets, dtype=np.int64).reshape(-1, n)
        grade = np.maximum((scaled @ rows.T).max(axis=1), 0)
        keep = (scaled @ cone.T >= 0).all(axis=1) & (
            grade <= floor(self.cap * self.denom)
        )
        order = np.argsort(grade[keep], kind="stable")
        self.array = box[keep][order]
        self.grades = grade[keep][order]

    def __len__(self):
        return len(self.array)


def enumerate_points(nd: NewtonData, cap, offset=None) -> LatticePointSet:
    return LatticePointSet(nd, cap, offset)


# ----------------------------------------------------------------------
# triangulation, volume, simplicial decomposition
# ----------------------------------------------------------------------

def _affine_coordinates(points):
    """Exact coordinates of the points inside their affine hull: returns
    (dim, coords) with coords[i] a tuple of Fractions of length dim.  The
    basis is the first maximal independent run of differences to points[0],
    the pivot rows of their column Hermite reduction."""
    diffs = [_sub(p, points[0]) for p in points]
    hermite = column_hermite(diffs, len(diffs[0]))
    return len(hermite[2]), [tuple(_solve_in_span(hermite, d)) for d in diffs]


def _triangulate(points):
    """Triangulate the convex hull of the given points, pulling at the
    lex-smallest point of each recursion level.  Returns simplices as tuples
    of point values; points interior to the hull are simply not used."""
    uniq = sorted(set(points))
    if len(uniq) < 2:
        return []
    return _triangulate_fulldim(uniq)


def _triangulate_fulldim(points):
    """points: distinct, spanning their affine hull."""
    dim, coords = _affine_coordinates(points)
    if dim == 0:
        return []
    if dim == 1:
        order = sorted(range(len(points)), key=lambda i: coords[i][0])
        return [
            (points[order[i]], points[order[i + 1]])
            for i in range(len(order) - 1)
        ]
    # cone the lex-smallest point over every facet avoiding it; the facets
    # are found in exact affine-hull coordinates
    v0 = min(range(len(points)), key=lambda i: points[i])
    simplices = []
    for tight in sorted(_facets(coords, dim).values()):
        if v0 not in tight:
            for s in _triangulate_fulldim([points[i] for i in tight]):
                simplices.append((points[v0],) + s)
    return simplices


class Simplex:
    """A full simplex {0, w_{i_1}, ..., w_{i_n}} of the decomposition with its
    fundamental-cell lattice points; the vertices generate its cone."""

    def __init__(self, vertices):
        self.vertices = [tuple(int(x) for x in v) for v in vertices]  # excludes 0
        n = len(self.vertices)
        self.hermite = column_hermite(self.vertices, n)
        H, _, pivots = self.hermite
        self.det = abs(prod(H[r][c] for r, c in pivots)) if len(pivots) == n else 0

    @functools.cached_property
    def cell_points(self):
        """Integer points of { sum c_i w_i : 0 <= c_i < 1 }, in lex order,
        built only when asked for.  c = x V^-1 for the vertex rows V, so
        with the integer matrix adj = |det| V^-1 (row j: the span
        coordinates of e_j, by back substitution on the reduction) a point
        x of the bounding box is in the cell iff every entry of x adj lies
        in [0, |det|): one integer test per box point."""
        n = len(self.vertices)
        V = np.array(self.vertices, dtype=np.int64)
        lo = np.minimum(V, 0).sum(axis=0)
        hi = np.maximum(V, 0).sum(axis=0)
        adj = np.array(
            [[int(c * self.det) for c in _solve_in_span(self.hermite, e)]
             for e in np.eye(n, dtype=int).tolist()],
            dtype=np.int64,
        )
        # the box in lex order: row-major over the ranges lo..hi
        axes = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
        box = np.stack([a.ravel() for a in axes], axis=1)
        c = box @ adj
        inside = ((c >= 0) & (c < self.det)).all(axis=1)
        return [tuple(x) for x in box[inside].tolist()]


class SimplicialDecomposition:
    """Cones from the origin over a pulling triangulation of every facet that
    avoids it."""

    def __init__(self, nd: NewtonData):
        simplices = []
        for nu, c in nd.facets:
            if c == 0:
                continue  # cones over facets through the origin are flat
            face_pts = sorted(
                set(w for w in nd.config.columns if _dot(nu, w) == c)
            )
            if nd.config.n == 1:
                simplices.append(Simplex([face_pts[0]]))
                continue
            for s in _triangulate(face_pts):
                simplices.append(Simplex(list(s)))
        self.simplices = simplices


def simplicial_decomposition(nd: NewtonData) -> SimplicialDecomposition:
    return SimplicialDecomposition(nd)
