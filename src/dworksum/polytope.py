"""Combinatorics of the exponent matrix A: lattice geometry only, with no
finite field (the nondegeneracy certificate over F_{q^s} walks the field
tables in ``lfunction``).

Everything here is exact: facet and face enumeration is brute force over
small point subsets (intended scale is n <= 4, N <= 8), and triangulations
pull at deterministically chosen vertices so repeated runs agree.

Weights are integer-graded.  A lattice point set writes every facet
functional as an integer row over the common denominator ``denom`` and
scales its offset (for a twist gamma = k/(1 - q), denominator q - 1) to the
same integer grid, so cone membership and denom g d(w + offset) over a
whole enumeration box are two int64 matmuls and a max.
``NewtonData.weight`` keeps the single-point Fraction value for the
polytope report.

Conventions: the polytope is the convex hull of the origin and the columns
w_1..w_N of A; the cone is generated by the columns.  For w in the cone the
weight d(w) is the smallest a > 0 with w in a*polytope, computed as
max(0, max_F l_F(w)) over the facet functionals l_F that are identically 1
on the facets avoiding the origin.  d is homogeneous and subadditive and
takes values in (1/denom) Z on lattice points.

Two exact elimination kernels carry all of the linear algebra:

* ``_row_reduce`` (Gauss-Jordan over Q: reduced rows, pivot columns,
  determinant) gives ``mat_rank``, ``kernel_line`` (hence the facet search
  ``_facets`` behind ``NewtonData`` and the pulling triangulation),
  ``_solve_in_span`` (affine-hull and simplicial-cone coordinates, the cell
  points), the affine-hull basis and ``Simplex.det``;
* ``column_hermite`` (unimodular column reduction over Z) gives the
  relation lattice ``gkz.lattice_kernel``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import floor, gcd, lcm, prod

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


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return tuple(x // g for x in vec) if g else tuple(vec)


def _row_reduce(rows, ncols=None):
    """Gauss-Jordan over Q: (reduced rows, pivot columns, determinant).

    Pivots are sought only in the first ncols columns (default: all), so any
    further columns ride along as right-hand sides.  The pivot row is the
    first usable one, which fixes the result even when a right-hand side is
    not in the span.  The determinant is that of a square matrix, and 0
    whenever the rank falls short of the row count."""
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
    return len(_row_reduce(rows)[1])


def sign_normal(v):
    """v or -v, whichever has its first nonzero entry positive."""
    for x in v:
        if x:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def kernel_line(rows, n: int):
    """Primitive integer vector spanning the kernel of the given row vectors
    in R^n, or None unless the kernel is exactly one-dimensional."""
    m, pivots, _ = _row_reduce(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * n
    v[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        v[col] = -m[r][free[0]]
    den = lcm(*[x.denominator for x in v])
    return sign_normal(_primitive([int(x * den) for x in v]))


def _solve_in_span(basis, target):
    """Coefficients expressing target in the given independent basis vectors;
    a residual outside their span is ignored."""
    k = len(basis)
    m, pivots, _ = _row_reduce(
        [[b[i] for b in basis] + [target[i]] for i in range(len(target))], k
    )
    sol = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        sol[col] = m[r][k]
    return sol


def column_hermite(rows, N: int):
    """Unimodular column reduction of an integer matrix with N columns.

    Returns (H, U, pivots): H = rows @ U is column echelon, U is unimodular
    and pivots lists the (row, column) of each leading entry of H.  A row
    that vanishes on the columns not yet pivoted is skipped."""
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
    """Facet functionals of the polytope, inequalities of the cone, the
    weight denominator, plus the raw facet list used for face enumeration."""

    def __init__(self, config: ExponentConfig):
        self.config = config
        n = config.n
        pts = [tuple([0] * n)] + config.columns
        distinct = sorted(set(pts))
        self.points = pts  # index 0 is the origin, then columns in order

        # [(nu, c)]; the origin lies on a facet iff c == 0
        self.facets = sorted(_facets(distinct, n))

        # all points of the hull satisfy <nu, x> <= c and the origin gives 0 <= c
        self.functionals = [
            tuple(Fraction(x, c) for x in nu) for nu, c in self.facets if c != 0
        ]
        if not self.functionals:
            raise RankDeficient("no facet avoids the origin; degenerate hull")

        den = 1
        for l in self.functionals:
            for x in l:
                den = lcm(den, x.denominator)
        self.denom = den

        cone = {}
        gens = [w for w in set(config.columns) if any(w)]
        for S in itertools.combinations(gens, n - 1):
            nu = kernel_line(S, n)
            if nu is None:
                continue
            vals = [_dot(nu, w) for w in gens]
            if all(v >= 0 for v in vals):
                cone[nu] = True
            elif all(v <= 0 for v in vals):
                cone[tuple(-x for x in nu)] = True
        self.cone_facets = sorted(cone)

    # -- membership and weight -------------------------------------------

    def in_cone(self, w) -> bool:
        return all(_dot(nu, w) >= 0 for nu in self.cone_facets)

    def weight(self, w):
        """d(w) for w in the cone; OUTSIDE_CONE otherwise."""
        if not self.in_cone(w):
            return OUTSIDE_CONE
        best = Fraction(0)
        for l in self.functionals:
            v = _dot(l, w)
            if v > best:
                best = v
        return best

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
    the integer rows L_F = nd.denom l_F give denom g d(w + offset) =
    max(0, max_F <L_F, g w + g offset>).  array holds the points as an
    (len, n) int64 array; points and weights are the same as tuples and
    Fractions."""

    def __init__(self, nd: NewtonData, cap, offset=None):
        self.cap = Fraction(cap)
        if self.cap < 0:
            raise ValueError("cap must be >= 0")
        n = nd.config.n
        self.offset = (
            tuple(Fraction(x) for x in offset)
            if offset is not None
            else tuple([Fraction(0)] * n)
        )
        g = lcm(*(x.denominator for x in self.offset))
        self.denom = nd.denom * g
        pts = nd.points
        lo = [
            int(min(self.cap * min(p[i] for p in pts), 0) - self.offset[i]) - 2
            for i in range(n)
        ]
        hi = [
            int(max(self.cap * max(p[i] for p in pts), 0) - self.offset[i]) + 3
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
        scaled = g * box + np.array([int(x * g) for x in self.offset], dtype=np.int64)
        rows = np.array(
            [[int(x * nd.denom) for x in l] for l in nd.functionals], dtype=np.int64
        )
        cone = np.array(nd.cone_facets, dtype=np.int64).reshape(-1, n)
        grade = np.maximum((scaled @ rows.T).max(axis=1), 0)
        keep = (scaled @ cone.T >= 0).all(axis=1) & (
            grade <= floor(self.cap * self.denom)
        )
        order = np.argsort(grade[keep], kind="stable")
        self.array = box[keep][order]
        self.grades = grade[keep][order]

    @functools.cached_property
    def points(self) -> list:
        return [tuple(w) for w in self.array.tolist()]

    @functools.cached_property
    def weights(self) -> list:
        return [Fraction(d, self.denom) for d in self.grades.tolist()]

    def __len__(self):
        return len(self.array)

    def __iter__(self):
        return iter(self.points)


def enumerate_points(nd: NewtonData, cap, offset=None) -> LatticePointSet:
    return LatticePointSet(nd, cap, offset)


# ----------------------------------------------------------------------
# triangulation, volume, simplicial decomposition
# ----------------------------------------------------------------------

def _affine_coordinates(points):
    """Exact coordinates of the points inside their affine hull: returns
    (dim, coords) with coords[i] a tuple of Fractions of length dim.  The
    basis is the first maximal independent run of differences to points[0],
    i.e. the pivot columns of the matrix whose columns are the differences."""
    diffs = [_sub(p, points[0]) for p in points]
    basis = [diffs[j] for j in _row_reduce(list(zip(*diffs)))[1]]
    return len(basis), [tuple(_solve_in_span(basis, d)) for d in diffs]


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
    fundamental-cell lattice points and cone generators."""

    def __init__(self, vertices):
        self.vertices = [tuple(int(x) for x in v) for v in vertices]  # excludes 0
        self.det = abs(int(_row_reduce(self.vertices)[2]))
        self.generators = list(self.vertices)

    @functools.cached_property
    def cell_points(self):
        """Integer points of { sum c_i w_i : 0 <= c_i < 1 }, one solve per
        point of the bounding box, so built only when asked for."""
        n = len(self.vertices)
        corners = [
            tuple(sum(e * v[i] for e, v in zip(eps, self.vertices)) for i in range(n))
            for eps in itertools.product((0, 1), repeat=n)
        ]
        lo = [min(c[i] for c in corners) for i in range(n)]
        hi = [max(c[i] for c in corners) for i in range(n)]
        out = []
        for x in itertools.product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
            if all(0 <= ci < 1 for ci in _solve_in_span(self.vertices, x)):
                out.append(tuple(x))
        out.sort()
        return out


class SimplicialDecomposition:
    def __init__(self, config: ExponentConfig):
        nd = newton_data(config)
        n = config.n
        simplices = []
        for nu, c in nd.facets:
            if c == 0:
                continue  # cones over facets through the origin are flat
            face_pts = sorted(
                set(w for w in config.columns if _dot(nu, w) == c)
            )
            if n == 1:
                simplices.append(Simplex([face_pts[0]]))
                continue
            for s in _triangulate(face_pts):
                simplices.append(Simplex(list(s)))
        self.config = config
        self.newton = nd
        self.simplices = simplices


def simplicial_decomposition(config: ExponentConfig) -> SimplicialDecomposition:
    return SimplicialDecomposition(config)


def normalized_volume(config: ExponentConfig) -> int:
    """n! vol of the hull: sum of |det| over the pulling triangulation coned
    at the origin (facets through the origin contribute nothing)."""
    return sum(s.det for s in SimplicialDecomposition(config).simplices)
