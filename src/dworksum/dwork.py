"""Truncated Dwork operator attached to (A, gamma, a).

The level-m twisted series is

    H_m(t) = t^(gamma (1 - q^m)) * prod_j exp(pi z - pi z^(q^m)) |_{z = a_j t^(w_j)}

with a_j Teichmueller points.  The operator at level 1 sends t^u to
sum_w c_{q w - u} t^w where c indexes H_1 by absolute exponent.  Its matrix
lives on the shifted basis {t^w : w + gamma in the cone, d(w + gamma) <= D}:
that set is stable under the operator, reduces to the plain cone points for
gamma of coordinate reach below 1 (in particular for gamma = 0), and makes
the twisted trace identity exact -- the diagonal entry at u has absolute
exponent (q - 1)(u + gamma), a cone point scaled by q - 1.

Precision bookkeeping rests on one Hodge-type bound (Dwork;
Adolphson-Sperber, Annals 130, 1989).  Entry (w, u) of G has ord_p >=
(p-1)/(p q) d(q(w + gamma) - (u + gamma)) >= (p-1)/(p q) (q d(w + gamma) -
d(u + gamma)), so the floors telescope around every cycle: a closed walk,
or a principal minor, through the basis points S has ord_p >=
c sum_{u in S} d(u + gamma) with c = (p-1)(q-1)/(p q).  Three consequences:

* truncation: a discarded basis point u contributes to Tr(G^m) (and to
  any characteristic-series coefficient) terms of valuation at least
  (p-1)(q^m-1)/(p q^m) d(u + gamma); the default weight cap inverts this
  so the tail sits above p^M;
* the live block: a basis point with c d(u + gamma) >= M lies on no closed
  walk or minor that is nonzero mod p^M, so the traces and the
  characteristic series read only the points with c d(u + gamma) < M
  (strictly), a prefix of the weight-sorted basis; and det(I - T G) has
  c_k = 0 mod p^M once c (sum of the k smallest weights) >= M;
* per-degree prefixes: c_k is (-1)^k times the sum of the k x k principal
  minors, and a minor through u has ord_p >= c (d(u + gamma) + the k - 1
  smallest other weights).  So c_k(G) = c_k(G|B_k) mod p^M on the prefix
  B_k of the points u with c (d(u + gamma) + the k - 1 smallest other
  weights) < M, which shrinks as k grows (196, 196, 169, 144, 121, 81, 49,
  25 points for the eight degrees charpoly reads on square_p3).

Ring data here are int64 coordinate arrays, as in padic's matrix kernels.
One kernel, the torus product, multiplies the splitting series in one
column at a time on a dense table indexed by a finite torus prod_k Z/dims[k].
It runs on two index sets:

* h_series takes a box that holds every term of the truncated H_m, so the
  table is H_m exponent by exponent, and returns it as a SeriesBox.  The
  commands build only H_1 this way, and only for the operator matrix,
  which gathers c_{q w - u} for all live basis pairs at once from the box
  by cell index (one integer gather on a zero-padded box) into an
  (n, n, blow) array that the traces and the characteristic-series kernel
  read directly, as coordinate rows times its row-layout encoding; the
  encoding is gathered by the same index from one representation per
  nonzero cell.
  At m >= 2 the box is the tests' exact reference for the diagonal fold;
* level_diagonal_sum reads only the diagonal of H_m, the exponents
  = 0 mod q^m - 1, so it takes (Z/(q^m - 1))^n and the splitting series
  summed by class.  It gives every level's diagonal, level 1 included:
  the series side of the trace formula and the series oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import padic
from .errors import (
    BudgetExceeded,
    NotTeichmueller,
    ParamsMismatch,
    TwistOutsideCone,
)
from .padic import RamifiedElement, RingParams
from .polytope import (
    OUTSIDE_CONE,
    TABLE_LIMIT,
    ExponentConfig,
    LatticePointSet,
    NewtonData,
    enumerate_points,
)


class TwistData:
    """gamma_i = k_i / (1 - q) as exact rationals, plus the cone check."""

    def __init__(self, config: ExponentConfig, k_vec, q: int):
        self.config = config
        self.q = q
        self.k = tuple(int(x) for x in k_vec)
        if len(self.k) != config.n:
            raise ValueError("need one twist exponent per row")
        self.gamma = tuple(Fraction(k, 1 - q) for k in self.k)

    def shift(self, m: int) -> tuple:
        """gamma (1 - q^m) = k * (1 + q + ... + q^(m-1)) as an integer vector."""
        mult = sum(self.q**t for t in range(m))
        return tuple(k * mult for k in self.k)


def twist_validate(twist: TwistData, nd: NewtonData) -> bool:
    """gamma must lie in the cone; by construction gamma (1-q) is integral."""
    return nd.in_cone(twist.gamma)


def require_valid_twist(twist: TwistData, nd: NewtonData) -> None:
    if not twist_validate(twist, nd):
        raise TwistOutsideCone(f"gamma = {twist.gamma} is outside the cone")


# ----------------------------------------------------------------------
# the twisted series
# ----------------------------------------------------------------------

class SeriesBox:
    """A truncated series sum c_e t^e on a box of exponents, exact mod p^M:
    coeffs (prod(dims), blow) holds the coordinates of c_e at the row-major
    cell of e - lo, so lo is the exponent of cell 0.

    An exponent outside the box has coefficient zero mod p^M: outside the
    shifted cone the coefficient is exactly zero, and inside it every term
    that reaches the exponent lies beyond the precision cut.
    """

    def __init__(self, params, Q, lo, dims, coeffs):
        self.params = params
        self.Q = Q
        self.lo = lo
        self.dims = dims
        self.coeffs = coeffs


# coordinates of transposed term matrices held at once
_TERM_BLOCK = 1 << 20

# coordinates that one chunk of the torus product scatters.  Small chunks
# stay in cache and below BLAS's threaded sizes: at 2^20 the level-3 fold of
# p = 11, A = [[1, -1]] took 0.51 s against 0.28 s here, and the
# kloosterman_p5 check peaked 1.3 MB higher
_FOLD_BLOCK = 1 << 13


def _term_blocks(params: RingParams, terms: np.ndarray):
    """Blocks (idx, mats) over the nonzero rows of terms, with
    mats[t] = params.rep(terms[idx[t]]), so that x @ mats[t] is the
    coordinate rows of x times terms[idx[t]].  One rep per block of rows."""
    nonzero = np.flatnonzero(terms.any(axis=1))
    rows = max(1, _TERM_BLOCK // params.blow**2)
    for start in range(0, len(nonzero), rows):
        idx = nonzero[start:start + rows]
        yield idx, params.rep(terms[idx])


def precision_cut(params: RingParams, Q: int) -> int:
    """Terms of total splitting-series index above this bound vanish mod p^M."""
    p, M = params.p, params.M
    return -((-M * p * Q) // (p - 1))


def _checked_ring(a_lifts, twist: TwistData, nd: NewtonData) -> RingParams:
    """The common ring of the lifted coefficients, after the checks of both
    level-m kernels: one lift per column, one ring, a^q = a, gamma in the
    cone."""
    if len(a_lifts) != twist.config.N:
        raise ValueError("need one lifted coefficient per column")
    params = a_lifts[0].params
    for a in a_lifts:
        if a.params != params:
            raise ParamsMismatch("lifted coefficients live in different rings")
        if a**twist.q != a:
            raise NotTeichmueller("coefficients must satisfy a^q = a")
    require_valid_twist(twist, nd)
    return params


def _require_table(params: RingParams, m: int, dims) -> None:
    """Refuse a level-m series table of prod(dims) cells of blow coordinates
    above TABLE_LIMIT, before it is allocated."""
    size = math.prod(int(d) for d in dims) * params.blow
    if size > TABLE_LIMIT:
        cells = " x ".join(str(int(d)) for d in dims)
        raise BudgetExceeded(
            f"level-{m} series table needs {size} coordinates ({cells} cells "
            f"of {params.blow}), above the limit {TABLE_LIMIT}"
        )


def _column_terms(params: RingParams, base: np.ndarray, a: RamifiedElement, q: int):
    """Rows base[i] times a^i.  a is a Teichmueller unit, so a^i depends only
    on i mod (q - 1): one product per residue class gives every row, against
    the representations of the powers taken a block at a time."""
    powers = [params.one()]
    for _ in range(min(q - 1, len(base)) - 1):
        powers.append(powers[-1] * a)
    terms = np.zeros_like(base)
    residue = np.arange(len(base)) % (q - 1)
    for idx, mats in _term_blocks(params, np.array([x.coords for x in powers])):
        for r, mat in zip(idx, mats):
            cls = residue == r
            terms[cls] = padic.matmul_mod(base[cls], mat, params.pM)
    return terms


def _torus_product(params: RingParams, a_lifts, twist: TwistData,
                   series: np.ndarray, dims, origin) -> np.ndarray:
    """prod_j sum_i series[i] a_j^i t^(i w_j) on the torus prod_k Z/dims[k],
    starting from 1 at the cell origin: a row-major table of prod(dims)
    cells of blow coordinates, mod p^M.

    A live column sends each nonzero cell c to (c + i w_j) mod dims for every
    term i, a chunk of terms at once: one matmul_mod of the cells'
    coordinate rows against the chunk's stacked term matrices, one
    scatter-add.  For a fixed term c -> c + i w_j is a bijection of the
    torus, so a cell gains at most one product per term and the sums stay
    below len(series) p^M.  So a chunk of one term adds by fancy indexing,
    and a longer one sums per cell by bincount, exact in float64 while
    chunk p^M <= 2^53.  (np.add.at would map about 0.1 MB more of numpy into
    every operator command.)  A zero column contributes only its term 1.
    """
    blow, pM = params.blow, params.pM
    dims = np.asarray(dims, dtype=np.int64)
    strides = np.array([math.prod(dims[k + 1:]) for k in range(len(dims))])
    table = np.zeros((math.prod(dims), blow), dtype=np.int64)
    table[np.dot(origin, strides)] = params.one().coords
    for a, w in zip(a_lifts, twist.config.columns):
        if a.is_zero():
            continue
        cells = np.flatnonzero(table.any(axis=1))
        at = np.stack(np.unravel_index(cells, dims), axis=1)
        rows = table[cells]
        chunk = max(1, min(_FOLD_BLOCK // (len(cells) * blow), 2**53 // pM))
        terms = _column_terms(params, series, a, twist.q)
        table = np.zeros_like(table)
        for idx, mats in _term_blocks(params, terms):
            for start in range(0, len(idx), chunk):
                R = mats[start:start + chunk]
                moved = padic.matmul_mod(
                    rows, R.transpose(1, 0, 2).reshape(blow, -1), pM
                ).ravel()
                dest = (at[:, None, :] + np.outer(idx[start:start + chunk], w)) % dims
                spots = ((dest @ strides)[:, :, None] * blow + np.arange(blow)).ravel()
                if len(R) == 1:
                    table.reshape(-1)[spots] += moved
                else:
                    table += np.bincount(spots, moved, table.size).astype(
                        np.int64
                    ).reshape(table.shape)
        table %= pM
    return table


def h_series(
    a_lifts,
    twist: TwistData,
    m: int,
    nd: NewtonData,
) -> SeriesBox:
    """Expand H_m exponent by exponent: the torus product on a box that
    holds every term of the truncated product, returned as that box.

    The exponent-exact series is what the level-1 matrix reads (c_(q w - u));
    every diagonal, level 1 included, comes from level_diagonal_sum without
    this expansion.  At m >= 2 this stays as the exact reference for that
    kernel.

    a_lifts: Teichmueller lifts of the coefficients in a common ring R.  The
    product is truncated to the terms prod_j c_(i_j) a_j^(i_j) with
    sum i_j <= the precision cut, because each term has ord >= (p-1)
    (sum i_j) / (p q^m), the floor ord c_i >= (p-1) i / (p Q) of every
    splitting coefficient at Q = q^m.  Those
    terms land in the box of shift + i_cut hull(0, w_j) over the columns
    with a_j != 0 (a zero column contributes only c_0 = 1), and the box is
    the torus of the product, so a product that leaves it wraps around.  The
    wrap is exact: a term, or a partial product over the first columns, that
    leaves the box has sum i_j > i_cut, so its coordinates are 0 mod p^M by
    that floor and it adds nothing where it lands.  A table of more than
    TABLE_LIMIT coordinates is refused before it is allocated.
    """
    config = twist.config
    params = _checked_ring(a_lifts, twist, nd)
    Q = twist.q**m
    i_cut = precision_cut(params, Q)
    W = np.array(
        [w for a, w in zip(a_lifts, config.columns) if not a.is_zero()],
        dtype=np.int64,
    ).reshape(-1, config.n)
    lo = i_cut * np.minimum(W, 0).min(axis=0, initial=0)
    dims = i_cut * np.maximum(W, 0).max(axis=0, initial=0) - lo + 1
    _require_table(params, m, dims)
    base = padic.splitting_coefficients(params, Q, i_cut)
    table = _torus_product(params, a_lifts, twist, base, dims, -lo)
    return SeriesBox(params, Q, lo + np.array(twist.shift(m)), dims, table)


def require_fold_budget(params: RingParams, q: int, m: int, n: int) -> None:
    """Refuse the level-m diagonal fold when its table, (q^m - 1)^n cells of
    blow coordinates, passes TABLE_LIMIT.  The table grows with m, so the
    commands test their top level before any work."""
    _require_table(params, m, (q**m - 1,) * n)


def level_diagonal_sum(
    a_lifts,
    twist: TwistData,
    m: int,
    nd: NewtonData,
) -> RamifiedElement:
    """Sum of the coefficients c_e of H_m with every e_i = 0 mod L = q^m - 1,
    without expanding H_m.

    By orthogonality, sum over u in mu_L^n of u^e is L^n when L divides
    every e_i and 0 otherwise, so L^n times this sum is H_m summed over the
    Teichmueller points of the torus (the series oracle).  The same exponents
    are the level-m diagonal L u, u + gamma in the cone, so this is also the
    series side of Dwork's trace formula, sum_u c_(L u).

    The sum reads only these exponents, so the product is taken on the torus
    (Z/L)^n: each column's splitting coefficients are summed by class,
    C[r] = sum of c_i over i = r mod L, and the torus product moves the
    table by r w_j mod L times C[r] a_j^r for every class r.  The exponent
    shift + sum i_j w_j is then = 0 mod L at the cell -shift mod L.  a_j^i
    depends only on i mod (q - 1), which divides L, so C[r] a_j^r is the
    class sum of the c_i a_j^i.  The table holds every product with each
    i_j <= i_cut; one with sum i_j > i_cut has ord >= (p-1)(i_cut + 1)/(p q^m)
    > M, so it is zero mod p^M, as in the wrap of h_series.  Same checks and
    table limit as h_series.
    """
    config = twist.config
    params = _checked_ring(a_lifts, twist, nd)
    L = twist.q**m - 1
    dims = (L,) * config.n
    _require_table(params, m, dims)
    i_cut = precision_cut(params, L + 1)
    base = padic.splitting_coefficients(params, L + 1, i_cut)
    padded = np.zeros((-(-(i_cut + 1) // L) * L, params.blow), dtype=np.int64)
    padded[:i_cut + 1] = base
    classes = padded.reshape(-1, L, params.blow).sum(axis=0) % params.pM
    table = _torus_product(params, a_lifts, twist, classes, dims, (0,) * config.n)
    target = np.ravel_multi_index([-s % L for s in twist.shift(m)], dims)
    return params.from_coords(table[target])


# ----------------------------------------------------------------------
# the truncated matrix
# ----------------------------------------------------------------------

def default_weight_cap(nd: NewtonData, twist: TwistData, params: RingParams) -> int:
    """Basis cap D = ceil(M p q / ((p-1)(q-1))) + ceil(d((q-1) gamma)) + 2:
    inverting the diagonal decay so discarded diagonal terms sit above p^M."""
    p, M = params.p, params.M
    q = twist.q
    D = -((-M * p * q) // ((p - 1) * (q - 1)))
    gshift = tuple(Fraction(q - 1) * g for g in twist.gamma)
    dg = nd.weight(gshift)
    if dg is OUTSIDE_CONE:
        raise TwistOutsideCone("gamma is outside the cone")
    return D + int(-((-dg.numerator) // dg.denominator)) + 2


def _operator_cells(series: SeriesBox, W: np.ndarray):
    """(table, cells) with cells[i, j] the row of c_(Q w_i - w_j) in table:
    the box's nonzero cells, then one zero row for every exponent that
    misses them.

    The box is padded with zero cells until it holds every Q w_i - w_j, so
    its row-major index is lin(Q w_i - lo + pad) - lin(w_j) with the padded
    strides, and a lookup over the padded box turns it into a table row: one
    integer gather for all pairs."""
    Q, lo, dims = series.Q, series.lo, series.dims
    filled = np.flatnonzero(series.coeffs.any(axis=1))
    table = np.zeros((len(filled) + 1, series.params.blow), dtype=np.int64)
    table[:-1] = series.coeffs[filled]
    # Q w - w' - lo over all pairs (0 included, so an empty W needs no case)
    low = Q * W.min(axis=0, initial=0) - W.max(axis=0, initial=0) - lo
    high = Q * W.max(axis=0, initial=0) - W.min(axis=0, initial=0) - lo
    pad = np.maximum(-low, 0)
    padded = np.maximum(high + 1, dims) + pad
    strides = np.array([math.prod(padded[k + 1:]) for k in range(len(padded))])
    lookup = np.full(math.prod(padded), len(filled), dtype=np.int32)
    at = np.stack(np.unravel_index(filled, dims), axis=1) + pad
    lookup[at @ strides] = np.arange(len(filled))
    rows = (Q * W - lo + pad) @ strides
    return table, lookup[rows[:, None] - (W @ strides)[None, :]]


class DworkMatrix:
    """(c_{Q w - u}) on the live block of the weight-sorted basis, with a
    tail certificate (Q = q at level 1).

    The basis is the shifted index set {w : w + gamma in the cone} graded by
    d(w + gamma): the operator stabilizes it (q(w + gamma) lands back in the
    cone), and the diagonal entry at u sits at exponent (q-1)(u + gamma), so
    the grading certifies the truncation directly.  tail_bound is a lower
    bound on the valuation of any diagonal contribution from a discarded
    basis point, hence on the truncation error of traces and
    characteristic-series coefficients.  dim, cap, tail_bound and basis
    describe the whole truncated basis.

    coords holds only the live block: by the telescoped bound of the module
    docstring, with c = (p-1)(Q-1)/(p Q), every closed walk and principal
    minor through a point with c d(u + gamma) >= M vanishes mod p^M, so the
    points with c d(u + gamma) < M, the first `live` of the basis, carry
    every trace and characteristic-series coefficient exactly.
    vanishing_degree is the number of degrees k >= 1 with c (sum of the k
    smallest weights) < M; every later coefficient of det(I - T G) is 0 mod
    p^M, and vanishing_degree <= live.  block_sizes[k - 1] = |B_k| for
    k <= vanishing_degree: B_k, the points u with c (d(u + gamma) + the k - 1
    smallest other weights) < M, is a prefix of the live block, and a k x k
    minor through a point outside it vanishes mod p^M, so
    c_k(G) = c_k(G|B_k) mod p^M.  All three thresholds are exact integer
    comparisons in the basis's grading.

    The block is gathered from the series box by cell index (_operator_cells);
    the table and the index stay, so the row-layout encoding is built from
    one representation per table row (encoded).
    """

    def __init__(self, series: SeriesBox, basis: LatticePointSet, twist: TwistData):
        self.basis = basis
        self.twist = twist
        self.params = series.params
        self.dim = len(basis)
        p, M, Q = self.params.p, self.params.M, series.Q
        # c d < M  <=>  (p-1)(Q-1) grade < M p Q denom  <=>  grade <= top
        top = (M * p * Q * basis.denom - 1) // ((p - 1) * (Q - 1))
        grades = basis.grades
        self.live = int(np.searchsorted(grades, top, side="right"))
        smallest = np.cumsum(grades)  # smallest[k - 1]: the k smallest grades
        self.vanishing_degree = int(np.searchsorted(smallest, top, side="right"))
        # u is in B_k iff grade(u) <= top - (the k - 1 smallest grades); the
        # k - 1 smallest *other* grades differ from those only for u among
        # the first k - 1 points, which are in B_k for k <= vanishing_degree
        others = np.concatenate(([0], smallest))[:self.vanishing_degree]
        self.block_sizes = np.searchsorted(grades, top - others, side="right")
        self._table, self._cells = _operator_cells(series, basis.array[:self.live])
        self.coords = np.take(self._table, self._cells, axis=0)
        self._encoded = None
        self.cap = basis.cap
        q = twist.q
        self.tail_bound = Fraction((p - 1) * (q - 1), p * q) * self.cap

    def encoded(self, size: int | None = None) -> np.ndarray:
        """Row-layout encoding (padic.encode_ring_matrix) of the first size
        live points (all of them by default), from one representation per
        table row.  It is built once and held: a smaller prefix reads the
        held one, and only a larger one encodes again.  A trace needs it
        between its free first degree and its last, which reads just the
        closing diagonal (padic.diagonal_product_sum); char_series from
        degree 3 on, on B_3."""
        size = self.live if size is None else size
        span = size * self.params.blow
        if self._encoded is None or len(self._encoded) < span:
            cells = self._cells[:size, :size]
            self._encoded = padic.encode_ring_matrix(self.params, self._table, cells)
        return self._encoded[:span, :span]

    def power_tail_bound(self, m: int) -> Fraction:
        """Truncation floor for Tr(G^m) through the level-1 matrix: the m
        entries of a cycle through a discarded point u carry total shifted
        weight at least (q^m - 1)/q^(m-1) d(u + gamma) by the facet
        telescoping sum_t q^(m-t) l(x_t) = (q^m - 1) l(u + gamma)."""
        p = self.params.p
        q = self.twist.q
        return Fraction((p - 1) * (q**m - 1), p * q**m) * self.cap


def build_operator(
    config: ExponentConfig,
    nd: NewtonData,
    a_lifts,
    twist: TwistData,
    cap=None,
) -> DworkMatrix:
    """Level-1 series, basis and matrix in one step with the default cap."""
    params = a_lifts[0].params
    if cap is None:
        cap = default_weight_cap(nd, twist, params)
    # the basis first: it refuses an oversized enumeration box up front
    basis = enumerate_points(nd, cap, offset=twist.gamma)
    series = h_series(a_lifts, twist, 1, nd)
    return DworkMatrix(series, basis, twist)


# ----------------------------------------------------------------------
# traces and characteristic series
# ----------------------------------------------------------------------

def trace(dm: DworkMatrix, m: int = 1) -> tuple[RamifiedElement, Fraction]:
    """Tr(G^m) through the m-th power of the live block, with a certified
    precision (min of p^M and the tail floor): the diagonal sum for m = 1,
    else m - 2 row products and the closing diagonal of the last one.  A
    closed walk through a point outside the live block is 0 mod p^M."""
    params = dm.params
    C = dm.coords
    if m == 1:
        value = np.einsum("hhb->b", C)
    else:
        P = C
        for _ in range(m - 2):
            rows = P.reshape(dm.live, dm.live * params.blow)
            P = padic.matmul_mod(rows, dm.encoded(), params.pM).reshape(C.shape)
        value = padic.diagonal_product_sum(params, P, C)
    return params.from_coords(value), min(Fraction(params.M), dm.power_tail_bound(m))


def char_series(dm: DworkMatrix, max_degree: int | None = None):
    """det(I - T G) coefficients through T^max_degree (all dim of them when
    max_degree is None) with their shared certified precision, by the
    division-free clow dynamic program: each c_k on its Hodge prefix B_k
    (c_k(G) = c_k(G|B_k) mod p^M, DworkMatrix.block_sizes) up to the
    vanishing degree; every later coefficient is an exact zero mod p^M."""
    params = dm.params
    prec = min(Fraction(params.M), dm.tail_bound)
    K = dm.dim if max_degree is None else min(max_degree, dm.dim)
    k = min(K, dm.vanishing_degree)
    sizes = dm.block_sizes[:k]
    # the encoding the traces may already have built; degrees <= 2 skip it
    encoded = dm.encoded(int(sizes[2])) if k > 2 else None
    coeffs = padic.char_series_prefix(params, dm.coords, k, encoded, sizes)
    return coeffs + [params.zero()] * (K - k), prec
