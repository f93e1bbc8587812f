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

Precision bookkeeping: a discarded basis point u contributes to Tr(G^m) (and
to any characteristic-series coefficient) terms of valuation at least
(p-1)(q^m-1)/(p q^m) d(u + gamma); the default weight cap inverts this so
the tail sits above p^M.

Ring data here are int64 coordinate arrays, as in padic's matrix kernels:
H_m is its support, exponents (S, n) beside coefficient coordinates
(S, blow), expanded by folding the splitting series in one column at a time
on a dense table; the matrix gathers c_{q w - u} for all basis pairs at once
into an (n, n, blow) array that the traces and the characteristic-series
kernel read directly.
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

class SeriesOnCone:
    """Series sum c_e t^e supported on shift + C(A), exact mod p^M, held as
    two aligned arrays: exponents (S, n), lexicographically sorted, and
    coeffs (S, blow), the coordinates of each nonzero c_e.

    An exponent missing from the support has coefficient zero mod p^M:
    outside the shifted cone the coefficient is exactly zero, and inside it
    every term beyond the precision cut has ord >= M.  The support always
    holds the shift itself, whose coefficient is a unit.
    """

    def __init__(self, params, nd, shift, Q, exponents, coeffs):
        self.params = params
        self.nd = nd
        self.shift = shift
        self.Q = Q
        self.exponents = exponents
        self.coeffs = coeffs
        self._floor_scale = Fraction(params.p - 1, params.p * Q)
        # the support as row-major keys in its bounding box, sorted because
        # the exponents are
        self._lo = exponents.min(axis=0)
        self._dims = exponents.max(axis=0) - self._lo + 1
        self._strides = np.array(
            [math.prod(self._dims[k + 1:]) for k in range(len(self._dims))]
        )
        self._keys = (exponents - self._lo) @ self._strides

    def lookup(self, E: np.ndarray) -> np.ndarray:
        """Support row of each exponent of E (..., n); -1 where c_e = 0."""
        rel = E - self._lo
        inside = ((rel >= 0) & (rel < self._dims)).all(axis=-1)
        keys = np.where(inside, rel @ self._strides, -1)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(inside & (self._keys[pos] == keys), pos, -1)

    def relative(self, e):
        return tuple(a - b for a, b in zip(e, self.shift))

    def coeff(self, e) -> RamifiedElement:
        r = int(self.lookup(np.asarray(e, dtype=np.int64)))
        if r < 0:
            return self.params.zero()
        return self.params.from_coords(self.coeffs[r])

    def valuation_floor(self, e) -> Fraction | None:
        """Certified lower bound on ord of the coefficient at e; None means
        the coefficient is exactly zero (outside the shifted cone)."""
        rel = self.relative(e)
        d = self.nd.weight(rel)
        if d is OUTSIDE_CONE:
            return None
        return self._floor_scale * d


# coordinates (box cells x blow) above which h_series refuses its table:
# 2^24 int64 coordinates are 128 MB, and the fold holds two tables at once
TABLE_LIMIT = 2**24


# coordinates of transposed term matrices that h_series holds at once
_TERM_BLOCK = 1 << 20


def _term_matrices(params: RingParams, terms: np.ndarray):
    """(i, reg_rep(terms[i]).T) for every nonzero row of terms, so that
    x @ reg_rep(terms[i]).T is the coordinate rows of x times terms[i].  One
    einsum against the multiplication tensor per block of rows."""
    nonzero = np.flatnonzero(terms.any(axis=1))
    rows = max(1, _TERM_BLOCK // params.blow**2)
    for start in range(0, len(nonzero), rows):
        idx = nonzero[start:start + rows]
        mats = np.einsum("ia,abg->ibg", terms[idx], params.mult_tensor())
        yield from zip(idx, mats % params.pM)


def precision_cut(params: RingParams, Q: int) -> int:
    """Terms of total splitting-series index above this bound vanish mod p^M."""
    p, M = params.p, params.M
    return -((-M * p * Q) // (p - 1))


def h_series(
    a_lifts,
    twist: TwistData,
    m: int,
    nd: NewtonData,
) -> SeriesOnCone:
    """Expand H_m by folding the one-monomial splitting series in, one column
    at a time, on a dense table of coordinates.

    a_lifts: Teichmueller lifts of the coefficients in a common ring R.  The
    product is truncated to the terms prod_j c_(i_j) a_j^(i_j) with
    sum i_j <= the precision cut, because each term has ord >= (p-1)
    (sum i_j) / (p q^m), the coarse floor of padic.splitting_floors.  Those
    terms land in the box of shift + i_cut hull(0, w_j) over the columns
    with a_j != 0 (a zero column contributes only c_0 = 1), so the table
    spans that box and every write is clipped to it.  The clip is exact: a
    term, or a partial product over the first columns, outside the box has
    sum i_j > i_cut, so it vanishes mod p^M by that floor, and so does every
    such term that the fold adds inside the box.  A table of more than
    TABLE_LIMIT coordinates is refused before it is allocated.
    """
    config = twist.config
    if len(a_lifts) != config.N:
        raise ValueError("need one lifted coefficient per column")
    params = a_lifts[0].params
    q = twist.q
    Q = q**m
    for a in a_lifts:
        if a.params != params:
            raise ParamsMismatch("lifted coefficients live in different rings")
        if a**q != a:
            raise NotTeichmueller("coefficients must satisfy a^q = a")
    require_valid_twist(twist, nd)

    i_cut = precision_cut(params, Q)
    blow, pM = params.blow, params.pM
    live = [j for j in range(config.N) if not a_lifts[j].is_zero()]
    W = np.array([config.columns[j] for j in live], dtype=np.int64).reshape(-1, config.n)
    lo = i_cut * np.minimum(W, 0).min(axis=0, initial=0)
    dims = i_cut * np.maximum(W, 0).max(axis=0, initial=0) - lo + 1
    size = math.prod(int(d) for d in dims) * blow
    if size > TABLE_LIMIT:
        raise BudgetExceeded(
            f"level-{m} series table needs {size} coordinates "
            f"(i_cut = {i_cut}), above the limit {TABLE_LIMIT}"
        )

    base = padic.splitting_coefficients(params, Q, i_cut)
    residue = np.arange(i_cut + 1) % (q - 1)
    table = np.zeros((*dims, blow), dtype=np.int64)
    table[tuple(-lo)] = params.one().coords
    for j, w in zip(live, W):
        # a_j is a Teichmueller unit, so a_j^i depends only on i mod (q - 1):
        # one product per residue class gives every term c_i a_j^i
        terms = np.zeros_like(base)
        apow = params.one()
        for r in range(min(q - 1, i_cut + 1)):
            cls = residue == r
            terms[cls] = padic.matmul_mod(
                base[cls], params.reg_rep(apow.coords).T, pM
            )
            apow = apow * a_lifts[j]
        # most of the box stays zero: read only the nonzero cells' bounding box
        filled = np.nonzero(table.any(axis=-1))
        src_lo = np.array([x.min() for x in filled])
        src_hi = np.array([x.max() + 1 for x in filled])
        new = np.zeros(table.shape, dtype=np.int64)
        for i, R in _term_matrices(params, terms):
            lo_i = np.maximum(src_lo + i * w, 0)
            hi_i = np.minimum(src_hi + i * w, dims)
            if (lo_i >= hi_i).any():
                continue
            dst = tuple(slice(a, b) for a, b in zip(lo_i, hi_i))
            src = tuple(slice(a - s, b - s) for a, b, s in zip(lo_i, hi_i, i * w))
            block = table[src]
            new[dst] += padic.matmul_mod(
                block.reshape(-1, blow), R, pM
            ).reshape(block.shape)
        table = np.remainder(new, pM, out=new)
    shift = twist.shift(m)
    filled = np.nonzero(table.any(axis=-1))
    exponents = np.stack(filled, axis=1) + lo + np.array(shift)
    return SeriesOnCone(params, nd, shift, Q, exponents, table[filled])


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


class DworkMatrix:
    """(c_{q w - u}) on the weight-sorted basis, with a tail certificate.

    The basis is the shifted index set {w : w + gamma in the cone} graded by
    d(w + gamma): the operator stabilizes it (q(w + gamma) lands back in the
    cone), and the diagonal entry at u sits at exponent (q-1)(u + gamma), so
    the grading certifies the truncation directly.  tail_bound is a lower
    bound on the valuation of any diagonal contribution from a discarded
    basis point, hence on the truncation error of traces and
    characteristic-series coefficients.
    """

    def __init__(self, series: SeriesOnCone, basis: LatticePointSet, twist: TwistData):
        self.series = series
        self.basis = basis
        self.twist = twist
        self.params = series.params
        self.nd = series.nd
        self.Q = series.Q
        self.dim = len(basis)
        W = np.array(basis.points, dtype=np.int64).reshape(-1, len(series.shift))
        found = series.lookup(self.Q * W[:, None, :] - W[None, :, :])
        self.coords = np.zeros((*found.shape, self.params.blow), dtype=np.int64)
        hit = found >= 0
        self.coords[hit] = series.coeffs[found[hit]]
        self._encoded = None
        self.cap = basis.cap
        p = self.params.p
        q = twist.q
        self.tail_bound = Fraction((p - 1) * (q - 1), p * q) * self.cap

    def encoded(self) -> np.ndarray:
        if self._encoded is None:
            self._encoded = padic.encode_ring_matrix(self.params, self.coords)
        return self._encoded

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
    series = h_series(a_lifts, twist, 1, nd)
    basis = enumerate_points(nd, cap, offset=twist.gamma)
    return DworkMatrix(series, basis, twist)


# ----------------------------------------------------------------------
# traces and characteristic series
# ----------------------------------------------------------------------

def trace(dm: DworkMatrix, m: int = 1) -> tuple[RamifiedElement, Fraction]:
    """Tr(G^m) through the m-th power of the level-1 matrix, with a certified
    precision (min of p^M and the tail floor)."""
    params = dm.params
    E = dm.encoded()
    P = E
    for _ in range(m - 1):
        P = padic.matmul_mod(P, E, params.pM)
    value = padic.encoded_trace(params, P)
    return value, min(Fraction(params.M), dm.power_tail_bound(m))


def diagonal_sum(series: SeriesOnCone) -> RamifiedElement:
    """Sum of c_e over the support with every e_i = 0 mod Q - 1.

    By orthogonality, sum over u in mu_(Q-1)^n of u^e is (Q - 1)^n when
    Q - 1 divides every e_i and 0 otherwise, so (Q - 1)^n times this sum is
    H_m summed over the Teichmueller points of the torus.  The same exponents
    are the level-m diagonal (Q - 1) u, u + gamma in the cone, so this is
    also the series side of Dwork's trace formula, sum_u c_((Q - 1) u)."""
    L = series.Q - 1
    on_diagonal = (series.exponents % L == 0).all(axis=1)
    return series.params.from_coords(series.coeffs[on_diagonal].sum(axis=0))


def char_series(dm: DworkMatrix, max_degree: int | None = None):
    """det(I - T G) coefficients through T^max_degree (all of them when
    max_degree is None) with their shared certified precision, by the
    division-free clow dynamic program."""
    params = dm.params
    prec = min(Fraction(params.M), dm.tail_bound)
    K = dm.dim if max_degree is None else max_degree
    return padic.char_series_prefix(params, dm.coords, K), prec
