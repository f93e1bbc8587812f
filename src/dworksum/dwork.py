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
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import padic
from .errors import (
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
    """Sparse series sum c_e t^e supported on shift + C(A), exact mod p^M.

    An exponent missing from coeffs has coefficient zero mod p^M: outside
    the shifted cone the coefficient is exactly zero, and inside it every
    term beyond the precision cut has ord >= M (stored sums that vanish
    mod p^M are dropped as well).
    """

    def __init__(self, params, nd, shift, level, Q, coeffs):
        self.params = params
        self.nd = nd
        self.shift = shift
        self.level = level
        self.Q = Q
        self.coeffs = coeffs  # dict exponent tuple -> RamifiedElement
        self._zero = params.zero()
        self._floor_scale = Fraction(params.p - 1, params.p * Q)

    def relative(self, e):
        return tuple(a - b for a, b in zip(e, self.shift))

    def coeff(self, e) -> RamifiedElement:
        return self.coeffs.get(tuple(e), self._zero)

    def valuation_floor(self, e) -> Fraction | None:
        """Certified lower bound on ord of the coefficient at e; None means
        the coefficient is exactly zero (outside the shifted cone)."""
        rel = self.relative(e)
        d = self.nd.weight(rel)
        if d is OUTSIDE_CONE:
            return None
        return self._floor_scale * d

    def support(self):
        return self.coeffs.keys()


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
    """Expand H_m by convolving the one-monomial splitting series.

    a_lifts: Teichmueller lifts of the coefficients in a common ring R; the
    product runs over tuples (i_1..i_N) with sum i_j <= the precision cut,
    because each term has ord >= (p-1) (sum i_j) / (p q^m).
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

    base = padic.splitting_coefficients(params, Q, i_cut)
    # per-column arrays c_i a_j^i, skipping exact zeros (a_j = 0 collapses)
    col_terms = []
    for j in range(config.N):
        a = a_lifts[j]
        terms = [(0, base[0][0])]
        if not a.is_zero():
            apow = params.one()
            for i in range(1, i_cut + 1):
                apow = apow * a
                c = base[i][0]
                if not c.is_zero():
                    terms.append((i, c * apow))
        col_terms.append(terms)

    shift = twist.shift(m)
    zero_exp = tuple(shift)
    coeffs = {}

    def add(e, val):
        cur = coeffs.get(e)
        coeffs[e] = val if cur is None else cur + val

    cols = config.columns

    def rec(j, budget, exp, val):
        if j == config.N:
            add(exp, val)
            return
        wj = cols[j]
        for i, cval in col_terms[j]:
            if i > budget:
                break
            nexp = exp if i == 0 else tuple(x + i * y for x, y in zip(exp, wj))
            nval = val if i == 0 else val * cval
            if nval.is_zero():
                continue
            rec(j + 1, budget - i, nexp, nval)

    rec(0, i_cut, zero_exp, params.one())
    coeffs = {e: v for e, v in coeffs.items() if not v.is_zero()}
    return SeriesOnCone(params, nd, shift, m, Q, coeffs)


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
        self.level = series.level
        self.Q = series.Q
        n = len(basis)
        blow = self.params.blow
        coords = np.zeros((n, n, blow), dtype=np.int64)
        for wi, w in enumerate(basis.points):
            qw = tuple(self.Q * x for x in w)
            for ui, u in enumerate(basis.points):
                e = tuple(a - b for a, b in zip(qw, u))
                c = series.coeff(e)
                if not c.is_zero():
                    coords[wi, ui, :] = c.coords
        self.coords = coords
        self._encoded = None
        self.dim = n
        self.cap = basis.cap
        p = self.params.p
        q = twist.q
        self.tail_bound = Fraction((p - 1) * (q - 1), p * q) * self.cap

    def entry(self, w_idx: int, u_idx: int) -> RamifiedElement:
        return self.params.from_coords(self.coords[w_idx, u_idx, :].tolist())

    def rows(self):
        return [
            [self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)
        ]

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
    total = series.params.zero()
    for e, c in series.coeffs.items():
        if all(x % L == 0 for x in e):
            total = total + c
    return total


def char_series(dm: DworkMatrix, max_degree: int | None = None):
    """det(I - T G) coefficients with their shared certified precision.

    Full degree uses the Berkowitz recursion; a max_degree prefix uses the
    clow dynamic program.  Both are division-free.
    """
    params = dm.params
    prec = min(Fraction(params.M), dm.tail_bound)
    if max_degree is not None and max_degree < dm.dim:
        coeffs = padic._char_series_prefix_encoded(
            params, dm.encoded(), dm.dim, max_degree
        )
        return coeffs, prec
    coeffs = padic.char_series_division_free(dm.rows())
    return coeffs, prec
