"""Torus character sums, L-series assembly and rational recognition.

Two independent evaluations of the twisted sums S_m over F_{q^m}, L = q^m - 1:

* character route: the sum over the torus (F_{q^m}^*)^n of Teichmueller-power
  multiplicative characters times theta(1)^(absolute trace) -- no series
  involved;
* series route: the truncated level-m twisted series summed over the
  Teichmueller points of the torus.  By orthogonality that sum is
  (q^m - 1)^n times the sum of the series coefficients whose exponents
  q^m - 1 divides (``dwork.diagonal_sum``), with no torus enumeration.

The character route reads one cached table per (p, s = f m, M): the discrete
log of every element of F_{p^s}^* to the distinguished generator g, Tr(g^e)
for every e, the Teichmueller powers teich(g)^e and ``theta_rep``, the
regular representations of theta(1)^c for c < p stacked into one
(p blow, blow) matrix.  The walks over powers are built by doubling, the
first 2^k powers times y^(2^k) giving the next 2^k (as an F_p matrix for
y = g, as a regular representation for y = teich(g) and theta(1)).
``require_level_budget`` refuses a level before its table is built when the
level, its torus points or its table coordinates pass a module limit.
A torus point u = g^l enters the character sum only through the twist class
k = shift(m) . l mod L and the trace c = sum_j Tr(g^(log a_j + A_j . l)) in
F_p (the trace is F_p-linear), so with N(k, c) the number of points of each
class

    S_m = sum_{k, c} N(k, c) teich(g)^k theta(1)^c.

One kernel, ``_character_values``, evaluates this for a batch of X
coefficient rows x at once: one ``np.bincount`` per block gives the (x, k, c)
histogram N_x(k, c), with a zero coefficient read as the appended trace 0,
and the ring work is two modular matmuls, (X p, L) x (L, blow) against the
Teichmueller powers and (X, p blow) x (p blow, blow) against ``theta_rep``
for the sum over c.  Rows and torus points are taken in blocks, so memory is
bounded whatever q^N and (q^m - 1)^n are.  ``sums_oracle_characters`` runs it
on one row and restricts the value back to the base ring, which doubles as a
Galois-invariance check; ``hyp_table`` runs it on all q^N rows of level 1,
whose ring is the base ring.  L-series come either from
exp(sum S_m T^m / m) -- with the valuation of every division recorded as a
per-coefficient precision loss -- or, exactly, from the binomial product of
characteristic series of the operator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from . import dwork, finitefield as ff, padic
from .errors import BudgetExceeded, LevelTooLarge, NonUnitConstantTerm, NotAField
from .padic import RamifiedElement, RingParams


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

# torus points per numpy block of the character oracle; bounds its memory
# whatever the size of the torus
_BLOCK = 1 << 16

# levels above which the character oracle refuses outright
LEVEL_LIMIT = 6

# torus points above which the character oracle refuses a level: its numpy
# work is linear in the (q^m - 1)^n points, about 8 M points/s on 2 vCPUs
# (level 4 of A = I_3, p = 5, 624^3 = 2.4e8 points, takes 30 s), so the
# limit is about half a minute of counting
TORUS_LIMIT = 1 << 28

# coefficient points q^N above which hyp_table refuses: it bounds the table,
# the q^N entries of the report and the q^N rows of the batched histogram
HYP_LIMIT = 4096

# coordinates above which the character oracle refuses a level table: L rows
# of Teichmueller powers plus the (blow, blow, blow) multiplication tensor of
# R(p, s, M); p = 13, s = 5 (22.5 M coordinates) peaks at 354 MB in 8 s
LEVEL_TABLE_LIMIT = 1 << 25


def require_level_budget(p: int, f: int, m: int, n: int) -> None:
    """Refuse level m over F_{p^f} before any table is built: above
    LEVEL_LIMIT, with more than TORUS_LIMIT torus points, or with a table of
    more than LEVEL_TABLE_LIMIT coordinates.  Every count grows with m, so
    checking the top level of a run checks them all."""
    if m > LEVEL_LIMIT:
        raise LevelTooLarge(f"level {m} exceeds the budget {LEVEL_LIMIT}")
    L = p ** (f * m) - 1
    points = L**n
    if points > TORUS_LIMIT:
        raise BudgetExceeded(
            f"level {m} needs {points} torus points, above the limit "
            f"{TORUS_LIMIT}"
        )
    blow = (p - 1) * f * m
    size = L * blow + blow**3
    if size > LEVEL_TABLE_LIMIT:
        raise BudgetExceeded(
            f"level {m} needs a table of {size} coordinates, above the limit "
            f"{LEVEL_TABLE_LIMIT}"
        )


def _powers(one, step, count: int, mod: int) -> np.ndarray:
    """Coordinate rows one * y^e for e < count (count >= 2), where step is
    the matrix of x -> x y on coordinate rows: the first 2^k rows times
    y^(2^k) give the next 2^k, so ceil(log2 count) products and squarings."""
    rows = np.empty((count, len(one)), dtype=np.int64)
    rows[0] = one
    done = 1
    while True:
        k = min(done, count - done)
        rows[done:done + k] = padic.matmul_mod(rows[:k], step, mod)
        done += k
        if done == count:
            return rows
        step = padic.matmul_mod(step, step, mod)


class LevelTable:
    """F_{p^s}^* by discrete logarithm to a generator g, L = p^s - 1.

    log[code] is the log of the element with coefficient vector c, where
    code = sum_j c_j p^j (-1 for zero); trace[e] = Tr(g^e) in 0..p-1;
    teich[e] holds the coordinates of teich(g)^e in R(p, s, M), shape
    (L, blow); theta_rep, shape (p blow, blow), stacks the transposed regular
    representations of theta(1)^c for c = 0..p-1, so that a row holding y_c
    in block c times theta_rep is sum_c theta(1)^c y_c.
    """

    def __init__(self, field: ff.FqParams, ring: RingParams, gen: ff.FqElement):
        p, s = field.p, field.degree
        L = field.q - 1
        self.field, self.ring, self.L = field, ring, L
        self.codes = p ** np.arange(s, dtype=np.int64)
        # row j of the F_p step matrix: the coefficients of b^j g
        basis = [field.element([int(i == j) for i in range(s)]) for j in range(s)]
        step = np.array([(b * gen).coeffs for b in basis], dtype=np.int64)
        coeffs = _powers(field.one().coeffs, step, L + 1, p)
        codes = coeffs[:L] @ self.codes
        # g^(e+1) is determined by g^e, so the powers are distinct up to the
        # first repeat, which therefore sits at the number of distinct powers;
        # a zero power fails where it first appears
        zeros = np.flatnonzero(codes == 0)
        e = min(
            np.count_nonzero(np.bincount(codes, minlength=field.q)),
            int(zeros[0]) if len(zeros) else L,
        )
        if e < L:
            raise NotAField(
                f"only {e} < {L} distinct powers of {gen!r}: the modulus of "
                f"{field!r} is reducible or the element is not a generator"
            )
        if tuple(coeffs[L]) != field.one().coeffs:
            raise NotAField(f"{gen!r}^{L} != 1 in {field!r}")
        self.log = np.full(field.q, -1, dtype=np.int64)
        self.log[codes] = np.arange(L)
        # the trace is F_p-linear: Tr(g^e) = sum_j coeff_j(g^e) Tr(b^j)
        basis_traces = np.array(
            [ff.absolute_trace_int(b) for b in basis], dtype=np.int64
        )
        self.trace = coeffs[:L] @ basis_traces % p
        tg = padic.teichmueller(gen, ring)
        self.teich = _powers(ring.one().coords, ring.reg_rep(tg.coords).T, L, ring.pM)
        th = padic.ring_embed(padic.theta_one(padic.ring_create(p, 1, ring.M)), ring)
        theta = _powers(ring.one().coords, ring.reg_rep(th.coords).T, p, ring.pM)
        self.theta_rep = (
            np.tensordot(theta, ring.mult_tensor(), axes=(1, 0)) % ring.pM
        ).reshape(p * ring.blow, ring.blow)
        for arr in (self.log, self.trace, self.teich, self.theta_rep):
            arr.flags.writeable = False  # shared by every caller of the cache

    def log_of(self, x: ff.FqElement) -> int:
        """The discrete log of x, and L for x = 0."""
        e = int(self.log[int(np.array(x.coeffs, dtype=np.int64) @ self.codes)])
        return self.L if e < 0 else e


@lru_cache(maxsize=None)
def level_table(p: int, s: int, M: int) -> LevelTable:
    """The table of F_{p^s} and R(p, s, M), built once per process."""
    field = ff.FqParams(p, s)
    return LevelTable(
        field, padic.ring_create(p, s, M), ff.multiplicative_generator(field)
    )


def _torus_blocks(L: int, n: int, size: int):
    """The torus (Z/L)^n as rows of discrete logs, at most size rows a block."""
    total = L**n
    for start in range(0, total, size):
        idx = np.arange(start, min(start + size, total), dtype=np.int64)
        yield np.stack([idx // L ** (n - 1 - i) % L for i in range(n)], axis=1)


def _character_values(tab: LevelTable, config, x_logs, tw) -> np.ndarray:
    """The character sum over (F_{p^s}^*)^n for a batch of coefficient rows.

    x_logs: (X, N) discrete logs of the coefficients in tab, L for a zero
    coefficient; tw: the twist shift mod L.  Row i of the (X, blow) result
    holds the coordinates in tab.ring of sum_{k, c} N_i(k, c) teich(g)^k
    theta(1)^c.  Rows are taken so many at a time, and the torus so many
    points a block, that no array passes _BLOCK x (N or p) entries unless
    one row alone needs more.
    """
    L, p, pM = tab.L, tab.field.p, tab.ring.pM
    n = config.n
    A = np.array(config.A, dtype=np.int64).reshape(n, config.N) % L
    # a zero coefficient reads the appended Tr = 0, so adds nothing to c
    trace = np.append(tab.trace, 0)
    rows = max(1, _BLOCK // L**n)
    out = np.empty((len(x_logs), tab.ring.blow), dtype=np.int64)
    for start in range(0, len(x_logs), rows):
        x = x_logs[start:start + rows, None, :]
        X = len(x)
        counts = np.zeros(X * p * L, dtype=np.int64)
        for logs in _torus_blocks(L, n, _BLOCK // X):
            k = logs @ tw % L
            e = np.where(x == L, L, (logs @ A + x) % L)
            c = trace[e].sum(axis=2) % p
            key = (np.arange(X)[:, None] * p + c) * L + k
            counts += np.bincount(key.ravel(), minlength=X * p * L)
        # row (x, c): sum_k N(k, c) teich(g)^k; then the sum over c
        by_trace = padic.matmul_mod(counts.reshape(X * p, L) % pM, tab.teich, pM)
        out[start:start + X] = padic.matmul_mod(
            by_trace.reshape(X, p * tab.ring.blow), tab.theta_rep, pM
        )
    return out


def sums_oracle_characters(
    config,
    a_residues,
    twist: dwork.TwistData,
    m: int,
    M: int,
) -> tuple[RamifiedElement, Fraction]:
    """S_m as the character sum over (F_{q^m}^*)^n, by the (k, c) histogram.

    a_residues: the coefficients as elements of F_q.  The value is returned in
    the base ring R(p, f, M); the numpy work is linear in the (q^m - 1)^n
    points.
    """
    base_field = a_residues[0].params
    p, f = base_field.p, base_field.degree
    assert twist.q == p**f
    require_level_budget(p, f, m, config.n)
    tab = level_table(p, f * m, M)
    L = tab.L
    x_logs = np.array(
        [[tab.log_of(ff.embed(a, tab.field)) for a in a_residues]], dtype=np.int64
    )
    tw = np.array([e % L for e in twist.shift(m)], dtype=np.int64)
    (value,) = _character_values(tab, config, x_logs, tw)
    return (
        padic.ring_restrict(tab.ring.from_coords(value), padic.ring_create(p, f, M)),
        Fraction(M),
    )


def sums_oracle_series(
    config,
    a_residues,
    twist: dwork.TwistData,
    m: int,
    M: int,
    nd,
    series: dwork.SeriesOnCone | None = None,
) -> tuple[RamifiedElement, Fraction]:
    """S_m by evaluating the truncated level-m twisted series at the
    Teichmueller points of the torus; agrees with the character oracle to
    certified precision (that agreement is the theta-identity under test).

    By orthogonality the sum over the (q^m - 1)^n points is (q^m - 1)^n times
    the diagonal sum of the series, which already lies in the base ring."""
    base_field = a_residues[0].params
    if series is None:
        base_ring = padic.ring_create(base_field.p, base_field.degree, M)
        a_lifts = [padic.teichmueller(a, base_ring) for a in a_residues]
        series = dwork.h_series(a_lifts, twist, m, nd)
    return dwork.diagonal_sum(series) * (twist.q**m - 1) ** config.n, Fraction(M)


def hyp_table(
    config,
    twist: dwork.TwistData,
    field: ff.FqParams,
    M: int,
) -> dict:
    """The twisted sum at every rational coefficient point x in F_q^N, all
    q^N character sums from one batched histogram of level 1."""
    import itertools

    if field.q**config.N > HYP_LIMIT:
        raise BudgetExceeded(
            f"q^N = {field.q ** config.N} exceeds the table budget {HYP_LIMIT}"
        )
    p, f = field.p, field.degree
    assert twist.q == field.q
    require_level_budget(p, f, 1, config.n)
    tab = level_table(p, f, M)
    # level 1's ring is the base ring: the values need no restriction
    assert tab.ring == padic.ring_create(p, f, M)
    elements = list(field.all_elements())
    x_logs = np.array(
        list(itertools.product([tab.log_of(e) for e in elements], repeat=config.N)),
        dtype=np.int64,
    )
    tw = np.array([e % tab.L for e in twist.shift(1)], dtype=np.int64)
    values = _character_values(tab, config, x_logs, tw)
    keys = itertools.product([e.coeffs for e in elements], repeat=config.N)
    return {x: tab.ring.from_coords(v) for x, v in zip(keys, values)}


# ----------------------------------------------------------------------
# power series in T over the ring
# ----------------------------------------------------------------------

class PowerSeriesT:
    """Truncated series with a per-coefficient certified precision (the
    number of known p-adic digits, as an exact rational)."""

    def __init__(self, params: RingParams, coeffs, precs):
        self.params = params
        self.coeffs = list(coeffs)
        self.precs = [Fraction(x) for x in precs]

    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"PowerSeriesT({self.coeffs!r})"


def divide_by_int(x: RamifiedElement, k: int) -> tuple[RamifiedElement, int]:
    """x / k with the p-part of k stripped digit-by-digit; returns the
    quotient and the number of precision digits lost (= ord_p(k))."""
    params = x.params
    p, pM = params.p, params.pM
    e = 0
    kk = k
    while kk % p == 0:
        kk //= p
        e += 1
    y = x * pow(kk, -1, pM)
    if e == 0:
        return y, 0
    pe = p**e
    coords = []
    for c in y.coords:
        if c % pe:
            raise ArithmeticError(
                "division by p^e hit a non-divisible coordinate; the dividend "
                "was not the integral series coefficient it should be"
            )
        coords.append(c // pe)
    return params.from_coords(coords), e


def l_series_from_sums(sums, m_max: int) -> PowerSeriesT:
    """exp(sum_m S_m T^m / m) truncated at T^m_max via k L_k = sum S_m L_{k-m}.

    sums: list of (S_m, precision) for m = 1..m_max.  Each division by k
    divisible by p costs ord_p(k) digits, recorded per coefficient.
    """
    if m_max < 1 or len(sums) < m_max:
        raise ValueError("need S_m for every m <= m_max")
    params = sums[0][0].params
    coeffs = [params.one()]
    precs = [Fraction(params.M)]
    for k in range(1, m_max + 1):
        acc = params.zero()
        prec = Fraction(params.M)
        for m in range(1, k + 1):
            S, sp = sums[m - 1]
            acc = acc + S * coeffs[k - m]
            prec = min(prec, sp, precs[k - m])
        val, lost = divide_by_int(acc, k)
        coeffs.append(val)
        precs.append(prec - lost)
    return PowerSeriesT(params, coeffs, precs)


def _mul_trunc(params, a, b, order):
    out = [params.zero() for _ in range(order + 1)]
    for i, x in enumerate(a):
        if i > order or x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def _inv_trunc(params, a, order):
    if a[0] != params.one():
        raise NonUnitConstantTerm("series inversion needs constant term 1")
    out = [params.one()] + [params.zero()] * order
    for k in range(1, order + 1):
        acc = params.zero()
        for j in range(1, min(k, len(a) - 1) + 1):
            if not a[j].is_zero():
                acc = acc + a[j] * out[k - j]
        out[k] = -acc
    return out


def l_from_charseries(
    P,
    P_prec,
    n: int,
    q: int,
    m_max: int,
) -> PowerSeriesT:
    """L from the operator side: prod_k P(q^(n-k) T)^((-1)^(k+1) binom(n,k))
    truncated at T^m_max.  Exact in the ring: inversion and products only."""
    params = P[0].params
    if P[0] != params.one():
        raise NonUnitConstantTerm("characteristic series must start at 1")
    num = [params.one()]
    den = [params.one()]
    for k in range(n + 1):
        s = q ** (n - k)
        scaled = []
        for i, c in enumerate(P):
            if i > m_max:
                break
            scaled.append(c * pow(s, i, params.pM))
        # exponent (-1)^(k+1) binom(n, k): odd k contributes to the numerator
        for _ in range(comb(n, k)):
            if k % 2 == 1:
                num = _mul_trunc(params, num, scaled, m_max)
            else:
                den = _mul_trunc(params, den, scaled, m_max)
    result = _mul_trunc(params, num, _inv_trunc(params, den, m_max), m_max)
    prec = min(Fraction(P_prec), Fraction(params.M))
    return PowerSeriesT(params, result, [prec] * (m_max + 1))


# ----------------------------------------------------------------------
# rational recognition and Newton polygons
# ----------------------------------------------------------------------

class LPolynomial:
    """Recognized polynomial; sign is the exponent (-1)^(n-1) relating the
    L-series to this polynomial."""

    def __init__(self, params, coeffs, precs, sign: int):
        self.params = params
        self.coeffs = list(coeffs)
        self.precs = list(precs)
        self.sign = sign

    def degree(self) -> int:
        return len(self.coeffs) - 1


class NotPolynomial:
    def __init__(self, index: int, coeff, prec):
        self.index = index
        self.coeff = coeff
        self.prec = prec

    def __repr__(self):
        return f"NotPolynomial(first offending T^{self.index})"


def rational_recognition(series: PowerSeriesT, expected_degree: int, n: int):
    """Raise the series to (-1)^(n-1) and accept iff every coefficient beyond
    expected_degree vanishes at its certified precision."""
    if series.order() < expected_degree + 3:
        raise ValueError(
            f"series known to order {series.order()}, need {expected_degree + 3}"
        )
    params = series.params
    sign = 1 if n % 2 == 1 else -1
    if sign == 1:
        coeffs = list(series.coeffs)
        precs = list(series.precs)
    else:
        coeffs = _inv_trunc(params, series.coeffs, series.order())
        worst = min(series.precs)
        precs = [worst] * len(coeffs)
    for k in range(expected_degree + 1, len(coeffs)):
        ord_k = padic.pi_ord(coeffs[k])
        if not ord_k.known_at_least(precs[k]):
            return NotPolynomial(k, coeffs[k], precs[k])
    return LPolynomial(
        params, coeffs[: expected_degree + 1], precs[: expected_degree + 1], sign
    )


class NewtonPolygon:
    """Lower convex hull of (i, ord c_i); slopes listed with multiplicity.

    flagged lists interior indices whose coefficient is indistinguishable
    from zero at working precision (they cannot pull the hull down below the
    precision ceiling, and are reported rather than silently trusted)."""

    def __init__(self, vertices, slopes, flagged):
        self.vertices = vertices  # [(i, Fraction ord)]
        self.slopes = slopes  # [(Fraction slope, int multiplicity)]
        self.flagged = flagged

    def slope_list(self):
        out = []
        for s, mult in self.slopes:
            out.extend([s] * mult)
        return out


def newton_polygon(poly: LPolynomial) -> NewtonPolygon:
    params = poly.params
    pts = []
    flagged = []
    for i, c in enumerate(poly.coeffs):
        o = padic.pi_ord(c)
        if o.at_least_precision:
            if 0 < i < poly.degree():
                flagged.append(i)
            elif i == poly.degree():
                flagged.append(i)
            continue
        pts.append((i, o.value))
    if not pts or pts[0][0] != 0:
        raise ValueError("constant term must be a unit (ord 0)")
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y2 - y1, x2 - x1)
        if slopes and slopes[-1][0] == s:
            slopes[-1] = (s, slopes[-1][1] + (x2 - x1))
        else:
            slopes.append((s, x2 - x1))
    return NewtonPolygon(hull, slopes, flagged)
