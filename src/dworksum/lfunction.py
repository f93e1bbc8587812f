"""Torus character sums, the nondegeneracy certificate, L-series assembly
and rational recognition.

F_q = F_{p^f} enters as coefficient tuples (c_0, ..., c_{f-1}) beside the
job's ``finitefield.FqParams``; every walk over a field runs on its table.
The twisted sums S_m over F_{q^m}, L = q^m - 1, have two independent
evaluations:

* character route (here): the sum over the torus (F_{q^m}^*)^n of
  Teichmueller-power multiplicative characters times theta(1)^(absolute
  trace) -- no series involved;
* series route (``dwork.level_diagonal_sum``): the truncated level-m twisted
  series summed over the Teichmueller points of the torus.  By orthogonality
  that sum is (q^m - 1)^n times the sum of the series coefficients whose
  exponents q^m - 1 divides, taken by a cyclic fold on (Z/(q^m - 1))^n
  without expanding the series or enumerating the torus.

The character route evaluates every level in the base ring R(p, f, M).  It
reads the cached table of F_{q^m} (the discrete log of every element to the
distinguished generator g, the F_p coefficients of g^e and Tr(g^e) for
every e) and that of F_q with its ring data: the Teichmueller powers
teich(g_q)^e, e < q - 1, on the f coordinates of the pi^0 row, and
theta(1)^c, c < p, on the p - 1 of the b^0 column.  The walks over powers
are padic.powers: the first 2^k powers times y^(2^k) give the next
2^k (as an F_p matrix for y = g, as a block of the regular representation
for y = teich(g_q) and theta(1)).  ``require_level_budget`` refuses a level
before its tables are built when the level, its torus points or its table
coordinates pass a module limit.  No ring of the level is needed: with
d = (q^m - 1)/(q - 1) the twist is teich(g)^(shift(m) . l) = teich(h)^(k . l)
for h = g^d, a generator of the copy of F_q^*, and theta(1) lies in
Z_p[pi].  A torus point u = g^l therefore enters the character sum only
through its twist class, k . l read as a power of the base generator g_q,
and the trace c = sum_j Tr(g^(log a_j + A_j . l)) in F_p (the trace is
F_p-linear), so with N(k, c) the number of points of each class

    S_m = sum_{k, c} N(k, c) teich(g_q)^k theta(1)^c.

F_q enters F_{q^m} along ``_embedding``, the one embedding of both torus
walks: for m > 1, b goes to the lexicographically smallest root of the
modulus of F_q among the h^t.  Two embeddings differ by a Frobenius, which
permutes the torus and leaves S_m unchanged, so any root gives the same
value; the nondegeneracy witness is a point of the torus, so it does
depend on the root.

One kernel, ``_character_values``, evaluates this for a batch of X
coefficient rows x at once.  ``_torus_grids`` splits the torus into blocks
that are products of per-axis ranges, where the exponents A_j . l and the
twist classes are outer sums of per-axis progressions; one ``np.bincount``
per block gives the (x, k, c) histogram N_x(k, c).  The ring work is two
modular matmuls, (X p, q - 1) x (q - 1, f) against the Teichmueller powers
and (X f, p) x (p, p - 1) against the theta(1) powers for the sum over c;
pi^i times b^j is the coordinate i f + j, so no representation is needed.
Rows and blocks are bounded by _BLOCK, whatever q^N and
(q^m - 1)^n are.  ``sums_oracle_characters`` runs it on one row at any
level, ``hyp_table`` on all q^N rows of level 1: the rows are
``coefficient_grid``, built once as the base-p digits of 0..q^N - 1 in
itertools.product order, which the kernel reads as they are and the hyp
command reports entry by entry.  ``nondegeneracy_check`` walks the torus
of F_{q^s}, s <= s_max, on the same tables and blocks.

L-series come either from exp(sum S_m T^m / m) -- with the valuation of
every division recorded as a per-coefficient precision loss -- or, exactly,
from the binomial product of characteristic series of the operator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from . import dwork, finitefield as ff, padic, polytope as pt
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
# work is linear in the (q^m - 1)^n points, about 60 M points/s at N = 3 on
# 2 vCPUs (level 4 of A = I_3, p = 5, 624^3 = 2.4e8 points, takes 4 s), so
# the limit is about 5 s of counting
TORUS_LIMIT = 1 << 28

# coefficient points q^N above which hyp_table refuses: it bounds the table,
# the q^N entries of the report and the q^N rows of the batched histogram
HYP_LIMIT = 4096

# coordinates above which the character oracle refuses a level: the logs,
# traces and power rows of F_{q^m}, and the ring data of R(p, f, M) that it
# holds (the Teichmueller and theta(1) powers, and per batch of coefficient
# rows the histogram and its by-trace rows); p = 19, f = 1, m = 5 at M = 4
# (17.3 M coordinates) peaks at 239 MB in 0.3-0.45 s on 2 vCPUs
LEVEL_TABLE_LIMIT = 1 << 25


def require_level_budget(p: int, f: int, m: int, n: int, rows: int = 1) -> None:
    """Refuse level m over F_{p^f} before any table is built: above
    LEVEL_LIMIT, with more than TORUS_LIMIT torus points, or with tables of
    more than LEVEL_TABLE_LIMIT coordinates: those of F_{q^m}, and for the
    character sums of rows coefficient rows (none in the nondegeneracy walk)
    the (q - 1, f) Teichmueller powers, the (p, p - 1) theta(1) powers and,
    per row of a batch, the (p, q - 1) histogram and (p, f) by-trace rows.
    Every count grows with m, so checking the top level checks them all."""
    if m > LEVEL_LIMIT:
        raise LevelTooLarge(f"level {m} exceeds the budget {LEVEL_LIMIT}")
    L = p ** (f * m) - 1
    points = L**n
    if points > TORUS_LIMIT:
        raise BudgetExceeded(
            f"level {m} needs {points} torus points, above the limit "
            f"{TORUS_LIMIT}"
        )
    # the logs, traces and power rows of F_{q^m}
    size = (L + 1) + L * (1 + f * m)
    if rows:
        Lq = p**f - 1
        batch = min(rows, max(1, _BLOCK // L**n))
        size += Lq * f + p * (p - 1) + batch * p * (Lq + f)
    if size > LEVEL_TABLE_LIMIT:
        raise BudgetExceeded(
            f"level {m} needs a table of {size} coordinates, above the limit "
            f"{LEVEL_TABLE_LIMIT}"
        )


class FieldTable:
    """F_{p^s}^* by discrete logarithm to a generator gen = g, L = p^s - 1.

    powers[e] holds the F_p coefficients of g^e, shape (L, s); log[code] is
    the log of the element with coefficient vector c, where
    code = sum_j c_j p^j (-1 for zero); trace[e] = Tr(g^e) in 0..p-1.
    """

    def __init__(self, field: ff.FqParams, gen: tuple):
        p, s = field.p, field.degree
        L = field.q - 1
        self.field, self.gen, self.L = field, gen, L
        self.codes = p ** np.arange(s, dtype=np.int64)
        # row j of the F_p step matrix: the coefficients of b^j g
        basis = [tuple(int(i == j) for i in range(s)) for j in range(s)]
        step = np.array(
            [ff.polymulmod(b, gen, field.modulus, p) for b in basis], dtype=np.int64
        )
        coeffs = padic.powers(basis[0], step, L + 1, p)
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
        if tuple(coeffs[L]) != basis[0]:
            raise NotAField(f"{gen!r}^{L} != 1 in {field!r}")
        self.powers = coeffs[:L]
        self.log = np.full(field.q, -1, dtype=np.int64)
        self.log[codes] = np.arange(L)
        # the trace is F_p-linear: Tr(g^e) = sum_j coeff_j(g^e) Tr(b^j)
        basis_traces = np.array(
            [ff.absolute_trace_int(b, field) for b in basis], dtype=np.int64
        )
        self.trace = self.powers @ basis_traces % p
        for arr in (self.powers, self.log, self.trace):
            arr.flags.writeable = False  # shared by every caller of the cache

    def logs(self, coeffs) -> np.ndarray:
        """The discrete logs of coefficient rows (..., s), L for zero."""
        e = self.log[np.asarray(coeffs, dtype=np.int64) @ self.codes]
        return np.where(e < 0, self.L, e)


class LevelTable:
    """The FieldTable of F_q = F_{p^s} (base) with its generator g, and the
    ring data of R(p, s, M) that every level's character sum is evaluated
    with, each in the subring that holds it.

    teich[e] holds the pi^0 row of teich(g)^e, its s coordinates in the
    unramified subring (Z/p^M)[b]/(g), shape (L, s); theta[c] holds the b^0
    column of theta(1)^c, its p - 1 coordinates in Z_p[pi], shape (p, p - 1).
    Every other coordinate of both is 0.
    """

    def __init__(self, base: FieldTable, ring: RingParams):
        self.base, self.ring = base, ring
        s, one = ring.s, ring.one().coords
        # each power walk runs on its subring's block of the element's rep
        tg = ring.unramified_rep(padic.teichmueller(base.gen, ring).coords[:s])
        th = ring.rep(padic.theta_one(ring).coords)
        self.teich = padic.powers(one[:s], tg, base.L, ring.pM)
        self.theta = padic.powers(one[::s], th[::s, ::s], base.field.p, ring.pM)
        for arr in (self.teich, self.theta):
            arr.flags.writeable = False


@lru_cache(maxsize=None)
def field_table(p: int, s: int) -> FieldTable:
    """The table of F_{p^s} alone, built once per process."""
    field = ff.FqParams(p, s)
    return FieldTable(field, ff.multiplicative_generator(field))


@lru_cache(maxsize=None)
def level_table(p: int, s: int, M: int) -> LevelTable:
    """The ring data of R(p, s, M) over the cached table of F_{p^s}, built
    once per process."""
    return LevelTable(field_table(p, s), padic.ring_create(p, s, M))


def _torus_grids(L: int, n: int, size: int):
    """The torus (Z/L)^n of logs in row-major order, as blocks of at most
    max(size, 1) points, each the list of its n per-axis ranges: the axes
    after the first whole while they fit, the axis before them in ranges
    (one range if the torus fits), the leading axes one value at a time."""
    size = max(size, 1)
    whole = max(w for w in range(n) if L**w <= size)
    step, tail = size // L**whole, [np.arange(L)] * whole
    for head in itertools.product(range(L), repeat=n - whole - 1):
        for start in range(0, L, step):
            cut = np.arange(start, min(start + step, L))
            yield [np.array([h]) for h in head] + [cut] + tail


def _modulus_roots(tab: FieldTable, big: FieldTable) -> np.ndarray:
    """The discrete logs in big of the roots of tab's modulus.

    The roots lie in the copy of F_q^* that h = g^d generates,
    d = (q^m - 1)/(q - 1), so the modulus is evaluated at every h^t, t < q - 1,
    as one sum of antilog rows.  For f = 1 the modulus is b, whose root 0 has
    no log; log 0 then stands in, since only b^0 = 1 is ever embedded.
    """
    if tab.field.degree == 1:
        return np.zeros(1, dtype=np.int64)
    d = big.L // tab.L
    exps = np.arange(tab.L) * d
    i = np.arange(tab.field.degree + 1)[:, None]
    values = np.tensordot(tab.field.modulus, big.powers[i * exps % big.L], axes=1)
    return exps[~(values % tab.field.p).any(axis=1)]


def _embedding(tab: FieldTable, big: FieldTable) -> np.ndarray:
    """The F_p rows in big of the images of b^i, i < f, where F_q = F_{p^f}
    is tab's field: the one embedding that both torus walks use.

    It is the identity when big is F_q itself.  Otherwise b goes to the root
    of the modulus among ``_modulus_roots`` whose coefficient vector, read
    with c_0 most significant, is lexicographically smallest.
    """
    f = tab.field.degree
    if big.field.degree == f:
        return np.eye(f, dtype=np.int64)
    roots = _modulus_roots(tab, big)
    root = int(roots[np.argmin(big.powers[roots] @ big.codes[::-1])])
    return big.powers[np.arange(f) * root % big.L]


def _character_values(tab: LevelTable, big: FieldTable, config, coeffs, k):
    """The level character sum for a batch of coefficient rows, in the base
    ring: row i of the (X, blow) result holds the coordinates in tab.ring of
    S_m at coefficient row i.

    tab: the table of F_q and R(p, f, M); big: the table of F_{q^m} (tab.base
    at m = 1); coeffs: (X, N, f) coefficients in F_q; k: the twist
    exponents.  With b -> rho the root ``_embedding`` picks, h = g^d and
    rho(g_q) = h^t0, a point l has teich(h)^(k . l) = teich(g_q)^(k . l / t0),
    so the histogram runs over the q - 1 classes k . l / t0.  Rows are taken
    so many at a time, and the torus in ``_torus_grids`` blocks of so many
    points, that no array passes _BLOCK entries unless one row alone needs
    more.  In a block, x_j + A_j . l < (n + 1) L is an outer sum of per-axis
    progressions and reads the traces tiled n + 1 times, then n L zeros that
    a zero coefficient, x_j = (n + 1) L, reads; their sum over j is at most
    N (p - 1), which fixes its integer type.
    """
    base = tab.base
    p, f, pM = base.field.p, tab.ring.s, tab.ring.pM
    L, Lq, n, N = big.L, base.L, config.n, config.N
    rows = _embedding(base, big)
    x_logs = big.logs(np.asarray(coeffs) @ rows % p)
    x_logs[x_logs == L] = (n + 1) * L
    t0 = int(big.logs(base.powers[1] @ rows % p)) // (L // Lq)
    tw = np.array(k, dtype=np.int64) * pow(t0, -1, Lq) % Lq
    A = np.array(config.A, dtype=np.int64).reshape(n, N) % L
    trace = np.zeros((2 * n + 1) * L, dtype=np.min_scalar_type(N * (p - 1)))
    trace[:(n + 1) * L] = np.tile(big.trace, n + 1)
    # trace sum c and class sum e < n (q - 1) key (c mod p, e mod (q - 1))
    c_key, k_key = np.arange(N * (p - 1) + 1) % p * Lq, np.tile(np.arange(Lq), n)
    batch = max(1, _BLOCK // L**n)
    out = np.empty((len(x_logs), tab.ring.blow), dtype=np.int64)
    for start in range(0, len(x_logs), batch):
        x = x_logs[start:start + batch]
        X = len(x)
        counts = spread = None  # the first block's histogram, then the running sum
        for grid in _torus_grids(L, n, _BLOCK // X):
            # the rows are one more axis of the outer sums
            R, *g = np.ix_(range(X), *grid)
            c = sum(
                trace[sum((a * h % L for a, h in zip(A[:, j], g)), x[R, j])]
                for j in range(N)
            )
            cls = k_key.take(sum(t * h % Lq for t, h in zip(tw, g)))
            key = c_key.take(c) + (cls + R * (p * Lq))
            spread = np.bincount(key.ravel(), minlength=X * p * Lq)
            if counts is None:
                counts = spread
            else:
                counts += spread
        # row (x, c): sum_k N(k, c) teich(g_q)^k on the pi^0 row; then the
        # sum over c on rows (x, b^j) against the b^0 column of theta(1)^c,
        # pi^i b^j to coordinate i f + j.  A count is at most the L^n points
        # of its row, so below p^M unless L^n reaches it
        if L**n >= pM:
            counts %= pM
        by_trace = padic.matmul_mod(counts.reshape(X * p, Lq), tab.teich, pM)
        by_trace = by_trace.reshape(X, p, f).transpose(0, 2, 1).reshape(X * f, p)
        S = padic.matmul_mod(by_trace, tab.theta, pM).reshape(X, f, p - 1)
        out[start:start + X] = S.transpose(0, 2, 1).reshape(X, -1)
    return out


def sums_oracle_characters(
    config,
    field: ff.FqParams,
    a_coeffs,
    twist: dwork.TwistData,
    m: int,
    M: int,
) -> tuple[RamifiedElement, Fraction]:
    """S_m as the character sum over (F_{q^m}^*)^n, by the (k, c) histogram.

    a_coeffs: the coefficients as coefficient tuples of F_q = field.  The
    value lies in the base ring R(p, f, M); the numpy work is linear in the
    (q^m - 1)^n points.
    """
    p, f = field.p, field.degree
    assert twist.q == field.q
    require_level_budget(p, f, m, config.n)
    tab, big = level_table(p, f, M), field_table(p, f * m)
    (value,) = _character_values(tab, big, config, [a_coeffs], twist.k)
    return tab.ring.from_coords(value), Fraction(M)


def coefficient_grid(field: ff.FqParams, N: int) -> np.ndarray:
    """Every coefficient point x in F_q^N as a (q^N, N, f) array of base-p
    digits: row i holds the digits of i, most significant first, which is
    itertools.product order over sorted ranges, so the rows are sorted."""
    digits = N * field.degree
    place = field.p ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    grid = np.arange(field.p**digits, dtype=np.int64)[:, None] // place % field.p
    return grid.reshape(-1, N, field.degree)


def hyp_table(
    config,
    twist: dwork.TwistData,
    field: ff.FqParams,
    M: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The twisted sum at every rational coefficient point x in F_q^N, all
    q^N character sums from one batched histogram of level 1.  Returns the
    points, the (q^N, N, f) coefficient_grid, and the (q^N, blow) values:
    row i holds the coordinates in R(p, f, M), residues in [0, p^M), of the
    sum at point i."""
    if field.q**config.N > HYP_LIMIT:
        raise BudgetExceeded(
            f"q^N = {field.q ** config.N} exceeds the table budget {HYP_LIMIT}"
        )
    p, f = field.p, field.degree
    assert twist.q == field.q
    require_level_budget(p, f, 1, config.n, rows=field.q**config.N)
    tab = level_table(p, f, M)
    grid = coefficient_grid(field, config.N)
    return grid, _character_values(tab, tab.base, config, grid, twist.k)


# ----------------------------------------------------------------------
# nondegeneracy
# ----------------------------------------------------------------------

class NondegenerateUpTo:
    def __init__(self, s_max):
        self.s_max = s_max

    def __repr__(self):
        return f"NondegenerateUpTo({self.s_max})"


class DegenerateWitness:
    """A common zero on the torus of the face's toric derivatives: point is
    one coefficient tuple per torus coordinate, face the column indices."""

    def __init__(self, point, face):
        self.point = point
        self.face = face

    def __repr__(self):
        return f"DegenerateWitness(point={self.point}, face={self.face})"


def nondegeneracy_check(nd: pt.NewtonData, field: ff.FqParams, a_coeffs,
                        s_max: int = 2):
    """Bounded certificate: for every proper face avoiding the origin check
    that the face-restricted toric derivatives t_i dF/dt_i have no common zero
    on the torus over F_{q^s}, s <= s_max.  A verdict NondegenerateUpTo(s_max)
    is not a proof over the algebraic closure.

    nd: the Newton data of the exponent matrix, whose faces are walked.
    a_coeffs: the N coefficients as coefficient tuples of F_q = field.  Each
    level s reads the table of F_{q^s}: with a_j = g^(x_j) along
    ``_embedding``, the terms of t_i dF/dt_i at the point g^l are
    A[i][j] g^(x_j + A_j . l), summed from their F_p rows in blocks of
    torus points small enough that no array passes _BLOCK x N entries.
    The logs are walked sorted by coefficient vector, so the witness
    reported is the first in itertools.product order of the coefficient
    vectors: levels from s = 1 up, faces in ``faces_off_origin`` order.
    """
    config = nd.config
    if len(a_coeffs) != config.N:
        raise ValueError("need one coefficient per column")
    p, f, n = field.p, field.degree, config.n
    require_level_budget(p, f, s_max, n, rows=0)
    faces = nd.faces_off_origin()
    A = np.array(config.A, dtype=np.int64).reshape(n, config.N)
    coeffs = np.array(a_coeffs, dtype=np.int64)
    small = field_table(p, f)
    for s in range(1, s_max + 1):
        big = field_table(p, f * s)
        L = big.L
        x = big.logs(coeffs @ _embedding(small, big) % p)
        # the logs of the nonzero coefficient vectors in itertools.product
        # order, c_0 most significant
        vectors = np.arange(1, L + 1)[:, None] // big.codes[::-1] % p
        order = big.log[vectors @ big.codes]
        for face in faces:
            live = [j for j in face if x[j] != L]
            if not live:
                # the face polynomial vanishes identically
                one = tuple(big.powers[0].tolist())
                return DegenerateWitness((one,) * n, face)
            exps, mults, x_live = A[:, live] % L, A[:, live] % p, x[live]
            for grid in _torus_grids(L, n, _BLOCK // (f * s)):
                J, *logs = np.ix_(range(len(live)), *(order[g] for g in grid))
                lin = sum((exps[i][J] * l for i, l in enumerate(logs)), x_live[J])
                terms = big.powers[lin % L]
                derivs = np.tensordot(mults, terms, axes=(1, 0)) % p
                hits = np.flatnonzero(~derivs.any(axis=(0, -1)))
                if len(hits):
                    at = np.unravel_index(hits[0], terms.shape[1:-1])
                    point = big.powers[[l.flat[i] for l, i in zip(logs, at)]].tolist()
                    return DegenerateWitness(tuple(map(tuple, point)), face)
    return NondegenerateUpTo(s_max)


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

    def truncate(self, order: int) -> "PowerSeriesT":
        """The series through T^order."""
        return PowerSeriesT(
            self.params, self.coeffs[: order + 1], self.precs[: order + 1]
        )

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
    reps = params.rep(_rows(params, [S for S, _ in sums[:m_max]]))
    coeffs = [params.one()]
    precs = [Fraction(params.M)]
    for k in range(1, m_max + 1):
        acc = _dot_reversed(params, coeffs, reps[:k])
        prec = Fraction(params.M)
        for m in range(1, k + 1):
            prec = min(prec, sums[m - 1][1], precs[k - m])
        val, lost = divide_by_int(acc, k)
        coeffs.append(val)
        precs.append(prec - lost)
    return PowerSeriesT(params, coeffs, precs)


def _rows(params, elements) -> np.ndarray:
    """The coordinate rows of a list of elements, (len(elements), blow)."""
    return np.array([x.coords for x in elements], dtype=np.int64).reshape(-1, params.blow)


def _dot_reversed(params, xs, reps) -> RamifiedElement:
    """sum over j <= k of xs[-j] y_j, for reps the (k, blow, blow) reps of
    y_1..y_k, k <= len(xs): one matmul_mod of the rows xs[-1], ..., xs[-k]
    against the stacked reps."""
    rows = _rows(params, xs[len(xs) - len(reps):][::-1]).reshape(-1)
    return params.from_coords(
        padic.matmul_mod(rows, reps.reshape(-1, params.blow), params.pM))


def _mul_trunc(params, a, b, order):
    """The product of two series through T^order: every b_j a_i at once, as
    b's coordinate rows times the reps of a's, summed along i + j."""
    blow = params.blow
    A, B = _rows(params, a[:order + 1]), _rows(params, b[:order + 1])
    reps = params.rep(A).transpose(1, 0, 2).reshape(blow, -1)
    products = padic.matmul_mod(B, reps, params.pM).reshape(len(B), len(A), blow)
    out = np.zeros((order + 1, blow), dtype=np.int64)
    for j, row in enumerate(products):
        out[j:j + len(A)] += row[:order + 1 - j]
    return [params.from_coords(c) for c in out]


def _inv_trunc(params, a, order):
    if a[0] != params.one():
        raise NonUnitConstantTerm("series inversion needs constant term 1")
    reps = params.rep(_rows(params, a[1:order + 1]))
    out = [params.one()]
    for k in range(1, order + 1):
        out.append(-_dot_reversed(params, out, reps[:k]))
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
        # _mul_trunc reads no coefficient past T^m_max
        scaled = [c * pow(s, i, params.pM) for i, c in enumerate(P)]
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

    flagged lists the indices i > 0 whose coefficient is indistinguishable
    from zero at working precision (they cannot pull the hull down below the
    precision ceiling, and are reported rather than silently trusted)."""

    def __init__(self, vertices, slopes, flagged):
        self.vertices = vertices  # [(i, Fraction ord)]
        self.slopes = slopes  # [(Fraction slope, int multiplicity)]
        self.flagged = flagged


def newton_polygon(poly: LPolynomial) -> NewtonPolygon:
    params = poly.params
    pts = []
    flagged = []
    for i, c in enumerate(poly.coeffs):
        o = padic.pi_ord(c)
        if o.at_least_precision:
            if i > 0:
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
