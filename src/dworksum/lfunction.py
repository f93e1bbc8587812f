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
teich(g_q)^e, e < q - 1, and ``theta_rep``, the regular representations of
theta(1)^c for c < p stacked into one (p blow, blow) matrix.  The walks over
powers are built by doubling, the first 2^k powers times y^(2^k) giving the
next 2^k (as an F_p matrix for y = g, as a regular representation for
y = teich(g_q) and theta(1)).  ``require_level_budget`` refuses a level
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
coefficient rows x at once: one ``np.bincount`` per block gives the (x, k, c)
histogram N_x(k, c), with a zero coefficient read as the appended trace 0,
and the ring work is two modular matmuls, (X p, q - 1) x (q - 1, blow)
against the Teichmueller powers and (X, p blow) x (p blow, blow) against
``theta_rep`` for the sum over c.  Rows and torus points are taken in
blocks, so memory is bounded whatever q^N and (q^m - 1)^n are.
``sums_oracle_characters`` runs it on one row at any level, ``hyp_table`` on
all q^N rows of level 1 and returns the coordinate rows as they are.
``nondegeneracy_check`` walks the torus of F_{q^s}, s <= s_max, on the same
tables and in the same blocks, reading the F_p rows of each term of the
toric derivatives from ``powers``.

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
# work is linear in the (q^m - 1)^n points, about 8 M points/s on 2 vCPUs
# (level 4 of A = I_3, p = 5, 624^3 = 2.4e8 points, takes 30 s), so the
# limit is about half a minute of counting
TORUS_LIMIT = 1 << 28

# coefficient points q^N above which hyp_table refuses: it bounds the table,
# the q^N entries of the report and the q^N rows of the batched histogram
HYP_LIMIT = 4096

# coordinates above which the character oracle refuses a level: the logs,
# traces and power rows of F_{q^m}, and the ring data of R(p, f, M) that it
# holds (the Teichmueller powers, theta_rep, and per batch of coefficient
# rows the histogram and its by-trace rows); p = 19, f = 1, m = 5 (17.3 M
# coordinates) peaks at 203 MB in 0.35-0.45 s on 2 vCPUs
LEVEL_TABLE_LIMIT = 1 << 25


def require_level_budget(p: int, f: int, m: int, n: int, rows: int = 1) -> None:
    """Refuse level m over F_{p^f} before any table is built: above
    LEVEL_LIMIT, with more than TORUS_LIMIT torus points, or with tables of
    more than LEVEL_TABLE_LIMIT coordinates: those of F_{q^m}, and for the
    character sums of rows coefficient rows (none in the nondegeneracy walk)
    the (q - 1, blow) Teichmueller powers, the (p blow, blow) theta_rep and,
    per row of a batch, the (p, q - 1) histogram and (p, blow) by-trace rows.
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
        blow, Lq = (p - 1) * f, p**f - 1
        batch = min(rows, max(1, _BLOCK // L**n))
        size += Lq * blow + p * blow**2 + batch * p * (Lq + blow)
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


class FieldTable:
    """F_{p^s}^* by discrete logarithm to a generator g, L = p^s - 1.

    powers[e] holds the F_p coefficients of g^e, shape (L, s); log[code] is
    the log of the element with coefficient vector c, where
    code = sum_j c_j p^j (-1 for zero); trace[e] = Tr(g^e) in 0..p-1.
    """

    def __init__(self, field: ff.FqParams, gen: tuple):
        p, s = field.p, field.degree
        L = field.q - 1
        self.field, self.L = field, L
        self.codes = p ** np.arange(s, dtype=np.int64)
        # row j of the F_p step matrix: the coefficients of b^j g
        basis = [tuple(int(i == j) for i in range(s)) for j in range(s)]
        step = np.array(
            [ff.polymulmod(b, gen, field.modulus, p) for b in basis], dtype=np.int64
        )
        coeffs = _powers(basis[0], step, L + 1, p)
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


class LevelTable(FieldTable):
    """The FieldTable of F_q = F_{p^s} with its generator g, and the ring
    data of R(p, s, M) that every level's character sum is evaluated with.

    teich[e] holds the coordinates of teich(g)^e, shape (L, blow);
    theta_rep, shape (p blow, blow), stacks ring.rep(theta(1)^c) for
    c = 0..p-1, so that a row holding y_c in block c times theta_rep is
    sum_c theta(1)^c y_c.
    """

    def __init__(self, field: ff.FqParams, ring: RingParams, gen: tuple):
        super().__init__(field, gen)
        self.ring = ring
        tg = padic.teichmueller(gen, ring)
        one = ring.one().coords
        self.teich = _powers(one, ring.rep(tg.coords), self.L, ring.pM)
        th = padic.theta_one(ring)
        theta = _powers(one, ring.rep(th.coords), field.p, ring.pM)
        self.theta_rep = ring.rep(theta).reshape(field.p * ring.blow, ring.blow)
        for arr in (self.teich, self.theta_rep):
            arr.flags.writeable = False


@lru_cache(maxsize=None)
def level_table(p: int, s: int, M: int) -> LevelTable:
    """The table of F_{p^s} and R(p, s, M), built once per process."""
    field = ff.FqParams(p, s)
    return LevelTable(
        field, padic.ring_create(p, s, M), ff.multiplicative_generator(field)
    )


@lru_cache(maxsize=None)
def field_table(p: int, s: int) -> FieldTable:
    """The table of F_{p^s} alone, built once per process."""
    field = ff.FqParams(p, s)
    return FieldTable(field, ff.multiplicative_generator(field))


def _torus_blocks(L: int, n: int, size: int):
    """The torus (Z/L)^n as rows of discrete logs, at most size rows a block."""
    total = L**n
    for start in range(0, total, size):
        idx = np.arange(start, min(start + size, total), dtype=np.int64)
        yield np.stack([idx // L ** (n - 1 - i) % L for i in range(n)], axis=1)


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

    tab: the table of F_q and R(p, f, M); big: the table of F_{q^m} (tab
    itself at m = 1); coeffs: (X, N, f) coefficients in F_q; k: the twist
    exponents.  With b -> rho the root ``_embedding`` picks, h = g^d and
    rho(g_q) = h^t0, a point l has teich(h)^(k . l) = teich(g_q)^(k . l / t0),
    so the histogram runs over the q - 1 classes k . l / t0.  Rows are taken
    so many at a time, and the torus so many points a block, that no array
    passes _BLOCK x (N or p) entries unless one row alone needs more.
    """
    p, pM = tab.field.p, tab.ring.pM
    L, Lq, n = big.L, tab.L, config.n
    rows = _embedding(tab, big)
    x_logs = big.logs(np.asarray(coeffs) @ rows % p)
    t0 = int(big.logs(tab.powers[1] @ rows % p)) // (L // Lq)
    tw = np.array(k, dtype=np.int64) * pow(t0, -1, Lq) % Lq
    A = np.array(config.A, dtype=np.int64).reshape(n, config.N) % L
    # a zero coefficient reads the appended Tr = 0, so adds nothing to c
    trace = np.append(big.trace, 0)
    batch = max(1, _BLOCK // L**n)
    out = np.empty((len(x_logs), tab.ring.blow), dtype=np.int64)
    for start in range(0, len(x_logs), batch):
        x = x_logs[start:start + batch, None, :]
        X = len(x)
        counts = np.zeros(X * p * Lq, dtype=np.int64)
        for logs in _torus_blocks(L, n, _BLOCK // X):
            cls = logs @ tw % Lq
            e = np.where(x == L, L, (logs @ A + x) % L)
            c = trace[e].sum(axis=2) % p
            key = (np.arange(X)[:, None] * p + c) * Lq + cls
            counts += np.bincount(key.ravel(), minlength=X * p * Lq)
        # row (x, c): sum_k N(k, c) teich(g_q)^k; then the sum over c
        by_trace = padic.matmul_mod(counts.reshape(X * p, Lq) % pM, tab.teich, pM)
        out[start:start + X] = padic.matmul_mod(
            by_trace.reshape(X, p * tab.ring.blow), tab.theta_rep, pM
        )
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
    tab = level_table(p, f, M)
    big = tab if m == 1 else field_table(p, f * m)
    (value,) = _character_values(tab, big, config, [a_coeffs], twist.k)
    return tab.ring.from_coords(value), Fraction(M)


def hyp_points(field: ff.FqParams, N: int) -> list:
    """Every coefficient point x in F_q^N as a tuple of N coefficient tuples,
    in itertools.product order over sorted ranges, which is sorted order."""
    return list(
        itertools.product(itertools.product(range(field.p), repeat=field.degree),
                          repeat=N)
    )


def hyp_table(
    config,
    twist: dwork.TwistData,
    field: ff.FqParams,
    M: int,
) -> np.ndarray:
    """The twisted sum at every rational coefficient point x in F_q^N, all
    q^N character sums from one batched histogram of level 1: row i of the
    (q^N, blow) result holds the coordinates in R(p, f, M), residues in
    [0, p^M), of the sum at hyp_points(field, N)[i]."""
    if field.q**config.N > HYP_LIMIT:
        raise BudgetExceeded(
            f"q^N = {field.q ** config.N} exceeds the table budget {HYP_LIMIT}"
        )
    p, f = field.p, field.degree
    assert twist.q == field.q
    require_level_budget(p, f, 1, config.n, rows=field.q**config.N)
    tab = level_table(p, f, M)
    return _character_values(tab, tab, config, hyp_points(field, config.N), twist.k)


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
            for idx in _torus_blocks(L, n, max(1, _BLOCK // (f * s))):
                logs = order[idx]
                terms = big.powers[(logs @ exps + x_live) % L]
                derivs = np.tensordot(terms, mults, axes=(1, 1)) % p
                hits = np.flatnonzero(~derivs.any(axis=(1, 2)))
                if len(hits):
                    point = big.powers[logs[hits[0]]].tolist()
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
