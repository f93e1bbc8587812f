"""Exact arithmetic in the ramified coefficient ring R = (Z/p^M)[b]/(g) [pi]/(pi^(p-1)+p).

Conventions
-----------
* p is an odd prime, pi satisfies pi^(p-1) = -p, so ord_p(pi) = 1/(p-1).
* b generates the unramified part: g is the deterministic irreducible modulus
  shared with finitefield.FqParams, lifted coefficient-wise to Z.
* An element is the coordinate vector of sum_{i,j} c[i][j] pi^i b^j with
  0 <= i < p-1, 0 <= j < s and residues c[i][j] in [0, p^M).  Arithmetic is
  exact mod p^M: integral inputs never lose absolute precision, so results
  are independent of summation order.
* Valuations live in (1/(p-1)) Z;  ord(sum c_ij pi^i b^j) =
  min over nonzero coordinates of ( i/(p-1) + ord_p(c_ij) ), because
  {pi^i b^j} is an orthogonal basis of the free (Z/p^M)-module R.

The product has one definition, RingParams' structure tensor (T[a, b, :] =
coordinates of e_a e_b, built on first use, refused above TABLE_LIMIT):
element products read its nonzero terms, and arrays of coordinates multiply
through RingParams.rep, one matmul_mod of coordinate rows against it.

Matrices over R are (n, m, blow) coordinate arrays.  The row-layout block
encoding at the bottom makes a matrix product the left factor's coordinate
rows times one integer matrix, so traces and series reduce to modular matmuls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import finitefield as ff
from .errors import BudgetExceeded, ParamsMismatch, PrecisionBudgetExceeded
from .polytope import TABLE_LIMIT


# ----------------------------------------------------------------------
# ring parameters
# ----------------------------------------------------------------------

class RingParams:
    """p, unramified degree s, absolute precision M, and the structure tensor
    that defines the product."""

    def __init__(self, p: int, s: int, M: int):
        ff.check_odd_prime(p)
        if s < 1 or M < 1:
            raise ValueError("need s >= 1 and M >= 1")
        self.p = p
        self.s = s
        self.M = M
        self.pM = p**M
        self.g = ff.min_irreducible_poly(p, s)  # ascending, monic, len s+1
        self.blow = (p - 1) * s

    # flat coordinate index of pi^i b^j
    def idx(self, i: int, j: int) -> int:
        return i * self.s + j

    def __eq__(self, other):
        return (
            isinstance(other, RingParams)
            and (self.p, self.s, self.M) == (other.p, other.s, other.M)
        )

    def __hash__(self):
        return hash((self.p, self.s, self.M))

    def __repr__(self):
        return f"RingParams(p={self.p}, s={self.s}, M={self.M})"

    # -- constructors ---------------------------------------------------

    def zero(self) -> "RamifiedElement":
        return RamifiedElement(self, (0,) * self.blow)

    def one(self) -> "RamifiedElement":
        c = [0] * self.blow
        c[0] = 1
        return RamifiedElement(self, tuple(c))

    def pi(self) -> "RamifiedElement":
        c = [0] * self.blow
        c[self.idx(1, 0)] = 1
        return RamifiedElement(self, tuple(c))

    def from_int(self, n: int) -> "RamifiedElement":
        c = [0] * self.blow
        c[0] = n % self.pM
        return RamifiedElement(self, tuple(c))

    def from_coords(self, flat) -> "RamifiedElement":
        return RamifiedElement(self, tuple(int(c) % self.pM for c in flat))

    # -- the structure tensor --------------------------------------------

    @cached_property
    def _table(self) -> np.ndarray:
        """T[a, b*blow + c] = coordinate c of e_a e_b for the flat basis e_k,
        residues in [0, p^M): pi^(i1 + i2) folds back by pi^(p-1) = -p, and
        b^(j1 + j2) is read from the rows b^k mod (g, p^M), k <= 2s - 2.
        A table of more than TABLE_LIMIT coordinates is refused before it is
        allocated."""
        p, s, pM, blow = self.p, self.s, self.pM, self.blow
        if blow**3 > TABLE_LIMIT:
            raise BudgetExceeded(
                f"multiplication table of {self!r} needs {blow**3} coordinates, "
                f"above the limit {TABLE_LIMIT}"
            )
        bpow = np.array([ff.polypowmod((0, 1), k, self.g, pM)
                         for k in range(2 * s - 1)], dtype=np.int64)
        i, j = np.divmod(np.arange(blow), s)
        k = i[:, None] + i[None, :]
        fold = np.where(k >= p - 1, -p, 1)
        a, b = np.indices((blow, blow))
        T = np.zeros((blow, blow, p - 1, s), dtype=np.int64)
        T[a, b, k % (p - 1)] = fold[..., None] * bpow[j[:, None] + j[None, :]] % pM
        return T.reshape(blow, blow * blow)

    @cached_property
    def _terms(self) -> list:
        """The table's nonzero (b, c, T[a, b, c]), grouped by a."""
        T = self._table
        a, col = np.nonzero(T)
        terms = [[] for _ in range(self.blow)]
        for row, bc, t in zip(a.tolist(), col.tolist(), T[a, col].tolist()):
            terms[row].append(divmod(bc, self.blow) + (t,))
        return terms

    def mul_coords(self, x: tuple, y: tuple) -> tuple:
        """Coordinates of the product x y, read off the table's nonzero terms."""
        out = [0] * self.blow
        for xa, row in zip(x, self._terms):
            if xa:
                for b, c, t in row:
                    yb = y[b]
                    if yb:
                        out[c] += xa * yb * t
        return tuple(v % self.pM for v in out)

    def rep(self, coords) -> np.ndarray:
        """Regular representations of a (..., blow) array of residues, shape
        (..., blow, blow): y @ rep(x) is the coordinate row of y x.  One
        matmul_mod of the coordinate rows against the table."""
        x = np.asarray(coords, dtype=np.int64)
        out = matmul_mod(x.reshape(-1, self.blow), self._table, self.pM)
        return out.reshape(*x.shape, self.blow)


@lru_cache(maxsize=None)
def ring_create(p: int, s: int, M: int) -> RingParams:
    """Deterministic ring parameters; repeated calls give the identical modulus."""
    return RingParams(p, s, M)


# ----------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------

class RamifiedElement:
    __slots__ = ("params", "coords")

    def __init__(self, params: RingParams, coords: tuple):
        self.params = params
        self.coords = coords

    def _check(self, other):
        if self.params != other.params:
            raise ParamsMismatch(f"{self.params!r} vs {other.params!r}")

    def __eq__(self, other):
        return (
            isinstance(other, RamifiedElement)
            and self.params == other.params
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.params.p, self.params.s, self.params.M, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        self._check(other)
        pM = self.params.pM
        return RamifiedElement(
            self.params, tuple((a + b) % pM for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        pM = self.params.pM
        return RamifiedElement(
            self.params, tuple((a - b) % pM for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        pM = self.params.pM
        return RamifiedElement(self.params, tuple((-a) % pM for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            pM = self.params.pM
            return RamifiedElement(
                self.params, tuple((a * other) % pM for a in self.coords)
            )
        self._check(other)
        return RamifiedElement(
            self.params, self.params.mul_coords(self.coords, other.coords)
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not supported")
        result = self.params.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        terms = []
        s = self.params.s
        for i in range(self.params.p - 1):
            for j in range(s):
                c = self.coords[i * s + j]
                if c:
                    mono = "".join(
                        [f"pi^{i}" if i else "", f"b^{j}" if j else ""]
                    ) or "1"
                    terms.append(f"{c}*{mono}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} mod {self.params.p}^{self.params.M}>"


# ----------------------------------------------------------------------
# valuation
# ----------------------------------------------------------------------

class PiOrd:
    """ord_p value in (1/(p-1)) Z_{>=0}, or AtLeastPrecision when every
    coordinate vanishes mod p^M (the element is indistinguishable from 0)."""

    __slots__ = ("value", "precision")

    def __init__(self, value, precision: Fraction):
        self.value = value  # Fraction or None
        self.precision = precision

    @property
    def at_least_precision(self) -> bool:
        return self.value is None

    def known_at_least(self, bound) -> bool:
        """True when the measured valuation certifies ord >= bound."""
        if self.value is None:
            return self.precision >= bound
        return self.value >= bound

    def __eq__(self, other):
        if isinstance(other, PiOrd):
            return self.value == other.value
        return self.value == other

    def __repr__(self):
        if self.value is None:
            return f"PiOrd(>= {self.precision})"
        return f"PiOrd({self.value})"


def int_ord(c: int, p: int, M: int):
    """ord_p of a residue mod p^M; None when the residue is 0 (ord >= M)."""
    if c == 0:
        return None
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def pi_ord(x: RamifiedElement) -> PiOrd:
    params = x.params
    p, s, M = params.p, params.s, params.M
    best = None
    for i in range(p - 1):
        for j in range(s):
            v = int_ord(x.coords[i * s + j], p, M)
            if v is None:
                continue
            cand = Fraction(i, p - 1) + v
            if best is None or cand < best:
                best = cand
    return PiOrd(best, Fraction(M))


# ----------------------------------------------------------------------
# Teichmueller lifts
# ----------------------------------------------------------------------

def teichmueller(residue, params: RingParams) -> RamifiedElement:
    """The unique root of x^(p^s) = x lifting the residue, a coefficient
    tuple (c_0, ..., c_{s-1}) of F_{p^s}: iterate x -> x^(p^s) from its
    coefficient-wise lift; each step fixes one more p-adic digit."""
    if len(residue) != params.s:
        raise ParamsMismatch(
            f"a residue of {len(residue)} coefficients does not lift to {params!r}"
        )
    x = params.from_coords(tuple(residue) + (0,) * (params.blow - params.s))
    q = params.p**params.s
    for _ in range(params.M + 2):
        nxt = x**q
        if nxt == x:
            return x
        x = nxt
    raise ArithmeticError("Teichmueller iteration did not stabilize")  # unreachable


# ----------------------------------------------------------------------
# factorials, splitting function
# ----------------------------------------------------------------------

def _pi_factorial_units(params: RingParams, k_max: int) -> list[int]:
    """v_0..v_k_max with pi^k / k! = v_k pi^(k mod (p-1)) in R.

    With k! = p^e u, u prime to p, and p = -pi^(p-1):
    pi^k / k! = (-1)^(k // (p-1)) p^(k // (p-1) - e) u^-1 pi^(k mod (p-1)),
    where the exponent of p is (sigma(k) - k mod (p-1)) / (p-1) >= 0, with
    sigma the base-p digit sum, so every pi^k / k! is integral.
    """
    p, pM, M = params.p, params.pM, params.M
    out = [1]
    e, u = 0, 1
    for k in range(1, k_max + 1):
        kk = k
        while kk % p == 0:
            kk //= p
            e += 1
        u = u * kk % pM
        t = k // (p - 1) - e
        v = pow(p, t, pM) * pow(u, -1, pM) % pM if t < M else 0
        out.append(-v % pM if k // (p - 1) % 2 else v)
    return out


def splitting_coefficients(params: RingParams, Q: int, i_max: int) -> np.ndarray:
    """Coefficients c_0..c_{i_max} of exp(pi z - pi z^Q) as an
    (i_max + 1, blow) int64 coordinate array, exact mod p^M.

    c_i = sum over a + Q b = i of (pi^a / a!) (-pi)^b / b!.  Each factor is
    one monomial v_k pi^(k mod (p-1)), and Q = 1 mod (p-1), so every term is
    a multiple of pi^(i mod (p-1)) once pi^(p-1) = -p folds an exponent
    r_a + r_b >= p-1 back: c_i = w_i pi^(i mod (p-1)).  The sums w_i are one
    matmul_mod of the shifted v array, column b holding v_(i - Q b) (times
    -p where it folds) for b <= i_max / Q, against (-1)^b v_b; matmul_mod
    stays exact when the products reach p^(2M) > 2^63.

    Every c_i has ord >= (p-1) i / (p Q): the series factors as a product of
    theta(z^(p^k)) whose coefficients decay like (p-1)/p^2, so the floor
    survives the partial cancellation between the terms of c_i.
    """
    p, s, pM = params.p, params.s, params.pM
    if Q < 2 or Q % p != 0:
        raise ValueError("Q must be a positive power of p")
    qq = Q
    while qq % p == 0:
        qq //= p
    if qq != 1:
        raise ValueError("Q must be a power of p")
    if Fraction((p - 1) * i_max, p * Q) < params.M:
        raise PrecisionBudgetExceeded(
            f"i_max = {i_max} leaves a tail above p^-{params.M}: need "
            f"(p-1) i_max / (p Q) >= M"
        )
    v = np.array(_pi_factorial_units(params, i_max), dtype=np.int64)
    i = np.arange(i_max + 1)
    r = i % (p - 1)
    cols = i_max // Q + 1
    shifted = np.zeros((i_max + 1, cols), dtype=np.int64)
    for b in range(cols):
        n = i_max + 1 - Q * b
        # the factor is -p where pi^(r_a + r_b) folds back, 1 elsewhere
        fold = r[:n] + r[b] >= p - 1
        shifted[Q * b:, b] = v[:n] * (1 - (p + 1) * fold) % pM
    signs = 1 - 2 * (i[:cols] % 2)
    out = np.zeros((i_max + 1, params.blow), dtype=np.int64)
    out[i, r * s] = matmul_mod(shifted, signs * v[:cols] % pM, pM)
    return out


@lru_cache(maxsize=None)
def theta_one(params: RingParams) -> RamifiedElement:
    """theta(1) for theta(z) = exp(pi z - pi z^p): a primitive p-th root of unity.

    Summation cutoff ceil(M p^2/(p-1)) + p makes every discarded term vanish
    mod p^M (its floor (p-1) i / p^2 is then >= M).
    """
    p, M = params.p, params.M
    i_max = -((-M * p * p) // (p - 1)) + p
    return params.from_coords(splitting_coefficients(params, p, i_max).sum(axis=0))


# ----------------------------------------------------------------------
# integer matrix kernels (coordinate rows times the row-layout block encoding)
# ----------------------------------------------------------------------

def matmul_mod(A: np.ndarray, B: np.ndarray, mod: int) -> np.ndarray:
    """Exact (A @ B) % mod for int64 arrays with entries in [0, mod).

    Picks float64 BLAS when sums stay below 2^53, plain int64 matmul below
    2^62, and a hi/lo split above that (covers mod up to ~2^34 comfortably).
    """
    if A.ndim == 1:
        A = A[None, :]
        squeeze = 0
    elif B.ndim == 1:
        B = B[:, None]
        squeeze = 1
    else:
        squeeze = None
    k = A.shape[1]
    if k == 0:
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    else:
        bound = k * (mod - 1) ** 2
        if bound < 2**53:
            C = A.astype(np.float64) @ B.astype(np.float64)
            out = np.rint(C, out=C).astype(np.int64)
            out %= mod
        elif bound < 2**62:
            out = (A @ B) % mod
        else:
            h = (mod.bit_length() + 1) // 2
            if k * (1 << h) * (mod - 1) >= 2**62:
                raise OverflowError("modulus too large for split matmul")
            lo = A & ((1 << h) - 1)
            hi = A >> h
            out = ((((hi @ B) % mod) << h) + (lo @ B) % mod) % mod
    if squeeze == 0:
        return out[0]
    if squeeze == 1:
        return out[:, 0]
    return out


def encode_ring_matrix(params: RingParams, coords: np.ndarray) -> np.ndarray:
    """coords (n, m, blow) -> row-layout integer matrix (n*blow, m*blow), block
    (u, v) = rep(coords[u, v]): X.reshape(k, n*blow) @ it is X coords."""
    n, m, blow = coords.shape
    blk = params.rep(coords).transpose(0, 2, 1, 3)
    return blk.reshape(n * blow, m * blow)


def diagonal_product_sum(params: RingParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coordinates of sum over h, u of A[h, u] B[u, h] for (n, n, blow) arrays of
    residues: the ring trace of A B without the product.  The pairs go blow
    heads at a time, so no matmul_mod contracts more than the n*blow terms of
    a row product, and its strategy and overflow guard stay those of one."""
    blow, pM = params.blow, params.pM
    S = np.zeros((blow, blow), dtype=np.int64)  # summed outer products
    for h in range(0, len(A), blow):
        X, Y = A[h:h + blow], B[:, h:h + blow].transpose(1, 0, 2)
        S = (S + matmul_mod(X.reshape(-1, blow).T, Y.reshape(-1, blow), pM)) % pM
    # sum of S[a, b] e_a e_b: row a of rep(S[a]) is e_a sum_b S[a, b] e_b
    d = np.arange(blow)
    return params.rep(S)[d, d].sum(axis=0) % pM


# ----------------------------------------------------------------------
# division-free characteristic series
# ----------------------------------------------------------------------

def char_series_prefix(
    params: RingParams, coords: np.ndarray, K: int, encoded: np.ndarray | None = None
) -> list[RamifiedElement]:
    """Coefficients 1, c_1..c_K of det(I - T*mat), ascending, exact mod p^M,
    by the closed-ordered-walk (clow) dynamic program of Mahajan and Vinay:
    one ring matmul per degree and no divisions, so no p-adic precision loss.
    K is clamped to the order n, so K = n gives the whole series.

    coords: the square matrix as an (n, n, blow) array of residues.  The walk
    state G[h, v] has the same shape; degree 1 is free (I E = E), a middle
    degree is G's coordinate rows times the row-layout encoding E, and degree
    K reads only the closing diagonal of G E.  encoded, when given, is E
    (encode_ring_matrix of coords), so a caller that holds it does not
    encode the matrix again.
    """
    n = coords.shape[0]
    K = min(K, n)
    out = [params.one()]
    if K == 0:
        return out
    blow, pM = params.blow, params.pM
    E = None
    if K > 2:
        E = encode_ring_matrix(params, coords) if encoded is None else encoded
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)[:, :, None]
    d = np.arange(n)
    P = coords
    for k in range(1, K):
        close = P[d, d]  # (n, blow): walks closing at each head
        out.append(params.from_coords(-close.sum(axis=0)))
        # keep open-walk extensions v > h; restart each head d on the
        # diagonal with minus the closures at all heads below d
        G = np.where(upper, P, 0)
        G[d[1:], d[1:]] = -np.cumsum(close[:-1], axis=0) % pM
        if k + 1 < K:
            P = matmul_mod(G.reshape(n, n * blow), E, pM).reshape(n, n, blow)
    last = np.einsum("hhb->b", P) if K == 1 else diagonal_product_sum(params, G, coords)
    out.append(params.from_coords(-last))
    return out
