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

The product is defined by its two relations, pi^(p-1) = -p and the b-rows
b^k mod g, k <= 2s - 2; nothing of size blow^3 is built.  RingParams.rep,
one matmul_mod against the b-rows and one gather, is its one implementation:
an element product is a coordinate row times the other factor's rep.

Teichmueller lifts live in the unramified subring (Z/p^M)[b]/(g), the pi^0
row, which the product keeps closed; they are iterated there with
finitefield's polynomial product mod (g, p^M), on s coordinates, and act
on every pi-row through one s x s matrix (RingParams.unramified_rep).

Matrices over R are (n, m, blow) coordinate arrays.  The row-layout block
encoding at the bottom makes a matrix product the left factor's coordinate
rows times one integer matrix (held in float64 when those products are exact
there), so the characteristic series reduces to modular matmuls.  matmul_mod runs
every one of them on float64 BLAS: one product when its sums are exact in
float64, else one product of both factors' float64 limbs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import finitefield as ff
from .errors import ParamsMismatch, PrecisionBudgetExceeded


# ----------------------------------------------------------------------
# ring parameters
# ----------------------------------------------------------------------

class RingParams:
    """p, unramified degree s, absolute precision M, and the product's b-rows."""

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
        return self.from_int(1)

    def pi(self) -> "RamifiedElement":
        c = [0] * self.blow
        c[self.s] = 1  # pi^1 b^0
        return RamifiedElement(self, tuple(c))

    def from_int(self, n: int) -> "RamifiedElement":
        c = [0] * self.blow
        c[0] = n % self.pM
        return RamifiedElement(self, tuple(c))

    def from_coords(self, flat) -> "RamifiedElement":
        return RamifiedElement(self, tuple(int(c) % self.pM for c in flat))

    # -- the product, from pi^(p-1) = -p and b^k mod g -------------------

    @cached_property
    def _brows(self) -> np.ndarray:
        """B[j, w, j1] = the b-row of b^(j + j1), the coordinates of
        b^(j + j1) mod (g, p^M), times (-p)^w: shape (s, 2, s, s)."""
        s, pM = self.s, self.pM
        j = np.arange(s)
        bpow = [ff.polypowmod((0, 1), k, self.g, pM) for k in range(2 * s - 1)]
        rows = np.array(bpow, dtype=np.int64)[j[:, None] + j]
        return np.stack([rows, -self.p * rows % pM], axis=1)

    @cached_property
    def _rep_index(self) -> np.ndarray:
        """(i1, j1, i3) -> the b-row product (d, w, j1) that pi-row i3 of
        e_(i1, j1) x reads, pi^i1 pi^d = pi^i3 (-p)^w: shape (p-1, s, p-1)."""
        i1, i3 = np.indices((self.p - 1, self.p - 1))
        shift = 2 * ((i3 - i1) % (self.p - 1)) + (i3 < i1)
        return shift[:, None, :] * self.s + np.arange(self.s)[:, None]

    def rep(self, coords) -> np.ndarray:
        """Regular representations of a (..., blow) array of residues, shape
        (..., blow, blow): y @ rep(x) is the coordinate row of y x.  Row
        (i1, j1) is e_(i1, j1) x: one matmul_mod of x's pi-rows against the
        b-rows and one gather, O(blow^2) per element."""
        x = np.asarray(coords, dtype=np.int64)
        s, blow = self.s, self.blow
        Y = matmul_mod(x.reshape(-1, s), self._brows.reshape(s, -1), self.pM)
        out = np.take(Y.reshape(-1, 2 * blow, s), self._rep_index, axis=1)
        return out.reshape(*x.shape, blow)

    def unramified_rep(self, coords) -> np.ndarray:
        """rep for a (..., s) array of pi^0 rows, elements of the unramified
        subring, shape (..., s, s): row j1 is b^j1 x, and y @ it multiplies
        any pi-row y by x.  One matmul_mod against the b-rows."""
        x = np.asarray(coords, dtype=np.int64)
        s = self.s
        Y = matmul_mod(x.reshape(-1, s), self._brows[:, 0].reshape(s, -1), self.pM)
        return Y.reshape(*x.shape, s)


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
        params = self.params
        row = matmul_mod(np.array(other.coords), params.rep(self.coords), params.pM)
        return RamifiedElement(params, tuple(row.tolist()))

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
    coefficient-wise lift; each step fixes one more p-adic digit.

    The iteration stays in the unramified subring (Z/p^M)[b]/(g), the pi^0
    row of R, which R's product keeps closed: its elements are the s
    coefficients of a polynomial in b, multiplied by finitefield's product
    mod (g, p^M), and the lift is that row with every other coordinate 0."""
    s, pM = params.s, params.pM
    if len(residue) != s:
        raise ParamsMismatch(
            f"a residue of {len(residue)} coefficients does not lift to {params!r}"
        )
    x = tuple(int(c) % pM for c in residue)
    for _ in range(params.M + 2):
        nxt = ff.polypowmod(x, params.p**s, params.g, pM)
        if nxt == x:
            return RamifiedElement(params, x + (0,) * (params.blow - s))
        x = nxt
    raise ArithmeticError("Teichmueller iteration did not stabilize")  # unreachable


def powers(one, step, count: int, mod: int) -> np.ndarray:
    """Coordinate rows one * y^e for e < count (count >= 1), where step is
    the matrix of x -> x y on coordinate rows: the first 2^k rows times
    y^(2^k) give the next 2^k, so ceil(log2 count) products and squarings."""
    rows = np.empty((count, len(one)), dtype=np.int64)
    rows[0] = one
    done = 1
    while True:
        k = min(done, count - done)
        rows[done:done + k] = matmul_mod(rows[:k], step, mod)
        done += k
        if done == count:
            return rows
        step = matmul_mod(step, step, mod)


# ----------------------------------------------------------------------
# factorials, splitting function
# ----------------------------------------------------------------------

def _pi_factorial_units(params: RingParams, k_max: int) -> list[int]:
    """v_0..v_k_max with pi^k / k! = v_k pi^(k mod (p-1)) in R.

    With k! = p^e u, u prime to p, and p = -pi^(p-1):
    pi^k / k! = (-1)^(k // (p-1)) p^(k // (p-1) - e) u^-1 pi^(k mod (p-1)),
    where the exponent of p is (sigma(k) - k mod (p-1)) / (p-1) >= 0, with
    sigma the base-p digit sum, so every pi^k / k! is integral.  A sieve gives
    v_p(k) and k / p^v_p(k); one inverse, of u at k_max, is walked down.
    """
    p, pM, M = params.p, params.pM, params.M
    val = [0] * (k_max + 1)  # v_p(k)
    unit = list(range(k_max + 1))  # k / p^v_p(k)
    pk = p
    while pk <= k_max:
        val[pk::pk] = [v + 1 for v in val[pk::pk]]
        unit[pk::pk] = [u // p for u in unit[pk::pk]]
        pk *= p
    inverse = [1] * (k_max + 1)  # of the unit part of k!
    inverse[-1] = pow(reduce(lambda x, u: x * u % pM, unit[1:], 1), -1, pM)
    for k in range(k_max, 1, -1):
        inverse[k - 1] = inverse[k] * unit[k] % pM
    power = [pow(p, t, pM) for t in range(M)]
    out = []
    for k, e in enumerate(itertools.accumulate(val)):
        t = k // (p - 1) - e
        v = power[t] * inverse[k] % pM if t < M else 0
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

def _float_terms(mod: int) -> int:
    """How many products of residues in [0, mod) a float64 sum adds exactly:
    every partial sum stays below 2^53."""
    return (2**53 - 1) // (mod - 1) ** 2


# limb coordinates of either factor that matmul_mod holds at once (4 MB).
# On hyp of x over F_211 and F_257 at M = 4 (histograms against the
# Teichmueller powers, on limbs) 2^17 and 2^20 take the same 0.1-0.2 s on
# 2 vCPUs as 2^19, and peak 4-6 MB lower and 10 MB higher
_LIMB_BLOCK = 1 << 19


def _limb_split(k: int, mod: int) -> tuple[int, int]:
    """(t, h): the fewest limbs t >= 2 of h = ceil(bits / t) bits, bits the
    width of mod - 1, such that the t k limb products of equal weight in a
    product of two rows of k residues sum below 2^53."""
    bits = (mod - 1).bit_length()
    for t in range(2, bits + 1):
        h = -(-bits // t)
        if t * k * ((1 << h) - 1) ** 2 < 2**53:
            return t, h
    raise OverflowError(f"{k} terms are too many for float64 limbs")


def _limbs(X: np.ndarray, t: int, h: int, axis: int) -> np.ndarray:
    """The t limbs of h bits of a 2-D int64 array as float64, stacked on a
    new axis 0 or 1."""
    out = np.empty(X.shape[:axis] + (t,) + X.shape[axis:])
    for i in range(t):
        limb = out[i] if axis == 0 else out[:, i]
        np.bitwise_and(X >> (h * i), (1 << h) - 1, out=limb, casting="unsafe")
    return out


def matmul_mod(A: np.ndarray, B: np.ndarray, mod: int) -> np.ndarray:
    """Exact (A @ B) % mod as int64, for arrays of integers in [0, mod)
    (int64, or float64 holding integers), mod below 2^41.

    Every product runs on float64 BLAS.  When the k-term sums stay exact
    (_float_terms) it is one matmul, and a float64 input needs no copy.
    Otherwise both factors split into t limbs of h bits (_limb_split),
    A = sum_i A_i 2^(h i) and B = sum_j B_j 2^(h j).  One matmul of the
    stacked limbs gives every A_i B_j; the products of weight w = i + j sum
    exactly in float64 to C_w, and sum_w C_w 2^(h w) is taken by Horner mod
    mod in int64 (each step below 2^41 2^21).  The limbs are made a block
    of at most _LIMB_BLOCK coordinates of each factor at a time, inner
    terms of B and then rows of A, and the blocks' sums are added mod mod.
    """
    if A.ndim == 1:
        return matmul_mod(A[None, :], B, mod)[0]
    if B.ndim == 1:
        return matmul_mod(A, B[:, None], mod)[:, 0]
    k = A.shape[1]
    if k <= _float_terms(mod):
        C = A.astype(np.float64, copy=False) @ B.astype(np.float64, copy=False)
        out = np.rint(C, out=C).astype(np.int64)
        out %= mod
        return out
    if mod >= 2**41:
        raise OverflowError("modulus too large for float64 limbs")
    t, h = _limb_split(k, mod)
    A, B = A.astype(np.int64, copy=False), B.astype(np.int64, copy=False)
    m, n = len(A), B.shape[1]
    terms = max(1, _LIMB_BLOCK // (t * n))
    rows = max(1, _LIMB_BLOCK // (t * min(k, terms)))
    out = np.zeros((m, n), dtype=np.int64)
    for k0 in range(0, k, terms):
        limbs_B = _limbs(B[k0:k0 + terms], t, h, 1).reshape(-1, t * n)
        for r0 in range(0, m, rows):
            limbs_A = _limbs(A[r0:r0 + rows, k0:k0 + terms], t, h, 0)
            r = limbs_A.shape[1]
            P = (limbs_A.reshape(t * r, -1) @ limbs_B).reshape(t, r, t, n)
            acc = np.zeros((r, n), dtype=np.int64)
            for w in range(2 * t - 2, -1, -1):
                C = sum(P[i, :, w - i] for i in range(max(0, w - t + 1), min(w + 1, t)))
                acc <<= h
                acc += C.astype(np.int64) % mod
                acc %= mod
            block = out[r0:r0 + rows]
            block += acc
            block %= mod
    return out


def encode_ring_matrix(
    params: RingParams, coords: np.ndarray, cells: np.ndarray | None = None
) -> np.ndarray:
    """The row-layout integer matrix (n*blow, m*blow) of a ring matrix, block
    (u, v) = rep of entry (u, v): X.reshape(k, n*blow) @ it is X times the
    matrix.  The matrix is coords (n, m, blow); or, given cells (n, m), its
    entry (u, v) is row cells[u, v] of the table coords (c, blow), so only the
    c rows of the table are represented and the blocks are gathered.

    The matrix is float64 when a row product against it (n*blow terms) is
    exact in float64 (_float_terms), the dtype that matmul_mod and the clow
    passes then read, else int64."""
    blow = params.blow
    if cells is None:
        n, m = coords.shape[:2]
        cells = np.arange(n * m).reshape(n, m)
        coords = coords.reshape(-1, blow)
    n, m = cells.shape
    dtype = np.float64 if n * blow <= _float_terms(params.pM) else np.int64
    # reps[a, x] = row a of rep(coords[x]), the row that block row a reads;
    # np.take gathers rows several times faster than fancy indexing
    reps = np.ascontiguousarray(params.rep(coords).transpose(1, 0, 2), dtype=dtype)
    out = np.empty((n, blow, m, blow), dtype=dtype)
    for a in range(blow):
        np.take(reps[a], cells, axis=0, out=out[:, a])
    return out.reshape(n * blow, m * blow)


# pairs (h, u) that one chunk of diagonal_product_sum contracts at most,
# so that the copies it makes stay small
_PAIR_BLOCK = 1 << 14


def diagonal_product_sum(params: RingParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coordinates of sum over h, u of A[h, u] B[u, h] for (n, k, blow) and
    (k, n, blow) arrays of residues (at k = 1 a ring dot product): the ring
    trace of A B without the product.  It is one
    contraction, S = sum over the pairs of the outer products
    A[h, u] (x) B[u, h], taken a chunk of heads h at a time: as many as keep
    the float64 sums exact and the chunk within _PAIR_BLOCK pairs, and at
    least blow, so a chunk that cannot go to float64 contracts no more than
    the k*blow terms of a row product and keeps that product's strategy and
    overflow guard."""
    k = A.shape[1]
    blow, pM = params.blow, params.pM
    heads = max(blow, min(_float_terms(pM), _PAIR_BLOCK) // max(k, 1))
    dtype = np.float64 if heads * k <= _float_terms(pM) else np.int64
    S = np.zeros((blow, blow), dtype=np.int64)
    for h in range(0, len(A), heads):
        X = A[h:h + heads].reshape(-1, blow)
        Y = np.ascontiguousarray(B[:, h:h + heads].transpose(1, 0, 2), dtype=dtype)
        S = (S + matmul_mod(X.T, Y.reshape(-1, blow), pM)) % pM
    # sum over a of e_a S[a], row a of rep(S[a]): the b-row products of
    # every S[a], then only row a's gather
    s = params.s
    Y = matmul_mod(S.reshape(-1, s), params._brows.reshape(s, -1), pM)
    idx = params._rep_index.reshape(blow, -1) + 2 * blow * np.arange(blow)[:, None]
    return np.take(Y.reshape(-1, s), idx, axis=0).sum(axis=0).reshape(blow) % pM


# the order from which the clow kernel holds its walk state in three chunks
# of heads: a product in three chunks beats a dense one from order 56 at
# blow = 2 and 40 at blow = 4 (2-vCPU host, one BLAS thread)
_STAIR_ORDER = 56


def _staircase(m: int) -> list[tuple[int, int]]:
    """Head chunks [a, b) of the walk state on a block of order m: a chunk
    holds G[h, v] for v >= a only, (b - a)(m - a)^2 blow^2 multiply-adds a
    product; edges 9m/50 and 11m/25 make three about equal, 0.53 m^3 in all."""
    edges = (0, 9 * m // 50, 11 * m // 25, m) if m >= _STAIR_ORDER else (0, m)
    return list(zip(edges, edges[1:]))


def _chunks(flat: np.ndarray, m: int, blow: int) -> list:
    """(a, b, (b - a, m - a, blow) view of flat) per chunk of _staircase(m)."""
    stair = _staircase(m)
    parts = np.split(flat, np.cumsum([(b - a) * (m - a) * blow for a, b in stair])[:-1])
    return [(a, b, x.reshape(b - a, m - a, blow)) for (a, b), x in zip(stair, parts)]


def _restart(chunks, upper: np.ndarray, pM: int):
    """Turn the products P of every chunk (a, b, P), heads a + i and columns
    a + j, into the next walk state, in place: it keeps the open walks,
    column > head, and head d restarts on the diagonal with minus the
    closures P[h, h] at all heads h < d.  upper is 1 on and above the
    diagonal, in P's dtype (a mask broadcast along blow is several times
    slower).  Returns the sum of the closures, not reduced."""
    diagonals = []
    for a, b, P in chunks:
        P[:, :b - a] *= upper[:b - a, :b - a]
        diagonals.append(P.reshape(-1, P.shape[2])[::P.shape[1] + 1][:b - a])
    close = np.concatenate(diagonals)  # walks closing at each head
    closed = np.cumsum(close, axis=0)
    np.subtract(close, closed, out=close)
    close %= pM
    for (a, b, _), diagonal in zip(chunks, diagonals):
        diagonal[...] = close[a:b]
    return closed[-1]


# ----------------------------------------------------------------------
# division-free characteristic series
# ----------------------------------------------------------------------

def char_series_prefix(
    params: RingParams,
    coords: np.ndarray,
    K: int,
    encoded: np.ndarray | None = None,
    sizes=None,
) -> list[RamifiedElement]:
    """Coefficients 1, c_1..c_K of det(I - T*mat), ascending, exact mod p^M,
    by the closed-ordered-walk (clow) dynamic program of Mahajan and Vinay:
    one ring matmul per degree and no divisions, so no p-adic precision loss.
    K is clamped to the order n, so K = n gives the whole series.

    coords: the square matrix as an (n, n, blow) array of residues.  sizes,
    when given, is nonincreasing and c_k is read on the leading principal
    block of order sizes[k - 1], which the caller knows to carry c_k (dwork
    plans them); by default every degree reads the whole matrix.  Each run
    of degrees on one block is one pass of the program.  Degree 1 is free
    (I E = E) and so is the walk state after it; a middle degree is G's
    coordinate rows times the row-layout encoding E, and the pass's last
    degree reads only the closing diagonal of G E (diagonal_product_sum).
    encoded, when given, is E (encode_ring_matrix) of a leading block no
    smaller than any pass that multiplies, so a caller that holds the
    matrix as a cell table encodes it from the table's rows (dwork does).

    The state G[h, v], walks with head h now at v, is 0 for v < h, so it is
    held as a staircase: chunks of heads [a, b) (_staircase), each a
    (b - a, m - a, blow) array of the columns v >= a, times E's trailing
    block from a on (a view).  The state and the products have one buffer
    each, allocated once in E's dtype, and trade them after each product.
    In float64 a product stays below 2^53 (_float_terms), so floor(P / p^M),
    taken in the spent state, is the exact quotient (np.fmod is slow on
    large quotients).
    """
    n = coords.shape[0]
    K = min(K, n)
    sizes = [n] * K if sizes is None else [int(s) for s in sizes[:K]]
    out = [params.one()]
    if K == 0:
        return out
    blow, pM = params.blow, params.pM
    out.append(params.from_coords(-np.einsum("hhb->b", coords[:sizes[0], :sizes[0]])))
    if K == 1:
        return out
    runs = [(m, list(ks)) for m, ks in
            itertools.groupby(range(2, K + 1), lambda k: sizes[k - 1])]
    E = encoded
    if E is None and K > 2:
        E = encode_ring_matrix(params, coords[:sizes[2], :sizes[2]])
    dtype = np.int64 if E is None else E.dtype
    area = {m: sum((b - a) * (m - a) for a, b in _staircase(m)) * blow for m, _ in runs}
    heads = max(b - a for m, _ in runs for a, b in _staircase(m))
    upper = np.repeat(np.triu(np.ones((heads, heads), dtype=dtype))[:, :, None], blow, 2)
    state = np.empty(max(area.values()), dtype=dtype)
    products = np.empty(max([area[m] for m, ks in runs if ks[-1] > 2], default=0), dtype)
    for m, ks in runs:
        G, P = state[:area[m]], products[:area[m]]
        chunks, spare = _chunks(G, m, blow), _chunks(P, m, blow) if ks[-1] > 2 else []
        for a, b, Gc in chunks:
            Gc[...] = coords[a:b, a:m]
        _restart(chunks, upper, pM)
        for k in range(2, ks[-1]):
            for (a, b, Gc), (_, _, Pc) in zip(chunks, spare):
                rows, tail = Gc.reshape(b - a, -1), E[a * blow:m * blow, a * blow:m * blow]
                if dtype == np.float64:
                    np.matmul(rows, tail, out=Pc.reshape(rows.shape))
                else:
                    Pc[...] = matmul_mod(rows, tail, pM).reshape(Pc.shape)
            if dtype == np.float64:
                np.floor(np.divide(P, pM, out=G), out=G)
                P -= np.multiply(G, pM, out=G)
            closed = _restart(spare, upper, pM)
            G, P, chunks, spare = P, G, spare, chunks
            if k >= ks[0]:
                out.append(params.from_coords(-closed))
        close = sum(diagonal_product_sum(params, X, coords[a:m, a:b]) for a, b, X in chunks)
        out.append(params.from_coords(-close))
    return out
