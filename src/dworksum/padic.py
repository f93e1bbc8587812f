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
b^k mod g, k <= 2s - 2; nothing of size blow^3 is built.  Element products
(RingParams.mul_coords) are pure Python; arrays of elements multiply through
RingParams.rep, one matmul_mod against the b-rows and one gather.

Matrices over R are (n, m, blow) coordinate arrays.  The row-layout block
encoding at the bottom makes a matrix product the left factor's coordinate
rows times one integer matrix (held in float64 when those products are exact
there), so traces and series reduce to modular matmuls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

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

    def mul_coords(self, x: tuple, y: tuple) -> tuple:
        """Coordinates of the product x y: the convolution over pi-rows of
        width w = 2s - 1, folded by pi^(p-1) = -p as it accumulates, then
        the b-degrees >= s of each pi-row reduced through the b-rows."""
        p, s, pM = self.p, self.s, self.pM
        w = 2 * s - 1
        span = (p - 1) * w
        # ext: -p times the pi-rows of y, then the pi-rows, each of width w;
        # pi^i1 b^j1 y adds the rows from p - 1 - i1 on at offset j1
        ext = [-p * v for v in y]
        ext += y
        if s > 1:
            ext, flat = [0] * (2 * span), ext
            for c in range(s):
                ext[c::w] = flat[c::s]
        conv = [0] * (span + s - 1)
        for a, xa in enumerate(x):
            if xa:
                i1, j1 = divmod(a, s)
                lo = (p - 1 - i1) * w
                conv[j1:j1 + span] = [u + xa * v for u, v in
                                      zip(conv[j1:j1 + span], ext[lo:lo + span])]
        if s > 1:  # b^k, s <= k <= 2s - 2, through its b-row
            for k, row in enumerate(self._brows[s - 1, 0, 1:].tolist(), s):
                for c, f in enumerate(row):
                    conv[c:span:w] = [u + f * v for u, v in
                                      zip(conv[c:span:w], conv[k::w])]
        out = [0] * self.blow
        for c in range(s):
            out[c::s] = [v % pM for v in conv[c:span:w]]
        return tuple(out)

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

def _float_terms(mod: int) -> int:
    """How many products of residues in [0, mod) a float64 sum adds exactly:
    every partial sum stays below 2^53."""
    return (2**53 - 1) // (mod - 1) ** 2


def matmul_mod(A: np.ndarray, B: np.ndarray, mod: int) -> np.ndarray:
    """Exact (A @ B) % mod as int64, for arrays of integers in [0, mod)
    (int64, or float64 holding integers).

    Picks float64 BLAS when the sums stay exact (_float_terms), plain int64
    matmul below 2^62, else A split into h-bit halves over chunks of k terms,
    k 2^h (mod - 1) < 2^62.  A float64 input goes to BLAS without a copy.
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
    if k <= _float_terms(mod):
        C = A.astype(np.float64, copy=False) @ B.astype(np.float64, copy=False)
        out = np.rint(C, out=C).astype(np.int64)
        out %= mod
    else:
        A, B = A.astype(np.int64, copy=False), B.astype(np.int64, copy=False)
        if k * (mod - 1) ** 2 < 2**62:
            out = (A @ B) % mod
        else:
            h = (mod.bit_length() + 1) // 2
            chunk = (2**62 - 1) // ((1 << h) * (mod - 1))
            if chunk < 1:
                raise OverflowError("modulus too large for split matmul")
            lo = A & ((1 << h) - 1)
            hi = A >> h
            out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
            for c in range(0, k, chunk):
                part = slice(c, c + chunk)
                out += (hi[:, part] @ B[part] % mod << h) + lo[:, part] @ B[part] % mod
                out %= mod
    if squeeze == 0:
        return out[0]
    if squeeze == 1:
        return out[:, 0]
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
    """Coordinates of sum over h, u of A[h, u] B[u, h] for (n, n, blow) arrays of
    residues: the ring trace of A B without the product.  It is one
    contraction, S = sum over the pairs of the outer products
    A[h, u] (x) B[u, h], taken a chunk of heads h at a time: as many as keep
    the float64 sums exact and the chunk within _PAIR_BLOCK pairs, and at
    least blow, so a chunk that cannot go to float64 contracts no more than
    the n*blow terms of a row product and keeps that product's strategy and
    overflow guard."""
    n = len(A)
    blow, pM = params.blow, params.pM
    heads = max(blow, min(_float_terms(pM), _PAIR_BLOCK) // max(n, 1))
    dtype = np.float64 if heads * n <= _float_terms(pM) else np.int64
    S = np.zeros((blow, blow), dtype=np.int64)
    for h in range(0, n, heads):
        X = A[h:h + heads].reshape(-1, blow)
        Y = np.ascontiguousarray(B[:, h:h + heads].transpose(1, 0, 2), dtype=dtype)
        S = (S + matmul_mod(X.T, Y.reshape(-1, blow), pM)) % pM
    # sum over a of e_a S[a], row a of rep(S[a]): the b-row products of
    # every S[a], then only row a's gather
    s = params.s
    Y = matmul_mod(S.reshape(-1, s), params._brows.reshape(s, -1), pM)
    idx = params._rep_index.reshape(blow, -1) + 2 * blow * np.arange(blow)[:, None]
    return np.take(Y.reshape(-1, s), idx, axis=0).sum(axis=0).reshape(blow) % pM


def _row_product(G: np.ndarray, E: np.ndarray, pM: int, out: np.ndarray,
                 scratch: np.ndarray) -> None:
    """out = G E mod p^M for a walk state G (n, n, blow) and an encoding E of
    the same order, in E's dtype.  In float64 the product stays below 2^53
    (_float_terms), so floor(out / p^M) is the exact quotient, taken in
    scratch, an array of out's shape (np.fmod and np.floor_divide are slow
    on large quotients)."""
    rows = G.reshape(len(G), -1)
    if E.dtype == np.float64:
        np.matmul(rows, E, out=out.reshape(rows.shape))
        np.divide(out, pM, out=scratch)
        np.floor(scratch, out=scratch)
        scratch *= pM
        out -= scratch
    else:
        out[...] = matmul_mod(rows, E, pM).reshape(out.shape)


def _restart(P: np.ndarray, upper: np.ndarray, pM: int, out: np.ndarray):
    """The walk state that follows the products P, into out (contiguous):
    it keeps the open-walk extensions v > h, and each head d restarts on the
    diagonal with minus the closures P[h, h] at all heads h < d.  Returns
    the closures, a (n, blow) view of P's diagonal."""
    n = len(P)
    close = np.diagonal(P).T  # walks closing at each head
    np.multiply(P, upper[:n, :n], out=out)
    restart = out.reshape(n * n, -1)[n + 1::n + 1]
    np.cumsum(close[:-1], axis=0, out=restart)
    np.negative(restart, out=restart)
    restart %= pM
    return close


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
    block of order sizes[k - 1], which the caller knows to carry c_k (dwork's
    per-degree Hodge prefixes); by default every degree reads the whole
    matrix.  Each run of degrees on one block is one pass of the program.
    The walk state G[h, v] has the block's shape; degree 1 is free (I E = E)
    and so is the state after it, the leading part of one state shared by
    every block; a middle degree is G's coordinate rows times the row-layout
    encoding E, and the pass's last degree reads only the closing diagonal
    of G E (diagonal_product_sum).  encoded, when given, is E
    (encode_ring_matrix) of a leading block no smaller than any pass that
    multiplies (sizes[2]), so a caller that holds it does not encode the
    matrix again.  All passes share three state buffers, allocated once in
    E's dtype.
    """
    n = coords.shape[0]
    K = min(K, n)
    sizes = [n] * K if sizes is None else [int(s) for s in sizes[:K]]
    out = [params.one()]
    if K == 0:
        return out
    blow, pM = params.blow, params.pM
    d = np.arange(sizes[0])
    out.append(params.from_coords(-coords[d, d].sum(axis=0)))
    if K == 1:
        return out
    E = None
    if K > 2:
        block = coords[:sizes[2], :sizes[2]]
        E = encode_ring_matrix(params, block) if encoded is None else encoded
    dtype = np.int64 if E is None else E.dtype
    upper = np.triu(np.ones((sizes[1], sizes[1]), dtype=bool), k=1)[:, :, None]
    # the state after degree 1, on the largest block that reads it
    first_state = np.empty((sizes[1], sizes[1], blow), dtype=dtype)
    _restart(coords[:sizes[1], :sizes[1]], upper, pM, first_state)
    state = np.empty(sizes[2] ** 2 * blow if K > 2 else 0, dtype=dtype)
    products = np.empty_like(state)
    first = 2
    while first <= K:
        m = sizes[first - 1]
        last = first
        while last < K and sizes[last] == m:
            last += 1
        G = first_state[:m, :m]
        for k in range(2, last):
            P = products[:m * m * blow].reshape(m, m, blow)
            # the product's scratch, then the next state: G's own buffer
            # from the second product on, which the product spends
            nxt = state[:m * m * blow].reshape(m, m, blow)
            _row_product(G, E[:m * blow, :m * blow], pM, P, nxt)
            G = nxt
            close = _restart(P, upper, pM, G)
            if k >= first:
                out.append(params.from_coords(-close.sum(axis=0)))
        close = diagonal_product_sum(params, G, coords[:m, :m])
        out.append(params.from_coords(-close))
        first = last + 1
    return out
