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

Matrices over R are (n, m, blow) coordinate arrays.  The row-layout block
encoding at the bottom makes a matrix product the left factor's coordinate
rows times one integer matrix, so traces and series reduce to modular matmuls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import finitefield as ff
from .errors import (
    DivisionByZero,
    ParamsMismatch,
    PrecisionBudgetExceeded,
)


# ----------------------------------------------------------------------
# ring parameters
# ----------------------------------------------------------------------

class RingParams:
    """p, unramified degree s, absolute precision M, and the derived tables
    used by element multiplication and the block encoding."""

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
        self.fq = ff.FqParams(p, s)
        self._b_red = self._build_b_reduction()
        self._mult_tensor = None  # built lazily; (blow, blow, blow) int64

    def _build_b_reduction(self):
        """b^(s+k) as a coefficient row over 1..b^(s-1) mod p^M, k = 0..s-2."""
        s, pM = self.s, self.pM
        rows = []
        # b^s = -(g_0 + ... + g_{s-1} b^{s-1})
        cur = [(-c) % pM for c in self.g[:s]]
        rows.append(tuple(cur))
        for _ in range(s - 2):
            nxt = [0] * s
            carry = cur[s - 1]
            for j in range(s - 1, 0, -1):
                nxt[j] = cur[j - 1]
            if carry:
                for j in range(s):
                    nxt[j] = (nxt[j] + carry * rows[0][j]) % pM
            rows.append(tuple(nxt))
            cur = nxt
        return rows

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

    def b_gen(self) -> "RamifiedElement":
        c = [0] * self.blow
        if self.s > 1:
            c[self.idx(0, 1)] = 1
        return RamifiedElement(self, tuple(c))

    def from_int(self, n: int) -> "RamifiedElement":
        c = [0] * self.blow
        c[0] = n % self.pM
        return RamifiedElement(self, tuple(c))

    def from_coords(self, flat) -> "RamifiedElement":
        return RamifiedElement(self, tuple(int(c) % self.pM for c in flat))

    # -- multiplication kernel -------------------------------------------

    def mul_coords(self, x: tuple, y: tuple) -> tuple:
        """Coordinates of the product; pi^(p-1) -> -p, b-powers reduced mod g."""
        p, s, pM = self.p, self.s, self.pM
        rows = p - 1
        # convolution indexed by (pi-degree, b-degree)
        conv = [[0] * (2 * s - 1) for _ in range(2 * rows - 1)]
        for i1 in range(rows):
            base1 = i1 * s
            for j1 in range(s):
                a = x[base1 + j1]
                if not a:
                    continue
                row_i1 = conv
                for i2 in range(rows):
                    base2 = i2 * s
                    tgt = row_i1[i1 + i2]
                    for j2 in range(s):
                        bcoef = y[base2 + j2]
                        if bcoef:
                            tgt[j1 + j2] += a * bcoef
        # b-degree reduction
        if s > 1:
            for t in range(len(conv)):
                row = conv[t]
                for k in range(2 * s - 2, s - 1, -1):
                    c = row[k]
                    if c:
                        red = self._b_red[k - s]
                        for j in range(s):
                            row[j] += c * red[j]
                        row[k] = 0
        # pi-degree reduction: pi^(rows + r) = -p * pi^r, r <= rows - 2
        out = [0] * self.blow
        for t in range(rows):
            row = conv[t]
            for j in range(s):
                out[t * s + j] = row[j]
        for t in range(rows, 2 * rows - 1):
            row = conv[t]
            r = t - rows
            for j in range(s):
                if row[j]:
                    out[r * s + j] -= p * row[j]
        return tuple(c % pM for c in out)

    # -- block encoding tables --------------------------------------------

    def mult_tensor(self) -> np.ndarray:
        """T[a, b, :] = coordinates of e_a * e_b for the flat basis e_k, stored
        as small *signed* representatives so int64 contractions against
        residues in [0, p^M) cannot overflow."""
        if self._mult_tensor is None:
            blow = self.blow
            T = np.zeros((blow, blow, blow), dtype=np.int64)
            for a in range(blow):
                ea = tuple(1 if k == a else 0 for k in range(blow))
                for b in range(blow):
                    eb = tuple(1 if k == b else 0 for k in range(blow))
                    T[a, b, :] = self.mul_coords(ea, eb)
            half = self.pM // 2
            T = np.where(T > half, T - self.pM, T)
            # structure constants are products of modulus coefficients and p,
            # far below p^M; the signed form keeps contractions in int64 range
            if int(np.abs(T).max()) * (self.pM - 1) * blow >= 2**62:
                raise OverflowError("structure constants too large for int64")
            self._mult_tensor = T
        return self._mult_tensor

    def reg_rep(self, coords) -> np.ndarray:
        """Matrix of multiplication-by-x on the flat basis; column 0 is x itself."""
        T = self.mult_tensor()
        x = np.asarray(coords, dtype=np.int64)
        return np.tensordot(x, T, axes=(0, 0)).T % self.pM


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
            return self.inv() ** (-e)
        result = self.params.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def residue(self) -> ff.FqElement:
        """Image in the residue field R/(pi) = F_{p^s}."""
        s, p = self.params.s, self.params.p
        return self.params.fq.element(tuple(c % p for c in self.coords[:s]))

    def is_unit(self) -> bool:
        return not self.residue().is_zero()

    def inv(self) -> "RamifiedElement":
        """Newton inversion; x must be a unit (nonzero residue)."""
        if not self.is_unit():
            raise DivisionByZero("not a unit in the coefficient ring")
        params = self.params
        y = teichmueller_section_lift(self.residue().inv(), params)
        two = params.from_int(2)
        # 1 - x*y gains pi-valuation quadratically; (p-1)*M steps of 1/(p-1) needed
        cap = (params.p - 1) * params.M
        steps = max(3, cap.bit_length() + 2)
        one = params.one()
        for _ in range(steps):
            y = y * (two - self * y)
            if self * y == one:
                return y
        raise ArithmeticError("inversion did not converge")  # unreachable

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


def teichmueller_section_lift(residue: ff.FqElement, params: RingParams) -> RamifiedElement:
    """Naive coefficient-wise lift of a residue (not yet a Teichmueller point)."""
    c = [0] * params.blow
    for j, v in enumerate(residue.coeffs):
        c[j] = v % params.pM
    return RamifiedElement(params, tuple(c))


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

def teichmueller(residue: ff.FqElement, params: RingParams) -> RamifiedElement:
    """The unique root of x^(p^s) = x lifting the residue: iterate x -> x^(p^s)
    from any lift; each step fixes one more p-adic digit."""
    if residue.params.p != params.p or residue.params.degree != params.s:
        raise ParamsMismatch(
            f"residue field {residue.params!r} does not match {params!r}"
        )
    x = teichmueller_section_lift(residue, params)
    q = params.p**params.s
    for _ in range(params.M + 2):
        nxt = x**q
        if nxt == x:
            return x
        x = nxt
    raise ArithmeticError("Teichmueller iteration did not stabilize")  # unreachable


# ----------------------------------------------------------------------
# sigma, factorials, splitting function
# ----------------------------------------------------------------------

def sigma_digit_sum(m: int, p: int) -> int:
    s = 0
    while m:
        s += m % p
        m //= p
    return s


def sigma_and_factorial_ord(m: int, p: int) -> tuple[int, Fraction]:
    """(sigma(m), ord_p(pi^m / m!)) -- the base-p digit sum rule."""
    if m < 1:
        raise ValueError("m must be >= 1")
    sg = sigma_digit_sum(m, p)
    return sg, Fraction(sg, p - 1)


def _pi_factorial_units(params: RingParams, k_max: int) -> list[int]:
    """v_0..v_k_max with pi^k / k! = v_k pi^(k mod (p-1)) in R.

    With k! = p^e u, u prime to p, and p = -pi^(p-1):
    pi^k / k! = (-1)^(k // (p-1)) p^(k // (p-1) - e) u^-1 pi^(k mod (p-1)),
    where the exponent of p is (sigma(k) - k mod (p-1)) / (p-1) >= 0, so
    every pi^k / k! is integral.
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
    stays exact when the products reach p^(2M) > 2^63.  splitting_floors gives the certified
    valuation floor of each c_i.
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


def splitting_floors(p: int, Q: int, i_max: int) -> list[Fraction]:
    """Certified lower bounds on ord c_i for the coefficients of
    splitting_coefficients, i = 0..i_max.

    The floor of c_i is the larger of two bounds: the ultrametric minimum of
    the term valuations (sigma(a) + sigma(b)) / (p-1) over a + Q b = i
    (sharp below Q, where a single term contributes), and (p-1) i / (p Q),
    which survives the partial cancellation between terms because the series
    factors as a product of theta(z^(p^k)) with coefficient decay (p-1)/p^2.
    """
    return [
        max(
            Fraction(
                min(
                    sigma_digit_sum(i - Q * b, p) + sigma_digit_sum(b, p)
                    for b in range(i // Q + 1)
                ),
                p - 1,
            ),
            Fraction((p - 1) * i, p * Q),
        )
        for i in range(i_max + 1)
    ]


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
            out = np.rint(C).astype(np.int64) % mod
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
    (u, v) = reg_rep(coords[u, v]).T: X.reshape(k, n*blow) @ it is X coords."""
    T = params.mult_tensor()
    n, m = coords.shape[0], coords.shape[1]
    blk = np.einsum("uva,abg->ubvg", coords, T)
    return (blk.reshape(n * params.blow, m * params.blow)) % params.pM


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
    # sum of S[a, b] e_a e_b with blow signed terms per sum, as in reg_rep
    return (np.einsum("ab,abg->ag", S, params.mult_tensor()) % pM).sum(axis=0) % pM


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
