"""Arithmetic in F_q = F_{p^s} and its extensions.

Elements are coefficient vectors of length s over Z/p with respect to the
power basis 1, b, ..., b^(s-1) of F_p[b]/(g).  The modulus g is the
deterministic irreducible polynomial produced by min_irreducible_poly, and
the p-adic coefficient ring (padic.RingParams) uses *the same* g, so the
residue map and Teichmueller lifts commute with everything here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DivisionByZero, NoRoot, NotASubfield, NotPrime, UnsupportedPrime


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if p == 2:
        raise UnsupportedPrime("p = 2 is not supported (pi**(p-1) = -p degenerates)")


def _poly_mod(poly, modulus, p):
    """Reduce poly (coeff list, ascending) mod (modulus, p); len < deg(modulus)."""
    poly = [c % p for c in poly]
    s = len(modulus) - 1
    for k in range(len(poly) - 1, s - 1, -1):
        c = poly[k]
        if c:
            for i in range(s + 1):
                poly[k - s + i] = (poly[k - s + i] - c * modulus[i]) % p
    poly = poly[:s]
    poly += [0] * (s - len(poly))
    return poly


def _poly_gcd_degree(a, b, p: int) -> int:
    """Degree of gcd(a, b) over F_p for ascending coefficient lists (-1 when
    both are zero)."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a = trim([c % p for c in a])
    b = trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            trim(a)
        a, b = b, a
    return len(a) - 1


def _poly_is_irreducible(g, p: int) -> bool:
    """Rabin's test for monic g of degree s over F_p: g divides x^(p^s) - x,
    and gcd(x^(p^(s/ell)) - x, g) = 1 for every prime ell dividing s."""
    s = len(g) - 1
    if s == 1:
        return True

    def polymulmod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return _poly_mod(out, g, p)

    def polypowmod(a, e):
        result = [1] + [0] * (s - 1)
        base = list(a)
        while e:
            if e & 1:
                result = polymulmod(result, base)
            base = polymulmod(base, base)
            e >>= 1
        return result

    x = _poly_mod([0, 1], g, p)
    if polypowmod(x, p**s) != x:
        return False
    ell = 2
    ss = s
    checked = set()
    while ell * ell <= ss:
        if ss % ell == 0:
            checked.add(ell)
            while ss % ell == 0:
                ss //= ell
        ell += 1
    if ss > 1:
        checked.add(ss)
    for ell in checked:
        xe = polypowmod(x, p ** (s // ell))
        # a nontrivial gcd is a factor of g of degree dividing s/ell
        if _poly_gcd_degree([a - b for a, b in zip(xe, x)], g, p) > 0:
            return False
    return True


def min_irreducible_poly(p: int, s: int) -> tuple[int, ...]:
    """Deterministic modulus for F_{p^s}: the monic irreducible of degree s over
    F_p whose coefficient string (c_{s-1}, ..., c_1, c_0), i.e. the polynomial
    written in the usual descending order, is lexicographically smallest with
    coefficients in 0..p-1.  Returns ascending coefficients (c_0, ..., c_{s-1}, 1).

    For s = 1 this is the polynomial b itself (generator b = 0, trivial extension).
    """
    check_odd_prime(p)
    if s < 1:
        raise ValueError("degree must be >= 1")
    if s == 1:
        return (0, 1)
    for desc in itertools.product(range(p), repeat=s):
        g = tuple(reversed(desc)) + (1,)
        if g[0] == 0:
            continue  # b divides g
        if _poly_is_irreducible(list(g), p):
            return g
    raise NoRoot(f"no irreducible polynomial of degree {s} mod {p}")  # unreachable


class FqParams:
    """Field description: prime p, degree s, modulus g (ascending, monic)."""

    def __init__(self, p: int, degree: int):
        check_odd_prime(p)
        self.p = p
        self.degree = degree
        self.modulus = min_irreducible_poly(p, degree)
        self.q = p**degree

    def __eq__(self, other):
        return (
            isinstance(other, FqParams)
            and (self.p, self.degree) == (other.p, other.degree)
        )

    def __hash__(self):
        return hash((self.p, self.degree))

    def __repr__(self):
        return f"FqParams(p={self.p}, degree={self.degree})"

    def zero(self) -> "FqElement":
        return FqElement(self, (0,) * self.degree)

    def one(self) -> "FqElement":
        return FqElement(self, (1,) + (0,) * (self.degree - 1))

    def gen(self) -> "FqElement":
        """The class of b.  For s = 1 this is 0 (the modulus is b itself)."""
        if self.degree == 1:
            return self.zero()
        return FqElement(self, (0, 1) + (0,) * (self.degree - 2))

    def from_int(self, n: int) -> "FqElement":
        return FqElement(self, (n % self.p,) + (0,) * (self.degree - 1))

    def element(self, coeffs) -> "FqElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(coeffs)}")
        return FqElement(self, coeffs)

    def all_elements(self):
        """All q elements, lexicographic in the coefficient vector (c_0, ..., c_{s-1})."""
        for coeffs in itertools.product(range(self.p), repeat=self.degree):
            yield FqElement(self, coeffs)


class FqElement:
    __slots__ = ("params", "coeffs")

    def __init__(self, params: FqParams, coeffs: tuple):
        self.params = params
        self.coeffs = coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FqElement)
            and self.params == other.params
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.params.p, self.params.degree, self.coeffs))

    def __repr__(self):
        return f"Fq({list(self.coeffs)} over {self.params!r})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other):
        if self.params != other.params:
            raise NotASubfield("operands live in different fields")

    def __add__(self, other):
        self._check(other)
        p = self.params.p
        return FqElement(
            self.params, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.params.p
        return FqElement(
            self.params, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.params.p
        return FqElement(self.params, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        p = self.params.p
        s = self.params.degree
        conv = [0] * (2 * s - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    conv[i + j] += a * b
        return FqElement(self.params, tuple(_poly_mod(conv, self.params.modulus, p)))

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

    def inv(self) -> "FqElement":
        if self.is_zero():
            raise DivisionByZero("0 has no inverse")
        return self ** (self.params.q - 2)

    def frobenius(self, times: int = 1) -> "FqElement":
        """x -> x^(p^times)."""
        return self ** (self.params.p**times)


def absolute_trace_int(x: FqElement) -> int:
    """Tr_{F_{p^s}/F_p}(x) = x + x^p + ... + x^(p^(s-1)) as an integer in 0..p-1."""
    tr = y = x
    for _ in range(x.params.degree - 1):
        y = y.frobenius()
        tr = tr + y
    assert all(c == 0 for c in tr.coeffs[1:])
    return tr.coeffs[0]


def enumerate_units(params: FqParams) -> list[FqElement]:
    """All q-1 nonzero elements, lexicographic in the coefficient vector."""
    return [x for x in params.all_elements() if not x.is_zero()]


def multiplicative_generator(params: FqParams) -> FqElement:
    """Lex-smallest generator of F_q^*.  Order test by prime factors of q-1."""
    n = params.q - 1
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for x in enumerate_units(params):
        if all((x ** (n // ell)) != params.one() for ell in factors):
            return x
    raise NoRoot("no multiplicative generator found")  # unreachable for a field


@lru_cache(maxsize=None)
def embed_root(src: FqParams, dst: FqParams) -> FqElement:
    """The distinguished root of src.modulus in the bigger field dst: among all
    roots, the one with lexicographically smallest coefficient vector.  This
    pins down a single embedding F_{p^s} -> F_{p^s'}, matching the root choice
    Hensel-lifted by the p-adic ring embedding.  The scan runs once per
    (src, dst) in a process."""
    if src.p != dst.p or dst.degree % src.degree != 0:
        raise NotASubfield(f"{src!r} does not embed in {dst!r}")
    if src.degree == 1:
        return dst.zero()
    g = src.modulus
    roots = []
    for x in dst.all_elements():
        acc = dst.zero()
        xp = dst.one()
        for c in g:
            if c:
                acc = acc + dst.from_int(c) * xp
            xp = xp * x
        if acc.is_zero():
            roots.append(x)
    if not roots:
        raise NoRoot(f"{g} has no root in {dst!r}")
    return min(roots, key=lambda r: r.coeffs)


def embed(x: FqElement, dst: FqParams) -> FqElement:
    """Field embedding along the distinguished root."""
    if x.params == dst:
        return x
    root = embed_root(x.params, dst)
    acc = dst.zero()
    xp = dst.one()
    for c in x.coeffs:
        if c:
            acc = acc + dst.from_int(c) * xp
        xp = xp * root
    return acc
