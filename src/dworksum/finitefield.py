"""F_q = F_{p^s} as a modulus and coefficient tuples.

An element of F_q is its coefficient tuple (c_0, ..., c_{s-1}) over Z/p in
the power basis 1, b, ..., b^(s-1) of F_p[b]/(g).  The modulus g is the
deterministic irreducible polynomial produced by min_irreducible_poly, and
the p-adic coefficient ring (padic.RingParams) uses *the same* g, so
Teichmueller lifts of coefficient tuples commute with everything here.
Torus walks and embeddings between fields run on the discrete-log tables of
``lfunction``; this module holds the modulus search, the products and
powers mod (g, p) that Rabin's test runs on, and, on the same two
functions, what a table is built from: the lex-smallest generator and the
absolute trace.
"""

from __future__ import annotations

import itertools

from .errors import NoRoot, NotPrime, UnsupportedPrime


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
    """Reduce poly (ascending coefficients) mod (modulus, p): the tuple of
    its deg(modulus) coefficients."""
    poly = [c % p for c in poly]
    s = len(modulus) - 1
    for k in range(len(poly) - 1, s - 1, -1):
        c = poly[k]
        if c:
            for i in range(s + 1):
                poly[k - s + i] = (poly[k - s + i] - c * modulus[i]) % p
    return tuple(poly[:s]) + (0,) * (s - len(poly))


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


def polymulmod(a, b, g, p: int) -> tuple:
    """a b mod (g, p) for coefficient sequences (ascending) and monic g."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_mod(out, g, p)


def polypowmod(a, e: int, g, p: int) -> tuple:
    """a^e mod (g, p) by square-and-multiply, e >= 0."""
    result = (1,) + (0,) * (len(g) - 2)
    base = tuple(a)
    while e:
        if e & 1:
            result = polymulmod(result, base, g, p)
        base = polymulmod(base, base, g, p)
        e >>= 1
    return result


def _poly_is_irreducible(g, p: int) -> bool:
    """Rabin's test for monic g of degree s over F_p: g divides x^(p^s) - x,
    and gcd(x^(p^(s/ell)) - x, g) = 1 for every prime ell dividing s."""
    s = len(g) - 1
    if s == 1:
        return True
    x = _poly_mod([0, 1], g, p)
    if polypowmod(x, p**s, g, p) != x:
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
        xe = polypowmod(x, p ** (s // ell), g, p)
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


def absolute_trace_int(x, field: FqParams) -> int:
    """Tr_{F_{p^s}/F_p}(x) = x + x^p + ... + x^(p^(s-1)) as an integer in
    0..p-1, for a coefficient tuple x of F_q."""
    p, g = field.p, field.modulus
    tr = y = tuple(x)
    for _ in range(field.degree - 1):
        y = polypowmod(y, p, g, p)
        tr = tuple((a + b) % p for a, b in zip(tr, y))
    assert not any(tr[1:])
    return tr[0]


def multiplicative_generator(field: FqParams) -> tuple:
    """Lex-smallest generator of F_q^* as a coefficient tuple, lexicographic
    in (c_0, ..., c_{s-1}).  Order test by prime factors of q-1."""
    p, g = field.p, field.modulus
    n = field.q - 1
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
    one = (1,) + (0,) * (field.degree - 1)
    for x in itertools.product(range(p), repeat=field.degree):
        if any(x) and all(polypowmod(x, n // ell, g, p) != one for ell in factors):
            return x
    raise NoRoot("no multiplicative generator found")  # unreachable for a field
