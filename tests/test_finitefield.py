import functools
import itertools
import random

import pytest

import per_point
from dworksum import finitefield as ff
from dworksum import lfunction as lf
from dworksum.errors import NotPrime, UnsupportedPrime


def brute_min_irreducible(p, s):
    """Oracle: scan monic degree-s polynomials in descending-string order and
    test irreducibility by exhaustive factor search."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def all_monic(deg):
        for tail in itertools.product(range(p), repeat=deg):
            yield list(tail) + [1]

    def reducible(g):
        deg = len(g) - 1
        for d in range(1, deg // 2 + 1):
            for f in all_monic(d):
                for h in all_monic(deg - d):
                    if poly_mul(f, h) == g:
                        return True
        return False

    for desc in itertools.product(range(p), repeat=s):
        g = list(reversed(desc)) + [1]
        if not reducible(g):
            return tuple(g)
    raise AssertionError


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 2), (3, 3)])
def test_modulus_matches_brute_force(p, s):
    assert ff.min_irreducible_poly(p, s) == brute_min_irreducible(p, s)


def test_modulus_examples():
    assert ff.min_irreducible_poly(5, 1) == (0, 1)  # trivial: base field
    assert ff.min_irreducible_poly(3, 2) == (1, 0, 1)  # b^2 + 1


def test_prime_validation():
    with pytest.raises(NotPrime):
        ff.FqParams(4, 1)
    with pytest.raises(UnsupportedPrime):
        ff.FqParams(2, 1)


def test_f9_generator_squares_to_minus_one():
    F9 = ff.FqParams(3, 2)
    b = (0, 1)
    assert ff.polymulmod(b, b, F9.modulus, 3) == (2, 0)


def test_inverse_and_lagrange():
    # the inverse of a unit is x^(q-2), as per_point.ring_inverse takes it
    for p, s in [(3, 1), (5, 1), (3, 2), (7, 1)]:
        F = ff.FqParams(p, s)
        one = per_point.const(F, 1)
        for x in per_point.enumerate_units(F):
            assert per_point.mul(F, x, per_point.power(F, x, F.q - 2)) == one
            assert per_point.power(F, x, F.q - 1) == one


def test_enumerate_units():
    F3 = ff.FqParams(3, 1)
    assert per_point.enumerate_units(F3) == [(1,), (2,)]
    F5 = ff.FqParams(5, 1)
    assert [x[0] for x in per_point.enumerate_units(F5)] == [1, 2, 3, 4]
    for p, s in [(3, 2), (5, 2), (7, 1)]:
        assert len(per_point.enumerate_units(ff.FqParams(p, s))) == p**s - 1


def test_trace_norm_basics():
    # The Norm half of trace_norm is gone; the trace half is absolute_trace_int.
    F9 = ff.FqParams(3, 2)
    assert ff.absolute_trace_int((1, 0), F9) == 2
    assert ff.absolute_trace_int((0, 0), F9) == 0


def test_frobenius_additive_multiplicative_trace_linear():
    rng = random.Random(11)
    F = ff.FqParams(5, 2)
    els = per_point.elements(F)
    add = functools.partial(per_point.add, F)
    mul = functools.partial(per_point.mul, F)

    def frobenius(x):
        return per_point.power(F, x, 5)

    for _ in range(40):
        x, y = rng.choice(els), rng.choice(els)
        assert frobenius(add(x, y)) == add(frobenius(x), frobenius(y))
        assert frobenius(mul(x, y)) == mul(frobenius(x), frobenius(y))
        tx = ff.absolute_trace_int(x, F)
        ty = ff.absolute_trace_int(y, F)
        ts = ff.absolute_trace_int(add(x, y), F)
        assert ts == (tx + ty) % 5


def test_embedding_is_a_field_hom():
    small = ff.FqParams(3, 1)
    big = ff.FqParams(3, 2)

    def embed(x):
        return per_point.embed(x, small, big)

    for x in per_point.elements(small):
        for y in per_point.elements(small):
            xy = per_point.mul(small, x, y)
            assert per_point.mul(big, embed(x), embed(y)) == embed(xy)
            x_y = per_point.add(small, x, y)
            assert per_point.add(big, embed(x), embed(y)) == embed(x_y)
    mid = ff.FqParams(3, 2)
    top = ff.FqParams(3, 4)
    img = per_point.embed((0, 1), mid, top)
    # image satisfies the source modulus
    assert not any(per_point.evaluate(top, mid.modulus, img))


@pytest.mark.parametrize("p,s,t", [(3, 2, 4), (5, 2, 4)])
def test_table_root_is_the_smallest_root(p, s, t):
    # the embedding both torus walks take from the discrete-log tables sends
    # b to the root that a scan of the whole big field finds smallest
    src, dst = ff.FqParams(p, s), ff.FqParams(p, t)
    rows = lf._embedding(lf.field_table(p, s), lf.field_table(p, t))
    root = per_point.embed_root(src, dst)
    assert [tuple(r) for r in rows.tolist()] == [
        per_point.power(dst, root, i) for i in range(s)
    ]


def test_multiplicative_generator():
    for p, s in [(3, 1), (5, 1), (3, 2), (7, 1)]:
        F = ff.FqParams(p, s)
        g = ff.multiplicative_generator(F)
        seen = set()
        x = per_point.const(F, 1)
        for _ in range(F.q - 1):
            x = per_point.mul(F, x, g)
            seen.add(x)
        assert len(seen) == F.q - 1


def test_absolute_trace_int():
    F9 = ff.FqParams(3, 2)
    vals = [ff.absolute_trace_int(x, F9) for x in per_point.elements(F9)]
    # trace is onto F_p with equal fibers
    assert sorted(set(vals)) == [0, 1, 2]
    assert all(vals.count(c) == 3 for c in (0, 1, 2))


def _moduli_up_to(bound):
    for p in (3, 5, 7, 11, 13):
        s = 2
        while p**s <= bound:
            yield p, s
            s += 1


@pytest.mark.parametrize("p,s", list(_moduli_up_to(3**12)))
def test_modulus_irreducible_and_smallest_by_factorization(p, s):
    # independent check by sympy's factorization over F_p: the chosen modulus
    # is irreducible, and every candidate before it in the scan order is not
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def irreducible(g):
        return sympy.Poly(list(reversed(g)), x, modulus=p).is_irreducible

    chosen = ff.min_irreducible_poly(p, s)
    assert irreducible(chosen), (p, s, chosen)
    for desc in itertools.product(range(p), repeat=s):
        g = tuple(reversed(desc)) + (1,)
        if g == chosen:
            break
        if g[0] != 0:
            assert not irreducible(g), (p, s, g)


def test_reducible_modulus_regression():
    # x^6 + x + 1 = (x - 1)(x^2 - x - 1)(x^3 - x^2 + x + 1) over F_3 passes
    # the x^(p^(s/ell)) != x test alone; Rabin's gcd condition rejects it
    assert not ff._poly_is_irreducible([1, 1, 0, 0, 0, 0, 1], 3)
    assert ff.min_irreducible_poly(3, 6) == (2, 1, 0, 0, 0, 0, 1)
    F = ff.FqParams(3, 6)
    g = ff.multiplicative_generator(F)
    one = per_point.const(F, 1)
    assert per_point.power(F, g, (F.q - 1) // 2) != one
    assert per_point.power(F, g, F.q - 1) == one
