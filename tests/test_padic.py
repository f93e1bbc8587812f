import math
import random
from fractions import Fraction

import pytest

import dense_clow
import per_point
import ring_reference
from splitting_floor import sigma_digit_sum, splitting_floors
from dworksum import finitefield as ff
from dworksum import padic
from dworksum.errors import (
    NotPrime,
    ParamsMismatch,
    PrecisionBudgetExceeded,
    UnsupportedPrime,
)


def rand_element(params, rng):
    return params.from_coords([rng.randrange(params.pM) for _ in range(params.blow)])


# ----------------------------------------------------------------------
# ring creation / basic arithmetic
# ----------------------------------------------------------------------

def test_ring_create_examples():
    r = padic.ring_create(5, 1, 3)
    assert r.g == (0, 1)
    r2 = padic.ring_create(3, 2, 2)
    assert r2.g == (1, 0, 1)
    assert padic.ring_create(3, 2, 2) is r2  # deterministic and cached
    with pytest.raises(NotPrime):
        padic.ring_create(4, 1, 1)
    with pytest.raises(UnsupportedPrime):
        padic.ring_create(2, 1, 1)


def test_defining_relation():
    for p in (3, 5, 7):
        r = padic.ring_create(p, 1, 4)
        pi = r.pi()
        assert pi * pi ** (p - 2) == r.from_int(-p)
        x = r.from_coords(range(r.blow))
        assert r.one() * x == x


def test_unramified_generator_satisfies_modulus():
    for p, s in [(3, 2), (5, 2), (3, 3)]:
        r = padic.ring_create(p, s, 3)
        coords = [0] * r.blow
        coords[1] = 1  # b
        b = r.from_coords(coords)
        acc = r.zero()
        bp = r.one()
        for c in r.g:
            acc = acc + bp * c
            bp = bp * b
        assert acc.is_zero()
        # its residue is the class of b in F_p[b]/(g)
        assert [c % p for c in b.coords[:s]] == [0, 1] + [0] * (s - 2)


def test_multiply_one_plus_pi_times_one_minus_pi():
    # p = 3: (1+pi)(1-pi) = 1 - pi^2 = 1 + 3 = 4
    r = padic.ring_create(3, 1, 4)
    x = r.one() + r.pi()
    y = r.one() - r.pi()
    assert x * y == r.from_int(4)


def test_params_mismatch():
    a = padic.ring_create(3, 1, 4).one()
    b = padic.ring_create(5, 1, 4).one()
    with pytest.raises(ParamsMismatch):
        a * b


def test_mul_against_bruteforce_polynomial_reduction():
    # oracle: multiply as polynomials in pi and b over Z, then reduce with
    # pi^(p-1) = -p and b-powers mod g, then mod p^M
    rng = random.Random(5)
    for p, s, M in [(3, 1, 4), (3, 2, 3), (5, 2, 2), (7, 1, 3), (3, 3, 2)]:
        params = padic.ring_create(p, s, M)
        g = params.g
        for _ in range(25):
            x = rand_element(params, rng)
            y = rand_element(params, rng)
            acc = {}
            for i1 in range(p - 1):
                for j1 in range(s):
                    for i2 in range(p - 1):
                        for j2 in range(s):
                            c = x.coords[i1 * s + j1] * y.coords[i2 * s + j2]
                            if c:
                                key = (i1 + i2, j1 + j2)
                                acc[key] = acc.get(key, 0) + c
            # reduce b then pi: b^j = -b^(j-s) (g_0 + ... + g_{s-1} b^(s-1))
            changed = True
            while changed:
                changed = False
                for (i, j), c in list(acc.items()):
                    if j >= s and c:
                        del acc[(i, j)]
                        for jj in range(s):
                            if g[jj]:
                                key = (i, j - s + jj)
                                acc[key] = acc.get(key, 0) - c * g[jj]
                        changed = True
                        break
            for (i, j), c in list(acc.items()):
                if i >= p - 1:
                    del acc[(i, j)]
                    key = (i - (p - 1), j)
                    acc[key] = acc.get(key, 0) - p * c
            expected = [0] * params.blow
            for (i, j), c in acc.items():
                expected[i * s + j] = c % params.pM
            assert (x * y).coords == tuple(expected)


# ----------------------------------------------------------------------
# valuation
# ----------------------------------------------------------------------

def test_pi_ord_examples():
    for p in (3, 5, 7):
        r = padic.ring_create(p, 1, 5)
        assert padic.pi_ord(r.pi()).value == Fraction(1, p - 1)
        assert padic.pi_ord(r.from_int(p)).value == 1
        z = padic.pi_ord(r.zero())
        assert z.at_least_precision and z.precision == 5


def test_pi_ord_additive_on_products():
    rng = random.Random(17)
    for p, s, M in [(3, 1, 6), (5, 1, 5), (3, 2, 4)]:
        params = padic.ring_create(p, s, M)
        for _ in range(60):
            x, y = rand_element(params, rng), rand_element(params, rng)
            ox, oy = padic.pi_ord(x), padic.pi_ord(y)
            if ox.at_least_precision or oy.at_least_precision:
                continue
            if ox.value + oy.value < M:
                assert padic.pi_ord(x * y).value == ox.value + oy.value


def test_inverse():
    # the Newton inverse that the per-point Hensel lift divides by
    rng = random.Random(23)
    for p, s, M in [(3, 1, 5), (5, 2, 3), (3, 2, 4)]:
        params = padic.ring_create(p, s, M)
        count = 0
        while count < 15:
            x = rand_element(params, rng)
            if not any(c % p for c in x.coords[:s]):
                continue
            assert x * per_point.ring_inverse(x) == params.one()
            count += 1
    with pytest.raises(ZeroDivisionError):
        per_point.ring_inverse(padic.ring_create(3, 1, 4).from_int(3))


# ----------------------------------------------------------------------
# Teichmueller lifts
# ----------------------------------------------------------------------

def test_teichmueller_examples():
    r = padic.ring_create(5, 1, 3)
    assert padic.teichmueller((1,), r) == r.one()
    assert padic.teichmueller((4,), r) == r.from_int(-1)
    t2 = padic.teichmueller((2,), r)
    assert t2 == r.from_int(57)  # fixed point of x -> x^5 mod 125 over 2
    assert t2**5 == t2


def test_teichmueller_fixed_point_and_residue():
    for p, s, M in [(3, 1, 6), (3, 2, 4), (5, 2, 3), (7, 1, 5)]:
        params = padic.ring_create(p, s, M)
        F = ff.FqParams(p, s)
        for x in per_point.elements(F):
            t = padic.teichmueller(x, params)
            assert t ** (p**s) == t
            assert tuple(c % p for c in t.coords[:s]) == x


def test_teichmueller_multiplicative():
    rng = random.Random(3)
    params = padic.ring_create(3, 2, 4)
    F = ff.FqParams(3, 2)
    els = per_point.elements(F)
    for _ in range(30):
        u, v = rng.choice(els), rng.choice(els)
        assert padic.teichmueller(u, params) * padic.teichmueller(v, params) == \
            padic.teichmueller(per_point.mul(F, u, v), params)


def _full_ring_power(params, x: tuple, e: int) -> tuple:
    """x^e by square-and-multiply on the reference product of the whole
    ring, (p - 1) s coordinates."""
    result, base = params.one().coords, x
    while e:
        if e & 1:
            result = ring_reference.mul(params, result, base)
        base = ring_reference.mul(params, base, base)
        e >>= 1
    return result


def test_teichmueller_is_the_full_ring_iteration():
    # the lift runs in the unramified subring; the reference iterates
    # x -> x^q on every coordinate of R from the coefficient-wise lift
    rng = random.Random(17)
    for p, s, M in [(3, 1, 7), (5, 1, 4), (7, 1, 3), (3, 2, 5), (5, 2, 3),
                    (7, 2, 2), (3, 3, 3), (5, 3, 2)]:
        params = padic.ring_create(p, s, M)
        q = p**s
        points = per_point.elements(ff.FqParams(p, s))
        for x in points[:2] + rng.sample(points[2:], min(4, len(points) - 2)):
            want = params.from_coords(x + (0,) * (params.blow - s)).coords
            while (nxt := _full_ring_power(params, want, q)) != want:
                want = nxt
            got = padic.teichmueller(x, params)
            assert got.coords == want, (p, s, M, x)
            assert not any(got.coords[s:])
            assert _full_ring_power(params, got.coords, q) == got.coords


def test_character_orthogonality():
    # sum over units of teich(u)^k is q-1 when (q-1) | k, else 0 mod p^M
    for p, s in [(3, 1), (5, 1), (3, 2)]:
        params = padic.ring_create(p, s, 4)
        F = ff.FqParams(p, s)
        q = p**s
        for k in (0, 1, 2, q - 1, q, 2 * (q - 1), 7):
            total = params.zero()
            for u in per_point.enumerate_units(F):
                total = total + padic.teichmueller(u, params) ** k
            if k % (q - 1) == 0:
                assert total == params.from_int(q - 1)
            else:
                assert total.is_zero()


# ----------------------------------------------------------------------
# sigma / factorial valuations
# ----------------------------------------------------------------------

def test_sigma_examples():
    for p in (3, 5, 7):
        assert sigma_digit_sum(1, p) == 1
        assert sigma_digit_sum(p, p) == 1
    assert sigma_digit_sum(5, 3) == 3


def test_sigma_against_legendre():
    # ord(pi^m/m!) = m/(p-1) - ord_p(m!) with ord_p(m!) by Legendre's formula
    for p in (3, 5, 7):
        for m in range(1, 400):
            legendre = 0
            pk = p
            while pk <= m:
                legendre += m // pk
                pk *= p
            got = Fraction(sigma_digit_sum(m, p), p - 1)
            assert got == Fraction(m, p - 1) - legendre


def test_sigma_linear_bound():
    # constructive form: sigma(m) <= eps*m + delta with delta the max over the
    # finite prefix where eps*m alone is not yet enough
    eps = Fraction(1, 10)
    for p in (3, 5, 7):
        cutoff = 1
        while (p - 1) * (len(bin(cutoff)) + 1) > eps * cutoff:
            cutoff *= p
        delta = max(sigma_digit_sum(m, p) for m in range(1, cutoff + 1))
        for m in range(1, 10**4 + 1):
            assert sigma_digit_sum(m, p) <= eps * m + delta


# ----------------------------------------------------------------------
# splitting function and theta(1)
# ----------------------------------------------------------------------

def pi_power_over_factorial(params, k):
    """pi^k / k! as a ring element from the exact integer k! = p^e u: since
    p = -pi^(p-1), pi^k / p^e = (-1)^e pi^(k - e (p-1))."""
    p = params.p
    u, e = math.factorial(k), 0
    while u % p == 0:
        u //= p
        e += 1
    return params.pi() ** (k - e * (p - 1)) * ((-1) ** e * pow(u, -1, params.pM))


def reference_splitting(params, Q, i_max):
    """c_0..c_i_max of exp(pi z - pi z^Q), one ring product per a + Q b = i."""
    pf = [pi_power_over_factorial(params, k) for k in range(i_max + 1)]
    out = []
    for i in range(i_max + 1):
        acc = params.zero()
        for b in range(i // Q + 1):
            term = pf[i - Q * b] * pf[b]
            acc = acc - term if b % 2 else acc + term
        out.append(acc)
    return out


def test_splitting_first_coefficients():
    params = padic.ring_create(3, 1, 4)
    coeffs = padic.splitting_coefficients(params, 3, 40)
    floors = splitting_floors(3, 3, 40)
    assert params.from_coords(coeffs[0]) == params.one()
    assert params.from_coords(coeffs[1]) == params.pi()
    # below Q the series agrees with exp(pi z): c_i = pi^i / i!
    for i in range(3):
        assert params.from_coords(coeffs[i]) == pi_power_over_factorial(params, i)
        assert floors[i] == Fraction(sigma_digit_sum(i, 3), 2) if i else True


def test_splitting_coefficients_match_reference_sweep():
    # the array kernel against the term-by-term ring sum; p^M >= 2^32 in the
    # two fixed cases, where products of residues overflow int64
    import numpy as np

    rng = random.Random(1729)
    cases = [(3, 1, 21, 3), (13, 1, 9, 13), (3, 2, 2, 27)]
    for p in (3, 5, 7, 11, 13):
        for f in (1, 2):
            M = rng.randint(1, 4)
            Q = p ** rng.randint(1, 3)
            while M * p * Q // (p - 1) > 400 and Q > p:
                Q //= p
            cases.append((p, f, M, Q))
    assert any(p**M >= 2**32 for p, _, M, _ in cases)
    for p, f, M, Q in cases:
        params = padic.ring_create(p, f, M)
        i_max = -((-M * p * Q) // (p - 1)) + rng.randint(0, 2 * Q)
        got = padic.splitting_coefficients(params, Q, i_max)
        assert got.shape == (i_max + 1, params.blow) and got.dtype == np.int64
        want = reference_splitting(params, Q, i_max)
        assert [params.from_coords(c) for c in got] == want, (p, f, M, Q, i_max)


def test_splitting_floor_certificates():
    for p, Q, M in [(3, 3, 4), (5, 5, 3), (3, 9, 3), (7, 7, 2)]:
        params = padic.ring_create(p, 1, M)
        i_max = -((-M * p * Q) // (p - 1)) + 1
        coeffs = padic.splitting_coefficients(params, Q, i_max)
        floors = splitting_floors(p, Q, i_max)
        for i, (c, floor) in enumerate(zip(coeffs, floors)):
            coarse = Fraction((p - 1) * i, p * Q)
            assert floor >= coarse
            measured = padic.pi_ord(params.from_coords(c))
            assert measured.known_at_least(min(floor, Fraction(M)))


def test_splitting_precision_guard():
    params = padic.ring_create(3, 1, 6)
    with pytest.raises(PrecisionBudgetExceeded):
        padic.splitting_coefficients(params, 3, 5)


def test_theta_one_properties():
    for p in (3, 5, 7):
        params = padic.ring_create(p, 1, 6)
        th = padic.theta_one(params)
        assert th**p == params.one()
        assert padic.pi_ord(th - params.one()).value == Fraction(1, p - 1)
        # theta(1) = 1 + pi mod pi^2 (lambda_0 = 1, lambda_1 = pi)
        dev = th - params.one() - params.pi()
        assert padic.pi_ord(dev).known_at_least(Fraction(2, p - 1))
        # geometric sum over the p-th roots of unity vanishes
        total = params.zero()
        for k in range(p):
            total = total + th**k
        assert total.is_zero()


# ----------------------------------------------------------------------
# ring embeddings
# ----------------------------------------------------------------------

def test_ring_embed_basics():
    src = padic.ring_create(3, 1, 4)
    dst = padic.ring_create(3, 2, 4)
    assert per_point.ring_embed(src.one(), dst) == dst.one()
    assert per_point.ring_embed(src.pi(), dst) == dst.pi()
    x = src.from_int(7) + src.pi() * 5
    assert padic.pi_ord(per_point.ring_embed(x, dst)).value == padic.pi_ord(x).value


def test_ring_embed_is_hom_and_commutes_with_teichmueller():
    rng = random.Random(7)
    for (p, s, s2) in [(3, 1, 2), (3, 2, 4), (5, 1, 2)]:
        src = padic.ring_create(p, s, 3)
        dst = padic.ring_create(p, s2, 3)
        for _ in range(12):
            x, y = rand_element(src, rng), rand_element(src, rng)
            assert per_point.ring_embed(x * y, dst) == \
                per_point.ring_embed(x, dst) * per_point.ring_embed(y, dst)
            assert per_point.ring_embed(x + y, dst) == \
                per_point.ring_embed(x, dst) + per_point.ring_embed(y, dst)
        Fs = ff.FqParams(p, s)
        Fd = ff.FqParams(p, s2)
        for u in per_point.elements(Fs):
            lifted_then_embedded = per_point.ring_embed(
                padic.teichmueller(u, src), dst
            )
            embedded_then_lifted = padic.teichmueller(
                per_point.embed(u, Fs, Fd), dst
            )
            assert lifted_then_embedded == embedded_then_lifted


# ----------------------------------------------------------------------
# division-free characteristic series
# ----------------------------------------------------------------------

def brute_char_series(rows, params):
    """Oracle: det(I - T*mat) by Leibniz expansion over ring[T]."""
    import itertools

    n = len(rows)

    def poly_mul(a, b):
        out = [params.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    total = [params.zero()] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j, clen = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    clen += 1
                if clen % 2 == 0:
                    sign = -sign
        prod = [params.one()]
        for i in range(n):
            entry = [
                params.one() if perm[i] == i else params.zero(),
                -rows[i][perm[i]],
            ]
            prod = poly_mul(prod, entry)
        for d, c in enumerate(prod):
            if d <= n:
                total[d] = total[d] + (c if sign > 0 else -c)
    return total


def coords_of(rows):
    """The (n, n, blow) coordinate array of a list-of-lists matrix."""
    import numpy as np

    return np.array([[e.coords for e in row] for row in rows], dtype=np.int64)


def test_encode_ring_matrix_row_layout():
    # coordinate rows times the encoding are ring sums: x E -> sum_u x_u E_uv
    import numpy as np

    rng = random.Random(43)
    for p, s in [(3, 1), (5, 1), (3, 2), (5, 2)]:
        params = padic.ring_create(p, s, 3)
        n, m = 3, 2
        rows = [[rand_element(params, rng) for _ in range(m)] for _ in range(n)]
        x = [rand_element(params, rng) for _ in range(n)]
        E = padic.encode_ring_matrix(params, coords_of(rows))
        assert E.shape == (n * params.blow, m * params.blow)
        got = np.array([e.coords for e in x]).reshape(-1) @ E % params.pM
        want = []
        for v in range(m):
            acc = params.zero()
            for u in range(n):
                acc = acc + x[u] * rows[u][v]
            want.extend(acc.coords)
        assert got.tolist() == want


def test_encode_ring_matrix_gathers_cells():
    # blocks gathered from a cell table equal the encoding of the gathered
    # matrix; float64 exactly when a row product against it is exact there
    import numpy as np

    rng = random.Random(53)
    for p, s, M, n in [(3, 1, 6, 5), (5, 2, 3, 4), (7, 1, 12, 3)]:
        params = padic.ring_create(p, s, M)
        table = np.array([rand_element(params, rng).coords for _ in range(7)],
                         dtype=np.int64)
        cells = np.array([[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        got = padic.encode_ring_matrix(params, table, cells)
        want = padic.encode_ring_matrix(params, table[cells])
        assert (got == want).all()
        exact = n * params.blow * (params.pM - 1) ** 2 < 2**53
        assert got.dtype == (np.float64 if exact else np.int64)


def test_char_series_reads_each_degree_on_its_block():
    # with sizes, c_k is the k-th coefficient of the leading block of order
    # sizes[k - 1], for nonincreasing sizes, on the float64 (3^6, 5^3) and
    # int64 (7^12) paths, with and without a held encoding
    rng = random.Random(59)
    cases = [(3, 1, 6, 7, [7, 6, 6, 5, 5]), (5, 2, 3, 6, [6, 5, 4, 4]),
             (7, 1, 12, 6, [6, 6, 5, 4])]
    for p, s, M, n, sizes in cases:
        params = padic.ring_create(p, s, M)
        rows = [[rand_element(params, rng) for _ in range(n)] for _ in range(n)]
        coords = coords_of(rows)
        K = len(sizes)
        want = [params.one()] + [
            padic.char_series_prefix(params, coords[:b, :b], k)[k]
            for k, b in enumerate(sizes, 1)
        ]
        assert padic.char_series_prefix(params, coords, K, sizes=sizes) == want
        held = padic.encode_ring_matrix(params, coords)
        assert padic.char_series_prefix(params, coords, K, held, sizes) == want
        assert padic.char_series_prefix(params, coords, 3, held, sizes) == want[:4]


def test_char_series_staircase_matches_dense_reference():
    # the head-chunked walk state against the dense per-pass program
    # (dense_clow) at orders up to 150, past padic._STAIR_ORDER, so every
    # chunk edge of every pass is crossed; float64 (3^6, 5^3) and int64
    # (7^12) encodings, with and without sizes and a held encoding
    import numpy as np

    rng = np.random.default_rng(61)
    cases = [(3, 1, 6, (150, 97, 56, 9)), (5, 1, 3, (100, 61, 40)), (7, 1, 12, (72, 57))]
    for p, s, M, orders in cases:
        params = padic.ring_create(p, s, M)
        for n in orders:
            coords = rng.integers(0, params.pM, size=(n, n, params.blow))
            K = min(n, 6)
            sizes = sorted(rng.integers(max(1, n // 3), n + 1, size=K).tolist(), reverse=True)
            held = padic.encode_ring_matrix(params, coords)
            assert held.dtype == (np.int64 if p == 7 else np.float64)
            for size_arg in (None, sizes):
                want = dense_clow.char_series_prefix(params, coords, K, None, size_arg)
                assert padic.char_series_prefix(params, coords, K, None, size_arg) == want
                assert padic.char_series_prefix(params, coords, K, held, size_arg) == want


def test_diagonal_product_sum_matches_ring_loops():
    # at p = 7, M = 12 no product is exact in float64, so every chunk of 6
    # heads takes matmul_mod's float64 limbs; the operands may be (n, k)
    # and (k, n), down to a dot product of 3000 pairs at k = 1
    rng = random.Random(47)
    for p, s, M, n, k in [(3, 2, 4, 5, 5), (7, 1, 12, 53, 53), (5, 2, 3, 4, 7),
                          (5, 1, 6, 40, 1), (7, 1, 12, 3000, 1)]:
        params = padic.ring_create(p, s, M)
        A = [[rand_element(params, rng) for _ in range(k)] for _ in range(n)]
        B = [[rand_element(params, rng) for _ in range(n)] for _ in range(k)]
        want = params.zero()
        for h in range(n):
            for u in range(k):
                want = want + A[h][u] * B[u][h]
        got = padic.diagonal_product_sum(params, coords_of(A), coords_of(B))
        assert got.tolist() == list(want.coords)


def test_char_series_trivial_examples():
    params = padic.ring_create(5, 1, 4)
    one, zero, pi = params.one(), params.zero(), params.pi()
    ident = [[one, zero], [zero, one]]
    assert padic.char_series_prefix(params, coords_of(ident), 2) == [
        one, params.from_int(-2), one
    ]
    upper = [[zero, one], [zero, zero]]
    upper_series = padic.char_series_prefix(params, coords_of(upper), 2)
    assert upper_series == [one, zero, zero]
    diag = [[pi, zero], [zero, params.from_int(5)]]
    got = padic.char_series_prefix(params, coords_of(diag), 2)
    assert got == [one, -(pi + params.from_int(5)), pi * params.from_int(5)]


def test_char_series_companion_reversal():
    # companion matrix of monic t^n + a_{n-1} t^{n-1} + ... + a_0 has
    # det(I - T*C) = 1 + a_{n-1} T + ... + a_0 T^n
    rng = random.Random(31)
    params = padic.ring_create(3, 1, 5)
    for n in (2, 3, 4):
        a = [rand_element(params, rng) for _ in range(n)]
        C = [[params.zero() for _ in range(n)] for _ in range(n)]
        for i in range(1, n):
            C[i][i - 1] = params.one()
        for i in range(n):
            C[i][n - 1] = -a[i]
        got = padic.char_series_prefix(params, coords_of(C), n)
        expected = [params.one()] + a[::-1]
        assert got == expected


def test_char_series_matches_leibniz_and_prefix():
    rng = random.Random(41)
    # the last three reach matmul_mod's float64 limbs (7^12 and 3^17) and
    # its single float64 product (5^6); K runs through 1, 2, n - 1 and n
    cases = [(3, 1, 4, 3), (5, 1, 3, 3), (3, 2, 3, 2), (7, 1, 2, 4),
             (7, 1, 12, 5), (5, 2, 6, 6), (3, 2, 17, 4)]
    for p, s, M, n in cases:
        params = padic.ring_create(p, s, M)
        rows = [[rand_element(params, rng) for _ in range(n)] for _ in range(n)]
        oracle = brute_char_series(rows, params)
        fast = padic.char_series_prefix(params, coords_of(rows), n)
        assert fast == oracle
        for K in range(n + 1):
            prefix = padic.char_series_prefix(params, coords_of(rows), K)
            assert prefix == oracle[: K + 1]


def test_char_series_matches_leibniz_on_operator_matrices():
    # real Dwork matrices, whose sparsity pattern random matrices lack:
    # a twisted one (gamma = -1/4) and one with an a_j = 0 column
    import numpy as np

    from dworksum import dwork
    from dworksum.polytope import ExponentConfig, newton_data

    cases = [
        (5, 8, [[1, -1]], [1, 2], [1], 3, 6),
        (3, 8, [[1, 0, 1], [0, 1, 1]], [1, 0, 2], [0, 0], Fraction(3, 2), 4),
    ]
    for p, M, A, a_ints, k_vec, cap, dim in cases:
        params = padic.ring_create(p, 1, M)
        config = ExponentConfig(A)
        twist = dwork.TwistData(config, k_vec, p)
        a_lifts = [padic.teichmueller((x,), params) for x in a_ints]
        dm = dwork.build_operator(config, newton_data(config), a_lifts, twist, cap=cap)
        assert dm.dim == dim
        rows = [[params.from_coords(e) for e in row] for row in dm.coords]
        oracle = brute_char_series(rows, params)
        assert padic.char_series_prefix(params, dm.coords, dm.dim) == oracle
        assert not oracle[dim - 1].is_zero()
    # n = 0 and n = 1, K above the order
    params = padic.ring_create(5, 1, 4)
    empty = np.zeros((0, 0, params.blow), dtype=np.int64)
    assert padic.char_series_prefix(params, empty, 3) == [params.one()]
    x = rand_element(params, random.Random(7))
    assert padic.char_series_prefix(params, coords_of([[x]]), 3) == [params.one(), -x]


def test_matmul_mod_strategies():
    import numpy as np

    rng = random.Random(13)
    for mod in (3**6, 5**8, 7**12, 2**33 + 5):
        for shape in [(4, 5, 3), (8, 8, 8)]:
            m, k, n = shape
            A = np.array(
                [[rng.randrange(mod) for _ in range(k)] for _ in range(m)],
                dtype=np.int64,
            )
            B = np.array(
                [[rng.randrange(mod) for _ in range(n)] for _ in range(k)],
                dtype=np.int64,
            )
            want = [
                [sum(int(A[i, t]) * int(B[t, j]) for t in range(k)) % mod
                 for j in range(n)]
                for i in range(m)
            ]
            got = padic.matmul_mod(A, B, mod)
            assert got.tolist() == want


def test_matmul_mod_splits_a_long_inner_dimension():
    # 211^4 < 2^31, so two float64 limbs of 16 bits; 65,792 terms are
    # limbed in blocks of the inner dimension
    import numpy as np

    mod, k = 211**4, 65_792
    rng = np.random.default_rng(5)
    A = rng.integers(0, mod, size=(3, k))
    B = rng.integers(0, mod, size=(k, 2))
    A[0] = B[:, 0] = mod - 1
    want = [
        [sum(a * b for a, b in zip(A[i].tolist(), B[:, j].tolist())) % mod
         for j in range(2)]
        for i in range(3)
    ]
    assert padic.matmul_mod(A, B, mod).tolist() == want


def _exact_product(A, B, mod: int) -> list:
    """(A @ B) % mod in Python integers."""
    return (A.astype(object) @ B.astype(object) % mod).tolist()


def _matmul_cases():
    """Seeded (A, B, mod) cases: moduli up to 2^34 - 1, the JobConfig
    ceiling, and inner lengths k up to 10^5 on both sides of the bounds
    k (mod - 1)^2 < 2^53 and < 2^62 that once chose float64, int64 and a
    hi/lo split, with 1-D operands and every residue at mod - 1 in one row
    and one column."""
    import numpy as np

    rng = np.random.default_rng(2025)
    for mod in (3**6, 5**8, 3**12, 2**24 + 43, 2**26 + 5, 211**4, 7**12,
                2**34 - 1):
        sides = {1, 2, 3, 17, 1000, 100_000}
        for bound in (2**53, 2**62):
            k = (bound - 1) // (mod - 1) ** 2
            sides |= {k, k + 1}
        for k in sorted(x for x in sides if 1 <= x <= 100_000):
            m, n = (1, 2) if k > 20_000 else (3, 4)
            A = rng.integers(0, mod, size=(m, k))
            B = rng.integers(0, mod, size=(k, n))
            A[0] = B[:, 0] = mod - 1
            yield A, B, mod
            yield A[0], B, mod
            yield A, B[:, 1], mod


def test_matmul_mod_matches_exact_products():
    import numpy as np

    for A, B, mod in _matmul_cases():
        got = padic.matmul_mod(A, B, mod)
        assert got.dtype == np.int64
        assert got.tolist() == _exact_product(A, B, mod), (A.shape, B.shape, mod)
    # float64 operands holding integers take the same path
    A, B, mod = next(x for x in _matmul_cases() if x[2] == 7**12)
    assert padic.matmul_mod(A.astype(float), B.astype(float), mod).tolist() == \
        _exact_product(A, B, mod)


def test_matmul_mod_limb_blocks(monkeypatch):
    # blocks of a few coordinates split both the inner terms and the rows
    import numpy as np

    rng = np.random.default_rng(7)
    monkeypatch.setattr(padic, "_LIMB_BLOCK", 40)
    for mod, (m, k, n) in [(211**4, (7, 45, 3)), (2**34 - 1, (5, 33, 6)),
                           (7**12, (9, 1, 2))]:
        A = rng.integers(0, mod, size=(m, k))
        B = rng.integers(0, mod, size=(k, n))
        A[-1] = B[:, -1] = mod - 1
        assert padic.matmul_mod(A, B, mod).tolist() == _exact_product(A, B, mod)


def test_limb_split_keeps_equal_weight_sums_below_2_53():
    for mod in (5**8, 211**4, 7**12, 2**34 - 1):
        for k in (1, 210, 44_310, 100_000):
            t, h = padic._limb_split(k, mod)
            assert t * h >= (mod - 1).bit_length()
            assert t * k * (2**h - 1) ** 2 < 2**53
            if t > 2:  # one limb fewer would overflow
                h1 = -(-(mod - 1).bit_length() // (t - 1))
                assert (t - 1) * k * (2**h1 - 1) ** 2 >= 2**53
