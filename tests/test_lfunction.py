import itertools
from fractions import Fraction

import pytest

import per_point
import series_box
from dworksum import dwork, finitefield as ff, lfunction as lf, padic
from dworksum.errors import BudgetExceeded, NonUnitConstantTerm
from dworksum.polytope import ExponentConfig, newton_data


def setup(p, M, A, a_ints, k_vec):
    params = padic.ring_create(p, 1, M)
    F = ff.FqParams(p, 1)
    config = ExponentConfig(A)
    nd = newton_data(config)
    twist = dwork.TwistData(config, k_vec, p)
    a_res = [(x % p,) for x in a_ints]
    return params, F, config, nd, twist, a_res


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def test_characters_additive_orthogonality():
    # A = (1), a != 0, gamma = 0, m = 1: S_1 = sum_{t != 0} psi(a t) = -1
    for p in (3, 5, 7):
        params, F, config, nd, twist, a_res = setup(p, 5, [[1]], [1], [0])
        S, prec = lf.sums_oracle_characters(config, F, a_res, twist, 1, 5)
        assert S == params.from_int(-1)
        assert prec == 5


def test_characters_degenerate_point():
    # a = 0: every summand is 1
    params, F, config, nd, twist, a_res = setup(3, 5, [[1, -1]], [0, 0], [0])
    for m in (1, 2):
        S, _ = lf.sums_oracle_characters(config, F, a_res, twist, m, 5)
        assert S == params.from_int((3**m - 1) ** 1)


def test_characters_kloosterman_frozen():
    # t + 1/t over F_5 takes values 2,0,0,3 at t = 1,2,3,4
    params, F, config, nd, twist, a_res = setup(5, 6, [[1, -1]], [1, 1], [0])
    th = padic.theta_one(params)
    expected = params.from_int(2) + th**2 + th**3
    S, _ = lf.sums_oracle_characters(config, F, a_res, twist, 1, 6)
    assert S == expected


def test_characters_gauss_sum_norm():
    # twisted A=(1), gamma = 1/(q-1): S_1 is a Gauss sum; S_1 * conj has
    # absolute value q, p-adically ord(S_1) + ord(S_1 bar) = 1.  Check the
    # cheap consequence ord(S_1) = 1/4 for p = 5 (Gross-Koblitz digit sum).
    params, F, config, nd, twist, a_res = setup(5, 6, [[1]], [1], [-1])
    S, _ = lf.sums_oracle_characters(config, F, a_res, twist, 1, 6)
    assert padic.pi_ord(S).value == Fraction(1, 4)


def test_oracle_equivalence_character_vs_series():
    cases = [
        (3, 6, [[1]], [1], [0]),
        (5, 6, [[1, -1]], [1, 1], [0]),
        (5, 6, [[1]], [1], [-1]),
        (3, 5, [[1, 0, 1], [0, 1, 1]], [1, 1, 1], [0, 0]),
    ]
    for p, M, A, a_ints, k_vec in cases:
        params, F, config, nd, twist, a_res = setup(p, M, A, a_ints, k_vec)
        for m in (1, 2):
            Sc, _ = lf.sums_oracle_characters(config, F, a_res, twist, m, M)
            Ss, _ = series_box.series_oracle(config, F, a_res, twist, m, M, nd)
            assert Sc == Ss, (p, A, m)


def test_oracle_equivalence_with_field_extension():
    # f = 2: q = 9, checks the unramified machinery end to end
    p, f, M = 3, 2, 4
    params = padic.ring_create(p, f, M)
    F9 = ff.FqParams(p, f)
    config = ExponentConfig([[1]])
    nd = newton_data(config)
    twist = dwork.TwistData(config, [0], p**f)
    a_res = [(1, 0)]
    S1c, _ = lf.sums_oracle_characters(config, F9, a_res, twist, 1, M)
    S1s, _ = series_box.series_oracle(config, F9, a_res, twist, 1, M, nd)
    assert S1c == S1s == params.from_int(-1)


def test_hyp_table(monkeypatch):
    params, F, config, nd, twist, a_res = setup(3, 5, [[1]], [1], [0])
    grid, rows = lf.hyp_table(config, twist, F, 5)
    assert grid.tolist() == [[[0]], [[1]], [[2]]]
    assert rows.tolist() == [
        list(x.coords) for x in (params.from_int(2), params.from_int(-1),
                                 params.from_int(-1))
    ]
    monkeypatch.setattr(lf, "HYP_LIMIT", 2)
    with pytest.raises(BudgetExceeded):
        lf.hyp_table(config, twist, F, 5)


def test_hyp_points_are_in_sorted_order():
    # the hyp report lists its entries in coefficient_grid order without
    # sorting them: itertools.product order, which is sorted order
    for p, f, N in itertools.product((3, 5, 7), (1, 2), (1, 2, 3)):
        field = ff.FqParams(p, f)
        points = per_point.hyp_points(field, N)
        assert len(points) == p ** (f * N)
        assert points == sorted(points)
        assert len(set(points)) == len(points)
        grid = lf.coefficient_grid(field, N)
        assert grid.shape == (p ** (f * N), N, f)
        assert grid.tolist() == [[list(c) for c in x] for x in points]


# ----------------------------------------------------------------------
# series assembly
# ----------------------------------------------------------------------

def test_l_series_geometric():
    # S_m = -1 for all m: exp(-sum T^m/m) = 1 - T
    params = padic.ring_create(3, 1, 6)
    sums = [(params.from_int(-1), Fraction(6))] * 5
    L = lf.l_series_from_sums(sums, 5)
    assert L.coeffs[0] == params.one()
    assert L.coeffs[1] == params.from_int(-1)
    for k in range(2, 6):
        assert L.coeffs[k].is_zero()
        assert L.precs[k] >= 4  # at most ord_3(3) = 1 lost by T^3 division


def test_l_series_first_coefficient_and_binomial_identity():
    # S_m = (q^m - 1)^n: L = prod_k (1 - q^(n-k) T)^((-1)^k binom(n,k))
    q, n, m_max = 3, 2, 5
    params = padic.ring_create(3, 1, 8)
    sums = [
        (params.from_int((q**m - 1) ** n), Fraction(8)) for m in range(1, m_max + 1)
    ]
    L = lf.l_series_from_sums(sums, m_max)
    assert L.coeffs[1] == sums[0][0]

    # independent expansion of the binomial product with exact integers
    from math import comb

    def poly_mul(a, b, order):
        out = [0] * (order + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j <= order:
                    out[i + j] += x * y
        return out

    def poly_inv(a, order):
        out = [1] + [0] * order
        for k in range(1, order + 1):
            out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1) if j < len(a))
        return out

    num = [1]
    den = [1]
    for k in range(n + 1):
        factor = [1, -(q ** (n - k))]
        # (1 - q^(n-k) T) appears with exponent (-1)^(k+1) binom(n, k)
        for _ in range(comb(n, k)):
            if k % 2 == 1:
                num = poly_mul(num, factor, m_max)
            else:
                den = poly_mul(den, factor, m_max)
    expect = poly_mul(num, poly_inv(den, m_max), m_max)
    for k in range(m_max + 1):
        assert L.coeffs[k] == params.from_int(expect[k])


def test_divide_by_int_precision():
    params = padic.ring_create(3, 1, 5)
    x = params.from_int(6)
    y, lost = lf.divide_by_int(x, 3)
    assert y == params.from_int(2) and lost == 1
    y2, lost2 = lf.divide_by_int(x, 2)
    assert y2 == params.from_int(3) and lost2 == 0
    with pytest.raises(ArithmeticError):
        lf.divide_by_int(params.from_int(1), 3)


def test_l_from_charseries_n1_shape():
    # n = 1: L = P(T) / P(qT)
    params = padic.ring_create(5, 1, 6)
    P = [params.one(), params.from_int(7), params.from_int(3)]
    L = lf.l_from_charseries(P, Fraction(6), 1, 5, 4)
    num = P + [params.zero()] * 2
    den = [params.one(), params.from_int(7 * 5), params.from_int(3 * 25),
           params.zero(), params.zero()]
    expected = lf._mul_trunc(params, num, lf._inv_trunc(params, den, 4), 4)
    assert L.coeffs == expected
    with pytest.raises(NonUnitConstantTerm):
        lf.l_from_charseries([params.from_int(2)], Fraction(6), 1, 5, 2)


# ----------------------------------------------------------------------
# recognition and polygons
# ----------------------------------------------------------------------

def full_pipeline(p, M, A, a_ints, k_vec, m_max):
    params, F, config, nd, twist, a_res = setup(p, M, A, a_ints, k_vec)
    sums = [
        lf.sums_oracle_characters(config, F, a_res, twist, m, M)
        for m in range(1, m_max + 1)
    ]
    return params, config, lf.l_series_from_sums(sums, m_max)


def test_recognition_segment():
    params, config, L = full_pipeline(3, 6, [[1]], [1], [0], 4)
    out = lf.rational_recognition(L, 1, 1)
    assert isinstance(out, lf.LPolynomial)
    assert out.coeffs == [params.one(), params.from_int(-1)]  # L = 1 - T


def test_recognition_kloosterman_and_polygon():
    params, config, L = full_pipeline(5, 8, [[1, -1]], [1, 1], [0], 5)
    out = lf.rational_recognition(L, 2, 1)
    assert isinstance(out, lf.LPolynomial)
    assert out.degree() == 2
    # reciprocal-root product: c_2 has ord exactly 1 (the weight q)
    assert padic.pi_ord(out.coeffs[2]).value == 1
    assert padic.pi_ord(out.coeffs[1]).value == 0
    np_ = lf.newton_polygon(out)
    assert np_.slopes == [(0, 1), (1, 1)]
    assert np_.flagged == []


def test_recognition_rejects_degenerate():
    params, config, L = full_pipeline(5, 8, [[1, -1]], [0, 0], [0], 5)
    out = lf.rational_recognition(L, 2, 1)
    assert isinstance(out, lf.NotPolynomial)
    assert out.index == 3


def test_newton_polygon_simple():
    params = padic.ring_create(5, 1, 6)
    one = params.one()
    lp = lf.LPolynomial(params, [one, params.from_int(-1)], [Fraction(6)] * 2, 1)
    assert lf.newton_polygon(lp).slopes == [(0, 1)]
    lp2 = lf.LPolynomial(params, [one, params.from_int(5)], [Fraction(6)] * 2, 1)
    assert lf.newton_polygon(lp2).slopes == [(1, 1)]
    lp3 = lf.LPolynomial(
        params,
        [one, params.from_int(2), params.from_int(25)],
        [Fraction(6)] * 3,
        1,
    )
    assert lf.newton_polygon(lp3).slopes == [(0, 1), (2, 1)]
