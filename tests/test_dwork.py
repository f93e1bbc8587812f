from fractions import Fraction

import pytest

import full_operator
import per_point
import series_box
from fraction_lattice import points
from dworksum import dwork, finitefield as ff, padic
from dworksum.errors import NotTeichmueller, TwistOutsideCone
from dworksum.polytope import ExponentConfig, enumerate_points, newton_data


def setup(p, M, A, a_ints, k_vec, f=1):
    params = padic.ring_create(p, f, M)
    F = ff.FqParams(p, f)
    config = ExponentConfig(A)
    nd = newton_data(config)
    twist = dwork.TwistData(config, k_vec, p**f)
    a_res = [per_point.const(F, x) for x in a_ints]
    a_lifts = [padic.teichmueller(r, params) for r in a_res]
    return params, F, config, nd, twist, a_res, a_lifts


def test_twist_validate():
    _, _, config, nd, twist0, _, _ = setup(5, 4, [[1]], [1], [0])
    assert dwork.twist_validate(twist0, nd)
    twist_ok = dwork.TwistData(config, [-1], 5)  # gamma = 1/4 >= 0
    assert twist_ok.gamma == (Fraction(1, 4),)
    assert dwork.twist_validate(twist_ok, nd)
    twist_bad = dwork.TwistData(config, [1], 5)  # gamma = -1/4 < 0
    assert not dwork.twist_validate(twist_bad, nd)
    with pytest.raises(TwistOutsideCone):
        dwork.require_valid_twist(twist_bad, nd)


def test_twist_shift():
    config = ExponentConfig([[1]])
    tw = dwork.TwistData(config, [-1], 5)
    assert tw.shift(1) == (-1,)
    assert tw.shift(2) == (-6,)  # k (1 + q)


def test_h_series_trivial():
    params, F, config, nd, twist, a_res, _ = setup(3, 4, [[1]], [0], [0])
    a0 = [padic.teichmueller((0,), params)]
    series = dwork.h_series(a0, twist, 1, nd)
    assert series_box.coeff(series, (0,)) == params.one()
    assert series_box.support(series)[0].tolist() == [[0]]
    assert series_box.coeff(series, (5,)).is_zero()
    # outside the cone the coefficient is exactly zero
    assert series_box.coeff(series, (-2,)).is_zero()


def test_h_series_single_monomial_matches_splitting():
    params, F, config, nd, twist, a_res, a_lifts = setup(3, 4, [[1]], [1], [0])
    series = dwork.h_series(a_lifts, twist, 1, nd)
    i_cut = dwork.precision_cut(params, 3)
    base = padic.splitting_coefficients(params, 3, i_cut)
    for i in range(i_cut + 1):
        assert series_box.coeff(series, (i,)) == params.from_coords(base[i])
    # certified floors hold for every stored coefficient
    for e, c in zip(*series_box.support(series)):
        fl = series_box.valuation_floor(series, nd, twist.shift(1), e.tolist())
        c = params.from_coords(c)
        assert padic.pi_ord(c).known_at_least(min(fl, Fraction(params.M)))


def test_h_series_kloosterman_pairing():
    # two monomials t and 1/t: the t^0 coefficient pairs c_i with c_i
    params, F, config, nd, twist, a_res, a_lifts = setup(5, 4, [[1, -1]], [1, 1], [0])
    series = dwork.h_series(a_lifts, twist, 1, nd)
    i_cut = dwork.precision_cut(params, 5)
    base = padic.splitting_coefficients(params, 5, i_cut)
    expected = params.zero()
    for i in range(i_cut + 1):
        c = params.from_coords(base[i])
        expected = expected + c * c
    assert series_box.coeff(series, (0,)) == expected
    # exhaustive floor check over the stored support
    for e, c in zip(*series_box.support(series)):
        fl = series_box.valuation_floor(series, nd, twist.shift(1), e.tolist())
        c = params.from_coords(c)
        assert padic.pi_ord(c).known_at_least(min(fl, Fraction(params.M)))


def test_h_series_rejects_non_teichmueller():
    params, F, config, nd, twist, _, _ = setup(3, 4, [[1]], [1], [0])
    with pytest.raises(NotTeichmueller):
        dwork.h_series([params.from_int(2)], twist, 1, nd)  # 2^3 != 2 mod 81


def test_level_diagonal_sum_checks_and_budget():
    # the fold makes the checks of h_series and refuses its table up front
    from dworksum.errors import BudgetExceeded, ParamsMismatch

    params, F, config, nd, twist, _, a_lifts = setup(3, 4, [[1]], [1], [0])
    with pytest.raises(NotTeichmueller):
        dwork.level_diagonal_sum([params.from_int(2)], twist, 2, nd)
    with pytest.raises(TwistOutsideCone):
        dwork.level_diagonal_sum(a_lifts, dwork.TwistData(config, [1], 3), 2, nd)
    _, _, config2, nd2, twist2, a_res2, a_lifts2 = setup(3, 4, [[1, -1]], [1, 1], [0])
    other = padic.teichmueller(a_res2[1], padic.ring_create(3, 1, 5))
    with pytest.raises(ParamsMismatch):
        dwork.level_diagonal_sum([a_lifts2[0], other], twist2, 2, nd2)
    # 3^16 - 1 cells of 2 coordinates pass 2^24
    with pytest.raises(BudgetExceeded, match="level-16 series table"):
        dwork.level_diagonal_sum(a_lifts, twist, 16, nd)
    # every column zero: H_m = 1, whose only exponent 0 is on the diagonal
    zero = [padic.teichmueller((0,), params)]
    assert dwork.level_diagonal_sum(zero, twist, 2, nd) == params.one()


def test_matrix_entries_and_sparsity():
    params, F, config, nd, twist, a_res, a_lifts = setup(3, 5, [[1]], [1], [0])
    dm = dwork.build_operator(config, nd, a_lifts, twist)
    basis = points(dm.basis)
    assert basis[0] == (0,)
    series = dwork.h_series(a_lifts, twist, 1, nd)
    for wi, w in enumerate(basis[:6]):
        for ui, u in enumerate(basis[:6]):
            e = (3 * w[0] - u[0],)
            want = series_box.coeff(series, e)
            assert params.from_coords(dm.coords[wi, ui]) == want
    # entries outside the support are zero: 3*w - u < 0 for w = 0, u > 0
    assert not dm.coords[0, 1].any()


def test_degenerate_operator_trace_one():
    # a = 0, gamma = 0: G sends t^u to t^(u/q) (q | u), trace = 1
    for A in ([[1]], [[1, -1]]):
        params, F, config, nd, twist, a_res, _ = setup(3, 5, A, [0] * len(A[0]), [0])
        a0 = [padic.teichmueller((0,), params)] * config.N
        dm = dwork.build_operator(config, nd, a0, twist)
        for m in (1, 2):
            tr, prec = dwork.trace(dm, m)
            assert tr == params.one()
            assert prec >= params.M


def test_trace_routes_agree():
    # matrix power against the level-m diagonal sum, read from the expanded
    # series and by the diagonal fold, up to m = 3 on the one-variable
    # configs, m = 2 on the surface (its level-3 series is the one genuinely
    # expensive object here)
    cases = [
        (3, 6, [[1]], [1], [0], 3),
        (5, 6, [[1, -1]], [1, 1], [0], 3),
        (5, 6, [[1]], [1], [-1], 3),
        (3, 5, [[1, 0, 1], [0, 1, 1]], [1, 1, 1], [0, 0], 2),
    ]
    for p, M, A, a_ints, k_vec, m_top in cases:
        params, F, config, nd, twist, a_res, a_lifts = setup(p, M, A, a_ints, k_vec)
        dm = dwork.build_operator(config, nd, a_lifts, twist)
        for m in range(1, m_top + 1):
            tr_pow, prec_pow = dwork.trace(dm, m)
            tr_ser = series_box.diagonal(dwork.h_series(a_lifts, twist, m, nd))
            assert prec_pow >= params.M
            assert tr_pow == tr_ser
            assert dwork.level_diagonal_sum(a_lifts, twist, m, nd) == tr_ser


def test_trace_formula_over_extension_field():
    # q = 9: coefficients in F_9, torus sums over F_9 and F_81, operator over
    # R(3, 2, M); exercises the embedding of F_9 and the twist at f = 2
    p, f, M = 3, 2, 5
    from dworksum import lfunction as lf

    params = padic.ring_create(p, f, M)
    F9 = ff.FqParams(p, f)
    config = ExponentConfig([[1]])
    nd = newton_data(config)
    q = p**f
    for k_vec, a_res in [([0], [(0, 1)]), ([-1], [(1, 0)])]:
        twist = dwork.TwistData(config, k_vec, q)
        lifts = [padic.teichmueller(r, params) for r in a_res]
        dm = dwork.build_operator(config, nd, lifts, twist)
        for m in (1, 2):
            Sc, _ = lf.sums_oracle_characters(config, F9, a_res, twist, m, M)
            Ss, _ = series_box.series_oracle(config, F9, a_res, twist, m, M, nd)
            t, _ = dwork.trace(dm, m)
            t2 = series_box.diagonal(dwork.h_series(lifts, twist, m, nd))
            assert Sc == Ss
            assert t == t2
            assert t * ((q**m - 1) ** config.n) == Sc


def test_trace_matches_ring_matrix_power():
    # Tr(G^m), m = 1..4, against ring-element loops on the whole truncated
    # matrix of the f = 2 Kloosterman operator and its twist (gamma = -1/8);
    # dim 23 is not a multiple of the blow = 4 heads that
    # padic.diagonal_product_sum takes at a time
    p, f, M = 3, 2, 5
    params = padic.ring_create(p, f, M)
    F9 = ff.FqParams(p, f)
    config = ExponentConfig([[1, -1]])
    nd = newton_data(config)
    lifts = [padic.teichmueller(c, params) for c in ((1, 0), (0, 1))]
    for k_vec, dim in (([0], 23), ([1], 24)):
        twist = dwork.TwistData(config, k_vec, p**f)
        dm = dwork.build_operator(config, nd, lifts, twist)
        assert dm.dim == dim
        full = full_operator.full_coords(dwork.h_series(lifts, twist, 1, nd), dm.basis)
        G = [[params.from_coords(e) for e in row] for row in full]
        power = [[params.one() if h == u else params.zero() for u in range(dim)]
                 for h in range(dim)]
        for m in range(1, 5):
            power = [
                [sum((power[h][w] * G[w][u] for w in range(dim)), params.zero())
                 for u in range(dim)]
                for h in range(dim)
            ]
            want = sum((power[h][h] for h in range(dim)), params.zero())
            assert dwork.trace(dm, m)[0] == want


def test_trace_formula_with_integral_twist():
    # gamma = k/(1-q) with d(gamma) >= 1: the operator basis must be the
    # shifted set {w : w + gamma in the cone}; the plain cone points miss
    # diagonal exponents like (q-1)(-1) and break the trace identity
    from dworksum import lfunction as lf

    cases = [
        (3, 5, [[1]], [2], [-2]),    # gamma = 1
        (3, 5, [[-1]], [2], [2]),    # gamma = -1, cone R_{<=0}
        (5, 4, [[1, -1]], [1, 2], [3]),  # gamma = -3/4 inside the full line
    ]
    for p, M, A, a_ints, k_vec in cases:
        params, F, config, nd, twist, a_res, a_lifts = setup(p, M, A, a_ints, k_vec)
        dm = dwork.build_operator(config, nd, a_lifts, twist)
        for m in (1, 2):
            Sc, _ = lf.sums_oracle_characters(config, F, a_res, twist, m, M)
            t, _ = dwork.trace(dm, m)
            t2 = series_box.diagonal(dwork.h_series(a_lifts, twist, m, nd))
            assert t == t2
            assert t * ((p**m - 1) ** config.n) == Sc


def test_trace_formula_randomized():
    # seeded sweep over random desk-scale configurations: matrix, twist and
    # coefficients drawn at random, both oracles and the matrix-power trace
    import itertools
    import random

    from dworksum import lfunction as lf
    from dworksum.errors import RankDeficient

    rng = random.Random(1729)
    checked = 0
    trials = 0
    while checked < 10 and trials < 80:
        trials += 1
        p = rng.choice([3, 3, 5])
        n = rng.choice([1, 1, 2])
        N = min(n + rng.choice([0, 1, 1]), 3)
        M = 4 if p == 3 else 3
        try:
            config = ExponentConfig(
                [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)]
            )
        except (RankDeficient, ValueError):
            continue
        nd = newton_data(config)
        valid_k = [
            k
            for k in itertools.product(range(-2, 3), repeat=n)
            if dwork.twist_validate(dwork.TwistData(config, k, p), nd)
        ]
        twist = dwork.TwistData(config, rng.choice(valid_k), p)
        F = ff.FqParams(p, 1)
        params = padic.ring_create(p, 1, M)
        a_res = [(rng.randint(0, p - 1),) for _ in range(N)]
        a_lifts = [padic.teichmueller(r, params) for r in a_res]
        dm = dwork.build_operator(config, nd, a_lifts, twist)
        if dm.dim > 400:
            continue
        checked += 1
        for m in (1, 2):
            Sc, _ = lf.sums_oracle_characters(config, F, a_res, twist, m, M)
            Ss, _ = series_box.series_oracle(config, F, a_res, twist, m, M, nd)
            t, _ = dwork.trace(dm, m)
            assert Sc == Ss
            assert t * ((p**m - 1) ** config.n) == Sc
    assert checked == 10


def test_known_trace_value_cubic_field():
    # A = (1), a = 1, gamma = 0 over F_3: S_1 = -1 so Tr(G) = -1/2 in Z_3
    params, F, config, nd, twist, a_res, a_lifts = setup(3, 6, [[1]], [1], [0])
    dm = dwork.build_operator(config, nd, a_lifts, twist)
    tr, prec = dwork.trace(dm, 1)
    minus_half = params.from_int(-pow(2, -1, params.pM))
    assert tr == minus_half


def test_tail_bound_dominates_cap_bound():
    for p, M, A, a_ints, k_vec in [
        (3, 6, [[1]], [1], [0]),
        (5, 6, [[1]], [1], [-1]),
        (5, 6, [[1, -1]], [1, 1], [0]),
    ]:
        params, F, config, nd, twist, a_res, a_lifts = setup(p, M, A, a_ints, k_vec)
        dm = dwork.build_operator(config, nd, a_lifts, twist)
        q = twist.q
        gshift = tuple(Fraction(q - 1) * g for g in twist.gamma)
        d_shift = nd.weight(gshift)
        lower = Fraction((p - 1) * (q - 1), p * q) * (dm.cap - d_shift)
        assert dm.tail_bound >= lower
        assert dm.tail_bound >= params.M  # the default cap clears precision


def test_char_series_degenerate_is_one_minus_T():
    # a = 0, gamma = 0: the only unit eigenvalue is the fixed point t^0 and
    # the rest of the truncated matrix is nilpotent, so det(I - TG) = 1 - T
    params, F, config, nd, twist, a_res, _ = setup(3, 5, [[1]], [0], [0])
    a0 = [padic.teichmueller((0,), params)]
    dm = dwork.build_operator(config, nd, a0, twist)
    coeffs, prec = dwork.char_series(dm)
    assert coeffs[0] == params.one()
    assert coeffs[1] == params.from_int(-1)
    assert all(c.is_zero() for c in coeffs[2:])


def test_char_series_stable_under_cap_refinement():
    # enlarging the basis may only move coefficients above the tail bound
    p, M = 5, 5
    params, F, config, nd, twist, a_res, a_lifts = setup(p, M, [[1, -1]], [1, 1], [0])
    dm1 = dwork.build_operator(config, nd, a_lifts, twist)
    dm2 = dwork.build_operator(config, nd, a_lifts, twist, cap=dm1.cap + 3)
    c1, prec1 = dwork.char_series(dm1)
    c2, _ = dwork.char_series(dm2)
    digits = p ** int(min(Fraction(M), prec1))
    for a, b in zip(c1, c2):
        assert [x % digits for x in a.coords] == [x % digits for x in b.coords]


def test_char_series_prefix_matches_full():
    params, F, config, nd, twist, a_res, a_lifts = setup(3, 4, [[1]], [1], [0])
    dm = dwork.build_operator(config, nd, a_lifts, twist)
    full, prec_full = dwork.char_series(dm)
    assert len(full) == dm.dim + 1
    assert full[0] == params.one()
    prefix, prec_pre = dwork.char_series(dm, max_degree=3)
    assert prefix == full[:4]
    # Newton's first identity without divisions: coeff of T is -Tr(G)
    tr, _ = dwork.trace(dm, 1)
    assert full[1] == -tr


def test_truncation_stability():
    # enlarging the cap and the precision must not change reported digits
    p, M, A, a_ints, k_vec = 5, 5, [[1, -1]], [1, 1], [0]
    params, F, config, nd, twist, a_res, a_lifts = setup(p, M, A, a_ints, k_vec)
    dm1 = dwork.build_operator(config, nd, a_lifts, twist)
    params2 = padic.ring_create(p, 1, M + 2)
    lifts2 = [padic.teichmueller(r, params2) for r in a_res]
    dm2 = dwork.build_operator(config, nd, lifts2, twist, cap=dm1.cap + 5)
    pM = params.pM
    for m in (1, 2):
        t1, _ = dwork.trace(dm1, m)
        t2, _ = dwork.trace(dm2, m)
        assert [c % pM for c in t2.coords] == list(t1.coords)


def reference_series(a_lifts, twist, m):
    """H_m by brute force: one product c_(i_1) a_1^(i_1) ... c_(i_N) a_N^(i_N)
    per tuple with sum i_j <= the precision cut, summed per exponent, as a
    map exponent -> coordinates of the nonzero sums."""
    import itertools

    params = a_lifts[0].params
    config = twist.config
    Q = twist.q**m
    i_cut = dwork.precision_cut(params, Q)
    base = padic.splitting_coefficients(params, Q, i_cut)
    # zero terms add nothing; a zero column keeps only i = 0 (0^0 = 1)
    terms = []
    for a in a_lifts:
        powers = [params.one()]
        for _ in range(i_cut):
            powers.append(powers[-1] * a)
        column = [(i, params.from_coords(base[i]) * x) for i, x in enumerate(powers)]
        terms.append([(i, t) for i, t in column if not t.is_zero()])
    shift = twist.shift(m)
    sums = {}
    for choice in itertools.product(*terms):
        if sum(i for i, _ in choice) > i_cut:
            continue
        e = tuple(
            shift[k] + sum(i * w[k] for (i, _), w in zip(choice, config.columns))
            for k in range(config.n)
        )
        value = params.one()
        for _, t in choice:
            value = value * t
        sums[e] = sums[e] + value if e in sums else value
    return {e: v.coords for e, v in sums.items() if not v.is_zero()}


def test_h_series_matches_brute_force_sweep(monkeypatch):
    # seeded sweep over p, f, m, n <= 3, zero columns and in-cone twists:
    # the series, every matrix entry c_(Q w - u) (the full reference, whose
    # live prefix is the operator's block), the diagonal sum and the
    # diagonal fold must equal the brute-force expansion exactly; draws whose
    # box table would pass 2^20 coordinates are refused and redrawn, to keep
    # the sweep small
    import itertools
    import random

    from dworksum.errors import BudgetExceeded, RankDeficient

    rng = random.Random(2718)
    nonzero = {}  # (ring, m) -> number of nonzero splitting coefficients
    ranks = set()
    zero_columns = 0
    for p, f, m in itertools.product((3, 5, 7), (1, 2), (1, 2)):
        q = p**f
        F = ff.FqParams(p, f)
        units = per_point.elements(F)
        for _ in range(3):
            while True:
                n = rng.choice((1, 2, 3))
                N = rng.randint(n, n + 1)
                M = rng.randint(1, 3)
                try:
                    config = ExponentConfig(
                        [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)]
                    )
                except (RankDeficient, ValueError):
                    continue
                nd = newton_data(config)
                ks = [
                    k for k in itertools.product(range(-2, 3), repeat=n)
                    if any(k) and dwork.twist_validate(
                        dwork.TwistData(config, k, q), nd
                    )
                ]
                if not ks:
                    continue
                params = padic.ring_create(p, f, M)
                if (params, m) not in nonzero:
                    base = padic.splitting_coefficients(
                        params, q**m, dwork.precision_cut(params, q**m)
                    )
                    nonzero[params, m] = sum(
                        1 for c in base if not params.from_coords(c).is_zero()
                    )
                a_res = [
                    (0,) * f if rng.random() < 0.2 else rng.choice(units)
                    for _ in range(N)
                ]
                live = sum(any(a) for a in a_res)
                # live columns, and not too many tuples for the brute force
                if not live or nonzero[params, m] ** live > 3000:
                    continue
                twist = dwork.TwistData(config, rng.choice(ks), q)
                a_lifts = [padic.teichmueller(a, params) for a in a_res]
                try:
                    with monkeypatch.context() as small:
                        small.setattr(dwork, "TABLE_LIMIT", 2**20)
                        series = dwork.h_series(a_lifts, twist, m, nd)
                except BudgetExceeded:
                    continue
                break
            want = reference_series(a_lifts, twist, m)
            exponents, coeffs = series_box.support(series)
            got = {
                tuple(e): tuple(c)
                for e, c in zip(exponents.tolist(), coeffs.tolist())
            }
            assert got == want, (p, f, m, config.A, a_res, twist.k)

            Q = q**m
            basis = enumerate_points(nd, 3, offset=twist.gamma)
            full = full_operator.full_coords(series, basis)
            zero = params.zero().coords
            pts = points(basis)
            for wi, w in enumerate(pts):
                for ui, u in enumerate(pts):
                    e = tuple(Q * a - b for a, b in zip(w, u))
                    assert tuple(full[wi, ui].tolist()) == want.get(e, zero)
            dm = dwork.DworkMatrix(series, basis, twist)
            assert (dm.coords == full[:dm.live, :dm.live]).all()

            diagonal = params.zero()
            for e, c in want.items():
                if all(x % (Q - 1) == 0 for x in e):
                    diagonal = diagonal + params.from_coords(c)
            assert series_box.diagonal(series) == diagonal
            assert dwork.level_diagonal_sum(a_lifts, twist, m, nd) == diagonal
            ranks.add(n)
            zero_columns += any(not any(a) for a in a_res)
    assert ranks == {1, 2, 3} and zero_columns
