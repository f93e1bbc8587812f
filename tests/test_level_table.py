"""The torus walks on the field tables against per-point references.

The character reference is the literal sum over the torus: one absolute trace
and one ring product per point.  The series reference evaluates the level-m
series at every Teichmueller point of the torus.  Both references sum in the
level ring R(p, f m, M), while the oracles return a value of the base ring
R(p, f, M); the embedding is injective, so the embedded oracle value must
equal the reference exactly (the arithmetic is exact mod p^M, so any
difference is a bug, not rounding).  The nondegeneracy reference tests the
toric derivatives one torus point at a time in coefficient-tuple arithmetic,
and must give the same verdict, face and witness.
"""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

import per_point
import series_box
from dworksum import dwork, finitefield as ff, lfunction as lf, padic
from dworksum.cli import JobConfig
from dworksum.errors import BudgetExceeded, LevelTooLarge, NotAField
from dworksum.polytope import ExponentConfig, newton_data

ROOT = Path(__file__).resolve().parent.parent


def reference_characters(config, field, a_residues, twist, m, M):
    """S_m point by point: sum over u in (F_{q^m}^*)^n of
    teich(u)^shift(m) theta(1)^Tr(sum_j a_j u^A_j), in R(p, f m, M)."""
    p, f = field.p, field.degree
    big_field = ff.FqParams(p, f * m)
    big_ring = padic.ring_create(p, f * m, M)
    gen = ff.multiplicative_generator(big_field)
    L = big_field.q - 1
    teich_pow = [big_ring.one()]
    tg = padic.teichmueller(gen, big_ring)
    gen_pows = [per_point.const(big_field, 1)]
    for _ in range(L - 1):
        teich_pow.append(teich_pow[-1] * tg)
        gen_pows.append(per_point.mul(big_field, gen_pows[-1], gen))
    th = per_point.ring_embed(
        padic.theta_one(padic.ring_create(p, 1, M)), big_ring
    )
    theta_pow = [big_ring.one()]
    for _ in range(p - 1):
        theta_pow.append(theta_pow[-1] * th)
    a_big = [per_point.embed(a, field, big_field) for a in a_residues]
    tw = twist.shift(m)
    total = big_ring.zero()
    for logs in itertools.product(range(L), repeat=config.n):
        val = per_point.const(big_field, 0)
        for j in range(config.N):
            if any(a_big[j]):
                e = sum(config.A[i][j] * logs[i] for i in range(config.n)) % L
                term = per_point.mul(big_field, a_big[j], gen_pows[e])
                val = per_point.add(big_field, val, term)
        k = sum(tw[i] * logs[i] for i in range(config.n)) % L
        trace = per_point.frobenius_trace(val, big_field)
        total = total + teich_pow[k] * theta_pow[trace]
    return total


def reference_series(config, field, a_residues, twist, m, M, nd):
    """H_m summed point by point over the torus: at u = g^l the value
    sum_e c_e teich(g)^(e . l) in R(p, f m, M), summed over every l."""
    p, f = field.p, field.degree
    base_ring = padic.ring_create(p, f, M)
    big_field = ff.FqParams(p, f * m)
    big_ring = padic.ring_create(p, f * m, M)
    L = big_field.q - 1
    tg = padic.teichmueller(ff.multiplicative_generator(big_field), big_ring)
    teich_pow = [big_ring.one()]
    for _ in range(L - 1):
        teich_pow.append(teich_pow[-1] * tg)
    lifts = [padic.teichmueller(a, base_ring) for a in a_residues]
    exps, level_coeffs = series_box.support(dwork.h_series(lifts, twist, m, nd))
    coeffs = np.array(
        [per_point.ring_embed(base_ring.from_coords(c), big_ring).coords
         for c in level_coeffs],
        dtype=np.int64,
    ).reshape(-1, big_ring.blow)
    total = big_ring.zero()
    for logs in itertools.product(range(L), repeat=config.n):
        # H_m(u): the terms grouped by the power of teich(g) they evaluate to
        by_power = np.zeros((L, big_ring.blow), dtype=np.int64)
        np.add.at(by_power, exps @ np.array(logs, dtype=np.int64) % L, coeffs)
        value = big_ring.zero()
        for k in range(L):
            if by_power[k].any():
                value = value + big_ring.from_coords(
                    (by_power[k] % big_ring.pM).tolist()
                ) * teich_pow[k]
        total = total + value
    return total


def random_config(rng, n, N):
    while True:
        try:
            return ExponentConfig(
                [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)]
            )
        except Exception:
            continue


def random_case(rng, p, f, n=None):
    n = n or rng.choice((1, 2))
    N = rng.randint(n, 3)
    config = random_config(rng, n, N)
    q = p**f
    F = ff.FqParams(p, f)
    units = per_point.enumerate_units(F)
    style = rng.choice(("units", "some zero", "all zero"))
    if style == "all zero":
        a = [(0,) * f] * N
    else:
        a = [rng.choice(units) for _ in range(N)]
        if style == "some zero":
            a[rng.randrange(N)] = (0,) * f
    twist = dwork.TwistData(config, [rng.randrange(q - 1) for _ in range(n)], q)
    return config, a, twist


def test_characters_match_per_point_reference():
    rng = random.Random(20180514)
    checked = 0
    for p, f in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]:
        for _ in range(3):
            config, a, twist = random_case(rng, p, f)
            M = rng.randint(2, 5)
            for m in (1, 2):
                if (p ** (f * m) - 1) ** config.n > 2500:
                    continue
                F = ff.FqParams(p, f)
                got, prec = lf.sums_oracle_characters(config, F, a, twist, m, M)
                want = reference_characters(config, F, a, twist, m, M)
                assert per_point.ring_embed(got, want.params) == want, (
                    p, f, config, a, twist.k, m, M
                )
                assert prec == M
                checked += 1
    assert checked >= 20
    # n = 3, up to 512 points
    for p, f, m in [(3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1), (3, 2, 1)]:
        config, a, twist = random_case(rng, p, f, n=3)
        M = rng.randint(2, 4)
        F = ff.FqParams(p, f)
        got, prec = lf.sums_oracle_characters(config, F, a, twist, m, M)
        want = reference_characters(config, F, a, twist, m, M)
        assert per_point.ring_embed(got, want.params) == want, (
            p, f, config, a, twist.k, m, M
        )


@pytest.mark.parametrize("L, n, size", [
    (5, 1, 0), (5, 1, 3), (5, 1, 5), (4, 2, 3), (4, 2, 6), (4, 2, 16),
    (3, 3, 2), (3, 3, 7), (3, 3, 10), (6, 3, 20), (2, 4, 5), (7, 2, 100),
])
def test_torus_grids_partition_the_torus_in_row_major_order(L, n, size):
    points = []
    for grid in lf._torus_grids(L, n, size):
        block = list(itertools.product(*(g.tolist() for g in grid)))
        assert 0 < len(block) <= max(size, 1)
        points += block
    assert points == list(itertools.product(range(L), repeat=n))


# (p, f, n, N): q^N <= 81, zero coordinates in every table
HYP_CASES = [
    (3, 1, 1, 3), (3, 1, 2, 4), (5, 1, 1, 2), (5, 1, 2, 2),
    (3, 2, 1, 2), (3, 2, 2, 2), (5, 2, 1, 1),
]


def hyp_case(rng, p, f, n, N):
    q = p**f
    config = random_config(rng, n, N)
    twist = dwork.TwistData(
        config, [rng.randrange(1, q - 1) for _ in range(n)], q
    )
    return config, twist, ff.FqParams(p, f), rng.randint(2, 4)


def hyp_entries(config, twist, F, M) -> dict:
    """hyp_table's coordinate rows as ring elements keyed by their
    coefficient points, which must be the points in per_point.hyp_points
    order."""
    grid, rows = lf.hyp_table(config, twist, F, M)
    ring = padic.ring_create(F.p, F.degree, M)
    assert rows.shape == (F.q**config.N, ring.blow)
    points = per_point.hyp_points(F, config.N)
    assert [tuple(map(tuple, x)) for x in grid.tolist()] == points
    return {x: ring.from_coords(row) for x, row in zip(points, rows)}


def test_hyp_table_matches_per_point_reference():
    # every entry of the batched table against the literal torus sum
    rng = random.Random(20240808)
    for p, f, n, N in HYP_CASES:
        config, twist, F, M = hyp_case(rng, p, f, n, N)
        table = hyp_entries(config, twist, F, M)
        assert len(table) == F.q**N
        for x in itertools.product(per_point.elements(F), repeat=N):
            want = reference_characters(config, F, list(x), twist, 1, M)
            assert table[x] == want, (p, f, config.A, x, twist.k, M)


def test_character_values_independent_of_block_size(monkeypatch):
    # rows and torus points split across blocks give the same values; the
    # block sizes make the walk take the whole torus, ranges of an axis
    # under whole trailing axes, and leading axes one value at a time, with
    # batches of hyp rows that hold zero coefficients
    rng = random.Random(11)
    cases = [hyp_case(rng, *case) for case in HYP_CASES + [(3, 1, 3, 3)]]

    def values():
        out = []
        for config, twist, F, M in cases:
            out.append(lf.hyp_table(config, twist, F, M)[1].tolist())
            a = [per_point.const(F, 1)] * (config.N - 1) + [per_point.const(F, 0)]
            for m in (1, 2):
                if (F.q**m - 1) ** config.n <= 700:
                    out.append(lf.sums_oracle_characters(config, F, a, twist, m, M))
        return out

    want = values()
    walks = set()
    grids = lf._torus_grids

    def spy(L, n, size):
        walks.add((L, n, size))
        return grids(L, n, size)

    monkeypatch.setattr(lf, "_torus_grids", spy)
    for block in (100, 20, 7, 1):
        monkeypatch.setattr(lf, "_BLOCK", block)
        assert values() == want, block
    assert any(L**n <= size for L, n, size in walks)
    assert any(L <= size < L**n for L, n, size in walks)
    assert any(size < L ** (n - 1) for L, n, size in walks)


def test_hyp_entry_at_the_job_coefficients_is_the_level_one_sum():
    jobs = sorted((ROOT / "jobs").glob("*.json"))
    jobs.append(ROOT / "bench" / "jobs" / "hyp_twist_p5f2.json")
    for path in jobs:
        job = JobConfig(json.loads(path.read_text()))
        table = hyp_entries(job.config, job.twist, job.field, job.M)
        S, _ = lf.sums_oracle_characters(
            job.config, job.field, job.a_residues, job.twist, 1, job.M
        )
        assert table[tuple(job.a_residues)] == S, path.name
    rng = random.Random(5)
    for p, f, n, N in HYP_CASES:
        config, twist, F, M = hyp_case(rng, p, f, n, N)
        a = [rng.choice(per_point.elements(F)) for _ in range(N)]
        table = hyp_entries(config, twist, F, M)
        S, _ = lf.sums_oracle_characters(config, F, a, twist, 1, M)
        assert table[tuple(a)] == S


def test_series_oracle_matches_characters_on_random_twists():
    rng = random.Random(7)
    for p, A in [(3, [[1, -1]]), (5, [[1]]), (3, [[1, 0, 1], [0, 1, 1]])]:
        config = ExponentConfig(A)
        nd = newton_data(config)
        F = ff.FqParams(p, 1)
        a = [(rng.randrange(1, p),) for _ in range(config.N)]
        k = [0] * config.n if config.n > 1 else [-rng.randrange(p - 1)]
        twist = dwork.TwistData(config, k, p)
        if not dwork.twist_validate(twist, nd):
            continue
        Sc, _ = lf.sums_oracle_characters(config, F, a, twist, 1, 4)
        Ss, _ = series_box.series_oracle(config, F, a, twist, 1, 4, nd)
        assert Sc == Ss == reference_characters(config, F, a, twist, 1, 4)


def test_series_oracle_matches_per_point_reference():
    # the series oracle is (q^m - 1)^n times the diagonal sum by orthogonality;
    # the reference evaluates H_m at every Teichmueller point of the torus
    rng = random.Random(4)
    cases = [
        # (p, f, A, levels, M, a_j = 0 somewhere); the cone of every A below
        # is the whole space, so every twist exponent is valid
        (3, 1, [[1, -1]], (1, 2), 3, False),
        (3, 1, [[1, -1]], (1, 2), 3, True),
        (5, 1, [[1, -1]], (1, 2), 2, False),
        (3, 2, [[1, -1]], (1,), 2, False),
        (5, 2, [[1, -1]], (1,), 2, True),
        (3, 1, [[1, 0, -1], [0, 1, -1]], (1, 2), 2, False),
        (3, 1, [[1, 0, -1], [0, 1, -1]], (1, 2), 2, True),
        (5, 1, [[1, 0, -1], [0, 1, -1]], (1,), 2, False),
        (3, 2, [[1, 0, -1], [0, 1, -1]], (1,), 2, True),
    ]
    zero_column = nonzero_twist = False
    for p, f, A, levels, M, with_zero in cases:
        config = ExponentConfig(A)
        nd = newton_data(config)
        F = ff.FqParams(p, f)
        q = p**f
        units = per_point.enumerate_units(F)
        a = [rng.choice(units) for _ in range(config.N)]
        if with_zero:
            a[rng.randrange(config.N)] = (0,) * f
        twist = dwork.TwistData(
            config, [rng.randrange(1, q - 1) for _ in range(config.n)], q
        )
        zero_column = zero_column or not all(map(any, a))
        nonzero_twist = nonzero_twist or any(twist.k)
        for m in levels:
            got, prec = series_box.series_oracle(config, F, a, twist, m, M, nd)
            want = reference_series(config, F, a, twist, m, M, nd)
            assert per_point.ring_embed(got, want.params) == want, (
                p, f, A, a, twist.k, m, M
            )
            assert prec == M
    assert zero_column and nonzero_twist


def square_of_irreducible(rng, F):
    """c Q^2 for a random unit c and a random monic quadratic Q with no root
    in F, as the coefficients of y^0..y^4: a double root first met over the
    quadratic extension."""
    def add(x, y):
        return per_point.add(F, x, y)

    def mul(x, y):
        return per_point.mul(F, x, y)

    els = per_point.elements(F)
    while True:
        q0, q1 = rng.choice(els), rng.choice(els)
        if all(any(add(add(q0, mul(q1, t)), mul(t, t))) for t in els):
            break
    c = rng.choice([x for x in els if any(x)])
    two = per_point.const(F, 2)
    square = [
        mul(q0, q0), mul(two, mul(q0, q1)), add(mul(q1, q1), mul(two, q0)),
        mul(two, q1), per_point.const(F, 1),
    ]
    return [mul(c, x) for x in square]


def test_nondegeneracy_matches_per_point_reference(monkeypatch):
    # random configurations over fields up to F_81, and edges y^k c Q(y)^2
    # whose only witnesses live over F_{q^2}, where the choice of root for
    # F_q -> F_{q^2} shows in the witness when f = 2; the table walk runs
    # with its own block size and with blocks of 7 points
    rng = random.Random(20181018)
    cases = []
    for p, f in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]:
        F = ff.FqParams(p, f)
        els = per_point.elements(F)
        for _ in range(8):
            n = rng.choice((1, 2)) if (F.q - 1) ** 2 <= 100 else 1
            N = rng.randint(n, n + 2)
            config = random_config(rng, n, N)
            a = [rng.choice(els) for _ in range(N)]
            s_max = max(
                (s for s in range(1, 5)
                 if F.q**s <= 81 and (F.q**s - 1) ** n <= 100),
                default=1,
            )
            cases.append((config, F, a, s_max))
    for p, f in [(3, 1), (5, 1), (3, 2)]:
        F = ff.FqParams(p, f)
        for _ in range(2):
            k = rng.randint(-1, 1)
            config = ExponentConfig([[1] * 5, list(range(k, k + 5))])
            cases.append((config, F, square_of_irreducible(rng, F), 2))
    degenerate = late = 0
    for config, F, a, s_max in cases:
        want = per_point.nondegeneracy_check(config, F, a, s_max)
        for block in (lf._BLOCK, 7):
            monkeypatch.setattr(lf, "_BLOCK", block)
            got = lf.nondegeneracy_check(newton_data(config), F, a, s_max)
            assert repr(got) == repr(want), (config, a, block)
        monkeypatch.undo()
        if isinstance(want, lf.DegenerateWitness):
            degenerate += 1
            late += len(want.point[0]) > F.degree
    assert degenerate >= 10 and late >= 4, (degenerate, late)


def test_level_table_contents():
    # the doubling walks against one product per power, including tables
    # whose L is not a power of two
    for p, s, M in [(5, 2, 3), (3, 1, 3), (3, 5, 2), (5, 3, 2), (7, 2, 2)]:
        tab = lf.level_table(p, s, M)
        base = tab.base
        assert base is lf.field_table(p, s)
        L = p**s - 1
        assert base.L == L and tab.teich.shape == (L, s)
        assert (base.log >= 0).sum() == L and base.log[0] == -1
        assert base.logs((0,) * s) == L
        g = ff.multiplicative_generator(base.field)
        assert base.gen == g
        x = per_point.const(base.field, 1)
        for e in range(L):
            assert base.logs(x) == e
            assert base.trace[e] == per_point.frobenius_trace(x, base.field)
            # the pi^0 row of the lift, which has no other coordinate
            lift = padic.teichmueller(x, tab.ring).coords
            assert tab.teich[e].tolist() == list(lift[:s])
            assert not any(lift[s:])
            x = per_point.mul(base.field, x, g)
        th = per_point.ring_embed(
            padic.theta_one(padic.ring_create(p, 1, M)), tab.ring
        )
        assert tab.theta.shape == (p, p - 1)
        for c in range(p):
            # the b^0 column of theta(1)^c, which is 0 off it
            power = np.array((th**c).coords).reshape(p - 1, s)
            assert tab.theta[c].tolist() == power[:, 0].tolist()
            assert not power[:, 1:].any()


def test_non_generator_makes_the_oracle_raise(monkeypatch):
    config = ExponentConfig([[1]])
    F = ff.FqParams(5, 1)
    twist = dwork.TwistData(config, [0], 5)
    # 4 has order 2 in F_5^*: its powers miss half the torus
    monkeypatch.setattr(ff, "multiplicative_generator", lambda field: (4,))
    lf.level_table.cache_clear()
    lf.field_table.cache_clear()
    try:
        with pytest.raises(NotAField):
            lf.sums_oracle_characters(config, F, [(1,)], twist, 1, 3)
    finally:
        lf.level_table.cache_clear()
        lf.field_table.cache_clear()


def test_reducible_modulus_table_raises():
    # F_3[b]/(b^2 - 1) = F_3 x F_3 is not a field: no element has L = 8
    # powers.  The field table refuses it, before any level table's ring data
    fake = ff.FqParams(3, 2)
    fake.modulus = (2, 0, 1)
    for cand in per_point.enumerate_units(fake):
        with pytest.raises(NotAField):
            lf.FieldTable(fake, cand)
    # the message names the first zero or repeated power: b^2 = 0 in
    # F_3[b]/(b^2), and 4 has order 2 in F_5^*
    nil = ff.FqParams(3, 2)
    nil.modulus = (0, 0, 1)
    with pytest.raises(NotAField, match="only 2 < 8 distinct powers"):
        lf.FieldTable(nil, (0, 1))
    F5 = ff.FqParams(5, 1)
    with pytest.raises(NotAField, match="only 2 < 4 distinct powers"):
        lf.FieldTable(F5, (4,))


def test_characters_at_degree_six():
    # F_{3^6} is the first level whose modulus needed Rabin's gcd condition;
    # both an f = 2 embedding (F_9 -> F_729) and f = 1 at m = 6 must work
    F9 = ff.FqParams(3, 2)
    config = ExponentConfig([[1, -1]])
    twist = dwork.TwistData(config, [0], 9)
    a = [(1, 0), (0, 1)]
    got, _ = lf.sums_oracle_characters(config, F9, a, twist, 3, 3)
    want = reference_characters(config, F9, a, twist, 3, 3)
    assert per_point.ring_embed(got, want.params) == want
    F3 = ff.FqParams(3, 1)
    segment = ExponentConfig([[1]])
    flat = dwork.TwistData(segment, [0], 3)
    S, _ = lf.sums_oracle_characters(segment, F3, [(1,)], flat, 6, 3)
    assert S == padic.ring_create(3, 1, 3).from_int(-1)


def test_level_value_is_the_same_for_every_root(monkeypatch):
    # F_q enters F_{q^m} along any root of its modulus: an embedding along
    # each root in turn gives the same value, twist and zero coefficient
    # included
    cases = [
        (2, 3, ExponentConfig([[1, -1]]), [[1, 0], [0, 1]], [1]),
        (3, 2, ExponentConfig([[1, 2, -1]]), [[0, 1, 0], [0, 0, 0], [2, 1, 1]], [5]),
    ]
    for f, m, config, a, k in cases:
        F = ff.FqParams(3, f)
        a = [tuple(c) for c in a]
        twist = dwork.TwistData(config, k, F.q)
        found = lf._modulus_roots(lf.field_table(3, f), lf.field_table(3, f * m))
        assert len(set(found.tolist())) == f
        values = set()
        for r in range(f):
            def embedding(tab, big, r=r, f=f):
                root = int(lf._modulus_roots(tab, big)[r])
                return big.powers[np.arange(f) * root % big.L]

            monkeypatch.setattr(lf, "_embedding", embedding)
            values.add(lf.sums_oracle_characters(config, F, a, twist, m, 3)[0])
        assert len(values) == 1, (f, m)


def test_level_oracle_builds_no_level_ring():
    # every level is evaluated in the base ring: the only ring the oracle
    # creates is R(p, f, M)
    F9 = ff.FqParams(3, 2)
    config = ExponentConfig([[1, -1]])
    twist = dwork.TwistData(config, [1], 9)
    lf.level_table.cache_clear()
    padic.ring_create.cache_clear()
    for m in (1, 2, 3):
        lf.sums_oracle_characters(config, F9, [(1, 0), (0, 1)], twist, m, 3)
    info = padic.ring_create.cache_info()
    assert info.currsize == 1
    padic.ring_create(3, 2, 3)
    assert padic.ring_create.cache_info().hits == info.hits + 1


def test_level_budget_admits_measured_levels_and_refuses_the_rest():
    # A = I_3, p = 5 at level 4: 624^3 points, counted in about 30 s
    lf.require_level_budget(5, 1, 4, 3)
    # p = 13, n = 1 at level 5: a table of 2.6 M coordinates
    lf.require_level_budget(13, 1, 5, 1)
    # x over F_331, one row and hyp's 331 rows: the ring data are held on
    # their subrings' coordinates; as regular representations they would
    # count 36.4 M and 79.4 M coordinates
    lf.require_level_budget(331, 1, 1, 1)
    lf.require_level_budget(331, 1, 1, 1, rows=331)
    with pytest.raises(BudgetExceeded, match=f"level 4 needs {2400**3} torus"):
        lf.require_level_budget(7, 1, 4, 3)
    # n = 1 keeps the torus small but not the table: L = 1021^2 - 1 rows
    # of blow = 2040 coordinates
    with pytest.raises(BudgetExceeded, match="level 1 needs a table of"):
        lf.require_level_budget(1021, 2, 1, 1)
    with pytest.raises(LevelTooLarge, match="level 7 exceeds the budget 6"):
        lf.require_level_budget(3, 1, 7, 1)
