"""The sum oracles against per-point references.

The character reference is the literal sum over the torus: one absolute trace
and one ring product per point.  The series reference evaluates the level-m
series at every Teichmueller point of the torus.  The oracles must agree with
them exactly (the arithmetic is exact mod p^M, so any difference is a bug, not
rounding).
"""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from dworksum import dwork, finitefield as ff, lfunction as lf, padic
from dworksum.cli import JobConfig
from dworksum.errors import BudgetExceeded, LevelTooLarge, NotAField
from dworksum.polytope import ExponentConfig, newton_data

ROOT = Path(__file__).resolve().parent.parent


def reference_characters(config, a_residues, twist, m, M):
    """S_m point by point: sum over u in (F_{q^m}^*)^n of
    teich(u)^shift(m) theta(1)^Tr(sum_j a_j u^A_j), restricted to R(p, f, M)."""
    base = a_residues[0].params
    p, f = base.p, base.degree
    big_field = ff.FqParams(p, f * m)
    big_ring = padic.ring_create(p, f * m, M)
    gen = ff.multiplicative_generator(big_field)
    L = big_field.q - 1
    teich_pow = [big_ring.one()]
    tg = padic.teichmueller(gen, big_ring)
    gen_pows = [big_field.one()]
    for _ in range(L - 1):
        teich_pow.append(teich_pow[-1] * tg)
        gen_pows.append(gen_pows[-1] * gen)
    th = padic.ring_embed(padic.theta_one(padic.ring_create(p, 1, M)), big_ring)
    theta_pow = [big_ring.one()]
    for _ in range(p - 1):
        theta_pow.append(theta_pow[-1] * th)
    a_big = [ff.embed(a, big_field) for a in a_residues]
    tw = twist.shift(m)
    total = big_ring.zero()
    for logs in itertools.product(range(L), repeat=config.n):
        val = big_field.zero()
        for j in range(config.N):
            if not a_big[j].is_zero():
                e = sum(config.A[i][j] * logs[i] for i in range(config.n)) % L
                val = val + a_big[j] * gen_pows[e]
        k = sum(tw[i] * logs[i] for i in range(config.n)) % L
        total = total + teich_pow[k] * theta_pow[ff.absolute_trace_int(val)]
    return padic.ring_restrict(total, padic.ring_create(p, f, M))


def reference_series(config, a_residues, twist, m, M, nd):
    """H_m summed point by point over the torus: at u = g^l the value
    sum_e c_e teich(g)^(e . l) in R(p, f m, M), summed over every l and
    restricted to R(p, f, M)."""
    base = a_residues[0].params
    p, f = base.p, base.degree
    base_ring = padic.ring_create(p, f, M)
    big_field = ff.FqParams(p, f * m)
    big_ring = padic.ring_create(p, f * m, M)
    L = big_field.q - 1
    tg = padic.teichmueller(ff.multiplicative_generator(big_field), big_ring)
    teich_pow = [big_ring.one()]
    for _ in range(L - 1):
        teich_pow.append(teich_pow[-1] * tg)
    lifts = [padic.teichmueller(a, base_ring) for a in a_residues]
    series = dwork.h_series(lifts, twist, m, nd)
    exps = series.exponents
    coeffs = np.array(
        [padic.ring_embed(base_ring.from_coords(c), big_ring).coords
         for c in series.coeffs],
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
    return padic.ring_restrict(total, base_ring)


def random_config(rng, n, N):
    while True:
        try:
            return ExponentConfig(
                [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)]
            )
        except Exception:
            continue


def random_case(rng, p, f):
    n = rng.choice((1, 2))
    N = rng.randint(n, 3)
    config = random_config(rng, n, N)
    q = p**f
    F = ff.FqParams(p, f)
    units = [x for x in F.all_elements() if not x.is_zero()]
    style = rng.choice(("units", "some zero", "all zero"))
    if style == "all zero":
        a = [F.zero()] * N
    else:
        a = [rng.choice(units) for _ in range(N)]
        if style == "some zero":
            a[rng.randrange(N)] = F.zero()
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
                got, prec = lf.sums_oracle_characters(config, a, twist, m, M)
                want = reference_characters(config, a, twist, m, M)
                assert got == want, (p, f, config, a, twist.k, m, M)
                assert prec == M
                checked += 1
    assert checked >= 20


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


def test_hyp_table_matches_per_point_reference():
    # every entry of the batched table against the literal torus sum
    rng = random.Random(20240808)
    for p, f, n, N in HYP_CASES:
        config, twist, F, M = hyp_case(rng, p, f, n, N)
        table = lf.hyp_table(config, twist, F, M)
        assert len(table) == F.q**N
        for x in itertools.product(list(F.all_elements()), repeat=N):
            want = reference_characters(config, list(x), twist, 1, M)
            assert table[tuple(e.coeffs for e in x)] == want, (
                p, f, config.A, [e.coeffs for e in x], twist.k, M
            )


def test_character_values_independent_of_block_size(monkeypatch):
    # rows and torus points split across blocks give the same values
    rng = random.Random(11)
    cases = [hyp_case(rng, *case) for case in HYP_CASES]

    def values():
        out = []
        for config, twist, F, M in cases:
            out.append(lf.hyp_table(config, twist, F, M))
            a = [F.one()] * (config.N - 1) + [F.zero()]
            for m in (1, 2):
                if (F.q**m - 1) ** config.n <= 700:
                    out.append(lf.sums_oracle_characters(config, a, twist, m, M))
        return out

    want = values()
    for block in (7, 1):
        monkeypatch.setattr(lf, "_BLOCK", block)
        assert values() == want, block


def test_hyp_entry_at_the_job_coefficients_is_the_level_one_sum():
    jobs = sorted((ROOT / "jobs").glob("*.json"))
    jobs.append(ROOT / "bench" / "jobs" / "hyp_twist_p5f2.json")
    for path in jobs:
        job = JobConfig(json.loads(path.read_text()))
        table = lf.hyp_table(job.config, job.twist, job.field, job.M)
        S, _ = lf.sums_oracle_characters(
            job.config, job.a_residues, job.twist, 1, job.M
        )
        assert table[tuple(a.coeffs for a in job.a_residues)] == S, path.name
    rng = random.Random(5)
    for p, f, n, N in HYP_CASES:
        config, twist, F, M = hyp_case(rng, p, f, n, N)
        a = [rng.choice(list(F.all_elements())) for _ in range(N)]
        table = lf.hyp_table(config, twist, F, M)
        S, _ = lf.sums_oracle_characters(config, a, twist, 1, M)
        assert table[tuple(e.coeffs for e in a)] == S


def test_series_oracle_matches_characters_on_random_twists():
    rng = random.Random(7)
    for p, A in [(3, [[1, -1]]), (5, [[1]]), (3, [[1, 0, 1], [0, 1, 1]])]:
        config = ExponentConfig(A)
        nd = newton_data(config)
        F = ff.FqParams(p, 1)
        a = [F.from_int(rng.randrange(1, p)) for _ in range(config.N)]
        k = [0] * config.n if config.n > 1 else [-rng.randrange(p - 1)]
        twist = dwork.TwistData(config, k, p)
        if not dwork.twist_validate(twist, nd):
            continue
        Sc, _ = lf.sums_oracle_characters(config, a, twist, 1, 4)
        Ss, _ = lf.sums_oracle_series(config, a, twist, 1, 4, nd)
        assert Sc == Ss == reference_characters(config, a, twist, 1, 4)


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
        units = [x for x in F.all_elements() if not x.is_zero()]
        a = [rng.choice(units) for _ in range(config.N)]
        if with_zero:
            a[rng.randrange(config.N)] = F.zero()
        twist = dwork.TwistData(
            config, [rng.randrange(1, q - 1) for _ in range(config.n)], q
        )
        zero_column = zero_column or any(x.is_zero() for x in a)
        nonzero_twist = nonzero_twist or any(twist.k)
        for m in levels:
            got, prec = lf.sums_oracle_series(config, a, twist, m, M, nd)
            assert got == reference_series(config, a, twist, m, M, nd), (
                p, f, A, [x.coeffs for x in a], twist.k, m, M
            )
            assert prec == M
    assert zero_column and nonzero_twist


def test_level_table_contents():
    # the doubling walks against one product per power, including tables
    # whose L is not a power of two
    for p, s, M in [(5, 2, 3), (3, 1, 3), (3, 5, 2), (5, 3, 2), (7, 2, 2)]:
        tab = lf.level_table(p, s, M)
        L = p**s - 1
        assert tab.L == L and tab.teich.shape == (L, tab.ring.blow)
        assert (tab.log >= 0).sum() == L and tab.log[0] == -1
        assert tab.log_of(tab.field.zero()) == L
        g = ff.multiplicative_generator(tab.field)
        x = tab.field.one()
        for e in range(L):
            assert tab.log_of(x) == e
            assert tab.trace[e] == ff.absolute_trace_int(x)
            assert tab.ring.from_coords(tab.teich[e]) == padic.teichmueller(
                x, tab.ring
            )
            x = x * g
        th = padic.ring_embed(padic.theta_one(padic.ring_create(p, 1, M)), tab.ring)
        blow = tab.ring.blow
        assert tab.theta_rep.shape == (p * blow, blow)
        for c in range(p):
            block = tab.theta_rep[c * blow:(c + 1) * blow]
            assert tab.ring.from_coords(block[0]) == th**c
            assert (block == tab.ring.reg_rep((th**c).coords).T).all()


def test_non_generator_makes_the_oracle_raise(monkeypatch):
    config = ExponentConfig([[1]])
    F = ff.FqParams(5, 1)
    twist = dwork.TwistData(config, [0], 5)
    # 4 has order 2 in F_5^*: its powers miss half the torus
    monkeypatch.setattr(ff, "multiplicative_generator", lambda field: field.from_int(4))
    lf.level_table.cache_clear()
    try:
        with pytest.raises(NotAField):
            lf.sums_oracle_characters(config, [F.one()], twist, 1, 3)
    finally:
        lf.level_table.cache_clear()


def test_reducible_modulus_table_raises():
    # F_3[b]/(b^2 - 1) = F_3 x F_3 is not a field: no element has L = 8 powers
    ring = padic.ring_create(3, 2, 3)
    fake = ff.FqParams(3, 2)
    fake.modulus = (2, 0, 1)
    for cand in ff.enumerate_units(fake):
        with pytest.raises(NotAField):
            lf.LevelTable(fake, ring, cand)
    # the message names the first zero or repeated power: b^2 = 0 in
    # F_3[b]/(b^2), and 4 has order 2 in F_5^*
    nil = ff.FqParams(3, 2)
    nil.modulus = (0, 0, 1)
    with pytest.raises(NotAField, match="only 2 < 8 distinct powers"):
        lf.LevelTable(nil, ring, nil.gen())
    F5 = ff.FqParams(5, 1)
    with pytest.raises(NotAField, match="only 2 < 4 distinct powers"):
        lf.LevelTable(F5, padic.ring_create(5, 1, 3), F5.from_int(4))


def test_characters_at_degree_six():
    # F_{3^6} is the first level whose modulus needed Rabin's gcd condition;
    # both an f = 2 embedding (F_9 -> F_729) and f = 1 at m = 6 must work
    F9 = ff.FqParams(3, 2)
    config = ExponentConfig([[1, -1]])
    twist = dwork.TwistData(config, [0], 9)
    a = [F9.one(), F9.gen()]
    got, _ = lf.sums_oracle_characters(config, a, twist, 3, 3)
    assert got == reference_characters(config, a, twist, 3, 3)
    F3 = ff.FqParams(3, 1)
    segment = ExponentConfig([[1]])
    flat = dwork.TwistData(segment, [0], 3)
    S, _ = lf.sums_oracle_characters(segment, [F3.one()], flat, 6, 3)
    assert S == padic.ring_create(3, 1, 3).from_int(-1)


def test_level_budget_admits_measured_levels_and_refuses_the_rest():
    # A = I_3, p = 5 at level 4: 624^3 points, counted in about 30 s
    lf.require_level_budget(5, 1, 4, 3)
    # p = 13, n = 1 at level 5: a table of 22.5 M coordinates
    lf.require_level_budget(13, 1, 5, 1)
    with pytest.raises(BudgetExceeded, match=f"level 4 needs {2400**3} torus"):
        lf.require_level_budget(7, 1, 4, 3)
    # n = 1 keeps the torus small but not the table: L = 1021^2 - 1 rows
    # of blow = 2040 coordinates
    with pytest.raises(BudgetExceeded, match="level 1 needs a table of"):
        lf.require_level_budget(1021, 2, 1, 1)
    with pytest.raises(LevelTooLarge, match="level 7 exceeds the budget 6"):
        lf.require_level_budget(3, 1, 7, 1)
