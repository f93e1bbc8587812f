"""The degree law of ``check`` on the operator route against the sums route.

``check`` recognizes L on the operator's characteristic series, and
``lfunction`` on the series of the character sums at levels 1..volume + 3.
By the Dwork trace formula both are the same L.  On a seeded sweep over
p <= 7, f <= 2, n <= 2, twists and zero coefficients, ``check`` completes
or refuses by budget (exit 4), and wherever the sums route is within its
budget and the sweep's bound the two series agree through T^(volume + 3),
the operator's at no less precision.  So the two recognitions agree on
nondegenerate jobs, and on degenerate ones the operator's may reject a tail
that the sums' lower precision reads as zero, never the reverse.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dworksum import cli, dwork, lfunction as lf
from dworksum.errors import BudgetExceeded, LevelTooLarge, ValidationError

# torus points above which the sweep runs neither the sums route at its top
# level nor the nondegeneracy walk at s = 2: the budget allows 2^28, about
# 5 s of counting per case
SWEEP_POINTS = 1 << 20


@st.composite
def jobs(draw):
    """A job dict with full row rank, a twist in the cone (else none),
    volume <= 4 and M' >= 1."""
    p = draw(st.sampled_from((3, 5, 7)))
    f = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 2))
    N = draw(st.integers(n, n + 1))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=N, max_size=N),
                      min_size=n, max_size=n))
    k = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    a = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=f, max_size=f),
                      min_size=N, max_size=N))
    m_max = draw(st.integers(1, 2))
    M = draw(st.integers(3 if m_max == 1 else 4, 5))
    s_max = 2 if (p ** (2 * f) - 1) ** n <= SWEEP_POINTS else 1
    raw = {"p": p, "f": f, "A": A, "gamma_k": k, "a": a,
           "precision": {"M": M, "m_max": m_max, "s_max": s_max}}
    try:
        cli.JobConfig(raw)
    except ValidationError as e:
        # a twist outside the cone falls back to none
        assume(str(e).startswith("gamma_k"))
        raw["gamma_k"] = [0] * n
    try:
        job = cli.JobConfig(raw)
    except ValidationError:
        assume(False)
    assume(job.volume <= 4)
    return raw


def sums_route_series(job: cli.JobConfig):
    """The sums-side L series to T^(volume + 3), as lfunction builds it, or
    None when its top level is over the budget or the sweep's bound."""
    order = max(job.m_max, job.volume + 3)
    try:
        lf.require_level_budget(job.p, job.f, order, job.config.n)
    except (BudgetExceeded, LevelTooLarge):
        return None
    if job.torus_points(order) > SWEEP_POINTS:
        return None
    sums = [
        lf.sums_oracle_characters(
            job.config, job.field, job.a_residues, job.twist, m, job.M
        )
        for m in range(1, order + 1)
    ]
    return lf.l_series_from_sums(sums, order).truncate(job.volume + 3)


def recognizes(L: lf.PowerSeriesT, job: cli.JobConfig) -> bool:
    rec = lf.rational_recognition(L, job.volume, job.config.n)
    return isinstance(rec, lf.LPolynomial)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(raw=jobs())
# two-variable nondegenerate jobs with the sums route in reach, which the
# seeded draws miss: the square with a twist, and Kloosterman in two
# variables up to level 6
@example(raw={"p": 3, "A": [[1, 0, 1], [0, 1, 1]], "gamma_k": [-1, -2],
              "a": [1, 1, 2], "precision": {"M": 4, "m_max": 2, "s_max": 2}})
@example(raw={"p": 3, "A": [[1, 0, -1], [0, 1, -1]], "gamma_k": [0, 0],
              "a": [1, 1, 2], "precision": {"M": 4, "m_max": 1, "s_max": 2}})
def test_check_degree_law_against_the_sums_route(raw):
    try:
        result = cli.run("check", raw)["result"]
    except (BudgetExceeded, LevelTooLarge):
        return  # exit 4
    (law,) = [c for c in result["checks"] if c["name"].startswith("degree_law")]
    recognized = law["pass"] == (law["name"] == "degree_law")
    job = cli.JobConfig(raw)
    L_sums = sums_route_series(job)
    if L_sums is None:
        return
    need = job.volume + 3
    P, P_prec = dwork.char_series(cli._operator(job), max_degree=need)
    L_char = lf.l_from_charseries(P, P_prec, job.config.n, job.q, need)
    assert recognized == recognizes(L_char, job)
    # one L through T^(volume + 3), the operator's at no less precision
    assert all(pc >= ps for pc, ps in zip(L_char.precs, L_sums.precs))
    assert cli._routes_agree(L_sums, L_char, job.M)
    # a tail the operator reads as zero is zero at the sums' precision too;
    # the converse fails only where the sums' lower precision hides a
    # nonzero tail, which Adolphson-Sperber rule out when nondegenerate
    assert recognizes(L_sums, job) or not recognized
    if result["nondegenerate_up_to"] is not None:
        assert recognizes(L_sums, job) == recognized


def test_operator_precision_rejects_a_tail_the_sums_precision_hides():
    # F = 0 on the segment [0, 2] over F_3: L = (1 - T)/(1 - 3T), whose T^3
    # coefficient 27 - 9 = 18 has ord_3 2.  The sums route knows T^3 to
    # M - 1 = 2 digits (the division by 3 costs one) and reads it as zero;
    # the operator's series knows it to M = 3 digits and does not, so the
    # degenerate control of check holds
    raw = {"p": 3, "A": [[2]], "gamma_k": [0], "a": [0],
           "precision": {"M": 3, "m_max": 1}}
    job = cli.JobConfig(raw)
    assert recognizes(sums_route_series(job), job)
    result = cli.run("check", raw)["result"]
    assert result["nondegenerate_up_to"] is None
    assert result["all_pass"] is True
