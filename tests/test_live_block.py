"""The live block of the operator against the whole truncated matrix.

``dwork.DworkMatrix`` keeps only the basis points with c d(u + gamma) < M,
c = (p-1)(Q-1)/(p Q), and ``dwork.char_series`` stops at the vanishing
degree and reads each c_k on its prefix B_k.  All three rest on the Hodge
bound: a closed walk or principal minor through the points S has
ord_p >= c sum_{u in S} d(u + gamma).  If the bound or its strict
inequality were wrong, the traces and characteristic series below would
differ from the full-matrix reference (``full_operator``) in some
coordinate.  The reference alone cannot pin B_k: a scratch copy that shrank
every B_k by one or two grade units still matched it on all eleven jobs, so
the prefix sizes are also counted point by point (``brute_block_sizes``).  The integer-graded enumeration is held against the
Fraction walk (``fraction_lattice``) point for point and weight for weight.
"""

import json
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fraction_lattice
import full_operator
from dworksum import cli, dwork, padic
from dworksum.errors import BudgetExceeded, RankDeficient
from dworksum.polytope import ExponentConfig, enumerate_points, newton_data

ROOT = Path(__file__).resolve().parent.parent

IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

KL_F2 = {"p": 3, "f": 2, "A": [[1, -1]], "gamma_k": [0],
         "a": [[1, 0], [0, 1]], "precision": {"M": 5, "m_max": 2}}

JOBS = {
    "simplex3_p5": {"p": 5, "A": IDENTITY3, "gamma_k": [0, 0, 0],
                    "a": [1, 1, 1], "precision": {"M": 4, "m_max": 2}},
    "kl2var": {"p": 3, "A": [[1, 0, -1], [0, 1, -1]], "gamma_k": [0, 0],
               "a": [1, 1, 1], "precision": {"M": 4, "m_max": 2}},
    "I3_p7_M5": {"p": 7, "A": IDENTITY3, "gamma_k": [0, 0, 0],
                 "a": [1, 1, 1], "precision": {"M": 5, "m_max": 2}},
    "kl_f2": KL_F2,
    "kl_f2_twist": {**KL_F2, "gamma_k": [3]},
    "diamond": {"p": 3, "A": [[1, 0, -1, 0], [0, 1, 0, -1]],
                "gamma_k": [0, 0], "a": [1, 1, 1, 1], "precision": {"M": 4}},
    "x_plus_x3": {"p": 3, "A": [[1, 3]], "gamma_k": [0], "a": [1, 1],
                  "precision": {"M": 6}},
}
for _name in ("kloosterman_p5", "segment_p3", "square_p3", "twist_p5"):
    JOBS[_name] = json.loads((ROOT / "jobs" / f"{_name}.json").read_text())


def brute_block_sizes(dm, Q):
    """|B_k| for k = 1..vanishing_degree, point by point: u is in B_k when
    c (d(u + gamma) + the k - 1 smallest *other* weights) < M, in integer
    grades; each B_k must be a prefix of the basis."""
    p, M = dm.params.p, dm.params.M
    grades = [int(g) for g in dm.basis.grades]
    # c (sum of weights) < M  <=>  (p-1)(Q-1) (sum of grades) < M p Q denom
    bound = M * p * Q * dm.basis.denom
    sizes = []
    for k in range(1, dm.vanishing_degree + 1):
        members = [
            u for u, g in enumerate(grades)
            if (p - 1) * (Q - 1) * (g + sum(sorted(grades[:u] + grades[u + 1:])[:k - 1]))
            < bound
        ]
        assert members == list(range(len(members))), k
        sizes.append(len(members))
    return sizes


def assert_matches_full(dm, series, K):
    """Traces Tr(G^m), m = 1..3, and det(I - T G) through T^K of the live
    block equal the full-matrix reference coordinate for coordinate, and the
    per-degree prefixes B_k have the sizes counted point by point."""
    params = dm.params
    assert dm.block_sizes.tolist() == brute_block_sizes(dm, series.Q)
    full = full_operator.full_coords(series, dm.basis)
    assert (dm.coords == full[:dm.live, :dm.live]).all()
    for m in (1, 2, 3):
        got = dwork.trace(dm, m)[0]
        assert got.coords == full_operator.full_trace(params, full, m).coords, m
    got = [c.coords for c in dwork.char_series(dm, K)[0]]
    want = [c.coords for c in padic.char_series_prefix(params, full, K)]
    assert got == want


@pytest.mark.parametrize("name", sorted(JOBS))
def test_live_block_matches_full_matrix(name):
    # full degree up to dim 64 (as charpoly does up to its full cap), else
    # two degrees past the vanishing degree, so the zero padding is compared
    job = cli.JobConfig(JOBS[name])
    dm = dwork.build_operator(
        job.config, job.nd, job.a_lifts, job.twist, cap=job.operator_cap()
    )
    assert dm.vanishing_degree <= dm.live <= dm.dim
    K = dm.dim if dm.dim <= 64 else dm.vanishing_degree + 2
    assert_matches_full(dm, dwork.h_series(job.a_lifts, job.twist, 1, job.nd), K)


def test_empty_live_block():
    # a twisted job under cap 0 has no basis point: the gather, the traces
    # and the characteristic series run on an empty block
    job = cli.JobConfig(JOBS["twist_p5"])
    dm = dwork.build_operator(job.config, job.nd, job.a_lifts, job.twist, cap=0)
    params = dm.params
    assert (dm.dim, dm.live, dm.vanishing_degree) == (0, 0, 0)
    assert dm.coords.shape == (0, 0, params.blow)
    assert dm.block_sizes.tolist() == []
    assert dm.encoded().shape == (0, 0)
    assert [dwork.trace(dm, m)[0] for m in (1, 2, 3)] == [params.zero()] * 3
    assert dwork.char_series(dm)[0] == [params.one()]


def test_live_block_sizes():
    # square_p3 keeps 196 of its 289 points and kloosterman_p5 25 of 31;
    # det(I - T G) of square_p3 is 0 mod 3^6 from T^10 on
    sizes = {}
    for name in ("square_p3", "kloosterman_p5"):
        job = cli.JobConfig(JOBS[name])
        dm = dwork.build_operator(job.config, job.nd, job.a_lifts, job.twist)
        sizes[name] = (dm.live, dm.dim, dm.vanishing_degree)
    assert sizes["square_p3"][:2] == (196, 289)
    assert sizes["square_p3"][2] == 9
    assert sizes["kloosterman_p5"][:2] == (25, 31)


def test_square_block_sizes():
    # the prefixes that charpoly's eight degrees run on for square_p3
    job = cli.JobConfig(JOBS["square_p3"])
    dm = dwork.build_operator(job.config, job.nd, job.a_lifts, job.twist)
    assert dm.block_sizes.tolist() == [196, 196, 169, 144, 121, 81, 49, 25, 9]


@st.composite
def configurations(draw, max_n=2):
    """(p, f, config, nd, k) with full row rank and a twist in the cone."""
    p = draw(st.sampled_from((3, 5, 7)))
    f = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, max_n))
    N = draw(st.integers(n, n + 1))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=N, max_size=N),
                      min_size=n, max_size=n))
    try:
        config = ExponentConfig(A)
    except (RankDeficient, ValueError):
        assume(False)
    nd = newton_data(config)
    k = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    q = p**f
    if not dwork.twist_validate(dwork.TwistData(config, k, q), nd):
        k = (0,) * n
    return p, f, config, nd, k


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data(), case=configurations())
def test_live_block_sweep(data, case):
    # seeded sweep: p <= 7, f <= 2, n <= 2, twists, zero coefficients, the
    # level-1 and (for q <= 5) level-2 series, and a user cap D on both sides
    # of M/c, where c = (p-1)(q-1)/(p q) and M/c is the weight at which
    # basis points stop being live (Q = q^m in place of q at level m)
    p, f, config, nd, k = case
    q = p**f
    M = data.draw(st.integers(1, 3), "M")
    m = data.draw(st.sampled_from((1, 2) if q <= 5 else (1,)), "m")
    Q = q**m
    edge = Fraction(M * p * Q, (p - 1) * (Q - 1))
    D = data.draw(st.integers(max(0, floor(edge) - 2), ceil(edge) + 2), "D")
    params = padic.ring_create(p, f, M)
    units = [(x,) + (0,) * (f - 1) for x in range(p)] + (
        [(x, 1) for x in range(p)] if f == 2 else []
    )
    a_res = data.draw(
        st.lists(st.sampled_from(units), min_size=config.N, max_size=config.N), "a"
    )
    twist = dwork.TwistData(config, k, q)
    a_lifts = [padic.teichmueller(a, params) for a in a_res]
    basis = enumerate_points(nd, D, offset=twist.gamma)
    assume(len(basis) <= 120)
    try:
        with mock.patch.object(dwork, "TABLE_LIMIT", 2**20):
            series = dwork.h_series(a_lifts, twist, m, nd)
    except BudgetExceeded:
        assume(False)
    dm = dwork.DworkMatrix(series, basis, twist)
    assert dm.vanishing_degree <= dm.live <= dm.dim
    if D < edge:
        assert dm.live == dm.dim
    K = dm.dim if dm.dim <= 40 else dm.vanishing_degree + 2
    assert_matches_full(dm, series, K)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data(), case=configurations(max_n=3))
def test_integer_enumeration_matches_fraction_walk(data, case):
    # the integer grading against NewtonData.weight per point, with twisted
    # offsets k/(1 - q) (q up to 49) and fractional caps
    p, f, config, nd, k = case
    twist = dwork.TwistData(config, k, p**f)
    cap = Fraction(data.draw(st.integers(0, 12), "cap2"), 2)
    if config.n == 3:
        cap = min(cap, Fraction(3))
    got = enumerate_points(nd, cap, offset=twist.gamma)
    points, weights = fraction_lattice.reference_points(nd, cap, twist.gamma)
    assert fraction_lattice.points(got) == points
    assert fraction_lattice.weights(got) == weights
    assert len(got) == len(points)
    assert [Fraction(int(g), got.denom) for g in got.grades] == weights
