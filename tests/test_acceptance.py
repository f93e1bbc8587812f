"""Acceptance suite: the exit criteria, one test per criterion.

Each criterion prints one pass/fail line (visible with pytest -s); a test
only reaches its print statement after every assertion of the criterion has
held at the stated tolerance.  Comparison precision is M' = M - 3 digits
(m_max <= 3 on every configuration here), with zero tolerance beyond the
certified precision.
"""

from fractions import Fraction

import pytest

from dworksum import dwork, finitefield as ff, gkz, lfunction as lf, padic
from dworksum import polytope as pt
from dworksum.polytope import ExponentConfig, newton_data

# configuration matrix: (name, p, M, A, a, gamma_k, m_max)
CONFIGS = {
    "segment_p3": (3, 8, [[1]], [1], [0], 2),
    "kloosterman_p5": (5, 8, [[1, -1]], [1, 1], [0], 3),
    "square_p3": (3, 6, [[1, 0, 1], [0, 1, 1]], [1, 1, 1], [0, 0], 3),
    "twist_p5": (5, 8, [[1]], [1], [-1], 2),
}


class Run:
    """Everything the criteria need for one configuration, computed once."""

    def __init__(self, p, M, A, a_ints, k_vec, m_max, cap_bump=0, M_bump=0):
        self.p = p
        self.M = M + M_bump
        self.m_max = m_max
        self.params = padic.ring_create(p, 1, self.M)
        self.field = ff.FqParams(p, 1)
        self.config = ExponentConfig(A)
        self.nd = newton_data(self.config)
        self.twist = dwork.TwistData(self.config, k_vec, p)
        self.a_res = [self.field.from_int(x) for x in a_ints]
        self.a_lifts = [padic.teichmueller(r, self.params) for r in self.a_res]
        base_params = padic.ring_create(p, 1, M)
        cap = dwork.default_weight_cap(self.nd, self.twist, base_params) + cap_bump
        self.dm = dwork.build_operator(
            self.config, self.nd, self.a_lifts, self.twist, cap=cap
        )
        self.char_sums = [
            lf.sums_oracle_characters(
                self.config, self.a_res, self.twist, m, self.M
            )
            for m in range(1, m_max + 1)
        ]
        self.series_sums = [
            lf.sums_oracle_series(
                self.config, self.a_res, self.twist, m, self.M, self.nd
            )
            for m in (1, 2)
        ]
        self.traces = {m: dwork.trace(self.dm, m) for m in (1, 2)}
        self.L_sums = lf.l_series_from_sums(self.char_sums, m_max)
        P, P_prec = dwork.char_series(self.dm, max_degree=min(m_max, self.dm.dim))
        self.L_char = lf.l_from_charseries(
            P, P_prec, self.config.n, p, m_max
        )

    def scaled_trace(self, m):
        t, prec = self.traces[m]
        return t * ((self.p**m - 1) ** self.config.n), prec


_RUNS = {}


def run_for(name, cap_bump=0, M_bump=0):
    key = (name, cap_bump, M_bump)
    if key not in _RUNS:
        _RUNS[key] = Run(*CONFIGS[name], cap_bump=cap_bump, M_bump=M_bump)
    return _RUNS[key]


def digits(x, k):
    """The k reported digits of every coordinate: residues mod p^k."""
    pk = x.params.p**k
    return [c % pk for c in x.coords]


def congruent(x, y, k):
    return digits(x, k) == digits(y, k)


def mprime(name):
    return CONFIGS[name][1] - 3


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", list(CONFIGS))
def test_criterion_1_trace_formula(name):
    run = run_for(name)
    mp = mprime(name)
    assert mp >= run.M - 3
    for m in (1, 2):
        lhs, prec = run.scaled_trace(m)
        S, S_prec = run.char_sums[m - 1]
        assert prec >= mp and S_prec >= mp
        assert congruent(lhs, S, mp), f"{name} m={m}"
    print(f"criterion 1 [{name}]: PASS  (q^m-1)^n Tr(G^m) = S_m mod p^{mp}, m=1,2")


@pytest.mark.parametrize("name", list(CONFIGS))
def test_criterion_2_oracle_crosscheck(name):
    run = run_for(name)
    mp = mprime(name)
    for m in (1, 2):
        Sc, _ = run.char_sums[m - 1]
        Ss, _ = run.series_sums[m - 1]
        assert congruent(Sc, Ss, mp), f"{name} m={m}"
    print(f"criterion 2 [{name}]: PASS  character oracle = series oracle mod p^{mp}")


@pytest.mark.parametrize("name", list(CONFIGS))
def test_criterion_3_l_identity(name):
    run = run_for(name)
    mp = mprime(name)
    for k in range(run.m_max + 1):
        a, pa = run.L_sums.coeffs[k], run.L_sums.precs[k]
        b, pb = run.L_char.coeffs[k], run.L_char.precs[k]
        # M' was budgeted to absorb every division loss: certification must
        # reach it, and the coefficients must agree there
        assert pa >= mp and pb >= mp
        assert congruent(a, b, mp), f"{name} T^{k}"
    print(
        f"criterion 3 [{name}]: PASS  L from char series = L from sums "
        f"mod (p^{mp}, T^{run.m_max + 1})"
    )


def _recognized(run):
    need = pt.normalized_volume(run.config) + 3
    sums = list(run.char_sums)
    for m in range(len(sums) + 1, need + 1):
        sums.append(
            lf.sums_oracle_characters(run.config, run.a_res, run.twist, m, run.M)
        )
    L = lf.l_series_from_sums(sums, need)
    return lf.rational_recognition(L, pt.normalized_volume(run.config), run.config.n)


def test_criterion_4_degree_law():
    # Kloosterman: degree 2 polynomial, n! vol = 2
    runk = run_for("kloosterman_p5")
    mpk = mprime("kloosterman_p5")
    reck = _recognized(runk)
    assert isinstance(reck, lf.LPolynomial)
    assert reck.degree() == 2 == pt.normalized_volume(runk.config)
    assert all(p >= mpk for p in reck.precs)
    # segment: L = 1 - T exactly mod p^M'
    runs = run_for("segment_p3")
    mps = mprime("segment_p3")
    recs = _recognized(runs)
    assert isinstance(recs, lf.LPolynomial) and recs.degree() == 1
    assert congruent(recs.coeffs[0], runs.params.one(), mps)
    assert congruent(recs.coeffs[1], runs.params.from_int(-1), mps)
    print("criterion 4: PASS  degree law (kloosterman deg 2; segment L = 1 - T)")


def test_criterion_5_newton_polygon():
    run = run_for("kloosterman_p5")
    rec = _recognized(run)
    assert isinstance(rec, lf.LPolynomial)
    assert padic.pi_ord(rec.coeffs[1]).value == 0
    assert padic.pi_ord(rec.coeffs[2]).value == 1
    np_ = lf.newton_polygon(rec)
    assert np_.slope_list() == [Fraction(0), Fraction(1)]
    assert np_.flagged == []
    print("criterion 5: PASS  kloosterman p=5 Newton slopes {0, 1}")


def test_criterion_6_valuation_certificates():
    # digit-sum valuation of pi^m/m!, exhaustively against Legendre's formula
    for p in (3, 5, 7):
        for m in range(1, 1001):
            legendre = 0
            pk = p
            while pk <= m:
                legendre += m // pk
                pk *= p
            sg, got = padic.sigma_and_factorial_ord(m, p)
            assert got == Fraction(m, p - 1) - legendre
            assert sg == sum(int(d) for d in _base_digits(m, p))
    # splitting-coefficient floor for every computed coefficient up to i = 200
    for p in (3, 5, 7):
        params = padic.ring_create(p, 1, 10)
        coeffs = padic.splitting_coefficients(params, p, 200)
        floors = padic.splitting_floors(p, p, 200)
        for i, (c, floor) in enumerate(zip(coeffs, floors)):
            coarse = Fraction((p - 1) * i, p * p)
            assert floor >= coarse
            c = params.from_coords(c)
            assert padic.pi_ord(c).known_at_least(min(coarse, Fraction(10)))
    print("criterion 6: PASS  valuation certificates (sigma m<=1000; floors i<=200)")


def _base_digits(m, p):
    out = []
    while m:
        out.append(m % p)
        m //= p
    return out


def test_criterion_7_theta():
    for p in (3, 5, 7):
        params = padic.ring_create(p, 1, 8)
        th = padic.theta_one(params)
        assert th**p == params.one()
        assert padic.pi_ord(th - params.one()).value == Fraction(1, p - 1)
    print("criterion 7: PASS  theta(1)^p = 1 and ord(theta(1) - 1) = 1/(p-1)")


def test_criterion_8_gkz_presentation():
    for name in CONFIGS:
        p, M, A, a_ints, k_vec, m_max = CONFIGS[name]
        config = ExponentConfig(A)
        basis = gkz.lattice_kernel(config)
        for lam in basis:
            assert all(
                sum(lam[j] * config.columns[j][i] for j in range(config.N)) == 0
                for i in range(config.n)
            )
            assert gkz.phi_kills_box(config, gkz.box_operator(config, lam))
    system = gkz.emit_system(ExponentConfig([[1, -1]]), [Fraction(0)])
    assert len(system.euler) == 1 and len(system.boxes) == 1
    assert system.boxes[0].lam == (1, 1)
    print("criterion 8: PASS  GKZ presentation (relations, phi, emitted shape)")


@pytest.mark.parametrize("name", list(CONFIGS))
def test_criterion_9_stability(name):
    base = run_for(name)
    bumped = run_for(name, cap_bump=5, M_bump=2)
    mp = mprime(name)
    for m in (1, 2):
        t1, _ = base.scaled_trace(m)
        t2, _ = bumped.scaled_trace(m)
        assert digits(t1, mp) == digits(t2, mp), f"{name} trace m={m}"
    for k in range(base.m_max + 1):
        tol = int(min(Fraction(mp), base.L_sums.precs[k], bumped.L_sums.precs[k]))
        assert digits(base.L_sums.coeffs[k], tol) == \
            digits(bumped.L_sums.coeffs[k], tol)
        assert digits(base.L_char.coeffs[k], tol) == \
            digits(bumped.L_char.coeffs[k], tol), f"{name} T^{k}"
    print(f"criterion 9 [{name}]: PASS  (D+5, M+2) rerun reproduces digits at p^{mp}")


def test_criterion_10_degenerate_controls():
    for name, n in [("kloosterman_p5", 1), ("square_p3", 2)]:
        p, M, A, _, k_vec, m_max = CONFIGS[name]
        params = padic.ring_create(p, 1, M)
        field = ff.FqParams(p, 1)
        config = ExponentConfig(A)
        nd = newton_data(config)
        twist = dwork.TwistData(config, k_vec, p)
        a0 = [field.zero()] * config.N
        for m in (1, 2):
            S, _ = lf.sums_oracle_characters(config, a0, twist, m, M)
            assert S == params.from_int((p**m - 1) ** n)
        # operator side of the degenerate identity: trace is exactly 1
        lifts0 = [padic.teichmueller(r, params) for r in a0]
        dm = dwork.build_operator(config, nd, lifts0, twist)
        for m in (1, 2):
            t, _ = dwork.trace(dm, m)
            assert t == params.one()
        # rational recognition must refuse the expected degree n! vol
        vol = pt.normalized_volume(config)
        sums = [
            lf.sums_oracle_characters(config, a0, twist, m, M)
            for m in range(1, vol + 4)
        ]
        L = lf.l_series_from_sums(sums, vol + 3)
        rec = lf.rational_recognition(L, vol, config.n)
        assert isinstance(rec, lf.NotPolynomial)
    print("criterion 10: PASS  degenerate controls (exact S_m; NotPolynomial)")
