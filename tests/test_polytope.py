import random
from fractions import Fraction
from math import comb

import pytest

from dworksum import finitefield as ff
from dworksum import gkz
from dworksum import lfunction as lf
from dworksum import polytope as pt
from dworksum.errors import RankDeficient
from fraction_lattice import points, weights
from hull_volume import normalized_volume
from integer_span import solve_integer
from simplicial_cone import cone_coordinates

A_SEGMENT = [[1]]
A_KLOOSTERMAN = [[1, -1]]
A_SQUARE = [[1, 0, 1], [0, 1, 1]]


def cfg(A):
    return pt.ExponentConfig(A)


def functionals(nd):
    """The facet functionals l_F avoiding the origin, as Fractions."""
    return [tuple(Fraction(x, nd.denom) for x in L) for L in nd.facet_rows]


def test_rank_validation():
    with pytest.raises(RankDeficient):
        pt.ExponentConfig([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        pt.ExponentConfig([[1, 2], [3]])


def test_newton_data_segment():
    nd = pt.newton_data(cfg(A_SEGMENT))
    assert functionals(nd) == [(Fraction(1),)]
    assert nd.denom == 1
    assert nd.cone_facets == [(1,)]
    assert nd.weight((3,)) == 3
    assert nd.weight((-1,)) is pt.OUTSIDE_CONE
    assert nd.weight((0,)) == 0


def test_newton_data_kloosterman():
    nd = pt.newton_data(cfg(A_KLOOSTERMAN))
    assert sorted(functionals(nd)) == [(Fraction(-1),), (Fraction(1),)]
    assert nd.denom == 1
    assert nd.cone_facets == []  # the cone is the whole line
    assert nd.weight((5,)) == 5
    assert nd.weight((-4,)) == 4


def test_newton_data_square():
    nd = pt.newton_data(cfg(A_SQUARE))
    assert sorted(functionals(nd)) == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]
    assert nd.denom == 1
    assert nd.weight((2, 3)) == 3
    assert nd.weight((0, 0)) == 0
    assert nd.weight((-1, 2)) is pt.OUTSIDE_CONE


def test_column_weights_at_most_one():
    # d(w_j) <= 1 always, with equality exactly when w_j lies on a facet
    # avoiding the origin (some functional takes the value 1 there)
    for A in (A_SEGMENT, A_KLOOSTERMAN, A_SQUARE, [[1, 2]], [[1, 1], [0, 2]]):
        config = cfg(A)
        nd = pt.newton_data(config)
        for w in config.columns:
            d = nd.weight(w)
            assert d is not pt.OUTSIDE_CONE and d <= 1
            on_facet = any(sum(l[i] * w[i] for i in range(config.n)) == 1
                           for l in functionals(nd))
            assert (d == 1) == on_facet


def test_weight_homogeneous_subadditive_and_denominator():
    for A in (A_SEGMENT, A_KLOOSTERMAN, A_SQUARE, [[2, 3]], [[1, 1], [0, 2]]):
        nd = pt.newton_data(cfg(A))
        pts = pt.enumerate_points(nd, 5)
        for w in points(pts):
            d = nd.weight(w)
            assert (d * nd.denom).denominator == 1
            for a in range(4):
                aw = tuple(a * x for x in w)
                assert nd.weight(aw) == a * d
        for w1 in points(pts)[:15]:
            for w2 in points(pts)[:15]:
                ws = tuple(a + b for a, b in zip(w1, w2))
                assert nd.weight(ws) <= nd.weight(w1) + nd.weight(w2)


def test_weight_against_lp_definition():
    # oracle: d(w) = inf{a : w in a*Delta} by checking rational feasibility of
    # membership in a*Delta via exhaustive vertex combinations (small configs)
    import itertools

    def in_dilate(w, verts, a):
        # w in a*conv(verts) iff w/a in conv(verts); test with exact LP by
        # enumerating barycentric combinations over vertex subsets
        if a == 0:
            return all(x == 0 for x in w)
        target = tuple(Fraction(x, 1) / a for x in w)
        n = len(target)
        for sub in itertools.combinations(verts, n + 1):
            lam = _barycentric(sub, target)
            if lam is not None:
                return True
        return False

    def _barycentric(sub, target):
        n = len(target)
        rows = [[Fraction(sub[j][i]) for j in range(n + 1)] for i in range(n)]
        rows.append([Fraction(1)] * (n + 1))
        rhs = [Fraction(x) for x in target] + [Fraction(1)]
        m = [row + [rhs[i]] for i, row in enumerate(rows)]
        cols = n + 1
        r = 0
        piv_cols = []
        for col in range(cols):
            piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = 1 / m[r][col]
            m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            piv_cols.append(col)
            r += 1
        for i in range(r, len(m)):
            if m[i][cols] != 0:
                return None
        lam = [Fraction(0)] * cols
        for i, col in enumerate(piv_cols):
            lam[col] = m[i][cols]
        if any(l < 0 for l in lam):
            return None
        return lam

    for A in (A_SEGMENT, A_KLOOSTERMAN, A_SQUARE):
        config = cfg(A)
        nd = pt.newton_data(config)
        verts = [tuple([0] * config.n)] + config.columns
        for w in points(pt.enumerate_points(nd, 3)):
            d = nd.weight(w)
            assert in_dilate(w, verts, d)
            if d > 0:
                smaller = d - Fraction(1, 2 * nd.denom)
                assert not in_dilate(w, verts, smaller)


def test_enumerate_examples():
    nd1 = pt.newton_data(cfg(A_SEGMENT))
    assert points(pt.enumerate_points(nd1, 3)) == [(0,), (1,), (2,), (3,)]
    nd2 = pt.newton_data(cfg(A_KLOOSTERMAN))
    pts2 = points(pt.enumerate_points(nd2, 2))
    assert sorted(pts2) == [(-2,), (-1,), (0,), (1,), (2,)]
    nd3 = pt.newton_data(cfg(A_SQUARE))
    pts3 = points(pt.enumerate_points(nd3, 1))
    assert sorted(pts3) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_ordering_and_monotone():
    for A in (A_SEGMENT, A_KLOOSTERMAN, A_SQUARE):
        nd = pt.newton_data(cfg(A))
        prev = -1
        for D in range(6):
            pts = pt.enumerate_points(nd, D)
            assert len(pts) > prev
            prev = len(pts)
            assert weights(pts) == sorted(weights(pts))
            assert len(set(points(pts))) == len(pts)
    ndk = pt.newton_data(cfg(A_KLOOSTERMAN))
    for D in range(6):
        assert len(pt.enumerate_points(ndk, D)) == 2 * D + 1


def _combine(columns, k):
    return tuple(sum(kj * c[i] for kj, c in zip(k, columns))
                 for i in range(len(columns[0])))


def test_solve_integer_skips_vanishing_rows():
    # (0, 1) = 1 * (0, 1): a zero first row must not end the reduction
    k = solve_integer([(0, 1), (0, 2)], (0, 1))
    assert k is not None and _combine([(0, 1), (0, 2)], k) == (0, 1)
    assert solve_integer([(0, 1), (0, 2)], (1, 1)) is None
    assert solve_integer([(0, 2), (0, 4)], (0, 1)) is None


def test_solve_integer_on_relations_in_a_coordinate_plane():
    # every relation of [[1,0,0],[0,1,1]] has k_1 = 0, so the kernel basis
    # handed to solve_integer (as in test_gkz) starts with a zero row
    basis = gkz.lattice_kernel(cfg([[1, 0, 0], [0, 1, 1]]))
    assert basis.vectors == [(0, 1, -1)]
    for c in range(-3, 4):
        assert solve_integer(basis.vectors, (0, c, -c)) == [c]


def test_solve_integer_finds_every_integer_combination():
    # rank-deficient systems: a row is zero or a multiple of an earlier one
    rng = random.Random(3)
    for _ in range(200):
        n, N = rng.randint(2, 3), rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)]
        i = rng.randrange(n - 1)
        rows[i] = [rng.randint(-2, 2) * x for x in rows[i + 1]]
        columns = [tuple(r[j] for r in rows) for j in range(N)]
        target = _combine(columns, [rng.randint(-3, 3) for _ in range(N)])
        k = solve_integer(columns, target)
        assert k is not None and _combine(columns, k) == target


def ehrhart_volume(config):
    """Oracle: n! vol via the n-th finite difference of D -> #(D*Delta cap Z^n).

    Uses only enumerate_points: D*Delta equals the weight<=D slab of the cone
    intersected with the hull scaling, because Delta lies inside the cone.
    """
    nd = pt.newton_data(config)
    n = config.n
    counts = [len(pt.enumerate_points(nd, k)) for k in range(n + 1)]
    return sum((-1) ** (n - i) * comb(n, i) * counts[i] for i in range(n + 1))


@pytest.mark.parametrize(
    "A,vol",
    [
        (A_SEGMENT, 1),
        (A_KLOOSTERMAN, 2),
        (A_SQUARE, 2),
        ([[1, 2]], 2),
        ([[1, 1], [0, 2]], 2),
        ([[1, 0, -1], [0, 1, -1]], 3),
    ],
)
def test_normalized_volume(A, vol):
    config = cfg(A)
    assert normalized_volume(pt.newton_data(config)) == vol
    assert ehrhart_volume(config) == vol


def test_simplicial_decomposition_basics():
    d1 = pt.simplicial_decomposition(pt.newton_data(cfg(A_SEGMENT)))
    assert len(d1.simplices) == 1 and d1.simplices[0].cell_points == [(0,)]
    d2 = pt.simplicial_decomposition(pt.newton_data(cfg(A_KLOOSTERMAN)))
    assert len(d2.simplices) == 2
    assert all(s.cell_points == [(0,)] for s in d2.simplices)
    d3 = pt.simplicial_decomposition(pt.newton_data(cfg(A_SQUARE)))
    assert sorted(tuple(sorted(s.vertices)) for s in d3.simplices) == [
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
    ]
    assert all(s.cell_points == [(0, 0)] for s in d3.simplices)


def test_decomposition_cell_size_cover_and_weight_additivity():
    for A in (A_SEGMENT, A_KLOOSTERMAN, A_SQUARE, [[1, 2]], [[1, 1], [0, 2]]):
        config = cfg(A)
        nd = pt.newton_data(config)
        dec = pt.simplicial_decomposition(nd)
        assert sum(s.det for s in dec.simplices) == normalized_volume(nd)
        for s in dec.simplices:
            assert len(s.cell_points) == s.det
        for w in points(pt.enumerate_points(nd, 4)):
            assert any(cone_coordinates(s, w) is not None for s in dec.simplices)
        # weight is additive inside each simplicial cone
        for s in dec.simplices:
            for u in s.cell_points:
                du = nd.weight(u)
                for v in [(1,) * config.n, (2, 1)[: config.n]]:
                    shifted = tuple(
                        u[i] + sum(v[j] * s.vertices[j][i] for j in range(config.n))
                        for i in range(config.n)
                    )
                    dg = sum(v[j] * nd.weight(s.vertices[j]) for j in range(config.n))
                    assert nd.weight(shifted) == du + dg


def test_unique_cell_plus_monoid_decomposition():
    # inside one simplicial cone every lattice point is cell point + generator sum
    config = cfg(A_SQUARE)
    nd = pt.newton_data(config)
    dec = pt.simplicial_decomposition(nd)
    for w in points(pt.enumerate_points(nd, 5)):
        hits = 0
        for s in dec.simplices:
            c = cone_coordinates(s, w)
            if c is None:
                continue
            frac = tuple(ci - int(ci) for ci in c)
            b = tuple(
                w[i]
                - sum(int(c[j]) * s.vertices[j][i] for j in range(config.n))
                for i in range(config.n)
            )
            assert b in s.cell_points
            hits += 1
        assert hits >= 1


def test_faces_off_origin():
    ndk = pt.newton_data(cfg(A_KLOOSTERMAN))
    assert ndk.faces_off_origin() == [(0,), (1,)]
    nds = pt.newton_data(cfg(A_SQUARE))
    assert nds.faces_off_origin() == [(0,), (0, 2), (1,), (1, 2), (2,)]


def test_nondegeneracy_check():
    F5 = ff.FqParams(5, 1)
    c1 = cfg(A_SEGMENT)
    r = lf.nondegeneracy_check(pt.newton_data(c1), F5, [(1,)], 2)
    assert isinstance(r, lf.NondegenerateUpTo) and r.s_max == 2
    # single monomials with unit coefficients never have vanishing torus derivative
    ck = cfg(A_KLOOSTERMAN)
    rk = lf.nondegeneracy_check(pt.newton_data(ck), F5, [(1,), (1,)], 2)
    assert isinstance(rk, lf.NondegenerateUpTo)
    F3 = ff.FqParams(3, 1)
    cs = cfg(A_SQUARE)
    rs = lf.nondegeneracy_check(pt.newton_data(cs), F3, [(1,)] * 3, 2)
    assert isinstance(rs, lf.NondegenerateUpTo)
    # two-column edge face {(1,0),(1,2)}: its second toric derivative is a
    # single monomial, so unit coefficients stay nondegenerate
    c_edge = cfg([[1, 1], [0, 2]])
    r_edge = lf.nondegeneracy_check(pt.newton_data(c_edge), F3, [(1,), (1,)], 1)
    assert isinstance(r_edge, lf.NondegenerateUpTo)


def test_degenerate_witness_found():
    F3 = ff.FqParams(3, 1)
    # all-zero coefficients: every face polynomial vanishes identically
    r0 = lf.nondegeneracy_check(pt.newton_data(cfg(A_SEGMENT)), F3, [(0,)], 1)
    assert isinstance(r0, lf.DegenerateWitness)
    assert r0.face == (0,)
    # duplicated column: the vertex face carries (a_1 + a_2) t^2, which
    # vanishes identically for a = (1, 2) over F_3
    c_dup = cfg([[2, 2]])
    r = lf.nondegeneracy_check(pt.newton_data(c_dup), F3, [(1,), (2,)], 1)
    assert isinstance(r, lf.DegenerateWitness)
    assert r.face == (0, 1)
