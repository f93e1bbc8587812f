"""R's product, built by padic from its two relations, against the
convolution of ``ring_reference``: element products, regular
representations, the row-layout block encoding, the diagonal product sum
and truncated series products agree exactly on a seeded sweep over
(p, s, M) with p^M < 2^34, and on sampled rows of rings with blow up to
262."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ring_reference as ref
from dworksum import lfunction as lf, padic

SWEEP = dict(deadline=None, derandomize=True, database=None,
             suppress_health_check=[HealthCheck.too_slow])

RINGS = [(p, s) for p in (3, 5, 7, 11, 13) for s in (1, 2, 3, 4)] + [(3, 10)]


@st.composite
def rings(draw):
    p, s = draw(st.sampled_from(RINGS))
    top = 1
    while p ** (top + 1) < 2**34:
        top += 1
    return padic.ring_create(p, s, draw(st.integers(1, top)))


def residues(rng, params, shape):
    """Residues mod p^M with about a third of them zero."""
    x = rng.integers(0, params.pM, size=(*shape, params.blow))
    return np.where(rng.random(x.shape) < 0.3, 0, x)


@settings(max_examples=60, **SWEEP)
@given(params=rings(), seed=st.integers(0, 2**32 - 1))
def test_product_matches_reference(params, seed):
    rng = np.random.default_rng(seed)
    blow, pM = params.blow, params.pM
    x, y = (tuple(v.tolist()) for v in residues(rng, params, (2,)))
    assert (params.from_coords(x) * params.from_coords(y)).coords == ref.mul(params, x, y)
    assert (params.rep(x) == ref.rep(params, x)).all()
    # on the pi^0 row, rep acts on every pi-row through one s x s block
    s = params.s
    u = x[:s] + (0,) * (blow - s)
    block = params.unramified_rep(np.array(u[:s]))
    assert (np.kron(np.eye(params.p - 1, dtype=np.int64), block) == ref.rep(params, u)).all()

    n = int(rng.integers(1, 3))
    A, B = residues(rng, params, (n, n)), residues(rng, params, (n, n))
    blocks = params.rep(A)
    encoded = padic.encode_ring_matrix(params, A)
    for u in range(n):
        for v in range(n):
            want = ref.rep(params, tuple(A[u, v].tolist()))
            assert (blocks[u, v] == want).all()
            assert (encoded[u * blow:(u + 1) * blow, v * blow:(v + 1) * blow] == want).all()

    total = [0] * blow
    for h in range(n):
        for u in range(n):
            prod = ref.mul(params, tuple(A[h, u].tolist()), tuple(B[u, h].tolist()))
            total = [(a + b) % pM for a, b in zip(total, prod)]
    assert padic.diagonal_product_sum(params, A, B).tolist() == total

    # a truncated series product is every b_j a_i at once, summed along i + j
    la, lb, order = (int(v) for v in rng.integers(1, 5, size=3))
    a, b = residues(rng, params, (la,)), residues(rng, params, (lb,))
    want = [[0] * blow for _ in range(order + 1)]
    for i in range(la):
        for j in range(min(lb, order + 1 - i)):
            prod = ref.mul(params, tuple(a[i].tolist()), tuple(b[j].tolist()))
            want[i + j] = [(u + v) % pM for u, v in zip(want[i + j], prod)]
    got = lf._mul_trunc(params, [params.from_coords(x) for x in a],
                        [params.from_coords(y) for y in b], order)
    assert [list(c.coords) for c in got] == want
    # and a series with constant term 1 times its truncated inverse is 1
    unit = [params.one()] + got[1:]
    inverse = lf._inv_trunc(params, unit, order)
    assert lf._mul_trunc(params, unit, inverse, order) == [params.one()] + [params.zero()] * order


# blow = 256, 262 and 104: a dense (blow, blow^2) table would hold 16.8 M,
# 18.0 M and 1.1 M coordinates
LARGE = [(257, 1, 2), (263, 1, 2), (53, 2, 3)]


@pytest.mark.parametrize("p,s,M", LARGE)
def test_product_at_large_blow(p, s, M):
    params = padic.ring_create(p, s, M)
    blow = params.blow
    rng = np.random.default_rng(p)
    x, y = (tuple(v.tolist()) for v in residues(rng, params, (2,)))
    assert (params.from_coords(x) * params.from_coords(y)).coords == ref.mul(params, x, y)
    # rows of rep(x) are e_a x: the first and last pi-rows, where every
    # block folds, and a sample between
    reps = params.rep(np.array([x, y]))
    rows = [0, s - 1, blow - s, blow - 1, *rng.choice(blow, 4, replace=False)]
    for a in rows:
        e = tuple(int(k == a) for k in range(blow))
        assert reps[0, a].tolist() == list(ref.mul(params, e, x))
        assert reps[1, a].tolist() == list(ref.mul(params, e, y))
    A, B = residues(rng, params, (1, 1)), residues(rng, params, (1, 1))
    want = ref.mul(params, tuple(A[0, 0].tolist()), tuple(B[0, 0].tolist()))
    assert padic.diagonal_product_sum(params, A, B).tolist() == list(want)
