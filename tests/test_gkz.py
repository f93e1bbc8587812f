import itertools
from fractions import Fraction

import pytest

from dworksum import gkz
from dworksum.errors import NotARelation
from dworksum.polytope import ExponentConfig
from integer_span import solve_integer


def test_lattice_kernel_examples():
    b1 = gkz.lattice_kernel(ExponentConfig([[1, 1]]))
    assert b1.vectors == [(1, -1)]
    b2 = gkz.lattice_kernel(ExponentConfig([[1, -1]]))
    assert b2.vectors == [(1, 1)]
    b3 = gkz.lattice_kernel(ExponentConfig([[1, 1, 1], [0, 1, 2]]))
    assert b3.vectors == [(1, -2, 1)]
    b4 = gkz.lattice_kernel(ExponentConfig([[1]]))
    assert b4.vectors == []


def test_lattice_kernel_relations_and_count():
    for A in ([[1, -1]], [[1, 0, 1], [0, 1, 1]], [[1, 1, 1], [0, 1, 2]],
              [[2, 3, 5, 7]], [[1, 0, 2, -1], [0, 1, 1, 1]]):
        config = ExponentConfig(A)
        basis = gkz.lattice_kernel(config)
        assert len(basis) == config.N - config.n
        for lam in basis:
            assert all(
                sum(lam[j] * config.columns[j][i] for j in range(config.N)) == 0
                for i in range(config.n)
            )


def test_lattice_kernel_saturated():
    # every small relation is an integer combination of the basis
    for A in ([[1, -1]], [[1, 0, 1], [0, 1, 1]], [[1, 1, 1], [0, 1, 2]],
              [[2, 4, 1]]):
        config = ExponentConfig(A)
        basis = gkz.lattice_kernel(config)
        cols = [tuple(v[i] for v in basis.vectors) for i in range(config.N)]
        for lam in itertools.product(range(-3, 4), repeat=config.N):
            if any(
                sum(lam[j] * config.columns[j][i] for j in range(config.N))
                for i in range(config.n)
            ):
                continue
            if not any(lam):
                continue
            assert basis.vectors and solve_integer(basis.vectors, lam) is not None


def test_box_operator():
    config = ExponentConfig([[1, 1, 1], [0, 1, 2]])
    box = gkz.BoxOperator(config, (1, -2, 1))
    assert box.plus == (1, 0, 1)
    assert box.minus == (0, 2, 0)
    zero = gkz.BoxOperator(config, (0, 0, 0))
    assert zero.is_zero()
    with pytest.raises(NotARelation):
        gkz.BoxOperator(config, (1, 0, 0))
    ck = ExponentConfig([[1, -1]])
    bk = gkz.BoxOperator(ck, (1, 1))
    assert bk.plus == (1, 1) and bk.minus == (0, 0)
    assert bk.render().endswith("- 1")


def test_phi_image():
    # phi(d_j / pi) = t^(w_j): pushed through phi, the Euler operator
    # E_(i, gamma) applied to 1 is the torus operator F_(i, gamma) on 1,
    # gamma_i + pi sum_j w_ij x_j t^(w_j)
    for A in ([[1, -1]], [[1, 0, 1], [0, 1, 1]], [[1, 1, 1], [0, 1, 2]]):
        config = ExponentConfig(A)
        assert gkz.phi_image(config, (0,) * config.N) == (0,) * config.n
        for j in range(config.N):
            v = tuple(1 if t == j else 0 for t in range(config.N))
            assert gkz.phi_image(config, v) == config.columns[j]
    config = ExponentConfig([[1, 1, 1], [0, 1, 2]])
    assert gkz.phi_image(config, (2, 1, 0)) == (3, 1)


def test_phi_kills_every_box():
    for A in ([[1, -1]], [[1, 0, 1], [0, 1, 1]], [[1, 1, 1], [0, 1, 2]],
              [[2, 3, 5, 7]], [[1, 0, 2, -1], [0, 1, 1, 1]]):
        config = ExponentConfig(A)
        for lam in gkz.lattice_kernel(config):
            assert gkz.phi_kills_box(config, gkz.BoxOperator(config, lam))
    # non-relations have nonzero phi image
    config = ExponentConfig([[1, 1]])
    image = gkz.phi_operator_image(config, {(1, 0): 1, (0, 2): -1})
    assert image == {(1,): 1, (2,): -1}


def test_emit_system_shapes():
    sys_k = gkz.emit_system(ExponentConfig([[1, -1]]), [Fraction(0)])
    assert len(sys_k.euler) == 1 and len(sys_k.boxes) == 1
    d = sys_k.as_dict()
    assert d["euler"][0]["row"] == [1, -1]
    assert d["box"][0]["lambda"] == [1, 1]
    assert d["lattice_basis"] == [[1, 1]]
    lines = sys_k.render()
    assert len(lines) == 2

    sys_1 = gkz.emit_system(ExponentConfig([[1]]), [Fraction(1, 2)])
    assert len(sys_1.euler) == 1 and len(sys_1.boxes) == 0

    sys_sq = gkz.emit_system(
        ExponentConfig([[1, 0, 1], [0, 1, 1]]), [Fraction(0), Fraction(0)]
    )
    assert len(sys_sq.euler) == 2 and len(sys_sq.boxes) == 1
