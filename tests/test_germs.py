from fractions import Fraction as F

import pytest

from logres.connections import LogConnection, LogDifferentials
from logres.errors import NonUnitValue
from logres.field import ONE, ZERO
from logres.germs import (DiffModuleGerm, GermMap, RF_ONE, RF_ZERO, RatFunc,
                          gauge_transform, germ_direct_sum, germ_dual,
                          germ_tensor, is_fuchsian, pullback_germ)
from logres.monoids import AffineMonoid, MonoidIdeal

from corpus import (random_fuchsian_germ, random_irregular_germ,
                    random_ratfunc, rng)
from oracles import saturation_is_fuchsian


def c(x):
    return RatFunc.const(x)


POLAR_RANK2 = DiffModuleGerm([[c(0), c(0)],
                             [RatFunc.t_power(-1) * c(-2), c(1)]])
IRREGULAR = DiffModuleGerm([[RatFunc.t_power(-1)]])


def test_ratfunc_arithmetic():
    f = RatFunc((ZERO, ONE, ONE))     # t + t^2
    g = RatFunc.t_power(1)
    assert (f / g).valuation() == 0
    assert (f * g).valuation() == 2
    assert f.theta_log() == (RatFunc((ONE, ONE + ONE)) / RatFunc((ONE, ONE)))
    assert RatFunc.t_power(-3).valuation() == -3
    assert RF_ZERO.valuation() is None


def test_constant_is_fuchsian():
    g = DiffModuleGerm([[c(3), c(1)], [c(0), c(F(1, 2))]])
    assert is_fuchsian(g)


def test_irregular_rank_one():
    assert not is_fuchsian(IRREGULAR)
    assert not saturation_is_fuchsian(IRREGULAR)


def test_named_polar_rank2_regular():
    # arises from diag(0,1) by the system-form frame change with
    # g = [[1,0],[t^-1,1]] (the plus-sign transport); regular either way
    from logres.germs import rf_inverse, rf_mat, rf_mat_add, rf_mat_mul, POLY_T

    base = rf_mat([[c(0), c(0)], [c(0), c(1)]])
    T = rf_mat([[RF_ONE, RF_ZERO], [RatFunc.t_power(-1), RF_ONE]])
    Tinv = rf_inverse(T)
    tp = RatFunc(POLY_T)
    Tprime = tuple(tuple(x.derivative() * tp for x in row) for row in T)
    plus = rf_mat_add(rf_mat_mul(rf_mat_mul(T, base), Tinv),
                      rf_mat_mul(Tprime, Tinv))
    assert DiffModuleGerm(plus) == POLAR_RANK2
    assert is_fuchsian(POLAR_RANK2)
    assert saturation_is_fuchsian(POLAR_RANK2)


def test_gauge_sign_convention_matters():
    # conjugating Theta = t d/dt + A carries the minus sign; the plus-sign
    # transport is a frame change for the system t y' = A y and can change
    # the module class, as this constant example shows
    from logres.germs import rf_inverse, rf_mat, rf_mat_add, rf_mat_mul, POLY_T

    A = DiffModuleGerm([[c(F(-1, 2)), c(0)], [c(F(3, 2)), c(0)]])
    T = rf_mat([[RF_ONE, RatFunc.t_power(-1)], [RF_ZERO, RF_ONE]])
    assert is_fuchsian(A)
    assert is_fuchsian(gauge_transform(A, T))  # true conjugation
    Tinv = rf_inverse(T)
    tp = RatFunc(POLY_T)
    Tprime = tuple(tuple(x.derivative() * tp for x in row) for row in T)
    plus = DiffModuleGerm(rf_mat_add(
        rf_mat_mul(rf_mat_mul(T, A.theta_matrix), Tinv),
        rf_mat_mul(Tprime, Tinv)))
    assert not is_fuchsian(plus)
    assert not saturation_is_fuchsian(plus)


def test_fuchs_agrees_with_saturation_oracle():
    r = rng(51)
    germs = [POLAR_RANK2, IRREGULAR,
             DiffModuleGerm([[c(0)]]),
             DiffModuleGerm([[c(F(1, 2)), c(1)], [c(0), c(F(1, 2))]])]
    for _ in range(12):
        germs.append(random_fuchsian_germ(r, rank_max=2))
    for _ in range(8):
        germs.append(random_irregular_germ(r, rank_max=2))
    for g in germs:
        assert is_fuchsian(g) == saturation_is_fuchsian(g), g.theta_matrix


def test_gauge_invariance():
    r = rng(52)
    for g in (POLAR_RANK2, IRREGULAR,
              DiffModuleGerm([[c(1), c(0)], [c(2), c(F(-1, 3))]])):
        expected = is_fuchsian(g)
        for _ in range(6):
            n = g.rank
            T = [[RF_ONE if i == j else RF_ZERO for j in range(n)]
                 for i in range(n)]
            i, j = r.randrange(n), r.randrange(n)
            if n > 1 and i != j:
                T[i][j] = RatFunc.t_power(r.randint(-2, 2))
            assert is_fuchsian(gauge_transform(g, T)) == expected


def test_closure_tensor_dual_sum():
    a = POLAR_RANK2
    b = DiffModuleGerm([[c(F(2, 3))]])
    assert is_fuchsian(germ_tensor(a, b))
    assert is_fuchsian(germ_dual(a))
    assert is_fuchsian(germ_direct_sum(a, b))
    assert is_fuchsian(germ_tensor(a, a))  # rank 4
    # rank-1 tensor adds the scalars
    g1 = DiffModuleGerm([[c(F(1, 2))]])
    g2 = DiffModuleGerm([[c(F(1, 3))]])
    assert germ_tensor(g1, g2).theta_matrix[0][0] == c(F(5, 6))
    # dual of a constant system
    g = DiffModuleGerm([[c(1), c(2)], [c(0), c(3)]])
    d = germ_dual(g)
    assert d.theta_matrix == ((c(-1), c(0)), (c(-2), c(-3)))
    assert is_fuchsian(d)


def _a1_map(value):
    N = AffineMonoid([(1,)])
    face = N.faces()[1]  # the whole monoid: the open stratum
    return GermMap(N, face, [value], [])


def test_pullback_examples():
    N = AffineMonoid([(1,)])
    diff = LogDifferentials(N, MonoidIdeal(N, []))
    conn = LogConnection.constant(diff, [[[F(2, 3)]]])
    assert pullback_germ(conn, _a1_map(RatFunc.t_power(1))).theta_matrix \
        == ((c(F(2, 3)),),)
    assert pullback_germ(conn, _a1_map(RatFunc.t_power(2))).theta_matrix \
        == ((c(F(4, 3)),),)
    got = pullback_germ(conn, _a1_map(RatFunc((ZERO, ONE, ONE))))
    expected = c(F(2, 3)) * RatFunc((ONE, ONE + ONE)) / RatFunc((ONE, ONE))
    assert got.theta_matrix == ((expected,),)


def test_pullback_strict_germ_into_log_point():
    # sharp direction routed through the splitting unit
    N = AffineMonoid([(1,)])
    diff = LogDifferentials(N, MonoidIdeal(N, [(1,)]))
    conn = LogConnection.constant(diff, [[[F(1, 2)]]])
    face0 = N.faces()[0]
    m = GermMap(N, face0, [], [RatFunc((ONE, ONE))])  # eps value 1 + t
    g = pullback_germ(conn, m)
    assert is_fuchsian(g)
    expected = c(F(1, 2)) * RatFunc((ZERO, ONE)) / RatFunc((ONE, ONE))
    assert g.theta_matrix == ((expected,),)


def test_germ_map_rejects_zero_values():
    N = AffineMonoid([(1,)])
    with pytest.raises(NonUnitValue):
        _a1_map(RF_ZERO)


def test_germ_map_refuses_unsaturated_face():
    P = AffineMonoid([(2, 0), (0, 1)])
    face = next(f for f in P.faces() if sorted(f.generator_indices) == [0])
    with pytest.raises(ValueError, match="^face lattice is not saturated$"):
        GermMap(P, face, [RatFunc.t_power(1)], [RF_ONE])


def test_pullback_with_center_is_fuchsian():
    r = rng(53)
    N2 = AffineMonoid([(1, 0), (0, 1)])
    diff = LogDifferentials(N2, MonoidIdeal(N2, []))
    face = next(f for f in N2.faces()
                if sorted(f.generator_indices) == [0])
    for _ in range(10):
        conn = LogConnection.constant(
            diff, [[[F(r.randint(-4, 4), r.randint(1, 4))]],
                   [[F(r.randint(-4, 4), r.randint(1, 4))]]])
        m = GermMap(N2, face,
                    [random_ratfunc(r, unit=True)],
                    [random_ratfunc(r, unit=True)])
        assert is_fuchsian(pullback_germ(conn, m))
