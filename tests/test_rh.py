from fractions import Fraction as F

import pytest

from logres.connections import LogConnection, LogDifferentials, MonPoly, is_flat
from logres.errors import (ConditionsFailed, InvalidObject, NonConstant,
                           NotFlat)
from logres.field import GaussRat
from logres.linalg import Matrix
from logres.lobjects import LObject, tensor
from logres.monoids import AffineMonoid, MonoidIdeal
from logres.rh import from_lobject, higgs_conditions, higgs_decompose, to_lobject
from logres.strata import HollowStructure, Splitting, splitting_cover, \
    pullback_to_cover

from corpus import (free_model, mixed_hollow_model,
                    random_constant_flat_connection,
                    random_monomial_connection, random_scalar,
                    random_splitting, rng)
from oracles import mpm_higgs_conditions, mpm_is_flat

N = AffineMonoid([(1,)])
K0 = MonoidIdeal(N, [])
N2 = AffineMonoid([(1, 0), (0, 1)])
K20 = MonoidIdeal(N2, [])


def test_flat_examples():
    d2 = LogDifferentials(N2, K20)
    commuting = LogConnection.constant(d2, [[[1, 0], [0, 2]], [[3, 0], [0, 4]]])
    assert is_flat(commuting)
    noncomm = LogConnection.constant(d2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    assert not is_flat(noncomm)
    # one log direction: always flat
    d1 = LogDifferentials(N, K0)
    anything = LogConnection.constant(d1, [[[5, 7], [11, 13]]])
    assert is_flat(anything)


def test_flat_monomial_example():
    # weight term cancels commutator only on the integrable family
    P, K = mixed_hollow_model(1, 1)
    hs = HollowStructure(P, K)
    r = rng(21)
    for _ in range(10):
        conn = random_monomial_connection(r, P, K, hs, rank=2, flat=True)
        assert is_flat(conn)
        bad = random_monomial_connection(r, P, K, hs, rank=2, flat=False)
        assert not is_flat(bad)


def test_to_lobject_rank_one_half():
    d1 = LogDifferentials(N, K0)
    conn = LogConnection.constant(d1, [[[F(1, 2)]]])
    V = to_lobject(conn)
    assert V.degrees == ((GaussRat(F(-1, 2)),),)
    assert V.log_matrices[0].is_zero()


def test_to_lobject_zero_and_jordan():
    d1 = LogDifferentials(N, K0)
    triv = to_lobject(LogConnection.constant(d1, [Matrix.zero(3)]))
    assert triv.degrees == ((GaussRat(0),),) * 3
    assert triv.log_matrices[0].is_zero()
    jordan = LogConnection.constant(d1, [[[0, 1], [0, 0]]])
    V = to_lobject(jordan)
    assert V.degrees == ((GaussRat(0),),) * 2
    assert V.log_matrices[0] == Matrix([[0, -1], [0, 0]])


def test_round_trips_exact():
    d1 = LogDifferentials(N, K0)
    for mats in ([[[F(1, 2)]]], [[[0, 1], [0, 0]]],
                 [[[F(1, 2), 1, 0], [0, F(1, 2), 0], [0, 0, F(-1, 3)]]]):
        conn = LogConnection.constant(d1, mats)
        V = to_lobject(conn)
        assert from_lobject(V) == conn
        assert to_lobject(from_lobject(V)) == V


def test_from_lobject_rejects_invalid():
    bad = LObject(N, K0, [(1,), (0,)], [Matrix([[0, 1], [0, 0]])])
    with pytest.raises(InvalidObject):
        from_lobject(bad)


def test_to_lobject_requires_constant_and_flat():
    d1 = LogDifferentials(N, K0)
    nonconst = LogConnection(d1, [[[MonPoly.monomial((1,))]]], rank=1)
    with pytest.raises(NonConstant):
        to_lobject(nonconst)
    d2 = LogDifferentials(N2, K20)
    noncomm = LogConnection.constant(d2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(NotFlat):
        to_lobject(noncomm)


def test_seeded_round_trips():
    r = rng(31)
    P, K = free_model(2)
    for _ in range(25):
        conn, V = random_constant_flat_connection(r, P, K, rank_max=4)
        assert to_lobject(conn) == V
        assert from_lobject(V) == conn


def test_to_lobject_conjugation_invariant():
    # a change of frame conjugates the block nilpotents; degrees and the
    # nilpotent rank profiles (the frame-free data) must agree
    d1 = LogDifferentials(N, K0)
    conn = LogConnection.constant(d1, [[[F(1, 2), 1], [0, F(1, 2)]]])
    p = Matrix([[1, 2], [1, 3]])
    conj = LogConnection.constant(
        d1, [p * conn.constant_matrices()[0] * p.inverse()])
    a, b = to_lobject(conn), to_lobject(conj)
    assert a.degrees == b.degrees

    def profile(V):
        out = []
        for m in V.log_matrices:
            ranks = []
            power = m
            for _ in range(V.rank):
                ranks.append(power.rank())
                power = power * m
            out.append(ranks)
        return out

    assert profile(a) == profile(b)


def test_monoidality_on_tensors():
    r = rng(32)
    P, K = free_model(2)
    for _ in range(10):
        c1, v1 = random_constant_flat_connection(r, P, K, rank_max=2)
        c2, v2 = random_constant_flat_connection(r, P, K, rank_max=2)
        lhs = to_lobject(c1.tensor(c2)).canonical_sort()[0]
        rhs = tensor(v1, v2).canonical_sort()[0]
        assert lhs == rhs


def test_higgs_log_point_trivial_base():
    Q, KQ, hs, univ, obv = splitting_cover(N)
    dNpt = LogDifferentials(N, MonoidIdeal(N, [(1,)]))
    conn = LogConnection.constant(dNpt, [[[F(1, 2)]]])
    cov = pullback_to_cover(conn, LogDifferentials(Q, KQ), hs)
    hd = higgs_decompose(cov, obv)
    assert all(x.is_zero() for mat in hd.base.omega for row in mat for x in row)
    assert hd.residue_matrices()[0] == Matrix([[F(1, 2)]])


def test_higgs_condition_ii_fails():
    Q2, KQ2, hs2, univ2, obv2 = splitting_cover(N2)
    d22 = LogDifferentials(N2, MonoidIdeal(N2, [(1, 0), (0, 1)]))
    noncomm = LogConnection.constant(d22, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    cov = pullback_to_cover(noncomm, LogDifferentials(Q2, KQ2), hs2)
    with pytest.raises(ConditionsFailed) as ei:
        higgs_decompose(cov, obv2)
    assert ei.value.failed == [2]


def test_higgs_condition_iii_horizontality():
    # hollow model with torus factor; rho(z) = z * A nonconstant fails (iii)
    P, K = mixed_hollow_model(1, 1)
    hs = HollowStructure(P, K)
    diff = LogDifferentials(P, K)
    eps = Splitting(hs, [[0]])
    z_vec = tuple(hs.Uinv[row][0] for row in range(2))  # unit-lattice basis
    z = MonPoly.monomial(z_vec)
    const = MonPoly.constant(1, 2)
    zero = MonPoly()
    nonconst = LogConnection(diff, [[[z]], [[zero]]], rank=1)
    c1, c2, c3, _, _ = higgs_conditions(nonconst, eps)
    assert not c3
    constant = LogConnection(diff, [[[const]], [[zero]]], rank=1)
    c1, c2, c3, _, _ = higgs_conditions(constant, eps)
    assert c1 and c2 and c3


def test_higgs_succeeds_iff_flat_seeded():
    r = rng(33)
    for trial in range(25):
        sharp = r.randint(1, 2)
        torus = r.randint(1, 2)
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        eps = random_splitting(r, hs)
        flat = bool(trial % 2)
        conn = random_monomial_connection(r, P, K, hs, rank=2, flat=flat)
        expected = is_flat(conn)
        try:
            higgs_decompose(conn, eps)
            succeeded = True
        except ConditionsFailed:
            succeeded = False
        assert succeeded == expected, trial


def _twisted(P, K, mu, c, shift):
    """A_k = diag(0, mu_k + shift_k) + c_k x^mu E_12.  With shift = 0 this is
    the gauge transform of a constant connection by diag(1, x^mu), flat
    because each commutator cancels a weight term; a shift breaks that."""
    d = P.ambient_rank
    return LogConnection(LogDifferentials(P, K), [
        [[MonPoly(), MonPoly.monomial(mu, c[k])],
         [MonPoly(), MonPoly.constant(mu[k] + shift[k], d)]]
        for k in range(d)])


def test_flatness_and_higgs_conditions_match_oracle():
    # is_flat and the three Higgs conditions against whole-MonPoly matrix
    # arithmetic, on monomial and gauge-twisted connections of mixed hollow
    # models and on (non-)commuting constant connections of N^2 and N^3
    # pulled back to their splitting covers
    r = rng(35)
    cases = []
    for trial in range(16):
        sharp, torus = r.randint(1, 2), r.randint(1, 2)
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        flat = bool(trial % 2)
        if trial % 4 < 2:
            conn = random_monomial_connection(r, P, K, hs,
                                              rank=r.randint(1, 3), flat=flat)
        else:
            mu = (0,) * sharp + tuple(r.choice((-2, -1, 1, 2))
                                      for _ in range(torus))
            shift = [0 if flat else r.randint(-2, 2) for _ in mu]
            conn = _twisted(P, K, mu, [r.randint(-2, 2) for _ in mu], shift)
        assert is_flat(conn) or not flat
        cases.append((conn, random_splitting(r, hs)))
    for d in (2, 3):
        P, K = free_model(d)
        Ph, Kh = free_model(d, hollow=True)
        Q, KQ, hs, univ, obv = splitting_cover(Ph)
        for trial in range(4):
            if trial % 2:
                conn, _ = random_constant_flat_connection(r, P, K, rank_max=3)
            else:
                n = r.randint(2, 3)
                conn = LogConnection.constant(LogDifferentials(P, K), [
                    [[random_scalar(r, 3, 3) for _ in range(n)]
                     for _ in range(n)] for _ in range(d)])
            assert is_flat(conn) == mpm_is_flat(conn)
            point = LogConnection(LogDifferentials(Ph, Kh), conn.omega)
            cover = pullback_to_cover(point, LogDifferentials(Q, KQ), hs)
            cases += [(cover, univ), (cover, obv)]
    seen = set()
    for conn, eps in cases:
        got = higgs_conditions(conn, eps)
        want = mpm_higgs_conditions(conn, eps)
        assert got[:3] == want[:3]
        assert got[3] == want[3] and got[4] == want[4]
        assert is_flat(conn) == mpm_is_flat(conn)
        seen.add((is_flat(conn),) + got[:3])
    for flag in range(4):
        assert {s[flag] for s in seen} == {True, False}, (flag, seen)


def test_higgs_base_agrees_with_eps_pullback():
    # the decomposition's underlying torus connection is the splitting
    # pullback, on shared instances
    from logres.strata import eps_pullback

    r = rng(34)
    for _ in range(5):
        P, K = mixed_hollow_model(1, 2)
        hs = HollowStructure(P, K)
        eps = random_splitting(r, hs)
        conn, _ = random_constant_flat_connection(r, P, K, rank_max=3)
        hd = higgs_decompose(conn, eps)
        assert hd.base == eps_pullback(conn, eps)


def test_differentials_require_full_lattice():
    sparse = AffineMonoid([(2,)])
    with pytest.raises(ValueError):
        LogDifferentials(sparse, MonoidIdeal(sparse, []))
