from fractions import Fraction as F

import pytest

from logres.connections import LogConnection, LogDifferentials, MonPoly
from logres.errors import NotHollow
from logres.monoids import AffineMonoid, MonoidIdeal, faces
from logres.strata import (HollowStructure, Splitting, eps_pullback,
                           pullback_to_cover, splitting_cover, splitting_delta,
                           strata_decomposition)

from corpus import (mixed_hollow_model, random_constant_flat_connection,
                    random_splitting, rng)

N = AffineMonoid([(1,)])
N2 = AffineMonoid([(1, 0), (0, 1)])


def test_strata_a1():
    sd = strata_decomposition(N, MonoidIdeal(N, []))
    ranks = sorted((s.torus_rank, s.log_rank) for s in sd)
    assert ranks == [(0, 1), (1, 0)]
    closed = next(s for s in sd if s.torus_rank == 0)
    assert closed.sharp_fiber_rank == 1


def test_strata_n2():
    sd = strata_decomposition(N2, MonoidIdeal(N2, []))
    assert sorted((s.torus_rank, s.log_rank) for s in sd) == \
        [(0, 2), (1, 1), (1, 1), (2, 0)]


def test_strata_with_ideal():
    sd = strata_decomposition(N, MonoidIdeal(N, [(1,)]))
    assert [(s.torus_rank, s.log_rank) for s in sd] == [(0, 1)]


def test_strata_count_matches_faces():
    P = AffineMonoid([(1, 0), (1, 1), (1, 2)])
    sd = strata_decomposition(P, MonoidIdeal(P, []))
    assert len(sd) == len(faces(P))
    total = P.group_rank()
    for s in sd:
        assert s.torus_rank + s.log_rank == total
        assert s.sharp_fiber_rank == s.log_rank


def test_strata_induced_ideal():
    K = MonoidIdeal(N2, [(1, 1)])
    sd = strata_decomposition(N2, K)
    for s in sd:
        if s.face.span == ((1, 0),):
            assert s.induced_ideal.generators == ((1,),)


def test_splitting_cover_log_point():
    Q, KQ, hs, univ, obv = splitting_cover(N)
    assert hs.torus_rank == 1 and hs.sharp_rank == 1
    assert univ.monomial_part == ((1,),)
    assert obv.monomial_part == ((0,),)


def test_eps_pullback_universal_identity():
    # d + U dlog p on the log point goes to d + U dlog y
    Q, KQ, hs, univ, obv = splitting_cover(N)
    dN = LogDifferentials(N, MonoidIdeal(N, [(1,)]))
    conn = LogConnection.constant(dN, [[[F(1, 2)]]])
    cov = pullback_to_cover(conn, LogDifferentials(Q, KQ), hs)
    pb = eps_pullback(cov, univ)
    assert pb.omega[0][0][0] == MonPoly.constant(F(1, 2), 1)
    # obvious splitting kills the dlog term
    pb0 = eps_pullback(cov, obv)
    assert pb0.omega[0][0][0].is_zero()


def test_eps_pullback_rank2_coordinatewise():
    Q, KQ, hs, univ, obv = splitting_cover(N2)
    d22 = LogDifferentials(N2, MonoidIdeal(N2, [(1, 0), (0, 1)]))
    u1 = [[0, 1], [0, 0]]
    u2 = [[F(1, 2), 0], [0, F(1, 2)]]
    conn = LogConnection.constant(d22, [u1, u2])
    cov = pullback_to_cover(conn, LogDifferentials(Q, KQ), hs)
    pb = eps_pullback(cov, univ)
    expected = LogConnection.constant(pb.differentials, [u1, u2])
    assert pb == expected


def test_eps_pullback_requires_hollow():
    K0 = MonoidIdeal(N, [])
    with pytest.raises(NotHollow):
        HollowStructure(N, K0)


def test_hollow_structure_refuses_unsaturated_units():
    # hollow, but the units <(2,0)> are not saturated in Z^2
    P = AffineMonoid([(2, 0), (-2, 0), (0, 1)])
    with pytest.raises(ValueError,
                       match=r"^unit lattice is not saturated in Z\^d$"):
        HollowStructure(P, MonoidIdeal(P, [(0, 1)]))


def test_eps_pullback_requires_flat():
    from logres.errors import NotFlat

    Q, KQ, hs, univ, obv = splitting_cover(N2)
    d22 = LogDifferentials(N2, MonoidIdeal(N2, [(1, 0), (0, 1)]))
    noncomm = LogConnection.constant(d22, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    cov = pullback_to_cover(noncomm, LogDifferentials(Q, KQ), hs)
    with pytest.raises(NotFlat):
        eps_pullback(cov, univ)


def test_splitting_delta_zero_and_log_point():
    Q, KQ, hs, univ, obv = splitting_cover(N)
    dN = LogDifferentials(N, MonoidIdeal(N, [(1,)]))
    conn = LogConnection.constant(dN, [[[F(2, 3)]]])
    cov = pullback_to_cover(conn, LogDifferentials(Q, KQ), hs)
    delta, ok = splitting_delta(univ, univ, cov)
    assert delta == ((0,),) and ok
    delta, ok = splitting_delta(univ, obv, cov)
    assert delta == ((1,),) and ok


def test_splitting_delta_monomial_parts():
    # rank-1 on the N^2 log point with two distinct monomial parts
    Q, KQ, hs, univ, obv = splitting_cover(N2)
    d22 = LogDifferentials(N2, MonoidIdeal(N2, [(1, 0), (0, 1)]))
    conn = LogConnection.constant(d22, [[[F(1, 3)]], [[F(5, 2)]]])
    cov = pullback_to_cover(conn, LogDifferentials(Q, KQ), hs)
    e0 = Splitting(hs, [[2, -1], [0, 3]])
    e1 = Splitting(hs, [[1, 1], [1, 1]])
    delta, ok = splitting_delta(e0, e1, cov)
    assert delta == ((1, -2), (-1, 2))
    assert ok


def test_splitting_delta_cocycle():
    r = rng(11)
    P, K = mixed_hollow_model(2, 1)
    hs = HollowStructure(P, K)
    conn, _ = random_constant_flat_connection(r, P, K, rank_max=3)
    eps = [random_splitting(r, hs) for _ in range(3)]
    d01, ok01 = splitting_delta(eps[0], eps[1], conn)
    d12, ok12 = splitting_delta(eps[1], eps[2], conn)
    d02, ok02 = splitting_delta(eps[0], eps[2], conn)
    assert ok01 and ok12 and ok02
    assert d02 == tuple(tuple(a + b for a, b in zip(r1, r2))
                        for r1, r2 in zip(d01, d12))


def test_dependence_identity_on_seeded_corpus():
    r = rng(12)
    for trial in range(20):
        sharp = r.randint(1, 2)
        torus = r.randint(1, 2)
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        conn, _ = random_constant_flat_connection(r, P, K, rank_max=3)
        e0 = random_splitting(r, hs)
        e1 = random_splitting(r, hs)
        delta, ok = splitting_delta(e0, e1, conn)
        assert ok, (trial, delta)
