from fractions import Fraction as F

from logres.canext import (GoodEmbeddingModel, TauSection, canonical_extension,
                           exponents_report, restrict, tau_normalize)
from logres.field import GaussRat
from logres.linalg import Matrix
from logres.lobjects import LObject, check_axioms, graded_piece
from logres.monoids import AffineMonoid, MonoidIdeal

from corpus import random_lobject, rng

ZERO_MONOID = AffineMonoid([], ambient_rank=0)
ZERO_IDEAL = MonoidIdeal(ZERO_MONOID, ())
tau = TauSection()  # (-1, 0]


def model(r=1, core=None):
    if core is None:
        return GoodEmbeddingModel(ZERO_MONOID, ZERO_IDEAL, r)
    return GoodEmbeddingModel(core[0], core[1], r)


def test_tau_section_windows():
    assert tau(F(5, 2)) == GaussRat(F(-1, 2))
    assert tau(F(0)) == GaussRat(0)
    assert tau(F(-1, 2)) == GaussRat(F(-1, 2))
    assert tau(-1) == GaussRat(0)
    assert tau(GaussRat(F(3, 2), F(1, 3))) == GaussRat(F(-1, 2), F(1, 3))
    assert tau.fixes_zero
    shifted = TauSection(F(0))
    assert shifted(F(5, 2)) == GaussRat(F(1, 2))
    assert not TauSection(F(1, 4)).fixes_zero
    # idempotence on a sample
    for q in [F(5, 2), F(-7, 3), F(0), F(1)]:
        assert tau(tau(q)) == tau(q)


def test_restrict_rank_one():
    E = model(r=1)
    V = LObject(E.monoid_q, E.ideal_q, [(F(5, 2),)], [Matrix([[0]])])
    Vp = restrict(E, V)
    assert Vp.monoid == E.monoid_qp
    assert Vp.degrees == V.degrees and Vp.log_matrices == V.log_matrices


def test_restrict_keeps_couplings_and_ideal():
    N = AffineMonoid([(1,)])
    KN = MonoidIdeal(N, [(2,)])
    E = model(r=1, core=(N, KN))
    V = LObject(E.monoid_q, E.ideal_q, [(0, 0), (1, 0)],
                [Matrix([[0, 1], [0, 0]]), Matrix.zero(2)])
    Vp = restrict(E, V)
    assert Vp.log_matrices[0] == V.log_matrices[0]
    assert Vp.ideal.generators == E.ideal_qp.generators


def test_restrict_kills_ideal_absorbed_coupling():
    # over Q' the ideal sweeps the infinity direction: (1,5)-(0,0) stays in
    # Q'\K' only while the P-part stays outside K
    N = AffineMonoid([(1,)])
    KN = MonoidIdeal(N, [(1,)])
    E = model(r=1, core=(N, KN))
    V = LObject(E.monoid_q, E.ideal_q, [(0, 0), (0, 1)],
                [Matrix.zero(2), Matrix([[0, 1], [0, 0]])])
    # the coupling monomial (0,1) survives (P-part 0 is not in K)
    Vp = restrict(E, V)
    assert Vp.log_matrices[1] == V.log_matrices[1]


def test_canonical_extension_spec_shifts():
    E = model(r=1)
    Vp = LObject(E.monoid_qp, E.ideal_qp, [(F(5, 2),)], [Matrix([[0]])])
    V, shifts = canonical_extension(E, Vp, tau)
    assert V.degrees == ((GaussRat(F(-1, 2)),),)
    assert shifts == ((-3,),)
    # degrees already in the window: identity
    Vp2 = LObject(E.monoid_qp, E.ideal_qp, [(F(-1, 2),)], [Matrix([[0]])])
    V2, shifts2 = canonical_extension(E, Vp2, tau)
    assert V2.degrees == Vp2.degrees and shifts2 == ((0,),)


def test_canonical_extension_r2_coordinatewise():
    E = model(r=2)
    Vp = LObject(E.monoid_qp, E.ideal_qp, [(F(3, 2), F(-2))],
                 [Matrix([[0]]), Matrix([[0]])])
    V, shifts = canonical_extension(E, Vp, tau)
    assert V.degrees == ((GaussRat(F(-1, 2)), GaussRat(0)),)
    assert shifts == ((-2, 2),)


def test_round_trip_restrict_extend():
    # restrict(extend(V')) = tau-normalized V'; literal identity on
    # normalized objects
    E = model(r=2)
    Vp = LObject(E.monoid_qp, E.ideal_qp,
                 [(F(3, 2), F(-2)), (F(1, 2), F(-1))],
                 [Matrix([[0, 1], [0, 0]]), Matrix.zero(2)])
    norm, _ = tau_normalize(E, Vp, tau)
    ext, _ = canonical_extension(E, norm, tau)
    back = restrict(E, ext)
    assert back == norm
    # extend(restrict(V)) = V on tau-adapted objects over Q
    ext2, shifts = canonical_extension(E, restrict(E, ext), tau)
    assert ext2 == ext and all(s == (0, 0) for s in shifts)


def test_freeness_and_validity_preserved():
    E = model(r=1, core=(AffineMonoid([(1,)]),
                         MonoidIdeal(AffineMonoid([(1,)]), [(1,)])))
    r = rng(41)
    for _ in range(10):
        V = random_lobject(r, E.monoid_q, E.ideal_q, rank_max=4)
        assert check_axioms(V).ok
        Vp = restrict(E, V)
        assert check_axioms(Vp).ok
        ext, _ = canonical_extension(E, Vp, tau)
        assert check_axioms(ext).ok
        assert ext.rank == V.rank  # free with the same generator count


def test_v0_dimension_preserved_when_tau_fixes_zero():
    E = model(r=2)
    r = rng(42)
    for _ in range(15):
        Vp = random_lobject(r, E.monoid_qp, E.ideal_qp, rank_max=4)
        ext, _ = canonical_extension(E, Vp, tau)
        d_before = graded_piece(Vp, (GaussRat(0), GaussRat(0))).dimension
        d_after = graded_piece(ext, (GaussRat(0), GaussRat(0))).dimension
        assert d_before == d_after


def test_exponents_report():
    E = model(r=1)
    Vp = LObject(E.monoid_qp, E.ideal_qp, [(F(5, 2),)], [Matrix([[0]])])
    ext, _ = canonical_extension(E, Vp, tau)
    rep = exponents_report(E, ext, tau)
    assert [[str(x) for x in e] for e in rep.exponents] == [["-1/2"]]
    assert rep.adapted
    V = LObject(E.monoid_q, E.ideal_q, [(F(5, 2),)], [Matrix([[0]])])
    rep2 = exponents_report(E, V, tau)
    assert [[str(x) for x in e] for e in rep2.exponents] == [["5/2"]]
    assert not rep2.adapted
    V0 = LObject(E.monoid_q, E.ideal_q, [(0,)], [Matrix([[0]])])
    assert exponents_report(E, V0, tau).adapted


def test_exponents_match_negated_residue_eigenvalues():
    # under the sign convention the infinity degrees are the negatives of
    # the residue eigenvalues of the transported connection
    from logres.rh import from_lobject
    from logres.linalg import eigen_decompose

    E = model(r=1)
    V = LObject(E.monoid_q, E.ideal_q, [(F(-1, 2),), (F(-1, 2),)],
                [Matrix([[0, 1], [0, 0]])])
    conn = from_lobject(V)
    U = conn.constant_matrices()[0]
    blocks = eigen_decompose([U])
    eigs = sorted(str(-b.label[0]) for b in blocks)
    rep = exponents_report(E, V, tau)
    assert sorted(str(e[0]) for e in rep.exponents) == ["-1/2", "-1/2"]
    assert eigs == ["-1/2"]
