import time
from fractions import Fraction as F

import pytest

from logres.canext import TauSection
from logres.cohomology import (KoszulInput, LocalSystem, comparison_report,
                               koszul_cohomology, local_system_round_trip,
                               torus_de_rham, underline)
from logres.connections import LogConnection, LogDifferentials
from logres.errors import IrrationalEigenvalue, NonCommuting, NotNcType
from logres.field import GaussRat
from logres.linalg import Matrix, eigen_decompose
from logres.monoids import AffineMonoid, MonoidIdeal
from logres.strata import HollowStructure, Splitting

from corpus import (mixed_hollow_model, random_constant_flat_connection,
                    random_local_system, random_splitting, rng)
from oracles import character_de_rham, koszul_dims_kernel_image

tau = TauSection()


def test_koszul_examples():
    assert koszul_cohomology(KoszulInput(operators=[Matrix.zero(1)])) == [1, 1]
    assert koszul_cohomology(KoszulInput(
        operators=[Matrix.zero(1), Matrix.zero(1)])) == [1, 2, 1]
    assert koszul_cohomology(KoszulInput(
        blocks=[((F(1, 2),), (Matrix.zero(1),))])) == [0, 0]


def test_koszul_euler_characteristic():
    # zero operators: binomial dims; any invertible operator: acyclic
    dims = koszul_cohomology(KoszulInput(operators=[Matrix.zero(2)] * 3))
    assert dims == [2, 6, 6, 2]
    inv = Matrix.identity(2)
    dims = koszul_cohomology(KoszulInput(operators=[inv, Matrix.zero(2)]))
    assert dims == [0, 0, 0]
    # Euler characteristic vanishes whenever some operator is invertible
    assert sum((-1) ** i * d for i, d in enumerate(dims)) == 0


def test_koszul_noncommuting_rejected():
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    with pytest.raises(NonCommuting):
        koszul_cohomology(KoszulInput(operators=[a, b]))


def test_koszul_against_kernel_image_oracle():
    r = rng(61)
    for _ in range(8):
        n = r.randint(2, 6)
        base = [[GaussRat(0)] * n for _ in range(n)]
        for i in range(n - 1):
            base[i][i + 1] = GaussRat(r.randint(-2, 2))
        basem = Matrix(base)
        powers = [Matrix.identity(n), basem, basem * basem]
        ops = []
        for _ in range(2):
            acc = Matrix.zero(n)
            for p in range(1, 3):
                acc = acc + powers[p].scale(GaussRat(r.randint(-2, 2)))
            ops.append(acc)
        dims = koszul_cohomology(KoszulInput(operators=ops))
        oracle = koszul_dims_kernel_image(ops, n)
        assert dims == oracle


def test_torus_de_rham_gm():
    Z1 = AffineMonoid([(1,), (-1,)])
    KZ = MonoidIdeal(Z1, [])
    dZ = LogDifferentials(Z1, KZ)
    hs = HollowStructure(Z1, KZ)
    eps = Splitting(hs, [])
    assert torus_de_rham(LogConnection.constant(dZ, [[[0]]]), eps) == [1, 1]
    assert torus_de_rham(LogConnection.constant(dZ, [[[F(1, 2)]]]), eps) == [0, 0]
    assert torus_de_rham(LogConnection.constant(dZ, [[[1]]]), eps) == [1, 1]


def test_torus_de_rham_log_point_is_residue_koszul():
    N = AffineMonoid([(1,)])
    KN = MonoidIdeal(N, [(1,)])
    dN = LogDifferentials(N, KN)
    hs = HollowStructure(N, KN)
    eps = Splitting(hs, [[] for _ in range(1)])
    rho = Matrix([[0, 1], [0, 0]])
    conn = LogConnection.constant(dN, [rho])
    dims = torus_de_rham(conn, eps)
    assert dims == koszul_cohomology(KoszulInput(operators=[rho]))


def _from_components(P, K, hs, comps):
    """The constant connection on the hollow model (P, K) whose adapted
    components (torus directions first, then sharp) are the matrices
    comps."""
    d = hs.dim
    omega = []
    for k in range(d):
        acc = Matrix.zero(comps[0].rows)
        for j in range(d):
            if hs.Uinv[k][j]:
                acc = acc + comps[j].scale(hs.Uinv[k][j])
        omega.append(acc)
    return LogConnection.constant(LogDifferentials(P, K), omega)


def _integer_spectrum_connection(r, P, K, hs, rank):
    """A constant flat connection of the given rank whose torus
    components have mostly integer eigenvalues and whose residues are
    mostly nilpotent, conjugated by a random unimodular frame.

    Per block, every adapted component is label * I plus a polynomial
    without constant term in one shared Jordan block, so all commute."""
    t, d = hs.torus_rank, hs.dim
    labels, sizes = [], []
    left = rank
    while left:
        size = r.randint(1, min(2, left))
        left -= size
        labels.append([(r.randint(-2, 2) if r.random() < 0.9
                        else r.choice((F(1, 2), GaussRat(0, 1))))
                       if j < t else
                       (0 if r.random() < 0.8 else r.choice((1, -1, F(1, 2))))
                       for j in range(d)])
        sizes.append(size)
    comps = []
    for j in range(d):
        ents = [[0] * rank for _ in range(rank)]
        pos = 0
        for lab, size in zip(labels, sizes):
            coeff = r.randint(-1, 1)
            for i in range(size):
                ents[pos + i][pos + i] = lab[j]
                if i + 1 < size:
                    ents[pos + i][pos + i + 1] = coeff
            pos += size
        comps.append(Matrix(ents))
    frame = Matrix.identity(rank)
    for _ in range(rank if rank > 1 else 0):
        i, j = r.sample(range(rank), 2)
        ents = [[int(a == b) for b in range(rank)] for a in range(rank)]
        ents[i][j] = r.choice((-1, 1))
        frame = frame * Matrix(ents)
    inv = frame.inverse()
    return _from_components(P, K, hs, [frame * c * inv for c in comps])


def test_torus_de_rham_matches_character_oracle():
    # seeded constant flat connections with integer spectra, torus rank
    # <= 3 and rank <= 4; about four in five have nonzero cohomology
    r = rng(66)
    nonzero = 0
    for trial in range(16):
        torus = r.randint(1, 3)
        sharp = r.randint(0, min(2, 4 - torus))
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        eps = random_splitting(r, hs)
        # rank 4 only below four directions keeps the oracle's
        # complexes, of size rank * C(directions, i), small
        conn = _integer_spectrum_connection(
            r, P, K, hs, r.randint(1, 4 if torus + sharp < 4 else 3))
        dims = torus_de_rham(conn, eps)
        assert dims == character_de_rham(conn, eps)
        nonzero += any(dims)
    assert nonzero >= 4


def test_torus_de_rham_beside_irrational_block():
    # an x^2 - 2 block next to an integer block: de Rham sees only the
    # integer block, while the full eigen decomposition must refuse
    P, K = mixed_hollow_model(1, 1)
    hs = HollowStructure(P, K)
    eps = Splitting(hs, [[1]])
    torus = Matrix([[0, 2, 0], [1, 0, 0], [0, 0, -1]])
    residue = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    conn = _from_components(P, K, hs, [torus, residue])
    assert torus_de_rham(conn, eps) == [1, 2, 1] == \
        character_de_rham(conn, eps)
    with pytest.raises(IrrationalEigenvalue):
        eigen_decompose(conn.constant_matrices())


def test_torus_de_rham_rank_six_on_four_torus_is_fast():
    # one complex per integer joint eigenspace, not one per character
    P, K = mixed_hollow_model(0, 4)
    hs = HollowStructure(P, K)
    V = Matrix([[i if i == j else 0 for j in range(6)] for i in range(6)])
    conn = LogConnection.constant(LogDifferentials(P, K), [V] * 4)
    start = time.perf_counter()
    dims = torus_de_rham(conn, Splitting(hs, []))
    assert time.perf_counter() - start < 2.0
    assert dims == [6, 24, 36, 24, 6]


def test_comparison_log_point():
    N = AffineMonoid([(1,)])
    KN = MonoidIdeal(N, [(1,)])
    dN = LogDifferentials(N, KN)
    hs = HollowStructure(N, KN)
    eps = Splitting(hs, [[]])
    rep0 = comparison_report(LogConnection.constant(dN, [[[0]]]), eps, tau)
    assert rep0.de_rham == rep0.group_v0 == rep0.local_system == (1, 1)
    assert rep0.adapted
    rep_half = comparison_report(LogConnection.constant(dN, [[[F(1, 2)]]]),
                                 eps, tau)
    assert rep_half.de_rham == rep_half.group_v0 == rep_half.local_system \
        == (0, 0)
    assert rep_half.adapted


def test_comparison_counterexample_gm_times_log_point():
    # residues (a_z, a_t) = (0, 1): all-zero de Rham and V0 sides, but the
    # underlined local system sees (1,2,1); flagged non-adapted
    NZ = AffineMonoid([(1, 0), (0, 1), (0, -1)])
    KH = MonoidIdeal(NZ, [(1, 0)])
    dNZ = LogDifferentials(NZ, KH)
    hs = HollowStructure(NZ, KH)
    eps = Splitting(hs, [[0]])
    conn = LogConnection.constant(dNZ, [[[1]], [[0]]])
    rep = comparison_report(conn, eps, tau)
    assert rep.de_rham == (0, 0, 0)
    assert rep.group_v0 == (0, 0, 0)
    assert rep.local_system == (1, 2, 1)
    assert not rep.adapted
    assert rep.de_rham_equals_group and not rep.group_equals_local_system


def test_comparison_seeded_hollow_corpus():
    r = rng(62)
    adapted_seen = 0
    for _ in range(25):
        sharp = r.randint(1, 2)
        torus = r.randint(0, 1)
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        eps = random_splitting(r, hs)
        conn, _ = random_constant_flat_connection(r, P, K, rank_max=3)
        rep = comparison_report(conn, eps, tau)
        assert rep.de_rham == rep.group_v0
        if rep.adapted:
            adapted_seen += 1
            assert rep.group_v0 == rep.local_system
    assert adapted_seen  # the sub-corpus is nonempty


def test_local_system_round_trip_examples():
    W = LocalSystem(1, [((F(1, 2),), (Matrix.zero(1),))])
    V, Wb = local_system_round_trip(W, tau)
    assert V.degrees == ((GaussRat(F(-1, 2)),),)
    # recovered labels are tau-truncations
    assert Wb.blocks[0][0] == (GaussRat(F(-1, 2)),)
    ident = LocalSystem(1, [((0,), (Matrix.zero(1),))])
    V2, Wb2 = local_system_round_trip(ident, tau)
    assert V2.degrees == ((GaussRat(0),),)
    assert Wb2 == ident.sorted_blocks()


def test_local_system_round_trip_seeded_identity():
    r = rng(63)
    for _ in range(20):
        k = r.randint(1, 3)
        W = random_local_system(r, k, dim_max=4, window=tau)
        V, Wb = local_system_round_trip(W, tau)
        assert Wb == W
        from logres.lobjects import check_axioms

        assert check_axioms(V).ok


def test_underline_requires_free_model():
    P = AffineMonoid([(1, 1), (1, 0), (1, 2)])
    from logres.lobjects import LObject

    V = LObject(P, MonoidIdeal(P, []), [(0, 0)], [Matrix([[0]]),
                                                  Matrix([[0]])])
    with pytest.raises(NotNcType):
        underline(V)


def test_canonical_extension_preserves_group_v0_dims():
    # the V0 = V'0 identity seen through Koszul dimensions
    from logres.canext import GoodEmbeddingModel, canonical_extension
    from logres.cohomology import KoszulInput
    from corpus import random_lobject

    Z0 = AffineMonoid([], ambient_rank=0)
    E = GoodEmbeddingModel(Z0, MonoidIdeal(Z0, ()), 2)
    r = rng(64)
    for _ in range(10):
        Vp = random_lobject(r, E.monoid_qp, E.ideal_qp, rank_max=4)
        ext, _ = canonical_extension(E, Vp, tau)

        def v0_dims(V):
            from logres.lobjects import graded_piece

            gp = graded_piece(V, (GaussRat(0), GaussRat(0)))
            idx = gp.basis_indices
            blocks = []
            for c, cls in enumerate(V.classes):
                sel = [j for j in cls if j in idx]
                if not sel:
                    continue
                labels = V.class_degree(c)
                nils = [m.submatrix(sel, sel) for m in V.log_matrices]
                blocks.append((labels, nils))
            return koszul_cohomology(KoszulInput(blocks=blocks,
                                                 num_operators=2))

        assert v0_dims(Vp) == v0_dims(ext)
