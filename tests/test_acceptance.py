"""Acceptance suite: one test per shipped criterion, each printing a PASS/FAIL
line.  All tolerances are exact (data equality / integer equality); the
two timed criteria assert their stated wall-clock budgets.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import time
from fractions import Fraction as F

import pytest

from logres.canext import (GoodEmbeddingModel, TauSection, canonical_extension,
                           exponents_report, restrict, tau_normalize)
from logres.cohomology import comparison_report, local_system_round_trip
from logres.connections import LogConnection, LogDifferentials, is_flat
from logres.errors import ConditionsFailed
from logres.field import GaussRat
from logres.germs import (DiffModuleGerm, GermMap, RatFunc,
                          gauge_transform, germ_direct_sum, germ_dual,
                          germ_tensor, is_fuchsian, rf_identity)
from logres.linalg import Matrix
from logres.lobjects import check_axioms, graded_piece, tensor
from logres.monoids import AffineMonoid, MonoidIdeal, faces, radical
from logres.rh import from_lobject, higgs_decompose, to_lobject
from logres.strata import (HollowStructure, Splitting, splitting_delta,
                           strata_decomposition)
from logres.textio import parse_document, print_document

from checkout import demo_path, run_cli
from corpus import (free_model, mixed_hollow_model,
                    random_constant_flat_connection,
                    random_fuchsian_germ, random_irregular_germ,
                    random_lobject, random_monomial_connection,
                    random_ratfunc, random_local_system,
                    random_splitting, rng)
from oracles import (brute_force_faces, brute_force_radical_membership,
                     saturation_is_fuchsian, submonoid_box)

TAU = TauSection()


def report(num, description, ok):
    print("ACCEPTANCE %02d %s: %s" % (num, "PASS" if ok else "FAIL",
                                      description))
    assert ok, "criterion %d failed: %s" % (num, description)


def test_criterion_01_stratification_ground_truth():
    N = AffineMonoid([(1,)])
    sd = strata_decomposition(N, MonoidIdeal(N, []))
    ranks = sorted((s.torus_rank, s.log_rank) for s in sd)
    ok = ranks == [(0, 1), (1, 0)]
    closed = next(s for s in sd if s.torus_rank == 0)
    ok = ok and closed.sharp_fiber_rank == 1
    N2 = AffineMonoid([(1, 0), (0, 1)])
    sd2 = strata_decomposition(N2, MonoidIdeal(N2, []))
    oracle_faces = brute_force_faces(N2, bound=5)
    ok = ok and len(sd2) == 4 == len(oracle_faces)
    ok = ok and sorted((s.torus_rank, s.log_rank) for s in sd2) == \
        [(0, 2), (1, 1), (1, 1), (2, 0)]
    report(1, "stratification of (N,0) and (N^2,0) matches the face oracle",
           ok)


CORPUS_MONOIDS = [
    AffineMonoid([(1,)]),
    AffineMonoid([(1,), (-1,)]),
    AffineMonoid([(1, 0), (0, 1)]),
    AffineMonoid([(1, 0), (1, 1), (1, 2)]),
    AffineMonoid([(2, 1), (1, 2)]),
    AffineMonoid([(1, 0), (0, 1), (-1, 0)]),
    AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    AffineMonoid([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]),
]


def test_criterion_02_face_radical_oracles():
    t0 = time.time()
    ok = True
    for P in CORPUS_MONOIDS:
        oracle = brute_force_faces(P, bound=5)
        mine = {frozenset(submonoid_box(f.span, P.ambient_rank, 5))
                for f in faces(P)}
        ok = ok and mine == set(oracle)
    ideal_cases = [
        (CORPUS_MONOIDS[0], [(2,)]),
        (CORPUS_MONOIDS[2], [(2, 0), (0, 3)]),
        (CORPUS_MONOIDS[2], [(1, 1)]),
        (CORPUS_MONOIDS[3], [(2, 2)]),
        (CORPUS_MONOIDS[6], [(1, 1, 0), (0, 0, 2)]),
    ]
    for P, kgens in ideal_cases:
        K = MonoidIdeal(P, kgens)
        rad = radical(P, K)
        for x in sorted(P.elements_in_box(4)):
            ok = ok and rad.contains(x) == \
                brute_force_radical_membership(P, K, x, nmax=10)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    report(2, "faces and radicals match brute force in %.2fs (< 5s)"
           % elapsed, ok)


def test_criterion_03_rh_round_trip():
    r = rng(103)
    P, K = free_model(2)
    ok = True
    for _ in range(200):
        conn, V = random_constant_flat_connection(
            r, P, K, rank_max=6, denom_max=6, imaginary_prob=0.0)
        ok = ok and from_lobject(to_lobject(conn)) == conn
        ok = ok and to_lobject(from_lobject(V)) == V
        if not ok:
            break
    for _ in range(50):
        c1, v1 = random_constant_flat_connection(r, P, K, rank_max=3,
                                                 imaginary_prob=0.0)
        c2, v2 = random_constant_flat_connection(r, P, K, rank_max=2,
                                                 imaginary_prob=0.0)
        lhs = to_lobject(c1.tensor(c2)).canonical_sort()[0]
        rhs = tensor(v1, v2).canonical_sort()[0]
        ok = ok and lhs == rhs
        if not ok:
            break
    report(3, "200 RH round trips and 50 tensor monoidality checks, exact",
           ok)


def test_criterion_04_higgs_equivalence():
    r = rng(104)
    ok = True
    named = 0
    for trial in range(100):
        sharp = r.randint(1, 2)
        torus = r.randint(1, 2)
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        eps = random_splitting(r, hs)
        style = trial % 4
        if style == 0:
            conn, _ = random_constant_flat_connection(r, P, K, rank_max=3)
        elif style == 1:
            conn = random_monomial_connection(r, P, K, hs, rank=2, flat=True)
        elif style == 2:
            conn = random_monomial_connection(r, P, K, hs, rank=2, flat=False)
        else:
            base, _ = random_constant_flat_connection(r, P, K, rank_max=2)
            mats = [Matrix([[x.constant_value() for x in row] for row in m])
                    for m in base.omega]
            i, j = r.randrange(base.rank), r.randrange(base.rank)
            k = r.randrange(P.ambient_rank)
            bumped = [list(map(list, m.entries)) for m in mats]
            bumped[k][i][j] = bumped[k][i][j] + GaussRat(1)
            diff = LogDifferentials(P, K)
            conn = LogConnection.constant(diff, bumped)
        flat = is_flat(conn)
        try:
            higgs_decompose(conn, eps)
            succeeded, failed = True, []
        except ConditionsFailed as e:
            succeeded, failed = False, e.failed
        ok = ok and succeeded == flat
        if not succeeded:
            named += 1
            ok = ok and failed and all(f in (1, 2, 3) for f in failed)
        if not ok:
            break
    ok = ok and named > 0
    report(4, "higgs_decompose succeeds iff flat on 100 instances; failures "
              "name conditions (%d failing cases)" % named, ok)


def test_criterion_05_dependence_on_eps():
    r = rng(105)
    ok = True
    for _ in range(50):
        sharp = r.randint(1, 2)
        torus = r.randint(1, 2)
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        conn, _ = random_constant_flat_connection(r, P, K, rank_max=3)
        e0 = random_splitting(r, hs)
        e1 = random_splitting(r, hs)
        delta, identity = splitting_delta(e0, e1, conn)
        ok = ok and identity
        if not ok:
            break
    report(5, "splitting-difference identity exact on 50 hollow instances",
           ok)


def test_criterion_06_canonical_extension():
    r = rng(106)
    ok = True
    zero_dim_preserved = 0
    for trial in range(100):
        rr = r.randint(1, 3)
        core_rank = r.randint(0, 1)
        if core_rank:
            P = AffineMonoid([(1,)])
            K = MonoidIdeal(P, [(2,)] if trial % 2 else [])
        else:
            P = AffineMonoid([], ambient_rank=0)
            K = MonoidIdeal(P, ())
        E = GoodEmbeddingModel(P, K, rr)
        Vp = random_lobject(r, E.monoid_qp, E.ideal_qp, rank_max=4)
        norm, _ = tau_normalize(E, Vp, TAU)
        ext, _ = canonical_extension(E, norm, TAU)
        ok = ok and restrict(E, ext) == norm
        ext2, shifts = canonical_extension(E, restrict(E, ext), TAU)
        ok = ok and ext2 == ext and all(not any(s) for s in shifts)
        ok = ok and check_axioms(ext).ok and ext.rank == Vp.rank
        ok = ok and exponents_report(E, ext, TAU).adapted
        # V0 dimension preserved when tau fixes zero
        zero = (GaussRat(0),) * E.monoid_q.ambient_rank
        d_before = graded_piece(Vp, zero).dimension
        d_after = graded_piece(ext, zero).dimension
        ok = ok and d_before == d_after
        if d_before:
            zero_dim_preserved += 1
        if not ok:
            break
    ok = ok and zero_dim_preserved > 0
    report(6, "restrict/extend round trips, freeness, and V0 dimension on "
              "100 instances", ok)


def test_criterion_07_fuchs_vs_oracle():
    t0 = time.time()
    r = rng(107)
    c = RatFunc.const
    curated = [
        DiffModuleGerm([[c(0), c(0)],
                        [RatFunc.t_power(-1) * c(-2), c(1)]]),  # named regular
        DiffModuleGerm([[RatFunc.t_power(-1)]]),                # named e^{1/t}
        DiffModuleGerm([[c(0)]]),
        DiffModuleGerm([[c(F(1, 2)), c(1)], [c(0), c(F(1, 2))]]),
        DiffModuleGerm([[c(0), RatFunc.t_power(-2)], [c(0), c(0)]]),
    ]
    for _ in range(15):
        curated.append(random_fuchsian_germ(r, rank_max=2))
    for _ in range(6):
        curated.append(random_fuchsian_germ(r, rank_max=3))
    for _ in range(6):
        curated.append(random_irregular_germ(r, rank_max=2))
    for _ in range(3):
        curated.append(random_irregular_germ(r, rank_max=3))
    ok = len(curated) >= 30
    for g in curated:
        ok = ok and is_fuchsian(g) == saturation_is_fuchsian(g)
        if not ok:
            break
    # gauge invariance over 20 random frames with pole order <= 2
    for _ in range(20):
        g = curated[r.randrange(len(curated))]
        n = g.rank
        T = [list(row) for row in rf_identity(n)]
        if n > 1:
            i, j = r.sample(range(n), 2)
            T[i][j] = RatFunc.t_power(r.randint(-2, 2))
        else:
            T[0][0] = RatFunc.t_power(r.randint(-2, 2))
        ok = ok and is_fuchsian(gauge_transform(g, T)) == is_fuchsian(g)
        if not ok:
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(7, "Fuchs test vs saturation oracle on %d germs plus 20 gauges "
              "in %.2fs (< 10s)" % (len(curated), elapsed), ok)


def test_criterion_08_germ_with_center():
    r = rng(108)
    N2 = AffineMonoid([(1, 0), (0, 1)])
    diff = LogDifferentials(N2, MonoidIdeal(N2, []))
    open_face = next(f for f in N2.faces()
                     if sorted(f.generator_indices) == [0])
    ok = True
    from logres.germs import pullback_germ

    for _ in range(50):
        conn, _ = random_constant_flat_connection(r, N2, MonoidIdeal(N2, []),
                                                  rank_max=2)
        m = GermMap(N2, open_face, [random_ratfunc(r, unit=True)],
                    [random_ratfunc(r, unit=True)])
        ok = ok and is_fuchsian(pullback_germ(conn, m))
        if not ok:
            break
    report(8, "50 pullbacks along germs with power-series-unit values are "
              "Fuchsian", ok)


def test_criterion_09_regularity_closure():
    r = rng(109)
    ok = True
    for _ in range(30):
        g1 = random_fuchsian_germ(r, rank_max=2)
        g2 = random_fuchsian_germ(r, rank_max=2)
        ok = ok and is_fuchsian(germ_tensor(g1, g2))
        ok = ok and is_fuchsian(germ_dual(g1))
        ok = ok and is_fuchsian(germ_direct_sum(g1, g2))
        if not ok:
            break
    report(9, "tensor, dual, direct sum of Fuchsian germs stay Fuchsian on "
              "30 pairs", ok)


def test_criterion_10_comparison_suite():
    r = rng(110)
    ok = True
    adapted_count = 0
    for trial in range(100):
        sharp = r.randint(1, 2)
        torus = r.randint(0, 1)
        P, K = mixed_hollow_model(sharp, torus)
        hs = HollowStructure(P, K)
        eps = random_splitting(r, hs)
        window = TAU if trial % 2 else None
        conn, _ = random_constant_flat_connection(r, P, K, rank_max=3,
                                                  window=window)
        rep = comparison_report(conn, eps, TAU)
        ok = ok and rep.de_rham == rep.group_v0
        if rep.adapted:
            adapted_count += 1
            ok = ok and rep.group_v0 == rep.local_system
        if not ok:
            break
    ok = ok and adapted_count >= 25
    # the designed counterexample
    NZ = AffineMonoid([(1, 0), (0, 1), (0, -1)])
    KH = MonoidIdeal(NZ, [(1, 0)])
    dNZ = LogDifferentials(NZ, KH)
    eps = Splitting(HollowStructure(NZ, KH), [[0]])
    rep = comparison_report(LogConnection.constant(dNZ, [[[1]], [[0]]]),
                            eps, TAU)
    ok = ok and rep.de_rham == (0, 0, 0) and rep.group_v0 == (0, 0, 0)
    ok = ok and rep.local_system == (1, 2, 1) and not rep.adapted
    report(10, "comparison sides agree on 100 instances (%d adapted); "
               "counterexample (0,0,0) vs (1,2,1) flagged" % adapted_count,
           ok)


def test_criterion_11_local_system_round_trip():
    r = rng(111)
    ok = True
    for _ in range(100):
        k = r.randint(1, 3)
        W = random_local_system(r, k, dim_max=4, window=TAU)
        V, back = local_system_round_trip(W, TAU)
        ok = ok and back == W and check_axioms(V).ok
        if not ok:
            break
    report(11, "underline after build is the identity on 100 seeded "
               "representations", ok)


DOC_PATHS = [
    demo_path("a1.txt"),
    demo_path("logpoint.txt"),
    demo_path("mixed.txt"),
    demo_path("germs.txt"),
    demo_path("quadric.txt"),
    demo_path("locsys.txt"),
    demo_path("canext.txt"),
]


def test_criterion_12_cli_determinism(tmp_path):
    ok = True
    for path in DOC_PATHS:
        text = open(path).read()
        doc = parse_document(text)
        canon = print_document(doc)
        ok = ok and parse_document(canon) == doc
        ok = ok and print_document(parse_document(canon)) == canon
    commands = [
        ["strata", demo_path("a1.txt")],
        ["faces", demo_path("quadric.txt"), "P"],
        ["rh", "to-lobject", demo_path("logpoint.txt")],
        ["cohomology", "compare", demo_path("mixed.txt")],
        ["germ", "fuchs", demo_path("germs.txt"), "REG"],
        ["locsys", "roundtrip", demo_path("locsys.txt")],
    ]
    for cmd in commands:
        a = run_cli(cmd)
        b = run_cli(cmd)
        ok = ok and a.returncode == 0 and a.stdout == b.stdout
        if not ok:
            break
    report(12, "documents reparse identically and CLI reports are "
               "byte-stable", ok)
