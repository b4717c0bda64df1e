import time
from fractions import Fraction as F

import pytest

from logres.errors import NotAFace
from logres.lattice import snf
from logres.monoids import (AffineMonoid, Face, ModelClass, MonoidIdeal,
                            _check_face, classify_model, faces, localize,
                            quotient, quotient_with_map, radical)

from corpus import rng
from oracles import brute_force_faces, brute_force_radical_membership, \
    fm_is_face_subset, submonoid_box

N = AffineMonoid([(1,)])
N2 = AffineMonoid([(1, 0), (0, 1)])
P112 = AffineMonoid([(1, 0), (1, 1), (1, 2)])
Z = AffineMonoid([(1,), (-1,)])


def spans(P):
    return {f.span for f in faces(P)}


def test_faces_n2():
    idx = [sorted(f.generator_indices) for f in faces(N2)]
    assert idx == [[], [0], [1], [0, 1]]


def test_faces_p112():
    fs = faces(P112)
    idx = [sorted(f.generator_indices) for f in fs]
    assert idx == [[], [0], [2], [0, 1, 2]]
    # (1,1) lies in no proper face
    for f in fs[:-1]:
        assert not f.contains((1, 1))


def test_faces_group():
    fs = faces(Z)
    assert len(fs) == 1 and sorted(fs[0].generator_indices) == [0, 1]


def test_faces_against_brute_force():
    monoids = [N, N2, P112, Z, AffineMonoid([(2, 1), (1, 2)]),
               AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
               AffineMonoid([(1, 0), (0, 1), (-1, 0)])]
    for P in monoids:
        oracle = brute_force_faces(P, bound=6)
        mine = {}
        for f in faces(P):
            box = frozenset(submonoid_box(f.span, P.ambient_rank, 6))
            mine[box] = sorted(set(f.span))
        assert set(mine) == set(oracle), P


def assert_closed_with_min_max(fs):
    sets = [f.generator_indices for f in fs]
    for a in sets:
        for b in sets:
            assert a & b in sets
    assert min(sets, key=len) <= max(sets, key=len)
    # unique minimum and maximum under inclusion
    mn, mx = fs[0].generator_indices, fs[-1].generator_indices
    assert all(mn <= s <= mx for s in sets)


def test_faces_closed_under_intersection_with_min_max():
    for P in (N2, P112, Z):
        assert_closed_with_min_max(faces(P))


def random_face_corpus(r, count=150):
    """Generator lists in Z^1..Z^4 with entries in -2..2: zero vectors,
    duplicates, lineality (a generator and its negative) and spans of
    lower rank than the ambient lattice, plus the empty monoids."""
    out = [AffineMonoid((), ambient_rank=d) for d in range(5)]
    for _ in range(count):
        d = r.randint(1, 4)
        gens = [[r.randint(-2, 2) for _ in range(d)]
                for _ in range(r.randint(1, 6))]
        kind = r.randrange(5)
        if kind == 0:
            gens.append([0] * d)
        elif kind == 1:
            gens.append(list(r.choice(gens)))
        elif kind == 2:
            gens.append([-x for x in r.choice(gens)])
        elif kind == 3 and d > 1:
            dead = r.randrange(d)
            for g in gens:
                g[dead] = 0
        r.shuffle(gens)
        out.append(AffineMonoid(gens))
    return out


def test_faces_match_subset_scan_on_random_corpus():
    # every generator subset accepted by the Fourier-Motzkin certificate,
    # in the (size, sorted indices) order, and nothing else; _check_face
    # rejects exactly the other subsets
    for P in random_face_corpus(rng(4401)):
        n = len(P.generators)
        scan = [frozenset(j for j in range(n) if mask >> j & 1)
                for mask in range(1 << n)]
        accepted = sorted((s for s in scan if fm_is_face_subset(P, s)),
                          key=lambda s: (len(s), sorted(s)))
        fs = faces(P)
        assert [f.generator_indices for f in fs] == accepted, P
        assert_closed_with_min_max(fs)
        for s in scan:
            if s in accepted:
                _check_face(P, Face(P, s))
            else:
                with pytest.raises(NotAFace):
                    _check_face(P, Face(P, s))


def test_faces_of_sixteen_generator_cone_within_budget():
    # the cone over a convex octagon with 8 interior points: 8 rays,
    # 8 two-dimensional faces, the apex and the whole cone
    octagon = [(3, 1), (1, 3), (-1, 3), (-3, 1),
               (-3, -1), (-1, -3), (1, -3), (3, -1)]
    interior = [(0, 0), (1, 0), (0, 1), (-1, 0),
                (0, -1), (1, 1), (-1, -1), (1, -1)]
    P = AffineMonoid([(1, a, b) for a, b in octagon + interior])
    t0 = time.perf_counter()
    fs = faces(P)
    elapsed = time.perf_counter() - t0
    assert len(fs) == 2 * 8 + 2
    assert sorted(len(f.generator_indices) for f in fs) == \
        [0] + [1] * 8 + [2] * 8 + [16]
    assert elapsed < 2.0, elapsed


def test_localize_examples():
    L = localize(N2, faces(N2)[1])
    assert L.contains((-2, 0)) and L.contains((3, 1))
    assert not L.contains((0, -1))
    # oracle: membership in P + F^gp over a box
    F1 = faces(P112)[1]  # <(1,0)>
    L2 = localize(P112, F1)
    for x in [(-1, 0), (0, 1), (0, 2), (-2, 2)]:
        assert L2.contains(x), x
    assert not L2.contains((0, -1))
    # trivial face: localization is P itself
    L3 = localize(P112, faces(P112)[0])
    assert L3.generators == P112.generators


def test_localize_rejects_non_face():
    fake = Face(P112, frozenset([1]))  # <(1,1)> is not a face
    with pytest.raises(NotAFace):
        localize(P112, fake)


def test_quotient_examples():
    Q = quotient(N2, faces(N2)[1])
    assert Q.ambient_rank == 1 and sorted(Q.generators) == [(0,), (1,)]
    Q2 = quotient(P112, faces(P112)[2])   # by <(1,2)>: images 2,1,0
    assert Q2.generators == ((2,), (1,), (0,))
    Q3 = quotient(P112, faces(P112)[3])
    assert Q3.ambient_rank == 0


def test_quotient_sharp_and_torsion_free():
    for P in (N2, P112):
        for f in faces(P):
            Q, qmap = quotient_with_map(P, f)
            assert Q.is_sharp()
            # torsion-freeness visible in the Smith form of the images
            if Q.generators and Q.ambient_rank:
                U, D, V, Ui = snf([list(g) for g in Q.generators])
                divisors = [D[i][i] for i in range(min(len(D), len(D[0])))
                            if D[i][i] != 0]
                assert all(abs(d) == 1 for d in divisors)


def test_quotient_refuses_torsion():
    P = AffineMonoid([(2, 0), (0, 1), (1, 1)])
    face = next(f for f in faces(P) if sorted(f.generator_indices) == [0])
    with pytest.raises(ValueError, match=r"^quotient lattice has torsion "
                       r"\(non-fs input\?\)$"):
        quotient_with_map(P, face)


def test_radical_examples():
    K = MonoidIdeal(N, [(2,)])
    assert radical(N, K).generators == ((1,),)
    K2 = MonoidIdeal(N2, [(2, 0), (0, 3)])
    assert set(radical(N2, K2).generators) == {(1, 0), (0, 1)}
    K0 = MonoidIdeal(N2, [])
    assert radical(N2, K0).generators == ()


def test_radical_properties():
    K = MonoidIdeal(N2, [(2, 0), (0, 3)])
    rad = radical(N2, K)
    rad2 = radical(N2, rad)
    assert set(rad2.generators) == set(rad.generators)
    # K inside sqrt(K), and box agreement with the direct n*x scan
    for x in sorted(N2.elements_in_box(5)):
        if K.contains(x):
            assert rad.contains(x)
        assert rad.contains(x) == brute_force_radical_membership(N2, K, x)


def test_classify_examples():
    assert classify_model(N, MonoidIdeal(N, [(1,)])) == ModelClass(True, True)
    assert classify_model(N, MonoidIdeal(N, [(2,)])) == ModelClass(True, False)
    assert classify_model(N, MonoidIdeal(N, [])) == ModelClass(False, False)


def test_classify_mixed_units():
    NZ = AffineMonoid([(1, 0), (0, 1), (0, -1)])
    hollow = MonoidIdeal(NZ, [(1, 0)])
    assert classify_model(NZ, hollow) == ModelClass(True, True)
    sq = MonoidIdeal(NZ, [(2, 0)])
    assert classify_model(NZ, sq) == ModelClass(True, False)


def test_sharpness_and_saturation_queries():
    assert N2.is_sharp() and not Z.is_sharp()
    # saturation is exact: <(2,0),(0,1),(1,2)> misses (1,1), whose double
    # is in it; <(2,0),(-2,0),(1,1),(0,1)> misses (1,0); <(2,0),(1,1),(0,2)>
    # and <2> are saturated in their index-2 groups
    for gens in ([(2,), (3,)], [(2, 0), (0, 1), (1, 2)],
                 [(2, 0), (-2, 0), (1, 1), (0, 1)], [(2, 0), (3, 0), (0, 1)]):
        assert not AffineMonoid(gens).is_saturated(), gens
    for P in (N2, P112, Z, AffineMonoid([(2,)]),
              AffineMonoid([(2, 0), (1, 1), (0, 2)]),
              AffineMonoid([(1, 0), (0, 1), (0, -1)]),
              AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
              AffineMonoid((), ambient_rank=2)):
        assert P.is_saturated(), P


def test_face_lattice_dot():
    dot = N2.face_lattice_dot()
    assert dot.startswith("digraph") and dot.count("->") == 4
