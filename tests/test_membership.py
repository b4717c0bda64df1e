"""Exact monoid membership and saturation, against independent oracles.

Membership is checked against the box-bounded depth-first search of
`oracles.box_search_contains` at a box well beyond the queries, and
against Sylvester's closed form for numerical semigroups <a, b>.
Saturation is checked against a scan of a box for a group element
outside P with a multiple inside P.
"""

import time
from itertools import product
from math import gcd

from logres.monoids import AffineMonoid

from corpus import rng
from oracles import box_search_contains

# units: Z x N; torsion in P^gp / units: (1, 0) is in P^gp = Z^2 but
# 2 * (1, 0) is a unit; non-saturated: (1, 0) is missing
NAMED = [
    AffineMonoid([(1, 0), (0, 1), (0, -1)]),
    AffineMonoid([(2, 0), (-2, 0), (1, 1), (0, 1)]),
    AffineMonoid([(2, 0), (3, 0), (0, 1)]),
    AffineMonoid([(1, 0), (1, 1), (1, 2)]),
    AffineMonoid([(2, 1), (1, 2), (-1, -1), (1, 1)]),
    AffineMonoid([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]),
    AffineMonoid([(1, 0, 0), (-1, 0, 0), (0, 2, 1), (0, 1, 2)]),
]


def membership_corpus(r):
    """(monoid, query, box) triples: every named monoid on a grid of
    queries, then random monoids in Z^2 and Z^3, a third of them with a
    unit pair, queried at random points and at negated generator sums
    (outside the cone unless the generators are units)."""
    out = []
    for P in NAMED:
        d = P.ambient_rank
        grid = [-3, -1, 0, 1, 2, 4] if d == 2 else [-2, 0, 1, 3]
        out += [(P, x, 16 if d == 2 else 8) for x in product(grid, repeat=d)]
    for _ in range(60):
        d = r.choice((2, 2, 3))
        gens = [tuple(r.randint(-2, 2) for _ in range(d))
                for _ in range(r.randint(2, 4))]
        if r.random() < 0.35:
            gens.append(tuple(-v for v in r.choice(gens)))
        P = AffineMonoid(gens)
        span = 5 if d == 2 else 3
        queries = [tuple(r.randint(-span, span) for _ in range(d))
                   for _ in range(3)]
        queries.append(tuple(-sum(g[i] for g in gens) for i in range(d)))
        out += [(P, x, 20 if d == 2 else 9) for x in queries]
    return out


def test_membership_matches_box_search_on_seeded_corpus():
    cases = membership_corpus(rng(2201))
    assert len(cases) >= 300
    found = set()
    for P, x, box in cases:
        got = P.contains(x)
        assert got == box_search_contains(P, x, box), (P, x)
        found.add(got)
    assert found == {True, False}


def test_membership_named_cases():
    torsion = NAMED[1]
    assert not torsion.contains((1, 0)) and torsion.contains((2, 0))
    assert torsion.contains((1, 1)) and torsion.contains((-1, 1))
    assert not torsion.contains((0, -1))
    skipped = NAMED[2]
    assert [x for x in range(8) if skipped.contains((x, 0))] == \
        [0, 2, 3, 4, 5, 6, 7]
    assert not skipped.contains((1, 5)) and not skipped.contains((4, -1))


def sylvester_member(x, a, b):
    """x in <a, b> for coprime a, b: x = a*u + b*v with v the residue of
    x / b modulo a, so x is a member iff u >= 0."""
    v = x * pow(b, -1, a) % a
    return x >= b * v


def test_membership_numerical_semigroups_closed_form():
    for a in range(2, 8):
        for b in range(a + 1, 12):
            if gcd(a, b) != 1:
                continue
            P = AffineMonoid([(a,), (b,)])
            frobenius = a * b - a - b
            for x in range(-3, frobenius + 4):
                assert P.contains((x,)) == sylvester_member(x, a, b), (a, b, x)
            assert not P.contains((frobenius,))


def test_membership_exact_without_bound():
    # 1 = 3 + 3 - 5, but every order of those summands leaves a remainder
    # outside [-2, 2], where a box search at that box answers False
    P = AffineMonoid([(3,), (-5,)])
    assert all(P.contains((x,)) for x in range(-20, 21))


def test_membership_off_the_group_is_immediate():
    # (601, 601) is in the cone but not in P^gp = (2Z)^2: the answer needs
    # no search of the polytope below it
    P = AffineMonoid([(2, 0), (0, 2)])
    start = time.perf_counter()
    assert not P.contains((601, 601))
    assert time.perf_counter() - start < 0.005
    assert P.contains((600, 600))


def box_scan_saturated(P, box=4, multiple=8):
    """False iff some x of P^gp with |x_i| <= box is outside P while n*x
    is inside P for some 2 <= n <= multiple."""
    for x in product(range(-box, box + 1), repeat=P.ambient_rank):
        if not P.in_group(x) or P.contains(x):
            continue
        if any(P.contains(tuple(n * c for c in x))
               for n in range(2, multiple + 1)):
            return False
    return True


def test_in_group_tests_the_lattice():
    # P^gp = {(a, b): a + b even} has rank 2 but is not Z^2
    P = AffineMonoid([(2, 0), (1, 1), (0, 2)])
    assert not P.in_group((1, 0)) and not P.in_group((0, 1))
    assert P.in_group((1, -1)) and P.in_group((3, 5))
    assert not AffineMonoid([(2,)]).in_group((1,))
    assert P.is_saturated()   # 2 * (0, 1) is in P, but (0, 1) is not in P^gp


def test_saturation_matches_box_scan_on_seeded_corpus():
    # Generators in [-2, 2]^2: a non-member point of a half-open
    # parallelepiped of two generators lies in [-4, 4]^2 and has its
    # |det| <= 8 multiple in P, so the scan finds a witness whenever P is
    # not saturated
    r = rng(2202)
    corpus = [[(2, 0), (0, 1), (1, 2)], [(2, 0), (-2, 0), (1, 1), (0, 1)],
              [(2, 0), (1, 1), (0, 2)]]
    for _ in range(40):
        gens = [(r.randint(-2, 2), r.randint(-2, 2))
                for _ in range(r.randint(1, 4))]
        if r.random() < 0.3:
            gens.append(tuple(-v for v in r.choice(gens)))
        corpus.append(gens)
    for gens in corpus:
        P = AffineMonoid(gens)
        assert P.is_saturated() == box_scan_saturated(P), gens
