"""Seeded random instance generators for the randomized test corpus.

Everything is driven by random.Random with an explicit seed; the
environment variable LOGRES_SEED (default 0) offsets the seeds so the
whole corpus can be re-rolled in one place.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from logres.connections import LogConnection, LogDifferentials, MonPoly
from logres.field import GaussRat, ZERO, ONE
from logres.germs import DiffModuleGerm, RatFunc, RF_ZERO, poly_const
from logres.linalg import Matrix
from logres.lobjects import LObject
from logres.monoids import AffineMonoid, MonoidIdeal
from logres.rh import from_lobject
from logres.strata import HollowStructure, Splitting


def seed_base():
    return int(os.environ.get("LOGRES_SEED", "0"))


def rng(offset=0):
    return random.Random(seed_base() * 1_000_003 + offset)


def random_rational(r, denom_max=6, num_max=6):
    den = r.randint(1, denom_max)
    num = r.randint(-num_max, num_max)
    return Fraction(num, den)


def random_scalar(r, denom_max=6, num_max=6, imaginary_prob=0.25):
    re = random_rational(r, denom_max, num_max)
    im = random_rational(r, denom_max, num_max) if r.random() < imaginary_prob \
        else Fraction(0)
    return GaussRat(re, im)


def free_model(s, hollow=False):
    """The monoid N^s with the empty or hollow ideal."""
    gens = []
    for i in range(s):
        e = [0] * s
        e[i] = 1
        gens.append(tuple(e))
    P = AffineMonoid(gens, ambient_rank=s)
    K = MonoidIdeal(P, gens if hollow else [], validate=False)
    return P, K


def mixed_hollow_model(sharp, torus):
    """N^sharp x Z^torus with the hollow ideal (all non-units)."""
    d = sharp + torus
    gens = []
    kgens = []
    for i in range(sharp):
        e = [0] * d
        e[i] = 1
        gens.append(tuple(e))
        kgens.append(tuple(e))
    for i in range(torus):
        e = [0] * d
        e[sharp + i] = 1
        gens.append(tuple(e))
        gens.append(tuple(-x for x in e))
    P = AffineMonoid(gens, ambient_rank=d)
    return P, MonoidIdeal(P, kgens, validate=False)


def _commuting_nilpotents(r, dim, count):
    """A commuting family of strictly upper-triangular dim x dim matrices:
    scalar polynomials in one shared nilpotent."""
    base = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim - 1):
        base[i][i + 1] = GaussRat(r.randint(-2, 2))
    base = Matrix(base)
    powers = [Matrix.identity(dim), base]
    for _ in range(dim):
        powers.append(powers[-1] * base)
    out = []
    for _ in range(count):
        acc = Matrix.zero(dim)
        for p in range(1, dim):
            c = GaussRat(Fraction(r.randint(-2, 2)))
            acc = acc + powers[p].scale(c)
        out.append(acc)
    return out


def random_lobject(r, monoid, ideal, rank_max=6, denom_max=6,
                   imaginary_prob=0.15, window=None):
    """A coupling-free object in canonical (degree-sorted) order.

    window, when given, truncates every degree coordinate through the tau
    section, producing a tau-adapted object."""
    s = monoid.ambient_rank
    n = r.randint(1, rank_max)
    # partition n into classes
    sizes = []
    left = n
    while left:
        d = r.randint(1, min(3, left))
        sizes.append(d)
        left -= d
    degs = set()
    attempts = 0
    while len(degs) < len(sizes):
        cand = tuple(random_scalar(r, denom_max=denom_max, num_max=3,
                                   imaginary_prob=imaginary_prob)
                     for _ in range(s))
        if window is not None:
            cand = tuple(window(x) for x in cand)
        attempts += 1
        if attempts > 200:
            raise RuntimeError("could not draw distinct degrees")
        degs.add(cand)
    degs = sorted(degs, key=lambda d: tuple(x.sort_key() for x in d))
    degrees = [deg for size, deg in zip(sizes, degs) for _ in range(size)]
    fams = [_commuting_nilpotents(r, size, s) for size in sizes]
    mats = [Matrix.block_diag([fam[k] for fam in fams]) for k in range(s)]
    V = LObject(monoid, ideal, degrees, mats)
    return V.canonical_sort()[0]


def random_constant_flat_connection(r, monoid, ideal, rank_max=6,
                                    denom_max=6, imaginary_prob=0.15,
                                    window=None):
    """Flat constant connection in canonical block form (so the RH round
    trip is a literal identity), via the inverse functor."""
    V = random_lobject(r, monoid, ideal, rank_max=rank_max,
                       denom_max=denom_max, imaginary_prob=imaginary_prob,
                       window=window)
    return from_lobject(V), V


def random_splitting(r, hs: HollowStructure):
    mono = [[r.randint(-3, 3) for _ in range(hs.torus_rank)]
            for _ in range(hs.sharp_rank)]
    units = []
    while len(units) < hs.sharp_rank:
        c = random_scalar(r, denom_max=4, num_max=4)
        if not c.is_zero():
            units.append(c)
    return Splitting(hs, mono, units)


def random_monomial_connection(r, monoid, ideal, hs: HollowStructure,
                               rank=2, flat=True):
    """Connection with unit-monomial coefficients on a hollow model.

    A_k = d_k * I + c_k * x^mu * E with E strictly triangular and mu a unit
    monomial is integrable iff c is proportional to the weight vector of
    mu; flat picks the proportional family, non-flat perturbs it off the
    line (guaranteed non-integrable when the model has >= 2 directions)."""
    d = monoid.ambient_rank
    diff = LogDifferentials(monoid, ideal)
    n = max(2, rank)
    if hs.torus_rank == 0:
        conn, _ = random_constant_flat_connection(r, monoid, ideal,
                                                  rank_max=n)
        return conn
    # a random nonzero unit-lattice monomial, in ambient coordinates
    while True:
        coeffs = [r.randint(-2, 2) for _ in range(hs.torus_rank)]
        if any(coeffs):
            break
    mu = tuple(sum(hs.Uinv[row][i] * coeffs[i] for i in range(hs.torus_rank))
               for row in range(d))
    alpha = GaussRat(Fraction(r.randint(1, 3)))
    cvec = [alpha * GaussRat(mu[k]) for k in range(d)]
    if not flat and d >= 2:
        support = next((k for k in range(d) if mu[k] != 0), 0)
        l0 = (support + 1) % d
        cvec[l0] = cvec[l0] + GaussRat(1)
    diag = [GaussRat(random_rational(r, 4, 3)) for _ in range(d)]
    i0 = r.randrange(n - 1)
    mats = []
    for k in range(d):
        m = [[MonPoly() for _ in range(n)] for _ in range(n)]
        for a in range(n):
            m[a][a] = MonPoly.constant(diag[k], d)
        if not cvec[k].is_zero():
            m[i0][i0 + 1] = m[i0][i0 + 1] + MonPoly.monomial(mu, cvec[k])
        mats.append(m)
    return LogConnection(diff, mats, rank=n)


def random_ratfunc(r, deg_max=2, pole_max=1, denom_max=3, unit=False):
    """Random rational function; unit=True forces nonzero constant terms in
    numerator and denominator (a power-series unit)."""
    while True:
        num = [GaussRat(random_rational(r, denom_max, 3))
               for _ in range(r.randint(1, deg_max + 1))]
        if unit and num[0].is_zero():
            num[0] = ONE
        if any(not x.is_zero() for x in num):
            break
    den = [ONE]
    if not unit and pole_max and r.random() < 0.5:
        den = [ZERO] * r.randint(1, pole_max) + [ONE]
    return RatFunc(num, den)


def random_fuchsian_germ(r, rank_max=2):
    """Gauge transform of a constant system by a unipotent upper-triangular
    frame (det T = 1), so the result is Fuchsian by construction."""
    n = r.randint(1, rank_max)
    const = [[RatFunc(poly_const(random_rational(r, 4, 3)))
              if i == j or r.random() < 0.4 else RF_ZERO
              for j in range(n)] for i in range(n)]
    g = DiffModuleGerm(const)
    from logres.germs import gauge_transform, rf_identity

    T = [list(row) for row in rf_identity(n)]
    for _ in range(n):
        i = r.randrange(n)
        j = r.randrange(n)
        if i != j:
            T[min(i, j)][max(i, j)] = RatFunc.t_power(r.randint(-1, 2))
    return gauge_transform(g, T)


def random_irregular_germ(r, rank_max=2):
    n = r.randint(1, rank_max)
    mats = [[RF_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if r.random() < 0.5:
                mats[i][j] = RatFunc(poly_const(random_rational(r, 3, 2)))
    i = r.randrange(n)
    mats[i][i] = mats[i][i] + RatFunc.t_power(-1)
    return DiffModuleGerm(mats)


def random_local_system(r, num_generators, dim_max=4, window=None):
    """Log-coordinate representation of Z^r; labels tau-normalized into the
    default window when window is given."""
    n = r.randint(1, dim_max)
    sizes = []
    left = n
    while left:
        d = r.randint(1, min(2, left))
        sizes.append(d)
        left -= d
    blocks = []
    used = set()
    for size in sizes:
        while True:
            labels = tuple(random_scalar(r, denom_max=6, num_max=3,
                                         imaginary_prob=0.1)
                           for _ in range(num_generators))
            if window is not None:
                labels = tuple(window(x) for x in labels)
            if labels not in used:
                used.add(labels)
                break
        nils = _commuting_nilpotents(r, size, num_generators)
        blocks.append((labels, nils))
    from logres.cohomology import LocalSystem

    return LocalSystem(num_generators, blocks).sorted_blocks()
