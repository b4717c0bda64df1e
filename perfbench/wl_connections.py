"""Workload `connections`: constant flat connections on free and hollow
models, pushed through the local RH correspondence and the algorithms
built on it.

Every instance is a coupling-free graded module written down class by
class (degree vector plus commuting nilpotents), so the connection
U_k = -(deg_k I) - N_k and the module the correspondence must return are
both known before the library sees them.  The mix:

- rh        to_lobject / from_lobject round trips at ranks 1-8
- nonsplit  a companion block of x^2 - p next to rational blocks; the
            root search must come back empty-handed and to_lobject must
            raise IrrationalEigenvalue
- compare   comparison_report on N^a x Z^b hollow models, half of them
            with every degree inside the tau window (-1, 0]
- canext    tau_normalize, canonical_extension, restrict round trips
- higgs     higgs_decompose on commuting (flat) and non-commuting
            (non-flat, must raise ConditionsFailed) constant data
"""

import itertools
import math
from fractions import Fraction

from common import Draw, Op, block_diag, commute, frac, mat_mul, require

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
          61, 67, 71, 73, 79, 83, 89, 97)

# One round holds every stratum (kind plus the size that drives its cost)
# in fixed proportion; a seed's list is ROUNDS rounds of fresh instances,
# about 10 s of work, and a run times whole passes over it, so seeds
# differ in the random entries, never in how much of each kind of work
# they time.  With 16 rounds the 11th-largest time falls inside the
# cluster of rank-8 round trips; with 8 it fell where the rank-8 and
# rank-7 times overlap, and jumped between them from seed to seed.
RH_RANKS = range(1, 9)
NONSPLIT_RESTS = range(1, 5)      # rational part beside x^2 - p
ROUNDS = 16


# Denominators stay at 1 or 2: the root search scales by their lcm, and
# larger ones make the cost of equal-rank instances spread by 2-5x, which
# would drown run-to-run comparisons in seed-to-seed noise.
def _scalar(d, imaginary):
    return (frac(d.value, 3, 2),
            frac(d.value, 3, 2) if imaginary else Fraction(0))


def _nilpotents(d, size, count):
    """`count` commuting nilpotent size x size matrices: polynomials
    without constant term in one shared superdiagonal matrix."""
    base = [[ZERO] * size for _ in range(size)]
    for i in range(size - 1):
        base[i][i + 1] = (Fraction(d.value.choice((-2, -1, 1, 2))),
                          Fraction(0))
    powers = [base]
    for _ in range(size - 2):
        powers.append(mat_mul(powers[-1], base))
    out = []
    for _ in range(count):
        acc = [[ZERO] * size for _ in range(size)]
        for p in powers:
            c = Fraction(d.value.randint(-2, 2))
            acc = [[(a[0] + c * b[0], a[1] + c * b[1]) for a, b in zip(ra, rb)]
                   for ra, rb in zip(acc, p)]
        out.append(acc)
    return out


def _classes(d, rank, dirs, degree, imaginary_prob=0.25):
    """Split `rank` into classes of size <= 3 with distinct degrees drawn
    by `degree(d, imaginary)`; classes come back in canonical (degree)
    order.  Which coordinates are imaginary is part of the shape."""
    sizes = []
    left = rank
    while left:
        sizes.append(d.shape.randint(1, min(3, left)))
        left -= sizes[-1]
    flags = [[d.shape.random() < imaginary_prob for _ in range(dirs)]
             for _ in sizes]
    degs = []
    for imag in flags:
        deg = None
        while deg is None or deg in degs:
            deg = tuple(degree(d, im) for im in imag)
        degs.append(deg)
    classes = [(deg, size, _nilpotents(d, size, dirs))
               for deg, size in zip(degs, sizes)]
    classes.sort(key=lambda c: c[0])
    return classes


def _module_data(classes, dirs):
    """(degree per generator, log matrix per direction) of the module."""
    degrees = []
    for d, size, _ in classes:
        degrees.extend([d] * size)
    mats = [block_diag([c[2][k] for c in classes]) for k in range(dirs)]
    return degrees, mats


def _connection_data(classes, dirs):
    """U_k = -(deg_k I) - N_k, block by block."""
    mats = []
    for k in range(dirs):
        blocks = []
        for d, size, nils in classes:
            lam = d[k]
            blocks.append([[(-(lam[0] if i == j else 0) - x[0],
                             -(lam[1] if i == j else 0) - x[1])
                            for j, x in enumerate(row)]
                           for i, row in enumerate(nils[k])])
        mats.append(block_diag(blocks))
    return mats


# -- builders: plain data -> fresh library objects -------------------------------

def _gr(L, x):
    return L.field.GaussRat(x[0], x[1])


def _matrix(L, m):
    return L.linalg.Matrix([[_gr(L, x) for x in row] for row in m])


def _model(L, sharp, torus, hollow):
    d = sharp + torus
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    gens = unit[:sharp] + [g for e in unit[sharp:]
                           for g in (e, tuple(-x for x in e))]
    P = L.monoids.AffineMonoid(gens, ambient_rank=d)
    K = L.monoids.MonoidIdeal(P, unit[:sharp] if hollow else [],
                              validate=False)
    return P, K


def _connection(L, model, mats):
    P, K = _model(L, *model)
    diff = L.connections.LogDifferentials(P, K)
    return L.connections.LogConnection.constant(diff, [_matrix(L, m)
                                                       for m in mats])


def _lobject(L, model, degrees, mats):
    P, K = _model(L, *model)
    return L.lobjects.LObject(P, K, [tuple(_gr(L, x) for x in d)
                                     for d in degrees],
                              [_matrix(L, m) for m in mats])


def _splitting(L, model, mono, units):
    P, K = _model(L, *model)
    hs = L.strata.HollowStructure(P, K)
    return L.strata.Splitting(hs, mono, [_gr(L, u) for u in units])


def _shift_degrees(L, V):
    """The same module with every degree moved by 1: a wrong answer."""
    return L.lobjects.LObject(V.monoid, V.ideal,
                              [tuple(x + 1 for x in d) for d in V.degrees],
                              V.log_matrices)


def _in_window(x):
    return -1 < x[0] <= 0


# -- operation kinds ---------------------------------------------------------------

def _rh(L, d, rank):
    dirs = d.shape.choice((2, 3))
    model = (dirs, 0, d.shape.random() < 0.5)
    classes = _classes(d, rank, dirs, _scalar)
    degrees, nils = _module_data(classes, dirs)
    umats = _connection_data(classes, dirs)

    def build():
        return (_connection(L, model, umats), _lobject(L, model, degrees, nils))

    def call(conn, V):
        return L.rh.to_lobject(conn), L.rh.from_lobject(V)

    def check(res):
        # both round trips: to_lobject(conn) is the module the connection
        # was written from, and from_lobject(V) is that connection
        return (res[0] == _lobject(L, model, degrees, nils)
                and res[1] == _connection(L, model, umats))

    return Op("rh", build, call, check,
              corrupt=lambda res: (_shift_degrees(L, res[0]), res[1]))


def _nonsplit(L, d, rest_rank):
    dirs = 2
    model = (dirs, 0, False)
    p = Fraction(d.value.choice(PRIMES))
    companion = [[ZERO, (p, Fraction(0))], [ONE, ZERO]]  # charpoly x^2 - p
    rest = _classes(d, rest_rank, 1, _scalar, 0.0)
    u1 = block_diag([companion, _connection_data(rest, 1)[0]])
    a, b = frac(d.value, nonzero=True), frac(d.value)
    u2 = [[(a * x[0] + (b if i == j else 0), a * x[1]) for j, x in enumerate(row)]
          for i, row in enumerate(u1)]
    require(commute(u1, u2), "x^2 - p block commutes")

    def build():
        return (_connection(L, model, [u1, u2]),)

    def call(conn):
        return L.rh.to_lobject(conn)

    return Op("nonsplit", build, call, expect=L.errors.IrrationalEigenvalue)


def _compare(L, d, adapted):
    sharp, torus = d.shape.randint(1, 2), d.shape.randint(0, 1)
    dirs = sharp + torus
    model = (sharp, torus, True)
    if adapted:
        def degree(d, imaginary):
            den = d.value.randint(1, 4)
            return (Fraction(-d.value.randrange(den), den),
                    frac(d.value, 3, 2) if imaginary else Fraction(0))
    else:
        degree = _scalar
    classes = _classes(d, d.shape.randint(1, 4), dirs, degree)
    if not adapted and all(_in_window(x) for c in classes for x in c[0]):
        deg, size, nils = classes[0]
        classes[0] = (((deg[0][0] + 1, deg[0][1]),) + deg[1:], size, nils)
    expect_adapted = all(_in_window(x) for c in classes for x in c[0])
    umats = _connection_data(classes, dirs)
    mono = [[d.value.randint(-3, 3) for _ in range(torus)]
            for _ in range(sharp)]
    units = [(frac(d.value, 4, 4, nonzero=True), Fraction(0))
             for _ in range(sharp)]

    def build():
        return (_connection(L, model, umats), _splitting(L, model, mono, units),
                L.canext.TauSection())

    def call(conn, eps, tau):
        return L.cohomology.comparison_report(conn, eps, tau)

    def check(rep):
        return (rep.adapted == expect_adapted
                and rep.de_rham == rep.group_v0
                and (not rep.adapted or rep.group_v0 == rep.local_system))

    def corrupt(rep):
        return L.cohomology.CohomologyReport(
            (rep.de_rham[0] + 1,) + rep.de_rham[1:], rep.group_v0,
            rep.local_system, rep.adapted)

    return Op("compare", build, call, check, corrupt=corrupt)


def _canext(L, d):
    core = d.shape.randint(0, 1)
    inf = d.shape.randint(1, 2)
    kgens = [(2,)] if core and d.shape.random() < 0.5 else []
    classes = _classes(d, d.shape.randint(1, 4), core + inf, _scalar, 0.15)
    degrees, nils = _module_data(classes, core + inf)
    # tau for the window (-1, 0] moves each infinity coordinate by -ceil(re)
    expected = [d[:core] + tuple((x[0] - math.ceil(x[0]), x[1]) for x in d[core:])
                for d in degrees]

    def embedding():
        P = L.monoids.AffineMonoid([(1,)] * core, ambient_rank=core)
        K = L.monoids.MonoidIdeal(P, kgens, validate=False)
        return L.canext.GoodEmbeddingModel(P, K, inf)

    def build():
        E = embedding()
        V = L.lobjects.LObject(E.monoid_qp, E.ideal_qp,
                               [tuple(_gr(L, x) for x in d) for d in degrees],
                               [_matrix(L, m) for m in nils])
        return E, V, L.canext.TauSection()

    def call(E, V, tau):
        norm, _ = L.canext.tau_normalize(E, V, tau)
        ext, _ = L.canext.canonical_extension(E, norm, tau)
        return norm, L.canext.restrict(E, ext)

    def check(res):
        norm, back = res
        want = tuple(tuple(_gr(L, x) for x in d) for d in expected)
        return back == norm and norm.degrees == want

    return Op("canext", build, call, check,
              corrupt=lambda res: (res[0], _shift_degrees(L, res[1])))


def _higgs(L, d, flat):
    sharp, torus = d.shape.choice(((2, 0), (1, 1), (2, 1)))
    dirs = sharp + torus
    model = (sharp, torus, True)
    if flat:
        umats = _connection_data(
            _classes(d, d.shape.randint(1, 3), dirs, _scalar), dirs)
    else:
        n = d.shape.randint(2, 3)
        lams = []
        while len(lams) < n:
            x = frac(d.value)
            if x not in lams:
                lams.append(x)
        umats = []
        for k in range(dirs):
            diag = lams if k == 0 else [frac(d.value) for _ in range(n)]
            m = [[(diag[i] if i == j else Fraction(0), Fraction(0))
                  for j in range(n)] for i in range(n)]
            umats.append(m)
        # [diag(lams), c E_01] = c (lams[0] - lams[1]) E_01, never zero
        umats[1][0][1] = (frac(d.value, nonzero=True), Fraction(0))
    require(all(commute(a, b) for a in umats for b in umats) == flat,
            "higgs input is flat exactly when asked")
    mono = [[d.value.randint(-3, 3) for _ in range(torus)]
            for _ in range(sharp)]
    units = [(frac(d.value, 4, 4, nonzero=True), Fraction(0))
             for _ in range(sharp)]

    def build():
        return (_connection(L, model, umats), _splitting(L, model, mono, units))

    def call(conn, eps):
        return L.rh.higgs_decompose(conn, eps)

    # The residues are the sharp-direction matrices and the base
    # connection in torus direction i is U_i plus the splitting's
    # character applied to them.  The sharp monoid N^sharp has the unit
    # vectors as its basis, but the library may list them in any order
    # (the rows of the splitting follow that order), so every order is
    # tried.
    def expected(order):
        residues = [umats[j] for j in order]
        base = []
        for i in range(torus):
            m = umats[sharp + i]
            for j, r in enumerate(residues):
                c = Fraction(mono[j][i])
                m = [[(x[0] + c * y[0], x[1] + c * y[1])
                      for x, y in zip(rx, ry)] for rx, ry in zip(m, r)]
            base.append(m)
        return residues, base

    def check(hd):
        got = hd.residue_matrices(), hd.base.constant_matrices()
        return any(got == tuple([_matrix(L, m) for m in part]
                                for part in expected(order))
                   for order in itertools.permutations(range(sharp)))

    def corrupt(hd):
        # one residue entry moved by 1
        res = [[list(row) for row in r] for r in hd.residues]
        res[0][0][0] = res[0][0][0] + L.connections.MonPoly.constant(1, torus)
        return L.rh.HiggsData(hd.base, res)

    if flat:
        return Op("higgs", build, call, check, corrupt=corrupt)
    return Op("higgs", build, call, expect=L.errors.ConditionsFailed)


def _round(L, d):
    ops = [_rh(L, d, rank) for rank in RH_RANKS]
    ops += [_nonsplit(L, d, rest) for rest in NONSPLIT_RESTS]
    ops += [_compare(L, d, True), _compare(L, d, False), _canext(L, d),
            _higgs(L, d, True), _higgs(L, d, False)]
    d.value.shuffle(ops)
    return ops


def prepare(L, seed, ctx):
    d = Draw("connections", seed, "timed")
    rounds = [_round(L, d) for _ in range(ROUNDS)]
    return rounds, _round(L, Draw("connections", seed, "warmup"))
