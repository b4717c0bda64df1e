"""Log stratification and splitting schemes of a model, splittings of
hollow models, and the pullback turning log connections into classical
torus connections.

The stratification has one component per face disjoint from the ideal;
the component of the splitting scheme over the stratum of F adds a torsor
torus whose rank is the rank of (P/F)^gp.  On a hollow model a splitting
is recorded relative to a fixed integral section of the sharpening: a
group map from the sharp lattice into the unit-torus character lattice
plus one nonzero constant per sharp basis vector.  Constants drop out of
every dlog, so the pullback and the splitting-difference map only see the
monomial part; the constants are kept because they are part of the
splitting datum.
"""

from __future__ import annotations

from .connections import (LogConnection, LogDifferentials, MonPoly, combine,
                          is_flat)
from .errors import ModelMismatch, NotFlat, NotHollow
from .field import ONE, as_scalar
from .lattice import hnf_rows, saturated_basis_change
from .monoids import AffineMonoid, Face, MonoidIdeal, classify_model, quotient_with_map


class StratumDescriptor:
    """One component of the stratification, with its splitting-fiber rank."""

    def __init__(self, face: Face, torus_rank, log_rank, induced_ideal,
                 quotient_monoid):
        self.face = face
        self.torus_rank = torus_rank
        self.log_rank = log_rank
        self.sharp_fiber_rank = log_rank
        self.induced_ideal = induced_ideal
        self.quotient_monoid = quotient_monoid

    def __repr__(self):
        return "StratumDescriptor(face=%r, torus_rank=%d, log_rank=%d)" % (
            sorted(self.face.generator_indices), self.torus_rank, self.log_rank)


def strata_decomposition(P: AffineMonoid, K: MonoidIdeal):
    """One descriptor per face disjoint from K, ordered by the face order."""
    out = []
    total = P.group_rank()
    for F in P.faces():
        if not F.is_disjoint_from(K):
            continue
        Q, qmap = quotient_with_map(P, F)
        induced = MonoidIdeal(Q, tuple(qmap.apply(k) for k in K.generators),
                              validate=False)
        tr = F.group_rank()
        out.append(StratumDescriptor(F, tr, total - tr, induced, Q))
    return out


class HollowStructure:
    """Adapted integral coordinates of a hollow model (P, K).

    Splits Z^d = unit lattice M (rank t) + a section of the sharp quotient
    (rank d - t) by one Smith reduction; provides the coordinate changes
    used by pullbacks.
    """

    def __init__(self, monoid: AffineMonoid, ideal: MonoidIdeal):
        if not classify_model(monoid, ideal).hollow:
            raise NotHollow("model is not hollow")
        self.monoid = monoid
        self.ideal = ideal
        d = monoid.ambient_rank
        unit = monoid.unit_face()
        # y = U x: adapted coordinates, the unit lattice M first
        t, self.U, self.Uinv = saturated_basis_change(
            hnf_rows(unit.span), d, "unit lattice is not saturated in Z^d")
        self.torus_rank = t
        self.sharp_rank = d - t
        self.dim = d
        qgens = tuple(self.sharp_coords(g) for g in monoid.generators)
        self.sharp_monoid = AffineMonoid(qgens, ambient_rank=self.sharp_rank)
        self.torus_monoid = _torus_monoid(t)

    def adapted(self, x):
        return tuple(sum(self.U[i][j] * x[j] for j in range(self.dim))
                     for i in range(self.dim))

    def unit_coords(self, x):
        y = self.adapted(x)
        if any(y[self.torus_rank:]):
            raise ValueError("%r is not in the unit lattice" % (x,))
        return y[: self.torus_rank]

    def sharp_coords(self, x):
        return self.adapted(x)[self.torus_rank:]

    def torus_differentials(self):
        return LogDifferentials(self.torus_monoid,
                                MonoidIdeal(self.torus_monoid, ()))


def _torus_monoid(t):
    gens = []
    for i in range(t):
        e = [0] * t
        e[i] = 1
        gens.append(tuple(e))
        gens.append(tuple(-x for x in e))
    return AffineMonoid(gens, ambient_rank=t)


class Splitting:
    """Splitting of a hollow model's log structure.

    monomial_part -- integer matrix, one row per sharp basis vector, giving
                     the unit-torus character attached to that class
    unit_part     -- one nonzero constant per sharp basis vector
    """

    def __init__(self, structure: HollowStructure, monomial_part, unit_part=None):
        self.structure = structure
        mp = [tuple(int(x) for x in row) for row in monomial_part]
        if len(mp) != structure.sharp_rank or any(
                len(r) != structure.torus_rank for r in mp):
            raise ValueError("monomial part must be sharp_rank x torus_rank")
        self.monomial_part = tuple(mp)
        if unit_part is None:
            unit_part = [ONE] * structure.sharp_rank
        self.unit_part = tuple(as_scalar(c) for c in unit_part)
        if len(self.unit_part) != structure.sharp_rank:
            raise ValueError("one unit constant per sharp basis vector")
        if any(c.is_zero() for c in self.unit_part):
            raise ValueError("unit part entries must be nonzero")

    def __repr__(self):
        return "Splitting(monomial_part=%r)" % (list(map(list,
                                                         self.monomial_part)),)

    def __eq__(self, other):
        return (isinstance(other, Splitting)
                and self.structure.monoid == other.structure.monoid
                and self.structure.ideal == other.structure.ideal
                and self.monomial_part == other.monomial_part
                and self.unit_part == other.unit_part)

    def __hash__(self):
        return hash((self.structure.monoid, self.structure.ideal,
                     self.monomial_part, self.unit_part))


def splitting_cover(P: AffineMonoid):
    """The splitting-scheme component over the closed stratum of a sharp P.

    Returns (monoid, ideal, structure, universal, obvious): the hollow
    model whose sharp part is P and whose unit torus has the character
    lattice P^gp, with the universal splitting (class goes to its own
    torus character) and the obvious one (trivial monomial part).
    """
    if not P.is_sharp():
        raise ValueError("splitting_cover expects a sharp monoid")
    d = P.ambient_rank
    gens = [tuple(g) + (0,) * d for g in P.generators]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        gens.append((0,) * d + tuple(e))
        gens.append((0,) * d + tuple(-x for x in e))
    Q = AffineMonoid(gens, ambient_rank=2 * d)
    KQ = MonoidIdeal(Q, [tuple(g) + (0,) * d for g in P.generators],
                     validate=False)
    hs = HollowStructure(Q, KQ)
    # express the intrinsic map in the adapted coordinates: the j-th sharp
    # basis vector is the class of some (a, b); the universal character of
    # that class is a's own copy in the torus half, corrected for the
    # unit-lattice component already carried by (a, 0).
    univ_rows = []
    for j in range(hs.sharp_rank):
        col = [row[hs.torus_rank + j] for row in hs.Uinv]
        a = tuple(col[:d])
        copy_char = hs.unit_coords((0,) * d + a)
        carried = hs.adapted(a + (0,) * d)[: hs.torus_rank]
        univ_rows.append(tuple(x - y for x, y in zip(copy_char, carried)))
    universal = Splitting(hs, univ_rows)
    obvious = Splitting(hs, [[0] * hs.torus_rank
                             for _ in range(hs.sharp_rank)])
    return Q, KQ, hs, universal, obvious


def pullback_to_cover(conn: LogConnection, cover_diff: LogDifferentials,
                      structure: HollowStructure):
    """Pull a connection on the sharp log point back to its splitting cover.

    The cover's first block of coordinates is the original P; directions
    are padded with zero matrices along the torus."""
    d = conn.differentials.rank
    if structure.dim != 2 * d:
        raise ModelMismatch("cover does not match the connection's model")
    n = conn.rank
    zero = MonPoly()
    mats = []
    for k in range(2 * d):
        if k < d:
            mats.append([[x.map_exponents(lambda e: tuple(e) + (0,) * d)
                          for x in row] for row in conn.omega[k]])
        else:
            mats.append([[zero] * n for _ in range(n)])
    return LogConnection(cover_diff, mats)


def _adapted_components(conn: LogConnection, hs: HollowStructure):
    """Unit-direction and sharp-direction component matrices of omega."""
    comps = [combine(conn.omega, row) for row in hs.U]
    return comps[: hs.torus_rank], comps[hs.torus_rank:]


def _pullbacks(conn: LogConnection, hs: HollowStructure, splittings,
               require_flat=False):
    """The pullback of conn along each splitting, and the residues, all in
    torus coordinates, from one set of adapted components."""
    if conn.monoid != hs.monoid or conn.ideal != hs.ideal:
        raise ModelMismatch("connection and splitting live on different models")
    if require_flat and not is_flat(conn):
        raise NotFlat("pullback requires an integrable connection")
    torus, sharp = _adapted_components(conn, hs)

    def in_torus(mat):
        return [[x.map_exponents(hs.unit_coords) for x in row] for row in mat]

    tdiff = hs.torus_differentials()
    bases = [LogConnection(tdiff, [
        in_torus(combine([torus[i]] + sharp,
                         [1] + [row[i] for row in eps.monomial_part]))
        for i in range(hs.torus_rank)], rank=conn.rank)
        for eps in splittings]
    return bases, [in_torus(mat) for mat in sharp]


def eps_pullback(conn: LogConnection, eps: Splitting) -> LogConnection:
    """Classical connection on the unit torus induced by a splitting.

    Substitutes dlog of each log direction by its unit part plus the
    splitting's torus character; satisfies the universal-splitting identity
    (the pullback of dlog(p) is dlog of p's own character).  conn must be
    integrable (NotFlat otherwise).
    """
    return _pullbacks(conn, eps.structure, [eps], True)[0][0]


def splitting_delta(eps0: Splitting, eps1: Splitting, conn: LogConnection):
    """The difference map of two splittings plus its defining identity.

    Returns (delta, ok): delta is the integer matrix of the linear map
    from the sharp lattice to torus one-forms (row j = the character of
    the j-th sharp basis vector), and ok asserts exactly that
    eps0-pullback minus eps1-pullback equals delta composed with the
    residue map of the connection.
    """
    hs = eps0.structure
    if eps1.structure.monoid != hs.monoid or eps1.structure.ideal != hs.ideal:
        raise ModelMismatch("splittings live on different models")
    delta = tuple(tuple(a - b for a, b in zip(r0, r1))
                  for r0, r1 in zip(eps0.monomial_part, eps1.monomial_part))
    (p0, p1), rhos = _pullbacks(conn, hs, [eps0, eps1], True)
    ok = all(x.is_zero() for i in range(hs.torus_rank)
             for row in combine([p0.omega[i], p1.omega[i]] + rhos,
                                [1, -1] + [-d[i] for d in delta])
             for x in row)
    return delta, ok
