"""Canonical extensions across a good embedding at the graded-module level.

The model is the inclusion A_{P,K} x G_m^r into A_{P,K} x A^r: monoids
Q = P x N^r inside Q' = P x Z^r, with the ideal generated by K in both.
Restriction inverts the last r coordinates; the extension rescales each
generator by a monomial in those coordinates so that its degrees there
land in the image of a chosen section tau of Q/Z.  Shifts are explicit
integers, so the round trips are literal data equalities.

Exponents at infinity of an object over Q are the infinity coordinates of
its generator degrees (the negatives of the residue eigenvalues of the
induced operators, under the package-wide sign convention); an object is
tau-adapted when they all lie in the image of tau.  Injectivity into the
restriction, the second condition in the source notion, is automatic for
the free modules represented here.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidObject, ModelMismatch
from .field import GaussRat, as_scalar
from .lattice import identity_int
from .lobjects import LObject, require_valid
from .monoids import AffineMonoid, MonoidIdeal


class TauSection:
    """Section of Q -> Q/Z given by a half-open unit window (lo, lo+1].

    Applied to a Gaussian rational coordinatewise on the real part; the
    imaginary part is preserved.  The default window (-1, 0] makes
    exponents satisfy -1 < Re(z) <= 0.
    """

    def __init__(self, lo=Fraction(-1)):
        self.lo = Fraction(lo)

    def __call__(self, x) -> GaussRat:
        x = as_scalar(x)
        n = math.ceil(x.re - self.lo - 1)
        return GaussRat(x.re - n, x.im)

    def fixes(self, x) -> bool:
        return self(x) == as_scalar(x)

    @property
    def fixes_zero(self) -> bool:
        return self(GaussRat(0)) == GaussRat(0)

    def __repr__(self):
        return "TauSection(window=(%s, %s])" % (self.lo, self.lo + 1)

    def __eq__(self, other):
        return isinstance(other, TauSection) and self.lo == other.lo


class GoodEmbeddingModel:
    """The local model of a good embedding: Q = P x N^r in Q' = P x Z^r."""

    def __init__(self, core_monoid: AffineMonoid, core_ideal: MonoidIdeal,
                 infinity_rank: int):
        if core_ideal.monoid != core_monoid:
            raise ModelMismatch("core ideal does not belong to the core monoid")
        if infinity_rank < 0:
            raise ValueError("infinity_rank must be nonnegative")
        self.core_monoid = core_monoid
        self.core_ideal = core_ideal
        self.infinity_rank = infinity_rank
        s, r = core_monoid.ambient_rank, infinity_rank
        pgens = [tuple(g) + (0,) * r for g in core_monoid.generators]
        inf_pos = [(0,) * s + tuple(e) for e in identity_int(r)]
        inf_neg = [tuple(-x for x in v) for v in inf_pos]
        self.monoid_q = AffineMonoid(pgens + inf_pos, ambient_rank=s + r)
        self.monoid_qp = AffineMonoid(pgens + inf_pos + inf_neg,
                                      ambient_rank=s + r)
        kgens = [tuple(k) + (0,) * r for k in core_ideal.generators]
        self.ideal_q = MonoidIdeal(self.monoid_q, kgens, validate=False)
        self.ideal_qp = MonoidIdeal(self.monoid_qp, kgens, validate=False)

    def __eq__(self, other):
        return (isinstance(other, GoodEmbeddingModel)
                and self.core_monoid == other.core_monoid
                and self.core_ideal == other.core_ideal
                and self.infinity_rank == other.infinity_rank)

    def __hash__(self):
        return hash((self.core_monoid, self.core_ideal, self.infinity_rank))

    def infinity_coords(self, degree):
        s = self.core_monoid.ambient_rank
        return tuple(degree[s:])

    def _expect(self, V: LObject, monoid, ideal, what):
        if V.monoid != monoid or V.ideal != ideal:
            raise ModelMismatch("object does not live over %s of this model" % what)


def restrict(model: GoodEmbeddingModel, V: LObject) -> LObject:
    """Restriction along the open immersion: the last r coordinates become
    invertible.  Couplings whose monomial falls into the extended ideal die."""
    model._expect(V, model.monoid_q, model.ideal_q, "Q")
    require_valid(V)
    return LObject(model.monoid_qp, model.ideal_qp, V.degrees,
                   V.log_matrices).reduced()


def _shifts_for(model, V, tau):
    s = model.core_monoid.ambient_rank
    r = model.infinity_rank
    shifts = []
    for d in V.degrees:
        row = []
        for i in range(r):
            x = d[s + i]
            t = tau(x)
            diff = t - x
            if not diff.is_integer():
                raise InvalidObject("degree %s has non-rational-mod-Z "
                                    "infinity coordinate" % (str(x),))
            row.append(int(diff.re))
        shifts.append(tuple(row))
    return tuple(shifts)


def _apply_shifts(model, V, shifts, monoid, ideal):
    s = model.core_monoid.ambient_rank
    degs = []
    for d, sh in zip(V.degrees, shifts):
        degs.append(tuple(d[:s]) + tuple(x + GaussRat(c)
                                         for x, c in zip(d[s:], sh)))
    return LObject(monoid, ideal, degs, V.log_matrices).reduced()


def canonical_extension(model: GoodEmbeddingModel, Vp: LObject,
                        tau: TauSection):
    """Extend an object over Q' to Q with exponents in the image of tau.

    Each generator is rescaled by the monomial making its infinity degrees
    tau-truncated; returns (extension, shifts) with shifts[i] the exponent
    vector applied to generator i.  restrict of the result reproduces the
    tau-normalized input, and freeness is preserved by construction.
    """
    model._expect(Vp, model.monoid_qp, model.ideal_qp, "Q'")
    require_valid(Vp)
    shifts = _shifts_for(model, Vp, tau)
    return _apply_shifts(model, Vp, shifts, model.monoid_q,
                         model.ideal_q), shifts


def tau_normalize(model: GoodEmbeddingModel, Vp: LObject, tau: TauSection):
    """Rescale generators by units of Q' so infinity degrees lie in im(tau).

    This is the basis normalization that makes restrict(extend(V')) a
    literal identity; returns (normalized object, shifts)."""
    model._expect(Vp, model.monoid_qp, model.ideal_qp, "Q'")
    shifts = _shifts_for(model, Vp, tau)
    return _apply_shifts(model, Vp, shifts, model.monoid_qp,
                         model.ideal_qp), shifts


class ExponentsReport:
    def __init__(self, exponents, adapted):
        self.exponents = tuple(exponents)
        self.adapted = bool(adapted)

    def __repr__(self):
        return "ExponentsReport(exponents=%s, adapted=%r)" % (
            [[str(x) for x in e] for e in self.exponents], self.adapted)


def exponents_report(model: GoodEmbeddingModel, V: LObject,
                     tau: TauSection) -> ExponentsReport:
    """Exponents at infinity (multiset over generators) and tau-adaptedness."""
    model._expect(V, model.monoid_q, model.ideal_q, "Q")
    exps = [model.infinity_coords(d) for d in V.degrees]
    adapted = all(tau.fixes(x) for e in exps for x in e)
    exps.sort(key=lambda e: tuple(x.sort_key() for x in e))
    return ExponentsReport(exps, adapted)
