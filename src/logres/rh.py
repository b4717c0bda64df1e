"""The local correspondence between constant-coefficient log
connections and graded monodromy modules, and the Higgs decomposition of
a connection on a hollow model under a splitting.

Sign convention: a block with residue eigenvalue a gets generator degree
-a and stored nilpotent -N, so the monodromy symbol
e(label) * exp(2 pi i * stored) expands to exp(-2 pi i U) on the block.
The round-trip tests pin this convention down globally.
"""

from __future__ import annotations

from .connections import LogConnection, MonPoly, _curvature, is_flat
from .errors import ConditionsFailed, InvalidObject, ModelMismatch, NotFlat
from .linalg import Matrix, eigen_decompose
from .lobjects import LObject, check_axioms
from .strata import Splitting, _pullbacks


class HiggsData:
    """A torus connection together with its commuting horizontal residues."""

    def __init__(self, base: LogConnection, residues):
        self.base = base
        self.residues = tuple(residues)  # MonPoly matrices, torus coordinates

    def residue_matrices(self):
        """Residues as exact matrices; only valid when they are constant."""
        out = []
        for r in self.residues:
            out.append(Matrix([[x.constant_value() for x in row] for row in r]))
        return out

    def __repr__(self):
        return "HiggsData(base_rank=%d, residues=%d)" % (self.base.rank,
                                                         len(self.residues))


def higgs_conditions(conn: LogConnection, eps: Splitting):
    """The three integrability conditions of the Higgs decomposition.

    Returns (i, ii, iii): base connection integrable; residues pairwise
    commuting; residues horizontal for the base connection.  (ii) and (iii)
    are the (sharp, sharp) and (torus, sharp) blocks of the curvature, with
    the sharp weights zero; (i) is its (torus, torus) block.
    """
    hs = eps.structure
    (base,), rhos = _pullbacks(conn, hs, [eps])
    cond1 = is_flat(base)
    cond2 = not any(any(map(any, _curvature(ra, None, rb, None)))
                    for a, ra in enumerate(rhos) for rb in rhos[a + 1:])
    cond3 = not any(any(map(any, _curvature(base.omega[i], i, rho, None)))
                    for rho in rhos for i in range(hs.torus_rank))
    return cond1, cond2, cond3, base, rhos


def higgs_decompose(conn: LogConnection, eps: Splitting) -> HiggsData:
    """Split a flat connection on a hollow model into (base, residues).

    Raises ConditionsFailed naming the failing conditions; succeeding is
    equivalent to flatness of the input.
    """
    c1, c2, c3, base, rhos = higgs_conditions(conn, eps)
    failed = [i + 1 for i, ok in enumerate((c1, c2, c3)) if not ok]
    if failed:
        raise ConditionsFailed(failed)
    return HiggsData(base, rhos)


def to_lobject(conn: LogConnection) -> LObject:
    """Graded monodromy module of a constant-coefficient flat connection.

    One generator class per joint generalized eigenspace; degrees are the
    negated eigenvalue vectors; the log matrices are the negated nilpotent
    parts.  Output is in canonical (degree-sorted) generator order.
    """
    if not conn.monoid.is_sharp():
        raise ModelMismatch("the local correspondence needs a sharp model")
    mats = conn.constant_matrices()  # NonConstant if monomials present
    if not is_flat(conn):
        raise NotFlat("connection is not integrable")
    blocks = eigen_decompose(mats)   # IrrationalEigenvalue may propagate
    degrees = []
    for b in blocks:
        degrees.extend([tuple(-x for x in b.label)] * b.dim)
    logmats = [Matrix.block_diag([-b.nilpotents[k] for b in blocks])
               for k in range(len(mats))]
    V = LObject(conn.monoid, conn.ideal, degrees, logmats)
    return V.canonical_sort()[0]


def from_lobject(V: LObject) -> LogConnection:
    """The connection with U_k = -(degree_k * I) - (log matrix k).

    Couplings transport to their monomials; for a coupling-free object the
    result is the constant connection inverse to to_lobject.
    """
    report = check_axioms(V)
    if not report.ok:
        raise InvalidObject("object fails axioms: %s" % report.codes(), report)
    from .connections import LogDifferentials

    diff = LogDifferentials(V.monoid, V.ideal)
    s = V.directions
    n = V.rank
    omega = []
    for k in range(s):
        mat = []
        for i in range(n):
            row = []
            for j in range(n):
                val = MonPoly()
                c = V.log_matrices[k].entries[i][j]
                if not c.is_zero():
                    mono = V.monomial_between(i, j)
                    val = val - MonPoly.monomial(mono, c)
                if i == j:
                    val = val - MonPoly.constant(V.degrees[i][k], s)
                row.append(val)
            mat.append(row)
        omega.append(mat)
    return LogConnection(diff, omega, rank=n)
