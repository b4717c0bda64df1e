"""Log connections on affine models: free modules with an Omega^1-valued
connection matrix whose entries are exact monomial polynomials.

Entries live in C[P]/(K): finite sums of (scalar, monomial) terms with the
monomial in P minus K; terms landing in K are reduced away.  Flatness is
the exact vanishing of d(omega) + omega wedge omega in the free exterior
square, using d(x^p (x) q) = x^p (x) p wedge q.

The library's MonPoly matrix algebra lives here: `_curvature` is the one
matrix product and commutator (flatness here, the Higgs conditions in
rh), and `combine` the one linear combination of connection matrices
(the splitting pullbacks in strata).
"""

from __future__ import annotations

from .errors import ModelMismatch, NonConstant
from .field import ZERO, as_scalar
from .lattice import identity_int
from .linalg import Matrix
from .monoids import AffineMonoid, MonoidIdeal


class MonPoly:
    """Finite sum of c * x^p terms; immutable, canonical term order."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        acc = {}
        for exp, c in items:
            exp = tuple(int(e) for e in exp)
            c = as_scalar(c)
            if exp in acc:
                acc[exp] = acc[exp] + c
            else:
                acc[exp] = c
        object.__setattr__(self, "terms",
                           tuple((e, c) for e, c in sorted(acc.items())
                                 if not c.is_zero()))

    def __setattr__(self, name, value):
        raise AttributeError("MonPoly is immutable")

    @staticmethod
    def constant(c, dim):
        c = as_scalar(c)
        return MonPoly([((0,) * dim, c)]) if not c.is_zero() else MonPoly()

    @staticmethod
    def monomial(exp, c=1):
        return MonPoly([(tuple(exp), as_scalar(c))])

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e, _ in self.terms)

    def constant_value(self):
        for e, c in self.terms:
            if not any(e):
                return c
        return ZERO

    def __add__(self, other):
        return MonPoly(list(self.terms) + list(other.terms))

    def __neg__(self):
        return MonPoly([(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MonPoly):
            out = []
            for e1, c1 in self.terms:
                for e2, c2 in other.terms:
                    out.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
            return MonPoly(out)
        return self.scale(other)

    def scale(self, c):
        c = as_scalar(c)
        return MonPoly([(e, x * c) for e, x in self.terms])

    def map_exponents(self, fn):
        return MonPoly([(tuple(fn(e)), c) for e, c in self.terms])

    def __eq__(self, other):
        return isinstance(other, MonPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "MonPoly(0)"
        return "MonPoly(%s)" % " + ".join(
            "%s*x^%s" % (c, list(e)) for e, c in self.terms)


class LogDifferentials:
    """The free module of log differentials of a model A_{P,K}.

    Presented on the standard basis of Z^d = P^gp, which the monoid's
    generators are required to span as a group.
    """

    def __init__(self, monoid: AffineMonoid, ideal: MonoidIdeal):
        if ideal.monoid != monoid:
            raise ModelMismatch("ideal is not an ideal of this monoid")
        # the reduced Hermite basis of Z^d is the identity
        if monoid.group_basis() != identity_int(monoid.ambient_rank):
            raise ValueError(
                "connection models need P^gp = Z^d; re-present the monoid")
        self.monoid = monoid
        self.ideal = ideal
        self.rank = monoid.ambient_rank

    def __eq__(self, other):
        return (isinstance(other, LogDifferentials)
                and self.monoid == other.monoid and self.ideal == other.ideal)

    def __hash__(self):
        return hash((self.monoid, self.ideal))

    def reduce(self, mp: MonPoly) -> MonPoly:
        """Reduce an element of C[P] modulo K (drop terms with exponent in K)."""
        kept = []
        for e, c in mp.terms:
            if not self.monoid.contains(e):
                raise ValueError("monomial %r is not in the monoid" % (e,))
            if not self.ideal.contains(e):
                kept.append((e, c))
        return MonPoly(kept)


class LogConnection:
    """nabla = d + sum_k omega_k dlog(x^{e_k}) on a free module of rank n."""

    def __init__(self, differentials: LogDifferentials, omega, rank=None):
        self.differentials = differentials
        s = differentials.rank
        omega = [[[_as_monpoly(x, s) for x in row] for row in mat] for mat in omega]
        if len(omega) != s:
            raise ValueError("need one matrix per log direction")
        n = len(omega[0]) if omega else (0 if rank is None else rank)
        for mat in omega:
            if len(mat) != n or any(len(r) != n for r in mat):
                raise ValueError("connection matrices must be square, equal size")
        self.rank = n
        self.omega = tuple(tuple(tuple(differentials.reduce(x) for x in row)
                                 for row in mat) for mat in omega)

    @property
    def monoid(self):
        return self.differentials.monoid

    @property
    def ideal(self):
        return self.differentials.ideal

    def __eq__(self, other):
        return (isinstance(other, LogConnection)
                and self.differentials == other.differentials
                and self.omega == other.omega)

    def __hash__(self):
        return hash((self.differentials, self.omega))

    def __repr__(self):
        return "LogConnection(rank=%d, dirs=%d)" % (self.rank,
                                                    self.differentials.rank)

    def is_constant(self):
        return all(x.is_constant() for mat in self.omega for row in mat
                   for x in row)

    def constant_matrices(self):
        """The U_k as exact matrices; NonConstant if any entry has a monomial."""
        if not self.is_constant():
            raise NonConstant("connection has non-constant coefficients")
        return [Matrix([[x.constant_value() for x in row] for row in mat])
                for mat in self.omega]

    @staticmethod
    def constant(differentials, matrices):
        s = differentials.rank
        mats = [m if isinstance(m, Matrix) else Matrix(m) for m in matrices]
        return LogConnection(differentials, [
            [[MonPoly.constant(m.entries[i][j], s) for j in range(m.cols)]
             for i in range(m.rows)] for m in mats])

    def direction(self, k):
        return self.omega[k]

    def tensor(self, other):
        """Tensor product connection: omega (x) 1 + 1 (x) omega'."""
        if self.differentials != other.differentials:
            raise ModelMismatch("tensor needs a common model")
        n, m = self.rank, other.rank
        s = self.differentials.rank
        zero = MonPoly()
        out = []
        for k in range(s):
            a, b = self.omega[k], other.omega[k]
            mat = [[zero] * (n * m) for _ in range(n * m)]
            for i in range(n):
                for j in range(n):
                    for u in range(m):
                        for v in range(m):
                            t = zero
                            if u == v:
                                t = t + a[i][j]
                            if i == j:
                                t = t + b[u][v]
                            mat[i * m + u][j * m + v] = t
            out.append(mat)
        return LogConnection(self.differentials, out)


def _as_monpoly(x, dim):
    if isinstance(x, MonPoly):
        return x
    return MonPoly.constant(x, dim)


def combine(mats, coeffs):
    """sum_m coeffs[m] * mats[m] for square MonPoly matrices of one size,
    built as one MonPoly per entry; zero coefficients are skipped."""
    terms = [(mat, c) for mat, c in zip(mats, coeffs) if c]
    n = len(mats[0])
    return [[MonPoly([(e, x * c) for mat, c in terms
                      for e, x in mat[i][j].terms])
             for j in range(n)] for i in range(n)]


def _curvature(a, k, b, l):
    """W_k(b) - W_l(a) + ab - ba for square MonPoly matrices a, b of one size.

    W_k multiplies each term by its k-th exponent (the d(x^p) = x^p (x) p
    rule); W_None is zero.  Returns an n x n grid of {exponent: coefficient}
    dicts without zero coefficients.  Every product term goes straight into
    its cell's dict, so no MonPoly is built for a partial sum.
    """
    n = len(a)
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for e, c in _curvature_terms(a, k, b, l, i, j):
                acc[e] = acc[e] + c if e in acc else c
            row.append({e: c for e, c in acc.items() if c})
        grid.append(row)
    return grid


def _curvature_terms(a, k, b, l, i, j):
    if k is not None:
        for e, c in b[i][j].terms:
            if e[k]:
                yield e, c * e[k]
    if l is not None:
        for e, c in a[i][j].terms:
            if e[l]:
                yield e, c * -e[l]
    for x, y, negate in ((a, b, False), (b, a, True)):
        for m in range(len(a)):
            for e1, c1 in x[i][m].terms:
                if negate:
                    c1 = -c1
                for e2, c2 in y[m][j].terms:
                    yield tuple(p + q for p, q in zip(e1, e2)), c1 * c2


def is_flat(conn: LogConnection) -> bool:
    """Exact integrability: d(omega) + omega wedge omega = 0 in E (x) Omega^2.

    The coefficient of dlog_k wedge dlog_l is W_k(A_l) - W_l(A_k) + [A_k, A_l];
    only its nonzero cells are reduced modulo K.
    """
    om = conn.omega
    red = conn.differentials.reduce
    s = conn.differentials.rank
    for k in range(s):
        for l in range(k + 1, s):
            for row in _curvature(om[k], k, om[l], l):
                for cell in row:
                    if cell and not red(MonPoly(cell)).is_zero():
                        return False
    return True
