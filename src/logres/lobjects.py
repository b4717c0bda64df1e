"""Free graded modules over C[P]/(K) with monodromy in log coordinates.

An object is a free module with homogeneous basis b_1..b_n, degrees in
P^gp tensor Q(i), and for each basis direction k of P^gp one monodromy
operator stored without ever expanding exponentials: the operator on the
class of basis vectors of common degree lambda is the symbol
e(lambda_k) * exp(2*pi*i*N), and couplings between classes are monomial
entries c * x^{lambda_j - lambda_i}.  All of that data lives in a single
coefficient matrix per direction (the "log matrix"), whose diagonal
blocks are the class nilpotents and whose off-class entries are the
coupling coefficients; the monomial attached to position (i, j) is
implied by the degrees.  Products of log matrices reduce modulo K by
zeroing positions whose implied monomial leaves P minus K, which makes
commutation, tensor products, and graded pieces exact.
"""

from __future__ import annotations

from .errors import InvalidObject, ModelMismatch
from .field import ZERO, as_scalar
from .linalg import Matrix
from .monoids import AffineMonoid, MonoidIdeal


class ValidationReport:
    """Outcome of check_axioms: a list of (code, detail) violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)

    @property
    def ok(self):
        return not self.violations

    def codes(self):
        return sorted({c for c, _ in self.violations})

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%s)" % ", ".join(
            "%s: %s" % v for v in self.violations)


class LObject:
    """Free P^gp (x) Q(i)-graded C[P]/(K)-module with monodromy."""

    def __init__(self, monoid: AffineMonoid, ideal: MonoidIdeal, degrees,
                 log_matrices):
        if ideal.monoid != monoid:
            raise ModelMismatch("ideal does not belong to the monoid")
        self.monoid = monoid
        self.ideal = ideal
        s = monoid.ambient_rank
        self.directions = s
        self.degrees = tuple(tuple(as_scalar(x) for x in d) for d in degrees)
        if any(len(d) != s for d in self.degrees):
            raise ValueError("degree vectors must have one entry per direction")
        n = len(self.degrees)
        self.rank = n
        mats = [m if isinstance(m, Matrix) else Matrix(m) for m in log_matrices]
        if len(mats) != s:
            raise ValueError("need one log matrix per direction")
        for m in mats:
            if m.rows != n or m.cols != n:
                raise ValueError("log matrices must be rank x rank")
        self.log_matrices = tuple(mats)
        # class partition by equal degree
        seen = {}
        for j, d in enumerate(self.degrees):
            seen.setdefault(d, []).append(j)
        self.classes = tuple(tuple(v) for v in seen.values())

    def __eq__(self, other):
        return (isinstance(other, LObject) and self.monoid == other.monoid
                and self.ideal == other.ideal and self.degrees == other.degrees
                and self.log_matrices == other.log_matrices)

    def __hash__(self):
        return hash((self.monoid, self.ideal, self.degrees, self.log_matrices))

    def __repr__(self):
        return "LObject(rank=%d, degrees=%s)" % (
            self.rank, [[str(x) for x in d] for d in self.degrees])

    # -- structure accessors -------------------------------------------------

    def class_of(self, j):
        for c, idx in enumerate(self.classes):
            if j in idx:
                return c
        raise IndexError(j)

    def class_degree(self, c):
        return self.degrees[self.classes[c][0]]

    def monodromy_blocks(self):
        """Per class: (degree vector, [nilpotent block per direction]).

        The label of direction k on a class is the k-th degree coordinate;
        the expanded operator is e(label) * exp(2 pi i N)."""
        out = []
        for c, idx in enumerate(self.classes):
            blocks = [m.submatrix(idx, idx) for m in self.log_matrices]
            out.append((self.class_degree(c), blocks))
        return out

    def off_diagonal_entries(self):
        """All couplings as (direction, i, j, coefficient, monomial)."""
        out = []
        for k, m in enumerate(self.log_matrices):
            for i in range(self.rank):
                for j in range(self.rank):
                    if self.degrees[i] != self.degrees[j] and \
                            not m.entries[i][j].is_zero():
                        mono = _degree_diff(self.degrees[j], self.degrees[i])
                        out.append((k, i, j, m.entries[i][j], mono))
        return out

    # -- ring reduction -------------------------------------------------------

    def monomial_between(self, i, j):
        """The implied monomial of position (i, j): degrees[j] - degrees[i],
        or None when that is not an integer vector."""
        return _degree_diff(self.degrees[j], self.degrees[i])

    def position_alive(self, i, j):
        """Is the (i, j) position nonzero in C[P]/(K)?"""
        if self.degrees[i] == self.degrees[j]:
            return True
        d = self.monomial_between(i, j)
        if d is None:
            return False
        return self.monoid.contains(d) and not self.ideal.contains(d)

    def reduce_matrix(self, m: Matrix) -> Matrix:
        """Zero out the positions whose monomial dies in C[P]/(K)."""
        rows = []
        for i in range(self.rank):
            row = []
            for j in range(self.rank):
                row.append(m.entries[i][j] if self.position_alive(i, j) else ZERO)
            rows.append(row)
        return Matrix(rows)

    def reduced(self):
        """The same object with every log matrix reduced mod K."""
        return LObject(self.monoid, self.ideal, self.degrees,
                       [self.reduce_matrix(m) for m in self.log_matrices])

    def canonical_sort(self):
        """Reorder generators by degree; returns (sorted object, permutation).

        permutation[new_index] = old_index.  Classes become contiguous and
        canonically ordered, which is the normal form used for comparisons
        up to basis permutation."""
        perm = sorted(range(self.rank),
                      key=lambda j: (tuple(x.sort_key() for x in self.degrees[j]), j))
        degs = tuple(self.degrees[j] for j in perm)
        mats = [m.submatrix(perm, perm) for m in self.log_matrices]
        return LObject(self.monoid, self.ideal, degs, mats), tuple(perm)


def _degree_diff(a, b):
    out = []
    for x, y in zip(a, b):
        d = x - y
        if not d.is_integer():
            return None
        out.append(int(d.re))
    return tuple(out)


def check_axioms(V: LObject) -> ValidationReport:
    """Validate homogeneity, nilpotency, coupling acyclicity, commutation.

    Violation codes: HomogeneityViolation, NonNilpotentBlock,
    CouplingCycle, NonCommutingMonodromy.
    """
    bad = []
    n = V.rank
    # homogeneity of couplings
    for k, m in enumerate(V.log_matrices):
        for i in range(n):
            for j in range(n):
                if V.degrees[i] == V.degrees[j] or m.entries[i][j].is_zero():
                    continue
                d = V.monomial_between(i, j)
                if d is None:
                    bad.append(("HomogeneityViolation",
                                "gamma%d[%d,%d]: degree difference not integral"
                                % (k, i, j)))
                elif not V.monoid.contains(d):
                    bad.append(("HomogeneityViolation",
                                "gamma%d[%d,%d]: monomial %r outside the monoid"
                                % (k, i, j, d)))
                elif V.ideal.contains(d):
                    bad.append(("HomogeneityViolation",
                                "gamma%d[%d,%d]: monomial %r lies in the ideal"
                                % (k, i, j, d)))
    # class blocks nilpotent
    for c, idx in enumerate(V.classes):
        for k, m in enumerate(V.log_matrices):
            if not m.submatrix(idx, idx).is_nilpotent():
                bad.append(("NonNilpotentBlock",
                            "gamma%d on class %d is not nilpotent" % (k, c)))
    # coupling graph between classes must be acyclic
    edges = set()
    for k, i, j, _, _ in V.off_diagonal_entries():
        edges.add((V.class_of(j), V.class_of(i)))
    if _has_cycle(len(V.classes), edges):
        bad.append(("CouplingCycle", "couplings between classes form a cycle"))
    # commutation of the full log matrices, reduced mod K
    for k in range(V.directions):
        for l in range(k + 1, V.directions):
            a, b = V.log_matrices[k], V.log_matrices[l]
            comm = V.reduce_matrix(a * b) - V.reduce_matrix(b * a)
            if not V.reduce_matrix(comm).is_zero():
                bad.append(("NonCommutingMonodromy",
                            "gamma%d and gamma%d do not commute" % (k, l)))
    return ValidationReport(bad)


def require_valid(V: LObject):
    """InvalidObject, carrying the report, unless V passes check_axioms."""
    rep = check_axioms(V)
    if not rep.ok:
        raise InvalidObject("object fails axioms: %s" % rep.codes(), rep)


def _has_cycle(n, edges):
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        if a != b:
            adj[a].append(b)
        else:
            return True
    state = {}

    def visit(v):
        state[v] = 1
        for w in adj[v]:
            if state.get(w) == 1:
                return True
            if state.get(w) is None and visit(w):
                return True
        state[v] = 2
        return False

    return any(state.get(v) is None and visit(v) for v in range(n))


class GradedPiece:
    """The graded piece of an LObject at one degree."""

    def __init__(self, degree, basis_indices, operators):
        self.degree = tuple(degree)
        self.basis_indices = tuple(basis_indices)
        self.dimension = len(self.basis_indices)
        self.operators = tuple(operators)  # per direction: (in_Z, Matrix)

    def __repr__(self):
        return "GradedPiece(degree=%s, dim=%d)" % (
            [str(x) for x in self.degree], self.dimension)


def graded_piece(V: LObject, lam) -> GradedPiece:
    """Basis {x^{lam - lam_j} b_j : lam - lam_j in P minus K} and the
    operators on it, in log coordinates.

    The direction-k operator on the piece is e(lam_k) * exp(2 pi i M_k)
    with M_k the returned effective matrix (a submatrix of the log
    matrix); the in_Z flag records whether lam_k is an integer, i.e.
    whether the symbolic eigenvalue is 1."""
    lam = tuple(as_scalar(x) for x in lam)
    if len(lam) != V.directions:
        raise ValueError("degree vector has wrong length")
    idx = []
    for j in range(V.rank):
        d = _degree_diff(lam, V.degrees[j])
        if d is None:
            continue
        if not any(d):
            idx.append(j)
        elif V.monoid.contains(d) and not V.ideal.contains(d):
            idx.append(j)
    ops = []
    for k in range(V.directions):
        eff = V.log_matrices[k].submatrix(idx, idx)
        ops.append((lam[k].is_integer(), eff))
    return GradedPiece(lam, idx, ops)


def tensor(V: LObject, W: LObject) -> LObject:
    """Tensor product: degrees add, log matrices combine as N (x) 1 + 1 (x) N'."""
    if V.monoid != W.monoid or V.ideal != W.ideal:
        raise ModelMismatch("tensor factors live over different models")
    degs = []
    for dv in V.degrees:
        for dw in W.degrees:
            degs.append(tuple(a + b for a, b in zip(dv, dw)))
    iv = Matrix.identity(V.rank)
    iw = Matrix.identity(W.rank)
    mats = []
    for k in range(V.directions):
        mats.append(V.log_matrices[k].kron(iw) + iv.kron(W.log_matrices[k]))
    # kill tensor couplings whose monomial died in the quotient ring
    return LObject(V.monoid, V.ideal, degs, mats).reduced()
