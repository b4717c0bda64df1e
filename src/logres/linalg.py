"""Exact matrices over Q(i), the library's one Gauss-Jordan elimination,
and simultaneous generalized-eigenspace decomposition of commuting families.

All elimination over a field lives in gauss_jordan, with kernel_vectors
and solve_columns on top of it.  They work on plain row lists of any field
type with + - * / and a falsy zero: GaussRat here, Fraction in lattice and
monoids, and RatFunc (Q(i)(t)) in germs.  The Matrix methods and those
modules' entry points only convert formats around them.

Matrices hold GaussRat entries, but the hot paths work in Python integers
over Z[i]: a matrix A is scaled once by the least common denominator d of
its entries and split into two integer matrices, A = (re + i*im) / d.
Products multiply the integer forms and divide by da*db once per output
entry.  The characteristic polynomial is computed by Berkowitz's
division-free algorithm on M = d*A, an O(n^4) recurrence that needs only
ring operations, and coefficient k of det(xI - A) is that of det(xI - M)
divided by d^(n-k).

Eigenvalues are extracted from the characteristic polynomial by a
rational-root search over Q(i): after clearing denominators the candidate
roots are Gaussian integers dividing the constant term, so the search is
bounded by coefficient divisors.  Candidates are tested by Horner's rule in
Gaussian-integer arithmetic, which also deflates the polynomial by each
root found.  Matrices whose spectrum leaves Q(i) raise IrrationalEigenvalue.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .errors import IrrationalEigenvalue, NonCommuting
from .field import GaussRat, ZERO, ONE, as_scalar
from .gaussint import UNITS, gi_divisors, gi_mul


# -- Gauss-Jordan elimination over a field ----------------------------------

def gauss_jordan(a, n=None):
    """Reduce the row lists a, in place, to reduced row echelon form over a
    field and return the pivot columns.

    Pivots are taken only in the first n columns (default: all), so the
    columns after them, such as the right-hand sides of a system, are
    carried along but never pivoted on.  Each pivot is inverted once and
    scales its row; every other row with a nonzero entry in the pivot
    column then becomes row - f * pivot_row.
    """
    m = len(a)
    if n is None:
        n = len(a[0]) if a else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        prow = a[r] = [x * inv for x in a[r]]
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y for x, y in zip(a[i], prow)]
        pivots.append(c)
    return pivots


def kernel_vectors(red, pivots, zero, one):
    """Basis of the right kernel of a matrix from its reduced row echelon
    form red (rows) and pivot columns: one vector per free column."""
    n = len(red[0]) if red else 0
    vecs = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [zero] * n
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        vecs.append(v)
    return vecs


def solve_columns(rows, rhs_cols, zero):
    """Solve A X = B for the matrix rows A and the columns of B by one
    elimination of [A | B].

    Returns (pivot columns of A, solution columns), the solution None when
    the system is inconsistent; free variables are set to zero.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(row) + [col[i] for col in rhs_cols]
           for i, row in enumerate(rows)]
    pivots = gauss_jordan(aug, n)
    if any(x for row in aug[len(pivots):] for x in row[n:]):
        return pivots, None
    sol = [[zero] * len(rhs_cols) for _ in range(n)]
    for row, pc in zip(aug, pivots):
        sol[pc] = row[n:]
    return pivots, [tuple(x[j] for x in sol) for j in range(len(rhs_cols))]


class Matrix:
    """Immutable dense matrix with GaussRat entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]) if entries else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n):
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n, m=None):
        m = n if m is None else m
        return Matrix([[ZERO] * m for _ in range(n)])

    @staticmethod
    def from_columns(cols):
        return Matrix(cols).transpose()

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Matrix(%r)" % ([[str(x) for x in r] for r in self.entries],)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-x for x in r] for r in self.entries])

    def scale(self, s):
        s = as_scalar(s)
        return Matrix([[s * x for x in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            da, a = _int_form(self)
            db, b = _int_form(other)
            return _from_int_form(da * db, _gi_matmul(a, b))
        return self.scale(other)

    __rmul__ = scale

    def transpose(self):
        return Matrix([self.column(j) for j in range(self.cols)])

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return all(x.is_zero() for r in self.entries for x in r)

    def commutes_with(self, other):
        return self * other == other * self

    def is_nilpotent(self):
        if not self.is_square():
            return False
        p = self
        for _ in range(self.rows):
            if p.is_zero():
                return True
            p = p * self
        return p.is_zero()

    def kron(self, other):
        """Kronecker (tensor) product, row-major block layout."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                out.append([self.entries[i][j] * other.entries[k][l]
                            for j in range(self.cols) for l in range(other.cols)])
        return Matrix(out)

    @staticmethod
    def block_diag(mats):
        """The block-diagonal matrix with the blocks mats down its diagonal;
        Matrix.zero(0) for no blocks."""
        width = sum(m.cols for m in mats)
        out = []
        left = 0
        for m in mats:
            pad = (ZERO,) * (width - left - m.cols)
            out.extend((ZERO,) * left + row + pad for row in m.entries)
            left += m.cols
        return Matrix(out)

    def direct_sum(self, other):
        return Matrix.block_diag([self, other])

    def submatrix(self, row_idx, col_idx):
        return Matrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    # -- elimination-based operations --------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        a = [list(r) for r in self.entries]
        pivots = gauss_jordan(a)
        return Matrix(a), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Columns spanning the right kernel, from the RREF free variables."""
        red, pivots = self.rref()
        return kernel_vectors(red.entries, pivots, ZERO, ONE)

    def solve(self, rhs_cols):
        """Solve self * X = B for the column list rhs_cols; None if unsolvable.
        Free variables are set to zero."""
        return solve_columns(self.entries, rhs_cols, ZERO)[1]

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        cols = self.solve([tuple(ONE if i == j else ZERO for i in range(self.rows))
                           for j in range(self.rows)])
        if cols is None:
            raise ZeroDivisionError("singular matrix")
        return Matrix.from_columns(cols)

    def charpoly(self):
        """Monic characteristic polynomial det(xI - A), low-to-high coefficients.

        Berkowitz's algorithm on the Gaussian-integer matrix M = d*A; the
        coefficient of x^k is that of det(xI - M) divided by d^(n-k).
        """
        if not self.is_square():
            raise ValueError("charpoly of non-square matrix")
        n = self.rows
        d, m = _int_form(self)
        pr, pi = _berkowitz(m)
        pi = pi or [0] * (n + 1)
        return [_gauss(pr[n - k], pi[n - k], d ** (n - k)) for k in range(n + 1)]


# -- Gaussian-integer kernels ------------------------------------------------
#
# A Gaussian-integer matrix is a pair (re, im) of integer row lists; im is
# None when the matrix is real, so real inputs pay for one product only.

def _int_form(m: Matrix):
    """(d, (re, im)) with m = (re + i*im) / d and d the least common
    denominator of the entries."""
    ents = m.entries
    real = not any(x.im for row in ents for x in row)
    dens = {x.re.denominator for row in ents for x in row}
    if not real:
        dens.update(x.im.denominator for row in ents for x in row)
    d = lcm(*dens)
    re = [[x.re.numerator * (d // x.re.denominator) for x in row]
          for row in ents]
    im = None if real else [[x.im.numerator * (d // x.im.denominator)
                             for x in row] for row in ents]
    return d, (re, im)


def _gauss(re, im, d):
    return GaussRat(Fraction(re, d), Fraction(im, d)) if re or im else ZERO


def _from_int_form(d, m) -> Matrix:
    re, im = m
    if im is None:
        return Matrix([[_gauss(x, 0, d) for x in row] for row in re])
    return Matrix([[_gauss(x, y, d) for x, y in zip(rr, ri)]
                   for rr, ri in zip(re, im)])


def _imatmul(a, bcols):
    return [[sum(map(mul, row, col)) for col in bcols] for row in a]


def _gi_matmul(a, b):
    """Product of Gaussian-integer matrices: (ar + i*ai)(br + i*bi)."""
    (ar, ai), (br, bi) = a, b
    brc = list(zip(*br))
    re = _imatmul(ar, brc)
    if ai is None and bi is None:
        return re, None
    im = None if ai is None else _imatmul(ai, brc)
    if bi is not None:
        bic = list(zip(*bi))
        cross = _imatmul(ar, bic)
        im = cross if im is None else [list(map(int.__add__, x, y))
                                       for x, y in zip(im, cross)]
        if ai is not None:
            re = [list(map(int.__sub__, x, y))
                  for x, y in zip(re, _imatmul(ai, bic))]
    return re, im


def _gi_block(m, rows, cols):
    re, im = m
    return ([[re[i][j] for j in cols] for i in rows],
            None if im is None else [[im[i][j] for j in cols] for i in rows])


def _toeplitz(col):
    """The len(col) x (len(col) - 1) lower-triangular Toeplitz matrix with
    first column col."""
    return [[col[i - j] if i >= j else 0 for j in range(len(col) - 1)]
            for i in range(len(col))]


def _berkowitz(m):
    """Descending coefficients (re, im) of det(xI - M) for a square
    Gaussian-integer matrix M; im is None when M is real.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984):
    with M_r the leading r x r block, R and C the rest of row and column
    r, and a = M[r][r], the charpoly of M_(r+1) is the lower-triangular
    Toeplitz matrix with first column (1, -a, -RC, -R M_r C, ...,
    -R M_r^(r-1) C) times the charpoly of M_r.
    """
    re, im = m
    p = ([[1]], None)
    for r in range(len(re)):
        lead = _gi_block(m, range(r), range(r))
        row = _gi_block(m, [r], range(r))
        v = _gi_block(m, range(r), [r])
        cr, ci = [1, -re[r][r]], [0, 0 if im is None else -im[r][r]]
        for k in range(r):
            if k:
                v = _gi_matmul(lead, v)
            sr, si = _gi_matmul(row, v)
            cr.append(-sr[0][0])
            ci.append(0 if si is None else -si[0][0])
        p = _gi_matmul((_toeplitz(cr), None if im is None else _toeplitz(ci)),
                       p)
    pr, pi = p
    return [x[0] for x in pr], None if pi is None else [x[0] for x in pi]


def matrix_rank(m: Matrix) -> int:
    """Rank over Q(i)."""
    return m.rank()


# -- rational roots over Q(i) -------------------------------------------------

def _deflate(q, z):
    """Synthetic division of the descending Gaussian-integer polynomial q
    (a list of (re, im) pairs) by (y - z), by Horner's rule.  Returns the
    quotient, or None when z is not a root."""
    zr, zi = z
    ar = ai = 0
    out = []
    for cr, ci in q:
        ar, ai = ar * zr - ai * zi + cr, ar * zi + ai * zr + ci
        out.append((ar, ai))
    if ar or ai:
        return None
    out.pop()
    return out


def _scaled_coeffs(poly, d):
    """Descending coefficients of d^m * poly(y / d) as Gaussian-integer
    pairs, or None if some coefficient is not a Gaussian integer."""
    m = len(poly) - 1
    out = []
    for i in range(m, -1, -1):
        f = d ** (m - i)
        c = poly[i]
        re, rr = divmod(c.re.numerator * f, c.re.denominator)
        im, ir = divmod(c.im.numerator * f, c.im.denominator)
        if rr or ir:
            return None
        out.append((re, im))
    return out


def gaussian_rational_roots(poly, scale=1, root_norm_cap=None):
    """All roots in Q(i) of a monic polynomial over Q(i), with multiplicity.

    Returns (roots_with_multiplicity: dict, fully_split: bool); fully_split
    is True when the multiplicities sum to the degree.  When the caller
    knows the coefficients become Gaussian integers after substituting
    x = y / scale (e.g. a characteristic polynomial of an integral
    matrix), passing scale plus a norm bound on the scaled roots keeps the
    divisor search small.
    """
    poly = list(poly)
    while len(poly) > 1 and poly[-1].is_zero():
        poly.pop()
    n = len(poly) - 1
    roots = {}
    # strip zero roots
    k = 0
    while k <= n and poly[k].is_zero():
        k += 1
    if k:
        roots[ZERO] = k
        poly = poly[k:]
    if len(poly) == 1:
        return roots, sum(roots.values()) == n
    d = scale
    q = _scaled_coeffs(poly, d)
    if q is None:
        # fall back: clear all denominators (adequate for small inputs)
        d = lcm(d, *(den for c in poly
                     for den in (c.re.denominator, c.im.denominator)))
        q = _scaled_coeffs(poly, d)
        root_norm_cap = None
    cap = root_norm_cap
    if cap is None:
        # Cauchy: roots of a monic integral polynomial have
        # |y| <= 1 + max |coefficient|
        maxabs = 1
        for cr, ci in q[1:]:
            maxabs = max(maxabs, isqrt(cr * cr + ci * ci) + 1)
        cap = (1 + maxabs) ** 2
    left = len(q) - 1
    for div in gi_divisors(q[-1], norm_cap=cap):
        for u in UNITS:
            z = gi_mul(div, u)
            mult = 0
            while left:
                smaller = _deflate(q, z)
                if smaller is None:
                    break
                q = smaller
                mult += 1
                left -= 1
            if mult:
                roots[_gauss(z[0], z[1], d)] = mult
            if not left:
                return roots, True
    return roots, sum(roots.values()) == n


def matrix_eigenvalues(m: Matrix):
    """Eigenvalues of m in Q(i) with algebraic multiplicity.

    Scales the matrix to Gaussian-integer entries first: eigenvalues of
    the scaled matrix are Gaussian integers bounded by the max row sum,
    which keeps the divisor search tight.  Returns (roots, fully_split).
    """
    d, (re, im) = _int_form(m)
    if im is None:
        im = [[0] * m.cols for _ in range(m.rows)]
    rowsum = 1
    for rr, ri in zip(re, im):
        s = sum(isqrt(x * x + y * y) + 1 for x, y in zip(rr, ri))
        rowsum = max(rowsum, s)
    roots, split = gaussian_rational_roots(m.charpoly(), scale=d,
                                           root_norm_cap=rowsum * rowsum)
    return roots, split


# -- joint eigen decomposition ----------------------------------------------

class EigenBlock:
    """One joint generalized eigenspace of a commuting family.

    label      -- tuple of GaussRat, one eigenvalue per operator
    basis      -- Matrix whose columns span the block inside the ambient space
    nilpotents -- per operator, the block restriction of (op - label * I)
    """

    __slots__ = ("label", "basis", "nilpotents")

    def __init__(self, label, basis, nilpotents):
        object.__setattr__(self, "label", tuple(label))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "nilpotents", tuple(nilpotents))

    def __setattr__(self, name, value):
        raise AttributeError("EigenBlock is immutable")

    @property
    def dim(self):
        return self.basis.cols

    def __repr__(self):
        return "EigenBlock(label=%s, dim=%d)" % (
            tuple(str(x) for x in self.label), self.dim)


def _restriction(op: Matrix, basis: Matrix) -> Matrix:
    """Matrix of op restricted to the column span of basis, in that basis."""
    image = op * basis
    coords = basis.solve([image.column(j) for j in range(image.cols)])
    if coords is None:
        raise ValueError("subspace not invariant")
    return Matrix.from_columns(coords)


def _mat_power(m: Matrix, k: int) -> Matrix:
    out = m
    for _ in range(k - 1):
        out = out * m
    return out


def _split(ops, keep) -> list:
    """Joint generalized eigenspaces of commuting matrices, one operator at
    a time, for the eigenvalues in keep(roots, fully_split) of each
    restriction.  Blocks come back sorted by label.

    Each block carries every operator restricted to it, in its basis, and
    a subblock restricts those again, so the first split works on the ops
    themselves and a block that one eigenvalue fills is kept as it is."""
    blocks = [(tuple(), Matrix.identity(ops[0].rows), ops)]
    for k in range(len(ops)):
        refined = []
        for label, basis, rests in blocks:
            rest = rests[k]
            roots, split = matrix_eigenvalues(rest)
            for lam in sorted(keep(roots, split), key=GaussRat.sort_key):
                mult = roots[lam]
                if mult == rest.rows:
                    refined.append((label + (lam,), basis, rests))
                    continue
                shifted = rest - Matrix.identity(rest.rows).scale(lam)
                ker = _mat_power(shifted, mult).kernel_basis()
                if len(ker) != mult:
                    raise ArithmeticError("generalized eigenspace dimension mismatch")
                sub = Matrix.from_columns(ker)
                refined.append((label + (lam,), basis * sub,
                                [_restriction(r, sub) for r in rests]))
        blocks = refined
    out = [EigenBlock(label, basis,
                      [r - Matrix.identity(r.rows).scale(lam)
                       for r, lam in zip(rests, label)])
           for label, basis, rests in blocks]
    out.sort(key=lambda b: tuple(x.sort_key() for x in b.label))
    return out


def _all_roots(roots, split):
    if not split:
        raise IrrationalEigenvalue(
            "characteristic polynomial does not split over Q(i)")
    return roots


def eigen_decompose(ops) -> list:
    """Joint generalized-eigenspace decomposition of commuting matrices.

    Splits along one operator at a time; each operator's characteristic
    polynomial must factor into linear factors over Q(i), otherwise
    IrrationalEigenvalue is raised.  Blocks come back sorted by label.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].rows
    for op in ops:
        if not op.is_square() or op.rows != n:
            raise ValueError("operators must be square of equal size")
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            if not ops[a].commutes_with(ops[b]):
                raise NonCommuting("operators %d and %d do not commute" % (a, b))
    return _split(ops, _all_roots)


def integer_eigenspaces(ops) -> list:
    """The joint generalized eigenspaces of commuting square matrices of
    equal size on which every operator has an integer eigenvalue, as
    EigenBlocks sorted by label.

    The rest of the space is dropped, so the spectrum need not split over
    Q(i).  The caller vouches that the operators commute.
    """
    return _split(list(ops),
                  lambda roots, split: [x for x in roots if x.is_integer()])


def reassemble(blocks, k: int) -> Matrix:
    """Rebuild operator k from its blocks: P (diag of label*I + N) P^-1."""
    basis_cols = []
    for b in blocks:
        for j in range(b.basis.cols):
            basis_cols.append(b.basis.column(j))
    diag = Matrix.block_diag(
        [b.nilpotents[k] + Matrix.identity(b.dim).scale(b.label[k])
         for b in blocks])
    p = Matrix.from_columns(basis_cols)
    return p * diag * p.inverse()
