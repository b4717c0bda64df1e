"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a different route than the library:
brute-force box scans and a Fourier-Motzkin face certificate for monoid
combinatorics, a valuation-tracked
lattice saturation for the Fuchs test, kernel/image ranks on an
independently assembled Koszul complex, GaussRat-at-a-time products
and Faddeev-LeVerrier characteristic polynomials for the integer kernels
of logres.linalg, whole-MonPoly matrix arithmetic for the curvature
and the splitting pullbacks of logres.connections, and de Rham
cohomology as a sum over torus characters.
"""

from fractions import Fraction
from itertools import product

from logres.connections import LogConnection, MonPoly
from logres.field import GaussRat, ZERO, ONE
from logres.germs import pval
from logres.lattice import rational_kernel, strictly_positive_solution
from logres.linalg import Matrix


# -- monoid oracles ------------------------------------------------------------

def submonoid_box(gens, dim, bound):
    zero = (0,) * dim
    seen = {zero}
    frontier = [zero]
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = tuple(a + b for a, b in zip(y, g))
            if z not in seen and all(abs(c) <= bound for c in z):
                seen.add(z)
                frontier.append(z)
    return seen


def brute_force_faces(P, bound=8):
    """All faces of P as frozen sets of box elements, by testing the face
    condition on every generator subset over a box sample."""
    gens = P.generators
    n = len(gens)
    d = P.ambient_rank
    pbox = submonoid_box(gens, d, bound)
    out = {}
    for mask in range(1 << n):
        sub = [gens[j] for j in range(n) if mask >> j & 1]
        fbox = submonoid_box(sub, d, bound)
        ok = True
        for a in pbox:
            if not ok:
                break
            for b in pbox:
                c = tuple(x + y for x, y in zip(a, b))
                if any(abs(v) > bound for v in c):
                    continue
                if c in fbox and not (a in fbox and b in fbox):
                    ok = False
                    break
        if ok:
            out[frozenset(fbox)] = sorted(set(sub))
    return out


def fm_is_face_subset(P, idx):
    """Is the generator index set idx a face of P?  Exactly when some
    rational functional vanishes on the generators in idx and is > 0 on
    the others, decided by Fourier-Motzkin elimination on the kernel of
    the generators in idx."""
    d = P.ambient_rank
    inside = [P.generators[j] for j in sorted(idx)]
    outside = [g for j, g in enumerate(P.generators) if j not in idx]
    if not outside:
        return True  # P itself, functional 0
    kernel = rational_kernel(inside) if inside else [
        [Fraction(int(i == j)) for i in range(d)] for j in range(d)]
    if not kernel:
        return False
    rows = [[sum(Fraction(g[i]) * v[i] for i in range(d)) for v in kernel]
            for g in outside]
    return strictly_positive_solution(rows)


def brute_force_radical_membership(P, K, x, nmax=8):
    """x in sqrt(K) iff n*x in K for some 1 <= n <= nmax."""
    for n in range(1, nmax + 1):
        nx = tuple(n * c for c in x)
        if K.contains(nx):
            return True
    return False


def box_search_contains(P, x, bound):
    """Is x in P?  Depth-first search from x that subtracts generators and
    keeps every intermediate vector in the box |y_i| <= bound.

    A True answer is a representation.  A False answer is complete only
    when the box holds every partial remainder of some representation of
    x, so callers pass a bound well beyond their vectors.
    """
    x = tuple(x)
    d = len(x)
    zero = (0,) * d
    has_neg = [any(g[i] < 0 for g in P.generators) for i in range(d)]
    has_pos = [any(g[i] > 0 for g in P.generators) for i in range(d)]

    def feasible(y):
        # a coordinate of fixed sign can only be cleared by a generator
        # with a coordinate of the opposite sign
        return all(not (c < 0 and not has_neg[i]) and
                   not (c > 0 and not has_pos[i]) for i, c in enumerate(y))

    seen = set()
    stack = [x]
    while stack:
        y = stack.pop()
        if y == zero:
            return True
        if y in seen or not feasible(y):
            continue
        seen.add(y)
        for g in P.generators:
            z = tuple(a - b for a, b in zip(y, g))
            if z not in seen and all(abs(c) <= bound for c in z):
                stack.append(z)
    return False


# -- germ oracle: valuation-tracked lattice saturation --------------------------
#
# The oracle works with truncated Laurent series ("jets"): a pair
# (valuation, coefficient window).  All decisions it makes (valuations of
# reduction multipliers, stabilization, the divergence floor) only involve
# leading coefficients, so a generous window is exact at corpus scale.

JET_PREC = 48


class Jet:
    __slots__ = ("val", "coeffs")

    def __init__(self, val, coeffs):
        coeffs = list(coeffs[:JET_PREC])
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            val += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.val = val if coeffs else None
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return self.val is None

    @staticmethod
    def zero():
        return Jet(0, ())

    @staticmethod
    def from_ratfunc(rf):
        if rf.is_zero():
            return Jet.zero()
        nv = pval(rf.num)
        dv = pval(rf.den)
        num = rf.num[nv:]
        den = rf.den[dv:]
        inv = [ONE / den[0]]
        for m in range(1, JET_PREC):
            acc = ZERO
            for j in range(1, min(m, len(den) - 1) + 1):
                acc = acc + den[j] * inv[m - j]
            inv.append(-acc / den[0])
        coeffs = []
        for m in range(JET_PREC):
            acc = ZERO
            for j in range(max(0, m - len(inv) + 1), min(m, len(num) - 1) + 1):
                acc = acc + num[j] * inv[m - j]
            coeffs.append(acc)
        return Jet(nv - dv, coeffs)

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        v = min(self.val, other.val)
        n = max(self.val + len(self.coeffs), other.val + len(other.coeffs)) - v
        out = [ZERO] * n
        for i, c in enumerate(self.coeffs):
            out[self.val - v + i] = out[self.val - v + i] + c
        for i, c in enumerate(other.coeffs):
            out[other.val - v + i] = out[other.val - v + i] + c
        return Jet(v, out)

    def __neg__(self):
        return Jet(self.val or 0, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Jet.zero()
        out = [ZERO] * min(JET_PREC, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < len(out):
                    out[i + j] = out[i + j] + a * b
        return Jet(self.val + other.val, out)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        if self.is_zero():
            return Jet.zero()
        den = other.coeffs
        inv = [ONE / den[0]]
        for m in range(1, JET_PREC):
            acc = ZERO
            for j in range(1, min(m, len(den) - 1) + 1):
                acc = acc + den[j] * inv[m - j]
            inv.append(-acc / den[0])
        return self * Jet(-other.val, inv)

    def theta(self):
        """t d/dt on the jet."""
        if self.is_zero():
            return Jet.zero()
        return Jet(self.val, [GaussRat(self.val + i) * c
                              for i, c in enumerate(self.coeffs)])


def _jet_matrix(germ):
    return [[Jet.from_ratfunc(x) for x in row] for row in germ.theta_matrix]


def _jet_apply(amat, v):
    n = len(v)
    out = []
    for i in range(n):
        acc = v[i].theta()
        for j in range(n):
            acc = acc + amat[i][j] * v[j]
        out.append(acc)
    return out


def _min_valuation(vectors):
    vals = [x.val for v in vectors for x in v if not x.is_zero()]
    return min(vals) if vals else 0


def _dvr_triangular_basis(vectors, n):
    """Triangular basis of the C[[t]]-lattice spanned by jet vectors.

    At each coordinate pick the generator of minimal valuation there and
    clear that coordinate from the others; multipliers have valuation
    >= 0, so the span over the valuation ring is unchanged."""
    work = [list(v) for v in vectors if any(not x.is_zero() for x in v)]
    basis = []
    for r in range(n):
        cand = [(v[r].val, i) for i, v in enumerate(work)
                if not v[r].is_zero()]
        if not cand:
            continue
        cand.sort()
        _, pi = cand[0]
        piv = work.pop(pi)
        rest = []
        for v in work:
            if not v[r].is_zero():
                f = v[r] / piv[r]
                v = [a - f * b for a, b in zip(v, piv)]
            if any(not x.is_zero() for x in v):
                rest.append(v)
        basis.append(piv)
        work = rest
    return basis


def _in_lattice(v, basis, n):
    v = list(v)
    for b in basis:
        r = next(i for i in range(n) if not b[i].is_zero())
        if v[r].is_zero():
            continue
        f = v[r] / b[r]
        if f.val is not None and f.val < 0:
            return False
        v = [a - f * c for a, c in zip(v, b)]
    return all(x.is_zero() for x in v)


def saturation_is_fuchsian(germ, max_iter=None):
    """Lattice-saturation Fuchs oracle.

    Iterate L <- L + Theta L starting from the standard lattice; stable
    means regular singular.  If the minimal valuation in a triangular
    basis drops below -rank * (1 + max pole order of A), the saturation
    cannot stabilize and the module is irregular: a stable lattice of a
    regular module can be chosen with denominators within that bound, and
    every saturation step of a regular module stays inside it.
    """
    n = germ.rank
    avals = [x.valuation() for row in germ.theta_matrix for x in row
             if not x.is_zero()]
    pole = max(0, -min(avals)) if avals else 0
    floor = -n * (1 + pole)
    amat = _jet_matrix(germ)
    basis = [[Jet(0, (ONE,)) if j == i else Jet.zero() for j in range(n)]
             for i in range(n)]
    if max_iter is None:
        max_iter = 4 * n * (1 + pole) + n + 4
    for _ in range(max_iter):
        images = [_jet_apply(amat, b) for b in basis]
        if all(_in_lattice(v, basis, n) for v in images):
            return True
        basis = _dvr_triangular_basis([list(b) for b in basis] + images, n)
        if _min_valuation(basis) < floor:
            return False
    return False


# -- linear algebra oracles -----------------------------------------------------

def naive_matmul(a, b):
    """Product by the textbook triple loop, one GaussRat at a time."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = ZERO
            for k in range(a.cols):
                s = s + a.entries[i][k] * b.entries[k][j]
            row.append(s)
        out.append(row)
    return Matrix(out)


def faddeev_leverrier_charpoly(m):
    """det(xI - m), low-to-high, by the Faddeev-LeVerrier trace recurrence
    over GaussRat (exact in characteristic 0), with naive products."""
    n = m.rows
    coeffs = [ZERO] * n + [ONE]
    ident = Matrix.identity(n)
    mk = ident
    for k in range(1, n + 1):
        am = naive_matmul(m, mk)
        tr = ZERO
        for i in range(n):
            tr = tr + am.entries[i][i]
        c = -(tr / GaussRat(k))
        coeffs[n - k] = c
        mk = am + ident.scale(c)
    return coeffs


def minor_rank(m):
    """Rank as the largest size of a nonvanishing minor."""
    from itertools import combinations

    def det(sub):
        k = len(sub)
        if k == 0:
            return ONE
        if k == 1:
            return sub[0][0]
        out = ZERO
        for j in range(k):
            if sub[0][j].is_zero():
                continue
            minor = [[sub[i][jj] for jj in range(k) if jj != j]
                     for i in range(1, k)]
            term = sub[0][j] * det(minor)
            out = out + (term if j % 2 == 0 else -term)
        return out

    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for ri in combinations(range(m.rows), k):
            for ci in combinations(range(m.cols), k):
                sub = [[m.entries[i][j] for j in ci] for i in ri]
                if not det(sub).is_zero():
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def koszul_dims_kernel_image(mats, n):
    """Koszul dimensions by explicit kernel/image ranks on a complex built
    with the untwisted differential (isomorphic via diagonal signs)."""
    from itertools import combinations

    r = len(mats)
    subsets = [list(combinations(range(r), i)) for i in range(r + 1)]
    index = [{s: k for k, s in enumerate(level)} for level in subsets]

    def differential(i):
        rows = n * len(subsets[i + 1])
        cols = n * len(subsets[i])
        out = [[ZERO] * cols for _ in range(rows)]
        for spos, s in enumerate(subsets[i]):
            for k in range(r):
                if k in s:
                    continue
                merged = tuple(sorted(set(s) | {k}))
                sign = (-1) ** sum(1 for x in s if x < k)
                tpos = index[i + 1][merged]
                for a in range(n):
                    for b in range(n):
                        v = mats[k].entries[a][b]
                        if not v.is_zero():
                            out[tpos * n + a][spos * n + b] = \
                                out[tpos * n + a][spos * n + b] + \
                                (v if sign > 0 else -v)
        return Matrix(out)

    dims = []
    prev_rank = 0
    for i in range(r + 1):
        total = n * len(subsets[i])
        if i < r:
            d = differential(i)
            ker = len(d.kernel_basis())
            rank = total - ker
        else:
            ker = total
            rank = 0
        dims.append(ker - prev_rank)
        prev_rank = rank
    return dims


# -- connection oracles ---------------------------------------------------------

def _mp_weight(x, k):
    return MonPoly([(e, c * GaussRat(e[k])) for e, c in x.terms])


def _mpm_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = MonPoly()
            for m in range(n):
                s = s + a[i][m] * b[m][j]
            row.append(s)
        out.append(row)
    return out


def mpm_curvature(a, k, b, l):
    """W_k(b) - W_l(a) + ab - ba as a MonPoly matrix, one MonPoly partial
    sum at a time; W_k weights each term by its k-th exponent, W_None = 0."""
    ab, ba = _mpm_mul(a, b), _mpm_mul(b, a)
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(a)):
            val = ab[i][j] - ba[i][j]
            if k is not None:
                val = val + _mp_weight(b[i][j], k)
            if l is not None:
                val = val - _mp_weight(a[i][j], l)
            row.append(val)
        out.append(row)
    return out


def mpm_is_flat(conn):
    """Flatness: every dlog_k wedge dlog_l curvature entry vanishes mod K."""
    s = conn.differentials.rank
    red = conn.differentials.reduce
    return all(red(x).is_zero() for k in range(s) for l in range(k + 1, s)
               for row in mpm_curvature(conn.omega[k], k, conn.omega[l], l)
               for x in row)


def mpm_higgs_conditions(conn, eps):
    """(i, ii, iii, base, residues) as logres.rh.higgs_conditions returns
    them, with the adapted components and the splitting pullback summed
    entry by entry."""
    hs = eps.structure
    n = conn.rank

    def lin(mats, coeffs):
        out = [[MonPoly() for _ in range(n)] for _ in range(n)]
        for mat, c in zip(mats, coeffs):
            for i in range(n):
                for j in range(n):
                    out[i][j] = out[i][j] + mat[i][j].scale(c)
        return out

    def in_torus(mat):
        return [[x.map_exponents(hs.unit_coords) for x in row] for row in mat]

    comps = [lin(conn.omega, row) for row in hs.U]
    torus, sharp = comps[:hs.torus_rank], comps[hs.torus_rank:]
    base = LogConnection(hs.torus_differentials(), [
        in_torus(lin([torus[i]] + sharp,
                     [1] + [row[i] for row in eps.monomial_part]))
        for i in range(hs.torus_rank)], rank=n)
    rhos = [in_torus(mat) for mat in sharp]

    def zero(mat):
        return all(x.is_zero() for row in mat for x in row)

    cond2 = all(zero(mpm_curvature(ra, None, rb, None))
                for a, ra in enumerate(rhos) for rb in rhos[a + 1:])
    cond3 = all(zero(mpm_curvature(base.omega[i], i, rho, None))
                for rho in rhos for i in range(hs.torus_rank))
    return mpm_is_flat(base), cond2, cond3, base, rhos


def character_de_rham(conn, eps):
    """De Rham dimensions of a hollow constant flat connection as a sum
    over the characters chi of the unit torus: one full Koszul complex of
    (V_j + chi_j, residues) for every chi with each -chi_j an integer
    eigenvalue of V_j.  Those are found by testing V_j - a for
    singularity at every integer a up to the largest absolute row sum."""
    _, _, _, base, rhos = mpm_higgs_conditions(conn, eps)
    n = conn.rank
    ident = Matrix.identity(n)

    def const(mat):
        return Matrix([[x.constant_value() for x in row] for row in mat])

    def integer_eigenvalues(v):
        bound = int(max([sum(abs(x.re) + abs(x.im) for x in row)
                         for row in v.entries] + [0]))
        return [a for a in range(-bound, bound + 1)
                if (v - ident.scale(a)).rank() < n]

    vmats = [const(mat) for mat in base.omega]
    ops_rho = [const(mat) for mat in rhos]
    dims = [0] * (len(vmats) + len(ops_rho) + 1)
    for chi in product(*[[-a for a in integer_eigenvalues(v)]
                         for v in vmats]):
        ops = [v + ident.scale(c) for v, c in zip(vmats, chi)] + ops_rho
        dims = [a + b for a, b in zip(dims, koszul_dims_kernel_image(ops, n))]
    return dims
