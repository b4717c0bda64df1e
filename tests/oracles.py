"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a different route than the library:
brute-force box scans for monoid combinatorics, a valuation-tracked
lattice saturation for the Fuchs test, kernel/image ranks on an
independently assembled Koszul complex, and GaussRat-at-a-time products
and Faddeev-LeVerrier characteristic polynomials for the integer kernels
of logres.linalg.
"""

from logres.field import GaussRat, ZERO, ONE
from logres.germs import pval
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


def brute_force_radical_membership(P, K, x, nmax=8, bound=None):
    """x in sqrt(K) iff n*x in K for some 1 <= n <= nmax."""
    for n in range(1, nmax + 1):
        nx = tuple(n * c for c in x)
        if K.contains(nx, bound=bound):
            return True
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
