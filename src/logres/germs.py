"""Differential modules over the formal Laurent field: the Fuchs test by
cyclic-vector reduction, pullbacks of constant log connections along curve
germs, and the tensor constructions used by the closure properties.

Coefficients are rational functions in t over Q(i), kept exact.  A module
is the operator Theta = t d/dt + A(t) on column vectors.  The Fuchs
criterion: reduce to a monic scalar operator Theta^n + a_{n-1}
Theta^{n-1} + ... + a_0 via a cyclic vector; the module is regular
singular iff every a_i has nonnegative t-adic valuation (the Newton
polygon of the scalar form is a cyclic-vector invariant, so any cyclic
vector decides).
"""

from __future__ import annotations

from .errors import CyclicVectorNotFound, NonUnitValue
from .field import GaussRat, ZERO, ONE, as_scalar, power
from .linalg import solve_columns


# -- dense univariate polynomials over Q(i), low to high ---------------------

def pnorm(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return tuple(p)


def padd(a, b):
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO)
                  for i in range(n)])


def pneg(a):
    return tuple(-x for x in a)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return pnorm(out)


def pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(not x.is_zero() for x in a):
        if a[-1].is_zero():
            a.pop()
            continue
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = q[k] + f
        for i in range(len(b)):
            a[k + i] = a[k + i] - f * b[i]
        a.pop()
    return pnorm(q), pnorm(a)


def pgcd(a, b):
    a, b = pnorm(a), pnorm(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return ()
    return tuple(x / a[-1] for x in a)


def pderiv(a):
    return pnorm([a[i] * GaussRat(i) for i in range(1, len(a))])


def pval(a):
    for i, x in enumerate(a):
        if not x.is_zero():
            return i
    return None  # valuation of 0


POLY_T = (ZERO, ONE)


def poly_const(c):
    c = as_scalar(c)
    return (c,) if not c.is_zero() else ()


class RatFunc:
    """p(t)/q(t) over Q(i), normalized: gcd cancelled, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(ONE,)):
        num = pnorm(tuple(as_scalar(x) for x in num))
        den = pnorm(tuple(as_scalar(x) for x in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            if all(x.is_zero() for x in den[:-1]):
                # monomial denominator: cancel t-powers and scale, no gcd
                k = len(den) - 1
                v = pval(num)
                drop = min(k, v)
                if drop:
                    num = num[drop:]
                    den = den[drop:]
                lead = den[-1]
                if lead != ONE:
                    num = tuple(x / lead for x in num)
                    den = den[:-1] + (ONE,)
            else:
                g = pgcd(num, den)
                if len(g) > 1:
                    num = pdivmod(num, g)[0]
                    den = pdivmod(den, g)[0]
                lead = den[-1]
                num = tuple(x / lead for x in num)
                den = tuple(x / lead for x in den)
        else:
            den = (ONE,)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def const(c):
        return RatFunc(poly_const(c))

    @staticmethod
    def t_power(k):
        if k >= 0:
            return RatFunc((ZERO,) * k + (ONE,))
        return RatFunc((ONE,), (ZERO,) * (-k) + (ONE,))

    def __bool__(self):
        return bool(self.num)

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        return RatFunc(padd(pmul(self.num, other.den), pmul(other.num, self.den)),
                       pmul(self.den, other.den))

    def __neg__(self):
        return RatFunc(pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, c):
        """c / self for a scalar c, such as the pivot inverse 1 / f."""
        if self.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(pmul(poly_const(c), self.den), self.num)

    def __pow__(self, k):
        return power(self if k >= 0 else RF_ONE / self, abs(k), RF_ONE)

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def valuation(self):
        """t-adic valuation; None for the zero function."""
        if self.is_zero():
            return None
        return pval(self.num) - pval(self.den)

    def derivative(self):
        n = padd(pmul(pderiv(self.num), self.den),
                 pneg(pmul(self.num, pderiv(self.den))))
        return RatFunc(n, pmul(self.den, self.den))

    def theta_log(self):
        """t f'/f, the logarithmic theta-derivative."""
        if self.is_zero():
            raise NonUnitValue("dlog of the zero function")
        return RatFunc(pmul(POLY_T, pmul(pderiv(self.num), self.den)),
                       pmul(self.num, self.den)) - RatFunc(
            pmul(POLY_T, pmul(pderiv(self.den), self.num)),
            pmul(self.num, self.den))

    def __repr__(self):
        def fmt(p):
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if c.is_zero():
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append("%s*t" % c)
                else:
                    parts.append("%s*t^%d" % (c, i))
            return " + ".join(parts)

        if self.den == (ONE,):
            return fmt(self.num)
        return "(%s)/(%s)" % (fmt(self.num), fmt(self.den))


RF_ZERO = RatFunc(())
RF_ONE = RatFunc((ONE,))


# -- matrices over RatFunc ----------------------------------------------------

def rf_mat(rows):
    return tuple(tuple(x if isinstance(x, RatFunc) else RatFunc.const(x)
                       for x in row) for row in rows)


def rf_identity(n):
    return tuple(tuple(RF_ONE if i == j else RF_ZERO for j in range(n))
                 for i in range(n))


def rf_mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = RF_ZERO
            for k in range(m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return tuple(map(tuple, out))


def rf_mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def rf_mat_neg(a):
    return tuple(tuple(-x for x in r) for r in a)


def rf_solve(a, rhs_cols):
    """Solve a X = B over the rational-function field; None if singular."""
    pivots, sol = solve_columns(a, rhs_cols, RF_ZERO)
    return sol if len(pivots) == len(a) else None


def rf_inverse(a):
    n = len(a)
    cols = rf_solve(a, [tuple(RF_ONE if i == j else RF_ZERO for i in range(n))
                        for j in range(n)])
    if cols is None:
        raise ZeroDivisionError("singular matrix over Q(i)(t)")
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


class DiffModuleGerm:
    """The operator Theta = t d/dt + A(t) on K^n, K = Q(i)(t)."""

    def __init__(self, theta_matrix):
        self.theta_matrix = rf_mat(theta_matrix)
        self.rank = len(self.theta_matrix)
        if any(len(r) != self.rank for r in self.theta_matrix):
            raise ValueError("theta matrix must be square")

    def __eq__(self, other):
        return (isinstance(other, DiffModuleGerm)
                and self.theta_matrix == other.theta_matrix)

    def __repr__(self):
        return "DiffModuleGerm(rank=%d)" % self.rank

    def apply(self, v):
        """Theta(v) = t v' + A v on a vector of rational functions."""
        tpoly = RatFunc(POLY_T)
        out = []
        for i in range(self.rank):
            acc = tpoly * v[i].derivative()
            for j in range(self.rank):
                acc = acc + self.theta_matrix[i][j] * v[j]
            out.append(acc)
        return tuple(out)


def _cyclic_candidates(n):
    # standard basis vectors, then e_1 + t^j e_k, then denser ladders of the
    # form sum_k t^{j(k-1)} e_k and pairwise e_i + t^j e_k; all deterministic
    for i in range(n):
        yield tuple(RF_ONE if j == i else RF_ZERO for j in range(n))
    for k in range(1, n):
        for j in range(n + 1):
            v = [RF_ZERO] * n
            v[0] = RF_ONE
            v[k] = RatFunc.t_power(j)
            yield tuple(v)
    for j in range(n + 1):
        yield tuple(RatFunc.t_power(j * k) for k in range(n))
    for i in range(1, n):
        for k in range(i + 1, n):
            for j in range(n + 1):
                v = [RF_ZERO] * n
                v[i] = RF_ONE
                v[k] = RatFunc.t_power(j)
                yield tuple(v)


def scalar_theta_form(g: DiffModuleGerm):
    """Coefficients a_0..a_{n-1} of the monic scalar operator annihilating a
    cyclic vector, from the deterministic candidate ladder."""
    n = g.rank
    for v in _cyclic_candidates(n):
        chain = [v]
        for _ in range(n):
            chain.append(g.apply(chain[-1]))
        cols = chain[:n]
        mat = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        sol = rf_solve(mat, [chain[n]])
        if sol is None:
            continue
        return tuple(-x for x in sol[0])
    raise CyclicVectorNotFound(
        "deterministic cyclic-vector ladder exhausted at rank %d" % n)


def is_fuchsian(g: DiffModuleGerm) -> bool:
    """Regular-singular test: every scalar-form coefficient has t-adic
    valuation >= 0."""
    coeffs = scalar_theta_form(g)
    for a in coeffs:
        v = a.valuation()
        if v is not None and v < 0:
            return False
    return True


def germ_tensor(g1: DiffModuleGerm, g2: DiffModuleGerm) -> DiffModuleGerm:
    """Tensor product: A (x) I + I (x) B."""
    n, m = g1.rank, g2.rank
    out = [[RF_ZERO] * (n * m) for _ in range(n * m)]
    for i in range(n):
        for j in range(n):
            for u in range(m):
                for v in range(m):
                    acc = RF_ZERO
                    if u == v:
                        acc = acc + g1.theta_matrix[i][j]
                    if i == j:
                        acc = acc + g2.theta_matrix[u][v]
                    out[i * m + u][j * m + v] = acc
    return DiffModuleGerm(out)


def germ_dual(g: DiffModuleGerm) -> DiffModuleGerm:
    return DiffModuleGerm([[-g.theta_matrix[j][i] for j in range(g.rank)]
                           for i in range(g.rank)])


def germ_direct_sum(g1: DiffModuleGerm, g2: DiffModuleGerm) -> DiffModuleGerm:
    n, m = g1.rank, g2.rank
    out = [[RF_ZERO] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = g1.theta_matrix[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = g2.theta_matrix[i][j]
    return DiffModuleGerm(out)


def gauge_transform(g: DiffModuleGerm, T) -> DiffModuleGerm:
    """The same module in the frame w = T v: T A T^-1 - t T' T^-1.

    The sign matters: conjugating Theta = t d/dt + A gives the derivative
    term a minus (T (t d/dt + A) T^-1 = t d/dt + TAT^-1 - tT'T^-1); with a
    plus sign the result is generally a different module whose regularity
    can differ."""
    T = rf_mat(T)
    Tinv = rf_inverse(T)
    tpoly = RatFunc(POLY_T)
    Tp = tuple(tuple(x.derivative() * tpoly for x in row) for row in T)
    return DiffModuleGerm(rf_mat_add(rf_mat_mul(rf_mat_mul(T, g.theta_matrix),
                                                Tinv),
                                     rf_mat_neg(rf_mat_mul(Tp, Tinv))))


class GermMap:
    """A strict formal curve germ into a stratum of a model, with the
    splitting data needed to pull connections back.

    target_face       -- face of the model's monoid (the stratum)
    coordinate_values -- one unit rational function per basis vector of the
                         face lattice
    splitting_units   -- one unit rational function per sharp basis vector
                         of the quotient

    Sharp generators go to zero under the structure map (strictness); their
    dlog directions are routed through the splitting units.
    """

    def __init__(self, monoid, face, coordinate_values, splitting_units):
        from .lattice import hnf_rows, saturated_basis_change

        self.monoid = monoid
        self.face = face
        coordinate_values = [x if isinstance(x, RatFunc) else RatFunc.const(x)
                             for x in coordinate_values]
        splitting_units = [x if isinstance(x, RatFunc) else RatFunc.const(x)
                           for x in splitting_units]
        for f in coordinate_values + splitting_units:
            if f.is_zero():
                raise NonUnitValue("germ-map values must be nonzero functions")
        d = monoid.ambient_rank
        mbasis = hnf_rows(face.span)
        t = len(mbasis)
        if len(coordinate_values) != t:
            raise ValueError("need one coordinate value per face basis vector")
        if len(splitting_units) != d - t:
            raise ValueError("need one splitting unit per sharp basis vector")
        _, U, _ = saturated_basis_change(mbasis, d,
                                         "face lattice is not saturated")
        self.coordinate_values = tuple(coordinate_values)
        self.splitting_units = tuple(splitting_units)
        self._key = (monoid, face.generator_indices, self.coordinate_values,
                     self.splitting_units)
        values = list(coordinate_values) + list(splitting_units)
        self.direction_units = []
        for m in range(d):
            acc = RF_ONE
            for l in range(d):
                e = U[l][m]
                if e:
                    acc = acc * values[l] ** e
            self.direction_units.append(acc)
        self.direction_units = tuple(self.direction_units)

    def __eq__(self, other):
        return isinstance(other, GermMap) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


def pullback_germ(conn, germ_map: GermMap) -> DiffModuleGerm:
    """epsilon-pullback of a flat constant connection along a curve germ:
    A(t) = sum_k U_k * (t g_k'/g_k) over the dlog directions."""
    from .connections import is_flat as _flat
    from .errors import NotFlat

    mats = conn.constant_matrices()
    if not _flat(conn):
        raise NotFlat("pullback requires an integrable connection")
    if conn.monoid != germ_map.monoid:
        raise ValueError("germ map targets a different model")
    n = conn.rank
    out = [[RF_ZERO] * n for _ in range(n)]
    for k, U in enumerate(mats):
        w = germ_map.direction_units[k].theta_log()
        for i in range(n):
            for j in range(n):
                c = U.entries[i][j]
                if not c.is_zero():
                    out[i][j] = out[i][j] + RatFunc.const(c) * w
    return DiffModuleGerm(out)
