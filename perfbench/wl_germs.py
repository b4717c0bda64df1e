"""Workload `germs`: the Fuchs test on curve germs whose answer is known
by construction.

- gauge    constant systems (Fuchsian) of rank 1-3 moved by a gauge
           frame
- irreg    t^-1 L + C with L triangular and some diagonal entry of L
           nonzero, so the leading term is not nilpotent (irregular), of
           rank 1-3, moved by a gauge frame
- closure  tensor products (1x2, 2x2), direct sums (1+2) and duals
           (rank 3) of the two kinds above: Fuchsian iff every part is
- pullback pullback_germ of a constant flat connection on N^2 along a
           germ whose values are power-series units (Fuchsian), then the
           test

Regularity is invariant under meromorphic gauge transformations, so the
frames may have poles.  Frames are products of elementary unipotent
matrices with Laurent-monomial entries, invertible by construction; the
frames and the closure constructions are applied while the instance list
is generated, which puts gauge_transform in set-up, not in the timed
operations.
"""

from fractions import Fraction

from common import Draw, Op, frac, require

# One round: one instance of every stratum (kind and rank or shape),
# none weighted above another.  A seed's list is ROUNDS rounds of fresh
# instances, about 5 s of work, and a run times whole passes over it.
# Rank 4 comes in as the 2x2 tensor product.  Framed rank-4 germs and
# tensor and sum shapes 2x3 are left out (see the scale limits in
# perfbench/baseline.json).
GAUGE = (1, 2, 3)
IRREG = (1, 2, 3)
CLOSURE = ("tensor12", "tensor22", "sum12", "dual3")
PULLBACK = (1, 2)
ROUNDS = 10
FRAME_EXPONENTS = (-1, 0, 1, 2)
# elementary factors per frame, by rank; closure parts are not moved
FACTORS = {1: 1, 2: 2, 3: 2}
SHAPES = {"tensor12": (1, 2), "tensor22": (2, 2), "sum12": (1, 2),
          "dual3": (3,)}


def _nonzero(d):
    return frac(d.value, 2, 2, nonzero=True)


def _frame(d, n, factors):
    """Entries of a product of `factors` elementary unipotent matrices
    I + c t^k E_ij, as Laurent polynomials {exponent: coefficient}."""
    if n == 1:
        return [[{d.shape.choice(FRAME_EXPONENTS): Fraction(1)}]]
    T = [[{0: Fraction(1)} if i == j else {} for j in range(n)]
         for i in range(n)]
    for _ in range(factors):
        i, j = d.shape.sample(range(n), 2)
        k, c = d.shape.choice(FRAME_EXPONENTS), _nonzero(d)
        # row_i += c t^k row_j, i.e. left multiplication by I + c t^k E_ij
        for col in range(n):
            for e, x in T[j][col].items():
                acc = T[i][col].get(e + k, 0) + c * x
                if acc:
                    T[i][col][e + k] = acc
                else:
                    T[i][col].pop(e + k, None)
    return T


def _laurent(L, poly):
    """A Laurent polynomial as a RatFunc: numerator over t^-lowest."""
    RatFunc = L.germs.RatFunc
    if not poly:
        return RatFunc(())
    lo = min(min(poly), 0)
    num = [poly.get(e, Fraction(0)) for e in range(lo, max(poly) + 1)]
    return RatFunc(num, (0,) * -lo + (1,))


def _germ(L, d, n, irregular, factors):
    """A germ of rank n moved by a frame of `factors` elementary
    factors, with its known verdict."""
    entries = [[{0: _nonzero(d)} if d.shape.random() < (0.8 if i == j else 0.4)
                else {} for j in range(n)] for i in range(n)]
    if irregular:
        # t^-1 L with L upper triangular and L[k][k] != 0: not nilpotent
        k = d.shape.randrange(n)
        for i in range(n):
            for j in range(i, n):
                if i == j == k or d.shape.random() < 0.4:
                    entries[i][j][-1] = _nonzero(d)
        require(entries[k][k].get(-1), "leading term is not nilpotent")
    A = [[_laurent(L, e) for e in row] for row in entries]
    T = [[_laurent(L, e) for e in row] for row in _frame(d, n, factors)]
    g = L.germs.gauge_transform(L.germs.DiffModuleGerm(A), T)
    return g.theta_matrix, not irregular


def _fuchs_op(kind, L, theta, fuchsian):
    def build():
        return (L.germs.DiffModuleGerm(theta),)

    def call(g):
        return L.germs.is_fuchsian(g)

    def check(verdict):
        return verdict is fuchsian

    return Op(kind, build, call, check, corrupt=lambda verdict: not verdict)


def _closure(L, d, shape):
    G = L.germs
    parts = []
    for k, n in enumerate(SHAPES[shape]):
        # the first part is irregular in a third of the instances
        irregular = k == 0 and d.shape.random() < 1 / 3
        parts.append(_germ(L, d, n, irregular, 0))
    germs = [G.DiffModuleGerm(theta) for theta, _ in parts]
    if shape.startswith("tensor"):
        g = G.germ_tensor(*germs)
    elif shape.startswith("sum"):
        g = G.germ_direct_sum(*germs)
    else:
        g = G.germ_dual(*germs)
    return _fuchs_op("closure", L, g.theta_matrix,
                     all(f for _, f in parts))


def _unit(d):
    """A power-series unit p/q: nonzero constant terms on both sides."""
    return ([_nonzero(d) for _ in range(1 + d.shape.randint(0, 2))],
            [_nonzero(d) for _ in range(1 + d.shape.randint(0, 1))])


def _pullback(L, d, n):
    u1 = [[_nonzero(d) if i == j or d.shape.random() < 0.5 else Fraction(0)
           for j in range(n)] for i in range(n)]
    a, b = _nonzero(d), frac(d.value)
    u2 = [[a * x + (b if i == j else 0) for j, x in enumerate(row)]
          for i, row in enumerate(u1)]
    coord, unit = _unit(d), _unit(d)

    def build():
        M, G = L.monoids, L.germs
        N2 = M.AffineMonoid([(1, 0), (0, 1)])
        diff = L.connections.LogDifferentials(N2, M.MonoidIdeal(N2, []))
        conn = L.connections.LogConnection.constant(diff, [
            L.linalg.Matrix([[L.field.GaussRat(x) for x in row] for row in u])
            for u in (u1, u2)])
        face = next(f for f in N2.faces() if f.generator_indices == {0})
        germ_map = G.GermMap(N2, face, [G.RatFunc(*coord)],
                             [G.RatFunc(*unit)])
        return conn, germ_map

    def call(conn, germ_map):
        return L.germs.is_fuchsian(L.germs.pullback_germ(conn, germ_map))

    def check(verdict):
        return verdict is True

    return Op("pullback", build, call, check,
              corrupt=lambda verdict: not verdict)


def _round(L, d):
    ops = [_fuchs_op("gauge", L, *_germ(L, d, rank, False, FACTORS[rank]))
           for rank in GAUGE]
    ops += [_fuchs_op("irreg", L, *_germ(L, d, rank, True, FACTORS[rank]))
            for rank in IRREG]
    ops += [_closure(L, d, shape) for shape in CLOSURE]
    ops += [_pullback(L, d, rank) for rank in PULLBACK]
    d.value.shuffle(ops)
    return ops


def prepare(L, seed, ctx):
    d = Draw("germs", seed, "timed")
    rounds = [_round(L, d) for _ in range(ROUNDS)]
    return rounds, _round(L, Draw("germs", seed, "warmup"))
