"""Koszul-complex engines for commuting operator families, de Rham
cohomology of hollow constant connections per integer joint eigenspace,
the correspondence with representations of Z^r, and the three-sided
comparison report.

Group cohomology of Z^r acting through operators stored in log
coordinates is computed by substitution in the Koszul complex of
(gamma_k - 1): a block where some label is non-integral is acyclic (the
operator is invertible there); on blocks with all labels integral the
nilpotent replaces gamma_k - 1, which multiplies the differential by a
commuting unit and so preserves all dimensions.
"""

from __future__ import annotations

from itertools import combinations

from .errors import NonCommuting, NonConstant, NotFlat, NotNcType
from .field import ZERO, as_scalar
from .linalg import Matrix, _restriction, eigen_decompose, integer_eigenspaces
from .lobjects import LObject


def _checked_blocks(blocks, count, message):
    """(blocks, count, dimension) for (labels, nilpotents) blocks, made
    into GaussRat labels and Matrix nilpotents; count None takes the first
    block's number of labels.  ValueError(message) unless every block has
    count labels and count nilpotents; ValueError too unless a block's
    nilpotents are square of one size."""
    out = []
    for labels, nils in blocks:
        labels = tuple(as_scalar(x) for x in labels)
        nils = tuple(m if isinstance(m, Matrix) else Matrix(m) for m in nils)
        if count is None:
            count = len(labels)
        if len(labels) != count or len(nils) != count:
            raise ValueError(message)
        d = nils[0].rows if nils else 0
        if any(m.rows != d or m.cols != d for m in nils):
            raise ValueError("block nilpotents must share a size")
        out.append((labels, nils))
    return tuple(out), count, sum(n[0].rows if n else 0 for _, n in out)


class KoszulInput:
    """A commuting family on C^n: either exact matrices or joint blocks of
    log-coordinate operators (per block: one label per operator plus one
    nilpotent per operator)."""

    def __init__(self, operators=None, blocks=None, num_operators=None):
        if (operators is None) == (blocks is None):
            raise ValueError("give exactly one of operators / blocks")
        self.operators = None
        self.blocks = None
        if operators is not None:
            self.operators = tuple(m if isinstance(m, Matrix) else Matrix(m)
                                   for m in operators)
            self.num_operators = len(self.operators)
            self.dimension = self.operators[0].rows if self.operators else 0
            for m in self.operators:
                if not m.is_square() or m.rows != self.dimension:
                    raise ValueError("operators must be square, equal size")
        else:
            self.blocks, nops, self.dimension = _checked_blocks(
                blocks, num_operators,
                "each block needs one label and one nilpotent per operator")
            if nops is None:
                raise ValueError("num_operators required for empty blocks")
            self.num_operators = nops

    def check_commuting(self):
        if self.operators is not None:
            for a in range(len(self.operators)):
                for b in range(a + 1, len(self.operators)):
                    if not self.operators[a].commutes_with(self.operators[b]):
                        raise NonCommuting(
                            "operators %d and %d do not commute" % (a, b))
        else:
            for labels, nils in self.blocks:
                for a in range(len(nils)):
                    for b in range(a + 1, len(nils)):
                        if not nils[a].commutes_with(nils[b]):
                            raise NonCommuting(
                                "block nilpotents %d and %d do not commute"
                                % (a, b))


def _koszul_dims_exact(mats, n):
    """Cohomology dimensions of the Koszul complex of exact matrices."""
    r = len(mats)
    if n == 0:
        return [0] * (r + 1)
    if r == 0:
        return [n]
    subsets = [list(combinations(range(r), i)) for i in range(r + 1)]
    index = [{s: k for k, s in enumerate(level)} for level in subsets]
    ranks = []
    for i in range(r):
        rows_dim = n * len(subsets[i + 1])
        cols_dim = n * len(subsets[i])
        rows = [[ZERO] * cols_dim for _ in range(rows_dim)]
        sign_i = -1 if i % 2 else 1
        for spos, s in enumerate(subsets[i]):
            sset = set(s)
            for k in range(r):
                if k in sset:
                    continue
                merged = tuple(sorted(sset | {k}))
                pos = sum(1 for x in s if x < k)
                sign = sign_i * (-1 if pos % 2 else 1)
                tpos = index[i + 1][merged]
                th = mats[k]
                for a in range(n):
                    for b in range(n):
                        v = th.entries[a][b]
                        if not v.is_zero():
                            val = v if sign > 0 else -v
                            rows[tpos * n + a][spos * n + b] = \
                                rows[tpos * n + a][spos * n + b] + val
        ranks.append(Matrix(rows).rank())
    dims = []
    for i in range(r + 1):
        total = n * len(subsets[i])
        rank_out = ranks[i] if i < r else 0
        rank_in = ranks[i - 1] if i > 0 else 0
        dims.append(total - rank_out - rank_in)
    return dims


def koszul_cohomology(inp: KoszulInput):
    """Dimensions H^0..H^r of the Koszul complex of the family.

    Log-coordinate blocks with a non-integral label contribute nothing;
    otherwise the nilpotents stand in for gamma - 1.
    """
    inp.check_commuting()
    r = inp.num_operators
    if inp.operators is not None:
        return _koszul_dims_exact(list(inp.operators), inp.dimension)
    dims = [0] * (r + 1)
    for labels, nils in inp.blocks:
        if any(not lab.is_integer() for lab in labels):
            continue
        d = nils[0].rows if nils else 0
        part = _koszul_dims_exact(list(nils), d)
        dims = [a + b for a, b in zip(dims, part)]
    return dims


class LocalSystem:
    """A representation of Z^r in log coordinates: joint blocks with one
    label and one nilpotent per generator; gamma_k acts on a block as
    e(label_k) * exp(2 pi i N_k)."""

    def __init__(self, num_generators, blocks):
        self.num_generators = num_generators
        self.blocks, _, self.dimension = _checked_blocks(
            blocks, num_generators,
            "one label and one nilpotent per generator")

    def __eq__(self, other):
        return (isinstance(other, LocalSystem)
                and self.num_generators == other.num_generators
                and self.blocks == other.blocks)

    def __repr__(self):
        return "LocalSystem(r=%d, dim=%d)" % (self.num_generators,
                                              self.dimension)

    def sorted_blocks(self):
        return LocalSystem(self.num_generators,
                           sorted(self.blocks,
                                  key=lambda b: tuple(x.sort_key()
                                                      for x in b[0])))

    def cohomology(self):
        return koszul_cohomology(KoszulInput(blocks=self.blocks,
                                             num_operators=self.num_generators))


def log_point_model(r):
    """The standard free log point: monoid N^r with the hollow ideal."""
    from .monoids import AffineMonoid, MonoidIdeal

    gens = []
    for i in range(r):
        e = [0] * r
        e[i] = 1
        gens.append(tuple(e))
    P = AffineMonoid(gens, ambient_rank=r)
    return P, MonoidIdeal(P, gens, validate=False)


def _is_free_model(monoid):
    d = monoid.ambient_rank
    basis = set()
    for i in range(d):
        e = [0] * d
        e[i] = 1
        basis.add(tuple(e))
    return set(monoid.generators) <= basis and len(set(monoid.generators)) == d


def build_lobject(W: LocalSystem, tau) -> LObject:
    """The tau-adapted object over the free log point with underline W.

    Block of monodromy e(chi)*exp(2 pi i N) becomes a generator class of
    degree tau(chi) with the same nilpotents."""
    r = W.num_generators
    P, K = log_point_model(r)
    degrees = []
    for labels, nils in W.blocks:
        degrees.extend([tuple(tau(x) for x in labels)]
                       * (nils[0].rows if nils else 0))
    mats = [Matrix.block_diag([nils[k] for _, nils in W.blocks])
            for k in range(r)]
    return LObject(P, K, degrees, mats)


def underline(V: LObject) -> LocalSystem:
    """Tensor all monomials to zero: the log-coordinate representation of
    Z^r on the classes, forgetting couplings.  Needs a free (nc) model."""
    if not _is_free_model(V.monoid):
        raise NotNcType("underline needs a free monoid model")
    blocks = []
    for c, idx in enumerate(V.classes):
        deg = V.class_degree(c)
        nils = [m.submatrix(idx, idx) for m in V.log_matrices]
        blocks.append((deg, nils))
    return LocalSystem(V.directions, blocks)


def local_system_round_trip(W: LocalSystem, tau):
    """Build the tau-adapted object of W and underline it back.

    Returns (V, W_back); W_back's labels are the tau-truncations of W's,
    so the round trip is the identity exactly on tau-normalized input."""
    V = build_lobject(W, tau)
    return V, underline(V).sorted_blocks()


class CohomologyReport:
    """Three dimension vectors with the adaptedness flag and agreements."""

    def __init__(self, de_rham, group_v0, local_system, adapted):
        self.de_rham = tuple(de_rham)
        self.group_v0 = tuple(group_v0)
        self.local_system = tuple(local_system)
        self.adapted = bool(adapted)

    @property
    def de_rham_equals_group(self):
        return self.de_rham == self.group_v0

    @property
    def group_equals_local_system(self):
        return self.group_v0 == self.local_system

    def __repr__(self):
        return ("CohomologyReport(deRham=%s, groupV0=%s, localSystem=%s, "
                "adapted=%r)" % (list(self.de_rham), list(self.group_v0),
                                 list(self.local_system), self.adapted))


def torus_de_rham(conn, eps):
    """Algebraic de Rham dimensions of a hollow constant flat connection,
    per integer joint eigenspace of the torus operators.

    The Koszul complex of commuting operators is exact on any invariant
    summand where one of them is invertible, so only the joint generalized
    eigenspaces on which every torus operator V_j has an integer
    eigenvalue a_j contribute: each one the Koszul complex of the
    V_j - a_j and the residues, restricted to it."""
    from .connections import is_flat
    from .strata import _pullbacks

    hs = eps.structure
    if not conn.is_constant():
        raise NonConstant("character decomposition needs constant coefficients")
    if not is_flat(conn):
        raise NotFlat("de Rham needs an integrable connection")
    (base,), rhos = _pullbacks(conn, hs, [eps])
    rho_mats = [Matrix([[x.constant_value() for x in row] for row in r])
                for r in rhos]
    if hs.torus_rank:
        leaves = [(list(b.nilpotents)
                   + [_restriction(rho, b.basis) for rho in rho_mats], b.dim)
                  for b in integer_eigenspaces(base.constant_matrices())]
    else:
        leaves = [(rho_mats, conn.rank)]
    dims = [0] * (hs.torus_rank + hs.sharp_rank + 1)
    for ops, dim in leaves:
        part = _koszul_dims_exact(ops, dim)
        dims = [a + b for a, b in zip(dims, part)]
    return dims


def comparison_report(conn, eps, tau) -> CohomologyReport:
    """The three-sided comparison on a hollow constant flat connection:
    (i) algebraic de Rham per integer joint eigenspace, (ii) group
    cohomology of the zeroth graded piece, (iii) cohomology of the full
    underlined local system.  (i) and (ii) agree unconditionally; (iii)
    joins them exactly on tau-adapted objects when tau fixes 0."""
    de_rham = torus_de_rham(conn, eps)
    mats = conn.constant_matrices()
    blocks = eigen_decompose(mats)
    monoid, ideal = conn.monoid, conn.ideal
    v0_blocks = []
    full_blocks = []
    adapted = True
    for b in blocks:
        labels = tuple(-x for x in b.label)     # gamma labels = degrees
        nils = tuple(-n for n in b.nilpotents)
        full_blocks.append((labels, nils))
        if any(not tau.fixes(x) for x in labels):
            adapted = False
        a = b.label
        if all(x.is_integer() for x in a):
            vec = tuple(int(x.re) for x in a)
            if monoid.contains(vec) and not ideal.contains(vec):
                v0_blocks.append((labels, nils))
    r = len(mats)
    group_v0 = koszul_cohomology(KoszulInput(blocks=v0_blocks,
                                             num_operators=r))
    local = koszul_cohomology(KoszulInput(blocks=full_blocks,
                                          num_operators=r))
    return CohomologyReport(de_rham, group_v0, local, adapted)
