"""Affine fs monoid combinatorics: faces, ideals, radicals, localization,
quotients, and the locally-constant / hollow classification of models.

A monoid is presented by generators inside Z^d.  Saturation is never
enforced; it is a bounded query.  Membership of a vector is decided by a
box-bounded search over the generator representation, with the bound
exposed (default: componentwise 4 * max coordinate), so callers can stress
it.  Face enumeration is exact: the cone's facets are computed once, as the
integer normals of hyperplanes through its generators, and the faces are
the intersections of the facets' generator index sets (the closed sets of
the generator-facet incidence).  A face handed in by a caller is certified
independently by a rational supporting functional, decided by
Fourier-Motzkin elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import NotAFace
from .lattice import (hnf_rows, lattice_rank, rational_kernel, snf,
                      strictly_positive_solution)
from .linalg import solve_columns


def _det(m):
    """Determinant of a square integer matrix (Bareiss, exact division)."""
    m = [list(row) for row in m]
    n = len(m)
    if not n:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _default_bound(vectors):
    m = 1
    for v in vectors:
        for x in v:
            m = max(m, abs(x))
    return 4 * m


class AffineMonoid:
    """Submonoid of Z^d given by a finite generator list."""

    def __init__(self, generators, ambient_rank=None):
        gens = tuple(tuple(int(x) for x in g) for g in generators)
        if gens:
            d = len(gens[0])
            if any(len(g) != d for g in gens):
                raise ValueError("generators of mixed dimension")
        else:
            if ambient_rank is None:
                raise ValueError("ambient_rank required for the zero monoid")
            d = ambient_rank
        if ambient_rank is not None and gens and ambient_rank != d:
            raise ValueError("ambient_rank disagrees with generators")
        self.ambient_rank = d
        self.generators = gens
        self._member_cache = {}
        self._faces = None
        self._has_neg = tuple(any(g[i] < 0 for g in gens) for i in range(d))
        self._has_pos = tuple(any(g[i] > 0 for g in gens) for i in range(d))

    def __eq__(self, other):
        return (isinstance(other, AffineMonoid)
                and self.ambient_rank == other.ambient_rank
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ambient_rank, self.generators))

    def __repr__(self):
        return "AffineMonoid(%r)" % (list(map(list, self.generators)),)

    # -- membership ---------------------------------------------------------

    def contains(self, x, bound=None):
        """Is x a nonnegative integer combination of the generators?

        Box-bounded depth-first search: intermediate vectors must stay
        within componentwise |y_i| <= bound.
        """
        x = tuple(int(v) for v in x)
        if len(x) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        if bound is None:
            bound = _default_bound(self.generators + (x,))
        key = (x, bound)
        cached = self._member_cache.get(key)
        if cached is not None:
            return cached
        zero = (0,) * self.ambient_rank

        def feasible(y):
            # a coordinate of fixed sign can only be cleared by a generator
            # with a coordinate of the opposite sign
            for i, c in enumerate(y):
                if c < 0 and not self._has_neg[i]:
                    return False
                if c > 0 and not self._has_pos[i]:
                    return False
            return True

        seen = set()
        stack = [x]
        found = False
        while stack:
            y = stack.pop()
            if y == zero:
                found = True
                break
            if y in seen or not feasible(y):
                continue
            seen.add(y)
            for g in self.generators:
                z = tuple(a - b for a, b in zip(y, g))
                if z not in seen and all(abs(c) <= bound for c in z):
                    stack.append(z)
        self._member_cache[key] = found
        return found

    def elements_in_box(self, bound):
        """All monoid elements with componentwise |x_i| <= bound (BFS from 0)."""
        zero = (0,) * self.ambient_rank
        seen = {zero}
        frontier = [zero]
        while frontier:
            y = frontier.pop()
            for g in self.generators:
                z = tuple(a + b for a, b in zip(y, g))
                if z not in seen and all(abs(c) <= bound for c in z):
                    seen.add(z)
                    frontier.append(z)
        return seen

    def group_basis(self):
        """Rows forming a lattice basis of P^gp inside Z^d."""
        return hnf_rows(self.generators)

    def group_rank(self):
        return len(self.group_basis())

    def in_group(self, x):
        """Is x in the subgroup P^gp of Z^d?"""
        return lattice_rank(list(self.group_basis()) + [list(x)]) == self.group_rank()

    # -- faces ---------------------------------------------------------------

    def faces(self):
        """All faces, sorted by (size, indices); memoized.

        Includes the unit face (minimum) and the whole monoid (maximum).
        Every proper face of a polyhedral cone is the intersection of the
        facets that contain it, so the faces are the full generator index
        set and every intersection of facet index sets, found by closing
        the facets under intersection.
        """
        if self._faces is not None:
            return self._faces
        facets = self._facets()
        full = frozenset(range(len(self.generators)))
        found = {full}
        work = [full]
        while work:
            s = work.pop()
            for f in facets:
                t = s & f
                if t not in found:
                    found.add(t)
                    work.append(t)
        out = [Face(self, idx) for idx in found]
        out.sort(key=lambda f: (len(f.generator_indices),
                                tuple(sorted(f.generator_indices))))
        self._faces = out
        return out

    def _facets(self):
        """Generator index sets of the facets of the cone of P.

        Projecting onto the leading columns of the Hermite basis of P^gp
        is injective on its span, so the projected cone is full-dimensional
        in Q^r.  A facet's hyperplane is spanned by r - 1 independent
        generators, and its normal is their generalised cross product (the
        signed (r-1)-minors).  A nonzero normal of one sign on every
        generator supports a facet: the generators where it vanishes.
        """
        basis = self.group_basis()
        r = len(basis)
        if r == 0:
            return []
        cols = [next(j for j, x in enumerate(row) if x) for row in basis]
        proj = [tuple(g[c] for c in cols) for g in self.generators]
        points = sorted({p for p in proj if any(p)})
        facets = set()
        for sub in combinations(points, r - 1):
            normal = [(-1) ** i
                      * _det([[v[c] for c in range(r) if c != i] for v in sub])
                      for i in range(r)]
            values = [sum(a * b for a, b in zip(normal, p)) for p in proj]
            if not any(values) or min(values) < 0 < max(values):
                continue  # dependent subset, or a hyperplane through the cone
            facets.add(frozenset(j for j, v in enumerate(values) if v == 0))
        return list(facets)

    def _is_face_subset(self, idx):
        inside = [self.generators[j] for j in sorted(idx)]
        outside = [self.generators[j] for j in range(len(self.generators))
                   if j not in idx]
        if not outside:
            return True  # P itself, functional 0
        kernel = rational_kernel(inside) if inside else [
            [Fraction(1) if i == j else Fraction(0) for i in range(self.ambient_rank)]
            for j in range(self.ambient_rank)]
        if not kernel:
            return False
        rows = [[sum(Fraction(g[i]) * v[i] for i in range(self.ambient_rank))
                 for v in kernel] for g in outside]
        return strictly_positive_solution(rows)

    def unit_face(self):
        """The minimal face: generators that are units."""
        return self.faces()[0]

    def is_sharp(self):
        return not self.unit_face().span

    def is_saturated(self, bound=4, multiple_bound=6):
        """Bounded saturation check on the box |x_i| <= bound.

        Scans group elements x in the box with n*x in P for some
        2 <= n <= multiple_bound and reports False if such an x is missing
        from P.  A True answer is evidence, not proof, at this bound.
        """
        from itertools import product

        for x in product(range(-bound, bound + 1), repeat=self.ambient_rank):
            if not any(x) or not self.in_group(x):
                continue
            if self.contains(x):
                continue
            for n in range(2, multiple_bound + 1):
                nx = tuple(n * c for c in x)
                if self.contains(nx):
                    return False
        return True

    def face_lattice_dot(self):
        """Face lattice as a DOT digraph (edges are covering inclusions)."""
        fs = self.faces()
        lines = ["digraph faces {"]
        for i, f in enumerate(fs):
            lines.append('  f%d [label="%s"];' % (i, f.label()))
        for i, j in covering_pairs([f.generator_indices for f in fs]):
            lines.append("  f%d -> f%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines)


class Face:
    """A face of an affine monoid, recorded by its generator indices."""

    def __init__(self, monoid, generator_indices):
        self.monoid = monoid
        self.generator_indices = frozenset(generator_indices)
        self.span = tuple(sorted({monoid.generators[j]
                                  for j in self.generator_indices
                                  if any(monoid.generators[j])}))
        self._submonoid = None

    def __eq__(self, other):
        return (isinstance(other, Face) and self.monoid == other.monoid
                and self.generator_indices == other.generator_indices)

    def __hash__(self):
        return hash((self.monoid, self.generator_indices))

    def __repr__(self):
        return "Face(%r)" % (sorted(self.generator_indices),)

    def label(self):
        return "{%s}" % ", ".join(str(list(v)) for v in self.span) if self.span else "{0}"

    def submonoid(self):
        if self._submonoid is None:
            self._submonoid = AffineMonoid(self.span or (),
                                           ambient_rank=self.monoid.ambient_rank)
        return self._submonoid

    def contains(self, x, bound=None):
        """Face membership: x must be a combination of the face generators."""
        return self.submonoid().contains(x, bound=bound)

    def group_rank(self):
        return lattice_rank(self.span)

    def is_disjoint_from(self, ideal, bound=None):
        """F cap K is empty iff no generator of K lies in F."""
        return not any(self.contains(k, bound=bound) for k in ideal.generators)


def _check_face(P, F):
    if not isinstance(F, Face) or F.monoid != P:
        raise NotAFace("face does not belong to this monoid")
    if not P._is_face_subset(F.generator_indices):
        raise NotAFace("generator subset fails the face condition")


class MonoidIdeal:
    """Ideal of P, closed generator list; membership is bounded search."""

    def __init__(self, monoid, generators, validate=True, bound=None):
        self.monoid = monoid
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        if validate:
            for k in self.generators:
                if not monoid.contains(k, bound=bound):
                    raise ValueError("ideal generator %r is not in the monoid" % (k,))

    def __eq__(self, other):
        return (isinstance(other, MonoidIdeal) and self.monoid == other.monoid
                and set(self.generators) == set(other.generators))

    def __hash__(self):
        return hash((self.monoid, frozenset(self.generators)))

    def __repr__(self):
        return "MonoidIdeal(%r)" % (list(map(list, self.generators)),)

    def is_empty(self):
        return not self.generators

    def contains(self, x, bound=None):
        x = tuple(int(v) for v in x)
        return any(self.monoid.contains(tuple(a - b for a, b in zip(x, k)),
                                        bound=bound)
                   for k in self.generators)


class ModelClass:
    """Classification flags of a model A_{P,K}."""

    def __init__(self, locally_constant, hollow):
        self.locally_constant = bool(locally_constant)
        self.hollow = bool(hollow)
        if self.hollow and not self.locally_constant:
            raise ValueError("hollow implies locally constant")

    def __repr__(self):
        return "ModelClass(locally_constant=%r, hollow=%r)" % (
            self.locally_constant, self.hollow)

    def __eq__(self, other):
        return (isinstance(other, ModelClass)
                and self.locally_constant == other.locally_constant
                and self.hollow == other.hollow)


def covering_pairs(sets):
    """The pairs (i, j), in row-major order, with sets[i] a proper subset
    of sets[j] and no sets[k] strictly between: the Hasse-diagram edges."""
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if a < b and not any(a < c < b for c in sets):
                yield i, j


def faces(P: AffineMonoid):
    return P.faces()


def localize(P: AffineMonoid, F: Face) -> AffineMonoid:
    """P_F = P + F^gp: adjoin negatives of the face generators."""
    _check_face(P, F)
    return AffineMonoid(P.generators + tuple(tuple(-x for x in g) for g in F.span),
                        ambient_rank=P.ambient_rank)


class QuotientMap:
    """The projection P^gp -> P^gp / F^gp in explicit integer coordinates."""

    def __init__(self, basis, proj_rows, signs):
        self._basis = basis          # rows: lattice basis of P^gp in Z^d
        self._proj = proj_rows       # rows of U picking the free quotient part
        self._signs = signs

    def apply(self, x):
        coords = _coords_in_basis(self._basis, x)
        if coords is None:
            raise ValueError("%r is not in P^gp" % (x,))
        return tuple(s * sum(r[i] * coords[i] for i in range(len(coords)))
                     for r, s in zip(self._proj, self._signs))


def _coords_in_basis(basis, x):
    """Integer coordinates of x in the row basis, or None."""
    if not basis:
        return [] if not any(x) else None
    # solve basis^T c = x over Q, then check integrality
    rows = [[Fraction(v) for v in col] for col in zip(*basis)]
    _, sol = solve_columns(rows, [[Fraction(v) for v in x]], Fraction(0))
    if sol is None or any(v.denominator != 1 for v in sol[0]):
        return None
    return [int(v) for v in sol[0]]


def quotient_with_map(P: AffineMonoid, F: Face):
    """Sharp quotient P/F presented in the lattice P^gp/F^gp, plus the map.

    The quotient lattice is computed by Smith reduction; torsion-freeness
    (all elementary divisors 1) holds for fs input and is enforced.
    """
    _check_face(P, F)
    basis = P.group_basis()
    r = len(basis)
    fcoords = []
    for f in F.span:
        c = _coords_in_basis(basis, f)
        if c is None:
            raise NotAFace("face generator outside P^gp")
        fcoords.append(c)
    if fcoords:
        # quotient Z^r by the row span of fcoords
        U, D, V, Ui = snf([list(c) for c in zip(*fcoords)])  # columns = face gens
        s = sum(1 for i in range(min(len(D), len(D[0]) if D else 0))
                if i < len(D) and i < len(D[0]) and D[i][i] != 0)
        for i in range(s):
            if abs(D[i][i]) != 1:
                raise ValueError("quotient lattice has torsion (non-fs input?)")
        proj = [U[i] for i in range(s, r)]
    else:
        s = 0
        proj = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    # sign normalization: make the first nonzero image entry positive per row
    images = []
    for g in P.generators:
        c = _coords_in_basis(basis, g)
        images.append([sum(pr[i] * c[i] for i in range(r)) for pr in proj])
    signs = []
    for j in range(len(proj)):
        lead = next((img[j] for img in images if img[j] != 0), 1)
        signs.append(1 if lead > 0 else -1)
    qmap = QuotientMap(basis, proj, signs)
    qgens = tuple(qmap.apply(g) for g in P.generators)
    Q = AffineMonoid(qgens, ambient_rank=r - s)
    return Q, qmap


def quotient(P: AffineMonoid, F: Face) -> AffineMonoid:
    return quotient_with_map(P, F)[0]


def radical(P: AffineMonoid, K: MonoidIdeal, bound=None) -> MonoidIdeal:
    """sqrt(K), computed as the intersection of the primes P minus F over
    faces F disjoint from K; generators are the minimal elements found in
    the search box."""
    if K.is_empty():
        return MonoidIdeal(P, (), validate=False)
    if bound is None:
        bound = _default_bound(P.generators + K.generators)
    disjoint = [F for F in P.faces() if F.is_disjoint_from(K, bound=bound)]
    face_boxes = [F.submonoid().elements_in_box(bound) for F in disjoint]
    pbox = P.elements_in_box(bound)
    members = []
    for x in sorted(pbox):
        if not any(x):
            if not disjoint:
                members.append(x)  # degenerate: 0 in sqrt(K) only if K = P
            continue
        if all(x not in fb for fb in face_boxes):
            members.append(x)
    member_set = set(members)

    def below(x, y):  # is x - y in P?
        d = tuple(a - b for a, b in zip(x, y))
        if all(abs(c) <= bound for c in d):
            return d in pbox
        return P.contains(d, bound=bound)

    minimal = [x for x in members
               if not any(y != x and below(x, y) for y in member_set)]
    return MonoidIdeal(P, tuple(sorted(minimal)), validate=False)


def classify_model(P: AffineMonoid, K: MonoidIdeal, bound=None) -> ModelClass:
    """locally constant iff sqrt(K) = P minus units; hollow iff K equals it.

    Both are decided on generators: an ideal that contains every non-unit
    generator contains every non-unit element.
    """
    if bound is None:
        bound = _default_bound(P.generators + K.generators)
    unit = P.unit_face()
    if any(unit.contains(k, bound=bound) for k in K.generators):
        # a unit in K forces K = P; the model is empty, neither class applies
        return ModelClass(False, False)
    nonunit_gens = [g for j, g in enumerate(P.generators)
                    if j not in unit.generator_indices]
    disjoint = [F for F in P.faces() if F.is_disjoint_from(K, bound=bound)]
    loc_const = all(
        all(not F.contains(g, bound=bound) for F in disjoint)
        for g in nonunit_gens)
    hollow = loc_const and all(K.contains(g, bound=bound) for g in nonunit_gens)
    return ModelClass(loc_const, hollow)
