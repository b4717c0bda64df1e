"""Affine fs monoid combinatorics: faces, ideals, radicals, localization,
quotients, and the locally-constant / hollow classification of models.

A monoid is presented by generators inside Z^d.  The cone's facets are
computed once, as the integer normals of hyperplanes through its
generators; each facet keeps its primitive integral functional.  The
faces are the intersections of the facets' generator index sets (the
closed sets of the generator-facet incidence).  Membership and saturation
are exact decisions from the facet functionals: membership by a search
that the functionals confine to finitely many states, saturation by the
lattice points of the half-open parallelepipeds of the generators.  A face
handed in by a caller is certified against the same face lattice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul, sub

from .errors import NotAFace
from .lattice import (hnf_rows, lattice_rank, parallelepiped_coefficients,
                      saturated_basis_change)
from .linalg import solve_columns


def _det(m):
    """Determinant of a square integer matrix (Bareiss, exact division)."""
    n = len(m)
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if not n:
        return 1
    m = [list(row) for row in m]
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
        self._facet_list = None
        self._faces = None
        self._membership = None
        self._group_basis = None

    def __eq__(self, other):
        return (isinstance(other, AffineMonoid)
                and self.ambient_rank == other.ambient_rank
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ambient_rank, self.generators))

    def __repr__(self):
        return "AffineMonoid(%r)" % (list(map(list, self.generators)),)

    # -- membership ---------------------------------------------------------

    def contains(self, x):
        """Is x a nonnegative integer combination of the generators?

        Exact.  x must pass every facet functional and lie in P^gp.  The
        units of P are the group L spanned by the generators on which every
        facet functional vanishes.  A search over classes
        modulo L (canonical representatives from L's Hermite basis) starts
        at x, subtracts non-unit generators, and keeps a class only where
        every facet functional is >= 0; x is in P iff it reaches 0.

        Lemma.  Complete: if x = u + g_1 + ... + g_k (u in L, g_i non-unit
        generators), every partial remainder x - g_1 - ... - g_j lies in P,
        so every functional is >= 0 on it and the search reaches the class
        of u, which is 0.  Finite: a class met is that of x - s with s in P
        and 0 <= l(s) <= l(x) for each functional l; the cone modulo its
        units is pointed, so finitely many l-values occur, each on finitely
        many classes modulo L.
        """
        x = tuple(int(v) for v in x)
        if len(x) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        if not any(x):
            return True  # the empty sum; needs no facets
        found = self._member_cache.get(x)
        if found is None:
            found = self._member_cache[x] = self._search(x)
        return found

    def _search(self, x):
        functionals, units, steps = self._membership_data()

        def admissible(y):
            return all(sum(map(mul, f, y)) >= 0 for f in functionals)

        if not admissible(x) or not self.in_group(x):
            return False
        zero = (0,) * self.ambient_rank
        start = _reduce(x, units)
        seen = {start}
        stack = [start]
        while stack:
            y = stack.pop()
            if y == zero:
                return True
            for g in steps:
                z = _reduce(tuple(map(sub, y, g)), units)
                if z not in seen and admissible(z):
                    seen.add(z)
                    stack.append(z)
        return False

    def _membership_data(self):
        """(facet functionals, (pivot column, pivot, row) per Hermite row
        of the units, non-unit generators), memoised.  The units are the
        generators in every facet."""
        if self._membership is None:
            facets = self._facets()
            units = frozenset(range(len(self.generators))).intersection(
                *(idx for idx, _ in facets))
            self._membership = (
                [f for _, f in facets],
                _pivoted(hnf_rows([self.generators[j]
                                   for j in sorted(units)])),
                [g for j, g in enumerate(self.generators) if j not in units])
        return self._membership

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
        """Rows forming a lattice basis of P^gp inside Z^d (its Hermite
        form); memoised."""
        if self._group_basis is None:
            self._group_basis = hnf_rows(self.generators)
        return self._group_basis

    def group_rank(self):
        return len(self.group_basis())

    def in_group(self, x):
        """Is x in the subgroup P^gp of Z^d?  Exactly when its remainder
        modulo the Hermite basis of P^gp is 0."""
        return not any(_reduce(x, _pivoted(self.group_basis())))

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
        facets = [idx for idx, _ in self._facets()]
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
        """The facets of the cone of P, as (generator index set,
        functional) pairs; memoized.

        Projecting onto the leading columns of the Hermite basis of P^gp
        is injective on its span, so the projected cone is full-dimensional
        in Q^r.  A facet's hyperplane is spanned by r - 1 independent
        generators, and its normal is their generalised cross product (the
        signed (r-1)-minors).  A nonzero normal of one sign on every
        generator supports a facet: the generators where it vanishes.  The
        functional is that normal made primitive, oriented >= 0 on P, and
        written on Z^d through the Hermite pivot columns.
        """
        if self._facet_list is not None:
            return self._facet_list
        basis = self.group_basis()
        r = len(basis)
        if not r:
            self._facet_list = []
            return self._facet_list
        facets = {}
        cols = [next(j for j, x in enumerate(row) if x) for row in basis]
        proj = [tuple(g[c] for c in cols) for g in self.generators]
        points = sorted({p for p in proj if any(p)})
        minors = [[c for c in range(r) if c != i] for i in range(r)]
        for spanning in combinations(points, r - 1):
            normal = [_det([[v[c] for c in minor] for v in spanning])
                      for minor in minors]
            normal[1::2] = [-a for a in normal[1::2]]
            values = [sum(map(mul, normal, p)) for p in proj]
            if not any(values) or min(values) < 0 < max(values):
                continue  # dependent subset, or a hyperplane through the cone
            scale = gcd(*normal) * (1 if max(values) > 0 else -1)
            functional = dict(zip(cols, (a // scale for a in normal)))
            facets[frozenset(j for j, v in enumerate(values) if v == 0)] = \
                tuple(functional.get(c, 0) for c in range(self.ambient_rank))
        self._facet_list = list(facets.items())
        return self._facet_list

    def unit_face(self):
        """The minimal face: generators that are units."""
        return self.faces()[0]

    def is_sharp(self):
        return not self.unit_face().span

    def is_saturated(self):
        """Is P = P^gp cap cone(P)?  Exact.

        By Caratheodory each x of P^gp in the cone lies in the cone of r =
        rank P^gp independent generators S, so x = p + sum n_g g with n_g
        in N and p in P^gp in the half-open parallelepiped {sum t_g g :
        g in S, 0 <= t_g < 1} (Bruns & Gubeladze, Polytopes, Rings, and
        K-Theory, ch. 2); P is saturated iff every such p lies in P.  There
        is one p per coset of the span of S in P^gp, found from the Smith
        form of S in P^gp coordinates.
        """
        basis = self.group_basis()
        coords = [_coords_in_basis(basis, g) for g in self.generators]
        for subset in combinations(range(len(coords)), len(basis)):
            for t in parallelepiped_coefficients([coords[j] for j in subset]):
                p = [sum(tj * self.generators[j][c]
                         for tj, j in zip(t, subset))
                     for c in range(self.ambient_rank)]
                if not self.contains(p):
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

    def contains(self, x):
        """Face membership: x must be a combination of the face generators."""
        return self.submonoid().contains(x)

    def group_rank(self):
        return lattice_rank(self.span)

    def is_disjoint_from(self, ideal):
        """F cap K is empty iff no generator of K lies in F."""
        return not any(self.contains(k) for k in ideal.generators)


def _check_face(P, F):
    """F must be one of P.faces()."""
    if not isinstance(F, Face) or F.monoid != P:
        raise NotAFace("face does not belong to this monoid")
    if F not in P.faces():
        raise NotAFace("generator subset fails the face condition")


class MonoidIdeal:
    """Ideal of P, closed generator list; x is in it iff x - k is in P for
    some generator k."""

    def __init__(self, monoid, generators, validate=True):
        self.monoid = monoid
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        if validate:
            for k in self.generators:
                if not monoid.contains(k):
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

    def contains(self, x):
        x = tuple(int(v) for v in x)
        return any(self.monoid.contains(tuple(a - b for a, b in zip(x, k)))
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


def _pivoted(basis):
    """(pivot column, pivot, row) for each row of a Hermite basis."""
    return [(next(c for c, v in enumerate(row) if v),
             next(v for v in row if v), row) for row in basis]


def _reduce(y, rows):
    """The canonical representative of y modulo the span of Hermite rows
    given by _pivoted: 0 exactly when y lies in the span."""
    for c, p, row in rows:
        q = y[c] // p
        if q:
            y = tuple(a - q * b for a, b in zip(y, row))
    return y


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
    # quotient Z^r by the span of the face generators' coordinates
    s, U, _ = saturated_basis_change(
        [_coords_in_basis(basis, f) for f in F.span], r,
        "quotient lattice has torsion (non-fs input?)")
    proj = U[s:]
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


def radical(P: AffineMonoid, K: MonoidIdeal) -> MonoidIdeal:
    """sqrt(K), computed as the intersection of the primes P minus F over
    faces F disjoint from K; generators are the minimal elements found in
    the candidate box |x_i| <= 4 * (largest coordinate of a generator of P
    or K)."""
    if K.is_empty():
        return MonoidIdeal(P, (), validate=False)
    box = 4 * max([1] + [abs(c) for v in P.generators + K.generators
                         for c in v])
    disjoint = [F for F in P.faces() if F.is_disjoint_from(K)]
    face_boxes = [F.submonoid().elements_in_box(box) for F in disjoint]
    pbox = P.elements_in_box(box)
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
        if all(abs(c) <= box for c in d):
            return d in pbox
        return P.contains(d)

    minimal = [x for x in members
               if not any(y != x and below(x, y) for y in member_set)]
    return MonoidIdeal(P, tuple(sorted(minimal)), validate=False)


def classify_model(P: AffineMonoid, K: MonoidIdeal) -> ModelClass:
    """locally constant iff sqrt(K) = P minus units; hollow iff K equals it.

    Both are decided on generators: an ideal that contains every non-unit
    generator contains every non-unit element.
    """
    unit = P.unit_face()
    if any(unit.contains(k) for k in K.generators):
        # a unit in K forces K = P; the model is empty, neither class applies
        return ModelClass(False, False)
    nonunit_gens = [g for j, g in enumerate(P.generators)
                    if j not in unit.generator_indices]
    disjoint = [F for F in P.faces() if F.is_disjoint_from(K)]
    loc_const = all(
        all(not F.contains(g) for F in disjoint)
        for g in nonunit_gens)
    hollow = loc_const and all(K.contains(g) for g in nonunit_gens)
    return ModelClass(loc_const, hollow)
