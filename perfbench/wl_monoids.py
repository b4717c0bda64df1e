"""Workload `monoids`: face lattices, membership and radicals, each on a
fresh AffineMonoid so the per-instance face and membership memos start
empty, as they do for a user's new input.

- faces     pointed cones in Z^3 from 5-12 generators (1, a, b); the
            face count must be 2k + 2 for a hull of k >= 3 vertices
            (4 for a segment, 2 for a point), from an exact 2-D hull of
            the points (a, b)
- member    a nonnegative integer combination of the generators
- outside   (m, a, b) with a > m * max(a_i): outside the real cone, so the
            box search has to exhaust its box
- radical   radical + classify_model on the criterion-02 models (N, N^2,
            N^3 and the quadric cone <(1,0),(1,1),(1,2)>) with the default
            bound, checked against closed forms
"""

from common import Draw, Op

# A seed's list opens with the three largest cones (10, 11 and 12
# generators, 0.3-1.2 s each), then holds ROUNDS rounds of one instance
# of every stratum: the face-lattice sizes 5-9, membership at 4 and 5
# generators for members and for points outside, and the radical of each
# model.  With the large cones in every round the 11th-largest latency
# would fall on the edge between two cone sizes.  The median is meant to
# fall inside faces at 5 generators, whose time hardly depends on the
# drawn values (cv 0.05), rather than on the edge of the membership
# queries and the N^2 radical, whose times do.  Six strata cost less and
# six more, but the quadric radical takes 1-19 ms and so lies on both
# sides; with one 5-generator cone a round the median sat at that
# cluster's lower edge on some seeds, so a round holds two.
OPENING_SIZES = (10, 11, 12)
FACE_SIZES = (5, 5, 6, 7, 8, 9)
CONTAINS_SIZES = (4, 5)
MODELS = ("N1", "N2", "N3", "quadric")
ROUNDS = 14
BOX = 3
QUADRIC = ((1, 0), (1, 1), (1, 2))


def _points(d, n):
    return [(d.value.randint(-BOX, BOX), d.value.randint(-BOX, BOX))
            for _ in range(n)]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_vertices(points):
    """Vertices of the convex hull (collinear boundary points dropped),
    by Andrew's monotone chain in exact integers."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def expected_face_count(points):
    k = len(hull_vertices(points))
    return 2 * k + 2 if k >= 3 else 2 * k


def _monoid(L, gens):
    return L.monoids.AffineMonoid(gens)


def _faces(L, d, n):
    pts = _points(d, n)
    gens = [(1, a, b) for a, b in pts]
    want = expected_face_count(pts)

    def call(P):
        return P.faces()

    def check(faces):
        return len(faces) == want

    return Op("faces", lambda: (_monoid(L, gens),), call, check,
              corrupt=lambda faces: faces + faces[:1])


def _contains(L, d, n, member):
    r = d.value
    pts = _points(d, n)
    gens = [(1, a, b) for a, b in pts]
    if member:
        while True:
            coeffs = [r.randint(0, 2) for _ in gens]
            if any(coeffs):
                break
        x = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                  for i in range(3))
    else:
        m = d.shape.randint(2, 4)
        x = (m, m * max(a for a, _ in pts) + r.randint(1, 2),
             r.randint(-m * BOX, m * BOX))

    def call(P):
        return P.contains(x)

    def check(found):
        return found is member

    return Op("member" if member else "outside",
              lambda: (_monoid(L, gens),), call, check,
              corrupt=lambda found: not found)


def _unit_vectors(d):
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def _ideal_gens(d, model):
    gens = QUADRIC if model == "quadric" else _unit_vectors(int(model[1]))
    out = []
    count = d.shape.randint(1, 2 if model == "N1" else 3)  # N: (1), (2)
    while len(out) < count:
        coeffs = [d.value.randint(0, 2) for _ in gens]
        if any(coeffs):
            x = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                      for i in range(len(gens[0])))
            if x not in out:
                out.append(x)
    return list(gens), out


def expected_radical(model, kgens):
    """(minimal generators of the radical, locally constant, hollow)."""
    if model == "quadric":
        meets_lo = any(b == 0 for a, b in kgens)          # ray (1, 0)
        meets_hi = any(b == 2 * a for a, b in kgens)      # ray (1, 2)
        rad = {(1, 1)}
        if meets_lo:
            rad.add((1, 0))
        if meets_hi:
            rad.add((1, 2))
        return rad, meets_lo and meets_hi, set(QUADRIC) <= set(kgens)
    # N^d: the radical of a monomial ideal is generated by the minimal
    # supports of its generators
    supports = {tuple(int(x > 0) for x in k) for k in kgens}
    rad = {s for s in supports
           if not any(t != s and all(a <= b for a, b in zip(t, s))
                      for t in supports)}
    units = set(_unit_vectors(len(kgens[0])))
    return rad, rad == units, units <= set(kgens)


def _radical(L, d, model):
    gens, kgens = _ideal_gens(d, model)
    want = expected_radical(model, kgens)

    def build():
        P = _monoid(L, gens)
        return P, L.monoids.MonoidIdeal(P, kgens, validate=False)

    def call(P, K):
        return (L.monoids.radical(P, K), L.monoids.classify_model(P, K))

    def check(res):
        rad, cls = res
        return (set(rad.generators), cls.locally_constant, cls.hollow) == want

    def corrupt(res):
        rad, cls = res
        extra = (7,) * len(gens[0])
        return (L.monoids.MonoidIdeal(rad.monoid, rad.generators + (extra,),
                                      validate=False), cls)

    return Op("radical", build, call, check, corrupt=corrupt)


def _round(L, d):
    ops = [_faces(L, d, size) for size in FACE_SIZES]
    ops += [_contains(L, d, size, flag)
            for flag in (True, False) for size in CONTAINS_SIZES]
    ops += [_radical(L, d, model) for model in MODELS]
    d.value.shuffle(ops)
    return ops


def prepare(L, seed, ctx):
    d = Draw("monoids", seed, "timed")
    opening = [_faces(L, d, size) for size in OPENING_SIZES]
    rounds = [opening] + [_round(L, d) for _ in range(ROUNDS)]
    return rounds, _round(L, Draw("monoids", seed, "warmup"))
