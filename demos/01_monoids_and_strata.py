# Faces, ideals, radicals, and the stratification of affine log models.
#
# Run:  python3 demos/01_monoids_and_strata.py

from logres import (AffineMonoid, MonoidIdeal, classify_model, faces,
                    localize, quotient, radical, strata_decomposition)

# The affine line with its boundary log structure: P = N.
N = AffineMonoid([(1,)])
print("faces of N:", [f.span or "{0}" for f in faces(N)])

# A non-free but saturated example: P generated by (1,0), (1,1), (1,2).
P = AffineMonoid([(1, 0), (1, 1), (1, 2)])
print("\nfaces of P =", P.generators)
for f in faces(P):
    print("  span", f.span or "{0}")
print("(1,1) lies in a proper face?",
      any(f.contains((1, 1)) for f in faces(P)[:-1]))

# Localizing at a face inverts it; the quotient is the sharp remainder.
F = faces(P)[2]                      # the face spanned by (1,2)
print("\nlocalize(P, <(1,2)>): generators", localize(P, F).generators)
print("quotient P/<(1,2)>: generator images", quotient(P, F).generators)

# Radicals are intersections of the primes attached to disjoint faces.
N2 = AffineMonoid([(1, 0), (0, 1)])
K = MonoidIdeal(N2, [(2, 0), (0, 3)])
print("\nsqrt of <(2,0),(0,3)> in N^2:", radical(N2, K).generators)

# Model classification: (N, <1>) is the hollow log point, (N, <2>) is a
# thickened point with locally constant log structure, (N, empty) is the
# affine line.
for gens in ([(1,)], [(2,)], []):
    K = MonoidIdeal(N, gens)
    print("classify (N, %s):" % (gens,), classify_model(N, K))

# The stratification: one component per face disjoint from the ideal.
# For the affine line these are the open torus and the origin, whose
# splitting fiber is a rank-1 torus.
print("\nstrata of (N, empty):")
for s in strata_decomposition(N, MonoidIdeal(N, [])):
    print("  face %-8s torus rank %d, log rank %d, splitting fiber rank %d"
          % (s.face.span or "{0}", s.torus_rank, s.log_rank,
             s.sharp_fiber_rank))

print("\nstrata of (N^2, empty): ranks",
      sorted((s.torus_rank, s.log_rank)
             for s in strata_decomposition(N2, MonoidIdeal(N2, []))))
