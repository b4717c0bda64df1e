"""Integer and rational lattice utilities.

Plain list-of-list matrices over int / Fraction: Hermite and Smith normal
forms with transformation tracking, rational kernels, and an exact
Fourier-Motzkin feasibility test for strict supporting functionals.
"""

from __future__ import annotations

from fractions import Fraction


def identity_int(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf_rows(rows):
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns a list of nonzero pivot rows; the span over Z is unchanged.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis = []
    col = 0
    work = rows
    while col < ncols and work:
        nonzero = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nonzero:
            col += 1
            continue
        # Euclidean reduction in this column
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(r[col]))
            piv = nonzero[0]
            reduced = [piv]
            for r in nonzero[1:]:
                q = r[col] // piv[col]
                nr = [x - q * y for x, y in zip(r, piv)]
                if nr[col] != 0:
                    reduced.append(nr)
                elif any(nr):
                    rest.append(nr)
            nonzero = reduced
        piv = nonzero[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
        col += 1
    # reduce entries above pivots
    for i in reversed(range(len(basis))):
        p = basis[i]
        pc = next(j for j in range(ncols) if p[j] != 0)
        for k in range(i):
            q = basis[k][pc] // p[pc]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], p)]
    return basis


def lattice_rank(rows):
    return len(hnf_rows(rows))


def snf(a):
    """Smith normal form: returns (U, D, V, Uinv) with U*a*V = D.

    U, V are unimodular; D is diagonal (padded with zeros); Uinv is the
    inverse of U, tracked during reduction.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    D = [list(r) for r in a]
    U = identity_int(m)
    Ui = identity_int(m)
    V = identity_int(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [x - q * y for x, y in zip(D[i], D[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]
        for r in range(m):  # inverse: col_j += q * col_i
            Ui[r][j] += q * Ui[r][i]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            D[r][i] -= q * D[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for r in range(m):
            Ui[r][i], Ui[r][j] = Ui[r][j], Ui[r][i]

    def col_swap(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def row_negate(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        for r in range(m):
            Ui[r][i] = -Ui[r][i]

    t = 0
    while True:
        # find a pivot in the submatrix D[t:, t:]
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0:
                    if piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i, j = piv
        row_swap(t, i)
        col_swap(t, j)
        if D[t][t] < 0:
            row_negate(t)
        dirty = False
        for i in range(t + 1, m):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                row_op(i, t, q)
                if D[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                col_op(j, t, q)
                if D[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility condition for true SNF
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        t += 1
    return U, D, V, Ui


def rational_kernel(rows):
    """Basis of {x in Q^n : rows * x = 0}, as Fraction vectors."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def strictly_positive_solution(rows):
    """Decide whether some rational x satisfies row . x >= 1 for every row.

    Exact Fourier-Motzkin elimination; `rows` are Fraction/int vectors.
    Returns True iff feasible.  Empty row set is trivially feasible.
    """
    system = [([Fraction(c) for c in r], Fraction(1)) for r in rows]
    nvars = len(rows[0]) if rows else 0
    for v in range(nvars):
        pos, neg, zero = [], [], []
        for coeffs, rhs in system:
            c = coeffs[v]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                zero.append((coeffs, rhs))
        new = zero
        for pc, pr in pos:
            for nc, nr in neg:
                # eliminate v: combine p/|pc| + n/|nc|
                a = pc[v]
                b = -nc[v]
                coeffs = [x / a + y / b for x, y in zip(pc, nc)]
                new.append((coeffs, pr / a + nr / b))
        system = new
    for coeffs, rhs in system:
        if rhs > 0:
            return False
    return True
