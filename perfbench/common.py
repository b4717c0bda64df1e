"""Shared pieces of the benchmark: the operation record, seeded streams,
and the plain exact arithmetic the generators and checkers use.

Generators describe instances as plain data (ints, Fractions, tuples);
each operation turns that data into fresh library objects just before it
is timed, so per-instance memos (monoid face and membership caches) never
carry over from one operation to the next.
"""

import random
from fractions import Fraction


class Op:
    """One benchmark operation.

    build   -- () -> tuple of fresh library objects; not timed
    call    -- (*built) -> result; the timed part
    check   -- (result) -> bool; not timed, unused when expect is set
    corrupt -- (result) -> a wrong answer that check must reject; the
               warm-up uses it to show the checks are not vacuous
    expect  -- exception class the call must raise, or None
    """

    __slots__ = ("kind", "build", "call", "check", "corrupt", "expect")

    def __init__(self, kind, build, call, check=None, corrupt=None,
                 expect=None):
        self.kind = kind
        self.build = build
        self.call = call
        self.check = check
        self.corrupt = corrupt
        self.expect = expect


def require(cond, what):
    """Generator invariants; a broken one is a bug in the benchmark."""
    if not cond:
        raise RuntimeError("benchmark generator invariant broken: " + what)


class Draw:
    """The two random streams an instance is drawn from.

    `shape` draws what sets an instance's cost: sizes, sparsity patterns,
    frame positions and exponents, which summand is irregular.  It comes
    from a corpus fixed across seeds.  `value` draws the numbers placed in
    that shape from the seed.  Measured on the Fuchs test: with the shape
    fixed, changing the values moves the time by 2-19%; changing the shape
    moves it by up to 10x.  So every seed times the same spread of shapes
    and run-to-run comparisons are not drowned by which shapes a seed drew.
    The timed and warm-up sets use different purposes, so they share no
    instances.
    """

    def __init__(self, workload, seed, purpose):
        self.shape = random.Random("%s/%s/shape" % (workload, purpose))
        self.value = random.Random("%s/%d/%s/value" % (workload, seed,
                                                      purpose))


def frac(r, num=3, den=4, nonzero=False):
    while True:
        x = Fraction(r.randint(-num, num), r.randint(1, den))
        if x or not nonzero:
            return x


# -- plain exact matrices over Q(i): entries are (re, im) Fraction pairs ------

def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = (Fraction(0), Fraction(0))
            for k in range(m):
                acc = cadd(acc, cmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def commute(a, b):
    return mat_mul(a, b) == mat_mul(b, a)


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    zero = (Fraction(0), Fraction(0))
    out = [[zero] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(b)
    return out
