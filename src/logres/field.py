"""Exact arithmetic in the Gaussian rational field Q(i).

Every coefficient in the library is a GaussRat.  Arithmetic is exact,
equality is decidable, and string formatting is canonical ("a/b+c/d*i"),
so serialized reports are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction


class GaussRat:
    """An element a + b*i of Q(i), with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- basic predicates -------------------------------------------------

    def __bool__(self):
        return self.re.numerator != 0 or self.im.numerator != 0

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def is_integer(self):
        return self.im == 0 and self.re.denominator == 1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        other = as_scalar(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        other = as_scalar(other)
        # real factors are overwhelmingly common; skip the complex cross terms
        if not self.im:
            if not self.re:
                return ZERO
            return GaussRat(self.re * other.re, self.re * other.im)
        if not other.im:
            return GaussRat(self.re * other.re, self.im * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def norm(self):
        """Field norm a^2 + b^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        other = as_scalar(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(i)")
        n = other.norm()
        c = other.conjugate()
        num = self * c
        return GaussRat(num.re / n, num.im / n)

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def __pow__(self, n):
        if n < 0:
            return ONE / power(self, -n, ONE)
        return power(self, n, ONE)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        """Canonical total order key (lexicographic on re, im)."""
        return (self.re, self.im)

    # -- formatting ---------------------------------------------------------

    def __repr__(self):
        return "GaussRat(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        return format_scalar(self)


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


def power(base, n, one):
    """base ** n for an integer n >= 0 by square-and-multiply; one is the
    value of n = 0.  Never multiplies by one, and squares only below the
    top bit of n, so n = 1 costs no product and n = 2 one."""
    if n == 0:
        return one
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def as_scalar(x) -> GaussRat:
    """Coerce an int, Fraction, or GaussRat to GaussRat."""
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError("cannot coerce %r to GaussRat" % (x,))


def format_scalar(s: GaussRat) -> str:
    """Canonical string form: "a/b", "c/d*i", or "a/b+c/d*i".

    Integer parts drop the denominator; a negative imaginary part renders
    as "a/b-c/d*i".  The zero scalar is "0".
    """
    def frac(q):
        return str(q)  # Fraction.__str__ gives "p/q" or "p"

    if s.is_zero():
        return "0"
    if s.im == 0:
        return frac(s.re)
    imag = frac(abs(s.im)) + "*i" if abs(s.im) != 1 else "i"
    if s.re == 0:
        return imag if s.im > 0 else "-" + imag
    sign = "+" if s.im > 0 else "-"
    return frac(s.re) + sign + imag
