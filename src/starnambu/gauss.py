"""Exact Gaussian-rational scalars.

The working representation is a plain 3-tuple of ints ``(a, b, d)`` meaning
``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) == 1``.  Tuples keep the
inner loops of polynomial arithmetic cheap; the :class:`GaussRational`
dataclass is a friendlier view used at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DivisionByZero

QZERO = (0, 0, 1)
QONE = (1, 0, 1)
QI = (0, 1, 1)


def qnorm(a: int, b: int, d: int):
    """Normalize (a + b*i)/d to the canonical triple."""
    if d == 1:
        return (a, b, 1)
    if d == 0:
        raise DivisionByZero("gaussian rational with zero denominator")
    if a == 0 and b == 0:
        return QZERO
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        return (a // g, b // g, d // g)
    return (a, b, d)


def qfromfrac(x) -> tuple:
    x = Fraction(x)
    return (x.numerator, 0, x.denominator)


def qfromparts(re, im=0) -> tuple:
    re = Fraction(re)
    im = Fraction(im)
    den = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    return qnorm(re.numerator * (den // re.denominator),
                 im.numerator * (den // im.denominator), den)


def qadd(u, v):
    a1, b1, d1 = u
    a2, b2, d2 = v
    if d1 == d2:
        if d1 == 1:
            return (a1 + a2, b1 + b2, 1)
        return qnorm(a1 + a2, b1 + b2, d1)
    return qnorm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def qsub(u, v):
    a1, b1, d1 = u
    a2, b2, d2 = v
    if d1 == d2:
        if d1 == 1:
            return (a1 - a2, b1 - b2, 1)
        return qnorm(a1 - a2, b1 - b2, d1)
    return qnorm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def qneg(u):
    a, b, d = u
    return (-a, -b, d)


def qmul(u, v):
    a1, b1, d1 = u
    a2, b2, d2 = v
    if b1 == 0 and b2 == 0:
        return qnorm(a1 * a2, 0, d1 * d2)
    return qnorm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def qinv(u):
    a, b, d = u
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero gaussian rational")
    return qnorm(a * d, -b * d, n)


def qdiv(u, v):
    return qmul(u, qinv(v))


def qpow_i(k: int):
    """i**k as a triple."""
    return ((QONE, QI, (-1, 0, 1), (0, -1, 1))[k % 4])


def qre(u) -> Fraction:
    return Fraction(u[0], u[2])


def qim(u) -> Fraction:
    return Fraction(u[1], u[2])


def qis_zero(u) -> bool:
    return u[0] == 0 and u[1] == 0


@dataclass(frozen=True)
class GaussRational:
    """Boundary-level view of a Gaussian rational, value re + im*i."""

    re: Fraction
    im: Fraction

    @classmethod
    def from_triple(cls, u) -> "GaussRational":
        return cls(qre(u), qim(u))

    def triple(self):
        return qfromparts(self.re, self.im)

    def __add__(self, other):
        other = _coerce(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussRational(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re)

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return f"GaussRational({self.re!s}, {self.im!s})"


def _coerce(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    return GaussRational(Fraction(x), Fraction(0))
