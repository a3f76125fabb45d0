"""Canonical phase-space expressions.

A PhaseExpr over dimension n is a finite sum of momentum monomials with
coefficients in the radical field of :mod:`starnambu.radical`.  Momentum
exponents are packed as in the polynomial kernel, 17-bit fields with a
guard bit.  Values are immutable after construction and every operation is
pure.  Every sum of products of terms (a product, a Poisson bracket, a
Nambu minor, a star sum) goes through ``add_products``, the one place
momentum exponents are added, and is reduced once per output coefficient.

``print_canonical`` writes the canonical text form.  One renderer,
``_render``, writes every printed sum, highest graded-lex term first:
momentum sums with coefficient heads (A + B*s)/D, and the (x, hbar)
polynomials A, B and D with scalar heads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Sequence, Tuple

from .errors import DimensionError, DivisionByZero, DomainError
from .gauss import (GaussRational, qadd, qfromfrac, qim, qmul, qnorm, qpow_i,
                    qre)
from .poly import (BITS, GUARD, MASK, PONE, Poly, grlex_key, overflow, pack,
                   pack_one, phas_hbar, phbar, pmul, pvar)
from .radical import (RadicalCoeff, RZERO, racc, radd, rdenom, rderive,
                      rdivide_ihbar, rdivisible_hbar, requal, reval, ris_poly,
                      ris_zero, rfrom_poly, rfrom_scalar, rinv, rmake, rmul,
                      rneg, rs_coeff, rscale, rsub, rsubst_hbar_zero, rsums,
                      rtimes_ihbar, rw_coeff, r_poly)


class PhaseExpr:
    """Exact phase-space function: momenta with radical-field coefficients.

    Values are immutable.  The one memo is ``_dcache``: the star product's
    half table (``brackets._half``), None until it is built, since bracket
    evaluations star the same operands many times.
    """

    __slots__ = ("n", "terms", "_dcache", "__weakref__")
    __hash__ = None

    def __init__(self, n: int, terms: Dict[int, RadicalCoeff]):
        self.n = n
        self.terms = {k: c for k, c in terms.items() if not ris_zero(c)}
        self._dcache = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "PhaseExpr":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "PhaseExpr":
        return cls(n, {0: rfrom_poly(PONE)})

    @classmethod
    def const(cls, n: int, value) -> "PhaseExpr":
        if isinstance(value, tuple):
            c = qnorm(*value)
        elif isinstance(value, GaussRational):
            c = value.triple()
        else:
            c = (Fraction(value).numerator, 0, Fraction(value).denominator)
        return cls(n, {0: rfrom_scalar(c)})

    @classmethod
    def coord(cls, n: int, a: int) -> "PhaseExpr":
        _check_index(n, a)
        return cls(n, {0: rfrom_poly(pvar(a))})

    @classmethod
    def momentum(cls, n: int, a: int) -> "PhaseExpr":
        _check_index(n, a)
        return cls(n, {pack_one(a, 1): rfrom_poly(PONE)})

    @classmethod
    def radical_s(cls, n: int) -> "PhaseExpr":
        return cls(n, {0: rs_coeff()})

    @classmethod
    def w_function(cls, n: int) -> "PhaseExpr":
        return cls(n, {0: rw_coeff(n)})

    @classmethod
    def hbar(cls, n: int, power: int = 1) -> "PhaseExpr":
        return cls(n, {0: rfrom_poly(phbar(n, power))})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_polynomial(self) -> bool:
        """True when no coefficient uses s or a nontrivial denominator."""
        return all(ris_poly(c) for c in self.terms.values())

    def coefficient(self, pexps: Tuple[int, ...]) -> RadicalCoeff:
        return self.terms.get(pack(pexps), RZERO)

    def momentum_degree(self) -> int:
        deg = 0
        for key in self.terms:
            t = 0
            for i in range(self.n):
                t += (key >> (BITS * i)) & MASK
            if t > deg:
                deg = t
        return deg

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "PhaseExpr"):
        if self.n != other.n:
            raise DimensionError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "PhaseExpr") -> "PhaseExpr":
        self._check(other)
        n = self.n
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else radd(prev, c, n)
        return PhaseExpr(n, out)

    def __sub__(self, other: "PhaseExpr") -> "PhaseExpr":
        self._check(other)
        n = self.n
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = rneg(c) if prev is None else rsub(prev, c, n)
        return PhaseExpr(n, out)

    def __neg__(self) -> "PhaseExpr":
        return PhaseExpr(self.n, {k: rneg(c) for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PhaseExpr):
            self._check(other)
            acc: Dict[int, tuple] = {}
            add_products(acc, self, other)
            return PhaseExpr(self.n, rsums(acc, {}, 1, self.n))
        return self.scale_fraction(other)

    __rmul__ = __mul__

    def scale_fraction(self, value) -> "PhaseExpr":
        f = Fraction(value)
        return self.scale((f.numerator, 0, f.denominator))

    def scale(self, c: tuple) -> "PhaseExpr":
        if c[0] == 0 and c[1] == 0:
            return PhaseExpr.zero(self.n)
        return PhaseExpr(self.n, {k: rscale(v, c) for k, v in self.terms.items()})

    def times_i(self) -> "PhaseExpr":
        return self.scale((0, 1, 1))

    def times_ihbar(self, k: int = 1) -> "PhaseExpr":
        """Multiply by (i*hbar)**k; DomainError when k < 0 or the hbar
        degree would pass MASK."""
        if k < 0:
            raise DomainError("negative powers of i*hbar")
        n = self.n
        return PhaseExpr(n, {key: rtimes_ihbar(c, n, k)
                             for key, c in self.terms.items()})

    def times_hbar(self, k: int = 1) -> "PhaseExpr":
        return self.times_ihbar(k).scale(qpow_i(-k % 4))

    def __pow__(self, k: int) -> "PhaseExpr":
        if k < 0:
            raise DomainError("negative powers of phase expressions")
        if k > MASK and any(key or any(c[0]) or c[1] or c[2]
                            for key, c in self.terms.items()):
            raise DomainError(f"power {k} overflows 16-bit exponents")
        out = PhaseExpr.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def invert_coefficient(self) -> "PhaseExpr":
        """Inverse of a momentum-free expression, when representable."""
        if list(self.terms.keys()) not in ([0], []):
            raise DomainError("only momentum-free expressions are invertible")
        if not self.terms:
            raise DivisionByZero("inverse of zero expression")
        return PhaseExpr(self.n, {0: rinv(self.terms[0], self.n)})

    def __truediv__(self, other: "PhaseExpr") -> "PhaseExpr":
        if isinstance(other, PhaseExpr):
            self._check(other)
            n = self.n
            inv = other.invert_coefficient().terms[0]
            return PhaseExpr(n, {k: rmul(c, inv, n)
                                 for k, c in self.terms.items()})
        value = Fraction(other)
        if value == 0:
            raise DivisionByZero("division by zero")
        return self.scale_fraction(1 / value)

    # -- calculus -----------------------------------------------------

    def diff_x(self, a: int) -> "PhaseExpr":
        _check_index(self.n, a)
        n = self.n
        return PhaseExpr(n, {k: rderive(c, a, n)
                             for k, c in self.terms.items()})

    def diff_p(self, a: int) -> "PhaseExpr":
        _check_index(self.n, a)
        shift = BITS * a
        out: Dict[int, RadicalCoeff] = {}
        for k, c in self.terms.items():
            e = (k >> shift) & MASK
            if e:  # distinct keys stay distinct, so nothing is summed
                out[k - (1 << shift)] = c if e == 1 else rscale(c, (e, 0, 1))
        return PhaseExpr(self.n, out)

    def divide_exact_hbar(self, k: int) -> "PhaseExpr":
        """Exact division by (i*hbar)**k; InexactDivision if impossible."""
        if k == 0:
            return self
        n = self.n
        out = {}
        for key, c in self.terms.items():
            out[key] = rdivide_ihbar(c, n, k)
        return PhaseExpr(n, out)

    def divisible_hbar(self, k: int) -> bool:
        n = self.n
        return all(rdivisible_hbar(c, n, k) for c in self.terms.values())

    def subst_hbar_zero(self) -> "PhaseExpr":
        n = self.n
        return PhaseExpr(n, {key: rsubst_hbar_zero(c, n)
                             for key, c in self.terms.items()})

    # -- comparison and evaluation -------------------------------------

    def equals(self, other: "PhaseExpr") -> bool:
        self._check(other)
        if self.terms.keys() != other.terms.keys():
            return False
        n = self.n
        return all(requal(c, other.terms[k], n) for k, c in self.terms.items())

    def __eq__(self, other):
        if isinstance(other, PhaseExpr):
            return self.equals(other)
        return NotImplemented

    def evaluate(self, point: "EvalPoint", hbar_value) -> GaussRational:
        if len(point.xvals) != self.n:
            raise DimensionError("evaluation point has wrong dimension")
        n = self.n
        total = (0, 0, 1)
        for key, c in self.terms.items():
            base = reval(c, n, point.xvals, point.sval, hbar_value)
            m = Fraction(1)
            for i in range(n):
                e = (key >> (BITS * i)) & MASK
                if e:
                    m *= Fraction(point.pvals[i]) ** e
            total = qadd(total, qmul(base, qfromfrac(m)))
        return GaussRational.from_triple(total)

    def __repr__(self):
        return f"PhaseExpr({self.n}, {self.text()})"

    def text(self) -> str:
        """The canonical text form, :func:`print_canonical`."""
        return print_canonical(self)


def add_products(acc: dict, f: PhaseExpr, g: PhaseExpr) -> None:
    """Add the product of each term of f and each term of g to the raw sums
    acc, keyed by momentum (``radical.racc``); ``radical.rsums`` turns
    them into reduced coefficients.  DomainError when a momentum exponent
    passes MASK."""
    n = f.n
    gterms = g.terms.items()
    for k1, c1 in f.terms.items():
        for k2, c2 in gterms:
            k = k1 + k2
            if k & GUARD:
                raise overflow("product")
            racc(acc, k, c1, c2, n)


def _check_index(n: int, a: int):
    if not 0 <= a < n:
        raise DomainError(f"variable index {a} out of range for dimension {n}")


@dataclass(frozen=True)
class EvalPoint:
    """Rational phase-space point with an exact value for the radical."""

    xvals: Tuple[Fraction, ...]
    pvals: Tuple[Fraction, ...]
    sval: Fraction

    def __post_init__(self):
        x = tuple(Fraction(v) for v in self.xvals)
        p = tuple(Fraction(v) for v in self.pvals)
        s = Fraction(self.sval)
        object.__setattr__(self, "xvals", x)
        object.__setattr__(self, "pvals", p)
        object.__setattr__(self, "sval", s)
        if len(x) != len(p):
            raise DomainError("coordinate and momentum tuples differ in length")
        if s * s != 1 - sum(v * v for v in x):
            raise DomainError("sval**2 must equal 1 - sum of squares exactly")


def random_circle_point(n: int, rng) -> EvalPoint:
    """Random rational point with s rational, away from q**2 poles."""
    while True:
        u = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        norm = sum(v * v for v in u)
        if norm != 0 and norm != 1:
            break
    x = tuple(2 * v / (1 + norm) for v in u)
    s = (1 - norm) / (1 + norm)
    p = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
    return EvalPoint(x, p, s)


RawTerm = Tuple[Tuple[int, ...], dict, int, Tuple[dict, dict]]


def normalize_terms(n: int, raw: Iterable[RawTerm]) -> PhaseExpr:
    """Canonicalize a raw term list into a PhaseExpr.

    Each raw term is (p_exponents, numerator_poly, s_power, denominator),
    with the denominator given as a pair (den_a, den_b) meaning
    den_a + den_b * s.  s powers are reduced through s**2 = 1 - q**2 and a
    denominator with an s-part is inverted by ``radical.rinv``.
    DivisionByZero when a denominator is zero or involves hbar; DomainError
    for a momentum exponent past p_n or a polynomial key with a field past
    the n coordinates and hbar.
    """
    acc: Dict[int, RadicalCoeff] = {}
    r = r_poly(n)
    limit = 1 << (BITS * (n + 1))
    for pexps, num, spow, (den_a, den_b) in raw:
        if any(pexps[n:]):
            raise DomainError(f"momentum exponent past p{n}")
        if any(not 0 <= k < limit for f in (num, den_a, den_b) for k in f):
            raise DomainError(f"polynomial key past x1..x{n} and hbar")
        key = pack(pexps)
        rpow_part = dict(PONE)
        for _ in range(spow // 2):
            rpow_part = pmul(rpow_part, r)
        body = pmul(num, rpow_part)
        if spow % 2:
            a_num: dict = {}
            b_num = body
        else:
            a_num = body
            b_num = {}
        if not den_b:
            coeff = rmake(a_num, b_num, den_a, n)
        elif phas_hbar(den_a, n) or phas_hbar(den_b, n):
            raise DivisionByZero("denominator may not involve hbar")
        else:
            coeff = rmul(RadicalCoeff(a_num, b_num, ()),
                         rinv(RadicalCoeff(den_a, den_b, ()), n), n)
        prev = acc.get(key)
        acc[key] = coeff if prev is None else radd(prev, coeff, n)
    return PhaseExpr(n, acc)


# -- canonical printer ---------------------------------------------------


def print_canonical(expr: PhaseExpr) -> str:
    """Deterministic text form; parse + evaluate gives back an equal value."""
    n = expr.n
    names = tuple(f"p{a}" for a in range(1, n + 1))
    return _render(expr.terms, names, lambda c: _coeff_text(c, n))[0] or "0"


def _render(terms: dict, names: Sequence[str],
            head: Callable[[tuple], str]) -> Tuple[str, bool]:
    """(text, is_single_term) of a packed-key sum, the highest graded-lex
    term first: field i of a key is the power of names[i], and head prints
    a coefficient as a factor."""
    nf = len(names)
    parts = []
    for (_, exps), key in sorted([(grlex_key(k, nf), k) for k in terms],
                                 reverse=True):
        factors = "*".join([v for v, e in zip(names, exps) for _ in range(e)])
        parts.append(_term(head(terms[key]), factors))
    return _join(parts), len(parts) == 1


def _join(parts: Sequence[str]) -> str:
    """The sum of printed terms; a term that starts with "-" is subtracted.
    A nested sum was joined here already, so its own signs are untouched."""
    return " + ".join(parts).replace("+ -", "- ")


def _term(head: str, factors: str) -> str:
    """head*factors, with a head of 1 or -1 left out."""
    if factors and head in ("1", "-1"):
        return head[:-1] + factors
    return f"{head}*{factors}" if factors else head


def poly_str(poly: Poly, nvars: int) -> Tuple[str, bool]:
    """(text, is_single_term) of a polynomial in x1..x_nvars and hbar; with
    nvars = 0 it prints an ``ExactMatrix`` cell."""
    names = tuple(f"x{a}" for a in range(1, nvars + 1)) + ("hbar",)
    return _render(poly, names, _scalar_text)


def _poly_factor(poly: Poly, nvars: int) -> str:
    text, single = poly_str(poly, nvars)
    return text if single else f"({text})"


def _coeff_text(c: RadicalCoeff, n: int) -> str:
    """(A + B*s)/D as a factor, with a zero part or a unit D left out."""
    a, b, _ = c
    parts = [_poly_factor(a, n)] if a else []
    if b:
        parts.append(_term(_poly_factor(b, n), "s"))
    body = parts[0] if len(parts) == 1 else f"({_join(parts)})"
    if (denom := rdenom(c, n)) != PONE:
        body = f"{body}/({poly_str(denom, n)[0]})"
    return body


def _scalar_text(c: tuple) -> str:
    """A Gaussian rational as a factor: (1/2), -1/2, i, (1/2)*i, (1 - 2*i)."""
    re_, im = qre(c), qim(c)
    if im == 0:
        return _frac_text(re_)
    if re_ == 0:
        return _term(_frac_text(im), "i")
    return f"({_join([str(re_), f'{im}*i'])})"


def _frac_text(x: Fraction) -> str:
    """A rational as a factor: a positive proper fraction is parenthesized."""
    return f"({x})" if x.denominator != 1 and x >= 0 else str(x)
