"""Coefficient field kernel: elements (A + B*s)/D over the radical s.

s is a formal generator with the single relation s**2 = 1 - sum(x_i**2).
A and B are polynomials in (x_1..x_n, hbar); the denominator D is an s-free
monic polynomial in the x's alone, held in factored form as the triple
(i, j, rest) meaning rbar**i * q2**j * rest, with rbar = q**2 - 1 (the monic
associate of 1 - q**2), q2 = sum x_i**2 and rest monic.  Multiplying and
adding denominators is exponent bookkeeping, and a sum over two rests is
over the larger when one divides the other; the polynomial D is built only
by ``rdenom``, for inversion, cross-multiplied equality, evaluation and
printing.  ``rmul``, ``rmake`` and ``rderive`` reduce their result;
``rmul_raw`` does not, so a star sum accumulates raw products and reduces
each output coefficient once with ``rreduce``.  Sums are not reduced.
Equality is decided by cross-multiplication, so reduction affects
performance and printed form only.  Cancellation is decided by exact trial
division alone, the s-part first.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .errors import DivisionByZero, EvaluationPole, InexactDivision, NotInvertible
from .gauss import QONE, qdiv, qinv, qis_zero, qmul, qadd, qfromfrac
from .poly import (PONE, Poly, padd, pconst, pderive, pdivide_ihbar,
                   pdivisible_hbar, pdivmod_exact, pdrop_hbar, peval,
                   phas_hbar, pis_zero, pmonic, pmul, pneg, pscale, pshift_hbar,
                   psub, pvar)
from .gauss import qpow_i


class RadicalCoeff(NamedTuple):
    """One coefficient-field element, value (num_a + num_b*s)/D.

    ``denom`` is the factored denominator (i, j, rest); ``rdenom`` gives D.
    """

    num_a: Poly
    num_b: Poly
    denom: Tuple[int, int, Poly]


_POLY_ONE = {0: QONE}
_Q2_CACHE = {}
_R_CACHE = {}
_RBAR_CACHE = {}


def q2_poly(n: int) -> Poly:
    """sum of x_i**2."""
    p = _Q2_CACHE.get(n)
    if p is None:
        p = {}
        for i in range(n):
            p = padd(p, pmul(pvar(i), pvar(i)))
        _Q2_CACHE[n] = p
    return p


def r_poly(n: int) -> Poly:
    """1 - sum of x_i**2, the square of s."""
    p = _R_CACHE.get(n)
    if p is None:
        p = psub(dict(PONE), q2_poly(n))
        _R_CACHE[n] = p
    return p


def rbar_poly(n: int) -> Poly:
    """q**2 - 1, the monic associate of 1 - q**2."""
    p = _RBAR_CACHE.get(n)
    if p is None:
        p = pneg(r_poly(n))
        _RBAR_CACHE[n] = p
    return p


def _is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(0) == QONE


def _times(f: Poly, g: Poly) -> Poly:
    """f*g, skipping the product when either factor is 1."""
    if _is_one(f):
        return g
    return f if _is_one(g) else pmul(f, g)


# -- factored denominators -----------------------------------------------

# One shared triple per (i, j) when rest is 1: coefficients far outnumber
# distinct exponent pairs, so fresh tuples would cost memory for nothing.
_ONE_DEN = (0, 0, _POLY_ONE)
_DEN_CACHE: dict = {(0, 0): _ONE_DEN}
_POWERS: dict = {}

RZERO = RadicalCoeff({}, {}, _ONE_DEN)
RONE = RadicalCoeff(dict(PONE), {}, _ONE_DEN)


def _den(i: int, j: int, rest: Poly) -> tuple:
    """The denominator triple rbar**i * q2**j * rest."""
    if not _is_one(rest):
        return (i, j, rest)
    got = _DEN_CACHE.get((i, j))
    if got is None:
        got = _DEN_CACHE[(i, j)] = (i, j, _POLY_ONE)
    return got


def _pow(n: int, i: int, j: int) -> Poly:
    """The polynomial rbar**i * q2**j, cached by (n, i, j)."""
    key = (n, i, j)
    got = _POWERS.get(key)
    if got is None:
        if j:
            got = pmul(_pow(n, i, j - 1), q2_poly(n))
        elif i:
            got = pmul(_pow(n, i - 1, 0), rbar_poly(n))
        else:
            got = _POLY_ONE
        _POWERS[key] = got
    return got


def rdenom(u: RadicalCoeff, n: int) -> Poly:
    """The denominator polynomial D of u."""
    i, j, rest = u[2]
    return _times(_pow(n, i, j), rest)


def _dfact(d: Poly, n: int) -> Tuple[tuple, int, int, Poly]:
    """Factor a denominator as lc * rbar**i * q2**j * rest (rest monic)."""
    if phas_hbar(d, n):
        raise DivisionByZero("denominator may not involve hbar")
    nf = n + 1
    body, lc = pmonic(d, nf)
    i = j = 0
    if n > 0 and not _is_one(body):
        rb = rbar_poly(n)
        while True:
            q = pdivmod_exact(body, rb, nf)
            if q is None:
                break
            body, i = q, i + 1
        q2 = q2_poly(n)
        while True:
            q = pdivmod_exact(body, q2, nf)
            if q is None:
                break
            body, j = q, j + 1
    rest = body if not _is_one(body) else _POLY_ONE
    return lc, i, j, rest


# -- reduction -----------------------------------------------------------


def _strip(a: Poly, b: Poly, factor: Poly, k: int, nf: int):
    """Divide factor out of both numerators at most k times.

    The s-part goes first: when only the rational part is a multiple, the
    attempt fails after one division instead of two.
    """
    while k > 0:
        qb = pdivmod_exact(b, factor, nf)
        if qb is None:
            break
        qa = pdivmod_exact(a, factor, nf)
        if qa is None:
            break
        a, b, k = qa, qb, k - 1
    return a, b, k


def _cancel(a: Poly, b: Poly, i: int, j: int, rest: Poly, n: int) -> RadicalCoeff:
    """Cancel factored denominator parts against both numerators."""
    if not a and not b:
        return RZERO
    nf = n + 1
    if n > 0 and (i or j):
        a, b, i = _strip(a, b, rbar_poly(n), i, nf)
        a, b, j = _strip(a, b, q2_poly(n), j, nf)
    if not _is_one(rest):
        a, b, left = _strip(a, b, rest, 1, nf)
        if not left:
            rest = _POLY_ONE
    return RadicalCoeff(a, b, _den(i, j, rest))


def rmake(num_a: Poly, num_b: Poly, denom: Poly, n: int) -> RadicalCoeff:
    """Build a reduced coefficient from raw parts (denominator s-free)."""
    if not denom:
        raise DivisionByZero("zero denominator in coefficient field")
    lc, i, j, rest = _dfact(denom, n)
    if lc != QONE:
        inv = qinv(lc)
        num_a = pscale(num_a, inv)
        num_b = pscale(num_b, inv)
    return _cancel(num_a, num_b, i, j, rest, n)


def rfrom_poly(p: Poly) -> RadicalCoeff:
    return RadicalCoeff(dict(p), {}, _ONE_DEN)


def rfrom_scalar(c) -> RadicalCoeff:
    return RadicalCoeff(pconst(c), {}, _ONE_DEN)


def rs_coeff() -> RadicalCoeff:
    """The radical s itself."""
    return RadicalCoeff({}, dict(PONE), _ONE_DEN)


def rw_coeff(n: int) -> RadicalCoeff:
    """w = (1 - s)/q**2 = 1/(1 + s)."""
    return _cancel(dict(PONE), {0: (-1, 0, 1)}, 0, 1, _POLY_ONE, n)


def ris_zero(c: RadicalCoeff) -> bool:
    return not c[0] and not c[1]


def ris_poly(c: RadicalCoeff) -> bool:
    return not c[1] and c[2] == _ONE_DEN


def _common_rest(rest1: Poly, rest2: Poly, n: int):
    """A common multiple of two monic rests and the cofactor of each.

    When one rest divides the other the larger one serves, so sums over
    powers of one factor do not multiply their degrees together.
    """
    if rest1 is rest2 or rest1 == rest2:
        return rest1, _POLY_ONE, _POLY_ONE
    if _is_one(rest1):
        return rest2, rest2, _POLY_ONE
    if _is_one(rest2):
        return rest1, _POLY_ONE, rest1
    q = pdivmod_exact(rest2, rest1, n + 1)
    if q is not None:
        return rest2, q, _POLY_ONE
    q = pdivmod_exact(rest1, rest2, n + 1)
    if q is not None:
        return rest1, _POLY_ONE, q
    return pmul(rest1, rest2), rest2, rest1


def _common_denominator(u: RadicalCoeff, v: RadicalCoeff, n: int):
    """Rewrite u, v over one factored denominator."""
    a1, b1, d1 = u
    a2, b2, d2 = v
    if d1 is d2 or d1 == d2:
        return a1, b1, a2, b2, d1
    i1, j1, rest1 = d1
    i2, j2, rest2 = d2
    ii, jj = max(i1, i2), max(j1, j2)
    rest, m1, m2 = _common_rest(rest1, rest2, n)
    s1 = _times(_pow(n, ii - i1, jj - j1), m1)
    s2 = _times(_pow(n, ii - i2, jj - j2), m2)
    if not _is_one(s1):
        a1, b1 = pmul(a1, s1), pmul(b1, s1)
    if not _is_one(s2):
        a2, b2 = pmul(a2, s2), pmul(b2, s2)
    return a1, b1, a2, b2, _den(ii, jj, rest)


def radd(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    a1, b1, a2, b2, d = _common_denominator(u, v, n)
    a, b = padd(a1, a2), padd(b1, b2)
    if not a and not b:
        return RZERO
    return RadicalCoeff(a, b, d)


def rsub(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    return radd(u, rneg(v), n)


def rneg(u: RadicalCoeff) -> RadicalCoeff:
    return RadicalCoeff(pneg(u[0]), pneg(u[1]), u[2])


def rmul_raw(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    """The product u*v with its denominator exponents added, unreduced."""
    a1, b1, d1 = u
    a2, b2, d2 = v
    if not b1 and not b2:
        num_a = pmul(a1, a2)
        num_b: Poly = {}
    else:
        num_a = padd(pmul(a1, a2), pmul(pmul(b1, b2), r_poly(n)))
        num_b = padd(pmul(a1, b2), pmul(b1, a2))
    if d1 == _ONE_DEN:
        return RadicalCoeff(num_a, num_b, d2)
    if d2 == _ONE_DEN:
        return RadicalCoeff(num_a, num_b, d1)
    i1, j1, rest1 = d1
    i2, j2, rest2 = d2
    return RadicalCoeff(num_a, num_b,
                        _den(i1 + i2, j1 + j2, _times(rest1, rest2)))


def rreduce(u: RadicalCoeff, n: int) -> RadicalCoeff:
    """Cancel what the denominator of u shares with both numerators."""
    den = u[2]
    if den == _ONE_DEN:
        return u
    return _cancel(u[0], u[1], *den, n)


def rmul(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    return rreduce(rmul_raw(u, v, n), n)


def rscale(u: RadicalCoeff, c) -> RadicalCoeff:
    if qis_zero(c):
        return RZERO
    return RadicalCoeff(pscale(u[0], c), pscale(u[1], c), u[2])


def rinv(u: RadicalCoeff, n: int) -> RadicalCoeff:
    a, b, _ = u
    if ris_zero(u):
        raise DivisionByZero("inverse of zero coefficient")
    d = rdenom(u, n)
    if b:
        # rationalize through the conjugate a - b*s
        den = psub(pmul(a, a), pmul(pmul(b, b), r_poly(n)))
        num_a, num_b = pmul(d, a), pneg(pmul(d, b))
    else:
        den, num_a, num_b = a, d, {}
    if pis_zero(den):
        raise DivisionByZero("inverse of zero coefficient")
    if phas_hbar(den, n):
        raise NotInvertible("inverse would need an hbar-dependent denominator")
    return rmake(num_a, num_b, den, n)


def rdiv(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    return rmul(u, rinv(v, n), n)


def rpow(u: RadicalCoeff, k: int, n: int) -> RadicalCoeff:
    if k < 0:
        return rpow(rinv(u, n), -k, n)
    out = RONE
    for _ in range(k):
        out = rmul(out, u, n)
    return out


def requal(u: RadicalCoeff, v: RadicalCoeff, n: int) -> bool:
    a1, b1, d1 = u
    a2, b2, d2 = v
    if d1 is d2 or d1 == d2:
        return a1 == a2 and b1 == b2
    p1, p2 = rdenom(u, n), rdenom(v, n)
    return pmul(a1, p2) == pmul(a2, p1) and pmul(b1, p2) == pmul(b2, p1)


def rderive(u: RadicalCoeff, index: int, n: int) -> RadicalCoeff:
    """d/dx_index by one chain rule over the factored denominator.

    With D = rbar**i * q2**j * rest, D'/D = 2x(i/rbar + j/q2) + rest'/rest
    and s'/s = x/rbar, so (A + B*s)/D has derivative
    (A' + B'*s - A*D'/D + B*s*(x/rbar - D'/D))/D.  The result goes over D*F,
    where F holds one power of each factor those terms divide by: rbar when
    i or B is nonzero, q2 when j is, and rest when it depends on x_index
    (the new rest is then rest*rest).  D is never built, and nothing is
    divided back out before the one reduction of the result.
    """
    a, b, den = u
    if not b and den == _ONE_DEN:
        da = pderive(a, index)
        return RadicalCoeff(da, {}, _ONE_DEN) if da else RZERO
    i, j, rest = den
    x = pvar(index)
    drest = pderive(rest, index)
    # F's factors are folded in one at a time: big is their product so far,
    # ca is big*D'/D and cb is big*(D'/D - x/rbar), over the factors so far.
    need_r = 1 if i or b else 0
    if need_r:
        big = rbar_poly(n)
        ca = pscale(x, (2 * i, 0, 1)) if i else {}
        cb = pscale(x, (2 * i - 1, 0, 1))
    else:
        big, ca, cb = _POLY_ONE, {}, {}
    factors = []
    if j:
        factors.append((q2_poly(n), pscale(x, (2 * j, 0, 1))))
    if drest:
        factors.append((rest, drest))
    for factor, g in factors:
        gbig = _times(g, big)
        ca = padd(pmul(ca, factor), gbig) if ca else gbig
        if b:
            cb = padd(pmul(cb, factor), gbig)
        big = _times(big, factor)
    num_a = psub(_times(pderive(a, index), big), pmul(a, ca))
    num_b = psub(_times(pderive(b, index), big), pmul(b, cb)) if b else {}
    return _cancel(num_a, num_b, i + need_r, j + (1 if j else 0),
                   pmul(rest, rest) if drest else rest, n)


def rsubst_hbar_zero(u: RadicalCoeff, n: int) -> RadicalCoeff:
    a = pdrop_hbar(u[0], n)
    b = pdrop_hbar(u[1], n)
    if not a and not b:
        return RZERO
    return RadicalCoeff(a, b, u[2])


def rtimes_ihbar(u: RadicalCoeff, n: int, k: int) -> RadicalCoeff:
    """Multiply by (i*hbar)**k for k >= 0."""
    if k == 0:
        return u
    c = qpow_i(k)
    return RadicalCoeff(pscale(pshift_hbar(u[0], n, k), c),
                        pscale(pshift_hbar(u[1], n, k), c), u[2])


def rdivide_ihbar(u: RadicalCoeff, n: int, k: int) -> RadicalCoeff:
    a = pdivide_ihbar(u[0], n, k)
    b = pdivide_ihbar(u[1], n, k)
    if a is None or b is None:
        raise InexactDivision(f"coefficient not divisible by hbar**{k}")
    if not a and not b:
        return RZERO
    return RadicalCoeff(a, b, u[2])


def rdivisible_hbar(u: RadicalCoeff, n: int, k: int) -> bool:
    return pdivisible_hbar(u[0], n, k) and pdivisible_hbar(u[1], n, k)


def reval(u: RadicalCoeff, n: int, xvals, sval, hbar_val) -> tuple:
    a = peval(u[0], n, xvals, hbar_val)
    b = peval(u[1], n, xvals, hbar_val)
    d = peval(rdenom(u, n), n, xvals, hbar_val)
    if qis_zero(d):
        raise EvaluationPole("denominator vanishes at evaluation point")
    num = qadd(a, qmul(b, qfromfrac(sval)))
    return qdiv(num, d)

