"""Coefficient field kernel: elements (A + B*s)/D over the radical s.

s is a formal generator with the single relation s**2 = 1 - sum(x_i**2).
A and B are polynomials in (x_1..x_n, hbar); the denominator D is an s-free
monic polynomial in the x's alone, held as a sorted tuple of (factor,
exponent) pairs of monic factors, () meaning 1.  ``rmake`` splits a new
denominator into powers of rbar = q**2 - 1 (the monic associate of
1 - q**2), powers of q2 = sum x_i**2 and one remaining factor; after that
every operation is exponent bookkeeping over the tuple.  The polynomial D is
built only by ``rdenom``, cached by value.
There is one merge rule and one product rule.  ``_merge`` brings two raw
sums over a common denominator; ``racc`` adds a product to a raw sum, and
``rsums`` applies s**2 = r and reduces once per coefficient.  Every sum of
products (a product of phase expressions, a Poisson bracket, a star sum, a
Jacobian minor) is accumulated that way.  ``radd`` merges two one-term
sums and ``rmul`` is a one-key raw sum.  ``rmul``, ``rmake`` and
``rderive`` reduce their result; sums and ``rderive_raw`` do not.
Equality is decided by cross-multiplication, so reduction affects
performance and printed form only.  Cancellation is decided by exact trial
division alone, the s-part first.  Exponent overflow is caught by
``poly.pmul``, through which every product here goes.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Tuple

from .errors import DivisionByZero, EvaluationPole, InexactDivision, NotInvertible
from .gauss import QONE, qdiv, qinv, qis_zero, qmul, qadd, qfromfrac, qpow_i
from .poly import (PONE, Poly, padd, pconst, pderive,
                   pdivide_ihbar, pdivisible_hbar, pdivmod_exact, pdrop_hbar,
                   peval, phas_hbar, pmonic, pmul, pneg, pscale,
                   pshift_hbar, psub, pvar)

Den = Tuple[Tuple[tuple, int], ...]


class RadicalCoeff(NamedTuple):
    """One coefficient-field element, value (num_a + num_b*s)/D.

    ``denom`` is D as a sorted tuple of (factor, exponent) pairs, () for 1;
    ``rdenom`` gives the polynomial D.
    """

    num_a: Poly
    num_b: Poly
    denom: Den


@cache
def q2_poly(n: int) -> Poly:
    """sum of x_i**2."""
    p = {}
    for i in range(n):
        p = padd(p, pmul(pvar(i), pvar(i)))
    return p


@cache
def r_poly(n: int) -> Poly:
    """1 - sum of x_i**2, the square of s."""
    return psub(PONE, q2_poly(n))


@cache
def rbar_poly(n: int) -> Poly:
    """q**2 - 1, the monic associate of 1 - q**2."""
    return pneg(r_poly(n))


def _is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(0) == QONE


# -- factored denominators -----------------------------------------------

# Caches keyed by value: D per denominator, rderive's plan per
# (denominator, variable) and _merge's per pair of denominators.
_DENOMS: dict = {(): PONE}
_DERIVE_PLANS: dict = {}
_ADD_PLANS: dict = {}

RZERO = RadicalCoeff({}, {}, ())


def _freeze(p: Poly) -> tuple:
    """p as a hashable factor: its sorted item tuple."""
    return tuple(sorted(p.items()))


def _expand(pairs) -> Poly:
    """The product of factor**exponent over (factor, exponent) pairs."""
    out = PONE
    for f, e in pairs:
        for _ in range(e):
            out = pmul(out, dict(f))
    return out


def rdenom(u: RadicalCoeff, n: int) -> Poly:
    """The denominator polynomial D of u."""
    d = _DENOMS.get(u[2])
    if d is None:
        d = _DENOMS[u[2]] = _expand(u[2])
    return d


def _dfact(d: Poly, n: int) -> Tuple[tuple, Den]:
    """Factor a denominator as lc * rbar**i * q2**j * rest (rest monic)."""
    if phas_hbar(d, n):
        raise DivisionByZero("denominator may not involve hbar")
    nf = n + 1
    body, lc = pmonic(d, nf)
    den = []
    if n > 0 and not _is_one(body):
        for factor in (rbar_poly(n), q2_poly(n)):
            e = 0
            while True:
                q = pdivmod_exact(body, factor, nf)
                if q is None:
                    break
                body, e = q, e + 1
            if e:
                den.append((_freeze(factor), e))
    if not _is_one(body):
        den.append((_freeze(body), 1))
    return lc, tuple(sorted(den))


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


def _cancel(a: Poly, b: Poly, den: Den, n: int) -> RadicalCoeff:
    """Cancel each factor of den, up to its exponent, from both numerators."""
    if not a and not b:
        return RZERO
    kept = []
    for f, e in den:
        a, b, left = _strip(a, b, dict(f), e, n + 1)
        if left:
            kept.append((f, left))
    return RadicalCoeff(a, b, tuple(kept))


def rmake(num_a: Poly, num_b: Poly, denom: Poly, n: int) -> RadicalCoeff:
    """Build a reduced coefficient from raw parts (denominator s-free)."""
    if not denom:
        raise DivisionByZero("zero denominator in coefficient field")
    lc, den = _dfact(denom, n)
    if lc != QONE:
        inv = qinv(lc)
        num_a = pscale(num_a, inv)
        num_b = pscale(num_b, inv)
    return _cancel(num_a, num_b, den, n)


def rfrom_poly(p: Poly) -> RadicalCoeff:
    return RadicalCoeff(dict(p), {}, ())


def rfrom_scalar(c) -> RadicalCoeff:
    return RadicalCoeff(pconst(c), {}, ())


def rs_coeff() -> RadicalCoeff:
    """The radical s itself."""
    return RadicalCoeff({}, dict(PONE), ())


def rw_coeff(n: int) -> RadicalCoeff:
    """w = (1 - s)/q**2 = 1/(1 + s)."""
    return _cancel(dict(PONE), {0: (-1, 0, 1)},
                   ((_freeze(q2_poly(n)), 1),), n)


def ris_zero(c: RadicalCoeff) -> bool:
    return not c[0] and not c[1]


def ris_poly(c: RadicalCoeff) -> bool:
    return not c[1] and not c[2]


def _absorb(exps: dict, other: dict, n: int) -> Poly:
    """Rewrite in exps the factors that other lacks over those that exps
    lacks, and return the cofactor of the numerators: f**e joins the first
    g**b that f**e, times what joined g before, divides, and g**b then
    stands for all that joined it.
    """
    targets = [(g, b) for g, b in other.items() if g not in exps]
    joined = {}  # g: (product of what joined g, g**b over that product)
    for f, e in [(f, e) for f, e in exps.items() if f not in other]:
        for g, b in targets:
            p = pmul(joined.get(g, (PONE,))[0], _expand([(f, e)]))
            q = pdivmod_exact(_expand([(g, b)]), p, n + 1)
            if q is not None:
                joined[g] = (p, q)
                del exps[f]
                exps[g] = b
                break
    mult = PONE
    for _, q in joined.values():
        mult = pmul(mult, q)
    return mult


def _add_plan(d1: Den, d2: Den, n: int):
    """A common denominator of d1 and d2 and the cofactor of each.

    Exponents take their maximum per factor, after ``_absorb`` has moved
    each side's unmatched factors over a multiple on the other, so sums
    over powers of one factor do not multiply their degrees together.
    """
    plan = _ADD_PLANS.get((d1, d2))
    if plan is None:
        e1, e2 = dict(d1), dict(d2)
        m1 = _absorb(e1, e2, n)
        m2 = _absorb(e2, e1, n)  # e1 as rewritten: no factor swaps sides
        common = dict(e1)
        for f, e in e2.items():
            common[f] = max(common.get(f, 0), e)
        plan = _ADD_PLANS[(d1, d2)] = (
            tuple(sorted(common.items())),
            pmul(m1, _expand((f, e - e1.get(f, 0)) for f, e in common.items())),
            pmul(m2, _expand((f, e - e2.get(f, 0)) for f, e in common.items())))
    return plan


def _den_mul(d1: Den, d2: Den) -> Den:
    """The denominator of a product: exponents added per factor."""
    if not d1 or not d2:
        return d1 or d2
    exps = dict(d1)
    for f, e in d2:
        exps[f] = exps.get(f, 0) + e
    return tuple(sorted(exps.items()))


# -- raw sums of products ------------------------------------------------
#
# A raw sum of products u*v is held per key as (aa, bb, ab, den): the sums
# of a1*a2, of b1*b2 and of a1*b2 + b1*a2 over one denominator.  Its value
# is (aa + bb*r + ab*s)/den, so s**2 = r costs one multiplication per key
# rather than one per product, and the key is reduced once.


def _merge(x: tuple, y: tuple, n: int) -> tuple:
    """The sum of two raw sums, over ``_add_plan``'s common denominator."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    if d1 is not d2 and d1 != d2:
        d1, m1, m2 = _add_plan(d1, d2, n)
        if not _is_one(m1):
            a1, b1, c1 = pmul(a1, m1), pmul(b1, m1), pmul(c1, m1)
        if not _is_one(m2):
            a2, b2, c2 = pmul(a2, m2), pmul(b2, m2), pmul(c2, m2)
    return padd(a1, a2), padd(b1, b2), padd(c1, c2), d1


def racc(acc: dict, key, u: RadicalCoeff, v: RadicalCoeff, n: int) -> None:
    """Add the product u*v to the raw sum acc[key]."""
    a1, b1, d1 = u
    a2, b2, d2 = v
    ab = pmul(a1, b2) if b2 else {}
    if b1:
        ab = padd(ab, pmul(b1, a2))
    term = (pmul(a1, a2), pmul(b1, b2) if b1 and b2 else {}, ab,
            _den_mul(d1, d2))
    prev = acc.get(key)
    acc[key] = term if prev is None else _merge(prev, term, n)


def rsums(pos: dict, neg: dict, weight: int, n: int) -> dict:
    """weight * (pos - neg) per key, as reduced coefficients."""
    sums = dict(pos)
    for key, (aa, bb, ab, d) in neg.items():
        term = (pneg(aa), pneg(bb), pneg(ab), d)
        prev = sums.get(key)
        sums[key] = term if prev is None else _merge(prev, term, n)
    r = r_poly(n)
    out = {}
    for key, (aa, bb, ab, d) in sums.items():
        a = padd(aa, pmul(bb, r))
        if not a and not ab:
            continue
        if weight != 1:
            a, ab = pscale(a, (weight, 0, 1)), pscale(ab, (weight, 0, 1))
        out[key] = _cancel(a, ab, d, n) if d else RadicalCoeff(a, ab, d)
    return out


def radd(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    """u + v as a one-term raw sum each, merged by ``_merge``."""
    a, _, b, d = _merge((u[0], {}, u[1], u[2]), (v[0], {}, v[1], v[2]), n)
    if not a and not b:
        return RZERO
    return RadicalCoeff(a, b, d)


def rsub(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    return radd(u, rneg(v), n)


def rneg(u: RadicalCoeff) -> RadicalCoeff:
    return RadicalCoeff(pneg(u[0]), pneg(u[1]), u[2])


def rmul(u: RadicalCoeff, v: RadicalCoeff, n: int) -> RadicalCoeff:
    """The product u*v: a one-key raw sum, reduced once by ``rsums``."""
    acc: dict = {}
    racc(acc, 0, u, v, n)
    return rsums(acc, {}, 1, n).get(0, RZERO)


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
    if not den:
        raise DivisionByZero("inverse of zero coefficient")
    if phas_hbar(den, n):
        raise NotInvertible("inverse would need an hbar-dependent denominator")
    return rmake(num_a, num_b, den, n)


def requal(u: RadicalCoeff, v: RadicalCoeff, n: int) -> bool:
    a1, b1, d1 = u
    a2, b2, d2 = v
    if d1 is d2 or d1 == d2:
        return a1 == a2 and b1 == b2
    p1, p2 = rdenom(u, n), rdenom(v, n)
    return pmul(a1, p2) == pmul(a2, p1) and pmul(b1, p2) == pmul(b2, p1)


def _derive_plan(den: Den, index: int, n: int, with_s: bool):
    """F, F*D'/D, F*(D'/D - x/rbar) and the denominator D*F for rderive.

    F holds one power of each factor that depends on x = x_index, and of
    rbar when with_s; each of their exponents rises by one in D*F.  The
    factors are folded in one at a time, so F is never divided.
    """
    key = (den, index, n, with_s)
    plan = _DERIVE_PLANS.get(key)
    if plan is None:
        x = pvar(index)
        rbar = _freeze(rbar_poly(n)) if with_s else None
        exps = dict(den)
        if with_s:
            exps.setdefault(rbar, 0)
        big, ca, cb, new = PONE, {}, {}, []
        for f, e in sorted(exps.items()):
            p = dict(f)
            dp = pderive(p, index)
            if dp:
                g = pscale(dp, (e, 0, 1))
                ca = padd(pmul(ca, p), pmul(g, big))
                cb = padd(pmul(cb, p),
                          pmul(psub(g, x) if f == rbar else g, big))
                big = pmul(big, p)
                e += 1
            new.append((f, e))
        plan = _DERIVE_PLANS[key] = (big, ca, cb, tuple(new))
    return plan


def rderive_raw(u: RadicalCoeff, index: int, n: int) -> RadicalCoeff:
    """d/dx_index by one chain rule over the factored denominator, unreduced.

    With D = prod f**e, D'/D = sum e*f'/f and s'/s = x/rbar, so
    (A + B*s)/D has derivative (A' + B'*s - A*D'/D + B*s*(x/rbar - D'/D))/D,
    which goes over D*F as in ``_derive_plan``.  Nothing is divided back
    out, so (x1 - x2)**k goes to (x1 - x2)**(k + 1).
    """
    a, b, den = u
    if not b and not den:
        da = pderive(a, index)
        return RadicalCoeff(da, {}, ()) if da else RZERO
    big, ca, cb, new = _derive_plan(den, index, n, bool(b))
    da, db = pderive(a, index), pderive(b, index)
    if big is not PONE:
        da, db = pmul(da, big), pmul(db, big)
    num_a = psub(da, pmul(a, ca))
    num_b = psub(db, pmul(b, cb)) if b else {}
    if not num_a and not num_b:
        return RZERO
    return RadicalCoeff(num_a, num_b, new)


def rderive(u: RadicalCoeff, index: int, n: int) -> RadicalCoeff:
    """d/dx_index, reduced once: ``rderive_raw``, then ``_cancel``."""
    u = rderive_raw(u, index, n)
    return _cancel(*u, n) if u[2] else u


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

