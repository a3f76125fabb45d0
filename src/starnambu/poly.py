"""Sparse multivariate polynomial kernel over Gaussian rationals.

A polynomial in the variables (x_1 .. x_n, hbar) is a dict mapping a packed
exponent key to a scalar triple from :mod:`starnambu.gauss`.  Exponents are
packed one 17-bit field per variable, x_1 in the lowest field and hbar in
the highest, so that monomial multiplication is integer addition on keys.

An exponent is at most MASK = 65535; the 17th bit of a field is a guard.
Two exponents in range sum to less than 2**17, so they never carry into
the next field, and they pass MASK exactly when they set the guard bit.
So wherever exponents are added (``pmul``, ``pshift_hbar``, the remainder
of ``pdivmod_exact``, momentum keys in ``phase.add_products``) one test,
``key & GUARD``, catches every overflow.  The packers admit exponents
0..MASK in fields below FIELDS, all of which GUARD covers.

All functions treat dicts as immutable values and never store a zero
coefficient.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from typing import Dict, Optional, Tuple

from .errors import DomainError
from .gauss import QONE, qadd, qis_zero, qmul, qpow_i, qdiv, qfromfrac

BITS = 17  # bits per packed field: a 16-bit exponent and a guard bit
MASK = (1 << 16) - 1  # the largest exponent
FIELDS = 1024  # the number of fields a key may use
GUARD = sum(1 << (BITS * i + 16) for i in range(FIELDS))


def overflow(what: str) -> DomainError:
    return DomainError(f"{what} overflows 16-bit exponents")


Poly = Dict[int, tuple]


def pconst(c) -> Poly:
    return {} if qis_zero(c) else {0: c}


PONE = {0: QONE}


def pvar(index: int, power: int = 1) -> Poly:
    """x_index (0-based); the hbar field is index == nvars."""
    return {pack_one(index, power): QONE}


def phbar(nvars: int, power: int = 1) -> Poly:
    return {pack_one(nvars, power): QONE}


def pack_one(index: int, e: int) -> int:
    """The key of one variable, field index, to the power e."""
    if not 0 <= index < FIELDS:
        raise DomainError(f"variable field {index} is past {FIELDS} fields")
    if not 0 <= e <= MASK:
        raise DomainError(f"exponent {e} is outside 16-bit exponents")
    return e << (BITS * index)


def pack(exps: Tuple[int, ...]) -> int:
    key = 0
    for i, e in enumerate(exps):
        key |= pack_one(i, e)
    return key


def unpack(key: int, nfields: int) -> Tuple[int, ...]:
    return tuple((key >> (BITS * i)) & MASK for i in range(nfields))


def padd(f: Poly, g: Poly) -> Poly:
    """f + g, or either operand itself when the other is zero."""
    if not f:
        return g
    if not g:
        return f
    out = dict(f)
    get = out.get
    for k, c in g.items():
        prev = get(k)
        if prev is None:
            out[k] = c
            continue
        pa, pb, pd = prev
        ca, cb, cd = c
        if pd == cd:
            sa = pa + ca
            sb = pb + cb
            sd = pd
        else:
            sa = pa * cd + ca * pd
            sb = pb * cd + cb * pd
            sd = pd * cd
        if sa == 0 and sb == 0:
            del out[k]
        elif sd == 1:
            out[k] = (sa, sb, 1)
        else:
            cf = gcd(gcd(sa, sb), sd)
            out[k] = (sa // cf, sb // cf, sd // cf) if cf > 1 else (sa, sb, sd)
    return out


def psub(f: Poly, g: Poly) -> Poly:
    return padd(f, pneg(g))


def pneg(f: Poly) -> Poly:
    return {k: (-c[0], -c[1], c[2]) for k, c in f.items()}


def pscale(f: Poly, c) -> Poly:
    if qis_zero(c):
        return {}
    return {k: qmul(v, c) for k, v in f.items()}


def pmul(f: Poly, g: Poly) -> Poly:
    """Sparse product; the scalar arithmetic is inlined since this loop
    dominates every bracket computation.

    DomainError when the exponents of some pair of terms sum past MASK;
    each key is tested as it enters the output."""
    if not f or not g:
        return {}
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        ((k1, (a1, b1, d1)),) = f.items()
        out = {}
        for k2, (a2, b2, d2) in g.items():
            if b1 == 0 and b2 == 0:
                na = a1 * a2
                nb = 0
            else:
                na = a1 * a2 - b1 * b2
                nb = a1 * b2 + b1 * a2
            nd = d1 * d2
            if nd != 1:
                cf = gcd(gcd(na, nb), nd)
                if cf > 1:
                    na //= cf
                    nb //= cf
                    nd //= cf
            k = k1 + k2
            if k & GUARD:
                raise overflow("product")
            out[k] = (na, nb, nd)
        return out
    out: Poly = {}
    get = out.get
    gitems = list(g.items())
    for k1, (a1, b1, d1) in f.items():
        for k2, (a2, b2, d2) in gitems:
            k = k1 + k2
            if b1 == 0 and b2 == 0:
                na = a1 * a2
                nb = 0
            else:
                na = a1 * a2 - b1 * b2
                nb = a1 * b2 + b1 * a2
            nd = d1 * d2
            if nd != 1:
                cf = gcd(gcd(na, nb), nd)
                if cf > 1:
                    na //= cf
                    nb //= cf
                    nd //= cf
            prev = get(k)
            if prev is None:
                if k & GUARD:
                    raise overflow("product")
                out[k] = (na, nb, nd)
                continue
            pa, pb, pd = prev
            if pd == nd:
                sa = pa + na
                sb = pb + nb
                sd = pd
            else:
                sa = pa * nd + na * pd
                sb = pb * nd + nb * pd
                sd = pd * nd
            if sa == 0 and sb == 0:
                del out[k]
            elif sd == 1:
                out[k] = (sa, sb, 1)
            else:
                cf = gcd(gcd(sa, sb), sd)
                out[k] = (sa // cf, sb // cf, sd // cf) if cf > 1 \
                    else (sa, sb, sd)
    return out


def pderive(f: Poly, index: int) -> Poly:
    """Partial derivative with respect to variable `index` (0-based field)."""
    shift = BITS * index
    out: Poly = {}
    for k, c in f.items():
        e = (k >> shift) & MASK
        if e:
            out[k - (1 << shift)] = qmul(c, (e, 0, 1)) if e > 1 else c
    return out


def grlex_key(key: int, nfields: int):
    """Sort key for graded-lex order (x_1 most significant after degree)."""
    exps = unpack(key, nfields)
    return (sum(exps), exps)


def plead(f: Poly, nfields: int) -> Tuple[int, tuple]:
    """Leading (key, coeff) under graded lex; raises on zero polynomial."""
    best = max(f, key=lambda k: grlex_key(k, nfields))
    return best, f[best]


def pmonic(f: Poly, nfields: int) -> Tuple[Poly, tuple]:
    """Scale f so its graded-lex leading coefficient is one.

    Returns (monic_poly, factor) with f == factor * monic_poly.
    """
    if not f:
        return f, QONE
    _, lc = plead(f, nfields)
    if lc == QONE:
        return f, QONE
    return {k: qdiv(c, lc) for k, c in f.items()}, lc


def pdivmod_exact(f: Poly, g: Poly, nfields: int) -> Optional[Poly]:
    """Return f / g when g divides f exactly, else None.

    Division peels leading terms under the plain packed-integer order,
    which is lexicographic with hbar most significant; any monomial order
    gives the same exact quotient, and raw int comparison keeps the heap
    cheap.

    A remainder term past MASK also means None.  Were f = q*g, the degree
    of f in each variable would be the sum of those of q and g, so no
    product of a term of q and a term of g could pass MASK, and the
    quotient terms found here are terms of q.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return {}
    gkey = max(g)
    gc = g[gkey]
    gpairs = [(k, c) for k, c in g.items() if k != gkey]
    # a remainder key carries no guard bit, so with every guard set the
    # subtraction borrows no field's guard bit exactly when gkey divides it
    guard = GUARD & ((1 << (BITS * nfields)) - 1)
    rem = dict(f)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quo: Poly = {}
    while rem:
        while True:
            rkey = -heap[0]
            if rkey in rem:
                break
            heapq.heappop(heap)
        if ((rkey | guard) - gkey) & guard != guard:
            return None
        qkey = rkey - gkey
        qc = qdiv(rem[rkey], gc)
        quo[qkey] = qc
        del rem[rkey]
        heapq.heappop(heap)
        for k, c in gpairs:
            kk = k + qkey
            if kk & GUARD:
                return None
            prev = rem.get(kk)
            prod = qmul(c, qc)
            if prev is None:
                rem[kk] = (-prod[0], -prod[1], prod[2])
                heapq.heappush(heap, -kk)
            else:
                s = qadd(prev, (-prod[0], -prod[1], prod[2]))
                if s[0] == 0 and s[1] == 0:
                    del rem[kk]
                else:
                    rem[kk] = s
    return quo


def pdivisible_hbar(f: Poly, nvars: int, k: int) -> bool:
    shift = BITS * nvars
    return all(((key >> shift) & MASK) >= k for key in f)


def pshift_hbar(f: Poly, nvars: int, k: int) -> Poly:
    """Multiply by hbar**k, 0 <= k <= MASK."""
    delta = pack_one(nvars, k)
    out = {key + delta: c for key, c in f.items()}
    if any(key & GUARD for key in out):
        raise overflow("hbar shift")
    return out


def pdrop_hbar(f: Poly, nvars: int) -> Poly:
    """Set hbar to zero: keep only hbar-free monomials."""
    shift = BITS * nvars
    return {k: c for k, c in f.items() if not (k >> shift)}


def phas_hbar(f: Poly, nvars: int) -> bool:
    shift = BITS * nvars
    return any(k >> shift for k in f)


def pdivide_ihbar(f: Poly, nvars: int, k: int) -> Optional[Poly]:
    """Exact division by (i*hbar)**k, or None if not divisible."""
    if k == 0:
        return dict(f)
    if not pdivisible_hbar(f, nvars, k):
        return None
    factor = qpow_i(-k % 4)
    delta = k << (BITS * nvars)
    return {key - delta: qmul(c, factor) for key, c in f.items()}


def peval(f: Poly, nvars: int, xvals, hbar_val) -> tuple:
    """Evaluate at rational x values and a rational hbar value."""
    total = (0, 0, 1)
    for key, c in f.items():
        m = Fraction(1)
        for i in range(nvars):
            e = (key >> (BITS * i)) & MASK
            if e:
                m *= Fraction(xvals[i]) ** e
        eh = (key >> (BITS * nvars)) & MASK
        if eh:
            m *= Fraction(hbar_val) ** eh
        total = qadd(total, qmul(c, qfromfrac(m)))
    return total
