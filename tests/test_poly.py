import random
from fractions import Fraction

import pytest

from starnambu.gauss import QONE, qnorm
from starnambu.poly import (PONE, pack, padd, pconst, pderive, pdivide_ihbar,
                            pdivmod_exact, pdrop_hbar, peval, phbar, plead,
                            pmonic, pmul, pneg, pscale, psub, pvar,
                            unpack)


def rand_poly(rng, nvars=2, terms=4, deg=3):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, deg) for _ in range(nvars + 1))
        c = qnorm(rng.randint(-5, 5), rng.randint(-2, 2), rng.randint(1, 3))
        if c == (0, 0, 1):
            continue
        key = pack(exps)
        out = padd(out, {key: c})
    return out


def test_pack_roundtrip():
    exps = (3, 0, 7)
    assert unpack(pack(exps), 3) == exps


def test_ring_laws():
    rng = random.Random(2)
    for _ in range(60):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert padd(a, b) == padd(b, a)
        assert pmul(a, b) == pmul(b, a)
        assert pmul(pmul(a, b), c) == pmul(a, pmul(b, c))
        assert pmul(a, padd(b, c)) == padd(pmul(a, b), pmul(a, c))
        assert padd(a, pneg(a)) == {}
        assert psub(a, a) == {}


def test_derivative_is_a_derivation():
    rng = random.Random(3)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        for var in (0, 1, 2):
            lhs = pderive(pmul(a, b), var)
            rhs = padd(pmul(pderive(a, var), b), pmul(a, pderive(b, var)))
            assert lhs == rhs
    assert pderive(pmul(pvar(0), pvar(0)), 0) == {pack((1, 0)): (2, 0, 1)}


def test_exact_division():
    rng = random.Random(4)
    for _ in range(40):
        a = rand_poly(rng, terms=3)
        b = rand_poly(rng, terms=3)
        if not a or not b:
            continue
        prod = pmul(a, b)
        q = pdivmod_exact(prod, b, 3)
        assert q == a or pmul(q, b) == prod
    # non-multiples are rejected
    x, y = pvar(0), pvar(1)
    assert pdivmod_exact(x, y, 3) is None
    assert pdivmod_exact(padd(x, dict(PONE)), x, 3) is None
    with pytest.raises(ZeroDivisionError):
        pdivmod_exact(x, {}, 3)


def test_hbar_division():
    h2 = phbar(2, 2)
    assert pdivide_ihbar(h2, 2, 2) == {0: (-1, 0, 1)}
    assert pdivide_ihbar(pvar(0), 2, 1) is None
    assert pdivide_ihbar({}, 2, 3) == {}


def test_drop_hbar():
    p = padd(phbar(2, 1), dict(PONE))
    assert pdrop_hbar(p, 2) == dict(PONE)


def test_monic_and_lead():
    p = pscale(padd(pmul(pvar(0), pvar(0)), dict(PONE)), (-2, 0, 3))
    monic, lc = pmonic(p, 3)
    key, coeff = plead(monic, 3)
    assert coeff == QONE
    assert lc == (-2, 0, 3)
    assert pscale(monic, lc) == p


def test_eval_homomorphism():
    rng = random.Random(7)
    xv = [Fraction(1, 3), Fraction(-2, 5)]
    hv = Fraction(1, 2)
    for _ in range(30):
        a, b = rand_poly(rng), rand_poly(rng)
        ea, eb = peval(a, 2, xv, hv), peval(b, 2, xv, hv)
        from starnambu.gauss import qadd, qmul
        assert peval(padd(a, b), 2, xv, hv) == qadd(ea, eb)
        assert peval(pmul(a, b), 2, xv, hv) == qmul(ea, eb)


def test_printing_smoke():
    from starnambu.lang import _poly_str
    from starnambu.operators import ExactMatrix
    p = padd(pmul(pvar(0), pvar(0)), pneg(phbar(1, 1)))
    assert _poly_str(p, 1) == ("x1*x1 - hbar", False)
    m = ExactMatrix.unit(2, 0, 1, phbar(0, 2))
    assert repr(m) == "ExactMatrix(2, [0,1]=hbar*hbar)"


def test_const_zero_is_empty():
    assert pconst((0, 0, 1)) == {}
