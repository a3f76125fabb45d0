import copy
import random
from fractions import Fraction

import pytest

from starnambu.errors import DivisionByZero, InexactDivision, NotInvertible
from starnambu.gauss import QONE
from starnambu.phase import random_circle_point
from starnambu.poly import (PONE, pack, padd, pconst, pmul, pneg, pscale, psub,
                            pvar)
from starnambu.radical import (RZERO, RadicalCoeff, q2_poly, r_poly,
                               radd, rbar_poly, rdenom, rderive,
                               rdivide_ihbar, requal, reval, rfrom_poly, rinv,
                               ris_zero, rmake, rmul, rneg, rs_coeff,
                               rscale, rsub, rw_coeff)

N = 2
RONE = RadicalCoeff(dict(PONE), {}, ())


def rand_coeff(rng, with_denom=True):
    def rand_poly(terms=3, hbar=True):
        out = {}
        for _ in range(terms):
            exps = (rng.randint(0, 2), rng.randint(0, 2),
                    rng.randint(0, 1) if hbar else 0)
            c = (rng.randint(-4, 4), rng.randint(-1, 1), rng.randint(1, 2))
            if c[0] == 0 and c[1] == 0:
                continue
            key = pack(exps)
            from starnambu.poly import padd
            out = padd(out, {key: c})
        return out

    a = rand_poly()
    b = rand_poly(terms=2)
    if with_denom and rng.random() < 0.5:
        k = rng.randint(1, 2)
        d = dict(PONE)
        for _ in range(k):
            d = pmul(d, rbar_poly(N))
        return rmake(a, b, d, N)
    return rmake(a, b, dict(PONE), N)


def test_defining_relation():
    s = rs_coeff()
    assert requal(rmul(s, s, N), rfrom_poly(r_poly(N)), N)


def test_w_rationalization():
    w = rw_coeff(N)
    assert w.num_a == dict(PONE)
    assert w.num_b == {0: (-1, 0, 1)}
    assert rdenom(w, N) == q2_poly(N)
    one_plus_s = radd(RONE, rs_coeff(), N)
    assert requal(rmul(w, one_plus_s, N), RONE, N)
    assert rmul(w, one_plus_s, N) == RONE


def test_inverse_cancellation():
    r = rfrom_poly(r_poly(N))
    inv = rinv(r, N)
    assert requal(rmul(r, inv, N), RONE, N)
    with pytest.raises(DivisionByZero):
        rinv(RZERO, N)


def test_denominator_constraints():
    with pytest.raises(DivisionByZero):
        rmake(dict(PONE), {}, {}, N)
    from starnambu.poly import phbar
    with pytest.raises(DivisionByZero):
        rmake(dict(PONE), {}, phbar(N, 1), N)
    # inverse with hbar-dependent numerator is not representable
    with pytest.raises(NotInvertible):
        rinv(rfrom_poly(phbar(N, 1)), N)


def test_field_laws_random():
    rng = random.Random(9)
    for _ in range(40):
        a, b, c = rand_coeff(rng), rand_coeff(rng), rand_coeff(rng)
        assert requal(radd(a, b, N), radd(b, a, N), N)
        assert requal(rmul(a, b, N), rmul(b, a, N), N)
        assert requal(rmul(rmul(a, b, N), c, N), rmul(a, rmul(b, c, N), N), N)
        assert requal(rmul(a, radd(b, c, N), N),
                      radd(rmul(a, b, N), rmul(a, c, N), N), N)
        assert ris_zero(rsub(a, a, N))
        assert ris_zero(radd(a, rneg(a), N))


def test_multiplicative_inverse_random():
    rng = random.Random(10)
    count = 0
    while count < 15:
        # inverses need hbar-free data
        a = rand_coeff(rng)
        a = RadicalCoeff(
            {k: v for k, v in a.num_a.items() if not (k >> 32)},
            {k: v for k, v in a.num_b.items() if not (k >> 32)},
            a.denom)
        if ris_zero(a):
            continue
        count += 1
        assert requal(rmul(a, rinv(a, N), N), RONE, N)


def test_reduction_idempotent_and_monic():
    rng = random.Random(11)
    from starnambu.poly import plead
    for _ in range(40):
        a = rand_coeff(rng)
        d = rdenom(a, N)
        again = rmake(dict(a.num_a), dict(a.num_b), d, N)
        assert again == a
        if d != dict(PONE):
            _, lc = plead(d, N + 1)
            assert lc == QONE



def test_results_independent_of_object_identity():
    # deep copies share no objects with the originals, so any state keyed
    # by object identity would show up as a difference here
    rng = random.Random(13)
    factors = [RONE, rmake(dict(PONE), {}, q2_poly(N), N),
               rmake(dict(PONE), {}, padd(pvar(0), dict(PONE)), N)]
    for _ in range(25):
        a = rmul(rand_coeff(rng), rng.choice(factors), N)
        b = rmul(rand_coeff(rng), rng.choice(factors), N)
        ca, cb = copy.deepcopy(a), copy.deepcopy(b)
        assert rmul(a, b, N) == rmul(ca, cb, N)
        assert radd(a, b, N) == radd(ca, cb, N)
        for var in (0, 1):
            assert rderive(a, var, N) == rderive(ca, var, N)

def test_sum_over_powers_of_one_rest():
    # 1/(x1 - x2) + 1/(x1 - x2)**2 is over (x1 - x2)**2, not (x1 - x2)**3
    d = psub(pvar(0), pvar(1))
    d2 = pmul(d, d)
    u = rmake(dict(PONE), {}, d, N)
    v = rmake(dict(PONE), {}, d2, N)
    want = rmake(padd(d, dict(PONE)), {}, d2, N)
    for got in (radd(u, v, N), radd(v, u, N)):
        assert rdenom(got, N) == d2
        assert requal(got, want, N)
    assert rdenom(rsub(u, v, N), N) == d2


def test_power_and_negative_power():
    w = rw_coeff(N)
    w2 = rmul(w, w, N)
    assert requal(rmul(rmul(RONE, w, N), w, N), w2, N)
    inv2 = rinv(rmul(w, w, N), N)
    assert requal(rmul(inv2, w2, N), RONE, N)
    assert requal(inv2, rmul(rinv(w, N), rinv(w, N), N), N)


def test_derivative_chain_rule():
    # d/dx of s is -x s / (1 - q^2)
    s = rs_coeff()
    ds = rderive(s, 0, N)
    want = rmake({}, {pack((1, 0, 0)): (-1, 0, 1)}, r_poly(N), N)
    assert requal(ds, want, N)


def test_derivative_quotient_rule_random():
    rng = random.Random(12)
    for _ in range(25):
        a, b = rand_coeff(rng), rand_coeff(rng)
        for var in (0, 1):
            lhs = rderive(rmul(a, b, N), var, N)
            rhs = radd(rmul(rderive(a, var, N), b, N),
                       rmul(a, rderive(b, var, N), N), N)
            assert requal(lhs, rhs, N)


def test_derivative_matches_sympy():
    """rderive against sympy's d/dx of (A + B*sqrt(r))/(rbar**i q2**j rest).

    Values are compared at exact rational points of the sphere, where s may
    be negative, so sqrt(r) is replaced by a symbol for s before the x's.
    Over the rest x1 - x2 the second derivative is checked as well, so a
    factor at exponent 2 is differentiated.
    """
    sp = pytest.importorskip("sympy")
    rng = random.Random(29)
    s_sym = sp.Symbol("s")
    for n in (2, 3):
        xs = sp.symbols(f"x1:{n + 1}")
        r = 1 - sum(v * v for v in xs)
        x1, x2 = pvar(0), pvar(1)
        rests = [(padd(x1, pneg(x2)), xs[0] - xs[1]),
                 (padd(dict(PONE), pmul(x1, x1)), 1 + xs[0] ** 2),
                 (padd(x1, pconst((2, 0, 1))), xs[0] + 2)]
        for i, j, with_b in ((0, 0, True), (1, 0, False), (0, 1, False),
                             (2, 1, True)):
            for rest, rest_sym in rests:
                a, a_sym, b, b_sym = {}, 0, {}, 0
                for f in range(n):
                    c, g = rng.randint(-3, 3), rng.randrange(n)
                    a = padd(a, pscale(pmul(pvar(f), pvar(g)), (c, 0, 1)))
                    a_sym += c * xs[f] * xs[g]
                    if with_b:
                        b = padd(b, pscale(pvar(f), (c, 1, 1)))
                        b_sym += (c + sp.I) * xs[f]
                den = rest
                for _ in range(i):
                    den = pmul(den, rbar_poly(n))
                for _ in range(j):
                    den = pmul(den, q2_poly(n))
                u = rmake(a, b, den, n)
                expr = (a_sym + b_sym * sp.sqrt(r)) / (
                    (-r) ** i * (1 - r) ** j * rest_sym)
                for index in range(n):
                    orders = 2 if rest is rests[0][0] else 1
                    pt = random_circle_point(n, rng)
                    vals = {v: sp.Rational(c.numerator, c.denominator)
                            for v, c in zip(xs, pt.xvals)}
                    if rest_sym.subs(vals) == 0:
                        continue
                    vals[s_sym] = sp.Rational(pt.sval.numerator,
                                              pt.sval.denominator)
                    got = u
                    for order in range(1, orders + 1):
                        want = sp.diff(expr, xs[index], order)
                        want = want.subs(sp.sqrt(r), s_sym)
                        got = rderive(got, index, n)
                        re, im, d = reval(got, n, pt.xvals, pt.sval,
                                          Fraction(0))
                        assert want.subs(vals) == sp.Rational(re, d) \
                            + sp.I * sp.Rational(im, d), (n, i, j, index,
                                                          order)


def _sympy_at(sp, expr, xs, s_sym, pt):
    """expr at an exact circle point, sqrt(r) read as the point's s."""
    vals = {v: sp.Rational(c.numerator, c.denominator)
            for v, c in zip(xs, pt.xvals)}
    vals[s_sym] = sp.Rational(pt.sval.numerator, pt.sval.denominator)
    r = 1 - sum(v * v for v in xs)
    return expr.subs(sp.sqrt(r), s_sym).subs(vals)


def test_field_operations_match_sympy():
    """radd, rsub, rmul and rinv against sympy on (A + B*sqrt(r))/D.

    The denominators mix powers of rbar and q2 with a rest factor, and the
    operands of every pair have different denominators, so each sum goes
    through ``_add_plan``; rests that divide one another (x1 - x2 and its
    square or multiple) make ``_absorb`` move a factor.  Values are compared
    at exact rational points of the circle, where s may be negative.
    """
    sp = pytest.importorskip("sympy")
    rng = random.Random(31)
    n = N
    xs = sp.symbols("x1:3")
    s_sym = sp.Symbol("s")
    r = 1 - xs[0] ** 2 - xs[1] ** 2
    x1, x2 = pvar(0), pvar(1)
    diff = padd(x1, pneg(x2))
    rests = [(dict(PONE), sp.Integer(1)),
             (diff, xs[0] - xs[1]),
             (pmul(diff, diff), (xs[0] - xs[1]) ** 2),
             (pmul(diff, padd(x1, pconst((2, 0, 1)))),
              (xs[0] - xs[1]) * (xs[0] + 2)),
             (padd(dict(PONE), pmul(x1, x1)), 1 + xs[0] ** 2)]
    operands = []
    for i, j, k in ((0, 0, 1), (1, 0, 0), (0, 1, 2), (1, 1, 3), (2, 0, 4),
                    (0, 0, 2), (1, 0, 1)):
        rest, rest_sym = rests[k]
        a, a_sym, b, b_sym = dict(PONE), sp.Integer(1), {}, 0
        for f in range(n):
            c, g = rng.randint(-3, 3), rng.randrange(n)
            a = padd(a, pscale(pmul(pvar(f), pvar(g)), (c, 0, 1)))
            a_sym += c * xs[f] * xs[g]
            b = padd(b, pscale(pvar(f), (c, 1, 1)))
            b_sym += (c + sp.I) * xs[f]
        den = rest
        for _ in range(i):
            den = pmul(den, rbar_poly(n))
        for _ in range(j):
            den = pmul(den, q2_poly(n))
        operands.append((rmake(a, b, den, n), (a_sym + b_sym * sp.sqrt(r))
                         / ((-r) ** i * (1 - r) ** j * rest_sym)))
    points = [random_circle_point(n, rng) for _ in range(2)]

    def check(got, want, what):
        for pt in points:
            expect = sp.expand(_sympy_at(sp, want, xs, s_sym, pt))
            if not expect.is_finite:
                continue
            re, im, d = reval(got, n, pt.xvals, pt.sval, Fraction(0))
            assert expect == sp.Rational(re, d) + sp.I * sp.Rational(im, d), \
                what

    for idx, (u, u_sym) in enumerate(operands):
        check(rinv(u, n), 1 / u_sym, ("rinv", idx))
        for jdx, (v, v_sym) in enumerate(operands[idx + 1:], idx + 1):
            assert u.denom != v.denom
            check(radd(u, v, n), u_sym + v_sym, ("radd", idx, jdx))
            check(rsub(u, v, n), u_sym - v_sym, ("rsub", idx, jdx))
            check(rmul(u, v, n), u_sym * v_sym, ("rmul", idx, jdx))


def test_hbar_division():
    from starnambu.poly import phbar
    c = rfrom_poly(phbar(N, 1))
    one = rdivide_ihbar(rscale(c, (0, 1, 1)), N, 1)
    assert requal(one, RONE, N)
    with pytest.raises(InexactDivision):
        rdivide_ihbar(rfrom_poly(pvar(0)), N, 1)


def test_evaluation():
    w = rw_coeff(N)
    x = [Fraction(3, 5), Fraction(0)]
    s = Fraction(4, 5)
    val = reval(w, N, x, s, Fraction(0))
    assert Fraction(val[0], val[2]) == Fraction(5, 9) and val[1] == 0
