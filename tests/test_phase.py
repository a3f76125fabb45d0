import random
from fractions import Fraction

import pytest

from starnambu import (DimensionError, DivisionByZero, DomainError, EvalPoint,
                       InexactDivision, PhaseExpr, normalize_terms,
                       random_circle_point)
from starnambu.models import get_model
from starnambu.poly import PONE, phbar, pvar
from starnambu.radical import rfrom_poly


def exprs(n=2):
    return (PhaseExpr.coord(n, 0), PhaseExpr.momentum(n, 0),
            PhaseExpr.radical_s(n), PhaseExpr.one(n))


def rand_expr(n, rng, pdeg=2, xdeg=2, terms=4):
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    p = [PhaseExpr.momentum(n, i) for i in range(n)]
    s = PhaseExpr.radical_s(n)
    total = PhaseExpr.zero(n)
    for _ in range(terms):
        t = PhaseExpr.const(n, rng.randint(-3, 3) or 1)
        for _ in range(rng.randint(0, pdeg)):
            t = t * p[rng.randrange(n)]
        for _ in range(rng.randint(0, xdeg)):
            t = t * x[rng.randrange(n)]
        if rng.random() < 0.4:
            t = t * s
        total = total + t
    return total


class TestNormalize:
    def test_s_square_reduces(self):
        # raw term s^2 collapses to 1 - x^2 - y^2
        got = normalize_terms(2, [(((0, 0)), dict(PONE), 2, (dict(PONE), {}))])
        x, _, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        assert got.equals(one - x * x - y * y)

    def test_conjugate_rationalization(self):
        # 1/(1+s) -> (1-s)/q^2
        got = normalize_terms(2, [(((0, 0)), dict(PONE), 0,
                                   (dict(PONE), dict(PONE)))])
        assert got.equals(PhaseExpr.w_function(2))
        coeff = got.terms[0]
        assert coeff.num_a == dict(PONE)
        assert coeff.num_b == {0: (-1, 0, 1)}

    def test_inverse_cancellation(self):
        x, _, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        r = one - x * x - y * y
        assert (r * (one / r)).equals(one)

    def test_idempotence_random(self):
        rng = random.Random(1)
        for _ in range(25):
            e = rand_expr(2, rng)
            rebuilt = PhaseExpr(2, dict(e.terms))
            assert rebuilt.equals(e)
            assert rebuilt.terms == e.terms

    def test_high_s_powers_and_mixed_denominators(self):
        # (x * s^5) / (1 + s) against the same value built by arithmetic
        from starnambu.poly import pvar
        raw = [((1, 0), pvar(0), 5, (dict(PONE), dict(PONE)))]
        got = normalize_terms(2, raw)
        x, px, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        want = (x * (s ** 5) / (one + s)) * px
        assert got.equals(want)
        # every coefficient ends with an s-free denominator and s-degree <= 1
        for coeff in got.terms.values():
            from starnambu.poly import phas_hbar
            from starnambu.radical import rdenom
            assert not phas_hbar(rdenom(coeff, 2), 2)

    def test_normalize_accumulates_matching_keys(self):
        raw = [((0, 1), dict(PONE), 0, (dict(PONE), {})),
               ((0, 1), dict(PONE), 2, (dict(PONE), {}))]
        got = normalize_terms(2, raw)
        x, _, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        py = PhaseExpr.momentum(2, 1)
        assert got.equals((one + one - x * x - y * y) * py)

    def test_hbar_dependent_denominator_raises(self):
        # both a plain denominator and one with an s-part, in either slot
        one, hbar = dict(PONE), phbar(2)
        for den in ((hbar, {}), (hbar, one), (one, hbar)):
            with pytest.raises(DivisionByZero):
                normalize_terms(2, [((0, 0), one, 0, den)])


class TestArithmetic:
    def test_add_cancel(self):
        x, *_ = exprs()
        assert (x + (-x)).is_zero()

    def test_s_squared(self):
        x, _, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        assert (s * s).equals(one - x * x - y * y)

    def test_unit(self):
        m = get_model("sphere:2")
        lz = m.charge("Lz")
        assert (lz * PhaseExpr.one(2)).equals(lz)

    def test_commutative_and_associative(self):
        rng = random.Random(2)
        for _ in range(15):
            a, b, c = (rand_expr(2, rng, terms=3) for _ in range(3))
            assert (a * b).equals(b * a)
            assert ((a * b) * c).equals(a * (b * c))
            assert (a * (b + c)).equals(a * b + a * c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PhaseExpr.coord(2, 0) + PhaseExpr.coord(3, 0)
        with pytest.raises(DimensionError):
            PhaseExpr.coord(2, 0) * PhaseExpr.coord(3, 0)

    def test_power_past_16_bit_exponents_raises(self):
        # p1**65536 used to wrap around into p2
        with pytest.raises(DomainError):
            PhaseExpr.momentum(2, 0) ** 65536

    def test_product_past_16_bit_exponents_raises(self):
        # sixteen squarings of x1 used to wrap x1**65536 around into x2
        x = PhaseExpr.coord(2, 0)
        for _ in range(15):
            x = x * x
        with pytest.raises(DomainError):
            x * x

    def test_sum_past_16_bit_exponents_raises(self):
        # the common denominator (x1 - x2)*(x1 + x2)**3 multiplies
        # x1**65533 by (x1 + x2)**3; its x1**65536 used to wrap into x2,
        # so the numerator held -4*x2 where -5*x2 + x1**65536 belongs
        x1, x2 = PhaseExpr.coord(2, 0), PhaseExpr.coord(2, 1)
        big = PhaseExpr(2, {0: rfrom_poly(pvar(0, 65533))})
        left = big / (x1 - x2)
        right = PhaseExpr.const(2, 5) / (x1 + x2) ** 3
        for op in (PhaseExpr.__add__, PhaseExpr.__sub__):
            with pytest.raises(DomainError):
                op(left, right)

    def test_division_up_to_16_bit_exponents(self):
        # trial division of x1**65535*x2**2 by q2 = x1**2 + x2**2 forms the
        # remainder term x1**65537; that only shows q2 does not divide it,
        # so the quotient keeps q2 as its denominator
        x1, x2 = PhaseExpr.coord(2, 0), PhaseExpr.coord(2, 1)
        num = PhaseExpr(2, {0: rfrom_poly(pvar(0, 65535))}) * x2 * x2
        got = num / (x1 * x1 + x2 * x2)
        pt = random_circle_point(2, random.Random(8))
        a, b = pt.xvals
        value = got.evaluate(pt, 0)
        assert value.re == a ** 65535 * b * b / (a * a + b * b) != 0
        assert value.im == 0

    def test_star_past_16_bit_exponents_raises(self):
        # the hbar shift of the first-order term used to wrap hbar**65536
        # around to 1, so this commutator returned -i
        from starnambu import star, star_commutator
        f = PhaseExpr.momentum(1, 0).times_hbar(65535)
        x = PhaseExpr.coord(1, 0)
        for product in (star, star_commutator):
            with pytest.raises(DomainError):
                product(f, x)


class TestDifferentiate:
    def test_momentum_derivative(self):
        x, px, _, _ = exprs()
        assert (x * px).diff_p(0).equals(x)

    def test_radical_derivative(self):
        x, _, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        r = one - x * x - y * y
        assert s.diff_x(0).equals(-(x * s) / r)

    def test_w_derivative_quotient_oracle(self):
        # d/dx of 1/(1+s) computed independently via the quotient rule
        x, _, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        r = one - x * x - y * y
        w = PhaseExpr.w_function(2)
        dw = w.diff_x(0)
        oracle = (x * s) / (((one + s) ** 2) * r)
        assert dw.equals(oracle)
        rng = random.Random(3)
        for _ in range(20):
            pt = random_circle_point(2, rng)
            assert dw.evaluate(pt, Fraction(1, 3)) == oracle.evaluate(pt, Fraction(1, 3))

    def test_product_rule_random(self):
        rng = random.Random(4)
        for _ in range(15):
            f, g = rand_expr(2, rng, terms=3), rand_expr(2, rng, terms=3)
            for a in (0, 1):
                assert (f * g).diff_x(a).equals(f.diff_x(a) * g + f * g.diff_x(a))
                assert (f * g).diff_p(a).equals(f.diff_p(a) * g + f * g.diff_p(a))

    def test_clairaut(self):
        rng = random.Random(5)
        for _ in range(10):
            f = rand_expr(2, rng, terms=3)
            assert f.diff_x(0).diff_x(1).equals(f.diff_x(1).diff_x(0))
            assert f.diff_x(0).diff_p(1).equals(f.diff_p(1).diff_x(0))

    def test_index_range(self):
        with pytest.raises(DomainError):
            PhaseExpr.coord(2, 0).diff_x(2)


class TestHbar:
    def test_divide_exact(self):
        ihbar = PhaseExpr.hbar(2).times_i()
        assert ihbar.divide_exact_hbar(1).equals(PhaseExpr.one(2))
        m2h2 = PhaseExpr.hbar(2, 2).scale_fraction(-2)
        assert m2h2.divide_exact_hbar(2).equals(PhaseExpr.const(2, 2))

    def test_divide_inexact(self):
        with pytest.raises(InexactDivision):
            PhaseExpr.coord(2, 0).divide_exact_hbar(1)

    def test_classical_limit(self):
        m = get_model("sphere:2")
        assert m.h_quantum.subst_hbar_zero().equals(m.h_classical)
        assert (PhaseExpr.hbar(2) * PhaseExpr.coord(2, 0)).subst_hbar_zero().is_zero()
        lz = m.charge("Lz")
        assert lz.subst_hbar_zero().equals(lz)

    def test_hbar_degree_past_16_bits_raises(self):
        # hbar**65536 used to wrap around to 1
        with pytest.raises(DomainError):
            PhaseExpr.one(2).times_hbar(65536)
        top = PhaseExpr.one(2).times_hbar(65535)
        assert top.equals(PhaseExpr.hbar(2, 65535))

    def test_exponents_outside_16_bits_are_refused(self):
        # 70000 used to spill into the next field (p1**4464*p2), -1 to make
        # a negative key printed as p1**65535*p2**65535, and hbar**70000
        # to print as hbar**4464
        one = {0: (1, 0, 1)}
        for pexps in ((70000, 0), (-1, 0)):
            with pytest.raises(DomainError):
                normalize_terms(2, [(pexps, one, 0, (one, {}))])
        for power in (70000, -1):
            with pytest.raises(DomainError):
                PhaseExpr.hbar(2, power)
        assert PhaseExpr.hbar(2, 65535).equals(
            PhaseExpr.one(2).times_hbar(65535))

    def test_negative_hbar_power_raises(self):
        # times_ihbar(-1) used to shift x2 into a key of -4294901760, whose
        # printout was a 320 KB chain of hbar factors
        x2 = PhaseExpr.coord(2, 1)
        for shift in (x2.times_ihbar, x2.times_hbar):
            with pytest.raises(DomainError):
                shift(-1)
        assert x2.times_ihbar(0).equals(x2)


class TestEvaluate:
    def test_spec_values(self):
        s = PhaseExpr.radical_s(2)
        px = PhaseExpr.momentum(2, 0)
        pt = EvalPoint((Fraction(3, 5), Fraction(0)), (Fraction(1), Fraction(0)),
                       Fraction(4, 5))
        val = (s * px).evaluate(pt, Fraction(0))
        assert val.re == Fraction(4, 5) and val.im == 0
        assert PhaseExpr.zero(2).evaluate(pt, Fraction(0)).is_zero()
        x, _, _, one = exprs()
        y = PhaseExpr.coord(2, 1)
        r = one - x * x - y * y
        assert (one / r).evaluate(pt, Fraction(0)).re == Fraction(25, 16)

    def test_homomorphism_100_random_pairs(self):
        rng = random.Random(6)
        h = Fraction(2, 7)
        for _ in range(100):
            f = rand_expr(2, rng, terms=3)
            g = rand_expr(2, rng, terms=3)
            pt = random_circle_point(2, rng)
            assert (f * g).evaluate(pt, h) == f.evaluate(pt, h) * g.evaluate(pt, h)
            assert (f + g).evaluate(pt, h) == f.evaluate(pt, h) + g.evaluate(pt, h)

    def test_point_invariant(self):
        with pytest.raises(DomainError):
            EvalPoint((Fraction(1, 2),), (Fraction(0),), Fraction(1))


class TestEquals:
    def test_scalar_triples_are_normalized(self):
        # (2, 0, 4) printed as 1/2 but compared unequal to it, and (1, 0, 0)
        # was accepted until text() raised a bare ZeroDivisionError
        for triple, value in (((2, 0, 4), Fraction(1, 2)),
                              ((1, 0, -2), Fraction(-1, 2))):
            got = PhaseExpr.const(2, triple)
            assert got.equals(PhaseExpr.const(2, value))
            assert got.text() == PhaseExpr.const(2, value).text()
        assert PhaseExpr.const(2, (0, 0, 3)).is_zero()
        with pytest.raises(DivisionByZero):
            PhaseExpr.const(2, (1, 0, 0))

    def test_spec_examples(self):
        x, _, s, one = exprs()
        y = PhaseExpr.coord(2, 1)
        assert (s * s).equals(one - x * x - y * y)
        assert not x.equals(y)
        w = PhaseExpr.w_function(2)
        assert (w * (one + s)).equals(one)

    def test_radical_flag(self):
        x, px, s, one = exprs()
        assert (x * px + one).is_polynomial
        assert not (s * px).is_polynomial
        assert not PhaseExpr.w_function(2).is_polynomial
