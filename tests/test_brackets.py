import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from starnambu import (ArityError, DimensionError, DomainError, PhaseExpr,
                       SubsetCache, jordan, moyal, nambu_jacobian,
                       phase_algebra, poisson, qnb, resolve_qnb4, star,
                       star_commutator, star_jordan, symplectic_trace)
from starnambu.models import get_model
from starnambu.operators import ExactMatrix, matrix_algebra, naive_bracket
from starnambu.phase import random_circle_point
from starnambu.poly import pvar
from starnambu.radical import rfrom_poly
from tests.test_phase import rand_expr


def basics(n=2):
    return (PhaseExpr.coord(n, 0), PhaseExpr.momentum(n, 0),
            PhaseExpr.one(n), PhaseExpr.radical_s(n))


def x1_power(k, n=2):
    """x1**k, built in one step."""
    return PhaseExpr(n, {0: rfrom_poly(pvar(0, k))})


def plain_denominators(n):
    """Inverses of s-free denominators that are neither rbar nor q2."""
    one = PhaseExpr.one(n)
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    out = [one / (one + x[0] * x[0])]
    if n > 1:
        out.append(one / (x[0] - x[1]))
    return out


def star_reference(f, g):
    """Slow independent oracle: iterate the Poisson bidifferential one
    derivative at a time on ordered pairs and sum (i hbar/2)^k D^k/k!."""
    n = f.n
    total = f * g
    pairs = [(f, g)]
    k = 0
    kfact = 1
    while pairs:
        k += 1
        kfact *= k
        new = []
        for a, b in pairs:
            for i in range(n):
                da, db = a.diff_x(i), b.diff_p(i)
                if not da.is_zero() and not db.is_zero():
                    new.append((da, db))
                da, db = a.diff_p(i), b.diff_x(i)
                if not da.is_zero() and not db.is_zero():
                    new.append((-da, db))
        pairs = new
        if not pairs:
            break
        order = PhaseExpr.zero(n)
        for a, b in pairs:
            order = order + a * b
        total = total + order.times_ihbar(k).scale_fraction(
            Fraction(1, (1 << k) * kfact))
    return total


def sympy_twins(sp):
    """Operands on n = 2 with s and the pole 1/(x1 - x2), each paired with
    the same function in sympy, built with an explicit
    sqrt(1 - x1**2 - x2**2)."""
    n = 2
    xs, ps = sp.symbols("x1:3"), sp.symbols("p1:3")
    root = sp.sqrt(1 - xs[0] ** 2 - xs[1] ** 2)
    pole = 1 / (xs[0] - xs[1])
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    p = [PhaseExpr.momentum(n, i) for i in range(n)]
    s = PhaseExpr.radical_s(n)
    inv = (x[0] - x[1]).invert_coefficient()
    return [
        ((x[0] + s.scale_fraction(2)) * p[0] + x[1] * inv * p[1],
         (xs[0] + 2 * root) * ps[0] + xs[1] * pole * ps[1]),
        (s * p[0] * p[1] - x[0] * inv * p[1] * p[1],
         root * ps[0] * ps[1] - xs[0] * pole * ps[1] ** 2),
        (s * x[1] * inv * p[0] + x[0] * x[0],
         root * xs[1] * pole * ps[0] + xs[0] ** 2),
    ]


def sympy_points(count, seed):
    """Exact points of the circle off the pole x1 = x2."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        pt = random_circle_point(2, rng)
        if pt.xvals[0] != pt.xvals[1]:
            points.append(pt)
    return points


def sympy_at(sp, expr, pt, h):
    """The sympy expression expr at the point pt and hbar = h.

    s may be negative at a point of the circle, so sqrt(r) is replaced by
    a symbol for s before the x's are.
    """
    xs, ps = sp.symbols("x1:3"), sp.symbols("p1:3")
    hbar, s_sym = sp.symbols("hbar s")

    def rational(q):
        return sp.Rational(q.numerator, q.denominator)

    expr = expr.subs(sp.sqrt(1 - xs[0] ** 2 - xs[1] ** 2), s_sym)
    vals = {v: rational(c) for v, c in zip(xs + ps, pt.xvals + pt.pvals)}
    vals[s_sym], vals[hbar] = rational(pt.sval), rational(h)
    return expr.subs(vals)


def assert_sympy_values(sp, got, want, points, h):
    """got equals the sympy expression want at each point, at hbar = h."""
    for pt in points:
        value = got.evaluate(pt, h)
        value = sp.Rational(value.re.numerator, value.re.denominator) \
            + sp.I * sp.Rational(value.im.numerator, value.im.denominator)
        assert sp.expand(sympy_at(sp, want, pt, h) - value) == 0


class TestStar:
    def test_canonical_example(self):
        x, px, one, _ = basics()
        want = x * px + PhaseExpr.hbar(2).times_i().scale_fraction(Fraction(1, 2))
        assert star(x, px).equals(want)

    def test_unit(self):
        x, px, one, s = basics()
        f = s * px + x
        assert star(one, f).equals(f)
        assert star(f, one).equals(f)

    def test_s2_correction_piece(self):
        m = get_model("sphere:2")
        x, px, one, _ = basics()
        y = PhaseExpr.coord(2, 1)
        r = one - x * x - y * y
        want = (one / r - one.scale_fraction(3)) \
            .times_hbar(2).scale_fraction(Fraction(1, 8))
        assert (m.h_quantum - m.h_classical).equals(want)

    def test_termination_bound(self):
        # the series stops at the sum of the momentum degrees
        x, px, one, s = basics()
        f = (px ** 3) * x
        g = (px ** 2) * s
        out = star(f, g)
        assert out.momentum_degree() <= 5

    def test_associativity_with_radicals(self):
        rng = random.Random(21)
        w = PhaseExpr.w_function(2)
        for trial in range(10):
            f = rand_expr(2, rng, terms=3)
            g = rand_expr(2, rng, terms=3)
            h = rand_expr(2, rng, pdeg=1, terms=3)
            if trial % 3 == 0:
                g = g * w
            assert star(star(f, g), h).equals(star(f, star(g, h)))

    def test_commutator_matches_two_products(self):
        rng = random.Random(22)
        for _ in range(10):
            f, g = rand_expr(2, rng, terms=3), rand_expr(2, rng, terms=3)
            assert star_commutator(f, g).equals(star(f, g) - star(g, f))
        for n in (1, 2, 3):
            factors = [PhaseExpr.w_function(n)] + plain_denominators(n)
            for d in factors:
                f = rand_expr(n, rng, terms=3) * d
                g = rand_expr(n, rng, terms=3) * rng.choice(factors)
                assert star_commutator(f, g).equals(star(f, g) - star(g, f))

    def test_against_literal_bidifferential_oracle(self):
        rng = random.Random(36)
        for n in (1, 2):
            for _ in range(6):
                f = rand_expr(n, rng, pdeg=2, xdeg=1, terms=3)
                g = rand_expr(n, rng, pdeg=2, xdeg=1, terms=3)
                assert star(f, g).equals(star_reference(f, g))
        w = PhaseExpr.w_function(2)
        f = rand_expr(2, rng, pdeg=1, terms=2) * w
        g = rand_expr(2, rng, pdeg=1, terms=2)
        assert star(f, g).equals(star_reference(f, g))
        for n in (1, 2):
            for d in plain_denominators(n):
                f = rand_expr(n, rng, pdeg=1, terms=2) * d
                g = rand_expr(n, rng, pdeg=2, xdeg=1, terms=2) * d
                assert star(f, g).equals(star_reference(f, g))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            star(PhaseExpr.coord(2, 0), PhaseExpr.coord(3, 0))

    def test_half_tables_do_not_depend_on_the_product_that_built_them(self):
        """Each operand caches one half table for every star sum it enters:
        the same values come out whichever product builds it first."""
        for n in (1, 2):
            for i, d in enumerate([PhaseExpr.w_function(n)]
                                  + plain_denominators(n)):
                def operands():
                    rng = random.Random(38 + 10 * n + i)
                    return (rand_expr(n, rng, pdeg=2, terms=3) * d,
                            rand_expr(n, rng, pdeg=2, terms=3))
                f, g = operands()
                fg, gf = star_reference(f, g), star_reference(g, f)
                half = (fg + gf).scale_fraction(Fraction(1, 2))
                want = {star: (fg, gf), star_commutator: (fg - gf, gf - fg),
                        star_jordan: (half, half)}
                for order in (list(want), list(want)[::-1]):
                    f, g = operands()
                    for product in order:
                        assert product(f, g).equals(want[product][0])
                        assert product(g, f).equals(want[product][1])

    def test_denominator_growth_past_16_bit_exponents_raises(self):
        # Each pair's raw sums reach x1**65536, one past the 16-bit field,
        # though the operands' x1 tops sum to less than 65535; the
        # products whose terms never form it return their series.
        x1, p1, one, _ = basics()
        x2, p2 = PhaseExpr.coord(2, 1), PhaseExpr.momentum(2, 1)
        q2 = x1 * x1 + x2 * x2
        pairs = [
            # d/dx1 (x1**32767/q2) has numerator 32767*x1**32766*q2 -
            # 2*x1**32768: the (x1, p1) term reaches x1**(32768 + 32768),
            # an odd order, which the Jordan product skips
            (x1_power(32767) * q2.invert_coefficient() * p1,
             x1_power(32768) * p1),
            # d^4/dx1^4 (x1**A/q2) has numerator degree A + 4: the
            # (x1**4, 1) term, of even order, reaches x1**65536
            (x1_power(32766) * q2.invert_coefficient() * p1 ** 4,
             x1_power(32766) * p1 ** 4),
            # at p1*p2 the x1**A*x1**B/(x1 + 1)**4 term goes over the
            # common denominator (x1 + 1)**4*q2**8: x1**(A + B + 16)
            (x1_power(32760) * ((x1 + one) ** 4).invert_coefficient() * p1
             + (q2 ** 8).invert_coefficient() * p2,
             x1_power(32760) * p2 + p1),
        ]
        returns = {(0, star_jordan), (1, star_commutator)}
        for i, (f, g) in enumerate(pairs):
            for product in (star, star_commutator, star_jordan):
                if (i, product) not in returns:
                    with pytest.raises(DomainError):
                        product(f, g)

        def series(f, g, parity, weight):
            # the (j, k) term of f*g in p1 alone: (i*hbar/2)**(j + k) *
            # (-1)**k / (j! k!) * d_x^j d_p^k f * d_p^j d_x^k g
            total = PhaseExpr.zero(2)
            for j in range(5):
                for k in range(5):
                    if (j + k) % 2 != parity:
                        continue
                    left, right = f, g
                    for _ in range(j):
                        left, right = left.diff_x(0), right.diff_p(0)
                    for _ in range(k):
                        left, right = left.diff_p(0), right.diff_x(0)
                    scale = Fraction((-1) ** k * weight,
                                     2 ** (j + k) * factorial(j) * factorial(k))
                    total = total + (left * right).times_ihbar(
                        j + k).scale_fraction(scale)
            return total

        (f0, g0), (f1, g1) = pairs[:2]
        assert star_jordan(f0, g0).equals(series(f0, g0, 0, 1))
        assert star_commutator(f1, g1).equals(series(f1, g1, 1, 2))

    def test_denominator_growth_up_to_16_bit_exponents(self):
        # f = x1**A/q2 * p1 and g = x1**B * p1 with A + B + 6 = 65535: the
        # slack for the x1 field is q2's degree plus twice that of its one
        # factor, so the product is taken, and it is the three-term series
        # f*g + (i*hbar/2)*(f_x*g_p - f_p*g_x) + (hbar**2/4)*f_xp*g_px
        x1, p1, _, _ = basics()
        x2 = PhaseExpr.coord(2, 1)
        a, b = 32767, 32762
        f = x1_power(a) * (x1 * x1 + x2 * x2).invert_coefficient() * p1
        g = x1_power(b) * p1
        fx, fp, gx, gp = f.diff_x(0), f.diff_p(0), g.diff_x(0), g.diff_p(0)
        want = (f * g + (fx * gp - fp * gx).times_ihbar().scale_fraction(
            Fraction(1, 2)) + (fx.diff_p(0) * gp.diff_x(0)).times_hbar(
            2).scale_fraction(Fraction(1, 4)))
        assert star(f, g).equals(want)

    def test_star_leaves_no_cyclic_garbage(self):
        """The half tables cached on the operands hold no reference back to
        them, and a Nambu Jacobian frees its minors on return, so with the
        cyclic collector off nothing is left for it."""
        rng = random.Random(39)
        gc.collect()
        gc.disable()
        try:
            f = rand_expr(2, rng, terms=3) * plain_denominators(2)[1]
            g = rand_expr(2, rng, terms=3)
            star(f, g)
            del f, g
            assert gc.collect() == 0
            nambu_jacobian([rand_expr(2, rng, terms=3) for _ in range(4)])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_against_sympy_moyal_series(self):
        """star, star_commutator and star_jordan against sympy's sum of the
        Moyal series, iterating the Poisson bidifferential on pairs of
        sympy expressions built with an explicit sqrt(1 - x1**2 - x2**2),
        compared at exact points of the circle."""
        sp = pytest.importorskip("sympy")
        n = 2
        xs, ps = sp.symbols("x1:3"), sp.symbols("p1:3")
        hbar = sp.Symbol("hbar")

        def series(a, b):
            total, pairs, k = a * b, [(a, b)], 0
            while pairs:
                k += 1
                new = []
                for u, v in pairs:
                    for i in range(n):
                        new.append((sp.diff(u, xs[i]), sp.diff(v, ps[i])))
                        new.append((-sp.diff(u, ps[i]), sp.diff(v, xs[i])))
                pairs = [(u, v) for u, v in new if u != 0 and v != 0]
                total += (sp.I * hbar / 2) ** k / sp.factorial(k) \
                    * sum((u * v for u, v in pairs), sp.Integer(0))
            return total

        points = sympy_points(2, 40)
        for (f, fs), (g, gs) in combinations(sympy_twins(sp), 2):
            fg, gf = series(fs, gs), series(gs, fs)
            checks = [(star(f, g), fg), (star_commutator(f, g), fg - gf),
                      (star_jordan(f, g), (fg + gf) / 2)]
            for got, want in checks:
                assert_sympy_values(sp, got, want, points, Fraction(3, 7))


class TestPoissonMoyal:
    def test_canonical_pairs(self):
        x, px, one, _ = basics()
        assert poisson(x, px).equals(one)
        assert moyal(x, px).equals(one)

    def test_so3(self):
        m = get_model("sphere:2")
        assert poisson(m.charge("Lx"), m.charge("Ly")).equals(m.charge("Lz"))
        assert poisson(m.h_classical, m.charge("Lz")).is_zero()
        assert moyal(m.charge("Lx"), m.charge("Ly")).equals(m.charge("Lz"))

    def test_classical_limits(self):
        rng = random.Random(23)
        for _ in range(10):
            f, g = rand_expr(2, rng, terms=3), rand_expr(2, rng, terms=3)
            assert star(f, g).subst_hbar_zero().equals((f * g).subst_hbar_zero())
            assert moyal(f, g).subst_hbar_zero().equals(
                poisson(f, g).subst_hbar_zero())

    def test_poisson_against_sympy(self):
        """poisson against sympy's sum of d_x f d_p g - d_p f d_x g on
        operands with s and a pole."""
        sp = pytest.importorskip("sympy")
        xs, ps = sp.symbols("x1:3"), sp.symbols("p1:3")
        points = sympy_points(2, 41)
        for (f, fs), (g, gs) in combinations(sympy_twins(sp), 2):
            want = sum((sp.diff(fs, xs[i]) * sp.diff(gs, ps[i])
                        - sp.diff(fs, ps[i]) * sp.diff(gs, xs[i])
                        for i in range(2)), sp.Integer(0))
            assert_sympy_values(sp, poisson(f, g), want, points, 0)

    def test_moyal_is_a_star_derivation(self):
        rng = random.Random(24)
        for _ in range(6):
            f = rand_expr(2, rng, pdeg=1, terms=3)
            g = rand_expr(2, rng, pdeg=1, terms=3)
            h = rand_expr(2, rng, pdeg=1, terms=3)
            lhs = moyal(f, star(g, h))
            rhs = star(moyal(f, g), h) + star(g, moyal(f, h))
            assert lhs.equals(rhs)


class TestNambu:
    def test_identity_jacobian(self):
        x, px, one, _ = basics()
        y, py = PhaseExpr.coord(2, 1), PhaseExpr.momentum(2, 1)
        assert nambu_jacobian([x, px, y, py]).equals(one)

    def test_sphere_evolution(self):
        rng = random.Random(25)
        m = get_model("sphere:2")
        for _ in range(3):
            k = rand_expr(2, rng, terms=3)
            got = nambu_jacobian([k, m.charge("Lx"), m.charge("Ly"),
                                  m.charge("Lz")])
            assert got.equals(poisson(k, m.h_classical))

    def test_hamiltonian_annihilated(self):
        m = get_model("sphere:2")
        assert nambu_jacobian([m.h_classical, m.charge("Lx"), m.charge("Ly"),
                               m.charge("Lz")]).is_zero()

    def test_antisymmetry(self):
        rng = random.Random(26)
        f = rand_expr(2, rng, terms=3)
        g = rand_expr(2, rng, terms=3)
        h = rand_expr(2, rng, terms=3)
        assert nambu_jacobian([f, f, g, h]).is_zero()
        a = nambu_jacobian([f, g, h, PhaseExpr.coord(2, 0)])
        b = nambu_jacobian([g, f, h, PhaseExpr.coord(2, 0)])
        assert (a + b).is_zero()

    def test_arity(self):
        x, px, one, _ = basics()
        with pytest.raises(ArityError):
            nambu_jacobian([x, px, one])
        with pytest.raises(ArityError):
            symplectic_trace([x, px, one])

    def test_against_sympy_determinant(self):
        """nambu_jacobian against sympy's determinant of the gradients in
        the column order (x1, p1, x2, p2), taken at each point."""
        sp = pytest.importorskip("sympy")
        xs, ps = sp.symbols("x1:3"), sp.symbols("p1:3")
        hbar = sp.Symbol("hbar")
        root = sp.sqrt(1 - xs[0] ** 2 - xs[1] ** 2)
        x1, p1 = PhaseExpr.coord(2, 0), PhaseExpr.momentum(2, 0)
        p2, s = PhaseExpr.momentum(2, 1), PhaseExpr.radical_s(2)
        twins = sympy_twins(sp) + [
            (PhaseExpr.hbar(2) * x1 * p2 + s * p1 * p1,
             hbar * xs[0] * ps[1] + root * ps[0] ** 2)]
        h = Fraction(2, 5)
        for order in ((0, 1, 2, 3), (3, 1, 0, 2)):
            entries = [twins[i] for i in order]
            got = nambu_jacobian([f for f, _ in entries])
            for pt in sympy_points(2, 42):
                grads = sp.Matrix([[sympy_at(sp, sp.diff(fs, v), pt, h)
                                    for v in (xs[0], ps[0], xs[1], ps[1])]
                                   for _, fs in entries])
                assert_sympy_values(sp, got, grads.det(), [pt], h)

    def test_products_past_16_bit_exponents_raise(self):
        x = PhaseExpr.coord(1, 0).times_hbar(40000)
        p = PhaseExpr.momentum(1, 0).times_hbar(40000)
        with pytest.raises(DomainError):
            nambu_jacobian([x, p])

    def test_trace_reduces_to_poisson(self):
        rng = random.Random(27)
        for n in (2, 3):
            f = rand_expr(n, rng, pdeg=1, xdeg=1, terms=3)
            g = rand_expr(n, rng, pdeg=1, xdeg=1, terms=3)
            assert symplectic_trace([f, g]).equals(poisson(f, g))
            assert symplectic_trace([f, f]).is_zero()

    def test_trace_matches_appended_pairs(self):
        """The trace against its definition: the Jacobians of the entries
        with N-k coordinate/momentum pairs appended in all ways, summed."""
        rng = random.Random(39)
        for n, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
            entries = [rand_expr(n, rng, pdeg=1, xdeg=1, terms=2)
                       for _ in range(2 * k)]
            want = PhaseExpr.zero(n)
            for combo in combinations(range(n), n - k):
                ext = list(entries)
                for i in combo:
                    ext += [PhaseExpr.coord(n, i), PhaseExpr.momentum(n, i)]
                want = want + nambu_jacobian(ext)
            assert symplectic_trace(entries).equals(want), (n, k)
        with pytest.raises(DimensionError):
            symplectic_trace([PhaseExpr.coord(2, 0), PhaseExpr.coord(3, 0)])


class TestBracketProducts:
    def test_canonical_values(self):
        x, px, one, _ = basics()
        y, py = PhaseExpr.coord(2, 1), PhaseExpr.momentum(2, 1)
        alg = phase_algebra(2)
        assert qnb([x, px], alg).value.equals(one.times_ihbar(1))
        got = qnb([x, px, y, py], alg)
        assert got.value.equals(PhaseExpr.hbar(2, 2).scale_fraction(-2))
        assert got.stats.nodes > 0 and got.stats.products > 0
        assert jordan([x], alg).value.equals(x)
        assert jordan([one, one], alg).value.equals(PhaseExpr.const(2, 2))

    def test_empty_raises(self):
        alg = phase_algebra(2)
        with pytest.raises(ArityError):
            qnb([], alg)
        with pytest.raises(ArityError):
            jordan([], alg)

    def test_algebra_handles_are_associative_and_unital(self):
        rng = random.Random(37)
        alg = phase_algebra(2)
        vals = [rand_expr(2, rng, pdeg=1, terms=2) for _ in range(3)]
        a, b, c = vals
        assert alg.mul(PhaseExpr.one(2), a).equals(a)
        assert alg.mul(a, PhaseExpr.one(2)).equals(a)
        assert alg.mul(alg.mul(a, b), c).equals(alg.mul(a, alg.mul(b, c)))
        malg = matrix_algebra(3)
        mats = [ExactMatrix.from_int_rows(
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            for _ in range(3)]
        a, b, c = mats
        assert malg.mul(ExactMatrix.identity(3), a) == a
        assert malg.mul(malg.mul(a, b), c) == malg.mul(a, malg.mul(b, c))

    def test_subset_recursion_matches_naive_all_k(self):
        rng = random.Random(28)
        malg = matrix_algebra(3)
        for k in range(1, 6):
            for _ in range(2):
                mats = [ExactMatrix.from_int_rows(
                    [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
                    for _ in range(k)]
                fast_q = qnb(mats, malg).value
                assert fast_q == qnb(mats, malg, naive=True).value
                assert fast_q == naive_bracket(mats)
                assert jordan(mats, malg).value == jordan(mats, malg, naive=True).value

    def test_six_bracket_cost_pinned(self):
        # k = 6: 15 pair commutators, then 6 products at each of the 15
        # four-entry subsets and 15 at the top: 120 products over
        # 1 + 15 + 15 nodes.  Products count algebra operations, so they do
        # not depend on the entries; jordan visits the same nodes.
        rng = random.Random(38)
        malg = matrix_algebra(3)
        products = {1: 0, 2: 1, 3: 6, 4: 12, 5: 45, 6: 120, 7: 343}
        for k, want in products.items():
            mats = [ExactMatrix.from_int_rows(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
                for _ in range(k)]
            nodes = 2 ** (k - 1) - 1 + k % 2
            stats = qnb(mats, malg).stats
            assert (stats.products, stats.nodes) == (want, nodes), k
            assert jordan(mats, malg).stats.nodes == nodes, k

    def test_phase_subset_matches_naive(self):
        rng = random.Random(29)
        alg = phase_algebra(2)
        vals = [rand_expr(2, rng, pdeg=1, xdeg=1, terms=2) for _ in range(4)]
        assert qnb(vals, alg).value.equals(qnb(vals, alg, naive=True).value)
        assert jordan(vals[:3], alg).value.equals(
            jordan(vals[:3], alg, naive=True).value)

    def test_antisymmetry_and_symmetry(self):
        rng = random.Random(30)
        alg = phase_algebra(2)
        a, b, c = (rand_expr(2, rng, pdeg=1, terms=2) for _ in range(3))
        assert qnb([a, a, b, c], alg).value.is_zero()
        assert jordan([a, b, c], alg).value.equals(jordan([b, a, c], alg).value)

    def test_resolution_formula(self):
        rng = random.Random(31)
        alg = phase_algebra(2)
        x, px, one, _ = basics()
        y, py = PhaseExpr.coord(2, 1), PhaseExpr.momentum(2, 1)
        got = resolve_qnb4(x, px, y, py, alg)
        assert got.equals(PhaseExpr.hbar(2, 2).scale_fraction(-2))
        a, c, d = (rand_expr(2, rng, pdeg=1, terms=2) for _ in range(3))
        assert resolve_qnb4(a, a, c, d, alg).is_zero()
        vals = [rand_expr(2, rng, pdeg=1, terms=2) for _ in range(4)]
        assert resolve_qnb4(*vals, alg).equals(qnb(vals, alg).value)
        malg = matrix_algebra(3)
        mats = [ExactMatrix.from_int_rows(
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            for _ in range(4)]
        assert resolve_qnb4(*mats, malg) == qnb(mats, malg, naive=True).value

    def test_shared_cache_consistency(self):
        rng = random.Random(32)
        alg = phase_algebra(2)
        tail = [rand_expr(2, rng, pdeg=1, terms=2) for _ in range(3)]
        cache = SubsetCache()
        a = rand_expr(2, rng, pdeg=1, terms=2)
        b = rand_expr(2, rng, pdeg=1, terms=2)
        first = qnb([a] + tail, alg, cache=cache).value
        second = qnb([b] + tail, alg, cache=cache).value
        assert first.equals(qnb([a] + tail, alg).value)
        assert second.equals(qnb([b] + tail, alg).value)

    def test_four_bracket_vs_commutator_of_casimir(self):
        m = get_model("sphere:2")
        alg = phase_algebra(2)
        rng = random.Random(33)
        lx, ly, lz = m.charge("Lx"), m.charge("Ly"), m.charge("Lz")
        casimir = star(lx, lx) + star(ly, ly) + star(lz, lz)
        a = rand_expr(2, rng, terms=3)
        lhs = qnb([a, lx, ly, lz], alg).value
        rhs = (star(a, casimir) - star(casimir, a)).times_ihbar(1)
        assert lhs.equals(rhs)

    def test_fundamental_identity_with_prefactor(self):
        rng = random.Random(34)
        for n in (1, 2):
            gs = [rand_expr(n, rng, pdeg=1, xdeg=1, terms=2)
                  for _ in range(2 * n - 1)]
            fs = [rand_expr(n, rng, pdeg=1, xdeg=1, terms=2)
                  for _ in range(2 * n)]
            vol = rand_expr(n, rng, pdeg=0, xdeg=1, terms=2)
            lhs = PhaseExpr.zero(n)
            for i in range(2 * n):
                entries = list(fs)
                entries[i] = vol * nambu_jacobian(gs + [fs[i]])
                lhs = lhs + nambu_jacobian(entries)
            rhs = nambu_jacobian(gs + [vol * nambu_jacobian(fs)])
            assert lhs.equals(rhs)

    def test_nb_leibniz(self):
        rng = random.Random(35)
        n = 2
        big_l = rand_expr(n, rng, pdeg=1, xdeg=1, terms=2)
        big_m = rand_expr(n, rng, pdeg=1, xdeg=1, terms=2)
        rest = [rand_expr(n, rng, pdeg=1, xdeg=1, terms=2) for _ in range(3)]
        k_of = big_l * big_m + big_m * big_m
        dk_dl = big_m
        dk_dm = big_l + big_m.scale_fraction(2)
        lhs = nambu_jacobian([k_of] + rest)
        rhs = dk_dl * nambu_jacobian([big_l] + rest) \
            + dk_dm * nambu_jacobian([big_m] + rest)
        assert lhs.equals(rhs)


def int_matrix(rng, dim=3):
    return ExactMatrix.from_int_rows(
        [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])


def cached(cache):
    """How many values the cache holds."""
    return len(cache._data)


class WeakMatrix(ExactMatrix):
    """An ExactMatrix that a test can watch die through a weak reference."""

    __slots__ = ("__weakref__",)


def chiral_tails(rng):
    """QN-12's and QN-13's two tails over left and right triples u and v:
    u0, u1, u2, v0, v1 and v0, v1, v2, u0, u1."""
    u = [int_matrix(rng) for _ in range(3)]
    v = [int_matrix(rng) for _ in range(3)]
    return [u + v[:2], v + u[:2]]


class TestSubsetCacheLifetime:
    """The cache shares the sub-brackets of the entries after the first and
    holds them, with their subsets, for its own lifetime."""

    def test_probe_loop_caches_only_the_tail(self):
        # k = 6: the tail's 10 pairs and 5 four-subsets; no subset that
        # holds the probe, the whole set included
        rng = random.Random(41)
        alg = matrix_algebra(3)
        tail = [int_matrix(rng) for _ in range(5)]
        cache = SubsetCache()
        for _ in range(20):
            probe = int_matrix(rng)
            qnb([probe] + tail, alg, cache=cache)
            assert cached(cache) == 15
            assert all(id(probe) not in key for key in cache._data)

    def test_live_probes_keep_only_the_tails(self):
        # each tail's 15 even subsets, less the pairs (u0, u1) and (v0, v1)
        # that both tails key alike, however many probes stay alive
        rng = random.Random(44)
        alg = matrix_algebra(3)
        tails = chiral_tails(rng)
        probes = [int_matrix(rng) for _ in range(9)]
        cache = SubsetCache()
        for probe in probes:
            for tail in tails:
                qnb([probe] + tail, alg, cache=cache)
            assert cached(cache) == 28

    def test_dropped_probe_is_freed(self):
        rng = random.Random(40)
        alg = matrix_algebra(3)
        tail = [int_matrix(rng) for _ in range(3)]
        cache = SubsetCache()
        probe = WeakMatrix([[{0: (rng.randint(-3, 3), 0, 1)} for _ in range(3)]
                            for _ in range(3)])
        qnb([probe] + tail, alg, cache=cache)
        ref = weakref.ref(probe)
        del probe
        assert ref() is None
        assert cached(cache) == 3  # the tail's three pairs
        assert cache.get(tail[:2]) is not None

    def test_reused_id_misses(self):
        # the cache keeps no first entry alive, so CPython hands a freed
        # probe's slot out again; a key's own entries stay alive with it
        rng = random.Random(42)
        alg = matrix_algebra(3)
        tail = [int_matrix(rng) for _ in range(3)]
        cache = SubsetCache()
        probe = int_matrix(rng)
        qnb([probe] + tail, alg, cache=cache)
        old = id(probe)
        del probe
        kept = []  # so that no two tries land on the same freed slot
        for _ in range(10_000):
            new = int_matrix(rng)
            if id(new) == old:
                break
            kept.append(new)
        else:
            pytest.fail("the freed id was never reused")
        got = qnb([new] + tail, alg, cache=cache).value
        assert got == qnb([new] + tail, alg).value

    def test_dropped_cache_leaves_no_garbage(self):
        rng = random.Random(43)
        n = 2
        calls = [
            (matrix_algebra(3), [int_matrix(rng) for _ in range(6)]),
            (phase_algebra(n), [rand_expr(n, rng, pdeg=1, xdeg=1, terms=2)
                                for _ in range(4)]),
        ]
        gc.collect()
        gc.disable()
        try:
            for alg, entries in calls:
                cache = SubsetCache()
                qnb(entries, alg, cache=cache)
                assert cached(cache) > 0
                del cache
                assert gc.collect() == 0
            del calls, entries
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shared_first_entry_over_two_tails(self):
        # QN-12's shape: one first entry meets each tail, twice, so the
        # second round takes every tail subset from the cache
        rng = random.Random(46)
        alg = matrix_algebra(3)
        tails = chiral_tails(rng)
        f = int_matrix(rng)
        cache = SubsetCache()
        for _ in range(2):
            for tail in tails:
                got = qnb([f] + tail, alg, cache=cache).value
                assert got == qnb([f] + tail, alg).value
