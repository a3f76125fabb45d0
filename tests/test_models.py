import random
from fractions import Fraction

import pytest

from starnambu import (DomainError, EvalPoint, PhaseExpr, moyal,
                       nambu_jacobian, poisson, star)
from starnambu.models import (build_chiral_s3, build_gnomonic_s3, build_sphere,
                              canonical_model_names, chiral_dreibein,
                              christoffel_correction, conservation_failures,
                              current_algebra_omega, fab, get_model,
                              half_charges, h_other, similarity_identities,
                              sphere_geometry, vielbein_current)
from tests.test_phase import rand_expr


def sphere_correction(n):
    one = PhaseExpr.one(n)
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    r = one - sum((xi * xi for xi in x), PhaseExpr.zero(n))
    return (one / r - one.scale_fraction(1 + n * (n - 1))) \
        .times_hbar(2).scale_fraction(Fraction(1, 8))


class TestSphere:
    def test_named_charges(self):
        m = get_model("sphere:2")
        x, y = PhaseExpr.coord(2, 0), PhaseExpr.coord(2, 1)
        px, py = PhaseExpr.momentum(2, 0), PhaseExpr.momentum(2, 1)
        s = PhaseExpr.radical_s(2)
        assert m.charge("Lz").equals(x * py - y * px)
        assert m.charge("Ly").equals(s * px)
        assert m.charge("Lx").equals(-(s * py))
        minus = get_model("sphere:2:-")
        assert minus.charge("Ly").equals(-(s * px))
        assert minus.charge("Lx").equals(s * py)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            build_sphere(1)
        with pytest.raises(DomainError):
            build_sphere(2, "x")
        with pytest.raises(DomainError):
            get_model("nonsense")
        # a fourth name field used to be ignored
        with pytest.raises(DomainError):
            get_model("sphere:2:-:junk")

    def test_corrections(self):
        for n in (2, 3):
            m = get_model(f"sphere:{n}")
            assert (m.h_quantum - m.h_classical).equals(sphere_correction(n))

    def test_correction_is_order_hbar2(self):
        for name in ("sphere:2", "sphere:3", "sphere:4", "chiral-s3",
                     "gnomonic-s3"):
            m = get_model(name)
            assert (m.h_quantum - m.h_classical).divisible_hbar(2)

    def test_conservation(self):
        for name in ("sphere:2", "sphere:3", "sphere:4", "chiral-s3",
                     "gnomonic-s3"):
            assert conservation_failures(get_model(name)) == []

    def test_hemisphere_flip_leaves_nambu_invariant(self):
        rng = random.Random(41)
        k = rand_expr(2, rng, terms=3)
        plus = get_model("sphere:2:+")
        minus = get_model("sphere:2:-")
        a = nambu_jacobian([k, plus.charge("Lx"), plus.charge("Ly"),
                            plus.charge("Lz")])
        b = nambu_jacobian([k, minus.charge("Lx"), minus.charge("Ly"),
                            minus.charge("Lz")])
        assert a.equals(b)

    def test_equation_of_motion_asymmetry(self):
        m = get_model("sphere:2")
        x, px = PhaseExpr.coord(2, 0), PhaseExpr.momentum(2, 0)
        assert moyal(x, m.h_quantum).equals(poisson(x, m.h_classical))
        assert not moyal(px, m.h_quantum).equals(poisson(px, m.h_classical))

    def test_ladder_and_casimir_rewrite(self):
        m = get_model("sphere:2")
        lx, ly, lz = m.charge("Lx"), m.charge("Ly"), m.charge("Lz")
        lp = lx + ly.times_i()
        lm = lx - ly.times_i()
        assert (star(lz, lp) - star(lp, lz)).equals(lp.times_hbar(1))
        casimir = star(lx, lx) + star(ly, ly) + star(lz, lz)
        assert casimir.equals(star(lp, lm) + star(lz, lz) - lz.times_hbar(1))


class TestGeometry:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("sign", ["-", "+"])
    def test_metric_from_frames(self, n, sign):
        g = sphere_geometry(n, sign)
        one = PhaseExpr.one(n)
        zero = PhaseExpr.zero(n)
        x = [PhaseExpr.coord(n, i) for i in range(n)]
        r = one - sum((xi * xi for xi in x), zero)
        for a in range(n):
            for b in range(n):
                got = sum((g.vielbein_lower[a][i] * g.vielbein_lower[b][i]
                           for i in range(n)), zero)
                want = (one if a == b else zero) + (x[a] * x[b]) / r
                assert got.equals(want)
                assert g.metric[a][b].equals(want)

    def test_h_other_requires_sphere(self):
        with pytest.raises(DomainError):
            h_other(get_model("chiral-s3"))

    def test_current_algebra(self):
        m = get_model("sphere:2")
        for j in range(2):
            for k in range(2):
                lhs = moyal(vielbein_current(m, j), vielbein_current(m, k))
                assert lhs.equals(current_algebra_omega(m, j, k))
        assert current_algebra_omega(m, 1, 1).is_zero()

    def test_h_other_formulas(self):
        for n in (2, 3):
            m = get_model(f"sphere:{n}")
            one = PhaseExpr.one(n)
            w = m.geometry.w
            diff = m.h_quantum - h_other(m)
            want = (one - w.scale_fraction(2) - one.scale_fraction(n)) \
                .scale_fraction(Fraction(n - 1, 8)).times_hbar(2)
            assert diff.equals(want)
            assert h_other(m).subst_hbar_zero().equals(m.h_classical)
            for a in range(n):
                for b in range(a + 1, n):
                    assert moyal(h_other(m), m.charge(f"L{a+1}{b+1}")).is_zero()

    def test_similarity_identities(self):
        for n in (2, 3):
            for label, lhs, rhs in similarity_identities(get_model(f"sphere:{n}")):
                assert lhs.equals(rhs), label

    def test_similarity_classical_limit(self):
        m = get_model("sphere:2")
        items = similarity_identities(m)
        label, lhs, rhs = items[0]
        assert "conjugate-left" in label
        assert lhs.subst_hbar_zero().equals(vielbein_current(m, 0))

    def test_similarity_conjugation_difference(self):
        # left minus right conjugation leaves -i hbar (N-1) V^{aj} d_a ln w
        for n in (2, 3):
            m = get_model(f"sphere:{n}")
            one = PhaseExpr.one(n)
            s = PhaseExpr.radical_s(n)
            w = m.geometry.w
            v = m.geometry.vielbein_upper
            items = similarity_identities(m)
            for j in range(n):
                _, left1, _ = items[2 * j]
                _, left2, _ = items[2 * j + 1]
                shift = PhaseExpr.zero(n)
                for a in range(n):
                    shift = shift + v[a][j] * (w.diff_x(a) * (one + s))
                want = shift.times_ihbar(1).scale_fraction(-(n - 1))
                assert (left1 - left2).equals(want)


class TestChiral:
    def test_axial_isospin(self):
        m = get_model("chiral-s3")
        s = PhaseExpr.radical_s(3)
        p = [PhaseExpr.momentum(3, i) for i in range(3)]
        for i in range(3):
            assert (m.charge(f"R{i+1}") - m.charge(f"Lch{i+1}")) \
                .scale_fraction(Fraction(1, 2)).equals(s * p[i])

    def test_left_right_commute(self):
        m = get_model("chiral-s3")
        for i in range(3):
            for j in range(3):
                assert poisson(m.charge(f"Lch{i+1}"), m.charge(f"R{j+1}")).is_zero()

    def test_correction(self):
        m = get_model("chiral-s3")
        one = PhaseExpr.one(3)
        x = [PhaseExpr.coord(3, i) for i in range(3)]
        r = one - sum((xi * xi for xi in x), PhaseExpr.zero(3))
        want = (one / r - one.scale_fraction(7)) \
            .times_hbar(2).scale_fraction(Fraction(1, 8))
        assert (m.h_quantum - m.h_classical).equals(want)

    def test_hamiltonian_equalities(self):
        m = get_model("chiral-s3")
        assert m.h_quantum.equals(m.charge("IL").scale_fraction(Fraction(1, 2)))
        assert m.h_quantum.equals(m.charge("IR").scale_fraction(Fraction(1, 2)))
        p = [PhaseExpr.momentum(3, i) for i in range(3)]
        for sign in ("+", "-"):
            v = chiral_dreibein(sign)
            total = PhaseExpr.zero(3)
            for i in range(3):
                cur = sum((p[a] * v[a][i] for a in range(3)), PhaseExpr.zero(3))
                total = total + star(cur, cur)
            assert total.scale_fraction(Fraction(1, 2)).equals(m.h_quantum)

    def test_half_charges_su2(self):
        m = get_model("chiral-s3")
        lh, rh = half_charges(m)
        comm = star(lh[0], lh[1]) - star(lh[1], lh[0])
        assert comm.equals(lh[2].times_ihbar(1))
        comm = star(rh[1], rh[2]) - star(rh[2], rh[1])
        assert comm.equals(rh[0].times_ihbar(1))

    def test_christoffel_report(self):
        report = christoffel_correction(get_model("chiral-s3"))
        assert report.holds
        assert report.structure.c_adjoint == 2
        one = PhaseExpr.one(3)
        x = [PhaseExpr.coord(3, i) for i in range(3)]
        r = one - sum((xi * xi for xi in x), PhaseExpr.zero(3))
        # Gamma g Gamma contracts to q^2/(1-q^2) for this metric
        assert report.gamma_contraction.equals(one / r - one)
        # structure constants read off as -eps and vanish at the chart origin
        assert report.structure.value(0, 1, 2) == Fraction(-1)
        with pytest.raises(DomainError):
            christoffel_correction(get_model("sphere:2"))

    def test_christoffel_vanishes_at_origin(self):
        # Levi-Civita symbols vanish at the flat point of the chart:
        # Gamma^d_ab = x_d g_ab for this metric, so the contraction with
        # one metric factor evaluates to q^2-dependent data only
        report = christoffel_correction(get_model("chiral-s3"))
        origin = EvalPoint((Fraction(0),) * 3, (Fraction(0),) * 3, Fraction(1))
        assert report.gamma_contraction.evaluate(origin, Fraction(0)).is_zero()

    def test_fab_variants(self):
        m = get_model("chiral-s3")
        cart = fab(m, 1, 1, "cartesian")
        assert cart.subst_hbar_zero().equals(
            ((m.charge("I1") + m.charge("A1"))
             * (m.charge("I1") - m.charge("A1"))).subst_hbar_zero())
        assert fab(m, 1, 2, "cartesian").equals(
            star(m.charge("R1"), m.charge("Lch2")))
        chir = fab(m, 2, 3, "chiral")
        assert chir.equals(star(m.charge("Lch2"), m.charge("R3")))
        assert moyal(m.charge("IL"), chir).is_zero()
        with pytest.raises(DomainError):
            fab(m, 0, 1)
        with pytest.raises(DomainError):
            fab(get_model("sphere:2"), 1, 1)


class TestGnomonic:
    def test_radical_free(self):
        m = get_model("gnomonic-s3")
        assert not m.radical_enabled
        assert all(c.is_polynomial for c in m.charges.values())

    def test_correction(self):
        m = get_model("gnomonic-s3")
        x = [PhaseExpr.coord(3, i) for i in range(3)]
        q2 = sum((xi * xi for xi in x), PhaseExpr.zero(3))
        want = (q2 - PhaseExpr.one(3)).times_hbar(2).scale_fraction(Fraction(3, 4))
        assert (m.h_quantum - m.h_classical).equals(want)

    def test_origin_value(self):
        m = get_model("gnomonic-s3")
        origin = EvalPoint((Fraction(0),) * 3, (Fraction(0),) * 3, Fraction(1))
        got = (m.h_quantum - m.h_classical).evaluate(origin, Fraction(1))
        assert got.re == Fraction(-3, 4) and got.im == 0


def test_registry_names():
    names = canonical_model_names()
    assert "sphere:2" in names and "chiral-s3" in names
    assert get_model("sphere:3:-").sign == "-"
    assert build_chiral_s3().kind == "chiral"
    assert build_gnomonic_s3().kind == "gnomonic"


def test_identities_hold_pointwise():
    """Cross-check symbolic equalities through exact point evaluation."""
    from starnambu import random_circle_point, star
    from starnambu.models import half_charges
    rng = random.Random(77)
    h = Fraction(3, 7)
    m2 = get_model("sphere:2")
    corr = m2.h_quantum - m2.h_classical
    one = PhaseExpr.one(2)
    x, y = PhaseExpr.coord(2, 0), PhaseExpr.coord(2, 1)
    want = ((one / (one - x * x - y * y)) - one.scale_fraction(3)) \
        .times_hbar(2).scale_fraction(Fraction(1, 8))
    for _ in range(5):
        pt = random_circle_point(2, rng)
        assert corr.evaluate(pt, h) == want.evaluate(pt, h)
    mc = get_model("chiral-s3")
    lh, rh = half_charges(mc)
    probe = star(lh[0], rh[0])
    rot = PhaseExpr.zero(3)
    for i in range(3):
        a = star(probe, lh[i]) - star(lh[i], probe)
        a = star(a, lh[i]) - star(lh[i], a)
        rot = rot + star(a, rh[2]) - star(rh[2], a)
    want = star(lh[0], rh[1]).times_hbar(3).times_i().scale_fraction(-2)
    for _ in range(3):
        pt = random_circle_point(3, rng)
        assert rot.evaluate(pt, h) == want.evaluate(pt, h)
