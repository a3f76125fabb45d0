"""Reduction invariant of the coefficient field.

After rmul, rmake and rderive, and in every output coefficient of star and
star_commutator, a denominator factor that is still present does not
divide both numerators: no factor f of D, rbar and q2 included, divides
both A and B.  n = 1 covers the reducible rbar = (x1 - 1)(x1 + 1).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from starnambu import PhaseExpr, star, star_commutator  # noqa: E402
from starnambu.gauss import qnorm  # noqa: E402
from starnambu.poly import PONE, pack, padd, pdivmod_exact, pmul  # noqa: E402
from starnambu.radical import (q2_poly, radd, rbar_poly, rderive,  # noqa: E402
                               requal, rfrom_poly, rmake, rmul, rs_coeff)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def _divides(factor, p, n):
    return pdivmod_exact(p, factor, n + 1) is not None


def assert_reduced(u, n):
    a, b, den = u
    for factor, _ in den:
        f = dict(factor)
        assert not (_divides(f, a, n) and _divides(f, b, n)), u


def _power(p, k):
    out = dict(PONE)
    for _ in range(k):
        out = pmul(out, p)
    return out


@st.composite
def polys(draw, n, max_terms=3):
    """A small polynomial in x_1..x_n and hbar with Gaussian-rational
    coefficients."""
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
        exps += (draw(st.integers(0, 1)),)
        c = qnorm(draw(st.integers(-3, 3)), draw(st.integers(-1, 1)),
                  draw(st.integers(1, 2)))
        if c[0] or c[1]:
            out = padd(out, {pack(exps): c})
    return out


@st.composite
def raw_parts(draw, n):
    """Numerators sharing a multiple of rbar and q2, over a denominator
    rbar**i * q2**j * extra, so that some but not all factors cancel."""
    common = pmul(_power(rbar_poly(n), draw(st.integers(0, 2))),
                  _power(q2_poly(n), draw(st.integers(0, 1))))
    a = pmul(draw(polys(n)), common)
    b = pmul(draw(polys(n, max_terms=2)), common)
    den = pmul(_power(rbar_poly(n), draw(st.integers(0, 2))),
               _power(q2_poly(n), draw(st.integers(0, 2))))
    extra = draw(st.sampled_from(("one", "shift", "scale")))
    if extra == "shift":
        den = pmul(den, {pack((1,) + (0,) * n): (1, 0, 1), 0: (2, 0, 1)})
    elif extra == "scale":
        den = pmul(den, {0: (-2, 0, 3)})
    return a, b, den


@st.composite
def coefficients(draw, n):
    return rmake(*draw(raw_parts(n)), n)


@st.composite
def phase_exprs(draw, n):
    """Up to three momentum monomials of degree at most 2."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * n
        for _ in range(draw(st.integers(0, 2))):
            exps[draw(st.integers(0, n - 1))] += 1
        terms[pack(tuple(exps))] = draw(coefficients(n))
    return PhaseExpr(n, terms)


dims = st.integers(1, 3)


@SETTINGS
@given(st.data())
def test_rmake_leaves_no_removable_factor(data):
    n = data.draw(dims)
    a, b, den = data.draw(raw_parts(n))
    u = rmake(a, b, den, n)
    assert_reduced(u, n)
    # u*den == a + b*s, checked without reading the representation
    value = radd(rfrom_poly(a), rmul(rfrom_poly(b), rs_coeff(), n), n)
    assert requal(rmul(u, rfrom_poly(den), n), value, n)


@SETTINGS
@given(st.data())
def test_rmul_leaves_no_removable_factor(data):
    n = data.draw(dims)
    u = data.draw(coefficients(n))
    v = data.draw(coefficients(n))
    assert_reduced(rmul(u, v, n), n)


@SETTINGS
@given(st.data())
def test_rderive_leaves_no_removable_factor(data):
    n = data.draw(dims)
    u = data.draw(coefficients(n))
    index = data.draw(st.integers(0, n - 1))
    assert_reduced(rderive(u, index, n), n)


@SETTINGS
@given(st.data())
def test_star_outputs_leave_no_removable_factor(data):
    n = data.draw(dims)
    f = data.draw(phase_exprs(n))
    g = data.draw(phase_exprs(n))
    for out in (star(f, g), star_commutator(f, g)):
        for c in out.terms.values():
            assert_reduced(c, n)
