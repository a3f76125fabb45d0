"""The default k-products against the naive k!-term oracle.

qnb and jordan resolve their entries into commutator (anticommutator)
pairs; naive=True sums every permutation.  The two must agree exactly on
random 3x3 integer matrices for k = 1..6 and on small PhaseExprs with
n = 2 for k <= 5, signed and unsigned.  A bracket is checked alone and
with a SubsetCache shared with a second bracket that has the same tail.
At k = 6 the phase fold is checked against the same fold over a handle
built from ``star`` alone, and the even-order star sums against star.
A finished fold must leave nothing for the cyclic garbage collector.
"""

import gc
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from starnambu import (AlgebraHandle, DomainError, PhaseExpr,  # noqa: E402
                       SubsetCache, jordan, phase_algebra, qnb, star,
                       star_anticommutator, star_jordan)
from starnambu.operators import (ExactMatrix, SectorStack,  # noqa: E402
                                 matrix_algebra, oscillator_bracket_entries,
                                 random_sector_matrix)

# No shrink phase: shrinking through star products of 5- and 6-entry
# brackets took minutes before a failure was reported.
SETTINGS = settings(max_examples=4, deadline=None, derandomize=True,
                    database=None,
                    phases=[p for p in Phase if p is not Phase.shrink])

N = 2


def matrices():
    cell = st.integers(-3, 3)
    return st.lists(st.lists(cell, min_size=3, max_size=3),
                    min_size=3, max_size=3).map(ExactMatrix.from_int_rows)


@st.composite
def phase_exprs(draw, max_terms=3, max_p=1, poles=False):
    """Up to max_terms terms c * x_a**e * p_b**f, f <= max_p, each times s
    or not and, when poles, times 1/(x1 - x2) or not."""
    pole = (PhaseExpr.coord(N, 0) - PhaseExpr.coord(N, 1)).invert_coefficient()
    out = PhaseExpr.zero(N)
    for _ in range(draw(st.integers(1, max_terms))):
        term = PhaseExpr.const(N, draw(st.integers(-3, 3)))
        term = term * PhaseExpr.coord(N, draw(st.integers(0, N - 1))) \
            ** draw(st.integers(0, 2))
        term = term * PhaseExpr.momentum(N, draw(st.integers(0, N - 1))) \
            ** draw(st.integers(0, max_p))
        if draw(st.booleans()):
            term = term * PhaseExpr.radical_s(N)
        if poles and draw(st.booleans()):
            term = term * pole
        out = out + term
    return out


def same(x, y):
    return x.equals(y) if isinstance(x, PhaseExpr) else x == y


def check_against_naive(entries, head, alg, shared):
    """qnb and jordan of entries, and qnb of [head] + entries[1:] after it
    when the cache is shared, each equal to the naive sum."""
    cache = SubsetCache() if shared else None
    brackets = [entries] + ([[head] + entries[1:]] if shared else [])
    for args in brackets:
        got = qnb(args, alg, cache=cache).value
        assert same(got, qnb(args, alg, naive=True).value), len(args)
    assert same(jordan(entries, alg).value,
                jordan(entries, alg, naive=True).value), len(entries)


@pytest.mark.parametrize("k", range(1, 7))
@SETTINGS
@given(data=st.data(), shared=st.booleans())
def test_matrix_products_match_naive(k, data, shared):
    entries = data.draw(st.lists(matrices(), min_size=k, max_size=k))
    check_against_naive(entries, data.draw(matrices()), matrix_algebra(3),
                        shared)


@pytest.mark.parametrize("k", range(1, 6))
@SETTINGS
@given(data=st.data(), shared=st.booleans())
def test_phase_products_match_naive(k, data, shared):
    # the naive sum makes (k - 1) * k! star products: keep k = 5 small
    terms = phase_exprs(max_terms=3 if k < 5 else 2)
    entries = data.draw(st.lists(terms, min_size=k, max_size=k))
    check_against_naive(entries, data.draw(terms), phase_algebra(N), shared)


def star_only_algebra():
    """The phase algebra with every product a plain star product."""
    return AlgebraHandle(star, lambda a, b: star(a, b) - star(b, a),
                         lambda a, b: star(a, b) + star(b, a), star)


@SETTINGS
@given(entries=st.lists(phase_exprs(max_terms=2), min_size=6, max_size=6))
def test_phase_six_products_match_star_only_fold(entries):
    alg, oracle = phase_algebra(N), star_only_algebra()
    assert qnb(entries, alg).value.equals(qnb(entries, oracle).value)
    assert jordan(entries, alg).value.equals(jordan(entries, oracle).value)


@SETTINGS
@given(f=phase_exprs(max_p=2, poles=True), g=phase_exprs(max_p=2, poles=True))
def test_even_order_star_sums(f, g):
    """The anticommutator is f*g + g*f and twice the Jordan product."""
    anti = star_anticommutator(f, g)
    assert anti.equals(star(f, g) + star(g, f))
    assert anti.equals(star_jordan(f, g).scale_fraction(2))


def test_even_order_star_sums_past_16_bit_exponents_raise():
    # the second-order term of p1**2 hbar**65534 and x1**2 is shifted by
    # hbar**65536, one past the 16-bit field
    f = PhaseExpr.momentum(1, 0).times_hbar(65534) \
        * PhaseExpr.momentum(1, 0)
    x = PhaseExpr.coord(1, 0) * PhaseExpr.coord(1, 0)
    for product in (star_anticommutator, star_jordan):
        with pytest.raises(DomainError):
            product(f, x)


def test_even_order_star_sums_overflow_check_is_per_field():
    # p1**2 hbar**65533 and x1**2: the hbar field of the result reaches
    # 65535 and the x and p fields 2, so nothing passes the 16-bit field
    f = PhaseExpr.momentum(1, 0).times_hbar(65533) \
        * PhaseExpr.momentum(1, 0)
    x = PhaseExpr.coord(1, 0) ** 2
    got = star_jordan(f, x)
    want = f * x - PhaseExpr.hbar(1, 65535).scale_fraction(Fraction(1, 2))
    assert got.equals(want)
    assert star_anticommutator(f, x).equals(want.scale_fraction(2))


def test_fold_leaves_no_cyclic_garbage():
    """A finished bracket frees its subset memo at once: with the cyclic
    collector off, nothing is left for it after qnb or jordan returns."""
    rng = random.Random(5)
    stack = SectorStack(2, [1, 2])
    probe = random_sector_matrix(stack, rng)
    osc = [probe] + oscillator_bracket_entries(stack, [1, 2])
    mats = [ExactMatrix.from_int_rows([[rng.randint(-3, 3) for _ in range(3)]
                                       for _ in range(3)]) for _ in range(3)]
    x, y = PhaseExpr.coord(N, 0), PhaseExpr.coord(N, 1)
    px, py = PhaseExpr.momentum(N, 0), PhaseExpr.momentum(N, 1)
    calls = [
        ("oscillator qnb", lambda: qnb(osc, matrix_algebra(stack.dim))),
        ("matrix jordan", lambda: jordan(mats, matrix_algebra(3))),
        ("phase qnb", lambda: qnb([x * px, y, py * py, x + py],
                                  phase_algebra(N))),
    ]
    gc.collect()
    gc.disable()
    try:
        for what, call in calls:
            call()
            assert gc.collect() == 0, what
    finally:
        gc.enable()
