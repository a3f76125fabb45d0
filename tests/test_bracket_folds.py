"""The default k-products against the naive k!-term oracle.

qnb and jordan resolve their entries into commutator (anticommutator)
pairs; naive=True sums every permutation.  The two must agree exactly on
random 3x3 integer matrices for k = 1..6 and on small PhaseExprs with
n = 2 for k <= 4, signed and unsigned.  A bracket is checked alone and
with a SubsetCache shared with a second bracket that has the same tail.
A finished fold must leave nothing for the cyclic garbage collector.
"""

import gc
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from starnambu import PhaseExpr, SubsetCache, jordan, phase_algebra, qnb  # noqa: E402
from starnambu.operators import (ExactMatrix, SectorStack,  # noqa: E402
                                 matrix_algebra, oscillator_bracket_entries,
                                 random_sector_matrix)

SETTINGS = settings(max_examples=4, deadline=None, derandomize=True,
                    database=None)

N = 2


def matrices():
    cell = st.integers(-3, 3)
    return st.lists(st.lists(cell, min_size=3, max_size=3),
                    min_size=3, max_size=3).map(ExactMatrix.from_int_rows)


@st.composite
def phase_exprs(draw):
    """Up to three terms c * x_a**e * p_b**f, each times s or not."""
    out = PhaseExpr.zero(N)
    for _ in range(draw(st.integers(1, 3))):
        term = PhaseExpr.const(N, draw(st.integers(-3, 3)))
        term = term * PhaseExpr.coord(N, draw(st.integers(0, N - 1))) \
            ** draw(st.integers(0, 2))
        term = term * PhaseExpr.momentum(N, draw(st.integers(0, N - 1))) \
            ** draw(st.integers(0, 1))
        if draw(st.booleans()):
            term = term * PhaseExpr.radical_s(N)
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


@pytest.mark.parametrize("k", range(1, 5))
@SETTINGS
@given(data=st.data(), shared=st.booleans())
def test_phase_products_match_naive(k, data, shared):
    entries = data.draw(st.lists(phase_exprs(), min_size=k, max_size=k))
    check_against_naive(entries, data.draw(phase_exprs()), phase_algebra(N),
                        shared)


def test_fold_leaves_no_cyclic_garbage():
    """A finished bracket frees its subset memo at once: with the cyclic
    collector off, nothing is left for it after qnb or jordan returns."""
    rng = random.Random(5)
    stack = SectorStack(2, [1, 2])
    probe = random_sector_matrix(stack, rng)
    osc = [probe] + oscillator_bracket_entries(2, stack, [1, 2])
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
