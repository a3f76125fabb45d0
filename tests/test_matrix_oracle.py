"""ExactMatrix against a dense triple-loop oracle.

ExactMatrix stores only the nonzero entries of each row, as integer
numerators over one denominator.  On random matrices of dimension d <= 6
with hbar-polynomial entries, Gaussian rational or all real integers (the
oscillator entries' case), at densities from diagonal and banded to full,
every operation must equal the same operation done cell by cell over
``entry``, and equal values must have equal canonical forms.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from starnambu.errors import DimensionError  # noqa: E402
from starnambu.gauss import qinv, qnorm  # noqa: E402
from starnambu.operators import (ExactMatrix, anticommutator,  # noqa: E402
                                 commutator, tensor)
from starnambu.poly import padd, pmul, pneg, pscale, pshift_hbar  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def entries(draw, integer=False):
    """Zero to two terms c * hbar**p with Gaussian rational c, or with a
    real integer c."""
    out = {}
    for _ in range(draw(st.integers(0, 2))):
        if integer:
            c = (draw(st.integers(-3, 3)), 0, 1)
        else:
            c = qnorm(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)),
                      draw(st.integers(1, 3)))
        if c[0] or c[1]:
            out = padd(out, {draw(st.integers(0, 2)): c})
    return out


@st.composite
def dense_rows(draw, d, integer=False):
    """d x d cells; the shape keeps zero cells off the diagonal, off a band
    or nowhere."""
    shape = draw(st.sampled_from(["diagonal", "banded", "full"]))
    width = draw(st.integers(1, 2))

    def kept(i, j):
        if shape == "diagonal":
            return i == j
        if shape == "banded":
            return abs(i - j) <= width
        return True

    return [[draw(entries(integer)) if kept(i, j) else {} for j in range(d)]
            for i in range(d)]


@st.composite
def pairs(draw, integer=False):
    d = draw(st.integers(1, 6))
    return d, draw(dense_rows(d, integer)), draw(dense_rows(d, integer))


KINDS = pytest.mark.parametrize("integer", [False, True],
                                ids=["gaussian", "integer"])


def cells(m):
    return [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)]


def dense_mul(a, b):
    d = len(a)
    out = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[i][j] = padd(out[i][j], pmul(a[i][k], b[k][j]))
    return out


def dense_map(f, *mats):
    return [[f(*cs) for cs in zip(*rows)] for rows in zip(*mats)]


def dense_tensor(a, b):
    db = len(b)
    return [[pmul(a[i // db][j // db], b[i % db][j % db])
             for j in range(len(a) * db)] for i in range(len(a) * db)]


def assert_matches(got, want):
    assert cells(got) == want
    assert got == ExactMatrix(want)


SCALARS = st.sampled_from([(0, 0, 1), (1, 0, 1), (-2, 1, 3), (0, 1, 1)])


@SETTINGS
@given(pairs(), st.integers(0, 3), SCALARS)
def test_operations_match_dense_oracle(pair, k, c):
    check_against_oracle(pair, k, c)


@SETTINGS
@given(pairs(integer=True), st.integers(0, 3), SCALARS)
def test_integer_operations_match_dense_oracle(pair, k, c):
    check_against_oracle(pair, k, c)


def check_against_oracle(pair, k, c):
    d, ra, rb = pair
    a, b = ExactMatrix(ra), ExactMatrix(rb)
    da, db = cells(a), cells(b)
    assert da == ra and db == rb
    ab, ba = dense_mul(da, db), dense_mul(db, da)
    assert_matches(a * b, ab)
    assert_matches(commutator(a, b),
                   dense_map(lambda x, y: padd(x, pneg(y)), ab, ba))
    assert_matches(anticommutator(a, b), dense_map(padd, ab, ba))
    assert_matches(tensor(a, b), dense_tensor(da, db))
    assert_matches(a + b, dense_map(padd, da, db))
    assert_matches(a - b, dense_map(lambda x, y: padd(x, pneg(y)), da, db))
    assert_matches(-a, dense_map(pneg, da))
    assert_matches(a.scale(c), dense_map(lambda x: pscale(x, c), da))
    assert_matches(a.times_hbar(k),
                   dense_map(lambda x: pshift_hbar(x, 0, k), da))
    zero = a * b - a * b
    assert zero.is_zero()
    assert zero == ExactMatrix.zeros(d)
    assert (a - a) == ExactMatrix.zeros(d)


@KINDS
@SETTINGS
@given(data=st.data(),
       c=st.sampled_from([(2, 0, 1), (-1, 0, 3), (3, 0, 4), (0, 1, 1),
                          (-2, 1, 3), (1, 1, 2)]))
def test_canonical_form(integer, data, c):
    # equal values have equal fields, so equality and repr agree however
    # a value was reached
    _, ra, rb = data.draw(pairs(integer))
    a, b = ExactMatrix(ra), ExactMatrix(rb)
    back = a.scale(c).scale(qinv(c))
    assert back == a
    assert repr(back) == repr(a)
    assert a * b - b * a == commutator(a, b)
    assert repr(a * b - b * a) == repr(commutator(a, b))
    assert a * b + b * a == anticommutator(a, b)


@SETTINGS
@given(pairs())
def test_explicit_zeros_equal_sparse_build(pair):
    d, rows, _ = pair
    sparse = ExactMatrix.zeros(d)
    for i in range(d):
        for j in range(d):
            if rows[i][j]:
                sparse = sparse + ExactMatrix.unit(d, i, j, rows[i][j])
    assert ExactMatrix(rows) == sparse
    assert ExactMatrix(rows).is_zero() == all(not e for r in rows for e in r)


@SETTINGS
@given(st.integers(1, 6), st.data())
def test_non_square_input_raises(d, data):
    lengths = data.draw(st.lists(st.integers(0, 7), min_size=d, max_size=d)
                        .filter(lambda ls: any(n != d for n in ls)))
    with pytest.raises(DimensionError):
        ExactMatrix([[{} for _ in range(n)] for n in lengths])
