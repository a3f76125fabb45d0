import random
from fractions import Fraction

import pytest

from starnambu.gauss import (GaussRational, QI, QONE, QZERO, qadd, qdiv,
                             qfromfrac, qfromparts, qinv, qmul, qnorm,
                             qpow_i, qre, qim)


def rand_triple(rng):
    return qnorm(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(1, 12))


def to_complex(u):
    return complex(Fraction(u[0], u[2]), Fraction(u[1], u[2]))


def test_normalization():
    assert qnorm(2, 4, 6) == (1, 2, 3)
    assert qnorm(-2, 0, -4) == (1, 0, 2)
    assert qnorm(0, 0, 5) == QZERO
    with pytest.raises(ZeroDivisionError):
        qnorm(1, 0, 0)


def test_i_squares_to_minus_one():
    assert qmul(QI, QI) == (-1, 0, 1)
    assert qpow_i(0) == QONE
    assert qpow_i(2) == (-1, 0, 1)
    assert qpow_i(3) == (0, -1, 1)


def test_field_laws_random():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = rand_triple(rng), rand_triple(rng), rand_triple(rng)
        assert qadd(a, b) == qadd(b, a)
        assert qmul(a, b) == qmul(b, a)
        assert qadd(qadd(a, b), c) == qadd(a, qadd(b, c))
        assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))
        assert qmul(a, qadd(b, c)) == qadd(qmul(a, b), qmul(a, c))
        assert qadd(a, (-a[0], -a[1], a[2])) == QZERO
        if a != QZERO:
            assert qmul(a, qinv(a)) == QONE
            assert qmul(qdiv(b, a), a) == b


def test_cross_check_against_fractions():
    rng = random.Random(6)
    for _ in range(100):
        a, b = rand_triple(rng), rand_triple(rng)
        ga = GaussRational.from_triple(a)
        gb = GaussRational.from_triple(b)
        assert GaussRational.from_triple(qadd(a, b)) == ga + gb
        assert GaussRational.from_triple(qmul(a, b)) == ga * gb


def test_boundary_view():
    u = qfromparts(Fraction(3, 4), Fraction(-1, 2))
    assert qre(u) == Fraction(3, 4)
    assert qim(u) == Fraction(-1, 2)
    assert qfromfrac(Fraction(5, 10)) == (1, 0, 2)
    g = GaussRational(Fraction(1), Fraction(0))
    assert g == 1
    assert (-g).re == -1
