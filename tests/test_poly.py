import random
from fractions import Fraction

import pytest

from starnambu.errors import DomainError
from starnambu.gauss import QONE, qnorm
from starnambu.poly import (FIELDS, MASK, PONE, pack, padd, pconst, pderive,
                            pdivide_ihbar, pdivmod_exact, pdrop_hbar, peval,
                            phbar, plead, pmonic, pmul, pneg, pscale,
                            pshift_hbar, psub, pvar, unpack)

try:
    from hypothesis import Phase, given, settings, strategies as st
except ImportError:  # the kernel property tests below are skipped
    st = None


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
    from starnambu.phase import poly_str
    from starnambu.operators import ExactMatrix
    p = padd(pmul(pvar(0), pvar(0)), pneg(phbar(1, 1)))
    assert poly_str(p, 1) == ("x1*x1 - hbar", False)
    m = ExactMatrix.unit(2, 0, 1, phbar(0, 2))
    assert repr(m) == "ExactMatrix(2, [0,1]=hbar*hbar)"
    m = ExactMatrix([[{0: (1, 1, 2)}, {1: (-1, 0, 1), 2: (0, -3, 4)}],
                     [{}, {0: (0, 1, 1)}]])
    assert repr(m) == ("ExactMatrix(2, [0,0]=(1/2 + 1/2*i), "
                       "[0,1]=-3/4*i*hbar*hbar - hbar, [1,1]=i)")


def test_const_zero_is_empty():
    assert pconst((0, 0, 1)) == {}


def test_exact_division_past_16_bit_exponents():
    # x1**65535*x2**2 over x2**2 + x1**2: the first remainder term is
    # x1**65537, which only a non-multiple can form
    q2 = padd(pvar(0, 2), pvar(1, 2))
    f = pmul(pvar(0, MASK), pvar(1, 2))
    assert pdivmod_exact(f, q2, 3) is None
    top = pvar(0, MASK - 2)
    assert pdivmod_exact(pmul(top, q2), q2, 3) == top


def test_packers_refuse_exponents_outside_16_bits():
    for bad in (MASK + 1, -1):
        for make in (lambda e: pack((0, e)), lambda e: pvar(1, e),
                     lambda e: phbar(2, e)):
            with pytest.raises(DomainError):
                make(bad)
    assert unpack(pack((MASK, 0, MASK)), 3) == (MASK, 0, MASK)
    # GUARD covers every field the packers admit
    with pytest.raises(DomainError):
        pvar(FIELDS)
    with pytest.raises(DomainError):
        pmul(pvar(FIELDS - 1, MASK), pvar(FIELDS - 1))


if st is None:
    def test_kernel_overflow_properties():
        pytest.skip("needs hypothesis")
else:
    NFIELDS = 3  # x1, x2, hbar

    # No shrink phase, as in test_bracket_folds.py.
    SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                        database=None,
                        phases=[p for p in Phase if p is not Phase.shrink])

    # exponents at both ends of the field and about half of MASK, so
    # that pair sums fall on either side of it
    EXPONENTS = st.one_of(st.integers(0, 2), st.integers(MASK - 2, MASK),
                          st.integers(MASK // 2 - 1, MASK // 2 + 1))

    @st.composite
    def sparse_polys(draw):
        """{exponent tuple: scalar triple} with small Gaussian rationals."""
        out = {}
        for _ in range(draw(st.integers(1, 4))):
            exps = tuple(draw(EXPONENTS) for _ in range(NFIELDS))
            c = qnorm(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)),
                      draw(st.integers(1, 3)))
            if c[:2] != (0, 0):
                out[exps] = c
        return out

    def fractions(f):
        """f with exponent tuples for keys and (re, im) Fraction pairs."""
        return {e: (Fraction(a, d), Fraction(b, d))
                for e, (a, b, d) in f.items()}

    def naive_product(f, g):
        """The product on exponent tuples, with no bound on an exponent,
        and whether some pair of terms passes MASK."""
        out, passes = {}, False
        for e1, (a1, b1) in fractions(f).items():
            for e2, (a2, b2) in fractions(g).items():
                e = tuple(u + v for u, v in zip(e1, e2))
                passes = passes or max(e) > MASK
                a, b = out.get(e, (0, 0))
                out[e] = (a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2)
        return {e: c for e, c in out.items() if c != (0, 0)}, passes

    def packed(f):
        return {pack(e): c for e, c in f.items()}

    def check_against_oracle(compute, want, passes):
        """compute() raises only when some pair passes MASK, always when a
        surviving monomial does, and otherwise equals the oracle."""
        survivor_passes = any(max(e) > MASK for e in want)
        try:
            got = compute()
        except DomainError:
            assert passes
            return
        assert not survivor_passes
        assert fractions({unpack(k, NFIELDS): c for k, c in got.items()}) \
            == want

    @SETTINGS
    @given(f=sparse_polys(), g=sparse_polys())
    def test_pmul_overflow_properties(f, g):
        want, passes = naive_product(f, g)
        check_against_oracle(lambda: pmul(packed(f), packed(g)), want, passes)

    # exponents at both ends of the field, and anywhere in it
    DIVISION_EXPONENTS = st.one_of(st.sampled_from((0, 1, 2, MASK - 1, MASK)),
                                   st.integers(0, MASK))

    def monomial_pairs(nfields):
        exps = st.tuples(*[DIVISION_EXPONENTS] * nfields)
        return st.tuples(exps, exps)

    @SETTINGS
    @given(pair=st.integers(1, 5).flatmap(monomial_pairs))
    def test_monomial_division_properties(pair):
        # one monomial divides another exactly when no field is smaller
        top, bottom = pair
        got = pdivmod_exact({pack(top): QONE}, {pack(bottom): QONE}, len(top))
        if all(u >= v for u, v in zip(top, bottom)):
            assert got == {pack(tuple(u - v for u, v in zip(top, bottom))): QONE}
        else:
            assert got is None

    @SETTINGS
    @given(f=sparse_polys(), k=EXPONENTS)
    def test_pshift_hbar_overflow_properties(f, k):
        want = {e[:-1] + (e[-1] + k,): c for e, c in fractions(f).items()}
        passes = any(e[-1] > MASK for e in want)
        check_against_oracle(lambda: pshift_hbar(packed(f), NFIELDS - 1, k),
                             want, passes)
