import random
from fractions import Fraction

import pytest

from starnambu import qnb
from starnambu.errors import DimensionError, DivisionByZero, DomainError
from starnambu.operators import (ExactMatrix, SectorStack,
                                 chiral_block_rep, commutator, direct_sum,
                                 matrix_algebra, naive_bracket, number_matrix,
                                 oscillator_bracket_entries,
                                 oscillator_theorem_check,
                                 random_sector_matrix, su2_cartesian,
                                 su2_casimir, su2_verma, tensor,
                                 total_number_matrix)


def reduction(stack, f, path):
    """The 2n-bracket, asserted equal to both halved forms."""
    lhs, m1, m2 = oscillator_theorem_check(stack, f, path)
    assert lhs == m1
    assert lhs == m2
    return lhs


def rand_matrix(rng, d):
    return ExactMatrix.from_int_rows(
        [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])


class TestMatrixRing:
    def test_ring_laws(self):
        rng = random.Random(51)
        for _ in range(10):
            a, b, c = (rand_matrix(rng, 3) for _ in range(3))
            assert (a + b) == (b + a)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()

    def test_commutator_is_a_derivation(self):
        rng = random.Random(52)
        a, b, c = (rand_matrix(rng, 3) for _ in range(3))
        assert commutator(a, b * c) == commutator(a, b) * c + b * commutator(a, c)

    def test_square_required(self):
        with pytest.raises(DimensionError):
            ExactMatrix([[{}, {}], [{}]])
        with pytest.raises(DimensionError):
            ExactMatrix.identity(2) + ExactMatrix.identity(3)

    def test_entry_is_a_copy(self):
        eye = ExactMatrix.identity(2)
        total = eye + ExactMatrix.zeros(2)
        total.entry(0, 0)[1] = (1, 0, 1)
        assert eye == total == ExactMatrix.identity(2)
        with pytest.raises(IndexError):
            eye.entry(0, 2)

    def test_hbar_scaling(self):
        eye = ExactMatrix.identity(2)
        assert eye.times_ihbar(2) == eye.times_hbar(2).scale((-1, 0, 1))

    def test_negative_hbar_power_raises(self):
        # times_hbar(-1) used to store the entry {-1: 1}, printed as hbar
        # multiplied by itself 65535 times
        eye = ExactMatrix.identity(2)
        for shift in (eye.times_hbar, eye.times_ihbar):
            with pytest.raises(DomainError):
                shift(-1)

    def test_hbar_degree_past_16_bits_raises(self):
        # times_hbar(70000) used to store the key 70000, past the field
        eye = ExactMatrix.identity(2)
        top = eye.times_hbar(65535)
        assert top.entry(1, 1) == {65535: (1, 0, 1)}
        for shift in (eye.times_hbar, eye.times_ihbar):
            with pytest.raises(DomainError):
                shift(70000)
        with pytest.raises(DomainError):
            top.times_hbar(1)
        assert ExactMatrix.zeros(2).times_hbar(65535).is_zero()

    def test_products_past_16_bits_raise(self):
        eye = ExactMatrix.identity(2)
        top = eye.times_hbar(65535)
        with pytest.raises(DomainError):
            top * eye.times_hbar(1)
        with pytest.raises(DomainError):
            tensor(top, eye.times_hbar(1))
        assert top * eye == top
        assert tensor(top, eye) == ExactMatrix.identity(4).times_hbar(65535)
        # a zero matrix holds no power of hbar, however far it is shifted
        zero = ExactMatrix.zeros(2).times_hbar(65535).times_hbar(1)
        assert (top * zero).is_zero() and (zero * top).is_zero()
        assert tensor(top, zero).is_zero()

    def test_i_squared_carry_at_the_top_hbar_power(self):
        # i*hbar**65535 times i is -hbar**65535: the carry of i*i brings
        # the product back under the top power, while i*hbar**65535
        # squared passes it
        eye = ExactMatrix.identity(2)
        top = eye.times_hbar(65535).scale((0, 1, 1))
        assert top * eye.scale((0, 1, 1)) == -eye.times_hbar(65535)
        with pytest.raises(DomainError):
            top * top
        with pytest.raises(DomainError):
            top.times_hbar(1)
        assert tensor(top, eye) == \
            ExactMatrix.identity(4).times_hbar(65535).scale((0, 1, 1))

    def test_mixed_power_repr_pinned(self):
        m = ExactMatrix([[{0: (1, 0, 2), 2: (0, 1, 1)}, {}],
                         [{1: (-3, 0, 1)}, {0: (2, 1, 3)}]])
        assert repr(m) == ("ExactMatrix(2, [0,0]=i*hbar*hbar + (1/2), "
                           "[1,0]=-3*hbar, [1,1]=(2/3 + 1/3*i))")
        assert m.entry(0, 0) == {0: (1, 0, 2), 2: (0, 1, 1)}

    def test_entry_keys_outside_the_hbar_field_raise(self):
        # a key in the next field, {1 << 17: 1}, printed as 1 yet compared
        # unequal to 1, and the key 65539 printed as hbar*hbar*hbar
        for bad in ({1 << 17: (1, 0, 1)}, {65539: (1, 0, 1)},
                    {-1: (1, 0, 1)}):
            with pytest.raises(DomainError):
                ExactMatrix.unit(2, 0, 1, bad)
            with pytest.raises(DomainError):
                ExactMatrix.diagonal([{0: (1, 0, 1)}, bad])
            with pytest.raises(DomainError):
                ExactMatrix([[{}, bad], [{}, {}]])
        top = {65535: (2, 0, 1)}
        assert ExactMatrix.unit(2, 0, 1, top) == ExactMatrix(
            [[{}, top], [{}, {}]])
        assert ExactMatrix.diagonal([top, {}]).entry(0, 0) == top

    def test_entry_coefficients_are_normalized(self):
        # (2, 0, 4) and (1, 0, 2) both printed as 1/2 but compared unequal,
        # and a zero coefficient was stored and printed as [0,0]=0
        half = ExactMatrix.unit(2, 0, 1, {0: (1, 0, 2)})
        for m in (ExactMatrix.unit(2, 0, 1, {0: (2, 0, 4)}),
                  ExactMatrix([[{}, {0: (-2, 0, -4)}], [{}, {}]])):
            assert m == half and repr(m) == repr(half)
        one = ExactMatrix.diagonal([{}, {0: (1, 0, 1)}])
        for m in (ExactMatrix.diagonal([{0: (0, 0, 3)}, {0: (1, 0, 1)}]),
                  ExactMatrix([[{0: (0, 0, 3)}, {}], [{}, {0: (3, 0, 3)}]])):
            assert m == one and repr(m) == repr(one) == "ExactMatrix(2, [1,1]=1)"
        assert ExactMatrix.unit(2, 0, 1, {0: (0, 0, 5)}).is_zero()
        for bad in ({0: (1, 0, 0)}, {2: (0, 0, 0)}):
            with pytest.raises(DivisionByZero):
                ExactMatrix.unit(2, 0, 1, bad)
            with pytest.raises(DivisionByZero):
                ExactMatrix.diagonal([bad, {}])
            with pytest.raises(DivisionByZero):
                ExactMatrix([[{}, bad], [{}, {}]])


class TestFock:
    def test_basis_ordering(self):
        assert SectorStack(2, [1]).states == [(1, 0), (0, 1)]
        stack = SectorStack(3, [2])
        assert stack.states[0] == (2, 0, 0)
        assert stack.dim == 6
        # each sector in descending lexicographic order, in the given order
        assert SectorStack(2, [1, 0]).states == [(1, 0), (0, 1), (0, 0)]

    def test_bad_sectors_refused(self):
        with pytest.raises(DomainError):
            SectorStack(0, [1])
        with pytest.raises(DomainError):
            SectorStack(2, [-1])

    def test_number_matrix_action(self):
        stack = SectorStack(2, [1])
        n12 = number_matrix(stack, 1, 2)
        assert n12.entry(0, 1) == {1: (1, 0, 1)}
        n11 = number_matrix(stack, 1, 1)
        assert n11 == ExactMatrix.diagonal([{1: (1, 0, 1)}, {}])
        with pytest.raises(DomainError):
            number_matrix(stack, 0, 1)
        with pytest.raises(DomainError):
            number_matrix(stack, stack.n + 1, 1)

    def test_sector_label(self):
        stack = SectorStack(2, [3])
        want = ExactMatrix.identity(stack.dim).times_hbar(1).scale_fraction(3)
        assert total_number_matrix(stack) == want

    def test_probe_of_other_dimension_refused(self):
        stack = SectorStack(2, [1, 2])
        with pytest.raises(DimensionError):
            oscillator_theorem_check(stack, ExactMatrix.identity(stack.dim + 1),
                                     [1, 2])

    def test_repeated_totals_refused(self):
        # a repeated sector would index its states twice, and the number
        # operators would map the first copy into the second
        with pytest.raises(DomainError):
            SectorStack(2, [1, 1])
        with pytest.raises(DomainError):
            SectorStack(3, [2, 1, 2])

    def test_single_sector_brackets_vanish(self):
        # every entry conserves the total number, so on one sector the
        # whole 2n-bracket collapses to zero on both sides
        rng = random.Random(53)
        stack = SectorStack(2, [2])
        f = random_sector_matrix(stack, rng)
        assert reduction(stack, f, [1, 2]).is_zero()

    def test_theorem_on_stacked_sectors(self):
        rng = random.Random(54)
        for n, total in ((2, 1), (2, 2), (3, 1)):
            stack = SectorStack(n, [total, total + 1])
            path = list(range(1, n + 1))
            for _ in range(3):
                f = random_sector_matrix(stack, rng)
                probe = reduction(stack, f, path)
        assert not probe.is_zero()

    def test_permuted_paths(self):
        rng = random.Random(55)
        stack = SectorStack(3, [1, 2])
        for path in ([2, 3, 1], [3, 1, 2]):
            f = random_sector_matrix(stack, rng)
            reduction(stack, f, path)
        with pytest.raises(DomainError):
            oscillator_bracket_entries(stack, [1, 1, 2])

    def test_leibniz_failure_witness(self):
        rng = random.Random(56)
        stack = SectorStack(2, [1, 2])
        alg = matrix_algebra(stack.dim)
        entries = oscillator_bracket_entries(stack, [1, 2])
        found = False
        for _ in range(12):
            f = random_sector_matrix(stack, rng)
            g = random_sector_matrix(stack, rng)
            lhs = qnb([f * g] + entries, alg).value
            rhs = f * qnb([g] + entries, alg).value \
                + qnb([f] + entries, alg).value * g
            if lhs != rhs:
                found = True
                break
        assert found


class TestSu2:
    def test_commutation(self):
        for two_j in (1, 2, 3):
            lp, lm, lz = su2_verma(two_j)
            assert commutator(lp, lm) == lz.times_hbar(1).scale_fraction(2)
            assert commutator(lz, lp) == lp.times_hbar(1)
            assert commutator(lz, lm) == -(lm.times_hbar(1))
            lx, ly, lz = su2_cartesian(two_j)
            assert commutator(lx, ly) == lz.times_ihbar(1)

    def test_casimir_values(self):
        assert su2_casimir(1) == ExactMatrix.identity(2).times_hbar(2) \
            .scale_fraction(Fraction(3, 4))
        assert su2_casimir(2) == ExactMatrix.identity(3).times_hbar(2) \
            .scale_fraction(2)

    def test_tensor_product(self):
        rng = random.Random(57)
        a = rand_matrix(rng, 2)
        b = rand_matrix(rng, 3)
        eye2, eye3 = ExactMatrix.identity(2), ExactMatrix.identity(3)
        assert tensor(eye2, b) * tensor(a, eye3) == tensor(a, b)
        left = tensor(a, eye3)
        right = tensor(eye2, b)
        assert commutator(left, right).is_zero()

    def test_block_rep_shapes(self):
        left, right = chiral_block_rep([0, 1])
        assert left[0].dim == 1 + 4
        assert commutator(left[0], right[1]).is_zero()
        stacked = direct_sum([ExactMatrix.identity(2), ExactMatrix.identity(3)])
        assert stacked == ExactMatrix.identity(5)

    def test_naive_bracket_oracle(self):
        rng = random.Random(58)
        mats = [rand_matrix(rng, 2) for _ in range(3)]
        alg = matrix_algebra(2)
        assert naive_bracket(mats) == qnb(mats, alg).value
