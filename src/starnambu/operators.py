"""Exact finite-dimensional operator realizations.

Matrices carry entries polynomial in hbar over Gaussian rationals, so every
operator identity checked here is an exact statement about hbar powers.
Realizations are integer-weight and non-unitary (holomorphic Fock sectors,
Verma-style su(2) ladders): the verified statements are algebra identities,
invariant under similarity, so unitary normalization would only introduce
square roots without adding content.

A matrix keeps only its nonzero scalars, in one ``{column: scalar}`` dict
per row i of the coefficient of hbar**k, keyed (k, i).  The Fock-sector and
su(2) ladder matrices are banded or block-diagonal, so every operation walks
the nonzeros instead of all d**2 cells (d**3 index triples for a product).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .brackets import AlgebraHandle, jordan, qnb
from .errors import DimensionError, DomainError
from .gauss import QONE, qadd, qis_zero, qmul, qnorm, qpow_i
from .phase import _poly_str
from .poly import MASK, PONE, Poly, overflow


def _checked(cells) -> dict:
    """The rows of (i, j, entry) cells given from outside, coefficients
    normalized and zero ones dropped.  DomainError unless every key is an
    hbar power 0..MASK; DivisionByZero for a zero denominator."""
    rows = {}
    for i, j, e in cells:
        if any(not 0 <= k <= MASK for k in e):
            raise DomainError(f"matrix entry key outside hbar**0..hbar**{MASK}")
        for k, c in e.items():
            if not qis_zero(q := qnorm(*c)):
                rows.setdefault((k, i), {})[j] = q
    return rows


def _add_into(rows: dict, key: Tuple[int, int], j: int, c: tuple) -> None:
    """rows[key][j] += c for a nonzero c, dropping a coefficient or row
    that cancels; DomainError when the hbar power key[0] passes MASK."""
    row = rows.get(key)
    if row is None:
        if key[0] > MASK:
            raise overflow("product")
        rows[key] = {j: c}
    elif (prev := row.get(j)) is None:
        row[j] = c
    elif qis_zero(s := qadd(prev, c)):
        del row[j]
        if not row:
            del rows[key]
    else:
        row[j] = s


class ExactMatrix:
    """Square matrix over the ring of hbar-polynomials with Gaussian
    rational coefficients.

    ``_rows`` maps (k, i) to row i of the coefficient of hbar**k, a
    ``{column: scalar}`` dict of its nonzero scalars; no row is empty.  A
    product costs one scalar product per pair of nonzeros a[p, i][m],
    b[q, m][j], added into row (p + q, i).  Rows are shared between
    matrices and never mutated; ``entry``, ``repr`` and the constructors
    speak ``Poly``.
    """

    __slots__ = ("dim", "_rows")
    __hash__ = None

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = [list(row) for row in rows]
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise DimensionError("matrix must be square")
        self.dim = dim
        self._rows = _checked((i, j, e) for i, row in enumerate(rows)
                              for j, e in enumerate(row))

    @classmethod
    def _of(cls, dim: int, rows: dict) -> "ExactMatrix":
        """Wrap rows without copying; they hold no zero scalar or empty row."""
        m = cls.__new__(cls)
        m.dim = dim
        m._rows = rows
        return m

    @classmethod
    def zeros(cls, dim: int) -> "ExactMatrix":
        return cls._of(dim, {})

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls.diagonal([PONE] * dim)

    @classmethod
    def unit(cls, dim: int, i: int, j: int, entry: Optional[Poly] = None) -> "ExactMatrix":
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexError("matrix index out of range")
        return cls._of(dim, _checked([(i, j, PONE if entry is None else entry)]))

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        return cls([[{0: (v, 0, 1)} for v in row] for row in rows])

    @classmethod
    def diagonal(cls, entries: Sequence[Poly]) -> "ExactMatrix":
        return cls._of(len(entries), _checked((i, i, e)
                                              for i, e in enumerate(entries)))

    def _check(self, other: "ExactMatrix"):
        if self.dim != other.dim:
            raise DimensionError("matrix dimensions differ")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        rows = {key: dict(row) for key, row in self._rows.items()}
        for key, row in other._rows.items():
            for j, c in row.items():
                _add_into(rows, key, j, c)
        return ExactMatrix._of(self.dim, rows)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + -other

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.dim, {
            key: {j: (-a, -b, d) for j, (a, b, d) in row.items()}
            for key, row in self._rows.items()})

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        by_row: Dict[int, list] = {}
        for (q, m), row in other._rows.items():
            by_row.setdefault(m, []).append((q, row))
        rows = {}
        for (p, i), row in self._rows.items():
            for m, a in row.items():
                for q, brow in by_row.get(m, ()):
                    key = (p + q, i)
                    for j, b in brow.items():
                        _add_into(rows, key, j, qmul(a, b))
        return ExactMatrix._of(self.dim, rows)

    def scale(self, c) -> "ExactMatrix":
        if qis_zero(c):
            return ExactMatrix.zeros(self.dim)
        return ExactMatrix._of(self.dim, {
            key: {j: qmul(v, c) for j, v in row.items()}
            for key, row in self._rows.items()})

    def scale_fraction(self, value) -> "ExactMatrix":
        f = Fraction(value)
        return self.scale((f.numerator, 0, f.denominator))

    def times_hbar(self, k: int = 1) -> "ExactMatrix":
        """Multiply by hbar**k; DomainError for k < 0 or a power past MASK."""
        if k < 0:
            raise DomainError("negative powers of hbar")
        if any(p + k > MASK for p, _ in self._rows):
            raise overflow("hbar shift")
        return ExactMatrix._of(self.dim, {(p + k, i): row for (p, i), row
                                          in self._rows.items()})

    def times_ihbar(self, k: int = 1) -> "ExactMatrix":
        """Multiply by (i*hbar)**k, checked as ``times_hbar``."""
        return self.times_hbar(k).scale(qpow_i(k))

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            return self.dim == other.dim and self._rows == other._rows
        return NotImplemented

    def entry(self, i: int, j: int) -> Poly:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("matrix index out of range")
        return {k: row[j] for (k, r), row in self._rows.items()
                if r == i and j in row}

    def __repr__(self):
        cells = sorted({(i, j) for (_, i), row in self._rows.items() for j in row})
        body = ", ".join(f"[{i},{j}]={_poly_str(self.entry(i, j), 0)[0]}"
                         for i, j in cells)
        return f"ExactMatrix({self.dim}, {body or 0})"


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def anticommutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b + b * a


def matrix_algebra(dim: int) -> AlgebraHandle:
    """The matrix ring; its symmetric product is ``*`` itself, so a fold
    makes the same matrix products whichever order it groups them in."""
    mul = lambda a, b: a * b  # noqa: E731
    return AlgebraHandle(ExactMatrix.identity(dim), mul, commutator,
                         anticommutator, mul)


def tensor(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; (a x 1) commutes with (1 x b)."""
    db = b.dim
    rows = {}
    for (p, i), row_a in a._rows.items():
        for (q, r), row_b in b._rows.items():
            key = (p + q, i * db + r)
            for j, e1 in row_a.items():
                for m, e2 in row_b.items():
                    _add_into(rows, key, j * db + m, qmul(e1, e2))
    return ExactMatrix._of(a.dim * db, rows)


def direct_sum(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    rows, off = {}, 0
    for m in mats:
        for (k, i), row in m._rows.items():
            rows[k, off + i] = {off + j: c for j, c in row.items()}
        off += m.dim
    return ExactMatrix._of(off, rows)


# -- oscillator sectors -------------------------------------------------


def _compositions(total: int, n: int) -> List[Tuple[int, ...]]:
    """The states of n oscillators with total occupation ``total``, in
    descending lexicographic order."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, n - 1):
            out.append((first,) + rest)
    return out


class SectorStack:
    """Fock sectors of n oscillators sharing one matrix space: the states
    of each total, in descending lexicographic order, sector after sector.

    All number operators act block-diagonally; probes f may mix sectors,
    which is what makes the bracket identities non-degenerate.
    """

    def __init__(self, n: int, totals: Sequence[int]):
        self.n = n
        self.totals = tuple(totals)
        if n < 1 or any(m < 0 for m in self.totals):
            raise DomainError("need n >= 1 oscillators and totals >= 0")
        if len(set(self.totals)) != len(self.totals):
            raise DomainError("sector totals must differ")
        self.states: List[Tuple[int, ...]] = [
            st for m in self.totals for st in _compositions(m, n)]
        # states are unique across sectors, whose totals differ
        self.index = {st: i for i, st in enumerate(self.states)}
        self.dim = len(self.states)


def number_matrix(stack: SectorStack, i: int, j: int) -> ExactMatrix:
    """N_ij = b_i a_j on a stack of sectors: maps a state m to
    hbar * m_j * (m - e_j + e_i).  Indices i, j are 1-based."""
    if not (1 <= i <= stack.n and 1 <= j <= stack.n):
        raise DomainError("oscillator index out of range")
    rows = {}
    for col, state in enumerate(stack.states):
        mj = state[j - 1]
        if mj == 0:
            continue
        target = list(state)
        target[j - 1] -= 1
        target[i - 1] += 1
        row = stack.index[tuple(target)]
        _add_into(rows, (1, row), col, (mj, 0, 1))
    return ExactMatrix._of(stack.dim, rows)


def total_number_matrix(stack: SectorStack) -> ExactMatrix:
    acc = ExactMatrix.zeros(stack.dim)
    for i in range(1, stack.n + 1):
        acc = acc + number_matrix(stack, i, i)
    return acc


def oscillator_bracket_entries(stack: SectorStack,
                               path: Sequence[int]) -> List[ExactMatrix]:
    """The 2n-1 invariants N_p1, N_p1p2, N_p2, ..., N_p(n-1)pn, N_pn."""
    if sorted(path) != list(range(1, stack.n + 1)):
        raise DomainError("path must be a permutation of 1..n")
    out = [number_matrix(stack, path[0], path[0])]
    for a in range(stack.n - 1):
        out.append(number_matrix(stack, path[a], path[a + 1]))
        out.append(number_matrix(stack, path[a + 1], path[a + 1]))
    return out


def oscillator_theorem_check(stack: SectorStack, f: ExactMatrix,
                             path: Sequence[int]) -> bool:
    """Check the 2n-bracket reduction onto a commutator with the total
    number operator times a symmetrized product of the off-diagonal charges:

    [f, N_p1, N_p1p2, ..., N_pn] = hbar**(n-1) {[f, Ntot], N_p1p2, ...}
                                 = hbar**(n-1) [{f, N_p1p2, ...}, Ntot].
    """
    if f.dim != stack.dim:
        raise DimensionError("probe matrix does not match the sector space")
    alg = matrix_algebra(stack.dim)
    entries = oscillator_bracket_entries(stack, path)
    lhs = qnb([f] + entries, alg).value
    ntot = total_number_matrix(stack)
    off_diag = entries[1::2]
    n = stack.n
    m1 = jordan([commutator(f, ntot)] + off_diag, alg).value.times_hbar(n - 1)
    m2 = commutator(jordan([f] + off_diag, alg).value, ntot).times_hbar(n - 1)
    return lhs == m1 and lhs == m2


def random_sector_matrix(stack: SectorStack, rng) -> ExactMatrix:
    return ExactMatrix.from_int_rows(
        [[rng.randint(-3, 3) for _ in range(stack.dim)]
         for _ in range(stack.dim)])


# -- su(2) ladders and chiral tensor realizations -----------------------


def su2_verma(two_j: int) -> Tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Integer-weight (2j+1)-dimensional realization (Lplus, Lminus, Lz):
    Lz|k> = hbar (j-k)|k>, Lminus|k> = hbar |k+1>,
    Lplus|k> = hbar k (2j+1-k) |k-1>."""
    if two_j < 0:
        raise DomainError("need a non-negative twice-spin")
    d = two_j + 1
    lz = ExactMatrix.diagonal([{1: (two_j - 2 * k, 0, 2)} for k in range(d)])
    lm = {(1, k): {k - 1: QONE} for k in range(1, d)}
    lp = {(1, k): {k + 1: ((k + 1) * (two_j - k), 0, 1)} for k in range(d - 1)}
    return ExactMatrix._of(d, lp), ExactMatrix._of(d, lm), lz


def su2_cartesian(two_j: int) -> Tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """(Lx, Ly, Lz) with [La, Lb] = i hbar eps_abc Lc."""
    lp, lm, lz = su2_verma(two_j)
    lx = (lp + lm).scale((1, 0, 2))
    ly = (lp - lm).scale((0, -1, 2))
    return lx, ly, lz


def su2_casimir(two_j: int) -> ExactMatrix:
    lx, ly, lz = su2_cartesian(two_j)
    return lx * lx + ly * ly + lz * lz


def chiral_tensor_rep(two_j: int):
    """Commuting left/right su(2) triples on the (2j+1)**2 tensor space."""
    lx, ly, lz = su2_cartesian(two_j)
    d = two_j + 1
    one = ExactMatrix.identity(d)
    left = [tensor(m, one) for m in (lx, ly, lz)]
    right = [tensor(one, m) for m in (lx, ly, lz)]
    return left, right


def chiral_block_rep(two_js: Sequence[int]):
    """Direct sum of tensor blocks: the Casimirs are no longer scalar, so
    probes crossing blocks see genuinely different left/right invariants."""
    lefts: List[List[ExactMatrix]] = [[], [], []]
    rights: List[List[ExactMatrix]] = [[], [], []]
    for two_j in two_js:
        bl, br = chiral_tensor_rep(two_j)
        for c in range(3):
            lefts[c].append(bl[c])
            rights[c].append(br[c])
    left = [direct_sum(ms) for ms in lefts]
    right = [direct_sum(ms) for ms in rights]
    return left, right


def naive_bracket(entries: Sequence[ExactMatrix]) -> ExactMatrix:
    """Direct k!-term antisymmetrized sum, kept as an oracle."""
    total = None
    idx = list(range(len(entries)))
    for perm in permutations(idx):
        inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                  if perm[i] > perm[j])
        acc = entries[perm[0]]
        for i in perm[1:]:
            acc = acc * entries[i]
        total = (acc if inv % 2 == 0 else -acc) if total is None \
            else (total + acc if inv % 2 == 0 else total - acc)
    return total
