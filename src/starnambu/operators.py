"""Exact finite-dimensional operator realizations.

Matrices carry entries polynomial in hbar over Gaussian rationals, so every
operator identity checked here is an exact statement about hbar powers.
Realizations are integer-weight and non-unitary (holomorphic Fock sectors,
Verma-style su(2) ladders): the verified statements are algebra identities,
invariant under similarity, so unitary normalization would only introduce
square roots without adding content.

A matrix keeps only its nonzero entries, one ``{column: Poly}`` dict per
row.  The Fock-sector and su(2) ladder matrices are banded or
block-diagonal, so every operation walks the nonzeros instead of all d**2
cells (d**3 index triples for a product).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .brackets import AlgebraHandle, jordan, qnb
from .errors import DimensionError, DomainError
from .gauss import qis_zero, qnorm, qpow_i
from .poly import MASK, PONE, Poly, padd, pconst, pmul, pneg, pscale, pshift_hbar


def _hbar_entry(power: int = 1, num: int = 1, den: int = 1) -> Poly:
    if num == 0:
        return {}
    return {power: qnorm(num, 0, den)}


def _checked_row(entries) -> Dict[int, Poly]:
    """The row {column: entry} of (column, entry) pairs given from outside,
    with every coefficient normalized and zero ones and entries dropped.
    DomainError unless every key is an hbar power 0..MASK, the one field of
    the n = 0 ring; DivisionByZero for a zero denominator."""
    row = {}
    for j, e in entries:
        if any(not 0 <= k <= MASK for k in e):
            raise DomainError(f"matrix entry key outside hbar**0..hbar**{MASK}")
        e = {k: q for k, c in e.items() if not qis_zero(q := qnorm(*c))}
        if e:
            row[j] = e
    return row


class ExactMatrix:
    """Square matrix over the ring of hbar-polynomials with Gaussian
    rational coefficients.

    Row i is one ``{column: Poly}`` dict that holds the nonzero entries of
    the row only, so every operation walks the nonzeros: a product costs
    one ``pmul`` per pair of nonzeros a[i][k], b[k][j].  Rows and entries
    are shared between matrices and never mutated, so ``entry`` hands out
    a copy.
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
        self._rows = tuple(_checked_row(enumerate(row)) for row in rows)

    @classmethod
    def _of(cls, dim: int, rows) -> "ExactMatrix":
        """Wrap sparse rows without copying; rows hold no zero entry."""
        m = cls.__new__(cls)
        m.dim = dim
        m._rows = tuple(rows)
        return m

    @classmethod
    def zeros(cls, dim: int) -> "ExactMatrix":
        return cls._of(dim, ({} for _ in range(dim)))

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls.diagonal([PONE] * dim)

    @classmethod
    def unit(cls, dim: int, i: int, j: int, entry: Optional[Poly] = None) -> "ExactMatrix":
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexError("matrix index out of range")
        row = _checked_row([(j, PONE if entry is None else entry)])
        return cls._of(dim, (row if r == i else {} for r in range(dim)))

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        return cls([[pconst((v, 0, 1)) for v in row] for row in rows])

    @classmethod
    def diagonal(cls, entries: Sequence[Poly]) -> "ExactMatrix":
        return cls._of(len(entries), (_checked_row([(i, e)])
                                      for i, e in enumerate(entries)))

    def _check(self, other: "ExactMatrix"):
        if self.dim != other.dim:
            raise DimensionError("matrix dimensions differ")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return ExactMatrix._of(self.dim, (_row_sum(r1, r2, False) for r1, r2
                                          in zip(self._rows, other._rows)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return ExactMatrix._of(self.dim, (_row_sum(r1, r2, True) for r1, r2
                                          in zip(self._rows, other._rows)))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of(self.dim, ({j: pneg(e) for j, e in row.items()}
                                          for row in self._rows))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        brows = other._rows
        out = []
        for row in self._rows:
            acc: Dict[int, Poly] = {}
            for k, a in row.items():
                for j, b in brows[k].items():
                    prod = pmul(a, b)
                    prev = acc.get(j)
                    acc[j] = prod if prev is None else padd(prev, prod)
            out.append({j: e for j, e in acc.items() if e})
        return ExactMatrix._of(self.dim, out)

    def scale(self, c) -> "ExactMatrix":
        if qis_zero(c):
            return ExactMatrix.zeros(self.dim)
        return ExactMatrix._of(self.dim, ({j: pscale(e, c) for j, e in row.items()}
                                          for row in self._rows))

    def scale_fraction(self, value) -> "ExactMatrix":
        f = Fraction(value)
        return self.scale((f.numerator, 0, f.denominator))

    def times_hbar(self, k: int = 1) -> "ExactMatrix":
        """Multiply by hbar**k; DomainError when k < 0 or an exponent
        would pass MASK."""
        if k < 0:
            raise DomainError("negative powers of hbar")
        return ExactMatrix._of(self.dim, ({j: pshift_hbar(e, 0, k)
                                           for j, e in row.items()}
                                          for row in self._rows))

    def times_ihbar(self, k: int = 1) -> "ExactMatrix":
        """Multiply by (i*hbar)**k, checked as ``times_hbar``."""
        return self.times_hbar(k).scale(qpow_i(k))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            return self.dim == other.dim and self._rows == other._rows
        return NotImplemented

    def entry(self, i: int, j: int) -> Poly:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("matrix index out of range")
        return dict(self._rows[i].get(j, {}))

    def __repr__(self):
        from .lang import _poly_str
        cells = [f"[{i},{j}]={_poly_str(row[j], 0)[0]}"
                 for i, row in enumerate(self._rows) for j in sorted(row)]
        body = ", ".join(cells) if cells else "0"
        return f"ExactMatrix({self.dim}, {body})"


def _row_sum(r1: Dict[int, Poly], r2: Dict[int, Poly],
             negate: bool) -> Dict[int, Poly]:
    """r1 + r2, or r1 - r2 when negate, dropping entries that cancel."""
    if not r2:
        return r1
    if not r1 and not negate:
        return r2
    out = dict(r1)
    for j, b in r2.items():
        if negate:
            b = pneg(b)
        a = out.get(j)
        if a is None:
            out[j] = b
            continue
        s = padd(a, b)
        if s:
            out[j] = s
        else:
            del out[j]
    return out


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
    out = []
    for row_a in a._rows:
        for row_b in b._rows:
            out.append({j * db + l: pmul(e1, e2)
                        for j, e1 in row_a.items() for l, e2 in row_b.items()})
    return ExactMatrix._of(a.dim * db, out)


def direct_sum(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    out = []
    for m in mats:
        off = len(out)
        out.extend({off + j: e for j, e in row.items()} for row in m._rows)
    return ExactMatrix._of(len(out), out)


# -- oscillator sectors -------------------------------------------------


class FockBasis:
    """States of n oscillators with fixed total occupation M, ordered by
    descending lexicographic multi-index."""

    def __init__(self, n: int, total: int):
        if n < 1 or total < 0:
            raise DomainError("need n >= 1 oscillators and total >= 0")
        self.n = n
        self.total = total
        self.states: List[Tuple[int, ...]] = sorted(
            _compositions(total, n), reverse=True)
        self.index: Dict[Tuple[int, ...], int] = {
            st: i for i, st in enumerate(self.states)}

    def __len__(self):
        return len(self.states)


def _compositions(total: int, n: int) -> List[Tuple[int, ...]]:
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, n - 1):
            out.append((first,) + rest)
    return out


class SectorStack:
    """Concatenated Fock sectors sharing one matrix space.

    All number operators act block-diagonally; probes f may mix sectors,
    which is what makes the bracket identities non-degenerate.
    """

    def __init__(self, n: int, totals: Sequence[int]):
        self.n = n
        self.totals = tuple(totals)
        self.bases = [FockBasis(n, m) for m in self.totals]
        self.states: List[Tuple[int, ...]] = []
        for basis in self.bases:
            self.states.extend(basis.states)
        self.index = {}
        for i, st in enumerate(self.states):
            # states are unique across sectors since totals differ
            self.index[st] = i
        self.dim = len(self.states)


def number_matrix(n: int, total, i: int, j: int) -> ExactMatrix:
    """N_ij = b_i a_j on a sector (or stack of sectors): maps a state m to
    hbar * m_j * (m - e_j + e_i).  Indices i, j are 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError("oscillator index out of range")
    stack = total if isinstance(total, SectorStack) else SectorStack(n, [total])
    rows: List[Dict[int, Poly]] = [{} for _ in range(stack.dim)]
    for col, state in enumerate(stack.states):
        mj = state[j - 1]
        if mj == 0:
            continue
        target = list(state)
        target[j - 1] -= 1
        target[i - 1] += 1
        row = stack.index[tuple(target)]
        rows[row][col] = _hbar_entry(1, mj)
    return ExactMatrix._of(stack.dim, rows)


def total_number_matrix(n: int, total) -> ExactMatrix:
    stack = total if isinstance(total, SectorStack) else SectorStack(n, [total])
    acc = ExactMatrix.zeros(stack.dim)
    for i in range(1, n + 1):
        acc = acc + number_matrix(n, stack, i, i)
    return acc


def oscillator_bracket_entries(n: int, stack: SectorStack,
                               path: Sequence[int]) -> List[ExactMatrix]:
    """The 2n-1 invariants N_p1, N_p1p2, N_p2, ..., N_p(n-1)pn, N_pn."""
    if sorted(path) != list(range(1, n + 1)):
        raise DomainError("path must be a permutation of 1..n")
    out = [number_matrix(n, stack, path[0], path[0])]
    for a in range(n - 1):
        out.append(number_matrix(n, stack, path[a], path[a + 1]))
        out.append(number_matrix(n, stack, path[a + 1], path[a + 1]))
    return out


def oscillator_theorem_check(n: int, total, f: ExactMatrix,
                             path: Sequence[int]) -> bool:
    """Check the 2n-bracket reduction onto a commutator with the total
    number operator times a symmetrized product of the off-diagonal charges:

    [f, N_p1, N_p1p2, ..., N_pn] = hbar**(n-1) {[f, Ntot], N_p1p2, ...}
                                 = hbar**(n-1) [{f, N_p1p2, ...}, Ntot].
    """
    stack = total if isinstance(total, SectorStack) else SectorStack(n, [total])
    if f.dim != stack.dim:
        raise DimensionError("probe matrix does not match the sector space")
    alg = matrix_algebra(stack.dim)
    entries = oscillator_bracket_entries(n, stack, path)
    lhs = qnb([f] + entries, alg).value
    ntot = total_number_matrix(n, stack)
    off_diag = [number_matrix(n, stack, path[a], path[a + 1])
                for a in range(n - 1)]
    m1 = jordan([commutator(f, ntot)] + off_diag, alg).value.times_hbar(n - 1)
    m2 = commutator(jordan([f] + off_diag, alg).value, ntot).times_hbar(n - 1)
    return lhs == m1 and lhs == m2


def random_sector_matrix(stack: SectorStack, rng, lo: int = -3, hi: int = 3) -> ExactMatrix:
    return ExactMatrix.from_int_rows(
        [[rng.randint(lo, hi) for _ in range(stack.dim)]
         for _ in range(stack.dim)])


# -- su(2) ladders and chiral tensor realizations -----------------------


def su2_verma(two_j: int) -> Tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Integer-weight (2j+1)-dimensional realization (Lplus, Lminus, Lz):
    Lz|k> = hbar (j-k)|k>, Lminus|k> = hbar |k+1>,
    Lplus|k> = hbar k (2j+1-k) |k-1>."""
    if two_j < 0:
        raise DomainError("need a non-negative twice-spin")
    d = two_j + 1
    lz = ExactMatrix.diagonal([_hbar_entry(1, two_j - 2 * k, 2)
                               for k in range(d)])
    lm = [{k - 1: _hbar_entry(1, 1)} if k >= 1 else {} for k in range(d)]
    lp = [{k + 1: _hbar_entry(1, (k + 1) * (two_j - k))} if k + 1 < d else {}
          for k in range(d)]
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
