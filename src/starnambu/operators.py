"""Exact finite-dimensional operator realizations.

Matrices carry entries polynomial in hbar over Gaussian rationals, so every
operator identity checked here is an exact statement about hbar powers.
Realizations are integer-weight and non-unitary (holomorphic Fock sectors,
Verma-style su(2) ladders): the verified statements are algebra identities,
invariant under similarity, so unitary normalization would only introduce
square roots without adding content.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .brackets import AlgebraHandle, jordan, qnb
from .errors import DimensionError, DomainError
from .gauss import qpow_i
from .poly import (PONE, Poly, padd, pconst, pmul, pneg, pscale, pshift_hbar,
                   psub)


def _hbar_entry(power: int = 1, num: int = 1, den: int = 1) -> Poly:
    from .gauss import qnorm
    if num == 0:
        return {}
    return {power: qnorm(num, 0, den)}


class ExactMatrix:
    """Square matrix over the ring of hbar-polynomials with Gaussian
    rational coefficients."""

    __slots__ = ("dim", "rows")
    __hash__ = None

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        self.rows = tuple(tuple(dict(e) for e in row) for row in rows)
        self.dim = len(self.rows)
        for row in self.rows:
            if len(row) != self.dim:
                raise DimensionError("matrix must be square")

    @classmethod
    def zeros(cls, dim: int) -> "ExactMatrix":
        return cls([[{} for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls([[dict(PONE) if i == j else {} for j in range(dim)]
                    for i in range(dim)])

    @classmethod
    def unit(cls, dim: int, i: int, j: int, entry: Optional[Poly] = None) -> "ExactMatrix":
        m = [[{} for _ in range(dim)] for _ in range(dim)]
        m[i][j] = dict(PONE) if entry is None else dict(entry)
        return cls(m)

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        return cls([[pconst((v, 0, 1)) for v in row] for row in rows])

    @classmethod
    def diagonal(cls, entries: Sequence[Poly]) -> "ExactMatrix":
        d = len(entries)
        return cls([[dict(entries[i]) if i == j else {} for j in range(d)]
                    for i in range(d)])

    def _check(self, other: "ExactMatrix"):
        if self.dim != other.dim:
            raise DimensionError("matrix dimensions differ")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return ExactMatrix([[padd(a, b) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        return ExactMatrix([[psub(a, b) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[pneg(e) for e in row] for row in self.rows])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        d = self.dim
        cols = [[other.rows[k][j] for k in range(d)] for j in range(d)]
        out = []
        for i in range(d):
            row_i = self.rows[i]
            out_row = []
            for j in range(d):
                acc: Poly = {}
                col = cols[j]
                for k in range(d):
                    a = row_i[k]
                    if not a:
                        continue
                    b = col[k]
                    if not b:
                        continue
                    acc = padd(acc, pmul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return ExactMatrix(out)

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix([[pscale(e, c) for e in row] for row in self.rows])

    def scale_fraction(self, value) -> "ExactMatrix":
        f = Fraction(value)
        return self.scale((f.numerator, 0, f.denominator))

    def times_hbar(self, k: int = 1) -> "ExactMatrix":
        return ExactMatrix([[pshift_hbar(e, 0, k) for e in row]
                            for row in self.rows])

    def times_ihbar(self, k: int = 1) -> "ExactMatrix":
        c = qpow_i(k)
        return ExactMatrix([[pscale(pshift_hbar(e, 0, k), c) for e in row]
                            for row in self.rows])

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            return self.dim == other.dim and self.rows == other.rows
        return NotImplemented

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def __repr__(self):
        from .lang import _poly_str
        cells = []
        for i, row in enumerate(self.rows):
            for j, e in enumerate(row):
                if e:
                    cells.append(f"[{i},{j}]={_poly_str(e, 0)[0]}")
        body = ", ".join(cells) if cells else "0"
        return f"ExactMatrix({self.dim}, {body})"


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return a * b - b * a


def matrix_algebra(dim: int) -> AlgebraHandle:
    return AlgebraHandle(ExactMatrix.identity(dim), lambda a, b: a * b,
                         commutator)


def tensor(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; (a x 1) commutes with (1 x b)."""
    da, db = a.dim, b.dim
    out = [[{} for _ in range(da * db)] for _ in range(da * db)]
    for i in range(da):
        for j in range(da):
            e1 = a.rows[i][j]
            if not e1:
                continue
            for k in range(db):
                for l in range(db):
                    e2 = b.rows[k][l]
                    if e2:
                        out[i * db + k][j * db + l] = pmul(e1, e2)
    return ExactMatrix(out)


def direct_sum(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    dim = sum(m.dim for m in mats)
    out = [[{} for _ in range(dim)] for _ in range(dim)]
    off = 0
    for m in mats:
        for i in range(m.dim):
            for j in range(m.dim):
                if m.rows[i][j]:
                    out[off + i][off + j] = dict(m.rows[i][j])
        off += m.dim
    return ExactMatrix(out)


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
    dim = stack.dim
    rows = [[{} for _ in range(dim)] for _ in range(dim)]
    for col, state in enumerate(stack.states):
        mj = state[j - 1]
        if mj == 0:
            continue
        target = list(state)
        target[j - 1] -= 1
        target[i - 1] += 1
        row = stack.index[tuple(target)]
        rows[row][col] = _hbar_entry(1, mj)
    return ExactMatrix(rows)


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
    lz = [[{} for _ in range(d)] for _ in range(d)]
    lp = [[{} for _ in range(d)] for _ in range(d)]
    lm = [[{} for _ in range(d)] for _ in range(d)]
    for k in range(d):
        lz[k][k] = _hbar_entry(1, two_j - 2 * k, 2)
        if k + 1 < d:
            lm[k + 1][k] = _hbar_entry(1, 1)
        if k >= 1:
            lp[k - 1][k] = _hbar_entry(1, k * (two_j + 1 - k))
    return ExactMatrix(lp), ExactMatrix(lm), ExactMatrix(lz)


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
