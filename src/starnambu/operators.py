"""Exact finite-dimensional operator realizations.

Matrices carry entries polynomial in hbar over Gaussian rationals, so every
operator identity checked here is an exact statement about hbar powers.
Realizations are integer-weight and non-unitary (holomorphic Fock sectors,
Verma-style su(2) ladders): the verified statements are algebra identities,
invariant under similarity, so unitary normalization would only introduce
square roots without adding content.

A matrix is stored fraction-free: one positive integer denominator D, and
D times the matrix as integer rows, one ``{column: int}`` dict per row i of
the coefficient of hbar**k, keyed (k, i), for the real part, plus rows of
the same shape for the imaginary part where it is nonzero.  The form is
canonical (D and the numerators have no common factor, no entry is zero,
no row is empty), so equal matrices have equal fields.  The Fock-sector and
su(2) ladder matrices are banded or block-diagonal, so every operation walks
the nonzeros instead of all d**2 cells (d**3 index triples for a product).
Every matrix product goes through one kernel, ``_addmul``, whose inner
loop is integer arithmetic; a commutator or anticommutator adds both
orders into one accumulator, and ``tensor`` splits into real products the
same way.  Gaussian-rational triples appear only at the boundary: the
``Poly`` constructors, ``entry``, ``repr`` and ``scale``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, permutations
from math import gcd
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .brackets import AlgebraHandle, jordan, qnb
from .errors import DimensionError, DomainError
from .gauss import qnorm, qpow_i
from .phase import poly_str
from .poly import MASK, Poly, overflow


def _addmul(re: dict, im: dict, c: int, x: "ExactMatrix",
            y: "ExactMatrix") -> None:
    """re + i*im += c * (numerators of x) * (numerators of y), so the sum is
    over the denominator x._den * y._den; DomainError when an hbar power
    passes MASK.  Each pair of nonzeros x[p, i][m], y[q, m][j] adds one
    integer product into row (p + q, i); the imaginary sub-products are
    skipped when x or y has no imaginary part."""
    for out, c, xrows, by_row in _subproducts(re, im, c, x._re, x._im,
                                              *y._by_row()):
        if not (xrows and by_row):
            continue
        for (p, i), row in xrows.items():
            for m, a in row.items():
                ys = by_row.get(m)
                if ys is None:
                    continue
                a *= c
                for q, yrow in ys:
                    key = (p + q, i)
                    acc = out.get(key)
                    if acc is None:
                        if p + q > MASK:
                            raise overflow("product")
                        out[key] = acc = {}
                        for j, b in yrow.items():
                            acc[j] = a * b
                    else:
                        get = acc.get
                        for j, b in yrow.items():
                            acc[j] = get(j, 0) + a * b


def _subproducts(re: dict, im: dict, c: int, xre, xim, yre, yim) -> tuple:
    """The real products that make up c * (xre + i*xim) * (yre + i*yim), as
    (accumulator, sign, x part, y part); without an imaginary part, one."""
    if not (xim or yim):
        return ((re, c, xre, yre),)
    return ((re, c, xre, yre), (im, c, xre, yim), (im, c, xim, yre),
            (re, -c, xim, yim))


# Rows are built by explicit loops: on CPython 3.11 a dict comprehension
# is a function call, which costs more than the loop on a row of a few
# entries.

def _times(row: dict, c: int) -> dict:
    new = {}
    for j, v in row.items():
        new[j] = c * v
    return new


def _scaled(rows: dict, c: int) -> dict:
    """c * rows as a new dict, which shares its rows when c == 1."""
    if c == 1:
        return dict(rows)
    out = {}
    for key, row in rows.items():
        out[key] = _times(row, c)
    return out


def _divided(rows: dict, g: int) -> dict:
    out = {}
    for key, row in rows.items():
        out[key] = new = {}
        for j, v in row.items():
            new[j] = v // g
    return out


def _addrows(out: dict, c: int, rows: dict) -> None:
    """out += c * rows, dropping entries and rows that cancel.  A row of out
    is replaced, never written to, so out may share rows with operands."""
    for key, row in rows.items():
        prev = out.get(key)
        if prev is None:
            out[key] = row if c == 1 else _times(row, c)
            continue
        prev = dict(prev)
        get = prev.get
        for j, v in row.items():
            if s := get(j, 0) + c * v:
                prev[j] = s
            else:
                del prev[j]
        if prev:
            out[key] = prev
        else:
            del out[key]


def _drop_zeros(rows: dict) -> dict:
    """rows, an accumulator, with its zero entries and empty rows deleted."""
    empty = []
    for key, row in rows.items():
        if 0 in row.values():
            for j in [j for j, v in row.items() if not v]:
                del row[j]
            if not row:
                empty.append(key)
    for key in empty:
        del rows[key]
    return rows


def _grouped(rows: dict) -> dict:
    out: dict = {}
    for (k, i), row in rows.items():
        out.setdefault(i, []).append((k, row))
    return out


def _canonical(dim: int, den: int, re: dict, im: dict) -> "ExactMatrix":
    """The matrix (re + i*im)/den of accumulated rows, for den > 0, in
    canonical form."""
    return _reduced(dim, den, _drop_zeros(re), _drop_zeros(im) if im else im)


def _reduced(dim: int, den: int, re: dict, im: dict) -> "ExactMatrix":
    """The matrix (re + i*im)/den of rows with no zero entry or empty row,
    its numerators and den divided by their common factor."""
    if den > 1:
        g = den
        for row in chain(re.values(), im.values()):
            g = gcd(g, *row.values())
            if g == 1:
                break
        if g > 1:
            # g == den when no entry is left
            den //= g
            re, im = _divided(re, g), _divided(im, g)
    return _matrix(dim, den, re, im)


def _matrix(dim: int, den: int, re: dict, im: dict) -> "ExactMatrix":
    """Wrap canonical rows without copying."""
    m = object.__new__(ExactMatrix)
    m.dim, m._den, m._re, m._im, m._index = dim, den, re, im, None
    return m


def _from_cells(dim: int, cells) -> "ExactMatrix":
    """The matrix of (i, j, entry) cells given from outside, each cell once.
    DomainError unless every key is an hbar power 0..MASK; DivisionByZero
    for a zero denominator."""
    terms, den = [], 1
    for i, j, e in cells:
        for k, c in e.items():
            if not 0 <= k <= MASK:
                raise DomainError(
                    f"matrix entry key outside hbar**0..hbar**{MASK}")
            a, b, d = qnorm(*c)
            if a or b:
                terms.append((k, i, j, a, b, d))
                if d != den:
                    den = den * d // gcd(den, d)
    re: dict = {}
    im: dict = {}
    for k, i, j, a, b, d in terms:
        if a:
            re.setdefault((k, i), {})[j] = a * (den // d)
        if b:
            im.setdefault((k, i), {})[j] = b * (den // d)
    # den is the lcm of reduced denominators, so the form is canonical
    return _matrix(dim, den, re, im)


class ExactMatrix:
    """Square matrix over the ring of hbar-polynomials with Gaussian
    rational coefficients.

    The value is (``_re`` + i ``_im``) / ``_den``: ``_re`` and ``_im`` map
    (k, i) to row i of the coefficient of hbar**k, a ``{column: int}`` dict
    of its nonzero numerators; no row is empty, and the numerators and
    ``_den`` have no common factor.  A product costs one integer product
    per pair of nonzeros a[p, i][m], b[q, m][j], added into row (p + q, i).
    Rows are shared between matrices and never mutated; ``_index`` is
    a view of them grouped by row, kept once built.  ``entry``, ``repr``
    and the constructors speak ``Poly``.
    """

    __slots__ = ("dim", "_den", "_re", "_im", "_index", "__weakref__")
    __hash__ = None

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = [list(row) for row in rows]
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise DimensionError("matrix must be square")
        m = _from_cells(dim, ((i, j, e) for i, row in enumerate(rows)
                              for j, e in enumerate(row)))
        self.dim, self._den, self._re, self._im = dim, m._den, m._re, m._im
        self._index = None

    def _by_row(self) -> tuple:
        """The real and imaginary rows as {i: [(k, row), ...]}, built the
        first time the matrix is a right factor or a cell is read."""
        index = self._index
        if index is None:
            im = self._im
            index = self._index = (_grouped(self._re),
                                   _grouped(im) if im else im)
        return index

    @classmethod
    def zeros(cls, dim: int) -> "ExactMatrix":
        return _matrix(dim, 1, {}, {})

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return _matrix(dim, 1, {(0, i): {i: 1} for i in range(dim)}, {})

    @classmethod
    def unit(cls, dim: int, i: int, j: int, entry: Optional[Poly] = None) -> "ExactMatrix":
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexError("matrix index out of range")
        if entry is None:
            return _matrix(dim, 1, {(0, i): {j: 1}}, {})
        return _from_cells(dim, [(i, j, entry)])

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise DimensionError("matrix must be square")
        return _matrix(dim, 1, {(0, i): r for i, row in enumerate(rows)
                                if (r := {j: v for j, v in enumerate(row) if v})},
                       {})

    @classmethod
    def diagonal(cls, entries: Sequence[Poly]) -> "ExactMatrix":
        return _from_cells(len(entries), ((i, i, e) for i, e in enumerate(entries)))

    def _check(self, other: "ExactMatrix"):
        if self.dim != other.dim:
            raise DimensionError("matrix dimensions differ")

    def _plus(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        da, db = self._den, other._den
        if da == db:
            den, ca, cb = da, 1, sign
        else:
            den = da // gcd(da, db) * db
            ca, cb = den // da, sign * (den // db)
        re = _scaled(self._re, ca)
        _addrows(re, cb, other._re)
        im = self._im
        if im or other._im:
            im = _scaled(im, ca)
            _addrows(im, cb, other._im)
        return _reduced(self.dim, den, re, im)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "ExactMatrix":
        im = self._im
        return _matrix(self.dim, self._den, _scaled(self._re, -1),
                       _scaled(im, -1) if im else im)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        re, im = {}, {}
        _addmul(re, im, 1, self, other)
        return _canonical(self.dim, self._den * other._den, re, im)

    def scale(self, c) -> "ExactMatrix":
        """Multiply by the Gaussian rational triple c."""
        a, b, d = qnorm(*c)
        if not (a or b):
            return ExactMatrix.zeros(self.dim)
        if b == 0:
            re, im = _scaled(self._re, a), _scaled(self._im, a)
        else:
            # (re + i im)(a + i b) = (a re - b im) + i (a im + b re)
            re, im = _scaled(self._im, -b), _scaled(self._re, b)
            if a:
                _addrows(re, a, self._re)
                _addrows(im, a, self._im)
        return _reduced(self.dim, self._den * d, re, im)

    def scale_fraction(self, value) -> "ExactMatrix":
        f = Fraction(value)
        return self.scale((f.numerator, 0, f.denominator))

    def times_hbar(self, k: int = 1) -> "ExactMatrix":
        """Multiply by hbar**k; DomainError for k < 0 or a power past MASK."""
        if k < 0:
            raise DomainError("negative powers of hbar")
        if any(p + k > MASK for rows in (self._re, self._im) for p, _ in rows):
            raise overflow("hbar shift")
        return _matrix(self.dim, self._den, *(
            {(p + k, i): row for (p, i), row in rows.items()}
            for rows in (self._re, self._im)))

    def times_ihbar(self, k: int = 1) -> "ExactMatrix":
        """Multiply by (i*hbar)**k, checked as ``times_hbar``."""
        return self.times_hbar(k).scale(qpow_i(k))

    def is_zero(self) -> bool:
        return not (self._re or self._im)

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            return (self.dim == other.dim and self._den == other._den
                    and self._re == other._re and self._im == other._im)
        return NotImplemented

    def entry(self, i: int, j: int) -> Poly:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("matrix index out of range")
        den = self._den
        re, im = self._by_row()
        out = {}
        for k, row in re.get(i, ()):
            if j in row:
                out[k] = (row[j], 0, den)
        if im:
            for k, row in im.get(i, ()):
                if j in row:
                    out[k] = (out.get(k, (0,))[0], row[j], den)
        if den > 1:
            for k, c in out.items():
                out[k] = qnorm(*c)
        return out

    def __repr__(self):
        cells = sorted({(i, j) for rows in (self._re, self._im)
                        for (_, i), row in rows.items() for j in row})
        body = ", ".join(f"[{i},{j}]={poly_str(self.entry(i, j), 0)[0]}"
                         for i, j in cells)
        return f"ExactMatrix({self.dim}, {body or 0})"


def _fused(a: ExactMatrix, b: ExactMatrix, sign: int) -> ExactMatrix:
    """a*b + sign * b*a, both orders added into one accumulator."""
    a._check(b)
    re, im = {}, {}
    _addmul(re, im, 1, a, b)
    _addmul(re, im, sign, b, a)
    return _canonical(a.dim, a._den * b._den, re, im)


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return _fused(a, b, -1)


def anticommutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return _fused(a, b, 1)


def matrix_algebra(dim: int) -> AlgebraHandle:
    """The matrix ring; its symmetric product is ``*`` itself, so a fold
    makes the same matrix products whichever order it groups them in."""
    return AlgebraHandle(ExactMatrix.identity(dim), mul, commutator,
                         anticommutator, mul)


def tensor(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; (a x 1) commutes with (1 x b)."""
    db = b.dim
    re, im = {}, {}
    for out, c, arows, brows in _subproducts(re, im, 1, a._re, a._im,
                                             b._re, b._im):
        for (p, i), arow in arows.items():
            for (q, r), brow in brows.items():
                key = (p + q, i * db + r)
                acc = out.get(key)
                if acc is None:
                    if p + q > MASK:
                        raise overflow("product")
                    acc = out[key] = {}
                get = acc.get
                for j, x in arow.items():
                    x *= c
                    j *= db
                    for m, y in brow.items():
                        acc[j + m] = get(j + m, 0) + x * y
    return _canonical(a.dim * db, a._den * b._den, re, im)


def direct_sum(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    den = 1
    for m in mats:
        den = den // gcd(den, m._den) * m._den
    re, im, off = {}, {}, 0
    for m in mats:
        c = den // m._den
        for out, rows in ((re, m._re), (im, m._im)):
            for (k, i), row in rows.items():
                out[k, off + i] = {off + j: c * v for j, v in row.items()}
        off += m.dim
    return _reduced(off, den, re, im)


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
        # the state m is target - e_i + e_j, so each row gets one entry
        rows[1, stack.index[tuple(target)]] = {col: mj}
    return _matrix(stack.dim, 1, rows, {})


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
                             path: Sequence[int]
                             ) -> Tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """The three sides of the 2n-bracket reduction onto a commutator with
    the total number operator times a symmetrized product of the
    off-diagonal charges:

    [f, N_p1, N_p1p2, ..., N_pn] = hbar**(n-1) {[f, Ntot], N_p1p2, ...}
                                 = hbar**(n-1) [{f, N_p1p2, ...}, Ntot].

    The theorem holds when all three are equal; the caller compares them,
    so a failure can show the difference.
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
    return lhs, m1, m2


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
    lm = {(1, k): {k - 1: 1} for k in range(1, d)}
    lp = {(1, k): {k + 1: (k + 1) * (two_j - k)} for k in range(d - 1)}
    return _matrix(d, 1, lp, {}), _matrix(d, 1, lm, {}), lz


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
