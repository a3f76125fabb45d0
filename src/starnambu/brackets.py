"""Bracket calculus: star product, Poisson/Moyal brackets, Nambu Jacobians,
symplectic traces, and fully (anti)symmetrized k-products over any
associative algebra.

The star product is evaluated through the factorized bidifferential form

    f * g = sum over (alpha, beta) of
            (i*hbar/2)**(|alpha|+|beta|) * (-1)**|beta| / (alpha! beta!)
            * (d_x^alpha d_p^beta f) * (d_p^alpha d_x^beta g),

whose terms are exactly the merged ordered pairs produced by iterating the
Poisson bidifferential; alpha is bounded by the momentum support of g and
beta by that of f, so the series terminates at deg_p(f) + deg_p(g).

The weight splits into one factor per operand (the one-sided split of the
Moyal exponential).  With the half table

    H_f[beta] = (i*hbar/2)**|beta| / beta! * d_p^beta f,

the (alpha, beta) term is (-1)**|beta| * d_x^alpha H_f[beta] *
d_x^beta H_g[alpha].  Each operand builds its half table once and keeps it,
so every star sum it enters, in either order, reuses the same momentum
chain; x-derivatives of an entry are taken only when a term asks for them,
and left unreduced.  Coefficient products are summed raw, with s**2 = r
applied and the result reduced once per output coefficient, as every sum
of products is (``phase.add_products``).  No exponent is bounded in
advance: a field that passes MASK raises DomainError where it is formed.

For g * f the same (alpha, beta) term appears with (-1)**|alpha| in place
of (-1)**|beta|.  The two signs differ when |alpha| + |beta| is odd and
agree when it is even, so the star commutator f * g - g * f is the sum over
the odd orders alone and the star anticommutator f * g + g * f the sum over
the even orders alone, each term at 2 * (-1)**|beta|; the Jordan product
(f * g + g * f)/2 is the even orders at weight 1.

The k-products ``qnb`` and ``jordan`` fold their entries over argument
subsets (``_pair_fold``): a pair is its commutator (anticommutator), four
entries the signed sum of the anticommutators of their three matchings,
and any other subset a signed sum of products of smaller ones.  The
permutations behind each such product can be grouped with either factor
first at the same sign, so every sum is symmetric under swapping the two
factors of its terms, and each term may be the Jordan product, which sums
only the even half of the star series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ArityError, DimensionError
from .phase import PhaseExpr, add_products
from .poly import BITS, MASK, pscale, pshift_hbar
from .radical import RadicalCoeff, rderive_raw, rsums


# -- star product ------------------------------------------------------


def _p_step(h: PhaseExpr, a: int, order: int) -> PhaseExpr:
    """(i*hbar/2)/order * d/dp_a h: the next entry of a half table, where
    order is the new momentum order in p_a.  Distinct terms of h land on
    distinct keys, so nothing is summed."""
    n = h.n
    shift = BITS * a
    out = {}
    for key, (na, nb, d) in h.terms.items():
        e = (key >> shift) & MASK
        if e:
            c = (0, e, 2 * order)
            out[key - (1 << shift)] = RadicalCoeff(
                pscale(pshift_hbar(na, n, 1), c),
                pscale(pshift_hbar(nb, n, 1), c), d)
    return PhaseExpr(n, out)


def _half(f: PhaseExpr) -> List[Tuple[int, int, Dict[int, PhaseExpr]]]:
    """f's half table, built once and cached on f.

    One row (beta, |beta|, xs) per nonzero H_f[beta] =
    (i*hbar/2)**|beta| / beta! * d_p^beta f, where xs maps an x-order alpha
    to d_x^alpha H_f[beta] as ``_xder`` fills it in.  xs[0] is H_f[beta]
    itself.
    """
    if f._dcache is not None:
        return f._dcache
    n = f.n
    top = PhaseExpr(n, {})
    top.terms = f.terms  # f's terms, not f: f would be a reference cycle
    table = [(0, 0, {0: top})]
    entries = {0: f}
    for beta, total, _ in table:  # grows while it is walked, by order
        h = entries[beta]
        for a in range(n):
            step = 1 << (BITS * a)
            if beta + step in entries:
                continue
            d = _p_step(h, a, ((beta >> (BITS * a)) & MASK) + 1)
            if not d.is_zero():
                entries[beta + step] = d
                table.append((beta + step, total + 1, {0: d}))
    f._dcache = table
    return table


def _xder(xs: Dict[int, PhaseExpr], alpha: int) -> PhaseExpr:
    """d_x^alpha of a half-table entry, memoized in its row xs.

    Coefficients are left unreduced (``rderive_raw``): the star sum reduces
    each output coefficient once.  An order is reached from the one below
    it in its lowest variable, so every step on the way is kept in xs.
    """
    got = xs.get(alpha)
    if got is not None:
        return got
    a = 0
    while not (alpha >> (BITS * a)) & MASK:
        a += 1
    h = _xder(xs, alpha - (1 << (BITS * a)))
    n = h.n
    got = xs[alpha] = PhaseExpr(n, {k: rderive_raw(c, a, n)
                                    for k, c in h.terms.items()})
    return got


def _star_sum(f: PhaseExpr, g: PhaseExpr, parity: Optional[int],
              weight: int, name: str) -> PhaseExpr:
    """Sum the bidifferential series for f*g over the orders of one parity,
    every order when parity is None, each term at weight times its f*g
    weight.

    The (alpha, beta) term is (-1)**|beta| d_x^alpha H_f[beta] *
    d_x^beta H_g[alpha] over the half tables of f and g.  The sign picks
    one of two raw sums, and each output coefficient is scaled by weight,
    multiplied by r and reduced once (``radical.rsums``).
    """
    if f.n != g.n:
        raise DimensionError(f"{name} needs equal dimensions")
    n = f.n
    if f.is_zero() or g.is_zero():
        return PhaseExpr.zero(n)
    gh = _half(g)
    pos: Dict[int, tuple] = {}
    neg: Dict[int, tuple] = {}
    for beta, tb, fxs in _half(f):
        acc = neg if tb % 2 else pos
        for alpha, ta, gxs in gh:
            if parity is not None and (ta + tb) % 2 != parity:
                continue
            left = _xder(fxs, alpha)
            if left.is_zero():
                continue
            add_products(acc, _xder(gxs, beta), left)
    return PhaseExpr(n, rsums(pos, neg, weight, n))


def star(f: PhaseExpr, g: PhaseExpr) -> PhaseExpr:
    """Associative noncommutative star product; exact, terminating series."""
    return _star_sum(f, g, None, 1, "star product")


def star_commutator(f: PhaseExpr, g: PhaseExpr) -> PhaseExpr:
    """f*g - g*f in one pass over the operands' half tables.

    Coefficient products commute, so g*f has the same (alpha, beta) terms
    as f*g with the sign (-1)**|beta| turned into (-1)**|alpha|.  The two
    signs agree when |alpha| + |beta| is even, so those terms cancel; the
    odd-order terms survive, each at 2 * (-1)**|beta| times its f*g weight.
    """
    return _star_sum(f, g, 1, 2, "star commutator")


def star_anticommutator(f: PhaseExpr, g: PhaseExpr) -> PhaseExpr:
    """f*g + g*f in one pass: the even-order terms of f*g at weight 2, by
    the sign argument of ``star_commutator``."""
    return _star_sum(f, g, 0, 2, "star anticommutator")


def star_jordan(f: PhaseExpr, g: PhaseExpr) -> PhaseExpr:
    """The Jordan product (f*g + g*f)/2: the even-order terms of f*g."""
    return _star_sum(f, g, 0, 1, "Jordan star product")


def poisson(f: PhaseExpr, g: PhaseExpr) -> PhaseExpr:
    """Classical Poisson bracket sum(d_x f d_p g - d_p f d_x g), its
    products summed raw and each coefficient reduced once."""
    if f.n != g.n:
        raise DimensionError("poisson bracket needs equal dimensions")
    n = f.n
    pos: Dict[int, tuple] = {}
    neg: Dict[int, tuple] = {}
    for a in range(n):
        add_products(pos, f.diff_x(a), g.diff_p(a))
        add_products(neg, f.diff_p(a), g.diff_x(a))
    return PhaseExpr(n, rsums(pos, neg, 1, n))


def moyal(f: PhaseExpr, g: PhaseExpr) -> PhaseExpr:
    """Moyal bracket (f*g - g*f)/(i*hbar); collapses to poisson at hbar=0."""
    return star_commutator(f, g).divide_exact_hbar(1)


# -- Nambu brackets ----------------------------------------------------


def _minor(grads: List[List[PhaseExpr]], i: int, mask: int,
           memo: Dict[Tuple[int, int], PhaseExpr]) -> PhaseExpr:
    """The minor of gradient rows i, i+1, ... over the columns in mask, by
    Laplace expansion along row i and memoized in memo by (i, mask); its
    products are summed raw and each coefficient is reduced once."""
    n = grads[0][0].n
    if i == len(grads):
        return PhaseExpr.one(n)
    got = memo.get((i, mask))
    if got is not None:
        return got
    pos: Dict[int, tuple] = {}
    neg: Dict[int, tuple] = {}
    sign = 1
    for j, a in enumerate(grads[i]):
        bit = 1 << j
        if not mask & bit:
            continue
        if not a.is_zero():
            add_products(pos if sign > 0 else neg, a,
                         _minor(grads, i + 1, mask & ~bit, memo))
        sign = -sign
    total = memo[(i, mask)] = PhaseExpr(n, rsums(pos, neg, 1, n))
    return total


def _gradients(entries: List[PhaseExpr], what: str) -> List[List[PhaseExpr]]:
    """Each entry's derivatives in the column order (x1, p1, ..., xN, pN)."""
    n = entries[0].n
    grads = []
    for e in entries:
        if e.n != n:
            raise DimensionError(f"mixed dimensions in {what}")
        grads.append([d for a in range(n) for d in (e.diff_x(a), e.diff_p(a))])
    return grads


def nambu_jacobian(entries: Sequence[PhaseExpr]) -> PhaseExpr:
    """Jacobian determinant of the entries with respect to (x1,p1,...,xN,pN).

    Row order is the argument order; the variable (column) order is fixed,
    matching the sign conventions used throughout the bracket identities.
    """
    entries = list(entries)
    if not entries:
        raise ArityError("nambu bracket needs at least one entry")
    n = entries[0].n
    m = 2 * n
    if len(entries) != m:
        raise ArityError(f"nambu bracket needs {m} entries for dimension {n}")
    return _minor(_gradients(entries, "nambu bracket"), 0, (1 << m) - 1, {})


def symplectic_trace(entries: Sequence[PhaseExpr]) -> PhaseExpr:
    """Contract a rank-2k bracket down from the full 2N-dimensional Jacobian.

    The trace appends N-k coordinate/momentum pairs in all ways and sums
    the Jacobians: summing ordered index tuples and dividing by (N-k)!
    equals summing over the distinct unordered insertions, since repeated
    pairs vanish and pair swaps are even permutations.  Expanding such a
    Jacobian along its appended unit rows leaves the minor of the entries'
    own gradient rows over the k kept (x_i, p_i) column pairs, at sign +1:
    the row and column indices of the appended pairs have the same parity.
    So the trace is the sum of those minors over every k-set of kept
    pairs, all from one memo.  For k=1 this is the Poisson bracket.
    """
    entries = list(entries)
    if not entries:
        raise ArityError("symplectic trace needs at least one entry")
    if len(entries) % 2:
        raise ArityError("symplectic trace needs an even number of entries")
    dim = entries[0].n
    k = len(entries) // 2
    if k > dim:
        raise ArityError(f"rank {2 * k} exceeds phase-space dimension {2 * dim}")
    grads = _gradients(entries, "symplectic trace")
    memo: Dict[Tuple[int, int], PhaseExpr] = {}
    total = PhaseExpr.zero(dim)
    for kept in combinations(range(dim), k):
        mask = sum(3 << (2 * i) for i in kept)
        total = total + _minor(grads, 0, mask, memo)
    return total


# -- generic antisymmetrized / symmetrized products --------------------


@dataclass(frozen=True)
class AlgebraHandle:
    """An associative algebra the k-products can run over.

    ``commutator`` is a*b - b*a and ``anticommutator`` a*b + b*a.  ``sym``
    is a symmetric product: a*b, b*a or a mean of the two, so that
    sym(a, b) + sym(b, a) == a*b + b*a.  The fold only uses it in sums that
    are symmetric under swapping its two factors, where any such product
    gives the same total; the phase algebra passes the Jordan product,
    which sums half the star series, and the matrix algebra its own ``*``.
    """

    mul: Callable[[Any, Any], Any]
    commutator: Callable[[Any, Any], Any]
    anticommutator: Callable[[Any, Any], Any]
    sym: Callable[[Any, Any], Any]


def phase_algebra(n: int) -> AlgebraHandle:
    return AlgebraHandle(star, star_commutator, star_anticommutator,
                         star_jordan)


@dataclass
class BracketStats:
    nodes: int = 0
    products: int = 0


@dataclass
class BracketResult:
    value: Any
    stats: BracketStats = field(default_factory=BracketStats)


class SubsetCache:
    """Cross-call cache of ``qnb`` sub-bracket values, keyed by the identity
    of each entry of the subset.

    ``qnb`` shares through it the sub-brackets of the entries after the
    first, so calls that vary only their first entry reuse their common
    tail.  The cache holds every subset it keys together with its value for
    its own lifetime, so an id cannot be reused while a key holds it, and
    any entry type is accepted.
    """

    __slots__ = ("_data",)

    def __init__(self):
        self._data: Dict[tuple, Tuple[tuple, Any]] = {}

    def get(self, subset: tuple):
        """The cached value of subset, or None."""
        got = self._data.get(tuple(map(id, subset)))
        return None if got is None else got[1]

    def put(self, subset: tuple, value) -> None:
        self._data[tuple(map(id, subset))] = (subset, value)


def _perm_sign(perm: Sequence[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _naive_fold(entries, alg, signed: bool, stats: BracketStats):
    total = None
    for perm in permutations(range(len(entries))):
        acc = entries[perm[0]]
        for idx in perm[1:]:
            acc = alg.mul(acc, entries[idx])
            stats.products += 1
        if signed and _perm_sign(perm) < 0:
            acc = -acc
        total = acc if total is None else total + acc
    return total


def _pair_fold(entries, alg, signed: bool, stats: BracketStats,
               cache: Optional[SubsetCache]):
    """T(S), the k-product of the entries in S in order, built up over the
    subsets S its rules need; a, b and j are 0-based positions in S.

    Three rules, signed for qnb and with every sign + for jordan:
    - A pair is its commutator (anticommutator when unsigned).
    - Four entries are the sum over their three matchings,
      {T01, T23} - {T02, T13} + {T03, T12}, where {X, Y} = X*Y + Y*X.
    - A larger even S is the sum over a < b of
      (-1)**(a + b - 1) sym(T({a, b}), T(S - {a, b})), and an odd S the
      sum over j of (-1)**j sym(x_j, T(S - {j})).

    Grouping the permutations of S by their first two entries gives
    T({a, b}) T(S - {a, b}); grouping them by their last two gives
    T(S - {a, b}) T({a, b}) with the same sign, since moving a pair past
    the others is an even permutation.  So every term may be either order,
    or their mean, which is what ``sym`` is; the same holds for one entry
    x_j moved past the even number left in an odd S, and for the two
    orders of a matching, which carry the same sign.

    The rules need every subset of even size, smallest first, and the whole
    set when k is odd.  A subset of the entries after the first is taken
    from ``cache`` when it is there and stored there when it is not; one
    that holds the first entry never goes through the cache, so a caller
    that varies the first entry over a fixed tail keeps only the tail's
    sub-brackets.  For k = 5 and k >= 7 a hit does not spare the smaller
    subsets under it.
    """
    k = len(entries)
    full = (1 << k) - 1
    masks = [sum(1 << j for j in picked) for size in range(2, k + 1, 2)
             for picked in combinations(range(k), size)]
    if k % 2:
        masks.append(full)
    table: Dict[int, Any] = {}
    for mask in masks:
        bits = [1 << j for j in range(k) if mask >> j & 1]
        subset = tuple(entries[j] for j in range(k) if mask >> j & 1)
        shared = cache is not None and not mask & 1
        if shared:
            got = cache.get(subset)
            if got is not None:
                table[mask] = got
                continue
        stats.nodes += 1
        m = len(bits)
        if m == 1:
            val = subset[0]
        elif m == 2:
            a, b = subset
            stats.products += 1 if signed else 2
            val = alg.commutator(a, b) if signed else alg.anticommutator(a, b)
        else:
            op, cost = alg.sym, 1
            if m % 2:
                terms = ((j, subset[j], table[mask ^ bits[j]]) for j in range(m))
            elif m == 4:
                op, cost = alg.anticommutator, 2
                terms = ((j - 1, table[bits[0] | bits[j]],
                          table[mask ^ bits[0] ^ bits[j]]) for j in (1, 2, 3))
            else:
                terms = ((a + b - 1, table[bits[a] | bits[b]],
                          table[mask ^ bits[a] ^ bits[b]])
                         for a, b in combinations(range(m), 2))
            val = None
            for parity, left, right in terms:
                prod = op(left, right)
                stats.products += cost
                if signed and parity % 2:
                    prod = -prod
                val = prod if val is None else val + prod
        table[mask] = val
        if shared:
            cache.put(subset, val)
    return table[full]


def _product(entries, alg, signed: bool, naive: bool, cache, what: str):
    entries = list(entries)
    if not entries:
        raise ArityError(f"{what} of zero arguments")
    stats = BracketStats()
    if naive:
        value = _naive_fold(entries, alg, signed, stats)
    else:
        value = _pair_fold(entries, alg, signed, stats, cache)
    return BracketResult(value, stats)


def qnb(entries: Sequence[Any], alg: AlgebraHandle, naive: bool = False,
        cache: Optional[SubsetCache] = None) -> BracketResult:
    """Fully antisymmetrized product over all permutations.

    The default path is the commutator-pair resolution of ``_pair_fold``,
    memoized over argument subsets; it agrees exactly with the naive
    k!-term sum, which stays available as the cross-check oracle.

    A ``SubsetCache`` shares the sub-brackets of the entries after the
    first across calls, and holds them for its own lifetime; any entry type
    is accepted.
    """
    return _product(entries, alg, True, naive, cache, "bracket")


def jordan(entries: Sequence[Any], alg: AlgebraHandle,
           naive: bool = False) -> BracketResult:
    """Fully symmetrized product over all permutations (no signs)."""
    return _product(entries, alg, False, naive, None, "jordan product")


def resolve_qnb4(a, b, c, d, alg: AlgebraHandle):
    """Explicit commutator-pair resolution of the 4-argument bracket."""
    comm = alg.commutator
    ab, cd, ac, bd, ad, cb = (comm(a, b), comm(c, d), comm(a, c),
                              comm(b, d), comm(a, d), comm(c, b))
    return (alg.mul(ab, cd) - alg.mul(ac, bd) - alg.mul(ad, cb)
            + alg.mul(cd, ab) - alg.mul(bd, ac) - alg.mul(cb, ad))
