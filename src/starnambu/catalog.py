"""Identity catalog and suite runner.

Every entry is a generator of claims ``(label, got, want)`` about the bundled
models or bracket operations, registered together with its metadata by the
``_entry`` decorator.  One rule, :func:`_verdict`, decides every entry: the
first claim with ``got != want`` fails it, and the witness prints the
normalized difference of the two sides so a mismatch pinpoints the offending
hbar order.  There are no tolerances anywhere.  Entries are deterministic
given the run seed.  Each Lie-algebra closure is one pair rule,
:func:`_pair_claims`: a labelled basis and its structure constants, checked on
every ordered pair.
"""

from __future__ import annotations

import fnmatch
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .brackets import (SubsetCache, jordan, moyal, nambu_jacobian,
                       phase_algebra, poisson, qnb, resolve_qnb4, star,
                       star_commutator as comm, symplectic_trace)
from .errors import StarNambuError, UsageError
from .gauss import QZERO, qadd, qis_zero, qmul
from .models import (Model, chiral_dreibein, christoffel_contraction,
                     current_algebra_omega, eps3, eps_sum, fab, frame_current,
                     get_model, half_charges, h_other, similarity_identities,
                     sphere_geometry, vielbein_current)
from .operators import (ExactMatrix, SectorStack, chiral_block_rep,
                        chiral_tensor_rep, commutator as mcomm,
                        matrix_algebra, naive_bracket, number_matrix,
                        oscillator_bracket_entries, oscillator_theorem_check,
                        random_sector_matrix, su2_cartesian, su2_casimir,
                        total_number_matrix)
from .phase import EvalPoint, PhaseExpr, print_canonical

Claim = Tuple[str, object, object]
Claims = Iterator[Claim]


@dataclass
class CheckOutcome:
    status: str
    detail: str = ""
    witness: str = ""


def _verdict(claims: Iterable[Claim], detail: str = "") -> CheckOutcome:
    """Fail at the first claim whose ``got != want``, before the next claim
    is computed; otherwise pass with ``detail``, or with the claim count."""
    count = 0
    for label, got, want in claims:
        if got != want:
            if isinstance(got, PhaseExpr):
                witness = print_canonical(got - want)
            elif isinstance(got, ExactMatrix):
                witness = repr(got - want)
            else:
                witness = f"{got!r}, not {want!r}"
            if len(witness) > 400:
                witness = witness[:400] + "..."
            return CheckOutcome("fail", f"mismatch: {label}", witness)
        count += 1
    return CheckOutcome("pass", detail or f"{count} equalities hold exactly")


@dataclass
class RunContext:
    seed: int = 0
    draws: int = 1

    def __post_init__(self):
        if self.draws < 1:
            raise UsageError(f"draws (--n) must be at least 1, got {self.draws}")

    def rng(self, entry_id: str) -> random.Random:
        return random.Random(f"{self.seed}:{entry_id}")

    def repeats(self, base: int) -> int:
        return base * self.draws


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    suite: str
    description: str
    paper_ref: str
    runner: Callable[[RunContext], CheckOutcome]
    params: str = ""


_CATALOG: List[IdentityCheck] = []


def _entry(id_: str, suite: str, description: str, paper_ref: str,
           params: str = "", detail: str = ""):
    """Register a generator of claims as the next catalog entry; it passes
    with ``detail``, or with the claim count when ``detail`` is empty."""
    def register(claims: Callable[[RunContext], Claims]):
        _CATALOG.append(IdentityCheck(
            id_, suite, description, paper_ref,
            lambda ctx: _verdict(claims(ctx), detail), params))
        return claims
    return register


def random_phase(n: int, rng: random.Random, pdeg: int = 2, xdeg: int = 2,
                 terms: int = 4, radical: bool = True) -> PhaseExpr:
    """Random polynomial phase-space function with small integer data."""
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    p = [PhaseExpr.momentum(n, i) for i in range(n)]
    s = PhaseExpr.radical_s(n)
    total = PhaseExpr.zero(n)
    for _ in range(terms):
        c = rng.randint(-3, 3)
        if c == 0:
            c = 1
        term = PhaseExpr.const(n, c)
        budget = rng.randint(0, pdeg)
        for _ in range(budget):
            term = term * p[rng.randrange(n)]
        budget = rng.randint(0, xdeg)
        for _ in range(budget):
            term = term * x[rng.randrange(n)]
        if radical and rng.random() < 0.4:
            term = term * s
        total = total + term
    return total


# -- shared claims ---------------------------------------------------------


def _pair_claims(name: str, bracket, basis: Dict[str, object], want,
                 prefix: str = "") -> Claims:
    """``name(a,b)``: bracket(basis[a], basis[b]) = want(a, b) for every
    ordered pair of labels, so a closure states its structure constants once."""
    for a in basis:
        for b in basis:
            yield f"{prefix}{name}({a},{b})", bracket(basis[a], basis[b]), want(a, b)


def _eps_rule(triples, image, zero):
    """want(a, b) = sum_k eps_ijk image(t[k]) when a = t[i] and b = t[j] lie in
    one triple t, else zero: the structure constants of su(2) x ... x su(2)."""
    def want(a, b):
        for t in triples:
            if a in t and b in t:
                return eps_sum(t.index(a), t.index(b), lambda k: image(t[k]), zero)
        return zero
    return want


def _so3(m: Model) -> Dict[str, PhaseExpr]:
    """The rotation charges Lx, Ly, Lz of a 2-sphere model, labelled."""
    return {name: m.charge(name) for name in ("Lx", "Ly", "Lz")}


def _so3_claims(basis: Dict[str, PhaseExpr], prefix: str = "") -> Claims:
    yield from _pair_claims("pb", poisson, basis, _eps_rule(
        [tuple(basis)], basis.__getitem__, PhaseExpr.zero(basis["Lx"].n)), prefix)


def _correction_claims(model: Model, expected: PhaseExpr,
                       prefix: str = "") -> Claims:
    yield (f"{prefix}Hqm - H matches the stated correction",
           model.h_quantum - model.h_classical, expected)


def _metric_claims(geometry, n: int, prefix: str = "") -> Claims:
    one = PhaseExpr.one(n)
    zero = PhaseExpr.zero(n)
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    r = one - sum((xi * xi for xi in x), zero)
    for a in range(n):
        for b in range(n):
            got = sum((geometry.vielbein_lower[a][i] * geometry.vielbein_lower[b][i]
                       for i in range(n)), zero)
            want = (one if a == b else zero) + (x[a] * x[b]) / r
            yield f"{prefix}g_{a + 1}{b + 1} from frame", got, want
            yield (f"{prefix}g^{a + 1}{b + 1} explicit", geometry.metric_inv[a][b],
                   (one if a == b else zero) - x[a] * x[b])
            raised = sum((geometry.metric_inv[a][c] * geometry.vielbein_lower[c][b]
                          for c in range(n)), zero)
            yield (f"{prefix}index raising {a + 1}{b + 1}", raised,
                   geometry.vielbein_upper[a][b])
    for i in range(n):
        for j in range(n):
            got = sum((geometry.metric_inv[a][b] * geometry.vielbein_lower[a][i]
                       * geometry.vielbein_lower[b][j]
                       for a in range(n) for b in range(n)), zero)
            yield f"{prefix}orthonormality {i + 1}{j + 1}", got, one if i == j else zero


def _sphere_correction(n: int) -> PhaseExpr:
    one = PhaseExpr.one(n)
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    r = one - sum((xi * xi for xi in x), PhaseExpr.zero(n))
    return (one / r - one.scale_fraction(1 + n * (n - 1))) \
        .times_hbar(2).scale_fraction(Fraction(1, 8))


# -- entries, in catalog order ---------------------------------------------


@_entry("S2-01", "s2", "so(3) closure of the sphere charges",
        '§2, "close into the expected so(3)"', "signs=+,-",
        "so(3) closure holds on both hemispheres")
def _s2_01(ctx: RunContext) -> Claims:
    for sign in ("+", "-"):
        m = get_model(f"sphere:2:{sign}")
        yield from _so3_claims(_so3(m), f"hemisphere {sign}: ")


@_entry("S2-02", "s2", "Moyal brackets collapse to Poisson brackets on charges",
        '§2, "MBs collapse to PBs"')
def _s2_02(ctx: RunContext) -> Claims:
    basis = _so3(get_model("sphere:2"))
    yield from _pair_claims("mb", moyal, basis,
                            lambda a, b: poisson(basis[a], basis[b]))


@_entry("S2-03", "s2", "quantum correction (hbar^2/8)(1/(1-x^2-y^2) - 3)",
        '§2, "expose a quantum correction to"')
def _s2_03(ctx: RunContext) -> Claims:
    yield from _correction_claims(get_model("sphere:2"), _sphere_correction(2))


@_entry("S2-04", "s2", "Hqm conserves the charges, H does not",
        '§2, "generates a symmetry-preserving time-evolution"', detail=(
            "charges conserved by Hqm; mb(Lx,H) nonzero at order hbar**2"))
def _s2_04(ctx: RunContext) -> Claims:
    m = get_model("sphere:2")
    so3 = _so3(m)
    for name, charge in so3.items():
        yield (f"mb({name},Hqm) vanishes", moyal(charge, m.h_quantum),
               PhaseExpr.zero(2))
    lx_h = moyal(so3["Lx"], m.h_classical)
    yield "mb(Lx,H) does not vanish", lx_h.is_zero(), False
    yield "mb(Lx,H) is of order hbar**2", lx_h.divisible_hbar(2), True


@_entry("S2-05", "s2", "ladder relation Lz*L+ - L+*Lz = hbar L+",
        '§2, "standard recursive ladder operations"')
def _s2_05(ctx: RunContext) -> Claims:
    lx, ly, lz = _so3(get_model("sphere:2")).values()
    lplus = lx + ly.times_i()
    yield "Lz*L+ - L+*Lz = hbar L+", comm(lz, lplus), lplus.times_hbar(1)


@_entry("S2-06", "s2", "Casimir rewrite L.*L = L+*L- + Lz*Lz - hbar Lz",
        '§2, "proportional to the ħ²l(l+1) spectrum"')
def _s2_06(ctx: RunContext) -> Claims:
    lx, ly, lz = _so3(get_model("sphere:2")).values()
    lplus = lx + ly.times_i()
    lminus = lx - ly.times_i()
    casimir = star(lx, lx) + star(ly, ly) + star(lz, lz)
    yield ("L.*L = L+*L- + Lz*Lz - hbar Lz", casimir,
           star(lplus, lminus) + star(lz, lz) - lz.times_hbar(1))


@_entry("S2-07", "s2", "coordinates evolve classically, momenta do not",
        '§2, "quantum corrections to the classical equations"', detail=(
            "coordinates evolve classically, momenta pick up corrections"))
def _s2_07(ctx: RunContext) -> Claims:
    m = get_model("sphere:2")
    x = PhaseExpr.coord(2, 0)
    px = PhaseExpr.momentum(2, 0)
    yield "mb(x,Hqm) equals pb(x,H)", moyal(x, m.h_quantum), poisson(x, m.h_classical)
    yield ("mb(p_x,Hqm) shows a quantum correction",
           moyal(px, m.h_quantum).equals(poisson(px, m.h_classical)), False)


@_entry("SN-01", "sn", "so(N+1) closure for N=3,4 and MB collapse",
        '§3, "usual angular and de Sitter momenta"', "N=3,4",
        "so(N+1) closure and MB collapse hold for N=3,4")
def _sn_01(ctx: RunContext) -> Claims:
    for n in (3, 4):
        m = get_model(f"sphere:{n}")
        zero = PhaseExpr.zero(n)
        # so(N+1) generators J_AB, A < B, with J_0a = P_a and J_ab = L_ab
        index = {f"P{b}" if a == 0 else f"L{a}{b}": (a, b)
                 for a in range(n + 1) for b in range(a + 1, n + 1)}
        basis = {label: m.charge(label) for label in index}
        j = {}  # J_BA = -J_AB; J_AA = 0 is the missing key
        for label, (a, b) in index.items():
            j[a, b], j[b, a] = basis[label], -basis[label]

        def so(u: str, v: str) -> PhaseExpr:
            """{J_AB, J_CD} = d_AC J_BD + d_BD J_AC - d_BC J_AD - d_AD J_BC,
            summed as d_PQ J_RT terms with -J_AD = J_DA and -J_BC = J_CB."""
            (a, b), (c, d) = index[u], index[v]
            return sum((j[r, t] for p, q, r, t in ((a, c, b, d), (b, d, a, c),
                                                  (b, c, d, a), (a, d, c, b))
                        if p == q and (r, t) in j), zero)

        yield from _pair_claims("pb", poisson, basis, so, f"N={n}: ")
        items = list(basis.values())
        rng = ctx.rng("SN-01")
        for _ in range(ctx.repeats(6)):
            u, v = rng.choice(items), rng.choice(items)
            yield f"N={n}: mb collapses to pb", moyal(u, v), poisson(u, v)


@_entry("SN-02", "sn", "correction (hbar^2/8)(1/(1-q^2) - 1 - N(N-1))",
        '§3, "hence the quantum correction is"', "N=2,3,4",
        "corrections match (hbar^2/8)(1/(1-q^2) - 1 - N(N-1)) for N=2,3,4")
def _sn_02(ctx: RunContext) -> Claims:
    for n in (2, 3, 4):
        yield from _correction_claims(get_model(f"sphere:{n}"),
                                      _sphere_correction(n), f"N={n}: ")


@_entry("SN-03", "sn", "metric and frame identities",
        '§3, "standard choices for the Vielbeine"', "N=2,3,4; both signs",
        "frame and metric identities hold for N=2,3,4, both signs")
def _sn_03(ctx: RunContext) -> Claims:
    for n in (2, 3, 4):
        for sign in ("-", "+"):
            yield from _metric_claims(sphere_geometry(n, sign), n,
                                      f"N={n} sign {sign}: ")


@_entry("SN-04", "sn", "classical H = (pV)(Vp)/2",
        '§3, "The classical Hamiltonian equals"', "N=2,3")
def _sn_04(ctx: RunContext) -> Claims:
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        for sign in ("-", "+"):
            v = sphere_geometry(n, sign).vielbein_upper
            total = PhaseExpr.zero(n)
            for i in range(n):
                cur = frame_current(v, i)
                total = total + cur * cur
            yield (f"N={n} sign {sign}: H = (pV)(Vp)/2",
                   total.scale_fraction(Fraction(1, 2)), m.h_classical)


@_entry("SN-05", "sn", "current algebra omega^{a[jk]} p_a",
        '§3, "do not close among the Vielbein-currents"', "N=2,3")
def _sn_05(ctx: RunContext) -> Claims:
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        basis = {f"V{j + 1}": vielbein_current(m, j) for j in range(n)}
        omega = {(a, b): current_algebra_omega(m, j, k)
                 for j, a in enumerate(basis) for k, b in enumerate(basis)}
        for name, bracket in (("mb", moyal), ("pb", poisson)):
            yield from _pair_claims(name, bracket, basis,
                                    lambda a, b: omega[a, b], f"N={n}: ")
        yield (f"N={n}: omega antisymmetry",
               current_algebra_omega(m, 0, 0), PhaseExpr.zero(n))


@_entry("SN-06", "sn", "Hqm - Hother = (hbar^2/8)(N-1)(1-2w-N)",
        '§3, "has less symmetry than H_qm"', "N=2,3")
def _sn_06(ctx: RunContext) -> Claims:
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        w = m.geometry.w
        one = PhaseExpr.one(n)
        rhs = (one - w.scale_fraction(2) - one.scale_fraction(n)) \
            .scale_fraction(Fraction(n - 1, 8)).times_hbar(2)
        yield f"N={n}: Hqm - Hother", m.h_quantum - h_other(m), rhs


@_entry("SN-07", "sn", "mb(Hother,P_c) = hbar^2 q^c (N-1)(2w-1)/(4q^2)",
        '§3, "nor does it conserve the"', "N=2,3")
def _sn_07(ctx: RunContext) -> Claims:
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        w = m.geometry.w
        ho = h_other(m)
        x = [PhaseExpr.coord(n, i) for i in range(n)]
        q2 = sum((xi * xi for xi in x), PhaseExpr.zero(n))
        for c in range(n):
            rhs = (x[c] * (w.scale_fraction(2) - PhaseExpr.one(n)) / q2) \
                .scale_fraction(Fraction(n - 1, 4)).times_hbar(2)
            yield (f"N={n}: mb(Hother,P{c + 1})",
                   moyal(ho, m.charge(f"P{c + 1}")), rhs)


@_entry("SN-08", "sn", "star-similarity transformation identities",
        '§3, "⋆-similarity transformation compensates"', "N=2,3")
def _sn_08(ctx: RunContext) -> Claims:
    for n in (2, 3):
        for label, lhs, rhs in similarity_identities(get_model(f"sphere:{n}")):
            yield f"N={n}: {label}", lhs, rhs


@_entry("CH-01", "chiral", "su(2) x su(2) closure of chiral charges",
        '§4, "closing into standard su(2)⊗su(2)"', detail=(
            "su(2) x su(2) closure; model charges close with "
            "structure constants 2*eps, their halves with eps"))
def _ch_01(ctx: RunContext) -> Claims:
    m = get_model("chiral-s3")
    zero = PhaseExpr.zero(3)
    triples = [("R1", "R2", "R3"), ("Lch1", "Lch2", "Lch3")]
    basis = {label: m.charge(label) for t in triples for label in t}
    yield from _pair_claims("pb", poisson, basis, _eps_rule(
        triples, lambda k: basis[k].scale_fraction(2), zero))
    half = dict(zip(triples[1], half_charges(m)[0]))
    yield from _pair_claims("comm", comm, half, _eps_rule(
        triples[1:], lambda k: half[k].times_ihbar(1), zero), "half-normalized ")


@_entry("CH-02", "chiral", "axial and isospin combinations",
        '§4, "Axial and Isospin charges"')
def _ch_02(ctx: RunContext) -> Claims:
    m = get_model("chiral-s3")
    s = PhaseExpr.radical_s(3)
    p = [PhaseExpr.momentum(3, i) for i in range(3)]
    for i in range(3):
        yield (f"(R-L)/2 axial component {i + 1}",
               (m.charge(f"R{i + 1}") - m.charge(f"Lch{i + 1}"))
               .scale_fraction(Fraction(1, 2)), s * p[i])
        yield (f"(R+L)/2 isospin component {i + 1}",
               (m.charge(f"R{i + 1}") + m.charge(f"Lch{i + 1}"))
               .scale_fraction(Fraction(1, 2)), m.charge(f"I{i + 1}"))


@_entry("CH-03", "chiral", "four equal forms of the quantum Hamiltonian",
        '§4, "symmetric quantum Hamiltonian is simpler"', "both signs")
def _ch_03(ctx: RunContext) -> Claims:
    m = get_model("chiral-s3")
    p = [PhaseExpr.momentum(3, i) for i in range(3)]
    for sign in ("+", "-"):
        v = chiral_dreibein(sign)
        total = PhaseExpr.zero(3)
        dvdv = PhaseExpr.zero(3)
        gpp = PhaseExpr.zero(3)
        for i in range(3):
            cur = frame_current(v, i)
            total = total + star(cur, cur)
        for a in range(3):
            for b in range(3):
                gpp = gpp + m.geometry.metric_inv[a][b] * p[a] * p[b]
                for i in range(3):
                    dvdv = dvdv + v[b][i].diff_x(a) * v[a][i].diff_x(b)
        lhs = total.scale_fraction(Fraction(1, 2))
        yield (f"sign {sign}: (pV)*(Vp)/2 = (g pp + hbar^2/4 dV dV)/2", lhs,
               (gpp + dvdv.times_hbar(2).scale_fraction(Fraction(1, 4)))
               .scale_fraction(Fraction(1, 2)))
        yield (f"sign {sign}: equals left Casimir/2", lhs,
               m.charge("IL").scale_fraction(Fraction(1, 2)))
        yield (f"sign {sign}: equals right Casimir/2", lhs,
               m.charge("IR").scale_fraction(Fraction(1, 2)))


@_entry("CH-04", "chiral", "chiral correction (hbar^2/8)(1/(1-q^2) - 7)",
        '§4, "The quantum correction then amounts"')
def _ch_04(ctx: RunContext) -> Claims:
    # (hbar**2/8)(1/(1 - q**2) - 7): 7 = 1 + n*(n - 1) at n = 3
    yield from _correction_claims(get_model("chiral-s3"), _sphere_correction(3))


@_entry("CH-05", "chiral", "gnomonic correction (3/4)hbar^2(Q^2-1)",
        '§4 footnote, "inverse gnomonic Vielbein is polynomial"', detail=(
            "gnomonic correction is (3/4) hbar^2 (Q^2 - 1), polynomial frame"))
def _ch_05(ctx: RunContext) -> Claims:
    m = get_model("gnomonic-s3")
    yield ("gnomonic model is radical-free",
           all(c.is_polynomial for c in m.charges.values()), True)
    n = 3
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    q2 = sum((xi * xi for xi in x), PhaseExpr.zero(n))
    expected = (q2 - PhaseExpr.one(n)).times_hbar(2).scale_fraction(Fraction(3, 4))
    yield from _correction_claims(m, expected)
    origin = EvalPoint((Fraction(0),) * 3, (Fraction(0),) * 3, Fraction(1))
    yield ("correction at the origin is -3/4 hbar^2",
           (m.h_quantum - m.h_classical).evaluate(origin, Fraction(1)),
           Fraction(-3, 4))


@_entry("CH-06", "chiral", "correction from Christoffel and structure constants",
        '§4, "The quantum correction is now found"', detail=(
            "correction equals (hbar^2/8)(Gamma g Gamma - f.f); c_adjoint = 2"))
def _ch_06(ctx: RunContext) -> Claims:
    m = get_model("chiral-s3")
    n = 3
    f = {(a, b, c): -eps3(a, b, c)
         for a in range(n) for b in range(n) for c in range(n)}
    basis = {f"V{j + 1}": vielbein_current(m, j) for j in range(n)}
    currents = list(basis.values())
    # {V_j, V_k} = -2 f_jkc V_c
    closure = {(a, b): sum((currents[c].scale_fraction(-2 * f[j, k, c])
                            for c in range(n) if f[j, k, c]), PhaseExpr.zero(n))
               for j, a in enumerate(basis) for k, b in enumerate(basis)}
    yield from _pair_claims("pb", poisson, basis, lambda a, b: closure[a, b])
    yield ("c_adjoint: f_abc f_bcd = 2 delta_ad",
           [[sum(f[a, b, c] * f[b, c, d] for b in range(n) for c in range(n))
             for d in range(n)] for a in range(n)],
           [[2 if a == d else 0 for d in range(n)] for a in range(n)])
    ff = sum(v * v for v in f.values())
    yield ("curvature form of the correction", m.h_quantum - m.h_classical,
           (christoffel_contraction(m) - PhaseExpr.const(n, ff))
           .times_hbar(2).scale_fraction(Fraction(1, 8)))


@_entry("NB-01", "nb", "sphere evolution equals the invariant Jacobian",
        '§5.1, "to find the concise result"')
def _nb_01(ctx: RunContext) -> Claims:
    rng = ctx.rng("NB-01")
    for sign in ("+", "-"):
        m = get_model(f"sphere:2:{sign}")
        charges = list(_so3(m).values())
        for _ in range(ctx.repeats(3)):
            k = random_phase(2, rng)
            yield (f"hemisphere {sign}: dk/dt via jacobian",
                   nambu_jacobian([k] + charges), poisson(k, m.h_classical))


@_entry("NB-02", "nb", "bracket of H with its invariants vanishes",
        '§5.1, "each term of this NB vanishes"', detail=(
            "hamiltonian is annihilated by the full invariant bracket"))
def _nb_02(ctx: RunContext) -> Claims:
    m = get_model("sphere:2")
    yield ("bracket of H with its own invariants vanishes",
           nambu_jacobian([m.h_classical] + list(_so3(m).values())),
           PhaseExpr.zero(2))


@_entry("NB-03", "nb", "3-sphere bracket with momentum prefactor (multiplied)",
        '§5.1, "One of several possible expressions"')
def _nb_03(ctx: RunContext) -> Claims:
    rng = ctx.rng("NB-03")
    m = get_model("sphere:3")
    entries_tail = [m.charge("P1"), m.charge("L12"), m.charge("P2"),
                    m.charge("L23"), m.charge("P3")]
    for _ in range(ctx.repeats(2)):
        k = random_phase(3, rng)
        yield ("jacobian path equals P2 dk/dt (multiplied form)",
               nambu_jacobian([k] + entries_tail),
               m.charge("P2") * poisson(k, m.h_classical))


@_entry("NB-04", "nb", "Leibniz rule of partial differentiation",
        '§5.1, "obey the Leibniz rule of partial"')
def _nb_04(ctx: RunContext) -> Claims:
    rng = ctx.rng("NB-04")
    n = 2
    for _ in range(ctx.repeats(2)):
        big_l = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        big_m = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        rest = [random_phase(n, rng, pdeg=1, xdeg=1, terms=3) for _ in range(3)]
        # k(L, M) = L^2 M - 2 M + L with formal partials
        k_of = big_l * big_l * big_m - big_m.scale_fraction(2) + big_l
        dk_dl = big_l * big_m.scale_fraction(2) + PhaseExpr.one(n)
        dk_dm = big_l * big_l - PhaseExpr.one(n).scale_fraction(2)
        yield ("leibniz rule for k(L,M) = L^2 M - 2M + L",
               nambu_jacobian([k_of] + rest),
               dk_dl * nambu_jacobian([big_l] + rest)
               + dk_dm * nambu_jacobian([big_m] + rest))


@_entry("NB-05", "nb", "fundamental identity with an invariant prefactor",
        '§5.1, "so-called ``fundamental identity\'\'"', "N=1,2")
def _nb_05(ctx: RunContext) -> Claims:
    rng = ctx.rng("NB-05")
    for n in (1, 2):
        for _ in range(ctx.repeats(1)):
            gs = [random_phase(n, rng, pdeg=1, xdeg=1, terms=2,
                               radical=(n == 1))
                  for _ in range(2 * n - 1)]
            fs = [random_phase(n, rng, pdeg=1, xdeg=1, terms=2,
                               radical=(n == 1))
                  for _ in range(2 * n)]
            vol = random_phase(n, rng, pdeg=0, xdeg=1, terms=2, radical=False)
            lhs = PhaseExpr.zero(n)
            for i in range(2 * n):
                inner = vol * nambu_jacobian(gs + [fs[i]])
                entries = list(fs)
                entries[i] = inner
                lhs = lhs + nambu_jacobian(entries)
            yield (f"N={n}: fundamental identity with prefactor", lhs,
                   nambu_jacobian(gs + [vol * nambu_jacobian(fs)]))


@_entry("NB-06", "nb", "symplectic traces reduce brackets to Poisson brackets",
        '§5.1, "thereby taking symplectic traces"', "N=2,3")
def _nb_06(ctx: RunContext) -> Claims:
    rng = ctx.rng("NB-06")
    for n in (2, 3):
        for _ in range(ctx.repeats(2)):
            big_l = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
            big_m = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
            yield (f"N={n}: symplectic trace gives the poisson bracket",
                   symplectic_trace([big_l, big_m]), poisson(big_l, big_m))
        f = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        yield f"N={n}: antisymmetry", symplectic_trace([f, f]), PhaseExpr.zero(n)


@_entry("NB-07", "nb", "Hamilton equations through the traced bracket",
        '§5.1, "admit an NB expression different"', "N=2,3")
def _nb_07(ctx: RunContext) -> Claims:
    rng = ctx.rng("NB-07")
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        for _ in range(ctx.repeats(2)):
            k = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
            yield (f"N={n}: hamilton equations via traced bracket",
                   symplectic_trace([k, m.h_classical]), poisson(k, m.h_classical))
        h_generic = random_phase(n, rng, pdeg=2, xdeg=2, terms=3)
        k = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        yield (f"N={n}: generic hamiltonian",
               symplectic_trace([k, h_generic]), poisson(k, h_generic))


@_entry("QN-01", "qnb", "commutator resolution of the 4-bracket",
        '§5.2, "resolved into sums of products"', detail=(
            "4-bracket resolution validated on phase and matrix algebras"))
def _qn_01(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-01")
    alg = phase_algebra(2)
    for _ in range(ctx.repeats(2)):
        vals = [random_phase(2, rng, pdeg=1, xdeg=1, terms=3) for _ in range(4)]
        direct = qnb(vals, alg).value
        yield ("commutator-pair resolution equals the naive sum", direct,
               qnb(vals, alg, naive=True).value)
        yield "commutator resolution", direct, resolve_qnb4(*vals, alg)
    malg = matrix_algebra(3)
    for _ in range(ctx.repeats(2)):
        mats = [ExactMatrix.from_int_rows([[rng.randint(-3, 3) for _ in range(3)]
                                           for _ in range(3)]) for _ in range(4)]
        direct = qnb(mats, malg).value
        yield ("matrix commutator-pair resolution equals the naive sum", direct,
               qnb(mats, malg, naive=True).value)
        yield "matrix commutator resolution", direct, resolve_qnb4(*mats, malg)
        yield "independent naive matrix oracle", direct, naive_bracket(mats)


@_entry("QN-02", "qnb", "[A,Lx,Ly,Lz] = i hbar [A, L.*L]",
        '§5.2, "combinatoric identity relating 4 brackets"')
def _qn_02(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-02")
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    lx, ly, lz = _so3(m).values()
    casimir = star(lx, lx) + star(ly, ly) + star(lz, lz)
    for _ in range(ctx.repeats(3)):
        a = random_phase(2, rng)
        yield ("[A,Lx,Ly,Lz] = i hbar [A, L.*L]", qnb([a, lx, ly, lz], alg).value,
               comm(a, casimir).times_ihbar(1))


@_entry("QN-03", "qnb", "effective fundamental identity on star products",
        '§5.2, "effective fundamental identity (EFI)"')
def _qn_03(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-03")
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    charges = list(_so3(m).values())
    for _ in range(ctx.repeats(2)):
        a = random_phase(2, rng, pdeg=1)
        b = random_phase(2, rng, pdeg=1)
        yield ("effective fundamental identity on products",
               qnb([star(a, b)] + charges, alg).value,
               star(a, qnb([b] + charges, alg).value)
               + star(qnb([a] + charges, alg).value, b))


@_entry("QN-04", "qnb", "WF evolution from the invariant 4-bracket",
        '§5.2, "time evolution of any WF"')
def _qn_04(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-04")
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    charges = list(_so3(m).values())
    for _ in range(ctx.repeats(3)):
        f = random_phase(2, rng)
        yield ("WF evolution from the 4-bracket",
               qnb(charges + [f], alg).value
               .divide_exact_hbar(2).scale_fraction(Fraction(1, 2)),
               moyal(m.h_quantum, f))


@_entry("QN-05", "qnb", "equations of motion via -(1/2 hbar^2) 4-brackets",
        '§5.2, "in agreement with the ⋆-product"', detail=(
            "equations of motion reproduce the star-product evolution; "
            "momentum picks up the quantum correction"))
def _qn_05(ctx: RunContext) -> Claims:
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    charges = list(_so3(m).values())
    x = PhaseExpr.coord(2, 0)
    px = PhaseExpr.momentum(2, 0)
    # -(1/(2 hbar^2)) [v, Lx, Ly, Lz] equals 1/(2 (i hbar)^2) [v, ...]
    xdot = qnb([x] + charges, alg).value.divide_exact_hbar(2) \
        .scale_fraction(Fraction(1, 2))
    pdot = qnb([px] + charges, alg).value.divide_exact_hbar(2) \
        .scale_fraction(Fraction(1, 2))
    yield "dx/dt from 4-bracket equals mb(x,Hqm)", xdot, moyal(x, m.h_quantum)
    yield "dx/dt equals the classical pb(x,H)", xdot, poisson(x, m.h_classical)
    yield "dpx/dt from 4-bracket equals mb(px,Hqm)", pdot, moyal(px, m.h_quantum)
    yield ("momentum evolution shows a quantum correction",
           pdot.equals(poisson(px, m.h_classical)), False)


@_entry("QN-06", "qnb", "trilinear invariant reduces to the Casimir",
        '§5.2, "Only a commutator with the trilinear"', "2j=1,2",
        "trilinear/Casimir reduction holds with c_adjoint = 2")
def _qn_06(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-06")
    for two_j in (1, 2):
        d = two_j + 1
        q = list(su2_cartesian(two_j))
        alg = matrix_algebra(d)
        # read off f from commutators and contract: f_abc f_bcd = 2 delta_ad
        casimir = su2_casimir(two_j)
        zero = ExactMatrix.zeros(d)

        def trilinear(head):
            """sum_abc eps_abc [*head, Qa, Qb, Qc]."""
            return sum((eps_sum(a, b, lambda c: qnb(head + [q[a], q[b], q[c]],
                                                    alg).value, zero)
                        for a in range(3) for b in range(3)), zero)

        yield (f"2j={two_j}: trilinear reduction to the Casimir", trilinear([]),
               casimir.times_ihbar(1).scale_fraction(6))
        for _ in range(ctx.repeats(2)):
            a_mat = ExactMatrix.from_int_rows(
                [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
            yield (f"2j={two_j}: f_abc[A,Qa,Qb,Qc] = 3 i hbar c_adj [A, Q.Q]",
                   trilinear([a_mat]),
                   mcomm(a_mat, casimir).times_ihbar(1).scale_fraction(6))


_QN07_NOTE = ("adopting L_a = (1/2) eps_abc L_bc (the isospin), so "
              "L_a + P_a and L_b - P_b are the right/left chiral charges")


@_entry("QN-07", "qnb", "six-bracket of f_ab gives 4 i hbar^5 rotations",
        '§5.2, "Explicitly we find" and "vanishes in the classical limit"',
        _QN07_NOTE, "all nine components give exactly 4 i hbar^5 rotations; "
        f"/hbar^3 vanishes as hbar -> 0 ({_QN07_NOTE})")
def _qn_07(ctx: RunContext) -> Claims:
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    tail = [m.charge("A1"), m.charge("I3"), m.charge("A2"),
            m.charge("I1"), m.charge("A3")]
    zero = PhaseExpr.zero(3)
    cache = SubsetCache()
    for a in range(1, 4):
        for b in range(1, 4):
            probe = fab(m, a, b, "cartesian")
            lhs = qnb([probe] + tail, alg, cache=cache).value
            rhs = eps_sum(b - 1, 1, lambda c: fab(m, a, c + 1, "cartesian"), zero) \
                - eps_sum(a - 1, 1, lambda c: fab(m, c + 1, b, "cartesian"), zero)
            yield (f"six-bracket of f_{a}{b} is the 4 i hbar^5 rotation", lhs,
                   rhs.times_hbar(5).times_i().scale_fraction(4))
            # else the classical limit after /hbar^3 would not vanish
            yield (f"six-bracket of f_{a}{b} is of order hbar^4",
                   lhs.divisible_hbar(4), True)


@_entry("QN-08", "qnb", "six-bracket equals (i hbar)^2 Jordan/commutator forms",
        '§5.2, "We find the simple result"', "F=IL,IR,IL*IR",
        "six-bracket evolution holds for F = IL, IR, IL*IR")
def _qn_08(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-08")
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    lh, rh = half_charges(m)
    il = m.charge("IL").scale_fraction(Fraction(1, 4))
    ir = m.charge("IR").scale_fraction(Fraction(1, 4))
    cache = SubsetCache()
    cases = [("IL", il, 2), ("IR", ir, 2), ("IL*IR", star(il, ir), 1)]
    for name, inv, pdeg in cases:
        f = random_phase(3, rng, pdeg=pdeg, xdeg=1, terms=3, radical=False)
        lhs = qnb([f, inv, rh[0], rh[1], lh[0], lh[1]], alg, cache=cache).value
        comm_f_inv = comm(f, inv)
        yield (f"F={name}: bracket = (i hbar)^2 {{[f,F],Lz,Rz}}", lhs,
               jordan([comm_f_inv, lh[2], rh[2]], alg).value.times_ihbar(2))
        alt = jordan([f, lh[2], rh[2]], alg).value
        yield (f"F={name}: bracket = (i hbar)^2 [{{f,Lz,Rz}},F]", lhs,
               comm(alt, inv).times_ihbar(2))


@_entry("QN-09", "qnb", "Jordan 3-product expansion",
        '§5.2, "setting the time scales for"')
def _qn_09(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-09")
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    lh, rh = half_charges(m)
    lz, rz = lh[2], rh[2]
    anticomm = star(lz, rz) + star(rz, lz)
    for _ in range(ctx.repeats(3)):
        f = random_phase(3, rng, pdeg=1, xdeg=1, terms=3)
        yield ("jordan 3-product expansion", jordan([f, lz, rz], alg).value,
               star(anticomm, f) + star(star(lz, f), rz)
               + star(star(rz, f), lz) + star(f, anticomm))


def _sigma_of(lz: ExactMatrix, rz: ExactMatrix, row: int, col: int):
    """hbar**2 (2 l1 r1 + l1 r2 + r1 l2 + 2 l2 r2) on the unit (row, col),
    from the hbar coefficients l, r of the diagonals of lz and rz."""
    l1, l2, r1, r2 = (m.entry(i, i).get(1, QZERO) for m in (lz, rz)
                      for i in (row, col))
    two = (2, 0, 1)
    c = qadd(qadd(qmul(two, qmul(l1, r1)), qmul(l1, r2)),
             qadd(qmul(r1, l2), qmul(two, qmul(l2, r2))))
    return {} if qis_zero(c) else {2: c}


@_entry("QN-10", "qnb", "sigma_12 spectrum on tensor representations",
        '§5.2, "time scale is indeed dynamical"', "2j<=2",
        "sigma_12 = 2 l1 r1 + l1 r2 + r1 l2 + 2 l2 r2 on every "
        "elementary unit, 2j <= 2")
def _qn_10(ctx: RunContext) -> Claims:
    for two_j in (0, 1, 2):
        left, right = chiral_tensor_rep(two_j)
        d = (two_j + 1) ** 2
        alg = matrix_algebra(d)
        lz, rz = left[2], right[2]
        for row in range(d):
            for col in range(d):
                f = ExactMatrix.unit(d, row, col)
                sigma = _sigma_of(lz, rz, row, col)
                yield (f"2j={two_j}: unit ({row},{col}) has the sigma_12 spectrum",
                       jordan([f, lz, rz], alg).value,
                       ExactMatrix.unit(d, row, col, sigma))


@_entry("QN-11", "qnb", "Leibniz holds only at equal sigma eigenvalues",
        '§5.2, "will fail for products"', detail=(
            "leibniz holds at sigma_12 = sigma_23 = sigma_13 and breaks "
            "on an unequal-sigma product, as required"))
def _qn_11(ctx: RunContext) -> Claims:
    left, right = chiral_block_rep([0, 1, 2])
    dim = left[0].dim
    alg = matrix_algebra(dim)
    il = left[0] * left[0] + left[1] * left[1] + left[2] * left[2]
    lz, rz = left[2], right[2]
    cache = SubsetCache()
    tail = [il, right[0], right[1], left[0], left[1]]

    def equal_sigmas(row, mid, col):
        return _sigma_of(lz, rz, row, mid) == _sigma_of(lz, rz, mid, col) \
            == _sigma_of(lz, rz, row, col)

    def leibniz_holds(row, mid, col):
        f = ExactMatrix.unit(dim, row, mid)
        g = ExactMatrix.unit(dim, mid, col)
        lhs = qnb([f * g] + tail, alg, cache=cache).value
        rhs = f * qnb([g] + tail, alg, cache=cache).value \
            + qnb([f] + tail, alg, cache=cache).value * g
        return (lhs - rhs).is_zero()

    for trip in [(0, 0, 0), (1, 1, 1), (6, 6, 6)]:
        yield f"triple {trip} has equal sigmas", equal_sigmas(*trip), True
        yield f"leibniz rule holds on {trip}", leibniz_holds(*trip), True
    yield ("an unequal-sigma triple violates the leibniz rule",
           any(not equal_sigmas(*trip) and not leibniz_holds(*trip)
               for trip in [(0, 5, 9), (1, 6, 3)]), True)


def _triple_comms(g: PhaseExpr, u, w: PhaseExpr) -> PhaseExpr:
    """sum_i [[[g, u_i], u_i], w]."""
    total = PhaseExpr.zero(g.n)
    for ui in u:
        total = total + comm(comm(comm(g, ui), ui), w)
    return total


@_entry("QN-12", "qnb", "exact 3/2 + 1/2 six-bracket resolutions",
        '§5.2, "These are the exact results"', "both orientations")
def _qn_12(ctx: RunContext) -> Claims:
    rng = ctx.rng("QN-12")
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    lh, rh = half_charges(m)
    il = m.charge("IL").scale_fraction(Fraction(1, 4))
    ir = m.charge("IR").scale_fraction(Fraction(1, 4))

    cache = SubsetCache()
    for _ in range(ctx.repeats(1)):
        f = random_phase(3, rng, pdeg=2, xdeg=1, terms=3, radical=False)
        for side, u, v, casimir in (("left", lh, rh, il), ("right", rh, lh, ir)):
            lhs = qnb([f, u[0], u[1], u[2], v[0], v[1]], alg, cache=cache).value
            term1 = comm(star(f, v[2]) + star(v[2], f), casimir)
            term2 = _triple_comms(f, u, v[2])
            yield (f"{side} orientation: 3/2 + 1/2 resolution", lhs,
                   (term1.scale_fraction(Fraction(3, 2))
                    + term2.scale_fraction(Fraction(1, 2))).times_ihbar(2))


@_entry("QN-13", "qnb", "rotation coefficients 2 i hbar^3 and -i hbar^5",
        '§5.2, "but are just rotations of"', "all components",
        "rotation coefficients 2 i hbar^3 and -i hbar^5 reproduced "
        "for all nine components, both orientations")
def _qn_13(ctx: RunContext) -> Claims:
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    lh, rh = half_charges(m)
    f = [[star(lh[a], rh[b]) for b in range(3)] for a in range(3)]
    zero = PhaseExpr.zero(3)
    cache = SubsetCache()
    for a in range(3):
        for b in range(3):
            probe = f[a][b]
            # rotated by u: f_ab rotates in b on the left, in a on the right
            for u, v, side, bracket, index, term, rotation in (
                    (lh, rh, "left", "six-bracket", b, lambda c: f[a][c],
                     "eps_b3c f_ac"),
                    (rh, lh, "right", "mirror six-bracket", a,
                     lambda c: f[c][b], "eps_a3c f_cb")):
                rotated = eps_sum(index, 2, term, zero)
                want = rotated.scale_fraction(2).times_hbar(3).times_i()
                yield (f"{side} triple commutators of f_{a + 1}{b + 1} are "
                       f"2 i hbar^3 {rotation}",
                       _triple_comms(probe, u, v[2]), want)
                want = -rotated.times_hbar(5).times_i()
                yield (f"{bracket} total for f_{a + 1}{b + 1} is -i hbar^5 "
                       f"{rotation}",
                       qnb([probe, u[0], u[1], u[2], v[0], v[1]], alg,
                           cache=cache).value, want)


@_entry("OS-01", "oscillator", "u(n) closure of the bilinear charges",
        'Appendix, "realize the u(n) algebra"', "n<=3, M<=3",
        "u(n) closure and the sector label hold for n<=3, M<=3")
def _os_01(ctx: RunContext) -> Claims:
    for n in (2, 3):
        for total in (1, 2, 3):
            stack = SectorStack(n, [total])
            index = {f"N{i}{j}": (i, j)
                     for i in range(1, n + 1) for j in range(1, n + 1)}
            basis = {label: number_matrix(stack, *ij)
                     for label, ij in index.items()}

            def un(u: str, v: str) -> ExactMatrix:
                """[N_ij, N_kl] = hbar (d_jk N_il - d_il N_kj)."""
                (i, j), (k, l) = index[u], index[v]
                want = ExactMatrix.zeros(stack.dim)
                if j == k:
                    want = want + basis[f"N{i}{l}"].times_hbar(1)
                if i == l:
                    want = want - basis[f"N{k}{j}"].times_hbar(1)
                return want

            yield from _pair_claims("comm", mcomm, basis, un,
                                    f"u({n}) on the total={total} sector: ")
            expected = ExactMatrix.identity(stack.dim) \
                .times_hbar(1).scale_fraction(total)
            yield (f"u({n}): sum of N_ii is hbar*{total} on its sector",
                   total_number_matrix(stack), expected)


_OS_NOTE = ("probes act on stacked sectors (M, M+1): every bracket entry "
            "conserves the total number, so single-sector probes make both "
            "sides vanish identically")


@_entry("OS-02", "oscillator", "2n-bracket reduces to hbar^(n-1) halved forms",
        'Appendix, "reductio ad dimidium"', _OS_NOTE,
        "2n-bracket reduction holds with the exact hbar^(n-1) "
        f"prefactor for n=2,3 and M=1,2,3 ({_OS_NOTE})")
def _os_02(ctx: RunContext) -> Claims:
    rng = ctx.rng("OS-02")
    nontrivial = 0
    for n in (2, 3):
        for total in (1, 2, 3):
            stack = SectorStack(n, [total, total + 1])
            path = list(range(1, n + 1))
            for _ in range(ctx.repeats(5)):
                f = random_sector_matrix(stack, rng)
                lhs, m1, m2 = oscillator_theorem_check(stack, f, path)
                yield from _reduction_claims(f"n={n}, M={total}", lhs, m1, m2)
                nontrivial += not lhs.is_zero()
    yield "some checked bracket does not vanish (else vacuous)", nontrivial > 0, True


def _reduction_claims(where: str, lhs: ExactMatrix, m1: ExactMatrix,
                      m2: ExactMatrix) -> Claims:
    """The bracket against each halved form of the appendix's reduction."""
    yield (f"theorem holds for {where}: bracket = hbar^(n-1) {{[f,Ntot],...}}",
           lhs, m1)
    yield (f"theorem holds for {where}: bracket = hbar^(n-1) [{{f,...}},Ntot]",
           lhs, m2)


@_entry("OS-03", "oscillator", "permuted index paths give the same reduction",
        'Appendix footnote, "other Hamiltonian paths through the"', detail=(
            "permuted index paths satisfy the same reduction"))
def _os_03(ctx: RunContext) -> Claims:
    rng = ctx.rng("OS-03")
    for n, total, path in ((2, 1, [2, 1]), (2, 2, [2, 1]),
                           (3, 1, [2, 3, 1]), (3, 2, [3, 1, 2])):
        stack = SectorStack(n, [total, total + 1])
        for _ in range(ctx.repeats(2)):
            f = random_sector_matrix(stack, rng)
            yield from _reduction_claims(f"permuted path {path}, n={n}, M={total}",
                                         *oscillator_theorem_check(stack, f, path))


@_entry("OS-04", "oscillator", "witnessed failure of the naive product rule",
        'Appendix, "does not satisfy the trivial Leibniz"',
        detail=f"found probes violating the naive product rule ({_OS_NOTE})")
def _os_04(ctx: RunContext) -> Claims:
    rng = ctx.rng("OS-04")
    stack = SectorStack(2, [1, 2])
    alg = matrix_algebra(stack.dim)
    entries = oscillator_bracket_entries(stack, [1, 2])

    def product_rule_breaks(f: ExactMatrix, g: ExactMatrix) -> bool:
        return qnb([f * g] + entries, alg).value \
            != f * qnb([g] + entries, alg).value + qnb([f] + entries, alg).value * g

    yield ("some probe pair violates the naive product rule",
           any(product_rule_breaks(random_sector_matrix(stack, rng),
                                   random_sector_matrix(stack, rng))
               for _ in range(ctx.repeats(10))), True)


@_entry("ST-01", "star", "associativity on random triples",
        '§2, "non-commutative but associative"', "50 triples",
        "associativity holds on every random triple")
def _st_01(ctx: RunContext) -> Claims:
    rng = ctx.rng("ST-01")
    w2 = PhaseExpr.w_function(2)
    for trial in range(ctx.repeats(50)):
        n = 1 if trial % 5 == 0 else 2
        f = random_phase(n, rng, pdeg=2, xdeg=1, terms=3)
        g = random_phase(n, rng, pdeg=2, xdeg=1, terms=3)
        h = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        if n == 2 and trial % 7 == 0:
            g = g * w2
        yield (f"associativity on trial {trial}", star(star(f, g), h),
               star(f, star(g, h)))


@_entry("ST-02", "star", "classical limits of star and Moyal",
        '§2, "the MB reduces to the PB"')
def _st_02(ctx: RunContext) -> Claims:
    rng = ctx.rng("ST-02")
    for _ in range(ctx.repeats(5)):
        n = rng.choice((1, 2))
        f = random_phase(n, rng, pdeg=2, xdeg=2, terms=3)
        g = random_phase(n, rng, pdeg=2, xdeg=2, terms=3)
        yield ("star reduces to the pointwise product",
               star(f, g).subst_hbar_zero(), (f * g).subst_hbar_zero())
        yield ("moyal reduces to poisson",
               moyal(f, g).subst_hbar_zero(), poisson(f, g).subst_hbar_zero())


def catalog() -> List[IdentityCheck]:
    """All identity checks; ids unique, every entry constructible."""
    return list(_CATALOG)


SUITES = tuple(dict.fromkeys(e.suite for e in _CATALOG))


# -- runner ----------------------------------------------------------------


@dataclass
class ResultRow:
    id: str
    paper_ref: str
    status: str
    detail: str
    elapsed_ms: int


@dataclass
class Report:
    suite: str
    seed: int
    results: List[ResultRow] = field(default_factory=list)

    @property
    def summary(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "error": 0}
        for row in self.results:
            out[row.status] += 1
        return out

    @property
    def all_pass(self) -> bool:
        s = self.summary
        return s["fail"] == 0 and s["error"] == 0 and s["pass"] > 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "results": [{
                "id": r.id,
                "paper_ref": r.paper_ref,
                "status": r.status,
                "detail": r.detail,
                "elapsed_ms": r.elapsed_ms,
            } for r in self.results],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{r.id:7s} {r.status:5s} {r.elapsed_ms:7d} ms  {r.detail}")
        s = self.summary
        lines.append(f"total: {s['pass']} pass, {s['fail']} fail, "
                     f"{s['error']} error")
        return "\n".join(lines)


def select_entries(suite: Optional[str] = None,
                   id_glob: Optional[str] = None) -> List[IdentityCheck]:
    entries = catalog()
    if suite and suite != "all":
        if suite not in SUITES:
            raise UsageError(f"unknown suite {suite!r}; "
                             f"choose from {', '.join(SUITES)} or 'all'")
        entries = [e for e in entries if e.suite == suite]
    if id_glob:
        entries = [e for e in entries if fnmatch.fnmatchcase(e.id, id_glob)]
    if not entries:
        raise UsageError("no catalog entries match the given filter")
    return entries


def run_entry(entry: IdentityCheck, ctx: RunContext) -> ResultRow:
    start = time.monotonic()
    try:
        outcome = entry.runner(ctx)
        detail = outcome.detail
        if outcome.status == "fail" and outcome.witness:
            detail = f"{detail} | witness: {outcome.witness}"
        status = outcome.status
    except StarNambuError as exc:
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # pragma: no cover - internal faults
        status, detail = "error", f"internal {type(exc).__name__}: {exc}"
    elapsed = int((time.monotonic() - start) * 1000)
    return ResultRow(entry.id, entry.paper_ref, status, detail, elapsed)


def run_suite(suite: Optional[str] = None, id_glob: Optional[str] = None,
              seed: int = 0, jobs: int = 1, draws: int = 1) -> Report:
    """Run the matching entries one after another on the calling thread, so
    each row's ``elapsed_ms`` is that entry's own time; deterministic content
    for a fixed seed.  ``jobs`` has no effect; it is kept only because the
    benchmark's child process (``perfbench/child.py``) still passes it, and
    goes with the benchmark's next re-base."""
    ctx = RunContext(seed=seed, draws=draws)
    rows = [run_entry(e, ctx) for e in select_entries(suite, id_glob)]
    return Report(suite or id_glob or "all", seed, rows)
