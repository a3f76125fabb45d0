"""Identity catalog and suite runner.

Every entry checks one exact statement about the bundled models or bracket
operations; there are no tolerances anywhere.  Failure witnesses print the
normalized difference of the two sides so a mismatch pinpoints the
offending hbar order.  Entries are deterministic given the run seed.
"""

from __future__ import annotations

import fnmatch
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .brackets import (SubsetCache, jordan, moyal, nambu_jacobian,
                       phase_algebra, poisson, qnb, resolve_qnb4, star,
                       star_commutator as comm, symplectic_trace)
from .errors import StarNambuError, UsageError
from .lang import print_canonical
from .models import (Model, chiral_dreibein, christoffel_correction,
                     current_algebra_omega, eps_sum, fab, frame_current,
                     get_model, half_charges, h_other, similarity_identities,
                     vielbein_current)
from .operators import (ExactMatrix, SectorStack, chiral_block_rep,
                        chiral_tensor_rep, commutator as mcomm,
                        matrix_algebra, naive_bracket, number_matrix,
                        oscillator_bracket_entries, oscillator_theorem_check,
                        random_sector_matrix, su2_cartesian, su2_casimir,
                        total_number_matrix)
from .phase import PhaseExpr


@dataclass
class CheckOutcome:
    status: str
    detail: str = ""
    witness: str = ""


def _pass(detail: str = "") -> CheckOutcome:
    return CheckOutcome("pass", detail)


def _fail(detail: str, witness: PhaseExpr | str = "") -> CheckOutcome:
    if isinstance(witness, PhaseExpr):
        witness = print_canonical(witness)
    if len(witness) > 400:
        witness = witness[:400] + "..."
    return CheckOutcome("fail", detail, witness)


def _expect_equal(pairs) -> CheckOutcome:
    """pairs: iterable of (label, lhs, rhs) of PhaseExpr or ExactMatrix."""
    count = 0
    for label, lhs, rhs in pairs:
        count += 1
        if isinstance(lhs, PhaseExpr):
            if not lhs.equals(rhs):
                return _fail(f"mismatch: {label}", lhs - rhs)
        else:
            if lhs != rhs:
                return _fail(f"mismatch: {label}", repr(lhs - rhs))
    return _pass(f"{count} equalities hold exactly")


@dataclass
class RunContext:
    seed: int = 0
    draws: int = 1

    def rng(self, entry_id: str) -> random.Random:
        return random.Random(f"{self.seed}:{entry_id}")

    def repeats(self, base: int) -> int:
        return max(1, base * self.draws)


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


# -- shared check bodies (parameterized so tests can tamper inputs) -------


def check_so3_closure(lx: PhaseExpr, ly: PhaseExpr, lz: PhaseExpr) -> CheckOutcome:
    return _expect_equal([
        ("pb(Lx,Ly) = Lz", poisson(lx, ly), lz),
        ("pb(Ly,Lz) = Lx", poisson(ly, lz), lx),
        ("pb(Lz,Lx) = Ly", poisson(lz, lx), ly),
    ])


def check_quantum_correction(model: Model, expected: PhaseExpr) -> CheckOutcome:
    return _expect_equal([
        ("Hqm - H matches the stated correction",
         model.h_quantum - model.h_classical, expected),
    ])


def check_metric_identities(geometry, n: int) -> CheckOutcome:
    one = PhaseExpr.one(n)
    zero = PhaseExpr.zero(n)
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    r = one - sum((xi * xi for xi in x), zero)
    pairs = []
    for a in range(n):
        for b in range(n):
            got = sum((geometry.vielbein_lower[a][i] * geometry.vielbein_lower[b][i]
                       for i in range(n)), zero)
            want = (one if a == b else zero) + (x[a] * x[b]) / r
            pairs.append((f"g_{a + 1}{b + 1} from frame", got, want))
            pairs.append((f"g^{a + 1}{b + 1} explicit",
                          geometry.metric_inv[a][b],
                          (one if a == b else zero) - x[a] * x[b]))
            raised = sum((geometry.metric_inv[a][c] * geometry.vielbein_lower[c][b]
                          for c in range(n)), zero)
            pairs.append((f"index raising {a + 1}{b + 1}", raised,
                          geometry.vielbein_upper[a][b]))
    for i in range(n):
        for j in range(n):
            got = sum((geometry.metric_inv[a][b] * geometry.vielbein_lower[a][i]
                       * geometry.vielbein_lower[b][j]
                       for a in range(n) for b in range(n)), zero)
            pairs.append((f"orthonormality {i + 1}{j + 1}", got,
                          one if i == j else zero))
    return _expect_equal(pairs)


def _sphere_correction(n: int) -> PhaseExpr:
    one = PhaseExpr.one(n)
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    r = one - sum((xi * xi for xi in x), PhaseExpr.zero(n))
    return (one / r - one.scale_fraction(1 + n * (n - 1))) \
        .times_hbar(2).scale_fraction(Fraction(1, 8))


# -- entry runners --------------------------------------------------------


def _run_s2_01(ctx: RunContext) -> CheckOutcome:
    for sign in ("+", "-"):
        m = get_model(f"sphere:2:{sign}")
        out = check_so3_closure(m.charge("Lx"), m.charge("Ly"), m.charge("Lz"))
        if out.status != "pass":
            out.detail = f"hemisphere {sign}: {out.detail}"
            return out
    return _pass("so(3) closure holds on both hemispheres")


def _run_s2_02(ctx: RunContext) -> CheckOutcome:
    m = get_model("sphere:2")
    names = ("Lx", "Ly", "Lz")
    pairs = []
    for a in names:
        for b in names:
            pairs.append((f"mb({a},{b}) collapses to pb",
                          moyal(m.charge(a), m.charge(b)),
                          poisson(m.charge(a), m.charge(b))))
    return _expect_equal(pairs)


def _run_s2_03(ctx: RunContext) -> CheckOutcome:
    return check_quantum_correction(get_model("sphere:2"), _sphere_correction(2))


def _run_s2_04(ctx: RunContext) -> CheckOutcome:
    m = get_model("sphere:2")
    for name in ("Lx", "Ly", "Lz"):
        mb = moyal(m.charge(name), m.h_quantum)
        if not mb.is_zero():
            return _fail(f"mb({name},Hqm) nonzero", mb)
    lx_h = moyal(m.charge("Lx"), m.h_classical)
    if lx_h.is_zero():
        return _fail("mb(Lx,H) unexpectedly vanishes")
    if not lx_h.divisible_hbar(2):
        return _fail("mb(Lx,H) is not of order hbar**2", lx_h)
    return _pass("charges conserved by Hqm; mb(Lx,H) nonzero at order hbar**2")


def _run_s2_05(ctx: RunContext) -> CheckOutcome:
    m = get_model("sphere:2")
    lx, ly, lz = m.charge("Lx"), m.charge("Ly"), m.charge("Lz")
    lplus = lx + ly.times_i()
    return _expect_equal([
        ("Lz*L+ - L+*Lz = hbar L+",
         comm(lz, lplus), lplus.times_hbar(1)),
    ])


def _run_s2_06(ctx: RunContext) -> CheckOutcome:
    m = get_model("sphere:2")
    lx, ly, lz = m.charge("Lx"), m.charge("Ly"), m.charge("Lz")
    lplus = lx + ly.times_i()
    lminus = lx - ly.times_i()
    casimir = star(lx, lx) + star(ly, ly) + star(lz, lz)
    return _expect_equal([
        ("L.*L = L+*L- + Lz*Lz - hbar Lz", casimir,
         star(lplus, lminus) + star(lz, lz) - lz.times_hbar(1)),
    ])


def _run_s2_07(ctx: RunContext) -> CheckOutcome:
    m = get_model("sphere:2")
    x = PhaseExpr.coord(2, 0)
    px = PhaseExpr.momentum(2, 0)
    coord_eq = moyal(x, m.h_quantum).equals(poisson(x, m.h_classical))
    if not coord_eq:
        return _fail("mb(x,Hqm) differs from pb(x,H)",
                     moyal(x, m.h_quantum) - poisson(x, m.h_classical))
    if moyal(px, m.h_quantum).equals(poisson(px, m.h_classical)):
        return _fail("mb(p_x,Hqm) shows no quantum correction")
    return _pass("coordinates evolve classically, momenta pick up corrections")


def _run_sn_01(ctx: RunContext) -> CheckOutcome:
    for n in (3, 4):
        m = get_model(f"sphere:{n}")
        zero = PhaseExpr.zero(n)
        charges = {}
        for a in range(n):
            charges[("P", a)] = m.charge(f"P{a + 1}")
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                key = f"L{min(a, b) + 1}{max(a, b) + 1}"
                lab = m.charge(key)
                charges[("L", a, b)] = lab if a < b else -lab
        pairs = []
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                pairs.append((f"N={n}: {{P{a + 1},P{b + 1}}} = L",
                              poisson(charges[("P", a)], charges[("P", b)]),
                              charges[("L", a, b)]))
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    want = zero
                    if a == c:
                        want = want + charges[("P", b)]
                    if b == c:
                        want = want - charges[("P", a)]
                    pairs.append((f"N={n}: {{L{a + 1}{b + 1},P{c + 1}}}",
                                  poisson(charges[("L", a, b)], charges[("P", c)]),
                                  want))
        def ell(u: int, v: int) -> PhaseExpr:
            return zero if u == v else charges[("L", u, v)]

        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    for d in range(c + 1, n):
                        want = zero
                        if a == c:
                            want = want + ell(b, d)
                        if b == d:
                            want = want + ell(a, c)
                        if b == c:
                            want = want - ell(a, d)
                        if a == d:
                            want = want - ell(b, c)
                        pairs.append((
                            f"N={n}: {{L{a + 1}{b + 1},L{c + 1}{d + 1}}}",
                            poisson(charges[("L", a, b)], charges[("L", c, d)]),
                            want))
        out = _expect_equal(pairs)
        if out.status != "pass":
            return out
        mb_pairs = []
        items = list(charges.values())
        rng = ctx.rng("SN-01")
        for _ in range(ctx.repeats(6)):
            u = items[rng.randrange(len(items))]
            v = items[rng.randrange(len(items))]
            mb_pairs.append((f"N={n}: mb collapses to pb",
                             moyal(u, v), poisson(u, v)))
        out = _expect_equal(mb_pairs)
        if out.status != "pass":
            return out
    return _pass("so(N+1) closure and MB collapse hold for N=3,4")


def _run_sn_02(ctx: RunContext) -> CheckOutcome:
    for n in (2, 3, 4):
        out = check_quantum_correction(get_model(f"sphere:{n}"),
                                       _sphere_correction(n))
        if out.status != "pass":
            out.detail = f"N={n}: {out.detail}"
            return out
    return _pass("corrections match (hbar^2/8)(1/(1-q^2) - 1 - N(N-1)) for N=2,3,4")


def _run_sn_03(ctx: RunContext) -> CheckOutcome:
    from .models import sphere_geometry
    for n in (2, 3, 4):
        for sign in ("-", "+"):
            out = check_metric_identities(sphere_geometry(n, sign), n)
            if out.status != "pass":
                out.detail = f"N={n} sign {sign}: {out.detail}"
                return out
    return _pass("frame and metric identities hold for N=2,3,4, both signs")


def _run_sn_04(ctx: RunContext) -> CheckOutcome:
    from .models import sphere_geometry
    pairs = []
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        for sign in ("-", "+"):
            v = sphere_geometry(n, sign).vielbein_upper
            total = PhaseExpr.zero(n)
            for i in range(n):
                cur = frame_current(v, i)
                total = total + cur * cur
            pairs.append((f"N={n} sign {sign}: H = (pV)(Vp)/2",
                          total.scale_fraction(Fraction(1, 2)), m.h_classical))
    return _expect_equal(pairs)


def _run_sn_05(ctx: RunContext) -> CheckOutcome:
    pairs = []
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        for j in range(n):
            for k in range(n):
                cur_j = vielbein_current(m, j)
                cur_k = vielbein_current(m, k)
                omega = current_algebra_omega(m, j, k)
                pairs.append((f"N={n}: mb of currents ({j + 1},{k + 1})",
                              moyal(cur_j, cur_k), omega))
                pairs.append((f"N={n}: pb of currents ({j + 1},{k + 1})",
                              poisson(cur_j, cur_k), omega))
        pairs.append((f"N={n}: omega antisymmetry",
                      current_algebra_omega(m, 0, 0), PhaseExpr.zero(n)))
    return _expect_equal(pairs)


def _run_sn_06(ctx: RunContext) -> CheckOutcome:
    pairs = []
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        w = m.geometry.w
        one = PhaseExpr.one(n)
        rhs = (one - w.scale_fraction(2) - one.scale_fraction(n)) \
            .scale_fraction(Fraction(n - 1, 8)).times_hbar(2)
        pairs.append((f"N={n}: Hqm - Hother", m.h_quantum - h_other(m), rhs))
    return _expect_equal(pairs)


def _run_sn_07(ctx: RunContext) -> CheckOutcome:
    pairs = []
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        w = m.geometry.w
        ho = h_other(m)
        x = [PhaseExpr.coord(n, i) for i in range(n)]
        q2 = sum((xi * xi for xi in x), PhaseExpr.zero(n))
        for c in range(n):
            rhs = (x[c] * (w.scale_fraction(2) - PhaseExpr.one(n)) / q2) \
                .scale_fraction(Fraction(n - 1, 4)).times_hbar(2)
            pairs.append((f"N={n}: mb(Hother,P{c + 1})",
                          moyal(ho, m.charge(f"P{c + 1}")), rhs))
    return _expect_equal(pairs)


def _run_sn_08(ctx: RunContext) -> CheckOutcome:
    pairs = []
    for n in (2, 3):
        for label, lhs, rhs in similarity_identities(get_model(f"sphere:{n}")):
            pairs.append((f"N={n}: {label}", lhs, rhs))
    return _expect_equal(pairs)


def _run_ch_01(ctx: RunContext) -> CheckOutcome:
    m = get_model("chiral-s3")
    lh, rh = half_charges(m)
    zero = PhaseExpr.zero(3)
    pairs = []
    for i in range(3):
        for j in range(3):
            want_r = eps_sum(i, j, lambda k: m.charge(f"R{k + 1}")
                             .scale_fraction(2), zero)
            want_l = eps_sum(i, j, lambda k: m.charge(f"Lch{k + 1}")
                             .scale_fraction(2), zero)
            pairs.append((f"{{R{i + 1},R{j + 1}}} = 2 eps R",
                          poisson(m.charge(f"R{i + 1}"), m.charge(f"R{j + 1}")),
                          want_r))
            pairs.append((f"{{L{i + 1},L{j + 1}}} = 2 eps L",
                          poisson(m.charge(f"Lch{i + 1}"), m.charge(f"Lch{j + 1}")),
                          want_l))
            pairs.append((f"{{L{i + 1},R{j + 1}}} = 0",
                          poisson(m.charge(f"Lch{i + 1}"), m.charge(f"R{j + 1}")),
                          zero))
            pairs.append((f"half-normalized [L{i + 1},L{j + 1}]* = i hbar eps L",
                          comm(lh[i], lh[j]),
                          eps_sum(i, j, lambda k: lh[k].times_ihbar(1), zero)))
    out = _expect_equal(pairs)
    if out.status == "pass":
        out.detail = ("su(2) x su(2) closure; model charges close with "
                      "structure constants 2*eps, their halves with eps")
    return out


def _run_ch_02(ctx: RunContext) -> CheckOutcome:
    m = get_model("chiral-s3")
    s = PhaseExpr.radical_s(3)
    p = [PhaseExpr.momentum(3, i) for i in range(3)]
    pairs = []
    for i in range(3):
        pairs.append((f"(R-L)/2 axial component {i + 1}",
                      (m.charge(f"R{i + 1}") - m.charge(f"Lch{i + 1}"))
                      .scale_fraction(Fraction(1, 2)), s * p[i]))
        pairs.append((f"(R+L)/2 isospin component {i + 1}",
                      (m.charge(f"R{i + 1}") + m.charge(f"Lch{i + 1}"))
                      .scale_fraction(Fraction(1, 2)), m.charge(f"I{i + 1}")))
    return _expect_equal(pairs)


def _run_ch_03(ctx: RunContext) -> CheckOutcome:
    m = get_model("chiral-s3")
    p = [PhaseExpr.momentum(3, i) for i in range(3)]
    pairs = []
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
        pairs.append((f"sign {sign}: (pV)*(Vp)/2 = (g pp + hbar^2/4 dV dV)/2",
                      lhs,
                      (gpp + dvdv.times_hbar(2).scale_fraction(Fraction(1, 4)))
                      .scale_fraction(Fraction(1, 2))))
        pairs.append((f"sign {sign}: equals left Casimir/2", lhs,
                      m.charge("IL").scale_fraction(Fraction(1, 2))))
        pairs.append((f"sign {sign}: equals right Casimir/2", lhs,
                      m.charge("IR").scale_fraction(Fraction(1, 2))))
    return _expect_equal(pairs)


def _run_ch_04(ctx: RunContext) -> CheckOutcome:
    # (hbar**2/8)(1/(1 - q**2) - 7): 7 = 1 + n*(n - 1) at n = 3
    return check_quantum_correction(get_model("chiral-s3"),
                                    _sphere_correction(3))


def _run_ch_05(ctx: RunContext) -> CheckOutcome:
    from .phase import EvalPoint
    m = get_model("gnomonic-s3")
    if m.radical_enabled or not all(c.is_polynomial for c in m.charges.values()):
        return _fail("gnomonic model is not radical-free")
    n = 3
    x = [PhaseExpr.coord(n, i) for i in range(n)]
    q2 = sum((xi * xi for xi in x), PhaseExpr.zero(n))
    expected = (q2 - PhaseExpr.one(n)).times_hbar(2).scale_fraction(Fraction(3, 4))
    out = check_quantum_correction(m, expected)
    if out.status != "pass":
        return out
    origin = EvalPoint((Fraction(0),) * 3, (Fraction(0),) * 3, Fraction(1))
    value = (m.h_quantum - m.h_classical).evaluate(origin, Fraction(1))
    if value.im != 0 or value.re != Fraction(-3, 4):
        return _fail(f"correction at the origin is {value!r}, not -3/4 hbar^2")
    return _pass("gnomonic correction is (3/4) hbar^2 (Q^2 - 1), polynomial frame")


def _run_ch_06(ctx: RunContext) -> CheckOutcome:
    report = christoffel_correction(get_model("chiral-s3"))
    if not report.holds:
        return _fail("curvature form of the correction fails",
                     report.correction - report.predicted)
    return _pass(f"correction equals (hbar^2/8)(Gamma g Gamma - f.f); "
                 f"c_adjoint = {report.structure.c_adjoint}")


def _run_nb_01(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("NB-01")
    pairs = []
    for sign in ("+", "-"):
        m = get_model(f"sphere:2:{sign}")
        for _ in range(ctx.repeats(3)):
            k = random_phase(2, rng)
            pairs.append((f"hemisphere {sign}: dk/dt via jacobian",
                          nambu_jacobian([k, m.charge("Lx"), m.charge("Ly"),
                                          m.charge("Lz")]),
                          poisson(k, m.h_classical)))
    return _expect_equal(pairs)


def _run_nb_02(ctx: RunContext) -> CheckOutcome:
    m = get_model("sphere:2")
    value = nambu_jacobian([m.h_classical, m.charge("Lx"), m.charge("Ly"),
                            m.charge("Lz")])
    if not value.is_zero():
        return _fail("bracket of H with its own invariants is nonzero", value)
    return _pass("hamiltonian is annihilated by the full invariant bracket")


def _run_nb_03(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("NB-03")
    m = get_model("sphere:3")
    entries_tail = [m.charge("P1"), m.charge("L12"), m.charge("P2"),
                    m.charge("L23"), m.charge("P3")]
    pairs = []
    for _ in range(ctx.repeats(2)):
        k = random_phase(3, rng)
        pairs.append(("jacobian path equals P2 dk/dt (multiplied form)",
                      nambu_jacobian([k] + entries_tail),
                      m.charge("P2") * poisson(k, m.h_classical)))
    return _expect_equal(pairs)


def _run_nb_04(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("NB-04")
    n = 2
    pairs = []
    for _ in range(ctx.repeats(2)):
        big_l = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        big_m = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        rest = [random_phase(n, rng, pdeg=1, xdeg=1, terms=3) for _ in range(3)]
        # k(L, M) = L^2 M - 2 M + L with formal partials
        k_of = big_l * big_l * big_m - big_m.scale_fraction(2) + big_l
        dk_dl = big_l * big_m.scale_fraction(2) + PhaseExpr.one(n)
        dk_dm = big_l * big_l - PhaseExpr.one(n).scale_fraction(2)
        lhs = nambu_jacobian([k_of] + rest)
        rhs = dk_dl * nambu_jacobian([big_l] + rest) \
            + dk_dm * nambu_jacobian([big_m] + rest)
        pairs.append(("leibniz rule for k(L,M) = L^2 M - 2M + L", lhs, rhs))
    return _expect_equal(pairs)


def _run_nb_05(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("NB-05")
    pairs = []
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
            rhs = nambu_jacobian(gs + [vol * nambu_jacobian(fs)])
            pairs.append((f"N={n}: fundamental identity with prefactor", lhs, rhs))
    return _expect_equal(pairs)


def _run_nb_06(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("NB-06")
    pairs = []
    for n in (2, 3):
        for _ in range(ctx.repeats(2)):
            big_l = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
            big_m = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
            pairs.append((f"N={n}: symplectic trace gives the poisson bracket",
                          symplectic_trace([big_l, big_m]),
                          poisson(big_l, big_m)))
        f = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        pairs.append((f"N={n}: antisymmetry", symplectic_trace([f, f]),
                      PhaseExpr.zero(n)))
    return _expect_equal(pairs)


def _run_nb_07(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("NB-07")
    pairs = []
    for n in (2, 3):
        m = get_model(f"sphere:{n}")
        for _ in range(ctx.repeats(2)):
            k = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
            pairs.append((f"N={n}: hamilton equations via traced bracket",
                          symplectic_trace([k, m.h_classical]),
                          poisson(k, m.h_classical)))
        h_generic = random_phase(n, rng, pdeg=2, xdeg=2, terms=3)
        k = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        pairs.append((f"N={n}: generic hamiltonian",
                      symplectic_trace([k, h_generic]), poisson(k, h_generic)))
    return _expect_equal(pairs)


def _run_qn_01(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("QN-01")
    alg = phase_algebra(2)
    for _ in range(ctx.repeats(2)):
        vals = [random_phase(2, rng, pdeg=1, xdeg=1, terms=3) for _ in range(4)]
        direct = qnb(vals, alg)
        naive = qnb(vals, alg, naive=True)
        resolved = resolve_qnb4(*vals, alg)
        if not direct.value.equals(naive.value):
            return _fail("commutator-pair resolution disagrees with the naive sum",
                         direct.value - naive.value)
        if not direct.value.equals(resolved):
            return _fail("commutator resolution disagrees",
                         direct.value - resolved)
    malg = matrix_algebra(3)
    for _ in range(ctx.repeats(2)):
        mats = [ExactMatrix.from_int_rows([[rng.randint(-3, 3) for _ in range(3)]
                                           for _ in range(3)]) for _ in range(4)]
        direct = qnb(mats, malg).value
        if direct != qnb(mats, malg, naive=True).value:
            return _fail("matrix commutator-pair resolution disagrees with naive sum")
        if direct != resolve_qnb4(*mats, malg):
            return _fail("matrix commutator resolution disagrees")
        if direct != naive_bracket(mats):
            return _fail("independent naive matrix oracle disagrees")
    return _pass("4-bracket resolution validated on phase and matrix algebras")


def _run_qn_02(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("QN-02")
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    lx, ly, lz = m.charge("Lx"), m.charge("Ly"), m.charge("Lz")
    casimir = star(lx, lx) + star(ly, ly) + star(lz, lz)
    pairs = []
    for _ in range(ctx.repeats(3)):
        a = random_phase(2, rng)
        lhs = qnb([a, lx, ly, lz], alg).value
        rhs = comm(a, casimir).times_ihbar(1)
        pairs.append(("[A,Lx,Ly,Lz] = i hbar [A, L.*L]", lhs, rhs))
    return _expect_equal(pairs)


def _run_qn_03(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("QN-03")
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    charges = [m.charge("Lx"), m.charge("Ly"), m.charge("Lz")]
    pairs = []
    for _ in range(ctx.repeats(2)):
        a = random_phase(2, rng, pdeg=1)
        b = random_phase(2, rng, pdeg=1)
        lhs = qnb([star(a, b)] + charges, alg).value
        rhs = star(a, qnb([b] + charges, alg).value) \
            + star(qnb([a] + charges, alg).value, b)
        pairs.append(("effective fundamental identity on products", lhs, rhs))
    return _expect_equal(pairs)


def _run_qn_04(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("QN-04")
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    charges = [m.charge("Lx"), m.charge("Ly"), m.charge("Lz")]
    pairs = []
    for _ in range(ctx.repeats(3)):
        f = random_phase(2, rng)
        lhs = qnb(charges + [f], alg).value \
            .divide_exact_hbar(2).scale_fraction(Fraction(1, 2))
        pairs.append(("WF evolution from the 4-bracket", lhs,
                      moyal(m.h_quantum, f)))
    return _expect_equal(pairs)


def _run_qn_05(ctx: RunContext) -> CheckOutcome:
    m = get_model("sphere:2")
    alg = phase_algebra(2)
    charges = [m.charge("Lx"), m.charge("Ly"), m.charge("Lz")]
    x = PhaseExpr.coord(2, 0)
    px = PhaseExpr.momentum(2, 0)
    # -(1/(2 hbar^2)) [v, Lx, Ly, Lz] equals 1/(2 (i hbar)^2) [v, ...]
    xdot = qnb([x] + charges, alg).value.divide_exact_hbar(2) \
        .scale_fraction(Fraction(1, 2))
    pdot = qnb([px] + charges, alg).value.divide_exact_hbar(2) \
        .scale_fraction(Fraction(1, 2))
    out = _expect_equal([
        ("dx/dt from 4-bracket equals mb(x,Hqm)", xdot, moyal(x, m.h_quantum)),
        ("dx/dt equals the classical pb(x,H)", xdot, poisson(x, m.h_classical)),
        ("dpx/dt from 4-bracket equals mb(px,Hqm)", pdot,
         moyal(px, m.h_quantum)),
    ])
    if out.status != "pass":
        return out
    if pdot.equals(poisson(px, m.h_classical)):
        return _fail("momentum evolution shows no quantum correction")
    return _pass("equations of motion reproduce the star-product evolution; "
                 "momentum picks up the quantum correction")


def _run_qn_06(ctx: RunContext) -> CheckOutcome:
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

        if trilinear([]) != casimir.times_ihbar(1).scale_fraction(6):
            return _fail(f"2j={two_j}: trilinear reduction to the Casimir fails")
        for _ in range(ctx.repeats(2)):
            a_mat = ExactMatrix.from_int_rows(
                [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
            lhs = trilinear([a_mat])
            rhs = mcomm(a_mat, casimir).times_ihbar(1).scale_fraction(6)
            if lhs != rhs:
                return _fail(f"2j={two_j}: f_abc[A,Qa,Qb,Qc] !="
                             " 3 i hbar c_adj [A, Q.Q]")
    return _pass("trilinear/Casimir reduction holds with c_adjoint = 2")


_QN07_NOTE = ("adopting L_a = (1/2) eps_abc L_bc (the isospin), so "
              "L_a + P_a and L_b - P_b are the right/left chiral charges")


def _run_qn_07(ctx: RunContext) -> CheckOutcome:
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
            rhs = rhs.times_hbar(5).times_i().scale_fraction(4)
            if not lhs.equals(rhs):
                return _fail(f"six-bracket of f_{a}{b} misses 4 i hbar^5 "
                             f"rotation ({_QN07_NOTE})", lhs - rhs)
            if not lhs.divisible_hbar(4):
                return _fail("six-bracket not of order hbar^4; classical "
                             "limit after /hbar^3 would not vanish")
    return _pass(f"all nine components give exactly 4 i hbar^5 rotations; "
                 f"/hbar^3 vanishes as hbar -> 0 ({_QN07_NOTE})")


def _run_qn_08(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("QN-08")
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    lh, rh = half_charges(m)
    il = sum((star(c, c) for c in lh), PhaseExpr.zero(3))
    ir = sum((star(c, c) for c in rh), PhaseExpr.zero(3))
    cache = SubsetCache()
    cases = [("IL", il, 2), ("IR", ir, 2), ("IL*IR", star(il, ir), 1)]
    for name, inv, pdeg in cases:
        f = random_phase(3, rng, pdeg=pdeg, xdeg=1, terms=3, radical=False)
        lhs = qnb([f, inv, rh[0], rh[1], lh[0], lh[1]], alg, cache=cache).value
        comm_f_inv = comm(f, inv)
        mid = jordan([comm_f_inv, lh[2], rh[2]], alg).value.times_ihbar(2)
        if not lhs.equals(mid):
            return _fail(f"F={name}: bracket misses (i hbar)^2 {{[f,F],Lz,Rz}}",
                         lhs - mid)
        alt = jordan([f, lh[2], rh[2]], alg).value
        alt = comm(alt, inv).times_ihbar(2)
        if not lhs.equals(alt):
            return _fail(f"F={name}: bracket misses (i hbar)^2 [{{f,Lz,Rz}},F]",
                         lhs - alt)
    return _pass("six-bracket evolution holds for F = IL, IR, IL*IR")


def _run_qn_09(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("QN-09")
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    lh, rh = half_charges(m)
    lz, rz = lh[2], rh[2]
    anticomm = star(lz, rz) + star(rz, lz)
    pairs = []
    for _ in range(ctx.repeats(3)):
        f = random_phase(3, rng, pdeg=1, xdeg=1, terms=3)
        lhs = jordan([f, lz, rz], alg).value
        rhs = star(anticomm, f) + star(star(lz, f), rz) \
            + star(star(rz, f), lz) + star(f, anticomm)
        pairs.append(("jordan 3-product expansion", lhs, rhs))
    return _expect_equal(pairs)


def _sigma_of(lz: ExactMatrix, rz: ExactMatrix, row: int, col: int):
    from .poly import padd, pmul, pscale
    lam1, lam2 = lz.entry(row, row), lz.entry(col, col)
    rho1, rho2 = rz.entry(row, row), rz.entry(col, col)
    return padd(padd(pscale(pmul(lam1, rho1), (2, 0, 1)), pmul(lam1, rho2)),
                padd(pmul(rho1, lam2), pscale(pmul(lam2, rho2), (2, 0, 1))))


def _run_qn_10(ctx: RunContext) -> CheckOutcome:
    for two_j in (0, 1, 2):
        left, right = chiral_tensor_rep(two_j)
        d = (two_j + 1) ** 2
        alg = matrix_algebra(d)
        lz, rz = left[2], right[2]
        for row in range(d):
            for col in range(d):
                f = ExactMatrix.unit(d, row, col)
                sigma = _sigma_of(lz, rz, row, col)
                got = jordan([f, lz, rz], alg).value
                if got != ExactMatrix.unit(d, row, col, sigma):
                    return _fail(f"2j={two_j}: unit ({row},{col}) violates the "
                                 "sigma_12 spectrum")
    return _pass("sigma_12 = 2 l1 r1 + l1 r2 + r1 l2 + 2 l2 r2 on every "
                 "elementary unit, 2j <= 2")


def _run_qn_11(ctx: RunContext) -> CheckOutcome:
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

    def leibniz_gap(row, mid, col):
        f = ExactMatrix.unit(dim, row, mid)
        g = ExactMatrix.unit(dim, mid, col)
        lhs = qnb([f * g] + tail, alg, cache=cache).value
        rhs = f * qnb([g] + tail, alg, cache=cache).value \
            + qnb([f] + tail, alg, cache=cache).value * g
        return lhs - rhs

    equal_triples = [(0, 0, 0), (1, 1, 1), (6, 6, 6)]
    for trip in equal_triples:
        if not equal_sigmas(*trip):
            return _fail(f"triple {trip} was expected to have equal sigmas")
        if not leibniz_gap(*trip).is_zero():
            return _fail(f"leibniz rule fails despite equal sigmas on {trip}")
    violating = [(0, 5, 9), (1, 6, 3)]
    found = False
    for trip in violating:
        if equal_sigmas(*trip):
            continue
        if not leibniz_gap(*trip).is_zero():
            found = True
            break
    if not found:
        return _fail("no unequal-sigma counterexample violated the rule")
    return _pass("leibniz holds at sigma_12 = sigma_23 = sigma_13 and breaks "
                 "on an unequal-sigma product, as required")


def _triple_comms(g: PhaseExpr, u, w: PhaseExpr) -> PhaseExpr:
    """sum_i [[[g, u_i], u_i], w]."""
    total = PhaseExpr.zero(g.n)
    for ui in u:
        total = total + comm(comm(comm(g, ui), ui), w)
    return total


def _run_qn_12(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("QN-12")
    m = get_model("chiral-s3")
    alg = phase_algebra(3)
    lh, rh = half_charges(m)
    il = sum((star(c, c) for c in lh), PhaseExpr.zero(3))
    ir = sum((star(c, c) for c in rh), PhaseExpr.zero(3))

    cache = SubsetCache()
    pairs = []
    for _ in range(ctx.repeats(1)):
        f = random_phase(3, rng, pdeg=2, xdeg=1, terms=3, radical=False)
        for side, u, v, casimir in (("left", lh, rh, il), ("right", rh, lh, ir)):
            lhs = qnb([f, u[0], u[1], u[2], v[0], v[1]], alg, cache=cache).value
            term1 = comm(star(f, v[2]) + star(v[2], f), casimir)
            term2 = _triple_comms(f, u, v[2])
            rhs = (term1.scale_fraction(Fraction(3, 2))
                   + term2.scale_fraction(Fraction(1, 2))).times_ihbar(2)
            pairs.append((f"{side} orientation: 3/2 + 1/2 resolution", lhs, rhs))
    return _expect_equal(pairs)


def _run_qn_13(ctx: RunContext) -> CheckOutcome:
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
                got = _triple_comms(probe, u, v[2])
                if not got.equals(want):
                    return _fail(f"{side} triple commutators of f_{a + 1}{b + 1} "
                                 f"miss 2 i hbar^3 {rotation}", got - want)
                want = -rotated.times_hbar(5).times_i()
                got = qnb([probe, u[0], u[1], u[2], v[0], v[1]], alg,
                          cache=cache).value
                if not got.equals(want):
                    return _fail(f"{bracket} total for f_{a + 1}{b + 1} is not "
                                 f"-i hbar^5 {rotation}", got - want)
    return _pass("rotation coefficients 2 i hbar^3 and -i hbar^5 reproduced "
                 "for all nine components, both orientations")


def _run_os_01(ctx: RunContext) -> CheckOutcome:
    for n in (2, 3):
        for total in (1, 2, 3):
            stack = SectorStack(n, [total])
            mats = {(i, j): number_matrix(n, stack, i, j)
                    for i in range(1, n + 1) for j in range(1, n + 1)}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        for l in range(1, n + 1):
                            lhs = mcomm(mats[(i, j)], mats[(k, l)])
                            rhs = ExactMatrix.zeros(stack.dim)
                            if j == k:
                                rhs = rhs + mats[(i, l)].times_hbar(1)
                            if i == l:
                                rhs = rhs - mats[(k, j)].times_hbar(1)
                            if lhs != rhs:
                                return _fail(
                                    f"u({n}) closure fails at N{i}{j}, N{k}{l}"
                                    f" on the total={total} sector")
            expected = ExactMatrix.identity(stack.dim) \
                .times_hbar(1).scale_fraction(total)
            if total_number_matrix(n, stack) != expected:
                return _fail(f"sum of N_ii is not hbar*{total} on its sector")
    return _pass("u(n) closure and the sector label hold for n<=3, M<=3")


_OS_NOTE = ("probes act on stacked sectors (M, M+1): every bracket entry "
            "conserves the total number, so single-sector probes make both "
            "sides vanish identically")


def _run_os_02(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("OS-02")
    nontrivial = 0
    for n in (2, 3):
        for total in (1, 2, 3):
            stack = SectorStack(n, [total, total + 1])
            path = list(range(1, n + 1))
            for _ in range(ctx.repeats(5)):
                f = random_sector_matrix(stack, rng)
                if not oscillator_theorem_check(n, stack, f, path):
                    return _fail(f"theorem fails for n={n}, M={total}")
            alg = matrix_algebra(stack.dim)
            probe = qnb([f] + oscillator_bracket_entries(n, stack, path),
                        alg).value
            if not probe.is_zero():
                nontrivial += 1
    if nontrivial == 0:
        return _fail("every checked bracket vanished; the check was vacuous")
    return _pass(f"2n-bracket reduction holds with the exact hbar^(n-1) "
                 f"prefactor for n=2,3 and M=1,2,3 ({_OS_NOTE})")


def _run_os_03(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("OS-03")
    for n, total, path in ((2, 1, [2, 1]), (2, 2, [2, 1]),
                           (3, 1, [2, 3, 1]), (3, 2, [3, 1, 2])):
        stack = SectorStack(n, [total, total + 1])
        for _ in range(ctx.repeats(2)):
            f = random_sector_matrix(stack, rng)
            if not oscillator_theorem_check(n, stack, f, path):
                return _fail(f"permuted path {path} fails for n={n}, M={total}")
    return _pass("permuted index paths satisfy the same reduction")


def _run_os_04(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("OS-04")
    stack = SectorStack(2, [1, 2])
    alg = matrix_algebra(stack.dim)
    entries = oscillator_bracket_entries(2, stack, [1, 2])
    for _ in range(ctx.repeats(10)):
        f = random_sector_matrix(stack, rng)
        g = random_sector_matrix(stack, rng)
        lhs = qnb([f * g] + entries, alg).value
        rhs = f * qnb([g] + entries, alg).value \
            + qnb([f] + entries, alg).value * g
        if lhs != rhs:
            return _pass("found probes violating the naive product rule "
                         f"({_OS_NOTE})")
    return _fail("no witness of the product-rule failure appeared")


def _run_st_01(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("ST-01")
    w2 = PhaseExpr.w_function(2)
    for trial in range(ctx.repeats(50)):
        n = 1 if trial % 5 == 0 else 2
        f = random_phase(n, rng, pdeg=2, xdeg=1, terms=3)
        g = random_phase(n, rng, pdeg=2, xdeg=1, terms=3)
        h = random_phase(n, rng, pdeg=1, xdeg=1, terms=3)
        if n == 2 and trial % 7 == 0:
            g = g * w2
        lhs = star(star(f, g), h)
        rhs = star(f, star(g, h))
        if not lhs.equals(rhs):
            return _fail(f"associativity fails on trial {trial}", lhs - rhs)
    return _pass("associativity holds on every random triple")


def _run_st_02(ctx: RunContext) -> CheckOutcome:
    rng = ctx.rng("ST-02")
    pairs = []
    for _ in range(ctx.repeats(5)):
        n = rng.choice((1, 2))
        f = random_phase(n, rng, pdeg=2, xdeg=2, terms=3)
        g = random_phase(n, rng, pdeg=2, xdeg=2, terms=3)
        pairs.append(("star reduces to the pointwise product",
                      star(f, g).subst_hbar_zero(), (f * g).subst_hbar_zero()))
        pairs.append(("moyal reduces to poisson",
                      moyal(f, g).subst_hbar_zero(),
                      poisson(f, g).subst_hbar_zero()))
    return _expect_equal(pairs)


# -- catalog ---------------------------------------------------------------


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
           runner, params: str = ""):
    _CATALOG.append(IdentityCheck(id_, suite, description, paper_ref, runner,
                                  params))


_entry("S2-01", "s2", "so(3) closure of the sphere charges",
       '§2, "close into the expected so(3)"', _run_s2_01, "signs=+,-")
_entry("S2-02", "s2", "Moyal brackets collapse to Poisson brackets on charges",
       '§2, "MBs collapse to PBs"', _run_s2_02)
_entry("S2-03", "s2", "quantum correction (hbar^2/8)(1/(1-x^2-y^2) - 3)",
       '§2, "expose a quantum correction to"', _run_s2_03)
_entry("S2-04", "s2", "Hqm conserves the charges, H does not",
       '§2, "generates a symmetry-preserving time-evolution"', _run_s2_04)
_entry("S2-05", "s2", "ladder relation Lz*L+ - L+*Lz = hbar L+",
       '§2, "standard recursive ladder operations"', _run_s2_05)
_entry("S2-06", "s2", "Casimir rewrite L.*L = L+*L- + Lz*Lz - hbar Lz",
       '§2, "proportional to the ħ²l(l+1) spectrum"', _run_s2_06)
_entry("S2-07", "s2", "coordinates evolve classically, momenta do not",
       '§2, "quantum corrections to the classical equations"', _run_s2_07)
_entry("SN-01", "sn", "so(N+1) closure for N=3,4 and MB collapse",
       '§3, "usual angular and de Sitter momenta"', _run_sn_01, "N=3,4")
_entry("SN-02", "sn", "correction (hbar^2/8)(1/(1-q^2) - 1 - N(N-1))",
       '§3, "hence the quantum correction is"', _run_sn_02, "N=2,3,4")
_entry("SN-03", "sn", "metric and frame identities",
       '§3, "standard choices for the Vielbeine"', _run_sn_03, "N=2,3,4; both signs")
_entry("SN-04", "sn", "classical H = (pV)(Vp)/2",
       '§3, "The classical Hamiltonian equals"', _run_sn_04, "N=2,3")
_entry("SN-05", "sn", "current algebra omega^{a[jk]} p_a",
       '§3, "do not close among the Vielbein-currents"', _run_sn_05, "N=2,3")
_entry("SN-06", "sn", "Hqm - Hother = (hbar^2/8)(N-1)(1-2w-N)",
       '§3, "has less symmetry than H_qm"', _run_sn_06, "N=2,3")
_entry("SN-07", "sn", "mb(Hother,P_c) = hbar^2 q^c (N-1)(2w-1)/(4q^2)",
       '§3, "nor does it conserve the"', _run_sn_07, "N=2,3")
_entry("SN-08", "sn", "star-similarity transformation identities",
       '§3, "⋆-similarity transformation compensates"', _run_sn_08, "N=2,3")
_entry("CH-01", "chiral", "su(2) x su(2) closure of chiral charges",
       '§4, "closing into standard su(2)⊗su(2)"', _run_ch_01)
_entry("CH-02", "chiral", "axial and isospin combinations",
       '§4, "Axial and Isospin charges"', _run_ch_02)
_entry("CH-03", "chiral", "four equal forms of the quantum Hamiltonian",
       '§4, "symmetric quantum Hamiltonian is simpler"', _run_ch_03, "both signs")
_entry("CH-04", "chiral", "chiral correction (hbar^2/8)(1/(1-q^2) - 7)",
       '§4, "The quantum correction then amounts"', _run_ch_04)
_entry("CH-05", "chiral", "gnomonic correction (3/4)hbar^2(Q^2-1)",
       '§4 footnote, "inverse gnomonic Vielbein is polynomial"', _run_ch_05)
_entry("CH-06", "chiral", "correction from Christoffel and structure constants",
       '§4, "The quantum correction is now found"', _run_ch_06)
_entry("NB-01", "nb", "sphere evolution equals the invariant Jacobian",
       '§5.1, "to find the concise result"', _run_nb_01)
_entry("NB-02", "nb", "bracket of H with its invariants vanishes",
       '§5.1, "each term of this NB vanishes"', _run_nb_02)
_entry("NB-03", "nb", "3-sphere bracket with momentum prefactor (multiplied)",
       '§5.1, "One of several possible expressions"', _run_nb_03)
_entry("NB-04", "nb", "Leibniz rule of partial differentiation",
       '§5.1, "obey the Leibniz rule of partial"', _run_nb_04)
_entry("NB-05", "nb", "fundamental identity with an invariant prefactor",
       '§5.1, "so-called ``fundamental identity\'\'"', _run_nb_05, "N=1,2")
_entry("NB-06", "nb", "symplectic traces reduce brackets to Poisson brackets",
       '§5.1, "thereby taking symplectic traces"', _run_nb_06, "N=2,3")
_entry("NB-07", "nb", "Hamilton equations through the traced bracket",
       '§5.1, "admit an NB expression different"', _run_nb_07, "N=2,3")
_entry("QN-01", "qnb", "commutator resolution of the 4-bracket",
       '§5.2, "resolved into sums of products"', _run_qn_01)
_entry("QN-02", "qnb", "[A,Lx,Ly,Lz] = i hbar [A, L.*L]",
       '§5.2, "combinatoric identity relating 4 brackets"', _run_qn_02)
_entry("QN-03", "qnb", "effective fundamental identity on star products",
       '§5.2, "effective fundamental identity (EFI)"', _run_qn_03)
_entry("QN-04", "qnb", "WF evolution from the invariant 4-bracket",
       '§5.2, "time evolution of any WF"', _run_qn_04)
_entry("QN-05", "qnb", "equations of motion via -(1/2 hbar^2) 4-brackets",
       '§5.2, "in agreement with the ⋆-product"', _run_qn_05)
_entry("QN-06", "qnb", "trilinear invariant reduces to the Casimir",
       '§5.2, "Only a commutator with the trilinear"', _run_qn_06, "2j=1,2")
_entry("QN-07", "qnb", "six-bracket of f_ab gives 4 i hbar^5 rotations",
       '§5.2, "Explicitly we find" and "vanishes in the classical limit"',
       _run_qn_07, _QN07_NOTE)
_entry("QN-08", "qnb", "six-bracket equals (i hbar)^2 Jordan/commutator forms",
       '§5.2, "We find the simple result"', _run_qn_08, "F=IL,IR,IL*IR")
_entry("QN-09", "qnb", "Jordan 3-product expansion",
       '§5.2, "setting the time scales for"', _run_qn_09)
_entry("QN-10", "qnb", "sigma_12 spectrum on tensor representations",
       '§5.2, "time scale is indeed dynamical"', _run_qn_10, "2j<=2")
_entry("QN-11", "qnb", "Leibniz holds only at equal sigma eigenvalues",
       '§5.2, "will fail for products"', _run_qn_11)
_entry("QN-12", "qnb", "exact 3/2 + 1/2 six-bracket resolutions",
       '§5.2, "These are the exact results"', _run_qn_12, "both orientations")
_entry("QN-13", "qnb", "rotation coefficients 2 i hbar^3 and -i hbar^5",
       '§5.2, "but are just rotations of"', _run_qn_13, "all components")
_entry("OS-01", "oscillator", "u(n) closure of the bilinear charges",
       'Appendix, "realize the u(n) algebra"', _run_os_01, "n<=3, M<=3")
_entry("OS-02", "oscillator", "2n-bracket reduces to hbar^(n-1) halved forms",
       'Appendix, "reductio ad dimidium"', _run_os_02, _OS_NOTE)
_entry("OS-03", "oscillator", "permuted index paths give the same reduction",
       'Appendix footnote, "other Hamiltonian paths through the"', _run_os_03)
_entry("OS-04", "oscillator", "witnessed failure of the naive product rule",
       'Appendix, "does not satisfy the trivial Leibniz"', _run_os_04)
_entry("ST-01", "star", "associativity on random triples",
       '§2, "non-commutative but associative"', _run_st_01, "50 triples")
_entry("ST-02", "star", "classical limits of star and Moyal",
       '§2, "the MB reduces to the PB"', _run_st_02)


def catalog() -> List[IdentityCheck]:
    """All identity checks; ids unique, every entry constructible."""
    return list(_CATALOG)


SUITES = ("s2", "sn", "chiral", "nb", "qnb", "oscillator", "star")


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
    """Run the matching entries; deterministic content for a fixed seed."""
    entries = select_entries(suite, id_glob)
    ctx = RunContext(seed=seed, draws=draws)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda e: run_entry(e, ctx), entries))
    else:
        rows = [run_entry(e, ctx) for e in entries]
    return Report(suite or id_glob or "all", seed, rows)
