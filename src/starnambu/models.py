"""Model library: spheres in equatorial-disk coordinates, the chiral
3-sphere, and its gnomonic-coordinate variant.

Every model bundles exact charges, classical and quantum Hamiltonians, and
(where meaningful) frame-field geometry.  Conventions:

* sphere charges: P_a = sign * s * p_a and L_ab = x_a p_b - x_b p_a, with
  the dimension-2 aliases Lz = L12, Ly = P1, Lx = -P2;
* chiral charges: R_i = (q x p)_i + s p_i and L_i = (q x p)_i - s p_i,
  giving axial A = s p and isospin I = q x p as half sum/difference;
* frame fields: V^{ai} = delta_ai - x_a x_i (1 -+ s)/q**2 for spheres and
  V^{ai} = eps^{aib} x_b +- s delta^{ai} for the chiral 3-sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .brackets import star
from .errors import DomainError
from .phase import PhaseExpr

_EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
         (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}


def eps3(a: int, b: int, c: int) -> int:
    return _EPS3.get((a, b, c), 0)


def eps_sum(i: int, j: int, term, start):
    """start + sum_k eps_ijk term(k), calling term only where eps_ijk != 0."""
    total = start
    for k in range(3):
        e = eps3(i, j, k)
        if e:
            total = total + term(k) if e > 0 else total - term(k)
    return total


@dataclass(frozen=True)
class Geometry:
    """Frame-field data: indices are 0-based lists of PhaseExprs."""

    sign: str
    vielbein_upper: Tuple[Tuple[PhaseExpr, ...], ...]   # V^{ai}
    vielbein_lower: Optional[Tuple[Tuple[PhaseExpr, ...], ...]]  # V_a^i
    metric: Optional[Tuple[Tuple[PhaseExpr, ...], ...]]          # g_ab
    metric_inv: Optional[Tuple[Tuple[PhaseExpr, ...], ...]]      # g^{ab}
    w: Optional[PhaseExpr]


@dataclass(frozen=True)
class Model:
    name: str
    n: int
    sign: str
    charges: Dict[str, PhaseExpr]
    conserved: Tuple[str, ...]
    h_classical: PhaseExpr
    h_quantum: PhaseExpr
    geometry: Optional[Geometry]
    kind: str

    def charge(self, name: str) -> PhaseExpr:
        try:
            return self.charges[name]
        except KeyError:
            raise DomainError(f"model {self.name} has no charge {name}")


def _coords(n: int):
    return [PhaseExpr.coord(n, i) for i in range(n)]


def _momenta(n: int):
    return [PhaseExpr.momentum(n, i) for i in range(n)]


def frame_current(v, j: int) -> PhaseExpr:
    """The frame current sum_a p_a V^{aj} of the frame rows v (0-based j)."""
    n = len(v)
    cur = PhaseExpr.zero(n)
    for a in range(n):
        cur = cur + PhaseExpr.momentum(n, a) * v[a][j]
    return cur


def _hamiltonians(charges) -> Tuple[PhaseExpr, PhaseExpr]:
    """sum c*c/2 and sum star(c, c)/2 over the charges, in order."""
    half = Fraction(1, 2)
    h = hqm = PhaseExpr.zero(charges[0].n)
    for c in charges:
        h = h + (c * c).scale_fraction(half)
        hqm = hqm + star(c, c).scale_fraction(half)
    return h, hqm


def sphere_geometry(n: int, sign: str = "-") -> Geometry:
    """Frame fields V^{ai} = delta - x_a x_i (1 -+ s)/q2, metric, and w."""
    if sign not in ("+", "-"):
        raise DomainError("vielbein sign must be '+' or '-'")
    x = _coords(n)
    one = PhaseExpr.one(n)
    s = PhaseExpr.radical_s(n)
    q2 = PhaseExpr.zero(n)
    for xi in x:
        q2 = q2 + xi * xi
    r = one - q2
    wfun = (one - s) / q2 if sign == "-" else (one + s) / q2
    upper = []
    lower = []
    for a in range(n):
        up_row = []
        low_row = []
        for i in range(n):
            delta = one if a == i else PhaseExpr.zero(n)
            up_row.append(delta - x[a] * x[i] * wfun)
            # V_a^i = delta - x_a x_i (1 -+ 1/s)/q2, with 1/s = s/(1 - q2)
            inner = one - s / r if sign == "-" else one + s / r
            low_row.append(delta - (x[a] * x[i] * inner) / q2)
        upper.append(tuple(up_row))
        lower.append(tuple(low_row))
    metric = tuple(tuple((one if a == b else PhaseExpr.zero(n)) + (x[a] * x[b]) / r
                         for b in range(n)) for a in range(n))
    metric_inv = tuple(tuple((one if a == b else PhaseExpr.zero(n)) - x[a] * x[b]
                             for b in range(n)) for a in range(n))
    return Geometry(sign, tuple(upper), tuple(lower), metric, metric_inv,
                    PhaseExpr.w_function(n))


def build_sphere(n: int, sign: str = "+") -> Model:
    """Free particle on the unit n-sphere over the equatorial disk."""
    if n < 2:
        raise DomainError("sphere models need dimension at least 2")
    if sign not in ("+", "-"):
        raise DomainError("hemisphere sign must be '+' or '-'")
    x = _coords(n)
    p = _momenta(n)
    s = PhaseExpr.radical_s(n)
    sig = 1 if sign == "+" else -1
    charges: Dict[str, PhaseExpr] = {}
    conserved: List[str] = []
    for a in range(n):
        charges[f"P{a + 1}"] = (s * p[a]).scale_fraction(sig)
        conserved.append(f"P{a + 1}")
    for a in range(n):
        for b in range(a + 1, n):
            charges[f"L{a + 1}{b + 1}"] = x[a] * p[b] - x[b] * p[a]
            conserved.append(f"L{a + 1}{b + 1}")
    h, hqm = _hamiltonians([charges[name] for name in conserved])
    charges["H"] = h
    charges["Hqm"] = hqm
    if n == 2:
        charges["Lz"] = charges["L12"]
        charges["Ly"] = charges["P1"]
        charges["Lx"] = -charges["P2"]
    if n == 3:
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            lo, hi = min(j, k), max(j, k)
            base = charges[f"L{lo + 1}{hi + 1}"]
            charges[f"I{i + 1}"] = base if (j, k) == (lo, hi) else -base
    return Model(f"sphere:{n}:{sign}", n, sign, charges, tuple(conserved),
                 h, hqm, sphere_geometry(n, "-"), "sphere")


def chiral_dreibein(sign: str) -> Tuple[Tuple[PhaseExpr, ...], ...]:
    """V^{ai} = eps^{aib} x_b +- s delta^{ai} on the 3-sphere."""
    n = 3
    x = _coords(n)
    s = PhaseExpr.radical_s(n)
    sig = 1 if sign == "+" else -1
    rows = []
    for a in range(n):
        row = []
        for i in range(n):
            entry = eps_sum(a, i, lambda b: x[b], PhaseExpr.zero(n))
            if a == i:
                entry = entry + s.scale_fraction(sig)
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


def build_chiral_s3() -> Model:
    """3-sphere in chiral form: commuting left and right su(2) charges."""
    n = 3
    x = _coords(n)
    p = _momenta(n)
    s = PhaseExpr.radical_s(n)
    charges: Dict[str, PhaseExpr] = {}
    iso = []
    axial = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        iso.append(x[j] * p[k] - x[k] * p[j])
        axial.append(s * p[i])
    for i in range(3):
        charges[f"I{i + 1}"] = iso[i]
        charges[f"A{i + 1}"] = axial[i]
        charges[f"R{i + 1}"] = iso[i] + axial[i]
        charges[f"Lch{i + 1}"] = iso[i] - axial[i]
    h, hqm = _hamiltonians([charges[f"Lch{i}"] for i in (1, 2, 3)])
    ir = PhaseExpr.zero(n)
    for i in (1, 2, 3):
        ir = ir + star(charges[f"R{i}"], charges[f"R{i}"])
    charges["IL"] = hqm.scale_fraction(2)
    charges["IR"] = ir
    charges["H"] = h
    charges["Hqm"] = hqm
    base = sphere_geometry(n, "-")
    geometry = Geometry("+", chiral_dreibein("+"), None, base.metric,
                        base.metric_inv, PhaseExpr.w_function(n))
    conserved = tuple([f"R{i}" for i in (1, 2, 3)]
                      + [f"Lch{i}" for i in (1, 2, 3)]
                      + [f"I{i}" for i in (1, 2, 3)]
                      + [f"A{i}" for i in (1, 2, 3)] + ["IL", "IR"])
    return Model("chiral-s3", n, "+", charges, conserved, h, hqm, geometry,
                 "chiral")


def half_charges(model: Model):
    """Chiral charges scaled to [X_i, X_j]* = i hbar eps_ijk X_k."""
    if model.kind != "chiral":
        raise DomainError("half-normalized charges exist on the chiral model")
    lh = [model.charge(f"Lch{i}").scale_fraction(Fraction(1, 2)) for i in (1, 2, 3)]
    rh = [model.charge(f"R{i}").scale_fraction(Fraction(1, 2)) for i in (1, 2, 3)]
    return lh, rh


def build_gnomonic_s3() -> Model:
    """Chiral 3-sphere in gnomonic coordinates: polynomial frame field."""
    n = 3
    x = _coords(n)
    rows = []
    for a in range(n):
        row = []
        for j in range(n):
            entry = PhaseExpr.zero(n)
            if a == j:
                entry = entry + PhaseExpr.one(n)
            entry = entry + x[j] * x[a]
            row.append(eps_sum(j, a, lambda b: x[b], entry))
        rows.append(tuple(row))
    vielbein = tuple(rows)
    currents = [frame_current(vielbein, i) for i in range(3)]
    charges = {f"J{i + 1}": cur for i, cur in enumerate(currents)}
    h, hqm = _hamiltonians(currents)
    charges["H"] = h
    charges["Hqm"] = hqm
    metric_inv = tuple(tuple(sum((vielbein[a][i] * vielbein[b][i]
                                  for i in range(3)), PhaseExpr.zero(n))
                             for b in range(3)) for a in range(3))
    geometry = Geometry("+", vielbein, None, None, metric_inv, None)
    return Model("gnomonic-s3", n, "+", charges,
                 ("J1", "J2", "J3"), h, hqm, geometry, "gnomonic")


def h_other(model: Model) -> PhaseExpr:
    """Frame-ordered Hamiltonian (p V) * (V p)/2 with the sphere frame."""
    if model.kind != "sphere":
        raise DomainError("h_other is defined for sphere models")
    n = model.n
    total = PhaseExpr.zero(n)
    for i in range(n):
        cur = vielbein_current(model, i)
        total = total + star(cur, cur)
    return total.scale_fraction(Fraction(1, 2))


def vielbein_current(model: Model, j: int) -> PhaseExpr:
    """The frame current V^{aj} p_a (0-based j) of the model's geometry."""
    return frame_current(model.geometry.vielbein_upper, j)


def current_algebra_omega(model: Model, j: int, k: int) -> PhaseExpr:
    """omega^{a[jk]} p_a = (delta^{aj} x^k - delta^{ak} x^j) w p_a, 0-based."""
    if model.kind != "sphere":
        raise DomainError("the current algebra form is for sphere models")
    n = model.n
    if not (0 <= j < n and 0 <= k < n):
        raise DomainError("current index out of range")
    x = _coords(n)
    p = _momenta(n)
    w = model.geometry.w
    return (x[k] * p[j] - x[j] * p[k]) * w


def similarity_identities(model: Model):
    """The star-similarity relations compensating the frame ordering.

    Returns (label, lhs, rhs) triples: conjugating the frame current by
    w**(+-(N-1)/2) shifts it by -+ (i hbar/2)(N-1) V^{aj} d_a ln w, and the
    sandwiched product of dressed currents rebuilds the symmetric quantum
    Hamiltonian.
    """
    if model.kind != "sphere":
        raise DomainError("similarity identities are for sphere models")
    n = model.n
    one = PhaseExpr.one(n)
    s = PhaseExpr.radical_s(n)
    w = model.geometry.w
    v = model.geometry.vielbein_upper
    w_pow = w ** (n - 1)
    w_inv_pow = (one + s) ** (n - 1)
    w_inv_sq = (one + s) ** (2 * (n - 1))
    out = []
    hqm_sum = PhaseExpr.zero(n)
    for j in range(n):
        cur = vielbein_current(model, j)
        shift = PhaseExpr.zero(n)
        for a in range(n):
            dlnw = w.diff_x(a) * (one + s)
            shift = shift + v[a][j] * dlnw
        shift = shift.times_ihbar(1).scale_fraction(Fraction(n - 1, 2))
        lhs1 = star(w_inv_pow, cur * w_pow)
        out.append((f"conjugate-left j={j + 1}", lhs1, cur - shift))
        lhs2 = star(cur * w_pow, w_inv_pow)
        out.append((f"conjugate-right j={j + 1}", lhs2, cur + shift))
        dressed = cur * w_pow
        hqm_sum = hqm_sum + star(star(dressed, w_inv_sq), dressed)
    out.append(("sandwiched hamiltonian", hqm_sum.scale_fraction(Fraction(1, 2)),
                model.h_quantum))
    return out


def christoffel_contraction(model: Model) -> PhaseExpr:
    """Gamma^b_ac g^cd Gamma^a_bd for the Levi-Civita symbols of the metric."""
    if model.geometry.metric is None:
        raise DomainError(f"model {model.name} carries no metric")
    n = model.n
    g = model.geometry.metric
    ginv = model.geometry.metric_inv
    # Levi-Civita symbols Gamma^d_{ab} from the metric
    dg = [[[g[a][b].diff_x(c) for c in range(n)] for b in range(n)] for a in range(n)]
    gamma = [[[PhaseExpr.zero(n) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    half = Fraction(1, 2)
    for d in range(n):
        for a in range(n):
            for b in range(n):
                tot = PhaseExpr.zero(n)
                for c in range(n):
                    tot = tot + ginv[d][c] * (dg[c][b][a] + dg[a][c][b] - dg[a][b][c])
                gamma[d][a][b] = tot.scale_fraction(half)
    contraction = PhaseExpr.zero(n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    contraction = contraction + gamma[b][a][c] * ginv[c][d] * gamma[a][b][d]
    return contraction


def fab(model: Model, a: int, b: int, variant: str = "cartesian") -> PhaseExpr:
    """Bilinear probes of the rotation identities, 1-based indices.

    cartesian: (I_a + P_a) * (I_b - P_b) with P the de Sitter momenta
    (equal to the axial charges) and I the isospin; chiral: Lch_a * R_b.
    """
    if model.kind != "chiral":
        raise DomainError("fab is defined on the chiral model")
    if not (1 <= a <= 3 and 1 <= b <= 3):
        raise DomainError("fab indices must lie in 1..3")
    if variant == "cartesian":
        left = model.charge(f"I{a}") + model.charge(f"A{a}")
        right = model.charge(f"I{b}") - model.charge(f"A{b}")
        return star(left, right)
    if variant == "chiral":
        return star(model.charge(f"Lch{a}"), model.charge(f"R{b}"))
    raise DomainError("variant must be 'cartesian' or 'chiral'")


_MODEL_CACHE: Dict[str, Model] = {}


def canonical_model_names() -> Tuple[str, ...]:
    return ("sphere:2", "sphere:3", "sphere:4", "chiral-s3", "gnomonic-s3")


def get_model(name: str) -> Model:
    """Resolve a registry name: sphere:N[:+|-], chiral-s3, gnomonic-s3.
    Cached by canonical name, so every spelling gives the same object."""
    key = name.strip()
    parts = key.split(":")
    if parts[0] == "sphere":
        if not 2 <= len(parts) <= 3:
            raise DomainError("sphere models are named sphere:N[:+|-]")
        try:
            n = int(parts[1])
        except ValueError:
            raise DomainError(f"bad sphere dimension {parts[1]!r}")
        sign = parts[2] if len(parts) > 2 else "+"
        key = f"sphere:{n}:{sign}"
        build = lambda: build_sphere(n, sign)
    elif key == "chiral-s3":
        build = build_chiral_s3
    elif key == "gnomonic-s3":
        build = build_gnomonic_s3
    else:
        raise DomainError(f"unknown model {name!r}")
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = build()
    return _MODEL_CACHE[key]
