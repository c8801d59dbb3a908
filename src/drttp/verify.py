"""Named verification checks driving the acceptance suite and the CLI.

Every check returns CheckResult records carrying the tolerance it was
tested against; the full battery cross-validates each closed-form claim
against an independent numerical route.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import core, errors, oracle, spectral, susy, wavefunction
from .core import RayIdentifiers, TangentPoly
from .errors import AvailabilityError, DomainError, PairRejectedError
from .spectral import Kind

# the acceptance grid: every (lambda_o, mu_o, z_T) of these values
GRID_POINTS = list(itertools.product((0.0, 0.5, 1.0, 2.0), (3.0, 5.0, 7.3), (2.0, -1.0)))
# two deep wells: 30 and 26 levels, degrees <= 29
HIGH_DEGREE_POINTS = [(0.3, 59.7, 2.0), (0.0, 52.0, -1.0)]
# a weakly bound level: lambda1 = 0.0143 at level 1, whose eigenfunction is
# still 2.4e-3 of its maximum at x = 404, past x = 354, where 1 - z rounds
# to 0
WEAK_POINTS = [(0.0, 3.0427321640114346, 2.0)]


@dataclass
class CheckResult:
    name: str
    tolerance: float
    measured: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured {self.measured:.3e} "
            f"(tol {self.tolerance:.1e}) {self.detail}"
        )


def _result(name, tol, measured, detail=""):
    return CheckResult(name, tol, float(measured), bool(measured <= tol), detail)


# ---------------------------------------------------------------------------
# map / gauge / schwarzian
# ---------------------------------------------------------------------------

def check_map() -> list[CheckResult]:
    out = []
    worst = 0.0
    for z_t in (2.0, -1.0, -0.5, 3.0):
        tp = TangentPoly(z_t)
        xs = np.linspace(-3.0, 3.0, 101)
        z, omz = core.map_x_to_z_pair(xs, tp)

        def central(h):
            # differentiate whichever edge distance is small; dz = -d(1-z)
            zp, op = core.map_x_to_z_pair(xs + h, tp)
            zm, om = core.map_x_to_z_pair(xs - h, tp)
            return np.where(z < 0.5, (zp - zm) / (2 * h), -(op - om) / (2 * h))

        h = 1e-4
        zp = (4.0 * central(h / 2) - central(h)) / 3.0
        lhs = zp**2 * core.tangent_poly_eval(z, tp)
        rhs = 4.0 * z**2 * omz**2
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    out.append(_result("map.ode-consistency", 1e-10, worst))

    tp2 = TangentPoly(2.0)
    xs = np.linspace(-12.0, 12.0, 301)
    fast = core.map_x_to_z(xs, tp2)
    gen = core._map_newton(xs, tp2)[0]  # the general-branch solver, bypassing the closed form
    out.append(_result("map.fastpath-vs-general", 1e-12,
                       float(np.max(np.abs(fast - gen)))))
    out.append(_result(
        "map.limits", 1e-12,
        max(abs(core.map_x_to_z(50.0, tp2) - 1.0), abs(core.map_x_to_z(-50.0, tp2))),
    ))
    return out


def _fd_schwarzian(x0: float, tp: TangentPoly, h: float) -> float:
    xs = x0 + h * np.arange(-2, 3)
    z = core.map_x_to_z(xs, tp)
    d1 = (z[0] - 8 * z[1] + 8 * z[3] - z[4]) / (12 * h)
    d2 = (-z[0] + 16 * z[1] - 30 * z[2] + 16 * z[3] - z[4]) / (12 * h**2)
    d3 = (-z[0] + 2 * z[1] - 2 * z[3] + z[4]) / (2 * h**3)
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def _schwarzian_eta(eta_hat):
    """Schwarzian {eta^, x} on the z_T = 2 branch; even in eta^."""
    eta_hat = np.asarray(eta_hat, dtype=float)
    out = -0.5 - 3.0 / eta_hat**2 + 1.5 / eta_hat**4
    return out if out.ndim else float(out)


def check_schwarzian() -> list[CheckResult]:
    out = []
    worst = 0.0
    for z_t, x0 in ((2.0, core.x_of_z(0.5, 0.5, TangentPoly(2.0))), (-1.0, 0.3), (-0.5, 0.7)):
        tp = TangentPoly(z_t)
        h = 4e-3
        fd = (4.0 * _fd_schwarzian(x0, tp, h / 2) - _fd_schwarzian(x0, tp, h)) / 3.0
        exact = core.schwarzian_eval(*core.map_x_to_z_pair(x0, tp), tp)
        worst = max(worst, abs(fd - exact))
    out.append(_result("schwarzian.fd-agreement", 1e-6, worst))

    etas = np.linspace(1.0, 9.0, 33)
    parity = float(np.max(np.abs(_schwarzian_eta(etas) - _schwarzian_eta(-etas))))
    out.append(_result("schwarzian.parity", 0.0, parity))
    # the limits at eta^ = 1 and inf, and the library's {z, x}: eta^ = 2/z - 1
    zs = np.linspace(0.02, 0.98, 49)
    vals = max(abs(_schwarzian_eta(1.0) + 2.0) + abs(_schwarzian_eta(1e8) + 0.5),
               float(np.max(np.abs(_schwarzian_eta(2.0 / zs - 1.0)
                                   - core.schwarzian_eval(zs, 1.0 - zs, TangentPoly(2.0))))))
    out.append(_result("schwarzian.eta-values", 1e-12, vals))
    return out


def check_gauge() -> list[CheckResult]:
    out = []
    worst = 0.0
    rng = np.random.RandomState(7)
    xq, _ = _gram_nodes()
    eh = core.eta_hat_of_x(xq)
    for _ in range(12):
        ri = RayIdentifiers(rng.uniform(0, 2.5), rng.uniform(0.5, 8.0))
        A, B, shift = core.dkv_map(ri)
        lhs = core.dkv_potential_eval(eh, A, B) - (A - B - 0.75)
        rhs = core.potential_eval_x(xq, ri, TangentPoly(2.0))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_result("gauge.dkv-identity", 1e-10, worst,
                       "on the Gram nodes (|x| <= 200)"))

    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    z, omz = core.map_x_to_z_pair(xq, tp)
    rel = max(_xz_gap(ri, tp, s, xq, z, omz) for s in spectral.spectrum(ri, tp))
    out.append(_result("gauge.xz-consistency", 1e-12, rel,
                       "per point on the Gram nodes (|x| <= 200), every level"))

    rng = np.random.RandomState(11)
    worst = 0.0
    for _ in range(50):
        ri = RayIdentifiers(rng.uniform(0, 2.0), rng.uniform(0.5, 8.0))
        tp = TangentPoly(float(rng.choice([rng.uniform(-3, -0.2), rng.uniform(1.2, 4)])))
        worst = max(worst, abs(core.potential_eval_z(1.0, 0.0, ri, tp)))
        want0 = ri.lambda_o**2 / tp.z_T**2
        worst = max(worst, abs(core.potential_eval_z(0.0, 1.0, ri, tp) - want0))
    out.append(_result("gauge.potential-endpoints", 1e-13, worst))

    # levelled reduction matches the asymmetric closed form after eta = 2z-1
    tp = TangentPoly(2.0)
    mu_o = 5.0
    zs = np.linspace(0.02, 0.98, 49)
    Aw = 4.0 * (mu_o**2 - 1.0)
    g = TangentPoly(2.0).gamma
    eta = 2.0 * zs - 1.0
    wl = (
        -Aw * (1 - eta**2) / (4 * (eta + g) ** 2)
        - eta * (1 - eta**2) / (eta + g) ** 3
        - 0.75 * (1 - eta**2) ** 2 / (eta + g) ** 4
    )
    mine = core.potential_eval_z(zs, 1.0 - zs, RayIdentifiers(0.0, mu_o), tp)
    out.append(_result("gauge.wl-reduction", 1e-12,
                       float(np.max(np.abs(wl - mine)))))
    return out


def _xz_gap(ri: RayIdentifiers, tp: TangentPoly, sol: spectral.AehSolution,
            xs, z, omz) -> float:
    """Worst relative gap between solution_eval_x at the points xs and
    (dz/dx)**(-1/2) aeh_eval composed on their pair (z, 1 - z), over the
    points where the x-gauge value is a normal float."""
    direct = wavefunction.solution_eval_x(xs, sol, ri, tp)
    composed = core.dz_dx(z, omz, tp) ** -0.5 * wavefunction.aeh_eval(z, omz, sol)
    normal = np.abs(direct) >= np.finfo(float).tiny
    return float(np.max(np.abs(composed[normal] / direct[normal] - 1.0)))


# ---------------------------------------------------------------------------
# cubics
# ---------------------------------------------------------------------------

def _cubic_coeffs(m: int, ri: RayIdentifiers, tp: TangentPoly,
                  lambda0: bool = False) -> tuple[float, float, float, float]:
    """Ascending coefficients of the paper's characteristic cubic in lambda1
    at degree m, or with ``lambda0`` of its companion in lambda0, which
    carries the same roots."""
    s = tp.sqrt_c0
    u = 2.0 * m + 1.0
    L = ri.lambda_o**2
    M = ri.mu_o**2
    if not lambda0:
        c3 = 8.0 * s * (1.0 - s) * u
        c2 = -4.0 * (s * (M - L - u * u) + L + (s * s - 1.0) * u * u)
        c1 = -4.0 * u * (M + L - u * u)
        c0 = (M - (ri.lambda_o - u) ** 2) * (M - (ri.lambda_o + u) ** 2)
    else:
        c3 = 8.0 * u * (s - 1.0)
        c2 = 4.0 * ((s * s + s - 1.0) * u * u + (s - 1.0) * L - s * M)
        c1 = -4.0 * u * (s * s * (M - u * u) - (s * s - 2.0 * s + 2.0) * L)
        c0 = (s * (M - u * u) + (2.0 - s) * L) ** 2 + 4.0 * L * u * u
    return (float(c0), float(c1), float(c2), float(c3))


def _cubic_eval(coeffs, lam: float) -> float:
    c0, c1, c2, c3 = coeffs
    return ((c3 * lam + c2) * lam + c1) * lam + c0


def _cubic_discriminant(coeffs) -> tuple[float, float, float]:
    """(delta0, delta1, 4 delta0**3 - delta1**2) of a cubic; the last is
    27 a**2 times its discriminant, a the leading coefficient."""
    d, c, b, a = coeffs
    delta0 = b * b - 3.0 * a * c
    delta1 = 2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d
    return delta0, delta1, 4.0 * delta0**3 - delta1**2


def _real_cubic_roots(coeffs) -> list[float]:
    """Real roots of a cubic, ascending, with multiplicity.

    Three real roots (a discriminant >= 0) come from the trigonometric form
    -(b + 2 sqrt(delta0) cos((theta - 2 pi k)/3))/(3a), k = 0, 1, 2, which
    also covers double and triple roots; a negative discriminant yields the
    single real root by the real Cardano branch.  Each root is polished
    with two Newton steps.
    """
    d, c, b, a = coeffs
    delta0, delta1, big = _cubic_discriminant(coeffs)
    if big >= 0.0:
        if delta0 <= 0.0:
            roots = [-b / (3.0 * a)] * 3
        else:
            arg = delta1 / (2.0 * delta0**1.5)
            theta = math.acos(min(1.0, max(-1.0, arg)))
            roots = [
                -(b + 2.0 * math.sqrt(delta0) * math.cos((theta - 2.0 * math.pi * k) / 3.0))
                / (3.0 * a)
                for k in range(3)
            ]
    else:
        sq = math.sqrt(-big)
        t = 0.5 * (delta1 + sq) if delta1 >= 0.0 else 0.5 * (delta1 - sq)
        Cr = math.copysign(abs(t) ** (1.0 / 3.0), t)
        roots = [-(b + Cr + delta0 / Cr) / (3.0 * a)] if Cr != 0.0 else [-b / (3.0 * a)]

    polished = []
    for r in roots:
        for _ in range(2):
            dp = (3.0 * a * r + 2.0 * b) * r + c
            if dp == 0.0:
                break
            r -= _cubic_eval(coeffs, r) / dp
        polished.append(float(r))
    return sorted(polished)


def _transfer(known: float, m: int, ri: RayIdentifiers, tp: TangentPoly,
              lambda0: bool = False) -> float | None:
    """The companion of one signed exponent difference: lambda0 from
    lambda1, or with ``lambda0`` lambda1 from lambda0.  None where the
    denominator known + 2m + 1 vanishes, the a/d-hyperbola double point,
    where only the companion cubic determines the root."""
    s = tp.sqrt_c0
    u = 2.0 * m + 1.0
    den = known + u
    if abs(den) <= 1e-9 * max(1.0, abs(known), u):
        return None
    if lambda0:
        num = ri.mu_o**2 - den**2 + (1.0 - 2.0 / s) * (known**2 - ri.lambda_o**2)
    else:
        num = ri.mu_o**2 - ri.lambda_o**2 + (1.0 - 2.0 * s) * known**2 - den**2
    return num / (2.0 * den)


def _quartic_residual(lam: float, m: int, ri: RayIdentifiers, tp: TangentPoly,
                      lambda0: bool = False) -> float:
    """Relative residual of the defining squared-difference quartic in
    lambda1, or with ``lambda0`` in lambda0."""
    s = tp.sqrt_c0
    u = 2.0 * m + 1.0
    L, M = ri.lambda_o**2, ri.mu_o**2
    if lambda0:
        t1 = tp.c0 * (M - (lam + u) ** 2 + (1 - 2 / s) * (lam**2 - L)) ** 2
        t2 = 4.0 * (lam**2 - L) * (lam + u) ** 2
    else:
        t1 = (L + (2 * s - 1) * lam**2 + (lam + u) ** 2 - M) ** 2
        t2 = 4.0 * (L + s * s * lam**2) * (lam + u) ** 2
    return abs(t1 - t2) / max(abs(t1), abs(t2), 1.0)


# random parameter draws of check_cubic
_CUBIC_DRAWS = 1000


def check_cubic() -> list[CheckResult]:
    rng = np.random.RandomState(42)
    sign_bad = 0
    cross_worst = 0.0
    quartic_worst = 0.0
    freeterm_bad = 0
    for _ in range(_CUBIC_DRAWS):
        ri = RayIdentifiers(rng.uniform(0, 2.5), rng.uniform(0.3, 9.0))
        z_t = float(rng.choice([rng.uniform(-3, -0.2), rng.uniform(1.2, 4.0)]))
        tp = TangentPoly(z_t)
        m = int(rng.randint(0, 4))
        s1 = _cubic_coeffs(m, ri, tp)
        s0 = _cubic_coeffs(m, ri, tp, lambda0=True)
        if np.sign(_cubic_discriminant(s1)[2]) != np.sign(_cubic_discriminant(s0)[2]):
            sign_bad += 1
        if s0[0] < 0.0:
            freeterm_bad += 1
        # each root of one cubic, transferred, is a root of the other
        for coeffs, other, lambda0 in ((s1, s0, False), (s0, s1, True)):
            for r in _real_cubic_roots(coeffs):
                quartic_worst = max(quartic_worst, _quartic_residual(r, m, ri, tp, lambda0))
                lam = _transfer(r, m, ri, tp, lambda0)
                if lam is None:
                    continue
                scale = max(abs(v) for v in other) * max(1.0, abs(lam)) ** 3
                cross_worst = max(cross_worst, abs(_cubic_eval(other, lam)) / scale)
    # spectrum() and basic_solutions() solve the radical equation; each level
    # and basic solution must still be a root of the paper's lambda1 cubic,
    # by residual over the sum of its terms
    level_worst, n_levels, n_basic = 0.0, 0, 0
    for lo, mo, zt in GRID_POINTS + HIGH_DEGREE_POINTS:
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        sols = spectral.spectrum(ri, tp)
        # a nonempty spectrum is Area A_0
        basics = list(spectral.basic_solutions(ri, tp).values()) if sols else []
        n_levels, n_basic = n_levels + len(sols), n_basic + len(basics)
        for sol in sols + basics:
            s1 = _cubic_coeffs(sol.m, ri, tp)
            terms = sum(abs(c) * abs(sol.lambda1) ** k for k, c in enumerate(s1))
            level_worst = max(level_worst, abs(_cubic_eval(s1, sol.lambda1)) / terms)
    return [
        _result("cubic.cross-consistency", 1e-8, cross_worst,
                f"{_CUBIC_DRAWS} draws"),
        _result("cubic.discriminant-sign", 0.5, float(sign_bad),
                "violation count"),
        _result("cubic.quartic-containment", 1e-8, quartic_worst),
        _result("cubic.freeterm-positivity", 0.5, float(freeterm_bad),
                "violation count"),
        _result("cubic.level-residual", 1e-12, level_worst,
                f"scaled residual, {n_levels} levels of the grid and degrees <= 29 "
                f"and {n_basic} basic solutions"),
    ]


def check_separatrix() -> list[CheckResult]:
    rng = np.random.RandomState(3)
    worst = 0.0
    for _ in range(60):
        m = int(rng.randint(0, 3))
        u = 2 * m + 1
        lam_o = rng.uniform(0.1, 2.0)
        z_t = float(rng.choice([rng.uniform(-3, -0.2), rng.uniform(1.2, 4.0)]))
        tp = TangentPoly(z_t)
        configs = [RayIdentifiers(lam_o, lam_o + u)]
        if u - lam_o > 0:
            configs.append(RayIdentifiers(lam_o, u - lam_o))
        for ri in configs:
            zero_root = min(_real_cubic_roots(_cubic_coeffs(m, ri, tp)), key=abs)
            lam0 = _transfer(zero_root, m, ri, tp)
            worst = max(worst, abs(zero_root), abs(abs(lam0) - lam_o))
    return [_result("cubic.zfe-separatrix", 1e-9, worst)]


# ---------------------------------------------------------------------------
# spectra vs the numerical oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OraclePoint:
    """The closed form against the oracle at one point.  ``count_ok``: the
    closed form, bound_state_count and the oracle give one count; the node
    counts (0..k-1) and errors are over the levels both have."""

    levels: tuple[float, ...]
    numeric: oracle.NumericSpectrum
    count_ok: bool
    node_ok: bool
    abs_errors: np.ndarray
    rel_errors: np.ndarray


# the wl, oracle and susy groups all solve (0, 5, 2): the cache holds every
# point of the oracle group, so each is solved once per battery; callers only
# read the record
@functools.lru_cache(maxsize=len(GRID_POINTS) + len(HIGH_DEGREE_POINTS) + len(WEAK_POINTS))
def oracle_point(ri: RayIdentifiers, tp: TangentPoly) -> OraclePoint:
    """The one place where the closed form meets the oracle.  The oracle's
    potential looks ``core.potential_eval_x`` up at each call."""
    levels = tuple(s.epsilon for s in spectral.spectrum(ri, tp))
    ns = oracle.solve_schrodinger(lambda x: core.potential_eval_x(x, ri, tp))
    n = min(len(levels), len(ns))
    abs_err = np.abs(np.array(levels[:n]) - ns.eigenvalues[:n])
    rel_err = abs_err / np.maximum(np.abs(levels[:n]), 1e-300)
    # every caller of the cache shares these arrays
    for arr in (abs_err, rel_err, ns.eigenvalues, ns.eigenvectors, ns.x, ns.convergence):
        arr.flags.writeable = False
    return OraclePoint(levels, ns, len(levels) == spectral.bound_state_count(ri) == len(ns),
                       ns.node_counts[:n] == list(range(n)), abs_err, rel_err)


def check_wl_point() -> list[CheckResult]:
    tol = 1e-6
    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    sols = spectral.spectrum(ri, tp)
    eps0 = -(((-6.0 + math.sqrt(804.0)) / 16.0) ** 2)
    eps1 = -(((-18.0 + math.sqrt(836.0)) / 16.0) ** 2)
    closed = max(abs(sols[0].epsilon - eps0), abs(sols[1].epsilon - eps1))
    out = [
        _result("wl.closed-form-levels", 1e-10, closed,
                "two levels vs quadratic-branch arithmetic"),
        _result("wl.level-count", 0.5, abs(len(sols) - 2)),
    ]
    rec = oracle_point(ri, tp)
    ok = rec.count_ok and len(rec.abs_errors)
    measured = float(np.max(rec.abs_errors)) if ok else math.inf
    out.append(_result("wl.oracle-agreement", tol, measured,
                       f"oracle {len(rec.numeric)} levels"))
    return out


def _vector_gap(ri: RayIdentifiers, tp: TangentPoly) -> float:
    """Worst gap between the closed-form eigenfunctions, unit L2 by
    ``solution_norm_sq`` and signed as the oracle's vector by their
    overlap, and every kept eigenvector of ``oracle_point(ri, tp)``, on the
    oracle's nodes, relative to the vector's largest value."""
    ns = oracle_point(ri, tp).numeric
    worst = 0.0
    for v, s in zip(ns.eigenvectors.T, spectral.spectrum(ri, tp)):
        psi = (wavefunction.solution_eval_x(ns.x, s, ri, tp)
               / math.sqrt(wavefunction.solution_norm_sq(s, tp)))
        if psi @ v < 0.0:
            psi = -psi
        worst = max(worst, float(np.abs(psi - v).max() / np.abs(v).max()))
    return worst


def check_oracle_grid() -> list[CheckResult]:
    points = GRID_POINTS + HIGH_DEGREE_POINTS
    recs = [oracle_point(RayIdentifiers(lo, mo), TangentPoly(zt)) for lo, mo, zt in points]
    count_bad = sum(not (r.count_ok and r.node_ok) for r in recs)
    worst = max(float(np.max(r.rel_errors, initial=0.0)) for r in recs)
    vectors = max(_vector_gap(RayIdentifiers(lo, mo), TangentPoly(zt))
                  for lo, mo, zt in points + WEAK_POINTS)
    return [
        _result("oracle.grid-counts", 0.5, float(count_bad),
                f"{len(points)} grid points, violation count"),
        _result("oracle.grid-levels", 1e-6, worst, "max relative error"),
        _result("oracle.eigenvectors", 1e-9, vectors,
                f"closed-form psi vs oracle vectors, {len(points + WEAK_POINTS)} points, "
                "every kept level, of the vector's maximum"),
    ]


# ---------------------------------------------------------------------------
# exact derivatives
# ---------------------------------------------------------------------------

def _log_power_jet(z, omz, z_T: float, exps):
    """(D ln w, D**2 ln w) of w = z**e0 (1 - z)**e1 s**eT on the pair
    (z, 1 - z), D = z (1 - z) d/dz, exps = (e0, e1, eT), s = (z - z_T) /
    (2 (1 - z_T)) > 0 the base of the Liouville weight (see
    core.GaugeRecord.log_weight).  No term divides by z or 1 - z."""
    e0, e1, eT = exps
    zr = z - z_T
    zo = z * omz
    return (e0 * omz - e1 * z + eT * zo / zr,
            zo * (eT * ((omz - z) - zo / zr) / zr - e0 - e1))


def _power_poly_jet(w, z, omz, z_T: float, exps, poly):
    """(f, D f, D**2 f) of f = w Pi, from the prefactor w of
    :func:`_log_power_jet` with exponents exps and poly = (Pi, Pi', Pi''),
    all at the points; D as there."""
    dlw, d2lw = _log_power_jet(z, omz, z_T, exps)
    zo = z * omz
    P, dP = poly[0], zo * poly[1]
    d2P = (omz - z) * dP + zo * zo * poly[2]
    return w * P, w * (dlw * P + dP), w * ((d2lw + dlw**2) * P + 2.0 * dlw * dP + d2P)


def _x_second(z, omz, tp: TangentPoly, f_D, f_DD):
    """f_xx from D f and D**2 f: d/dx = k D with k = 2 (1 - z_T)/(z - z_T)
    and D k = -k z (1 - z)/(z - z_T), so f_xx = k**2 (D**2 f - z (1 - z)
    D f/(z - z_T))."""
    zr = z - tp.z_T
    k = 2.0 * (1.0 - tp.z_T) / zr
    return k * k * (f_DD - z * omz / zr * f_D)


def _schrodinger_residual(ri: RayIdentifiers, tp: TangentPoly, sols, xs) -> float:
    """Worst max |-psi'' + (V - E) psi| / max |psi| over the levels sols at
    the points xs.  psi'' is exact: the polynomial factor's derivatives come
    from d/dz P_m^(alpha, beta) = (m + alpha + beta + 1)/2 P_(m-1)^(alpha+1, beta+1)
    (DLMF 18.9.15) through the Jacobi recurrence; psi and V are the
    library's evaluators, and the prefactor is the one ``solution_eval_x``
    forms from the grid's logs."""
    g = core.gauge_record(xs, tp)
    z, omz = g.z, g.omz
    V = core.potential_eval_x(xs, ri, tp)
    worst = 0.0
    for s in sols:
        m, (alpha, beta) = s.m, wavefunction.jacobi_parameters(s)
        poly, scale = [], 1.0
        for j in range(3):  # scale is 0 from j = m + 1 on
            poly.append(scale * wavefunction.hypergeom_poly_jacobi(
                max(m - j, 0), alpha + j, beta + j, z, omz))
            scale *= -(m - j) * (m + j + alpha + beta + 1.0) / (alpha + j + 1.0)
        exps = (0.5 * s.lambda0, 0.5 * s.lambda1, 0.5)
        w = wavefunction.powers(g.log_z, g.log_omz, *exps[:2], g.log_weight)
        _, f_D, f_DD = _power_poly_jet(w, z, omz, tp.z_T, exps, poly)
        psi = wavefunction.solution_eval_x(xs, s, ri, tp)
        res = -_x_second(z, omz, tp, f_D, f_DD) + (V - s.epsilon) * psi
        worst = max(worst, float(np.max(np.abs(res)) / np.max(np.abs(psi))))
    return worst


# ---------------------------------------------------------------------------
# eigenfunction suite
# ---------------------------------------------------------------------------

def _gram_nodes():
    """(x, weights) of the trapezoid rule on x = sinh(u), u uniform, |x| <= 200:
    geometric convergence for integrands that decay at both ends (Trefethen
    & Weideman, SIAM Rev. 56, 2014), which vanish at the ends here."""
    u, du = np.linspace(-math.asinh(200.0), math.asinh(200.0), 1000, retstep=True)
    return np.sinh(u), du * np.cosh(u)


def _gram_checks(ri, tp, sols, xq, wq) -> tuple[float, float, int]:
    """Worst |normalized Gram matrix - I| on the quadrature nodes, the worst
    relative gap between its diagonal and ``solution_norm_sq``, and the
    number of levels whose node count is not their index (an unconverged
    count is a miss)."""
    psis = np.stack([wavefunction.solution_eval_x(xq, s, ri, tp) for s in sols])
    gram = (psis * wq) @ psis.T
    closed = [wavefunction.solution_norm_sq(s, tp) for s in sols]
    norm_gap = float(np.max(np.abs(np.diag(gram) / closed - 1.0)))
    norm = np.sqrt(np.diag(gram))
    gram = gram / norm[:, None] / norm[None, :]
    misses = 0
    for n, s in enumerate(sols):
        try:
            nodes = wavefunction.count_nodes(
                lambda x, s=s: wavefunction.solution_eval_x(x, s, ri, tp),
                (-30.0, 30.0),
            )
        except errors.ConvergenceError:
            nodes = -1
        misses += nodes != n
    return float(np.max(np.abs(gram - np.eye(len(sols))))), norm_gap, misses


def _hypergeom_poly_eval(n: int, a: float, c: float, z) -> float:
    """Terminating hypergeometric sum F(-n, a; c; z), Kahan-compensated.

    Any parameters, but it cancels catastrophically at high degree: bound
    states use ``wavefunction.hypergeom_poly_jacobi``, checked against this
    sum in the flip form.  ``c`` may not be a nonpositive integer
    >= -(n-1): such values put a pole inside the truncated series.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if c <= 0.0 and abs(c - round(c)) < 1e-12 and round(c) >= -(n - 1):
        raise DomainError(f"c = {c} hits a Pochhammer pole within the sum")
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    term = np.ones_like(z)
    for k in range(n):
        term = term * ((-n + k) * (a + k)) / ((c + k) * (k + 1.0)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total if total.ndim else float(total)


def _hypergeom_flip_eval(z, sol: spectral.AehSolution):
    """Companion representation of the polynomial factor in 1/z.

    Equals F(-m, mu - m; lambda0 + 1; z) wherever both series are defined
    (terminating-series argument inversion), so it cross-checks the
    Jacobi recurrence.  The second parameter lambda1 - mu + m + 1 equals
    -lambda0 - m.
    """
    z = np.asarray(z, dtype=float)
    n = sol.m
    mu, lam0, lam1 = sol.mu, sol.lambda0, sol.lambda1
    ratio = wavefunction.pochhammer(1.0 - mu, n) / wavefunction.pochhammer(-lam0 - n, n)
    zhat = 1.0 / z
    out = (-z) ** n * ratio * _hypergeom_poly_eval(
        n, lam1 - mu + n + 1.0, 1.0 - mu, zhat
    )
    return out if out.ndim else float(out)


def check_eigenfunctions() -> list[CheckResult]:
    node_bad, gram_worst, norm_worst, resid_worst = 0, 0.0, 0.0, 0.0
    high_gram, high_misses = 0.0, 0
    xq, wq = _gram_nodes()
    for pt in GRID_POINTS + HIGH_DEGREE_POINTS:
        lo, mo, zt = pt
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        sols = spectral.spectrum(ri, tp)
        if not sols:
            continue
        gram, norm_gap, misses = _gram_checks(ri, tp, sols, xq, wq)
        norm_worst = max(norm_worst, norm_gap)
        resid_worst = max(resid_worst, _schrodinger_residual(ri, tp, sols, xq))
        if pt in HIGH_DEGREE_POINTS:
            high_gram, high_misses = max(high_gram, gram), high_misses + misses
        else:
            gram_worst, node_bad = max(gram_worst, gram), node_bad + misses
    out = [
        _result("eigenfunction.node-counts", 0.5, float(node_bad),
                "violation count"),
        _result("eigenfunction.orthogonality", 1e-7, gram_worst,
                "Gram residual"),
        _result("eigenfunction.schrodinger-residual", 1e-10, resid_worst,
                "exact psi'' on the Gram nodes (|x| <= 200), every level above, "
                "degrees <= 29 included"),
        _result("eigenfunction.high-degree-node-counts", 0.5,
                float(high_misses), "violation count, degrees <= 29"),
        _result("eigenfunction.high-degree-orthogonality", 1e-7,
                high_gram, "Gram residual, degrees <= 29"),
        _result("eigenfunction.norm-closed-form", 1e-10, norm_worst,
                "closed-form norm vs Gram diagonal, every level above"),
    ]

    # two-representation identity of the polynomial factor
    worst = 0.0
    ri = RayIdentifiers(1.0, 7.0)
    tp = TangentPoly(2.0)
    for sol in spectral.spectrum(ri, tp):
        if sol.m == 0:
            continue
        for z in (0.15, 0.3, 0.62, 0.9):
            a = wavefunction.hypergeom_poly_jacobi(sol.m, *wavefunction.jacobi_parameters(sol),
                                                   z, 1.0 - z)
            b = _hypergeom_flip_eval(z, sol)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    out.append(_result("eigenfunction.flip-identity", 1e-10, worst))
    return out


# ---------------------------------------------------------------------------
# SUSY partners
# ---------------------------------------------------------------------------

def _darboux_gap(spec: susy.PartnerSpec, tp: TangentPoly, xs) -> float:
    """Worst gap between the partner correction and -2 (ln W)'' at the points
    xs, exact by the chain rule.  W is the x-gauge FF
    s**(1/2) z**(l0/2) (1 - z)**(l1/2) for one step and, for two, the
    Wronskian of the pair's FFs, z**((l0 + l0')/2) (1 - z)**((l1 + l1')/2)
    times ((l0' - l0)(1 - z) - (l1' - l1) z)/2.  The log-derivatives are
    summed term by term: D**2 f/f - (D f/f)**2 would cancel the squares of
    the large power terms near either end."""
    z, omz = core.map_x_to_z_pair(xs, tp)
    if spec.steps == 1:
        (ff,) = spec.ff_kinds
        exps, dlp, d2lp = (0.5 * ff.lambda0, 0.5 * ff.lambda1, 0.5), 0.0, 0.0
    else:
        t, tq = spec.ff_kinds
        d0, d1 = tq.lambda0 - t.lambda0, tq.lambda1 - t.lambda1
        exps = (0.5 * (t.lambda0 + tq.lambda0), 0.5 * (t.lambda1 + tq.lambda1), 0.0)
        dlp = -(d0 + d1) * z * omz / (d0 * omz - d1 * z)  # D ln of the linear factor
        d2lp = (omz - z) * dlp - dlp**2
    dlw, d2lw = _log_power_jet(z, omz, tp.z_T, exps)
    log_xx = _x_second(z, omz, tp, dlw + dlp, d2lw + d2lp)
    correction = (1.0 - tp.z_T) ** 2 * susy.partner_correction_z(z, omz, spec, tp)
    return float(np.max(np.abs(correction + 2.0 * log_xx)))


def check_darboux() -> list[CheckResult]:
    tp = TangentPoly(2.0)
    basics = spectral.basic_solutions(RayIdentifiers(0.0, 5.0), tp)
    xs = np.linspace(-2.0, 2.5, 9)
    single = max(_darboux_gap(susy.single_partner_spec(ff, tp), tp, xs) for ff in basics.values())
    double = max(_darboux_gap(susy.double_partner_spec(basics[a], basics[b], tp), tp, xs)
                 for a, b in ((Kind.C, Kind.A), (Kind.D, Kind.A)))
    # general branch spot check
    tp2 = TangentPoly(-1.0)
    generic = max(_darboux_gap(susy.single_partner_spec(ff, tp2), tp2, (-0.8, 0.4, 1.6))
                  for ff in spectral.basic_solutions(RayIdentifiers(0.7, 4.0), tp2).values())
    return [
        _result("susy.darboux-identity", 1e-12, single, "single step, all three basic FFs"),
        _result("susy.crum-identity", 1e-12, double, "double step, both admissible pairs"),
        _result("susy.darboux-identity-generic", 1e-12, generic),
    ]


def _spectral_symmetric_difference(e1, e2, tol: float) -> tuple[list[float], list[float]]:
    """Greedy tolerance-window matching; returns the unmatched energies."""
    a = sorted(float(v) for v in e1)
    b = sorted(float(v) for v in e2)
    only_a, only_b = [], []
    i = j = 0
    while i < len(a) and j < len(b):
        if abs(a[i] - b[j]) <= tol:
            i += 1
            j += 1
        elif a[i] < b[j]:
            only_a.append(a[i])
            i += 1
        else:
            only_b.append(b[j])
            j += 1
    only_a.extend(a[i:])
    only_b.extend(b[j:])
    return only_a, only_b


def check_susy_surgery() -> list[CheckResult]:
    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    basics = spectral.basic_solutions(ri, tp)
    base_levels = list(oracle_point(ri, tp).numeric.eigenvalues)

    jobs = [(f"{k.value}0", susy.single_partner_spec(basics[k], tp))
            for k in (Kind.C, Kind.A, Kind.D)]
    jobs += [(f"{a.value}0+{b.value}0", susy.double_partner_spec(basics[a], basics[b], tp))
             for a, b in ((Kind.C, Kind.A), (Kind.D, Kind.A))]

    def run(job):
        label, spec = job
        V = susy.partner_potential_x(spec, ri, tp)
        ns = oracle.solve_schrodinger(V)
        only_base, only_partner = _spectral_symmetric_difference(
            base_levels, list(ns.eigenvalues), 1e-5
        )
        extraneous = [
            e for e in only_base + only_partner
            if min(abs(e - f) for f in spec.expected_spectral_delta) > 1e-5
        ]
        return label, extraneous

    results = [run(job) for job in jobs]
    bad = sum(len(e) for _, e in results)
    detail = "; ".join(f"{lbl}: ok" if not e else f"{lbl}: {e}" for lbl, e in results)
    out = [_result("susy.spectral-surgery", 0.5, float(bad), detail)]

    try:
        susy.double_partner_spec(basics[Kind.C], basics[Kind.D], tp)
        out.append(_result("susy.cd-pair-rejected", 0.5, 1.0, "gate failed"))
    except PairRejectedError:
        out.append(_result("susy.cd-pair-rejected", 0.5, 0.0))
    return out


def check_susy_algebra() -> list[CheckResult]:
    out = []
    worst_pole = 0.0
    worst_forms = 0.0
    worst_wronsk = 0.0
    worst_suzko = 0.0
    for (lo, mo, zt) in ((0.0, 5.0, 2.0), (0.6, 4.2, -1.0), (1.1, 6.5, 3.0)):
        ri = RayIdentifiers(lo, mo)
        tp = TangentPoly(zt)
        basics = spectral.basic_solutions(ri, tp)
        kinds = list(basics)
        for i, ka in enumerate(kinds):
            for kb in kinds[i + 1:]:
                t, tq = basics[ka], basics[kb]
                ztt = susy.outer_root_ztt(t, tq)
                # consistency of the two pair-root expressions
                alt = 1.0 - (tq.lambda1 - t.lambda1) / (tq.mu - t.mu)
                worst_pole = max(worst_pole, abs(ztt - alt))
                zs = np.linspace(0.08, 0.92, 7)
                # an algebraic identity, so the spec is built directly: the
                # admissibility gate of double_partner_spec does not apply
                spec = susy.PartnerSpec((t, tq), ztt)
                f1 = 4.0 * (2.0 * zs + spec.delta0)
                f2 = 4.0 * (2.0 * zs - (tq.mu - 1.0) * ztt + tq.lambda0 - 1.0)
                f3 = 4.0 * (2.0 * zs - (t.mu - 1.0) * ztt + t.lambda0 - 1.0)
                worst_forms = max(
                    worst_forms,
                    float(np.max(np.abs(f1 - f2))),
                    float(np.max(np.abs(f1 - f3))),
                )
                # Wronskian construction vs the closed first-order form
                for z0 in (0.25, 0.4, 0.77):
                    phi_t = wavefunction.aeh_eval(z0, 1.0 - z0, t)
                    phi_q = wavefunction.aeh_eval(z0, 1.0 - z0, tq)
                    dlog = (
                        (tq.lambda0 - t.lambda0) / (2 * z0)
                        - (tq.lambda1 - t.lambda1) / (2 * (1 - z0))
                    )
                    wronsk = phi_t * phi_q * dlog
                    sqrt_w = (tp.z_T - z0) / (2.0 * z0 * (1.0 - z0))
                    closed = susy.double_step_ff_eval(z0, 1.0 - z0, t, tq, tp)
                    worst_wronsk = max(
                        worst_wronsk,
                        abs(wronsk / (sqrt_w * phi_t) - closed) / max(1.0, abs(closed)),
                    )
                # reciprocal 2 z (1 - z)/((z - z_T) phi) of the first-order solution
                for z0 in (0.3, 0.66):
                    phi = susy.double_step_ff_eval(z0, 1.0 - z0, t, tq, tp)
                    rec = 2.0 * z0 * (1.0 - z0) / ((z0 - tp.z_T) * phi)
                    want = (
                        2.0 / (tq.mu - t.mu)
                        * math.sqrt(z0 * (1.0 - z0))
                        * z0 ** (-0.5 * tq.lambda0)
                        * (1.0 - z0) ** (-0.5 * tq.lambda1)
                        / (z0 - ztt)
                    )
                    worst_suzko = max(
                        worst_suzko, abs(rec - want) / max(1.0, abs(want))
                    )
    out.append(_result("susy.pair-root-consistency", 1e-12, worst_pole))
    out.append(_result("susy.delta-o1-forms", 1e-10, worst_forms))
    out.append(_result("susy.wronskian-identity", 1e-10, worst_wronsk))
    out.append(_result("susy.suzko-reciprocal", 1e-10, worst_suzko))
    return out


# ---------------------------------------------------------------------------
# Heun operators and polynomials
# ---------------------------------------------------------------------------

# the (FF, seed) pairs of check_heun take seeds of degree <= this
_HEUN_M_MAX = 5


def _heun_seed_pairs(ri: RayIdentifiers, tp: TangentPoly):
    basics = spectral.basic_solutions(ri, tp)
    gauges = susy.admissible_gauges(tp)
    for t0 in basics.values():
        for mp in range(_HEUN_M_MAX + 1):
            for seed in spectral.wl_solve(mp, ri.mu_o, tp):
                if mp == 0 and seed.kind == t0.kind:
                    continue
                # only seed types hosted by the exposed Gauss-seed gauges
                if susy.gauge_for_solution(seed) not in gauges:
                    continue
                yield t0, seed


def check_heun() -> list[CheckResult]:
    ri = RayIdentifiers(0.0, 5.0)
    resid_worst = 0.0
    fuchs_worst = 0.0
    class_worst = 0.0
    lw_worst = 0.0
    deg1_worst = 0.0
    order_worst = 0.0
    q0_worst = 0.0
    n_checked = 0
    for zt in (2.0, -1.0):
        tp = TangentPoly(zt)
        basics = spectral.basic_solutions(ri, tp)
        for t0, seed in _heun_seed_pairs(ri, tp):
            spec = susy.single_partner_spec(t0, tp)
            sigma = susy.gauge_for_solution(seed)
            op = susy.heun_operator(seed.epsilon, spec, sigma, ri, tp)
            poly = susy.heun_poly_construct(t0, seed, tp)
            n_checked += 1
            for z in np.linspace(0.12, 0.88, seed.m + 3).tolist():
                resid_worst = max(resid_worst, op.residual(*poly.jet(z, 1.0 - z), z))
            fuchs_worst = max(
                fuchs_worst,
                abs(op.alpha + op.beta - (2.0 * op.rho0 + 2.0 * op.rho1 - 3.0)),
            )
            class_worst = max(
                class_worst,
                min(abs(op.alpha + seed.m + 1.0), abs(op.beta + seed.m + 1.0)),
            )
            # quasi-algebraic kernels in the other admissible gauges
            for sigma2 in susy.admissible_gauges(tp):
                if sigma2 == sigma:
                    continue
                op2 = susy.heun_operator(seed.epsilon, spec, sigma2, ri, tp)
                e0, e1 = _lambe_ward_exponents(seed, sigma2)
                for z in (0.22, 0.58, 0.84):
                    lw_worst = max(
                        lw_worst, _lambe_ward_residual(op2, poly, e0, e1, z, tp)
                    )
        # degree-1 annihilation for all ordered basic pairs
        for ka in basics:
            for kb in basics:
                if ka == kb:
                    continue
                t, tq = basics[ka], basics[kb]
                spec = susy.single_partner_spec(t, tp)
                sig = susy.gauge_for_solution(tq)
                op = susy.heun_operator(tq.epsilon, spec, sig, ri, tp)
                ztt = susy.outer_root_ztt(t, tq)
                for z in (0.21, 0.55, 0.83):
                    num = abs(op.apply(z - ztt, 1.0, 0.0, z))
                    scale = max(abs(2.0 * op.b2(z)), abs(op.c1(z) * (z - ztt)), 1.0)
                    deg1_worst = max(deg1_worst, num / scale)
        # two-step operator keeps (alpha, beta) of the one-step problem
        t, tq = basics[Kind.C], basics[spectral.regular_kind(tp)]
        dspec = susy.double_partner_spec(t, tq, tp)
        sspec = susy.single_partner_spec(t, tp)
        for eps in (-0.3, -1.7, -4.2):
            for sig in susy.admissible_gauges(tp):
                o1 = susy.heun_operator(eps, sspec, sig, ri, tp)
                o2 = susy.heun_operator(eps, dspec, sig, ri, tp)
                order_worst = max(
                    order_worst,
                    abs(o1.alpha - o2.alpha),
                    abs(o1.beta - o2.beta),
                )
        # accessory parameter at zero energy, levelled limit
        t0 = basics[Kind.C]
        spec = susy.single_partner_spec(t0, tp)
        op0 = susy.heun_operator(0.0, spec, (1, 1, -1), ri, tp)
        o00 = ri.mu_o**2 - ri.lambda_o**2 + 1.0
        q_want = spec.outer_pole / 2.0 - 1.0 - spec.delta0 - spec.outer_pole * o00 / 4.0
        q0_worst = max(q0_worst, abs(op0.q - q_want))
    return [
        _result("heun.polynomial-residual", 1e-9, resid_worst,
                f"{n_checked} (FF, seed) pairs, degrees <= {_HEUN_M_MAX + 1}"),
        _result("heun.fuchs-sum", 1e-12, fuchs_worst,
                "alpha+beta vs 2(rho0+rho1)-3"),
        _result("heun.class-bookkeeping", 1e-9, class_worst,
                "alpha or beta equals -(m'+1)"),
        _result("heun.lambe-ward-residual", 1e-9, lw_worst),
        _result("heun.degree1-annihilation", 1e-10, deg1_worst),
        _result("heun.order-preservation", 1e-12, order_worst),
        _result("heun.q-at-zero-energy", 1e-12, q0_worst),
    ]


def _lambe_ward_exponents(t_prime: spectral.AehSolution,
                          sigma: tuple[int, int, int]) -> tuple[float, float]:
    """Exponents (e0, e1) of the quasi-algebraic kernel z^e0 (1-z)^e1 P(z)
    of the seed t' in the gauge sigma."""
    s0, s1, _ = sigma
    return (
        0.5 * (t_prime.lambda0 - s0 * abs(t_prime.lambda0)),
        0.5 * (t_prime.lambda1 - s1 * abs(t_prime.lambda1)),
    )


def _lambe_ward_residual(op: susy.HeunOperator, poly: susy.HeunPolynomial,
                         e0: float, e1: float, z: float, tp: TangentPoly) -> float:
    # z^e0 (1-z)^e1 P(z) and its two exact derivatives, from the Euler jet
    omz = 1.0 - z
    zo = z * omz
    w = float(wavefunction.powers(np.log(z), np.log(omz), e0, e1))
    f, f_D, f_DD = _power_poly_jet(w, z, omz, tp.z_T, (e0, e1, 0.0), poly.jet(z, omz))
    return op.residual(f, f_D / zo, (f_DD - (omz - z) * f_D) / zo**2, z)


# ---------------------------------------------------------------------------
# appendices
# ---------------------------------------------------------------------------

# seeded points of [-1.5, 2.5] at which _b2_factor_check samples the factorization
_B2_SAMPLES = 20


def _b2_poly(z, sol: spectral.AehSolution, tp: TangentPoly):
    """Quadratic [rho0 (z-1) + rho1 z](z - z_T) - z(z-1) built from one
    basic solution's exponents."""
    rho0 = 0.5 * (sol.lambda0 + 1.0)
    rho1 = 0.5 * (sol.lambda1 + 1.0)
    return (rho0 * (z - 1.0) + rho1 * z) * (z - tp.z_T) - z * (z - 1.0)


def _b2_factor_check(t: spectral.AehSolution, t1: spectral.AehSolution,
                     t2: spectral.AehSolution, tp: TangentPoly, seed: int
                     ) -> tuple[float, float, float]:
    """Factorization identity of the basic-solution quadratic: the max
    absolute difference between the quadratic built from the exponents of
    the basic solution t and (mu_t0 - 1)/2 (z - z_tt')(z - z_tt''), the
    zero-condition value at z_tt', and the exponent/mu consistency residual."""
    z_a = susy.outer_root_ztt(t, t1)
    z_b = susy.outer_root_ztt(t, t2)
    zs = np.random.RandomState(seed).uniform(-1.5, 2.5, _B2_SAMPLES)
    rhs = 0.5 * (t.mu - 1.0) * (zs - z_a) * (zs - z_b)
    mu_sq = tp.z_T**2 * (t1.mu**2 - t.mu**2) - (t1.lambda0**2 - t.lambda0**2)
    return (float(np.max(np.abs(_b2_poly(zs, t, tp) - rhs))),
            abs(float(_b2_poly(z_a, t1, tp))), abs(mu_sq))


# random parameter draws of check_appendix_a
_APPENDIX_A_DRAWS = 100


def check_appendix_a() -> list[CheckResult]:
    rng = np.random.RandomState(5)
    factor_worst = 0.0
    zero_worst = 0.0
    mulam_worst = 0.0
    done = 0
    while done < _APPENDIX_A_DRAWS:
        lam_o = rng.uniform(0.05, 2.2)
        mu_o = lam_o + 1.0 + rng.uniform(0.3, 5.0)
        z_t = float(rng.choice([rng.uniform(-2.5, -0.3), rng.uniform(1.3, 3.5)]))
        ri = RayIdentifiers(lam_o, mu_o)
        tp = TangentPoly(z_t)
        basics = spectral.basic_solutions(ri, tp)
        if len(basics) != 3:
            continue
        mus = sorted(s.mu for s in basics.values())
        if min(b - a for a, b in zip(mus, mus[1:])) < 0.1:
            continue
        factor, zero, mulam = _b2_factor_check(*basics.values(), tp, seed=done)
        factor_worst = max(factor_worst, factor)
        zero_worst = max(zero_worst, zero)
        mulam_worst = max(mulam_worst, mulam)
        done += 1
    return [
        _result("appendix-a.factorization", 1e-10, factor_worst,
                f"{_APPENDIX_A_DRAWS} draws in the m=0 discrete-spectrum area"),
        _result("appendix-a.zero-condition", 1e-12, zero_worst),
        _result("appendix-a.mu-lambda-consistency", 1e-10, mulam_worst),
    ]


def check_appendix_b() -> list[CheckResult]:
    mismatches = 0
    checked = 0
    for z_t in (2.0, -1.0):
        tp = TangentPoly(z_t)
        for mu_o in np.linspace(1.37, 17.21, 30):
            mu_o = float(mu_o)
            basics = {
                s.kind: s for s in spectral.wl_solve(0, mu_o, tp)
            }
            reg_kind = spectral.regular_kind(tp)
            for m in range(30):
                seed = spectral.wl_solve(m, mu_o, tp)[0]  # the linear-branch solution
                for kind in (reg_kind, Kind.C, Kind.D):
                    try:
                        pred = susy.nodeless_predicate(kind, m, mu_o, tp)
                    except AvailabilityError:
                        continue
                    ff = basics[Kind.C if kind is Kind.C else
                                (Kind.D if kind is Kind.D else reg_kind)]
                    poly = susy.heun_poly_construct(ff, seed, tp)
                    nodeless = poly.roots_in_01 == 0
                    checked += 1
                    if pred != nodeless:
                        mismatches += 1
    out = [_result("appendix-b.node-equivalence", 0.5, float(mismatches),
                   f"{checked} grid configurations, mismatch count")]

    # secondary branch turns permanently nodeless at large m
    tail_ok = True
    tp = TangentPoly(2.0)
    for kind in (Kind.A, Kind.C, Kind.D):
        vals = []
        for m in range(3, 40):
            try:
                vals.append(susy.nodeless_predicate(kind, m, 5.0, tp))
            except AvailabilityError:
                continue
        if not vals or not all(vals[len(vals) // 2:]):
            tail_ok = False
    out.append(_result("appendix-b.large-m-tail", 0.5, 0.0 if tail_ok else 1.0))
    return out


# ---------------------------------------------------------------------------
# constants, slopes, census
# ---------------------------------------------------------------------------

def _c00(lambda0: float, lambda1: float) -> float:
    """The constant (lambda0 + 1)(lambda1 + 1)/2 = 2 rho0 rho1."""
    return 0.5 * (lambda0 + 1.0) * (lambda1 + 1.0)


# relative spread of d across the basic kinds that _structure_constants admits
_STRUCTURE_TOL = 1e-8


def _structure_constants(ri: RayIdentifiers, tp: TangentPoly) -> tuple[float, float]:
    """(o00, d): o00 is the first-order-pole numerator of the reference
    fraction, d the unique constant making  8 rho0 rho1 + d epsilon = o00
    an identity on the basic solutions.

    The derivation solves that identity for d on each basic solution;
    inconsistency across the three kinds beyond a relative 1e-8 signals a
    convention bug upstream and raises.
    """
    o00 = ri.mu_o**2 - ri.lambda_o**2 + 1.0
    basics = spectral.basic_solutions(ri, tp)
    ds = []
    for sol in basics.values():
        rho0 = 0.5 * (sol.lambda0 + 1.0)
        rho1 = 0.5 * (sol.lambda1 + 1.0)
        if sol.epsilon == 0.0:
            continue
        ds.append((o00 - 8.0 * rho0 * rho1) / sol.epsilon)
    if not ds:
        raise AvailabilityError("no basic solution with nonzero energy")
    spread = max(ds) - min(ds)
    if spread > _STRUCTURE_TOL * max(1.0, abs(ds[0])):
        raise DomainError(
            f"structure-constant derivation inconsistent across kinds "
            f"(spread {spread:.3e})"
        )
    return o00, float(np.mean(ds))


def check_constants() -> list[CheckResult]:
    out = []
    rng = np.random.RandomState(9)
    worst = abs(_c00(2.0, 3.0) - _c00(-2.0, -3.0) - 5.0)
    for _ in range(200):
        l0, l1 = rng.uniform(-4, 4, 2)
        worst = max(worst, abs(_c00(l0, l1) - _c00(-l0, -l1) - (l0 + l1)))
    out.append(_result("constants.c00-identity", 1e-14, worst))

    d_worst = 0.0
    o00_chk = 0.0
    for (lo, mo, zt) in ((0.0, 5.0, 2.0), (0.8, 4.5, -1.0), (1.5, 7.3, 3.0)):
        ri = RayIdentifiers(lo, mo)
        tp = TangentPoly(zt)
        o00, d = _structure_constants(ri, tp)
        d_worst = max(d_worst, abs(d - (tp.a2 - tp.c0 - 1.0)))
        o00_chk = max(o00_chk, abs(o00 - (mo**2 - lo**2 + 1.0)))
    out.append(_result("constants.d-closed-form", 1e-8, d_worst,
                       "d = a2 - c0 - 1 from the basic-solution identity"))
    o00, d = _structure_constants(RayIdentifiers(0.0, 5.0), TangentPoly(2.0))
    out.append(_result("constants.d-at-zt2", 1e-8, abs(d + 4.0)))
    out.append(_result("constants.o00-value", 1e-12,
                       max(o00_chk, abs(o00 - 26.0))))
    return out


def check_tau() -> list[CheckResult]:
    worst_root = 0.0
    worst_pair = 0.0
    for zt in (2.0, -1.0, -0.4, 3.3):
        tp = TangentPoly(zt)
        s = tp.sqrt_c0
        # large-m slopes lambda ~ (m + 1/2) tau of the a'/b' tail, the primary
        # d tail and the relabeled d'' tail; tau0 = -/+ sqrt(c0) tau1
        t_lin = 1.0 / (2.0 * (s - 1.0))
        if tp.c0 > 1.0:
            t_d, t_tail = -1.0 / (2.0 * s), -0.5
        else:
            t_d, t_tail = -0.5, -1.0 / (2.0 * s)
        for t1, t0, sign in ((t_lin, -s * t_lin, -1.0), (t_d, s * t_d, 1.0),
                             (t_tail, s * t_tail, 1.0)):
            # each tau1 is a root of the slope cubic
            cubic = (8.0 * s * (1.0 - s) * t1**3 + 4.0 * (1.0 + s - s * s) * t1**2
                     + 4.0 * t1 + 1.0)
            worst_root = max(worst_root, abs(cubic))
            worst_pair = max(worst_pair, abs(t0 - sign * s * t1))
            # the companion-slope fraction, whose pole at t1 = -1 is removable
            if abs(t1 + 1.0) > 1e-6:
                frac = (-2.0 * s * t1 * t1 - 2.0 * t1 - 1.0) / (2.0 * (t1 + 1.0))
                worst_pair = max(worst_pair, abs(t0 - frac))
    out = [
        _result("tau.cubic-roots", 1e-12, worst_root),
        _result("tau.pair-relation", 1e-12, worst_pair),
    ]
    tp = TangentPoly(2.0)
    m = 10_000
    lim = spectral.wl_quadratic_discriminant(m, 5.0, tp) / (2 * m + 1) ** 2
    want = 4.0 * (tp.sqrt_c0 - 1.0) ** 2
    out.append(_result("tau.discriminant-limit", 0.01,
                       abs(lim - want) / want, "relative, m = 10^4"))
    return out


def check_census() -> list[CheckResult]:
    mism = 0
    checked = 0
    for z_t in list(np.linspace(-3.0, -0.15, 10)) + list(np.linspace(1.15, 4.0, 10)):
        tp = TangentPoly(float(z_t))
        for mu_o in np.linspace(1.41, 9.13, 20):
            ri = RayIdentifiers(0.0, float(mu_o))
            census = spectral.nodeless_census(ri, tp)
            n0 = spectral.bound_state_count(ri)
            for m in range(30):
                if 2 * m + 1 == ri.mu_o:
                    continue
                sols = spectral.wl_solve(m, ri.mu_o, tp)
                lin = [s for s in sols if s.kind in
                       (Kind.A, Kind.B, Kind.A_PRIME, Kind.B_PRIME)][0]
                nodeless = wavefunction.factor_roots_in_01(lin) == 0
                pred = (census.primary_nodeless(m) if m < n0
                        else census.supplementary_nodeless(m))
                checked += 1
                if pred != nodeless:
                    mism += 1
    return [_result("census.node-agreement", 0.5, float(mism),
                    f"{checked} configurations, mismatch count")]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECK_GROUPS = {
    "map": check_map,
    "schwarzian": check_schwarzian,
    "gauge": check_gauge,
    "cubic": check_cubic,
    "separatrix": check_separatrix,
    "wl": check_wl_point,
    "oracle": check_oracle_grid,
    "eigenfunction": check_eigenfunctions,
    "darboux": check_darboux,
    "susy": check_susy_surgery,
    "susy-algebra": check_susy_algebra,
    "heun": check_heun,
    "appendix-a": check_appendix_a,
    "appendix-b": check_appendix_b,
    "constants": check_constants,
    "tau": check_tau,
    "census": check_census,
}


def run_verification(only: str | None = None, timings: dict | None = None) -> list[CheckResult]:
    """Run the verification battery, or the groups whose names start with
    ``only`` (DrttpError if none does); ``timings``, if given, receives each
    group's wall seconds by name."""
    if only and not any(name.startswith(only) for name in CHECK_GROUPS):
        raise errors.DrttpError(f"no check group starts with {only!r}; "
                                f"the groups are {', '.join(CHECK_GROUPS)}")
    results = []
    for name, fn in CHECK_GROUPS.items():
        if only and not name.startswith(only):
            continue
        t0 = time.perf_counter()
        results.extend(fn())
        if timings is not None:
            timings[name] = time.perf_counter() - t0
    return results
