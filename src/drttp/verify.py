"""Named verification checks driving the acceptance suite and the CLI.

Every check returns CheckResult records carrying the tolerance it was
tested against; the full battery cross-validates each closed-form claim
against an independent numerical route.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import core, errors, oracle, spectral, susy, wavefunction
from .core import RayIdentifiers, TangentPoly
from .errors import AvailabilityError, PairRejectedError, TransferAmbiguityError
from .spectral import CubicVariable, Kind, TransferDirection

ORACLE_GRID = {
    "lambda_o": (0.0, 0.5, 1.0, 2.0),
    "mu_o": (3.0, 5.0, 7.3),
    "z_T": (2.0, -1.0),
}


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


def _result(name, tol, measured, detail="", strict=False):
    ok = measured < tol if strict else measured <= tol
    return CheckResult(name, tol, float(measured), bool(ok), detail)


def _max_workers() -> int:
    return min(4, os.cpu_count() or 1)


def _gl_nodes(a: float, b: float, n: int = 3000):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


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
            zp_l, _ = core.map_x_to_z_pair(xs + h, tp)
            zm_l, _ = core.map_x_to_z_pair(xs - h, tp)
            _, op_r = core.map_x_to_z_pair(xs + h, tp)
            _, om_r = core.map_x_to_z_pair(xs - h, tp)
            return np.where(
                z < 0.5, (zp_l - zm_l) / (2 * h), -(op_r - om_r) / (2 * h)
            )

        h = 1e-4
        zp = (4.0 * central(h / 2) - central(h)) / 3.0
        lhs = zp**2 * core.tangent_poly_eval(z, tp)
        rhs = 4.0 * z**2 * omz**2
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    out.append(_result("map.ode-consistency", 1e-10, worst))

    tp2 = TangentPoly(2.0)
    xs = np.linspace(-12.0, 12.0, 301)
    fast = core.map_x_to_z(xs, tp2)
    gen, _ = core._map_newton(xs, tp2)  # the general-branch solver, bypassing the closed form
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


def check_schwarzian() -> list[CheckResult]:
    out = []
    worst = 0.0
    for z_t, x0 in ((2.0, core.x_of_z(0.5, TangentPoly(2.0))), (-1.0, 0.3), (-0.5, 0.7)):
        tp = TangentPoly(z_t)
        h = 4e-3
        fd = (4.0 * _fd_schwarzian(x0, tp, h / 2) - _fd_schwarzian(x0, tp, h)) / 3.0
        exact = core.schwarzian_eval(core.map_x_to_z(x0, tp), tp, gauge="x")
        worst = max(worst, abs(fd - exact))
    out.append(_result("schwarzian.fd-agreement", 1e-6, worst))

    etas = np.linspace(1.0, 9.0, 33)
    parity = float(np.max(np.abs(core.schwarzian_eta(etas) - core.schwarzian_eta(-etas))))
    out.append(_result("schwarzian.parity", 0.0, parity, strict=False))
    vals = abs(core.schwarzian_eta(1.0) + 2.0) + abs(core.schwarzian_eta(1e8) + 0.5)
    out.append(_result("schwarzian.eta-values", 1e-12, vals))
    return out


def check_gauge() -> list[CheckResult]:
    out = []
    worst = 0.0
    rng = np.random.RandomState(7)
    for _ in range(12):
        ri = RayIdentifiers(rng.uniform(0, 2.5), rng.uniform(0.5, 8.0))
        A, B, shift = core.dkv_map(ri)
        xs = np.linspace(-18.0, 18.0, 1000)
        eh = core.eta_hat_of_x(xs)
        lhs = core.dkv_potential_eval(eh, A, B) - (A - B - 0.75)
        rhs = core.potential_eval_x(xs, ri, TangentPoly(2.0))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out.append(_result("gauge.dkv-identity", 1e-10, worst))

    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    sols = spectral.spectrum(ri, tp)
    xs = np.linspace(-6.0, 6.0, 41)
    z = core.map_x_to_z(xs, tp)
    direct = wavefunction.solution_eval_x(xs, sols[0], ri, tp)
    composed = core.dz_dx(z, tp) ** (-0.5) * wavefunction.aeh_eval(z, sols[0], ri, tp)
    rel = np.max(np.abs(direct - composed) / np.max(np.abs(direct)))
    out.append(_result("gauge.xz-consistency", 1e-12, float(rel)))

    rng = np.random.RandomState(11)
    worst = 0.0
    for _ in range(50):
        ri = RayIdentifiers(rng.uniform(0, 2.0), rng.uniform(0.5, 8.0))
        tp = TangentPoly(float(rng.choice([rng.uniform(-3, -0.2), rng.uniform(1.2, 4)])))
        worst = max(worst, abs(core.potential_eval_z(1.0, ri, tp)))
        want0 = ri.lambda_o**2 / tp.z_T**2
        worst = max(worst, abs(core.potential_eval_z(0.0, ri, tp) - want0))
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
    mine = core.potential_eval_z(zs, RayIdentifiers(0.0, mu_o), tp)
    out.append(_result("gauge.wl-reduction", 1e-12,
                       float(np.max(np.abs(wl - mine)))))
    return out


# ---------------------------------------------------------------------------
# cubics
# ---------------------------------------------------------------------------

def _quartic_residual(lam: float, m: int, ri: RayIdentifiers, tp: TangentPoly,
                      variable: CubicVariable) -> float:
    """Relative residual of the defining squared-difference quartic."""
    s = tp.sqrt_c0
    u = 2.0 * m + 1.0
    L, M = ri.lambda_o**2, ri.mu_o**2
    if variable is CubicVariable.LAMBDA0:
        t1 = tp.c0 * (M - (lam + u) ** 2 + (1 - 2 / s) * (lam**2 - L)) ** 2
        t2 = 4.0 * (lam**2 - L) * (lam + u) ** 2
    else:
        t1 = (L + (2 * s - 1) * lam**2 + (lam + u) ** 2 - M) ** 2
        t2 = 4.0 * (L + s * s * lam**2) * (lam + u) ** 2
    return abs(t1 - t2) / max(abs(t1), abs(t2), 1.0)


def check_cubic(n_draws: int = 1000, fault: str | None = None) -> list[CheckResult]:
    rng = np.random.RandomState(42)
    sign_bad = 0
    cross_worst = 0.0
    quartic_worst = 0.0
    freeterm_bad = 0
    for _ in range(n_draws):
        ri = RayIdentifiers(rng.uniform(0, 2.5), rng.uniform(0.3, 9.0))
        z_t = float(rng.choice([rng.uniform(-3, -0.2), rng.uniform(1.2, 4.0)]))
        tp = TangentPoly(z_t)
        m = int(rng.randint(0, 4))
        s1 = spectral.cubic_coeffs(m, ri, tp, CubicVariable.LAMBDA1)
        if fault == "cubic":
            scale = max(abs(v) for v in s1.coeffs)
            s1 = replace(s1, coeffs=(s1.coeffs[0] + 1e-3 * scale,) + s1.coeffs[1:])
        s0 = spectral.cubic_coeffs(m, ri, tp, CubicVariable.LAMBDA0)
        if np.sign(s1.discriminant) != np.sign(s0.discriminant):
            sign_bad += 1
        if s0.coeffs[0] < 0.0:
            freeterm_bad += 1
        for r in spectral.real_cubic_roots(s1):
            quartic_worst = max(
                quartic_worst, _quartic_residual(r, m, ri, tp, CubicVariable.LAMBDA1)
            )
            try:
                l0 = spectral.expdiff_transfer(
                    r, m, ri, tp, TransferDirection.LAMBDA1_TO_LAMBDA0
                )
            except TransferAmbiguityError:
                continue
            scale = max(abs(v) for v in s0.coeffs) * max(1.0, abs(l0)) ** 3
            cross_worst = max(cross_worst, abs(s0(l0)) / scale)
        for r in spectral.real_cubic_roots(s0):
            quartic_worst = max(
                quartic_worst, _quartic_residual(r, m, ri, tp, CubicVariable.LAMBDA0)
            )
            try:
                l1 = spectral.expdiff_transfer(
                    r, m, ri, tp, TransferDirection.LAMBDA0_TO_LAMBDA1
                )
            except TransferAmbiguityError:
                continue
            scale = max(abs(v) for v in s1.coeffs) * max(1.0, abs(l1)) ** 3
            cross_worst = max(cross_worst, abs(s1(l1)) / scale)
    return [
        _result("cubic.cross-consistency", 1e-8, cross_worst,
                f"{n_draws} draws"),
        _result("cubic.discriminant-sign", 0.5, float(sign_bad),
                "violation count"),
        _result("cubic.quartic-containment", 1e-8, quartic_worst),
        _result("cubic.freeterm-positivity", 0.5, float(freeterm_bad),
                "violation count"),
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
            spec = spectral.cubic_coeffs(m, ri, tp, CubicVariable.LAMBDA1)
            roots = spectral.real_cubic_roots(spec)
            zero_root = min(roots, key=abs)
            lam0 = spectral.expdiff_transfer(
                zero_root, m, ri, tp, TransferDirection.LAMBDA1_TO_LAMBDA0
            )
            worst = max(worst, abs(zero_root), abs(abs(lam0) - lam_o))
    return [_result("cubic.zfe-separatrix", 1e-9, worst)]


# ---------------------------------------------------------------------------
# spectra vs the numerical oracle
# ---------------------------------------------------------------------------

def _oracle_for(ri: RayIdentifiers, tp: TangentPoly):
    def V(x):
        return core.potential_eval_x(x, ri, tp)

    return oracle.solve_schrodinger(V)


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
    ns = _oracle_for(ri, tp)
    rep = oracle.compare_spectra([s.epsilon for s in sols], ns, tol)
    measured = float(np.max(rep.abs_errors)) if len(rep.abs_errors) else math.inf
    if not rep.count_match:
        measured = math.inf
    out.append(_result("wl.oracle-agreement", tol, measured,
                       f"oracle {len(ns)} levels"))
    return out


def check_oracle_grid() -> list[CheckResult]:
    tol = 1e-6
    points = [
        (lo, mo, zt)
        for lo in ORACLE_GRID["lambda_o"]
        for mo in ORACLE_GRID["mu_o"]
        for zt in ORACLE_GRID["z_T"]
    ]

    def run(pt):
        lo, mo, zt = pt
        ri = RayIdentifiers(lo, mo)
        tp = TangentPoly(zt)
        sols = spectral.spectrum(ri, tp)
        want = spectral.bound_state_count(mo, lo)
        ns = _oracle_for(ri, tp)
        rep = oracle.compare_spectra([s.epsilon for s in sols], ns, tol,
                                     relative=True)
        count_ok = len(sols) == want == len(ns)
        rel = float(np.max(rep.rel_errors)) if len(rep.rel_errors) else 0.0
        return count_ok and rep.node_match, rel

    with ThreadPoolExecutor(max_workers=_max_workers()) as ex:
        results = list(ex.map(run, points))
    worst = max(r[1] for r in results)
    count_bad = sum(0 if r[0] else 1 for r in results)
    return [
        _result("oracle.grid-counts", 0.5, float(count_bad),
                f"{len(points)} grid points, violation count"),
        _result("oracle.grid-levels", tol, worst, "max relative error"),
    ]


# ---------------------------------------------------------------------------
# eigenfunction suite
# ---------------------------------------------------------------------------

def _gram_and_node_misses(ri, tp, sols, xq, wq) -> tuple[float, int]:
    """Worst |normalized Gram matrix - I| on the quadrature nodes, and the
    number of levels whose node count is not their index (an unconverged
    count is a miss)."""
    psis = np.stack(
        [wavefunction.solution_eval_x(xq, s, ri, tp) for s in sols]
    )
    gram = (psis * wq) @ psis.T
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
    return float(np.max(np.abs(gram - np.eye(len(sols))))), misses


def check_eigenfunctions(full_grid: bool = True) -> list[CheckResult]:
    points = [
        (lo, mo, zt)
        for lo in ORACLE_GRID["lambda_o"]
        for mo in ORACLE_GRID["mu_o"]
        for zt in ORACLE_GRID["z_T"]
    ] if full_grid else [(0.0, 5.0, 2.0), (1.0, 7.3, -1.0)]
    node_bad = 0
    gram_worst = 0.0
    resid_worst = 0.0
    xq, wq = _gl_nodes(-35.0, 35.0, 3000)
    xs = np.linspace(-8.0, 8.0, 6401)
    for lo, mo, zt in points:
        ri = RayIdentifiers(lo, mo)
        tp = TangentPoly(zt)
        sols = spectral.spectrum(ri, tp)
        if not sols:
            continue
        gram, misses = _gram_and_node_misses(ri, tp, sols, xq, wq)
        gram_worst = max(gram_worst, gram)
        node_bad += misses
        for s in sols:
            psi = wavefunction.solution_eval_x(xs, s, ri, tp)
            psi = psi / np.max(np.abs(psi))
            resid_worst = max(
                resid_worst,
                oracle.residual_check(
                    psi, s.epsilon, lambda x: core.potential_eval_x(x, ri, tp), xs
                ),
            )
    high_gram, high_misses = 0.0, 0
    for lo, mo, zt in ((0.3, 59.7, 2.0), (0.0, 52.0, -1.0)):  # 30 and 26 levels
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        gram, misses = _gram_and_node_misses(ri, tp, spectral.spectrum(ri, tp), xq, wq)
        high_gram, high_misses = max(high_gram, gram), high_misses + misses
    out = [
        _result("eigenfunction.node-counts", 0.5, float(node_bad),
                "violation count"),
        _result("eigenfunction.orthogonality", 1e-7, gram_worst,
                "Gram residual"),
        _result("eigenfunction.schrodinger-residual", 1e-7, resid_worst),
        _result("eigenfunction.high-degree-node-counts", 0.5,
                float(high_misses), "violation count, degrees <= 29"),
        _result("eigenfunction.high-degree-orthogonality", 1e-7,
                high_gram, "Gram residual, degrees <= 29"),
    ]

    # two-representation identity of the polynomial factor
    worst = 0.0
    ri = RayIdentifiers(1.0, 7.0)
    tp = TangentPoly(2.0)
    for sol in spectral.spectrum(ri, tp):
        if sol.m == 0:
            continue
        for z in (0.15, 0.3, 0.62, 0.9):
            a = wavefunction._poly_eval(z, sol)
            b = wavefunction.hypergeom_flip_eval(z, sol)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    out.append(_result("eigenfunction.flip-identity", 1e-10, worst))
    return out


# ---------------------------------------------------------------------------
# SUSY partners
# ---------------------------------------------------------------------------

def _log_ff_x(x, sol, ri, tp):
    z, omz = core.map_x_to_z_pair(np.asarray(x, dtype=float), tp)
    return (
        0.5 * np.log((z - tp.z_T) / (2.0 * (1.0 - tp.z_T)))
        + 0.5 * sol.lambda0 * np.log(z)
        + 0.5 * sol.lambda1 * np.log(omz)
    )


def _log_wronskian_x(x, t, t_prime, tp):
    z, omz = core.map_x_to_z_pair(np.asarray(x, dtype=float), tp)
    lp = (
        np.log(z * omz)
        + 0.5 * (t.lambda0 + t_prime.lambda0) * np.log(z)
        + 0.5 * (t.lambda1 + t_prime.lambda1) * np.log(omz)
    )
    fac = (t_prime.lambda0 - t.lambda0) / (2.0 * z) - (
        t_prime.lambda1 - t.lambda1
    ) / (2.0 * omz)
    return lp + np.log(np.abs(fac))


def _fd_second(fn, x0: float, h: float) -> float:
    def stencil(hh):
        v = [fn(x0 + i * hh) for i in (-2, -1, 0, 1, 2)]
        return (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * hh * hh)

    return (16.0 * stencil(h / 2) - stencil(h)) / 15.0


def check_darboux(h_fd: float = 4e-3) -> list[CheckResult]:
    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    basics = spectral.basic_solutions(ri, tp)
    xs = np.linspace(-2.0, 2.5, 9)
    single_worst = 0.0
    for ff in basics.values():
        for x0 in xs:
            target = -2.0 * _fd_second(lambda x: _log_ff_x(x, ff, ri, tp), x0, h_fd)
            z0 = core.map_x_to_z(float(x0), tp)
            corr = (1.0 - tp.z_T) ** 2 * susy.single_partner_correction_z(z0, ff, tp)
            single_worst = max(single_worst, abs(corr - target))
    out = [_result("susy.darboux-identity", 1e-8, single_worst,
                   "single step, all three basic FFs")]

    double_worst = 0.0
    for pair in ((Kind.C, Kind.A), (Kind.D, Kind.A)):
        t, t_prime = basics[pair[0]], basics[pair[1]]
        for x0 in xs:
            target = -2.0 * _fd_second(
                lambda x: _log_wronskian_x(x, t, t_prime, tp), x0, h_fd
            )
            z0 = core.map_x_to_z(float(x0), tp)
            corr = (1.0 - tp.z_T) ** 2 * susy.double_partner_correction_z(
                z0, t, t_prime, tp
            )
            double_worst = max(double_worst, abs(corr - target))
    out.append(_result("susy.crum-identity", 1e-7, double_worst,
                       "double step, both admissible pairs"))

    # general branch spot check
    ri2 = RayIdentifiers(0.7, 4.0)
    tp2 = TangentPoly(-1.0)
    worst2 = 0.0
    for ff in spectral.basic_solutions(ri2, tp2).values():
        for x0 in (-0.8, 0.4, 1.6):
            target = -2.0 * _fd_second(lambda x: _log_ff_x(x, ff, ri2, tp2), x0, h_fd)
            z0 = core.map_x_to_z(float(x0), tp2)
            corr = (1.0 - tp2.z_T) ** 2 * susy.single_partner_correction_z(z0, ff, tp2)
            worst2 = max(worst2, abs(corr - target))
    out.append(_result("susy.darboux-identity-generic", 1e-8, worst2))
    return out


def check_susy_surgery() -> list[CheckResult]:
    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    basics = spectral.basic_solutions(ri, tp)
    base = _oracle_for(ri, tp)
    base_levels = list(base.eigenvalues)

    jobs = []
    for kind in (Kind.C, Kind.A, Kind.D):
        spec = susy.single_partner_spec(basics[kind], tp)
        jobs.append((f"{kind.value}0", spec))
    for pair in ((Kind.C, Kind.A), (Kind.D, Kind.A)):
        spec = susy.double_partner_spec(basics[pair[0]], basics[pair[1]], tp)
        jobs.append((f"{pair[0].value}0+{pair[1].value}0", spec))

    def run(job):
        label, spec = job
        V = susy.partner_potential_x(spec, ri, tp)
        ns = oracle.solve_schrodinger(V)
        only_base, only_partner = oracle.spectral_symmetric_difference(
            base_levels, list(ns.eigenvalues), 1e-5
        )
        extraneous = [
            e for e in only_base + only_partner
            if min(abs(e - f) for f in spec.expected_spectral_delta) > 1e-5
        ]
        return label, extraneous

    with ThreadPoolExecutor(max_workers=_max_workers()) as ex:
        results = list(ex.map(run, jobs))
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
                f1 = susy._delta_o1_double(zs, t, tq, ztt)
                f2 = 4.0 * (2.0 * zs - (tq.mu - 1.0) * ztt + tq.lambda0 - 1.0)
                f3 = 4.0 * (2.0 * zs - (t.mu - 1.0) * ztt + t.lambda0 - 1.0)
                worst_forms = max(
                    worst_forms,
                    float(np.max(np.abs(f1 - f2))),
                    float(np.max(np.abs(f1 - f3))),
                )
                # Wronskian construction vs the closed first-order form
                for z0 in (0.25, 0.4, 0.77):
                    phi_t = susy.basic_ff_eval(z0, t)
                    phi_q = susy.basic_ff_eval(z0, tq)
                    dlog = (
                        (tq.lambda0 - t.lambda0) / (2 * z0)
                        - (tq.lambda1 - t.lambda1) / (2 * (1 - z0))
                    )
                    wronsk = phi_t * phi_q * dlog
                    sqrt_w = (tp.z_T - z0) / (2.0 * z0 * (1.0 - z0))
                    closed = susy.double_step_ff_eval(z0, t, tq, tp)
                    worst_wronsk = max(
                        worst_wronsk,
                        abs(wronsk / (sqrt_w * phi_t) - closed) / max(1.0, abs(closed)),
                    )
                # reciprocal of the first-order solution
                for z0 in (0.3, 0.66):
                    rec = susy.suzko_reciprocal_eval(z0, t, tq, tp)
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

def _heun_seed_pairs(ri: RayIdentifiers, tp: TangentPoly, m_max: int):
    basics = spectral.basic_solutions(ri, tp)
    gauges = susy.admissible_gauges(tp)
    for t0 in basics.values():
        for mp in range(m_max + 1):
            for seed in spectral.wl_solve(mp, ri.mu_o, tp):
                if mp == 0 and seed.kind == t0.kind:
                    continue
                # only seed types hosted by the exposed Gauss-seed gauges
                if susy.gauge_for_solution(seed) not in gauges:
                    continue
                yield t0, seed


def check_heun(m_max: int = 5) -> list[CheckResult]:
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
        for t0, seed in _heun_seed_pairs(ri, tp, m_max):
            spec = susy.single_partner_spec(t0, tp)
            sigma = susy.gauge_for_solution(seed)
            op = susy.heun_operator(seed.epsilon, spec, sigma, ri, tp)
            poly = susy.heun_poly_construct(t0, seed, tp)
            n_checked += 1
            for z in np.linspace(0.12, 0.88, seed.m + 3):
                resid_worst = max(
                    resid_worst, susy.heun_poly_residual(op, poly, float(z))
                )
            fuchs_worst = max(
                fuchs_worst,
                abs(op.alpha_plus_beta - (2.0 * op.rho0 + 2.0 * op.rho1 - 3.0)),
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
                e0, e1 = susy.lambe_ward_exponents(seed, sigma2)
                for z in (0.22, 0.58, 0.84):
                    lw_worst = max(
                        lw_worst, _lambe_ward_residual(op2, poly, e0, e1, z)
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
        t, tq = basics[Kind.C], basics[Kind.A if zt > 1 else Kind.B]
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
                f"{n_checked} (FF, seed) pairs, degrees <= {m_max + 1}"),
        _result("heun.fuchs-sum", 1e-12, fuchs_worst,
                "alpha+beta vs 2(rho0+rho1)-3"),
        _result("heun.class-bookkeeping", 1e-9, class_worst,
                "alpha or beta equals -(m'+1)"),
        _result("heun.lambe-ward-residual", 1e-9, lw_worst),
        _result("heun.degree1-annihilation", 1e-10, deg1_worst),
        _result("heun.order-preservation", 1e-12, order_worst),
        _result("heun.q-at-zero-energy", 1e-12, q0_worst),
    ]


def _lambe_ward_residual(op: susy.HeunOperator, poly: susy.HeunPolynomial,
                         e0: float, e1: float, z: float) -> float:
    # analytic derivatives of z^e0 (1-z)^e1 P(z)
    P = poly(z)
    dP = float(polyval(z, poly.deriv_coeffs(1))) if poly.degree > 0 else 0.0
    d2P = float(polyval(z, poly.deriv_coeffs(2))) if poly.degree > 1 else 0.0
    w = z**e0 * (1.0 - z) ** e1
    dlw = e0 / z - e1 / (1.0 - z)
    d2lw = -e0 / z**2 - e1 / (1.0 - z) ** 2
    f = w * P
    df = w * (dlw * P + dP)
    d2f = w * ((d2lw + dlw**2) * P + 2.0 * dlw * dP + d2P)
    return op.residual(f, df, d2f, z)


# ---------------------------------------------------------------------------
# appendices
# ---------------------------------------------------------------------------

def check_appendix_a(n_draws: int = 100) -> list[CheckResult]:
    rng = np.random.RandomState(5)
    factor_worst = 0.0
    zero_worst = 0.0
    mulam_worst = 0.0
    done = 0
    while done < n_draws:
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
        kinds = list(basics)
        res = susy.b2_factor_check(kinds[0], kinds[1], kinds[2], ri, tp,
                                   seed=done)
        factor_worst = max(factor_worst, res["factor_residual"])
        zero_worst = max(zero_worst, res["zero_residual"])
        mulam_worst = max(mulam_worst, res["mu_lambda_residual"])
        done += 1
    return [
        _result("appendix-a.factorization", 1e-10, factor_worst,
                f"{n_draws} draws in the m=0 discrete-spectrum area"),
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
            reg_kind = Kind.A if tp.c0 > 1.0 else Kind.B
            for m in range(8):
                u = 2 * m + 1
                branch = "primary" if mu_o > u else "secondary"
                try:
                    seed = susy.wl_seed_solution(m, mu_o, tp)
                except AvailabilityError:
                    continue
                for kind in (reg_kind, Kind.C, Kind.D):
                    try:
                        pred = susy.nodeless_predicate(kind, m, mu_o, tp, branch)
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
                vals.append(susy.nodeless_predicate(kind, m, 5.0, tp, "secondary"))
            except AvailabilityError:
                continue
        if not vals or not all(vals[len(vals) // 2:]):
            tail_ok = False
    out.append(_result("appendix-b.large-m-tail", 0.5, 0.0 if tail_ok else 1.0))
    return out


# ---------------------------------------------------------------------------
# constants, slopes, census
# ---------------------------------------------------------------------------

def check_constants() -> list[CheckResult]:
    out = []
    rng = np.random.RandomState(9)
    worst = abs(susy.StructureConstants.c00(2.0, 3.0)
                - susy.StructureConstants.c00(-2.0, -3.0) - 5.0)
    for _ in range(200):
        l0, l1 = rng.uniform(-4, 4, 2)
        worst = max(
            worst,
            abs(susy.StructureConstants.c00(l0, l1)
                - susy.StructureConstants.c00(-l0, -l1) - (l0 + l1)),
        )
    out.append(_result("constants.c00-identity", 1e-14, worst))

    d_worst = 0.0
    o00_chk = 0.0
    for (lo, mo, zt) in ((0.0, 5.0, 2.0), (0.8, 4.5, -1.0), (1.5, 7.3, 3.0)):
        ri = RayIdentifiers(lo, mo)
        tp = TangentPoly(zt)
        sc = susy.structure_constants(ri, tp)
        d_worst = max(d_worst, abs(sc.d - (tp.a2 - tp.c0 - 1.0)))
        o00_chk = max(o00_chk, abs(sc.o00 - (mo**2 - lo**2 + 1.0)))
    out.append(_result("constants.d-closed-form", 1e-8, d_worst,
                       "d = a2 - c0 - 1 from the basic-solution identity"))
    sc2 = susy.structure_constants(RayIdentifiers(0.0, 5.0), TangentPoly(2.0))
    out.append(_result("constants.d-at-zt2", 1e-8, abs(sc2.d + 4.0)))
    out.append(_result("constants.o00-value", 1e-12,
                       max(o00_chk, abs(sc2.o00 - 26.0))))
    return out


def check_tau() -> list[CheckResult]:
    worst_root = 0.0
    worst_pair = 0.0
    for zt in (2.0, -1.0, -0.4, 3.3):
        tp = TangentPoly(zt)
        s = tp.sqrt_c0
        slopes = spectral.asymptotic_tau(tp)
        triples = (
            (slopes.tau1_linear, slopes.tau0_linear, -1.0),
            (slopes.tau1_d, slopes.tau0_d, 1.0),
            (slopes.tau1_d_tail, slopes.tau0_d_tail, 1.0),
        )
        for t1, t0, sign in triples:
            worst_root = max(worst_root, abs(slopes.cubic_residual(t1, tp)))
            worst_pair = max(worst_pair, abs(t0 - sign * s * t1))
            if abs(t1 + 1.0) > 1e-6:
                frac = slopes.tau0_fraction(t1, tp)
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
            n0 = spectral.bound_state_count(ri.mu_o)
            for m in range(6):
                if 2 * m + 1 == ri.mu_o:
                    continue
                sols = spectral.wl_solve(m, ri.mu_o, tp)
                lin = [s for s in sols if s.kind in
                       (Kind.A, Kind.B, Kind.A_PRIME, Kind.B_PRIME)][0]
                nodeless = wavefunction.poly_factor(lin).roots_in_01 == 0
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


def run_verification(only: str | None = None, fault: str | None = None,
                     timings: dict | None = None) -> list[CheckResult]:
    """Run the (optionally filtered) verification battery; ``fault`` is
    handed to the cubic group, and ``timings``, if given, receives each
    group's wall seconds by name."""
    results = []
    for name, fn in CHECK_GROUPS.items():
        if only and not name.startswith(only):
            continue
        t0 = time.perf_counter()
        results.extend(fn(fault=fault) if name == "cubic" else fn())
        if timings is not None:
            timings[name] = time.perf_counter() - t0
    return results
