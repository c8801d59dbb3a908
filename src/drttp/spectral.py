"""The discrete spectrum, the basic solutions and the levelled limit.

Each solution is z**((lambda0 + 1)/2) (1 - z)**((lambda1 + 1)/2) times a
degree-m polynomial (:class:`AehSolution`).  Its signed exponent
differences at z = 0, z = 1 and infinity obey the defining quadratics
lambda0**2 = lambda_o**2 + c0 lambda1**2 and mu**2 = mu_o**2 + a2 lambda1**2
and the radical equation mu = lambda0 + lambda1 + 2m + 1; its energy is
epsilon = -lambda1**2.  The module computes:

* the levels (:func:`spectrum`) and the three m = 0 basic solutions
  (:func:`basic_solutions`), each the one root of the radical equation
  with the sign pattern of (mu, lambda0, lambda1) that names its kind
  (:func:`_radical_roots`);
* the asymptotically levelled limit lambda_o = 0 in closed form
  (:func:`wl_solve`);
* the number of bound levels and the below-ground census
  (:func:`bound_state_count`, :func:`nodeless_census`).

The paper's characteristic cubics and large-m slopes take no part in
these; verify's ``cubic.*`` and ``tau.*`` checks hold them.
"""

from __future__ import annotations

import logging
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AvailabilityError,
    ClassificationError,
    ConvergenceError,
    DegenerateLimitError,
    DomainError,
)
from .params import RayIdentifiers, TangentPoly, _two_sum

_log = logging.getLogger("drttp.spectral")

_DEGENERATE_C0_TOL = 1e-12
# relative residual of the defining quadratics that make_solution admits
_CONSTRAINT_TOL = 1e-10
# NodelessCensus.hyperbola_residuals holds the degrees m < _CENSUS_DEGREES
_CENSUS_DEGREES = 6
_EPS = math.ulp(1.0)
_FLOAT_MAX = sys.float_info.max


class Kind(Enum):
    """Solution type tags; C marks normalizable eigenfunctions."""

    A = "a"
    B = "b"
    C = "c"
    D = "d"
    A_PRIME = "a'"
    B_PRIME = "b'"
    D_PRIME = "d'"


@dataclass(frozen=True, init=False)
class AehSolution:
    """One almost-everywhere-holomorphic solution.

    ``lambda0`` / ``lambda1`` are the signed exponent differences at z = 0
    and z = 1, ``m`` the degree of the polynomial factor, ``mu`` the signed
    exponent difference at infinity and ``epsilon`` the z-gauge energy.
    """

    kind: Kind
    m: int
    lambda0: float
    lambda1: float
    mu: float = field(init=False)
    epsilon: float = field(init=False)

    def __init__(self, kind: Kind, m: int, lambda0: float, lambda1: float):
        # frozen: the instance dict is filled in one call, not one setattr per field
        self.__dict__.update(kind=kind, m=m, lambda0=lambda0, lambda1=lambda1,
                             mu=lambda0 + lambda1 + 2 * m + 1, epsilon=-lambda1**2)


def make_solution(kind: Kind, m: int, lambda0: float, lambda1: float,
                  ri: RayIdentifiers, tp: TangentPoly) -> AehSolution:
    """Build a solution and enforce the defining quadratic constraints;
    DomainError where mu**2 or epsilon would not be finite."""
    mu = lambda0 + lambda1 + 2 * m + 1
    sq0, sq1 = lambda0 * lambda0, lambda1 * lambda1
    scale = 1.0 + ri.mu_o**2 + sq0 + sq1
    if not math.isfinite(scale + mu * mu):
        raise DomainError(f"mu**2 or epsilon overflows at ({lambda0!r}, {lambda1!r})")
    r1 = sq0 - (ri.lambda_o**2 + tp.c0 * sq1)
    r2 = mu * mu - (ri.mu_o**2 + tp.a2 * sq1)
    if abs(r1) > _CONSTRAINT_TOL * scale or abs(r2) > _CONSTRAINT_TOL * scale:
        raise ClassificationError(
            f"exponent differences violate the defining constraints: "
            f"residuals {r1:.3e}, {r2:.3e}"
        )
    return AehSolution(kind, m, lambda0, lambda1)


def _check_not_degenerate(tp: TangentPoly):
    if abs(tp.sqrt_c0 - 1.0) < _DEGENERATE_C0_TOL:
        raise DegenerateLimitError("degenerate (Rosen-Morse) limit: c0 == 1")


def regular_kind(tp: TangentPoly) -> Kind:
    """Kind of the regular m = 0 basic solution t0: a for z_T > 1, b for z_T < 0."""
    return Kind.A if tp.z_T > 1.0 else Kind.B


def bound_state_count(ri: RayIdentifiers) -> int:
    """Number of bound levels, ceil((mu_o - lambda_o - 1)/2), floored at 0."""
    n = math.ceil((ri.mu_o - ri.lambda_o - 1.0) / 2.0)
    return max(0, n)


def wl_gm(m: int, mu_o: float) -> float:
    """Linear-branch numerator (2m+1)**2 - mu_o**2 of the levelled limit."""
    return (2.0 * m + 1.0) ** 2 - mu_o**2


def wl_quadratic_discriminant(m: int, mu_o: float, tp: TangentPoly) -> float:
    """Discriminant of the levelled-limit quadratic branch; always >= 0."""
    s = tp.sqrt_c0
    u = 2.0 * m + 1.0
    return 4.0 * (u * u * (s - 1.0) ** 2 + 4.0 * s * mu_o**2)


def wl_quadratic_roots(m: int, mu_o: float, tp: TangentPoly) -> tuple[float, float]:
    """lambda1 roots (up, dn) of the levelled-limit quadratic branch.  Their
    product is (u**2 - mu_o**2)/(4 s), u = 2m + 1, so the up root, which
    vanishes as mu_o -> u, is taken from it: (b + rt)/(8 s) would cancel."""
    s = tp.sqrt_c0
    u = 2.0 * m + 1.0
    rt = math.sqrt(wl_quadratic_discriminant(m, mu_o, tp))
    b = -2.0 * (s + 1.0) * u
    return 2.0 * (mu_o - u) * (mu_o + u) / (rt - b), (b - rt) / (8.0 * s)


def wl_solve(m: int, mu_o: float, tp: TangentPoly) -> list[AehSolution]:
    """All three solutions of the asymptotically-levelled limit at degree m.

    Returns the linear-branch solution (type a/b or a'/b' by the sign of
    mu_o - 2m - 1 and the c0 branch) plus the two quadratic-branch roots
    (types c/d' and d; a d with mu_o < 2m + 1 is the d'' tail).  Energies
    are epsilon = -lambda1**2.
    """
    if m < 0:
        raise DomainError("m must be >= 0")
    _check_not_degenerate(tp)
    ri = RayIdentifiers(0.0, mu_o)
    s = tp.sqrt_c0
    u = 2.0 * m + 1.0
    g = wl_gm(m, mu_o)
    out = []

    lam1_lin = g / (2.0 * (s - 1.0) * u)
    if mu_o > u:
        kind_lin = regular_kind(tp)
    else:
        kind_lin = Kind.A_PRIME if s < 1.0 else Kind.B_PRIME
    out.append(make_solution(kind_lin, m, -s * lam1_lin, lam1_lin, ri, tp))

    lam1_up, lam1_dn = wl_quadratic_roots(m, mu_o, tp)
    kind_up = Kind.C if mu_o > u else Kind.D_PRIME
    out.append(make_solution(kind_up, m, s * lam1_up, lam1_up, ri, tp))
    out.append(make_solution(Kind.D, m, s * lam1_dn, lam1_dn, ri, tp))
    return out


@dataclass(frozen=True)
class NodelessCensus:
    """Closed-form bounds on nodeless below-ground solutions."""

    m_plus_c0: float | None        # primary sequence bound (in m)
    m_minus_c0: float | None       # supplementary sequence bound (in m)
    count_primary_nodeless: int | None   # min-rule count for a_m / b_m
    constraint_secondary_ok: bool | None
    mu_cross_slope: float | None   # mu_x;m = slope * (2m + 1), c0 > 1 only
    hyperbola_residuals: tuple[float, ...]

    def primary_nodeless(self, m: int) -> bool:
        if self.m_plus_c0 is None:
            return False
        return m < self.m_plus_c0

    def supplementary_nodeless(self, m: int) -> bool:
        if self.m_minus_c0 is None:
            return False
        return m > self.m_minus_c0


def nodeless_census(ri: RayIdentifiers, tp: TangentPoly) -> NodelessCensus:
    """Bounds selecting the below-ground (hence nodeless) solutions.

    The c-referenced bounds require a nonempty spectrum (mu_o > 1); they
    are reported as None otherwise.
    """
    s = tp.sqrt_c0
    mo = ri.mu_o
    u_h = [2.0 * m + 1.0 for m in range(_CENSUS_DEGREES)]
    hyper = tuple(
        mo**2 - ri.lambda_o**2 + (1.0 - 2.0 * s) * u * u for u in u_h
    )
    slope = math.sqrt(2.0 * s - 1.0) if (tp.c0 > 1.0 and 2.0 * s > 1.0) else None
    if mo <= 1.0:
        return NodelessCensus(None, None, None, None, slope, hyper)

    lam1_c0 = wl_quadratic_roots(0, mo, tp)[0]
    delta = abs(s - 1.0) * lam1_c0
    v_plus = -delta + math.sqrt(delta * delta + mo * mo)
    v_minus = delta + math.sqrt(delta * delta + mo * mo)
    m_plus = (v_plus - 1.0) / 2.0
    m_minus = (v_minus - 1.0) / 2.0

    if tp.c0 > 1.0:
        count = min(math.floor(m_plus), math.floor((mo - ri.lambda_o - 1.0) / 2.0))
        constraint_ok = None
    else:
        count = min(math.floor(m_plus), math.floor((mo + ri.lambda_o - 1.0) / 2.0))
        constraint_ok = ri.lambda_o < mo + 2.0 * math.floor(m_plus) + 1.0
    count = max(count, -1)
    return NodelessCensus(m_plus, m_minus, count, constraint_ok, slope, hyper)


_LEVEL_MAX_ITER = 100

# signs of (mu, lambda0, lambda1) of each m = 0 basic kind; C is every level's
_SIGNS = {Kind.C: (1.0, 1.0, 1.0), Kind.D: (-1.0, -1.0, -1.0), Kind.A: (1.0, 1.0, -1.0),
          Kind.B: (1.0, -1.0, 1.0)}


def _radical_roots(signs: tuple[float, float, float], ms: Iterable[int],
                   ri: RayIdentifiers, tp: TangentPoly
                   ) -> Iterator[tuple[float, float, int, int]]:
    """Solutions of sign pattern ``signs`` (the signs of mu, lambda0 and
    lambda1), one per degree m in ``ms``: (lambda0, lambda1, Newton steps,
    bisections).

    With t = |lambda1|, A = sqrt(mu_o**2 + a2 t**2) = |mu| and
    B = sqrt(lambda_o**2 + c0 t**2) = |lambda0|, mu = lambda0 + lambda1
    + 2m + 1 reads g(t) = A - p0 B - p1 t - v = 0, where p0, p1 and v are
    the signs of lambda0 and lambda1 and 2m + 1, times the sign of mu.  With
    s = sqrt(c0), al = sqrt(a2) (s - al = 1 for z_T > 1, s + al = 1 for
    z_T < 0) and d = mu_o - p0 lambda_o - v, g > 0 below the root and g < 0
    above it on the bracket [lo, hi]:

    * c, level n (+, +, +), v = 2n + 1: lo = d/(1 + s), as A >= mu_o and
      B <= lambda_o + s t; hi is the lambda_o = 0 root (B >= s t), the
      positive root of ((1 + s)**2 - a2) t**2 + 2v(1 + s) t + v**2 - mu_o**2.
      It is unique: for z_T < 0, g' <= al - 1 < 0; for z_T > 1 a root has
      A = B + t + v > B, so there g' < (a2 - c0) t / B - 1 < -1, as
      c0 - a2 = s + al > 0.
    * d (-, -, -): the c equation with v = -1, on the same bracket.
    * a (+, +, -), z_T > 1: g = mu_o**2/(A + al t) - lambda_o**2/(B + s t) - 1;
      lo = d/al and hi = (mu_o**2 - 1)/(2 al), where the first term is 1.
    * b (+, -, +), z_T < 0: g = mu_o**2/(A + al t) + lambda_o**2/(B + s t) - 1
      falls strictly; lo = (mu_o**2 - 1)/(2 al) and
      hi = (mu_o**2/al + lambda_o**2/s)/2.

    In Area A_0 (mu_o > lambda_o + 1) the m = 0 patterns c, d and a or b
    each have a root.  Each solution is a root of the lambda1 cubic, whose
    leading coefficient 8 s (1 - s) is not 0, and two share lambda1 only at
    its double root -1 on the a/d hyperbola: each pattern has exactly one.

    A is split as mu_o + a2 t**2/(A + mu_o) while al t <= mu_o, else as
    al t + mu_o**2/(A + al t); once A is split far, B is split likewise at
    s t = lambda_o, so the growing remainders A - mu_o and B - lambda_o never
    cancel.  g is then a constant (d, to twice the working precision, while
    both split near), a slope times t (exact through s -/+ al = 1) and the
    two remainders.  Newton runs from hi and bisects, by the geometric mean
    while hi > 4 lo, when a step leaves the bracket or fails to halve the
    step before last.  It stops with one last step once g is within its
    rounding error, or when the bracket is a few ulps wide.
    """
    sm, s0, s1 = signs
    p0, p1 = sm * s0, sm * s1
    lo, mo, s = ri.lambda_o, ri.mu_o, tp.sqrt_c0
    al = 1.0 / abs(1.0 - tp.z_T)  # sqrt(a2)
    above = tp.z_T > 1.0
    # slope of g by radicals split far (none, A, both), exact by s -/+ al = 1
    if above:
        ks = (-p1, al - p1, (1.0 - p0) * al - p0 - p1)
    else:
        ks = (-p1, 1.0 - p1 - s, 1.0 - p1 - (1.0 + p0) * s)
    mo2, lo2 = mo * mo, lo * lo
    hypot = math.hypot
    # what does not depend on m: the first sum of d, bracket and tolerance factors
    plo = -p0 * lo
    d0, e1 = _two_sum(mo, plo)
    qa = 4.0 * (1.0 + al) if above else 4.0 * s  # (1 + s)**2 - a2
    tol_g, tol_x = 8.0 * _EPS, 4.0 * _EPS
    for m in ms:
        v = sm * (2.0 * m + 1.0)
        d, e2 = _two_sum(d0, -v)
        # the constant of g by split (none, A, both) and its rounding error
        cs = (d, plo - v, -v)
        es = (e1 + e2, 0.0, 0.0)
        if p0 < 0.0 or p1 < 0.0:  # b or a: mu_o**2/(A + al t) = v at h
            h = (mo - v) * (mo + v) / (2.0 * al * v)
            a, b = (h, (mo2 / al + lo2 / s) / (2.0 * v)) if p0 < 0.0 else (d / al, h)
        else:  # c, d: A >= mu_o and B <= lambda_o + s t give a
            a = d / (1.0 + s)
            qb, qc = 2.0 * v * (1.0 + s), (v - mo) * (v + mo)
            rt = math.sqrt(qb * qb - 4.0 * qa * qc)
            b = -2.0 * qc / (qb + rt) if qb > 0.0 else (rt - qb) / (2.0 * qa)
        if b > _FLOAT_MAX:  # a root beyond it fails make_solution
            b = _FLOAT_MAX
        x = b
        dx = dx_old = math.inf
        steps = halvings = 0
        for _ in range(_LEVEL_MAX_ITER):
            ax = al * x
            t = s * x
            A = hypot(mo, ax)
            B = hypot(lo, t)
            if ax > mo:  # A - al t
                ra = mo2 / (A + ax)
                da = -al * ra / A
                i = 1
            else:  # A - mu_o
                ra = ax * ax / (A + mo)
                da = al * ax / A
                i = 0
            if i and t > lo:  # B - s t, once A is split far
                rb = lo2 / (B + t)
                db = -s * rb / B
                i = 2
            elif t:  # B - lambda_o
                rb = t * t / (B + lo)
                db = s * t / B
            else:  # c0 t**2 underflows
                rb = db = 0.0
            c = cs[i]
            k = ks[i]
            kx = k * x
            gx = c + kx + (es[i] + ra - p0 * rb)
            if gx < 0.0:
                b = x
            elif gx > 0.0:
                a = x
            else:
                break
            dg = k + da - p0 * db
            # g' < 0 near the root; once g is within its rounding error, one last step
            if dg < 0.0 and abs(gx) <= tol_g * (abs(c) + abs(kx) + ra + rb):
                x -= gx / dg
                break
            if b - a <= tol_x * b:
                break
            x_new = x - gx / dg if dg < 0.0 else a
            if a < x_new < b and 2.0 * abs(x_new - x) <= abs(dx_old):
                steps += 1
            else:
                x_new = math.sqrt(a) * math.sqrt(b) if 0.0 < 4.0 * a < b else 0.5 * (a + b)
                halvings += 1
            dx_old, dx, x = dx, x_new - x, x_new
        else:
            raise ConvergenceError(f"sign pattern {signs}, degree {m}: no convergence "
                                   f"in {_LEVEL_MAX_ITER} iterations")
        yield s0 * hypot(lo, s * x), s1 * x, steps, halvings


def spectrum(ri: RayIdentifiers, tp: TangentPoly) -> list[AehSolution]:
    """Discrete spectrum as kind-C solutions with strictly increasing energy.

    Level n is the one root lambda1 > 0 of the quantization condition
    mu = lambda0 + lambda1 + 2n + 1, where lambda0 and mu are the positive
    roots of the two defining quadratics; lambda0 is read off its radical,
    not transferred (see :func:`_radical_roots`).  Each level is also a root
    of the lambda1 cubic, which verify's ``cubic.level-residual`` checks.
    Newton steps and bisections are logged per call at DEBUG under
    ``drttp.spectral``.
    """
    _check_not_degenerate(tp)
    out = []
    steps = halvings = 0
    roots = _radical_roots(_SIGNS[Kind.C], range(bound_state_count(ri)), ri, tp)
    for n, (lam0, lam1, k, h) in enumerate(roots):
        steps += k
        halvings += h
        out.append(make_solution(Kind.C, n, lam0, lam1, ri, tp))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("spectrum (%r, %r, z_T=%r): %d level(s), %d Newton steps, "
                   "%d bisections", ri.lambda_o, ri.mu_o, tp.z_T, len(out),
                   steps, halvings)
    energies = [s.epsilon for s in out]
    if any(e >= 0.0 for e in energies) or any(
        b <= a for a, b in zip(energies, energies[1:])
    ):
        raise ClassificationError("spectrum not strictly increasing below zero")
    return out


def basic_solutions(ri: RayIdentifiers, tp: TangentPoly) -> dict[Kind, AehSolution]:
    """The three m = 0 basic solutions of Area A_0, keyed by kind in
    ascending order of mu: c (level 0 of :func:`spectrum`), d, and a
    (z_T > 1) or b (z_T < 0), each the one root of its sign pattern.
    Newton steps and bisections are logged per call at DEBUG under
    ``drttp.spectral``."""
    if not bound_state_count(ri):  # the Area A_0 test of spectrum()
        raise AvailabilityError("basic-solution triple requires mu_o > lambda_o + 1 (Area A_0)")
    _check_not_degenerate(tp)
    sols = []
    steps = halvings = 0
    for kind in (Kind.C, Kind.D, regular_kind(tp)):
        (lam0, lam1, k, h), = _radical_roots(_SIGNS[kind], (0,), ri, tp)
        steps += k
        halvings += h
        sols.append(make_solution(kind, 0, lam0, lam1, ri, tp))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("basic_solutions (%r, %r, z_T=%r): %d Newton steps, %d bisections",
                   ri.lambda_o, ri.mu_o, tp.z_T, steps, halvings)
    return {sol.kind: sol for sol in sorted(sols, key=lambda sol: sol.mu)}
