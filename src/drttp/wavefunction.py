"""Closed-form solution and eigenfunction evaluation, node counting."""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import RayIdentifiers, TangentPoly, gauge_record, split_at_half, unit_interval
from .errors import ConvergenceError, DomainError
from .spectral import AehSolution, spectrum


def pochhammer(a: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


# Stirling's series of x (lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2) in
# 1/x**2 (DLMF 5.11.1); at x >= 10 its truncation is below 1e-16
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _beta(a: float, b: float) -> float:
    """Euler's Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0.

    Arguments below 10 are raised by B(a, b) = B(a + k, b) (a + b)_k/(a)_k.  Then,
    with p <= q and s = p + q, log B = log(2 pi / q)/2 + (p - 1/2) log(p/s)
    + q log1p(-p/s) plus the Stirling tails of p and q less that of s.  No
    large logarithms cancel: the relative error is a few roundings times
    |log B|, plus about 10 log(a + b) for an argument raised from below 10.
    """
    i, j = max(0, math.ceil(10.0 - a)), max(0, math.ceil(10.0 - b))
    scale = pochhammer(a + b, i) / pochhammer(a, i) * pochhammer(a + i + b, j) / pochhammer(b, j)
    a, b = a + i, b + j
    (p, q), s = sorted((a, b)), a + b
    tail = [functools.reduce(lambda acc, c: c + acc * x**-2.0, _STIRLING[::-1]) / x
            for x in (p, q, s)]
    return scale * math.exp(0.5 * math.log(2.0 * math.pi / q) + (p - 0.5) * math.log(p / s)
                            + q * math.log1p(-p / s) + tail[0] + tail[1] - tail[2])


def hypergeom_poly_jacobi(n: int, alpha: float, beta: float, z, omz):
    """F(-n, n + alpha + beta + 1; alpha + 1; z) = n!/(alpha + 1)_n
    P_n^(alpha, beta)(1 - 2z) from the pair (z, 1 - z), each at its own
    relative precision, by the Jacobi three-term recurrence (DLMF 18.9.1);
    a solution's polynomial factor with :func:`jacobi_parameters`.

    The recurrence runs on p_k = F(-k, k + alpha + beta + 1; alpha + 1; z),
    from p_0 = 1 to p_n, in the difference form of scipy's
    ``eval_jacobi_l`` written in z (x - 1 = -2z): with d_k = p_k - p_(k-1),
    t = 2k + alpha + beta and D = (k + alpha + 1)(k + alpha + beta + 1),

        d_(k+1) = -(t+1)(t+2)/D z p_k + k(k+beta)(t+2)/(D t) d_k.

    Each degree's coefficients are formed once for all points.  The form is
    accurate near its origin, so beyond z = 1/2 the same recurrence runs in
    1 - z with alpha and beta swapped (P_n^(alpha,beta)(-x) =
    (-1)^n P_n^(beta,alpha)(x)), its p_k and d_k carried in the z
    normalization: each degree multiplies them by
    -(k + beta + 1)/(k + alpha + 1), so no separate constant can overflow.

    Requires alpha > -1 and beta > -1 for n >= 1, which every bound state
    meets (alpha = lambda0, beta = lambda1); outside that range the
    recurrence can return NaN, so DomainError is raised instead.
    """
    z, omz = unit_interval(z, omz)
    out = np.ones(z.shape)
    _times_jacobi(out, n, alpha, beta, split_at_half(z, omz))
    return out if out.ndim else float(out)


def jacobi_parameters(sol: AehSolution) -> tuple[float, float]:
    """(alpha, beta) of a solution's polynomial factor F(-m, mu - m;
    lambda0 + 1; z), formed as c - 1 and a - m - c of F(-m, a; c; z):
    lambda0 and lambda1 up to rounding ((lambda0 + 1) - 1 can differ from
    lambda0 in its last bit).  Every evaluator of the factor takes them
    from here, so all share that rounding."""
    a, c = sol.mu - sol.m, sol.lambda0 + 1.0
    return c - 1.0, a - sol.m - c


def _times_jacobi(out, n: int, alpha: float, beta: float, halves) -> None:
    """Multiply the C-contiguous array ``out`` in place by the polynomial of
    ``hypergeom_poly_jacobi``, run on each of the ``halves`` of
    :func:`~drttp.core.split_at_half` in its small coordinate; DomainError
    for parameters it does not take."""
    if n < 0 or (n > 0 and not (alpha > -1.0 and beta > -1.0)):
        raise DomainError(f"need n >= 0 and alpha, beta > -1: n={n}, ({alpha}, {beta})")
    if not n:
        return
    left, right, z_left, omz_right = halves
    flat = out.reshape(-1)
    for idx, s, reflected in ((left, z_left, False), (right, omz_right, True)):
        if s.size:
            flat[idx] *= _jacobi_difference(n, alpha, beta, s, reflected)


def _jacobi_difference(n: int, alpha: float, beta: float, s, reflected: bool):
    """The recurrence of ``hypergeom_poly_jacobi`` for n >= 1, in s = z or,
    reflected, in s = 1 - z."""
    ab = alpha + beta
    sign, gamma = (1.0, alpha) if reflected else (-1.0, beta)
    p = np.full(s.shape, -(beta + 1.0) / (alpha + 1.0) if reflected else 1.0)
    d = sign * (ab + 2.0) / (alpha + 1.0) * s
    p += d
    sp = np.empty(s.shape)
    for k in range(1, n):
        t = 2.0 * k + ab
        den = (k + alpha + 1.0) * (k + ab + 1.0)
        np.multiply(s, p, out=sp)
        sp *= sign * (t + 1.0) * (t + 2.0) / den
        d *= -sign * k * (k + gamma) * (t + 2.0) / (den * t)
        d += sp
        if reflected:
            p *= -(k + beta + 1.0) / (k + alpha + 1.0)
        p += d
    return p


def factor_roots_in_01(sol: AehSolution) -> int:
    """Zeros in (0, 1) of the polynomial factor of a solution, by Klein's
    formula (Szego, Orthogonal Polynomials, Thm 6.72).

    The factor is a constant times P_m^(a, b)(1 - 2z), a = lambda0,
    b = lambda1.  With X the largest integer below
    u = m + 1 - max(-a, 0) - max(-b, 0) (0 if u <= 0 or 2m + a + b + 1 <= 0),
    the count is 2 [(X + 1)/2] if (-1)^m C(m + a, m) C(m + b, m) > 0 and
    2 [X/2] + 1 otherwise; a bound state has m.  The sign of C(m + a, m) is
    that of the product of a + k, k = 1..m, and likewise for b; a factor
    that vanishes puts a zero on an endpoint and raises DomainError.
    """
    m, a, b = sol.m, sol.lambda0, sol.lambda1
    minus_signs = m  # of (-1)^m and of the factors a + k, b + k
    for k in range(1, m + 1):
        if a + k == 0.0 or b + k == 0.0:
            raise DomainError(f"C(m + lambda, m) vanishes: m={m}, ({a}, {b})")
        minus_signs += (a + k < 0.0) + (b + k < 0.0)
    x = 0
    if 2 * m + a + b + 1.0 > 0.0:
        # u in this form is exact at an integer; Szego's
        # (|2m + a + b + 1| - |a| - |b| + 1)/2 can round one ulp above it
        x = max(math.ceil(m + 1.0 - max(-a, 0.0) - max(-b, 0.0)) - 1, 0)
    return 2 * ((x + 1) // 2) if minus_signs % 2 == 0 else 2 * (x // 2) + 1


def powers(log_z, log_omz, e0: float, e1: float, extra=None):
    """z**e0 (1 - z)**e1 exp(extra) from log z and log(1 - z): every
    solution prefactor is formed here.  The logs are summed, e0 log z +
    e1 log(1 - z) + extra in that order, and exponentiated once, in place,
    so neither power over- or underflows on its own: the value is 0 or inf
    only out of range (NumPy warns of the overflow; a caller that expects
    it ignores the warning).  A term of exponent 0 is skipped, so with
    log 0 = -inf an endpoint gets the limit value: 0, 1 or inf by the
    exponent's sign.  Returns a fresh array, C-contiguous for C-contiguous
    logs, 0-d for scalar ones."""
    out = np.asarray(log_z * e0 if e0 else np.zeros(np.shape(log_z)))
    if e1:
        out += log_omz * e1
    if extra is not None:
        out += extra
    return np.exp(out, out=out)


def aeh_eval(z, omz, sol: AehSolution):
    """Solution value z^((lambda0+1)/2) (1-z)^((lambda1+1)/2) * Pi_m(z) from
    the pair (z, 1 - z), Pi_m(z) = F(-m, mu - m; lambda0 + 1; z), its
    prefactor from :func:`powers`: 0 or inf only out of range.

    Endpoints return the limit value (0, finite, or inf by the exponent
    sign); irregular solutions are finite only on the open interval.  A z
    or 1 - z outside [0, 1], NaN included, raises DomainError.  For m >= 1
    both lambdas must exceed -1 (``hypergeom_poly_jacobi``).
    """
    z, omz = unit_interval(z, omz)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.asarray(powers(np.log(z), np.log(omz), 0.5 * (sol.lambda0 + 1.0),
                                0.5 * (sol.lambda1 + 1.0)), order="C")
    if sol.m:
        _times_jacobi(out, sol.m, *jacobi_parameters(sol), split_at_half(z, omz))
    return out if out.ndim else float(out)


def solution_eval_x(x, sol: AehSolution, ri: RayIdentifiers, tp: TangentPoly):
    """x-gauge value (z')**(-1/2) Phi(z(x)), composed analytically.

    The Liouville weight and the solution prefactors are merged into one
    exponential (:func:`powers`), so the tails carry no inf*0 indeterminacy
    and nothing underflows before the product does:
    exp(l0/2 log z + l1/2 log(1 - z) + log w) Pi_m(z), w =
    sqrt((z - z_T)/(2(1 - z_T))), with the logs of the grid's
    :class:`~drttp.core.GaugeRecord`, which come from the map itself and
    stay finite where z or 1 - z rounds to 0.  The polynomial factor is
    split at z = 1/2 as the record's ``halves``, so the levels on one grid
    share the logs and the split.
    """
    g = gauge_record(x, tp)
    out = powers(g.log_z, g.log_omz, 0.5 * sol.lambda0, 0.5 * sol.lambda1, g.log_weight)
    _times_jacobi(out, sol.m, *jacobi_parameters(sol), g.halves)
    return float(out[0]) if np.ndim(x) == 0 else out


def _level(sols: list[AehSolution], n: int) -> AehSolution:
    if not 0 <= n < len(sols):
        raise IndexError(f"level n={n} out of range (found {len(sols)})")
    return sols[n]


def eigenfunction_norm_sq(n: int, ri: RayIdentifiers, tp: TangentPoly) -> float:
    """L2 norm squared over the whole line of level n of ``spectrum(ri, tp)``
    (:func:`solution_norm_sq`); IndexError for a level that does not exist."""
    return solution_norm_sq(_level(spectrum(ri, tp), n), tp)


def solution_norm_sq(sol: AehSolution, tp: TangentPoly) -> float:
    """L2 norm squared over the whole line of the x-gauge solution of
    :func:`solution_eval_x`, in closed form (DLMF 18.3).

    In z (dx = dz / core.dz_dx(z, 1 - z)) the norm N is the integral over (0, 1) of
    z**(l0 - 1) (1 - z)**(l1 - 1) ((z - z_T) Pi_m / (2 (1 - z_T)))**2, with
    l0 = lambda0, l1 = lambda1 and Pi_m = m!/(l0 + 1)_m P_m^(l0, l1)(1 - 2z).
    (z - z_T)**2 = z_T**2 (1 - z) + (1 - z_T)**2 z - z (1 - z) splits it into
    three Jacobi integrals (Table 18.3.1), which sum to

        N = (m + l0 + 1)(mu - m) B(m + 1, l0 + 1) B(l0 + 1, m + l1 + 1)
            [z_T**2 (2m + l1 + 1)/l0 + (1 - z_T)**2 (2m + l0 + 1)/l1
             + 2 z_T (z_T - 1)] / (4 mu (1 - z_T)**2),

    mu = 2m + l0 + l1 + 1; the Beta products are m! Gamma(l0 + 1)**2
    Gamma(m + l1 + 1) / (Gamma(m + l0 + 1) Gamma(mu - m)).  For z_T outside
    [0, 1] no term cancels.  The integral converges only for l0 > 0 and
    l1 > 0, as for every bound state; DomainError elsewhere, and if N is not
    a finite positive float (it underflows when both exponents reach the
    thousands).
    """
    m, l0, l1, zt = sol.m, sol.lambda0, sol.lambda1, tp.z_T
    if not (l0 > 0.0 and l1 > 0.0):
        raise DomainError(f"the degree-{m} solution has no finite norm: "
                          f"lambda0 = {l0:.6g}, lambda1 = {l1:.6g}")
    c = ((m + l0 + 1.0) * (m + l0 + l1 + 1.0)
         * _beta(m + 1.0, l0 + 1.0) * _beta(l0 + 1.0, m + l1 + 1.0))
    out = c * (zt * zt * (2 * m + l1 + 1.0) / l0 + (1.0 - zt) ** 2 * (2 * m + l0 + 1.0) / l1
               + 2.0 * zt * (zt - 1.0)) / (4.0 * sol.mu * (1.0 - zt) ** 2)
    if not 0.0 < out < math.inf:
        raise DomainError(f"norm of the degree-{m} solution is {out}: "
                          f"lambda0 = {l0:.6g}, lambda1 = {l1:.6g}")
    return out


# count_nodes' first grid, in equal cells, and its largest grid, in points
_NODES_INITIAL = 4096
_NODES_CAP = 2**20


def count_nodes(f, interval: tuple[float, float]) -> int:
    """Strict sign changes of f on the open interval.

    ``f`` must map an array of points to an array of the same shape; any
    other result raises DomainError, as do a NaN value of f and an interval
    with an end that is not finite.  Zeros of f are skipped.  The first
    grid splits the interval into 4096 equal cells and holds their 4095
    interior points.  Each refinement halves every cell, evaluates f only
    at the new midpoints and merges them in, so the points evaluated so far
    are exactly the current grid.  Inserting points never removes a sign
    change, so the count cannot fall as the grid refines.  Grids are refined until two consecutive counts
    agree; a grid of more than 2**20 points raises ConvergenceError.
    """
    a, b = interval
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"interval must be finite, got {interval}")
    prev = vals = None
    cells = _NODES_INITIAL
    while cells - 1 <= _NODES_CAP:
        xs = np.linspace(a, b, cells + 1)[1:-1]
        if vals is not None:
            xs = xs[::2]  # the midpoints; the previous grid is xs[1::2]
        fx = np.asarray(f(xs), dtype=float)
        if fx.shape != xs.shape:
            raise DomainError("f must map an array of points to one of the same shape")
        if np.any(np.isnan(fx)):
            raise DomainError("f returned NaN")
        if vals is not None:
            merged = np.empty(cells - 1)
            merged[::2] = fx
            merged[1::2] = vals
            fx = merged
        vals = fx
        sgn = np.sign(vals)
        sgn = sgn[sgn != 0.0]
        count = int(np.sum(sgn[:-1] * sgn[1:] < 0))
        if prev == count:
            return count
        prev = count
        cells *= 2
    raise ConvergenceError("node count did not stabilize before the grid cap")
