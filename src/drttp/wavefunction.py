"""Closed-form solution and eigenfunction evaluation, node counting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .core import RayIdentifiers, TangentPoly, map_x_to_z_pair
from .errors import ConvergenceError, DomainError
from .spectral import AehSolution, spectrum


def pochhammer(a: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def hypergeom_poly_eval(n: int, a: float, c: float, z) -> float:
    """Terminating hypergeometric sum F(-n, a; c; z), Kahan-compensated.

    Any parameters, but it cancels catastrophically at high degree: bound
    states use ``hypergeom_poly_jacobi``, checked against this sum.
    ``c`` may not be a nonpositive integer >= -(n-1): such values put a
    pole inside the truncated series.
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


def hypergeom_poly_jacobi(n: int, a: float, c: float, z) -> float:
    """F(-n, a; c; z) = n!/(c)_n P_n^(alpha, beta)(1 - 2z) with alpha = c - 1
    and beta = a - n - c, by the Jacobi three-term recurrence (DLMF 18.9.1).

    Requires alpha > -1 and beta > -1 for n >= 1, which every bound state
    meets (alpha = lambda0, beta = lambda1); outside that range the
    recurrence can return NaN, so DomainError is raised instead.
    """
    alpha = c - 1.0
    beta = a - n - c
    if n < 0 or (n > 0 and not (alpha > -1.0 and beta > -1.0)):
        raise DomainError(f"need n >= 0 and alpha, beta > -1: n={n}, ({alpha}, {beta})")
    # deferred import: keeps scipy.special out of the cold start of `import drttp`
    from scipy.special import eval_jacobi

    z = np.asarray(z, dtype=float)
    out = eval_jacobi(n, alpha, beta, 1.0 - 2.0 * z) * math.factorial(n) / pochhammer(c, n)
    return out if out.ndim else float(out)


def hypergeom_poly_coeffs(n: int, a: float, c: float) -> np.ndarray:
    """Ascending coefficients of F(-n, a; c; z)."""
    coef = np.empty(n + 1)
    coef[0] = 1.0
    for k in range(n):
        coef[k + 1] = coef[k] * ((-n + k) * (a + k)) / ((c + k) * (k + 1.0))
    return coef


@dataclass(frozen=True)
class PolyFactor:
    """Polynomial factor of a solution, ascending coefficients."""

    degree: int
    coeffs: tuple[float, ...]
    roots_in_01: int

    def __call__(self, z):
        out = polyval(np.asarray(z, dtype=float), self.coeffs)
        return out if out.ndim else float(out)


def count_roots_in_01(coeffs) -> int:
    """Real roots of a polynomial strictly inside (0, 1)."""
    coeffs = np.asarray(coeffs, dtype=float)
    coeffs = np.trim_zeros(coeffs, "b")
    if coeffs.size <= 1:
        return 0
    rts = np.roots(coeffs[::-1])
    scale = max(1.0, float(np.max(np.abs(rts))))
    count = 0
    for r in rts:
        if abs(r.imag) < 1e-9 * scale and 0.0 < r.real < 1.0:
            count += 1
    return count


def poly_factor(sol: AehSolution) -> PolyFactor:
    """Polynomial factor of a solution as explicit coefficients."""
    coeffs = hypergeom_poly_coeffs(sol.m, sol.mu - sol.m, sol.lambda0 + 1.0)
    return PolyFactor(sol.m, tuple(coeffs), count_roots_in_01(coeffs))


def _poly_eval(z, sol: AehSolution):
    """Polynomial factor F(-m, mu - m; lambda0 + 1; z) of a solution."""
    return hypergeom_poly_jacobi(sol.m, sol.mu - sol.m, sol.lambda0 + 1.0, z)


def _endpoint_limit(exponent: float) -> float:
    if exponent > 0.0:
        return 0.0
    if exponent == 0.0:
        return 1.0
    return math.inf


def aeh_eval(z, sol: AehSolution, ri: RayIdentifiers, tp: TangentPoly):
    """Solution value z^((lambda0+1)/2) (1-z)^((lambda1+1)/2) * Pi_m(z).

    Endpoints return the limit value (0, finite, or inf by the exponent
    sign); irregular solutions are finite only on the open interval.  For
    m >= 1 both lambdas must exceed -1 (``hypergeom_poly_jacobi``).
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if np.any((z_arr < 0.0) | (z_arr > 1.0)):
        raise DomainError("z must lie in [0, 1]")
    e0 = 0.5 * (sol.lambda0 + 1.0)
    e1 = 0.5 * (sol.lambda1 + 1.0)
    out = np.empty_like(z_arr)
    interior = (z_arr > 0.0) & (z_arr < 1.0)
    zi = z_arr[interior]
    out[interior] = zi**e0 * (1.0 - zi) ** e1 * _poly_eval(zi, sol)
    out[z_arr == 0.0] = _endpoint_limit(e0)
    lim = _endpoint_limit(e1)
    out[z_arr == 1.0] = _poly_eval(1.0, sol) if lim == 1.0 else lim
    return float(out[0]) if scalar else out


def hypergeom_flip_eval(z, sol: AehSolution):
    """Companion representation of the polynomial factor in 1/z.

    Equals F(-m, mu - m; lambda0 + 1; z) wherever both series are defined
    (terminating-series argument inversion); used as a cross-check of the
    primary evaluation.  The second parameter lambda1 - mu + m + 1 equals
    -lambda0 - m.
    """
    z = np.asarray(z, dtype=float)
    n = sol.m
    mu, lam0, lam1 = sol.mu, sol.lambda0, sol.lambda1
    ratio = pochhammer(1.0 - mu, n) / pochhammer(-lam0 - n, n)
    zhat = 1.0 / z
    out = (-z) ** n * ratio * hypergeom_poly_eval(
        n, lam1 - mu + n + 1.0, 1.0 - mu, zhat
    )
    return out if out.ndim else float(out)


def solution_eval_x(x, sol: AehSolution, ri: RayIdentifiers, tp: TangentPoly):
    """x-gauge value (z')**(-1/2) Phi(z(x)), composed analytically.

    The Liouville weight and the solution prefactors are merged so the
    tails carry no inf*0 indeterminacy:
    sqrt((z - z_T)/(2(1 - z_T))) z^(l0/2) (1-z)^(l1/2) Pi_m(z),
    with 1-z carried at its own relative precision.
    """
    scalar = np.ndim(x) == 0
    z, omz = np.atleast_1d(*map_x_to_z_pair(x, tp))
    w = np.sqrt((z - tp.z_T) / (2.0 * (1.0 - tp.z_T)))
    out = w * z ** (0.5 * sol.lambda0) * omz ** (0.5 * sol.lambda1) * _poly_eval(z, sol)
    return float(out[0]) if scalar else out


def eigenfunction_eval_x(x, n: int, ri: RayIdentifiers, tp: TangentPoly,
                         normalize: bool = False,
                         _sols: list[AehSolution] | None = None):
    """n-th bound eigenfunction in the x gauge, (z')**(-1/2) times the
    z-gauge solution; unnormalized unless requested."""
    sols = spectrum(ri, tp) if _sols is None else _sols
    if not 0 <= n < len(sols):
        raise IndexError(f"level n={n} out of range (found {len(sols)})")
    val = solution_eval_x(x, sols[n], ri, tp)
    if normalize:
        val = val / math.sqrt(eigenfunction_norm_sq(n, ri, tp, _sols=sols))
    return val


def eigenfunction_norm_sq(n: int, ri: RayIdentifiers, tp: TangentPoly,
                          _sols: list[AehSolution] | None = None) -> float:
    """L2 norm squared over the whole line, exact up to rounding.

    With dx = dz / core.dz_dx(z) the integral of solution_eval_x squared is
    int_0^1 g**2 z**(lambda0 - 1) (1 - z)**(lambda1 - 1) Pi_m**2 dz,
    g = (z - z_T)/(2(1 - z_T)): a polynomial of degree 2m + 2 against a
    Jacobi weight, integrated exactly by m + 2 Gauss-Jacobi nodes in
    t = 2z - 1 (Golub & Welsch 1969).  A norm that overflows, as when an
    exponent reaches the thousands, raises DomainError.
    """
    sols = spectrum(ri, tp) if _sols is None else _sols
    sol = sols[n]
    # deferred import: keeps scipy.special out of the cold start of `import drttp`
    from scipy.special import roots_jacobi

    # the weights come back inf or nan, not raised, when their scale overflows
    with np.errstate(over="ignore", invalid="ignore"):
        t, w = roots_jacobi(sol.m + 2, sol.lambda1 - 1.0, sol.lambda0 - 1.0)
        z = 0.5 * (1.0 + t)
        f = (z - tp.z_T) / (2.0 * (1.0 - tp.z_T)) * _poly_eval(z, sol)
        total = float(w @ f**2)
    try:
        out = total / 2.0 ** (sol.lambda0 + sol.lambda1 - 1.0)
    except OverflowError:
        out = math.nan
    if not math.isfinite(out):
        raise DomainError(
            f"norm of level {n} overflows: lambda0 = {sol.lambda0:.6g}, "
            f"lambda1 = {sol.lambda1:.6g}"
        )
    return out


def count_nodes(f, interval: tuple[float, float], initial: int = 4096,
                cap: int = 2**20) -> int:
    """Strict sign changes of f on the open interval.

    ``f`` must map an array of points to an array of the same shape; any
    other result raises DomainError.  The sampling grid is doubled until
    two consecutive counts agree; exceeding the cap raises
    ConvergenceError.
    """
    a, b = interval
    prev = None
    n = initial
    while n <= cap:
        xs = np.linspace(a, b, n + 2)[1:-1]
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise DomainError("f must map an array of points to one of the same shape")
        sgn = np.sign(vals)
        sgn = sgn[sgn != 0]
        count = int(np.sum(sgn[:-1] * sgn[1:] < 0))
        if prev == count:
            return count
        prev = count
        n *= 2
    raise ConvergenceError("node count did not stabilize before the grid cap")
