"""Independent numerical Schrodinger eigensolver.

Validates every closed-form spectrum, node count and spectral-surgery
claim.  The module consumes a potential only as a black-box callable
x -> V(x); it never touches the closed-form level formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_FLATNESS_TOL = 1e-10
_BOUND_MARGIN = 1e-8
_DECAY_TOL = 1e-8
_WIDEN_CAP = 400.0


@dataclass
class NumericSpectrum:
    """Oracle output: levels below the continuum threshold."""

    eigenvalues: np.ndarray        # Richardson-extrapolated, ascending
    eigenvectors: np.ndarray       # columns, on the fine grid, unit L2
    grid: dict                     # x_min, x_max, n_points, h (fine grid)
    node_counts: list[int]
    convergence: np.ndarray        # per-level error estimate
    threshold: float

    def __len__(self):
        return len(self.eigenvalues)


def _eval_potential(V, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(V(xs), dtype=float)
    if vals.shape != xs.shape:
        raise DomainError("V must map an array of x to an array of the same shape")
    if not np.all(np.isfinite(vals)):
        raise DomainError("potential must be finite on the domain")
    return vals


def _threshold(vals: np.ndarray) -> float:
    return float(min(vals[0], vals[-1])) - _BOUND_MARGIN


def _solve_fd2(vals: np.ndarray, h: float, threshold: float):
    # deferred import: keeps scipy.linalg out of the cold start of `import drttp`
    from scipy.linalg import eigh_tridiagonal

    d = 2.0 / h**2 + vals[1:-1]
    e = -np.ones(len(d) - 1) / h**2
    lo = float(vals.min()) - 1.0
    # explicit absolute tolerance: the default eps*||T|| would dominate the
    # Richardson-extrapolated error for weakly bound levels
    w, v = eigh_tridiagonal(
        d, e, select="v", select_range=(lo, threshold), tol=1e-13
    )
    return w, v


def _count_sign_changes(psi: np.ndarray) -> int:
    mask = np.abs(psi) > 1e-8 * np.max(np.abs(psi))
    sgn = np.sign(psi[mask])
    return int(np.sum(sgn[:-1] * sgn[1:] < 0))


def solve_schrodinger(V, domain: tuple[float, float] = (-40.0, 40.0),
                      max_levels: int = 64, h: float = 5e-4,
                      method: str = "fd2") -> NumericSpectrum:
    """Bound states of -psi'' + V psi = E psi with Dirichlet ends.

    Second-order central differences on uniform grids of spacing h and
    h/2, Richardson extrapolated; the per-level convergence estimate is
    the extrapolation increment.  ``method`` names that discretization
    and accepts only "fd2".  ``V`` must map an array of x to an array of
    the same shape.

    ``domain`` must contain 0.  An edge of the box moves out by half
    while V still falls outward over its last unit of x, or while a
    bound eigenvector has not decayed there, up to |x| = 400; an edge
    that still falls there raises ConvergenceError.  Bound means below
    min(V(x_min), V(x_max)) minus a small safety margin.
    """
    if method != "fd2":
        raise DomainError(f"unknown method {method!r}")
    x_min, x_max = domain
    if not (x_min < 0.0 < x_max and h > 0.0):
        raise DomainError("domain must contain 0 and h must be positive")

    def grid(hh):
        xs = np.linspace(x_min, x_max, int(round((x_max - x_min) / hh)) + 1)
        if len(xs) < 3:
            raise DomainError("h must leave at least 3 grid points in the domain")
        return xs, _eval_potential(V, xs)

    def solve_once(xs, vals):
        w, v = _solve_fd2(vals, xs[1] - xs[0], _threshold(vals))
        return w[:max_levels], v[:, :max_levels]

    # widen until each edge is flat or confining and every bound
    # eigenvector has decayed at the walls, so weakly bound levels are
    # not shifted by the Dirichlet box
    while True:
        xs, vals = grid(h)
        # an edge that falls outward over its last unit of x is neither
        # flat (asymptote reached) nor confining
        k = min(len(xs) - 1, max(1, int(round(1.0 / (xs[1] - xs[0])))))
        grow_l = bool(vals[k] - vals[0] > _FLATNESS_TOL)
        grow_r = bool(vals[-1 - k] - vals[-1] > _FLATNESS_TOL)
        if grow_l or grow_r:
            if ((grow_l and -x_min >= _WIDEN_CAP)
                    or (grow_r and x_max >= _WIDEN_CAP)):
                raise ConvergenceError(
                    "potential not confining at requested tolerance"
                )
        else:
            w_c, v_c = solve_once(xs, vals)
            if v_c.shape[1] == 0:
                break
            amp = np.max(np.abs(v_c), axis=0)
            left = np.max(np.abs(v_c[1, :]) / amp)
            right = np.max(np.abs(v_c[-2, :]) / amp)
            grow_l = left > _DECAY_TOL and -x_min < _WIDEN_CAP
            grow_r = right > _DECAY_TOL and x_max < _WIDEN_CAP
            if not (grow_l or grow_r):
                break
        if grow_l:
            x_min *= 1.5
        if grow_r:
            x_max *= 1.5

    xs_f, vals_f = grid(0.5 * h)
    w_f, v_f = solve_once(xs_f, vals_f)
    n_lev = min(len(w_c), len(w_f))
    extrap = (4.0 * w_f[:n_lev] - w_c[:n_lev]) / 3.0
    conv = np.abs(w_f[:n_lev] - w_c[:n_lev]) / 3.0
    if len(w_f) > n_lev:
        # level resolved only on the fine grid: keep it, flag coarse error
        extrap = np.concatenate([extrap, w_f[n_lev:]])
        conv = np.concatenate([conv, np.full(len(w_f) - n_lev, np.inf)])
    hfine = xs_f[1] - xs_f[0]
    vecs = v_f / np.sqrt(hfine * np.sum(v_f**2, axis=0, keepdims=True))
    # sign convention: first significant excursion positive
    for j in range(vecs.shape[1]):
        nz = np.nonzero(np.abs(vecs[:, j]) > 1e-6 * np.max(np.abs(vecs[:, j])))[0]
        if len(nz) and vecs[nz[0], j] < 0:
            vecs[:, j] = -vecs[:, j]
    nodes = [_count_sign_changes(vecs[:, j]) for j in range(vecs.shape[1])]
    return NumericSpectrum(
        eigenvalues=extrap,
        eigenvectors=vecs,
        grid={"x_min": x_min, "x_max": x_max, "n_points": len(xs_f), "h": hfine},
        node_counts=nodes,
        convergence=conv,
        threshold=_threshold(vals_f),
    )


def residual_check(psi: np.ndarray, E: float, V, x_grid: np.ndarray) -> float:
    """Max interior Schrodinger residual with 4th-order differences.

    max |(-psi'' + (V - E) psi)| / max|psi| over interior grid points.
    """
    psi = np.asarray(psi, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if psi.shape != x_grid.shape:
        raise DomainError("psi and x_grid must have the same shape")
    if np.max(np.abs(psi)) == 0.0:
        raise DomainError("psi must be nontrivial")
    h = x_grid[1] - x_grid[0]
    d2 = (
        -psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]
    ) / (12.0 * h * h)
    vals = _eval_potential(V, x_grid[2:-2])
    res = -d2 + (vals - E) * psi[2:-2]
    return float(np.max(np.abs(res)) / np.max(np.abs(psi)))


@dataclass
class SpectrumComparison:
    count_match: bool
    abs_errors: np.ndarray
    rel_errors: np.ndarray
    node_match: bool
    passed: bool


def compare_spectra(analytic, numeric: NumericSpectrum, tol: float,
                    relative: bool = False) -> SpectrumComparison:
    """Per-level comparison of an analytic level list against the oracle."""
    analytic = np.asarray(list(analytic), dtype=float)
    count_match = len(analytic) == len(numeric.eigenvalues)
    n = min(len(analytic), len(numeric.eigenvalues))
    abs_err = np.abs(analytic[:n] - numeric.eigenvalues[:n])
    rel_err = abs_err / np.maximum(np.abs(analytic[:n]), 1e-300)
    node_match = numeric.node_counts[:n] == list(range(n))
    err = rel_err if relative else abs_err
    passed = bool(count_match and node_match and (n == 0 or np.max(err) <= tol))
    return SpectrumComparison(count_match, abs_err, rel_err, node_match, passed)


def spectral_symmetric_difference(e1, e2, tol: float) -> tuple[list[float], list[float]]:
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
