"""Independent numerical Schrodinger eigensolver.

Validates every closed-form spectrum, node count and spectral-surgery
claim.  The module consumes a potential only as a black-box callable
x -> V(x); it never touches the closed-form level formulas.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_FLATNESS_TOL = 1e-10
_BOUND_MARGIN = 1e-8
# x = _MAP_SCALE sinh(s), s uniform, |x| <= _BOX, on the node ladder
# _N_NODES: each rung is solved on twice the nodes of the one below it, and a
# level is kept only where two successive rungs agree to _AGREE_TOL.  The
# ladder stops at the first rung that keeps every level below threshold with
# node counts 0..k-1; the last rung is the cap.  A +-500 box shifts the weakly
# bound top level of (0, 3.04, 2) by 5e-6 relative, a map scale of 4
# under-resolves the narrow wells of z_T in -0.3..-10 such as
# (0, 10.44, -0.775), and 200 nodes lose a level of (0, 10.3, -0.5), so that
# point climbs to the cap; tests/test_oracle.py holds these values.
_MAP_SCALE = 1.0
_BOX = 5000.0
_N_NODES = (200, 400, 800)
_AGREE_TOL = 1e-6

_log = logging.getLogger("drttp.oracle")


@dataclass
class NumericSpectrum:
    """Oracle output: levels below the continuum threshold."""

    eigenvalues: np.ndarray        # ascending, from the last rung solved
    eigenvectors: np.ndarray       # columns, psi at x, unit L2
    x: np.ndarray                  # the collocation nodes of the last rung
    node_counts: list[int]
    convergence: np.ndarray        # per level |E(2n) - E(n)| of the last two rungs
    threshold: float
    diagnostics: dict              # map scale, nodes and seconds per solve, rejected

    def __len__(self):
        return len(self.eigenvalues)


def _eval_potential(V, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(V(xs), dtype=float)
    if vals.shape != xs.shape:
        raise DomainError("V must map an array of x to an array of the same shape")
    if not np.all(np.isfinite(vals)):
        raise DomainError("potential must be finite on the domain")
    return vals


def _count_sign_changes(psi: np.ndarray) -> int:
    mask = np.abs(psi) > 1e-8 * np.max(np.abs(psi))
    sgn = np.sign(psi[mask])
    return int(np.sum(sgn[:-1] * sgn[1:] < 0))


@functools.lru_cache(maxsize=4)
def _sinc_grid(n: int):
    """The V-independent part of the n-node solve, built once per n: the
    nodes x = L sinh(s), g = dx/ds, the step ds and the kinetic block
    G^-1/2 D1^T G^-1 D1 G^-1/2, G = diag(g), in Fortran order, the layout
    LAPACK works in.  The arrays are read-only because every solve of that
    n shares them."""
    # deferred import: keeps scipy.linalg out of the cold start of `import drttp`
    from scipy.linalg import toeplitz

    s_max = np.arcsinh(_BOX / _MAP_SCALE)
    s, ds = np.linspace(-s_max, s_max, n, retstep=True)
    xs = _MAP_SCALE * np.sinh(s)
    g = _MAP_SCALE * np.cosh(s)
    # sinc derivative at the nodes: D1[i, j] = (-1)**(i-j) / ((i-j) ds)
    m = np.arange(1, n)
    col = np.concatenate(([0.0], np.where(m % 2, -1.0, 1.0) / (m * ds)))
    a = toeplitz(col, -col) / np.sqrt(g)[None, :]
    kinetic = np.asfortranarray(a.T @ (a / g[:, None]))
    for arr in (xs, g, kinetic):
        arr.flags.writeable = False
    return xs, g, ds, kinetic


def _solve_sinc(V, n: int, threshold: float, eigvals_only: bool = False):
    """Sinc collocation on n nodes of s, x = L sinh(s): the weak form
    (D1^T G^-1 D1 + diag(V g)) c = E G c, G = diag(g), g = dx/ds, in the
    symmetric variable u = G^1/2 c.  Returns the nodes, the eigenvalues
    below threshold and the collocation vectors c = psi(x_j), unit L2
    (None with ``eigvals_only``)."""
    from scipy.linalg import eigh

    xs, g, ds, kinetic = _sinc_grid(n)
    vals = _eval_potential(V, xs)
    h = kinetic.copy(order="F")
    h[np.diag_indices(n)] += vals
    lo = float(vals.min()) - 1.0
    # h is this call's own copy, finite (V is checked by _eval_potential) and
    # in Fortran order, so eigh overwrites it instead of copying it first
    res = eigh(h, subset_by_value=(lo, threshold), driver="evr",
               eigvals_only=eigvals_only, overwrite_a=True, check_finite=False)
    if eigvals_only:
        return xs, res, None
    w, u = res
    return xs, w, u / np.sqrt(g * ds)[:, None]


def solve_schrodinger(V, *, domain=None, h=None, method=None) -> NumericSpectrum:
    """Bound states of -psi'' + V psi = E psi on the whole line.

    Sinc collocation (sinc-DVR, Colbert & Miller 1992) in s, where
    x = _MAP_SCALE sinh(s) with s uniform, so that |x| <= _BOX is covered
    by nodes that crowd near the origin (Boyd 2001, ch. 17).  The
    symmetric weak form is solved densely for the eigenvalues below the
    threshold min(V(-_BOX), V(_BOX)) minus a small safety margin, on the
    node ladder _N_NODES = (200, 400, 800).  Each rung above the first is
    compared with the rung below it: levels are kept from the bottom up to
    the first that the two solves do not agree on to _AGREE_TOL relative;
    the difference is each kept level's convergence estimate, and the
    levels not kept are reported as rejected in ``diagnostics``.  The
    ladder stops at the 400-node rung when it keeps every level below
    threshold and their node counts are 0..k-1, as the oscillation
    theorem requires; otherwise it climbs to the 800-node cap, whose
    result is the 400/800 comparison whatever it keeps.  Node counts are
    the sign changes of the collocation vector.  ``V`` must map an array
    of x to a finite array of the same shape; an edge where V still falls
    outward over its last unit of x raises ConvergenceError.  Each rung
    and the result are logged at DEBUG under ``drttp.oracle``.

    ``diagnostics["n_points"]`` and ``diagnostics["seconds"]`` list every
    solve that ran, for example (200, 400) or (200, 400, 800).  The part
    of each solve that does not depend on V (nodes and kinetic block) is
    built once per node count per process and reused by every later
    solve; the seconds of the first solve of each node count in a process
    include that build.

    Limit: a potential that grows without bound is resolved only as far
    as the last two rungs agree.  ``x**2`` gives 47 levels (1 to 93); its
    other eigenvalues below the threshold V(5000) = 2.5e7 are listed as
    rejected.

    ``domain``, ``h`` and ``method`` are accepted and ignored: they
    configured the finite-difference solver this one replaced.
    """
    edges = np.array([-_BOX, 1.0 - _BOX, _BOX - 1.0, _BOX])
    v_edge = _eval_potential(V, edges)
    if (v_edge[1] - v_edge[0] > _FLATNESS_TOL
            or v_edge[2] - v_edge[3] > _FLATNESS_TOL):
        raise ConvergenceError("potential not confining at requested tolerance")
    threshold = float(min(v_edge[0], v_edge[3])) - _BOUND_MARGIN

    n_points, seconds = [], []

    def solve(n, eigvals_only):
        t0 = time.perf_counter()
        out = _solve_sinc(V, n, threshold, eigvals_only=eigvals_only)
        n_points.append(n)
        seconds.append(time.perf_counter() - t0)
        return out

    # the first rung only tests agreement: it needs no eigenvectors
    _, w_c, _ = solve(_N_NODES[0], True)
    for n in _N_NODES[1:]:
        xs, w_f, vecs = solve(n, False)
        conv = np.array([np.min(np.abs(w_c - e), initial=np.inf) for e in w_f])
        # resolution only degrades upward: a level above one the rungs
        # disagree on is not trusted even if they happen to agree on it
        keep = np.cumprod(conv <= _AGREE_TOL * np.abs(w_f)).astype(bool)
        counts = [_count_sign_changes(vecs[:, j]) for j in np.flatnonzero(keep)]
        rejected = w_f[~keep].tolist()
        accepted = not rejected and counts == list(range(len(counts)))
        _log.debug("sinc rung %d against %d: %s", n, n_points[-2],
                   "accepted" if accepted else
                   f"rejected levels {rejected}" if rejected else
                   f"node counts {counts}, not 0..{len(counts) - 1}")
        if accepted:
            break
        # evr returns the same eigenvalues with and without vectors, so this
        # rung is the next one's coarse solve as an eigenvalues-only one would be
        w_c = w_f
    w, conv, vecs = w_f[keep], conv[keep], vecs[:, keep]
    # sign convention: first significant excursion positive
    for j in range(vecs.shape[1]):
        nz = np.nonzero(np.abs(vecs[:, j]) > 1e-6 * np.max(np.abs(vecs[:, j])))[0]
        if len(nz) and vecs[nz[0], j] < 0:
            vecs[:, j] = -vecs[:, j]
    diagnostics = {"map_scale": _MAP_SCALE, "n_points": tuple(n_points),
                   "seconds": tuple(seconds), "rejected": rejected}
    _log.debug("sinc solve: %d levels kept, %s", len(w), diagnostics)
    return NumericSpectrum(
        eigenvalues=w,
        eigenvectors=vecs,
        x=xs,
        node_counts=counts,
        convergence=conv,
        threshold=threshold,
        diagnostics=diagnostics,
    )


@dataclass
class SpectrumComparison:
    count_match: bool
    abs_errors: np.ndarray
    rel_errors: np.ndarray
    node_match: bool


def compare_spectra(analytic, numeric: NumericSpectrum) -> SpectrumComparison:
    """Per-level comparison of an analytic level list against the oracle,
    over the levels both have; the caller applies its tolerance."""
    analytic = np.asarray(list(analytic), dtype=float)
    count_match = len(analytic) == len(numeric.eigenvalues)
    n = min(len(analytic), len(numeric.eigenvalues))
    abs_err = np.abs(analytic[:n] - numeric.eigenvalues[:n])
    rel_err = abs_err / np.maximum(np.abs(analytic[:n]), 1e-300)
    node_match = numeric.node_counts[:n] == list(range(n))
    return SpectrumComparison(count_match, abs_err, rel_err, node_match)


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
