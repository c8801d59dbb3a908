"""Independent numerical Schrodinger eigensolver.

Validates every closed-form spectrum, node count and spectral-surgery
claim.  The module consumes a potential only as a black-box callable
x -> V(x); it never touches the closed-form level formulas.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_FLATNESS_TOL = 1e-10
_BOUND_MARGIN = 1e-8
# x = x0 + L sinh(s), s uniform, |x - x0| <= _BOX, on the node ladder
# _N_NODES: each rung is solved on twice the nodes of the one below it, and a
# level is kept only where two successive rungs agree to _AGREE_TOL.  The
# ladder stops at the first rung that keeps every level below threshold with
# node counts 0..k-1; the last rung is the cap.  The ladder starts at 100
# nodes: on the DKV wells the sinc error reaches rounding below 140 nodes,
# and above that the rounding error grows with the matrix norm (n**2), so a
# finer rung that is not needed only adds rounding.  The 400-node rung is
# for wells such as (1.561, 32.66, 1.00273) whose upper levels 100 nodes do
# not resolve; the 800-node cap for the deep wells of 26 to 39 levels, such
# as (0.441, 69.16, 2), which 200 nodes do not resolve.  A +-500 box shifts
# the weakly bound top level of (0, 3.04, 2) by 5e-6 relative;
# tests/test_oracle.py holds these values.  x0 and L come from V on
# _PROBE_NODES points (_map_for).
_BOX = 5000.0
_N_NODES = (100, 200, 400, 800)
_AGREE_TOL = 1e-6
_PROBE_NODES = 4001

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
    diagnostics: dict              # map, nodes and seconds per solve, rejected, sawtooth

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


def _map_for(V) -> tuple[float, float]:
    """The centre x0 and scale L of the map x = x0 + L sinh(s), from V on
    _PROBE_NODES points of x = sinh(s), |x| <= _BOX: x0 is the probe point
    where V is least, and L the harmonic length a**-1/4 of the parabola
    a (x - x0)**2 + b (x - x0) + c fitted to V at the 5 probe points around
    x0, capped at 1 and rounded to a power of 2, so that wells of similar
    curvature share a kinetic block (L = 1 where a <= 0)."""
    s_max = np.arcsinh(_BOX)
    xs = np.sinh(np.linspace(-s_max, s_max, _PROBE_NODES))
    vals = _eval_potential(V, xs)
    i = int(np.argmin(vals))
    x0 = float(xs[i])
    lo = min(max(i - 2, 0), _PROBE_NODES - 5)
    a = float(np.polyfit(xs[lo:lo + 5] - x0, vals[lo:lo + 5], 2)[0])
    width = min(1.0, a ** -0.25) if a > 0.0 else 1.0
    return x0, 2.0 ** round(math.log2(width))


# kinetic blocks kept: 6 cover the 100- and 200-node rungs at three map
# scales; one 800-node block is 5.1 MB
@functools.lru_cache(maxsize=6)
def _sinc_grid(n: int, scale: float):
    """The V-independent part of the n-node solve at map scale L, built once
    per (n, L): the node offsets x - x0 = L sinh(s), g = dx/ds, the step ds
    and the kinetic block G^-1 (-D2 - 1/2 diag({x, s})) G^-1, G = diag(g),
    in Fortran order, the layout LAPACK works in.  Nothing in it depends on
    x0.  The arrays are read-only because every solve of that (n, L) shares
    them."""
    # deferred import: keeps scipy.linalg out of the cold start of `import drttp`
    from scipy.linalg import toeplitz

    s_max = np.arcsinh(_BOX / scale)
    s, ds = np.linspace(-s_max, s_max, n, retstep=True)
    offsets = scale * np.sinh(s)
    g = scale * np.cosh(s)
    # -D2, the exact sinc second derivative (Colbert & Miller 1992):
    # pi**2 / (3 ds**2) on the diagonal, 2 (-1)**k / (k ds)**2 at distance k
    m = np.arange(1, n)
    col = np.concatenate(([np.pi**2 / 3.0], np.where(m % 2, -2.0, 2.0) / m**2)) / ds**2
    kinetic = toeplitz(col)
    # the Schwarzian of the map, {x, s} = 1 - 3/2 tanh(s)**2
    kinetic[np.diag_indices(n)] -= 0.5 * (1.0 - 1.5 * np.tanh(s) ** 2)
    kinetic = np.asfortranarray(kinetic / np.outer(g, g))
    for arr in (offsets, g, kinetic):
        arr.flags.writeable = False
    return offsets, g, ds, kinetic


def _solve_sinc(V, n: int, threshold: float, x0: float, scale: float,
                eigvals_only: bool = False):
    """Sinc collocation on n nodes of s, x = x0 + L sinh(s), g = dx/ds, in
    the Liouville form of -psi'' + V psi = E psi: psi = g^-1/2 w turns it
    into the symmetric (G^-1 (-D2 - 1/2 diag({x, s})) G^-1 + diag(V)) w
    = E w, G = diag(g).  Returns the nodes, the eigenvalues below threshold
    and the collocation vectors psi(x_j) = w_j / sqrt(g_j ds), unit L2
    (None with ``eigvals_only``)."""
    from scipy.linalg import eigh

    offsets, g, ds, kinetic = _sinc_grid(n, scale)
    xs = x0 + offsets
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
    x = x0 + L sinh(s) with s uniform, so that |x - x0| <= _BOX is covered
    by nodes that crowd near x0 (Boyd 2001, ch. 17).  The problem is solved
    in its Liouville form: with g = dx/ds and psi = g^-1/2 w it is the
    symmetric eigenproblem of G^-1 (-D2 - 1/2 diag({x, s})) G^-1 + diag(V),
    G = diag(g), where D2 is the exact sinc second derivative and
    {x, s} = 1 - 3/2 tanh(s)**2 the Schwarzian of the map.  (The product
    form G^-1/2 D1^T G^-1 D1 G^-1/2 of the sinc first derivative D1 has a
    spurious eigenvalue with a sign change at every node, the "ghost"
    levels of mapped grids, Willner, Dulieu & Masnou-Seeuws 2004; this
    form has none.)  The map comes from V (``_map_for``): x0 is where V is
    least on a 4 001-point probe of |x| <= _BOX, and L is the length
    a**-1/4 of the well's curvature a there, capped at 1 and rounded to a
    power of 2.

    The eigenvalues below the threshold min(V(-_BOX), V(_BOX)) minus a
    small safety margin are solved densely on the node ladder
    _N_NODES = (100, 200, 400, 800).  Each rung above the first is compared
    with the rung below it: levels are kept from the bottom up to the first
    that the two solves do not agree on to _AGREE_TOL relative; the
    difference is each kept level's convergence estimate, and the levels
    not kept are reported as rejected in ``diagnostics``.  The ladder stops
    at the first rung that keeps every level below threshold with node
    counts 0..k-1, as the oscillation theorem requires; otherwise it climbs
    to the 800-node cap, whose result is the 400/800 comparison whatever it
    keeps.  Most wells stop at 200 nodes: the sinc error has reached
    rounding there, and a finer solve only adds rounding, which grows with
    the matrix norm, as n**2.  The 400-node rung is for wells whose upper
    levels 100 nodes do not resolve, such as (1.561, 32.66, 1.00273); the
    cap for deep wells of 26 to 39 levels, such as (0.441, 69.16, 2), whose
    upper levels 200 nodes do not resolve, so that their 400-node levels
    are confirmed on 800 nodes.  Node counts are the sign changes of the
    collocation vector.  ``V`` must map an array of x to a finite array of
    the same shape; an edge where V still falls outward over its last unit
    of x raises ConvergenceError.  Each rung and the result are logged at
    DEBUG under ``drttp.oracle``.

    ``diagnostics`` holds the map centre ``x0`` and scale ``map_scale``,
    the seconds of the edge check and the map probe (``map_seconds``),
    the node count and seconds of every solve that ran (``n_points``, for
    example (100, 200) or (100, 200, 400, 800), and ``seconds``), the
    ``rejected`` eigenvalues and ``sawtooth``, the number of kept
    eigenvectors with more than n/2 sign changes: a spurious grid mode,
    which this form should never show.  The part of each solve that does
    not depend on V (node offsets and kinetic block) is built once per
    (node count, map scale) and reused while it is among the last few
    built; the seconds of a solve that builds it include the build.

    Limit: a potential that grows without bound is resolved only as far as
    the last two rungs agree.  ``x**2`` gives 50 levels (1 to 99); its
    other eigenvalues below the threshold V(5000) = 2.5e7 are listed as
    rejected.

    ``domain``, ``h`` and ``method`` are accepted and ignored: they
    configured the finite-difference solver this one replaced.
    """
    t_map = time.perf_counter()
    edges = np.array([-_BOX, 1.0 - _BOX, _BOX - 1.0, _BOX])
    v_edge = _eval_potential(V, edges)
    if (v_edge[1] - v_edge[0] > _FLATNESS_TOL
            or v_edge[2] - v_edge[3] > _FLATNESS_TOL):
        raise ConvergenceError("potential not confining at requested tolerance")
    threshold = float(min(v_edge[0], v_edge[3])) - _BOUND_MARGIN
    x0, scale = _map_for(V)
    map_seconds = time.perf_counter() - t_map

    n_points, seconds = [], []

    def solve(n, eigvals_only):
        t0 = time.perf_counter()
        out = _solve_sinc(V, n, threshold, x0, scale, eigvals_only=eigvals_only)
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
    diagnostics = {"x0": x0, "map_scale": scale, "map_seconds": map_seconds,
                   "n_points": tuple(n_points),
                   "seconds": tuple(seconds), "rejected": rejected,
                   "sawtooth": sum(c > n_points[-1] // 2 for c in counts)}
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
