"""Independent numerical Schrodinger eigensolver.

The module solves; it does not compare.  It consumes a potential only as a
black-box callable x -> V(x) and never touches the closed-form level
formulas: ``verify.oracle_point`` is where the closed form meets its
levels and node counts, and verify's checks decide agreement.
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
# _N_NODES: each rung is solved on about sqrt(2) times the nodes of the one
# below it, and a level is kept only where two successive rungs agree to
# _AGREE_TOL.  The ladder stops at the first rung that keeps every level
# below threshold with node counts 0..k-1; the last rung is the cap.  On the
# DKV wells the sinc error reaches rounding below 140 nodes, and above that
# the rounding error grows with the matrix norm (n**2), so a finer rung that
# is not needed only adds rounding, and eigensolve time as n**3: a ratio of
# sqrt(2) overshoots the grid a well needs by at most sqrt(2) in n, 2.8 in
# time.  Most wells stop at 140 nodes; wells such as (1.561, 32.66, 1.00273),
# whose upper levels 100 nodes do not resolve, at 200 or 280; the deep wells
# of 26 to 37 levels, such as (0.441, 69.16, 2), at 400; (0.3, 79, 2), of 39
# levels, at 560; the 800-node cap is for potentials that never stop, such
# as x**2.  A +-500 box shifts the weakly bound top level of (0, 3.04, 2) by
# 5e-6 relative; tests/test_oracle.py holds these values.  The threshold, x0
# and L come from one call of V on the _PROBE_NODES points and the four edge
# points (_map_for); each rung calls V once more and returns vectors.
_BOX = 5000.0
_N_NODES = (100, 140, 200, 280, 400, 560, 800)
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


def _map_for(V) -> tuple[float, float, float]:
    """The one evaluation of V before the ladder, on the _PROBE_NODES points
    of x = sinh(s), |x| <= _BOX, and the edge points -_BOX, 1 - _BOX,
    _BOX - 1, _BOX.  Returns the threshold min(V(-_BOX), V(_BOX)) minus
    _BOUND_MARGIN and the centre x0 and scale L of the map
    x = x0 + L sinh(s): x0 is the probe point where V is least, and L the
    harmonic length a**-1/4 of the parabola a (x - x0)**2 + b (x - x0) + c
    fitted to V at the 5 probe points around x0, capped at 1 and rounded to
    a power of 2, so that wells of similar curvature share a kinetic block
    (L = 1 where a <= 0).  Raises ConvergenceError, naming the edge and the
    drop, where V still falls outward over the last unit of x."""
    s_max = np.arcsinh(_BOX)
    probe = np.sinh(np.linspace(-s_max, s_max, _PROBE_NODES))
    edges = [-_BOX, 1.0 - _BOX, _BOX - 1.0, _BOX]
    vals = _eval_potential(V, np.concatenate((probe, edges)))
    v_edge, vals = vals[_PROBE_NODES:], vals[:_PROBE_NODES]
    drops = (("left", v_edge[1] - v_edge[0]), ("right", v_edge[2] - v_edge[3]))
    falling = " and ".join(f"by {d:.3g} at the {side} edge" for side, d in drops
                           if d > _FLATNESS_TOL)
    if falling:
        raise ConvergenceError(f"potential not confining: V falls outward {falling}")
    threshold = float(min(v_edge[0], v_edge[3])) - _BOUND_MARGIN
    i = int(np.argmin(vals))
    x0 = float(probe[i])
    lo = min(max(i - 2, 0), _PROBE_NODES - 5)
    a = float(np.polyfit(probe[lo:lo + 5] - x0, vals[lo:lo + 5], 2)[0])
    width = min(1.0, a ** -0.25) if a > 0.0 else 1.0
    return threshold, x0, 2.0 ** round(math.log2(width))


# kinetic blocks kept: 6 cover the 100- and 140-node rungs at three map
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


def _solve_sinc(V, n: int, threshold: float, x0: float, scale: float):
    """Sinc collocation on n nodes of s, x = x0 + L sinh(s), g = dx/ds, in
    the Liouville form of -psi'' + V psi = E psi: psi = g^-1/2 w turns it
    into the symmetric (G^-1 (-D2 - 1/2 diag({x, s})) G^-1 + diag(V)) w
    = E w, G = diag(g).  Returns the nodes, the eigenvalues below threshold
    and the collocation vectors psi(x_j) = w_j / sqrt(g_j ds), unit L2."""
    from scipy.linalg import eigh

    offsets, g, ds, kinetic = _sinc_grid(n, scale)
    xs = x0 + offsets
    vals = _eval_potential(V, xs)
    h = kinetic.copy(order="F")
    h[np.diag_indices(n)] += vals
    lo = float(vals.min()) - 1.0
    # h is this call's own copy, finite (V is checked by _eval_potential) and
    # in Fortran order, so eigh overwrites it instead of copying it first
    w, u = eigh(h, subset_by_value=(lo, threshold), driver="evr",
                overwrite_a=True, check_finite=False)
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
    form has none.)  V is called once before the ladder (``_map_for``), on
    a 4 001-point probe of |x| <= _BOX and the edge points +-_BOX,
    +-(_BOX - 1), and once per rung.  The map comes from that first call:
    x0 is where V is least on the probe, and L is the length a**-1/4 of
    the well's curvature a there, capped at 1 and rounded to a power of 2.

    The eigenvalues below the threshold min(V(-_BOX), V(_BOX)) minus a
    small safety margin are solved densely on the node ladder
    _N_NODES = (100, 140, 200, 280, 400, 560, 800), about sqrt(2) times
    the nodes from rung to rung.  Each rung above the first is compared with
    the rung below it: levels are kept from the bottom up to the first that
    the two solves do not agree on to _AGREE_TOL relative; the
    difference is each kept level's convergence estimate, and the levels
    not kept are reported as rejected in ``diagnostics``.  The ladder stops
    at the first rung that keeps every level below threshold with node
    counts 0..k-1, as the oscillation theorem requires; otherwise it climbs
    to the 800-node cap, whose result is the 560/800 comparison whatever it
    keeps.  Each well stops one rung above the smallest grid that resolves
    it, and most stop at 140 nodes: the sinc error has reached rounding
    there, and a finer solve only adds rounding, which grows with the
    matrix norm, as n**2, and eigensolve time, as n**3.  Wells whose upper
    levels 100 nodes do not resolve, such as (1.561, 32.66, 1.00273), stop
    at 200 or 280 nodes; deep wells of 26 to 37 levels, such as
    (0.441, 69.16, 2), whose upper levels 200 nodes do not resolve, stop at
    400, the rung that confirms the 280-node levels.  Node counts are the
    sign changes of the collocation vector.  ``V`` must map an array of x
    to a finite array of the same shape; an edge where V still falls
    outward over its last unit of x raises ConvergenceError, which names
    the edge and the drop.  Each rung and the result are logged at DEBUG
    under ``drttp.oracle``.

    ``diagnostics`` holds the map centre ``x0`` and scale ``map_scale``,
    the seconds of the first call of V and the map fit (``map_seconds``),
    the node count and seconds of every solve that ran (``n_points``, for
    example (100, 140) or (100, 140, 200, 280, 400), and ``seconds``), the
    ``rejected`` eigenvalues and ``sawtooth``, the number of kept
    eigenvectors with more than n/2 sign changes: a spurious grid mode,
    which this form should never show.  The part of each solve that does
    not depend on V (node offsets and kinetic block) is built once per
    (node count, map scale) and reused while it is among the last few
    built; the seconds of a solve that builds it include the build.

    Reaching the cap raises nothing: the result holds fewer levels than lie
    below threshold, and lists the rest as rejected.  ``x**2`` climbs to
    the cap and gives 76 levels (1 to 151); its other eigenvalues below the
    threshold V(5000) = 2.5e7 are rejected.

    ``domain``, ``h`` and ``method`` are accepted and ignored: they
    configured the finite-difference solver this one replaced.
    """
    t_map = time.perf_counter()
    threshold, x0, scale = _map_for(V)
    map_seconds = time.perf_counter() - t_map

    n_points, seconds, w_f = [], [], None
    for n in _N_NODES:
        w_c = w_f
        t0 = time.perf_counter()
        xs, w_f, vecs = _solve_sinc(V, n, threshold, x0, scale)
        n_points.append(n)
        seconds.append(time.perf_counter() - t0)
        if w_c is None:
            continue
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

