"""Change of variable, tangent polynomial and potential evaluation.

The family is parametrized by two ray identifiers (``lambda_o``, ``mu_o``)
and the double root ``z_T`` of the tangent polynomial

    T2(z) = (z - z_T)**2 / (1 - z_T)**2,       T2(1) = 1,

which governs the change of variable z(x) through

    (dz/dx)**2 = 4 z**2 (1-z)**2 / T2(z).

Everything downstream (spectra, eigenfunctions, Darboux partners) is built
on the canonical Schrodinger gauge -psi'' + V(x) psi = E psi with
hbar**2/2m = 1, V(x->+inf) = 0 and E equal to the z-gauge energy epsilon.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import RayIdentifiers, TangentPoly, _two_sum

_log = logging.getLogger("drttp.core")

# Origin convention for the map x(z): fixed so that the z_T = 2 branch is
# exactly z(x) = 2 / (1 + sqrt(1 + exp(-2x))).
X_ORIGIN = -math.log(2.0)


def _split(a: float) -> tuple[float, float]:
    """Veltkamp's split of a into a high and a low half of 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _dot2(pairs) -> float:
    """sum(x * y for x, y in pairs) as if in twice the working precision
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26 (2005), Algorithm 5.3),
    with Dekker's TwoProduct, since Python before 3.13 has no fused
    multiply-add."""
    p = s = 0.0
    for x, y in pairs:
        h = x * y
        xh, xl = _split(x)
        yh, yl = _split(y)
        r = xl * yl - (((h - xh * yh) - xl * yh) - xh * yl)
        p, q = _two_sum(p, h)
        s += q + r
    return p + s


def tangent_poly_eval(z, tp: TangentPoly):
    """Evaluate T2(z) = (z - z_T)**2 / (1 - z_T)**2."""
    z = np.asarray(z, dtype=float)
    out = (z - tp.z_T) ** 2 / (1.0 - tp.z_T) ** 2
    return out if out.ndim else float(out)


# a pair (z, 1 - z) whose sum is further than this from 1 is not a pair
_PAIR_TOL = 4.0 * np.finfo(float).eps


def unit_interval(z, omz, closed: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The pair (z, 1 - z) as float arrays.  DomainError unless, at every
    point, both lie in [0, 1] (neither is 0, z in (0, 1), when not
    ``closed``) and they sum to 1 within 4 eps, as a pair from
    :func:`map_x_to_z_pair` or from z and 1 - z does.  NaN lies in neither."""
    z, omz = np.asarray(z, dtype=float), np.asarray(omz, dtype=float)
    for u in (z, omz):
        inside = ((0.0 <= u) if closed else (0.0 < u)) & (u <= 1.0)
        if not np.all(inside):
            raise DomainError(f"z and 1 - z must lie in {'[0, 1]' if closed else '(0, 1)'}")
    if not np.all(np.abs(z + omz - 1.0) <= _PAIR_TOL):
        raise DomainError("z and 1 - z must sum to 1")
    return z, omz


def x_of_z(z, omz, tp: TangentPoly):
    """Closed-form inverse map x(z), strictly increasing on (0, 1), from the
    pair (z, 1 - z), each at its own relative precision; a z or 1 - z
    outside (0, 1) raises DomainError."""
    z, omz = unit_interval(z, omz, closed=False)
    zT = tp.z_T
    out = (-zT * np.log(z) - (1.0 - zT) * np.log(omz)) / (2.0 * (1.0 - zT)) + X_ORIGIN
    return out if out.ndim else float(out)


def dz_dx(z, omz, tp: TangentPoly):
    """dz/dx = 2 z (1 - z) (1 - z_T) / (z - z_T) from the pair (z, 1 - z);
    positive on (0, 1).  With 1 - z from :func:`map_x_to_z_pair` it keeps
    its relative precision in both tails."""
    z, omz = unit_interval(z, omz)
    out = 2.0 * z * omz * (1.0 - tp.z_T) / (z - tp.z_T)
    return out if out.ndim else float(out)


def _pair_from_small(u, right):
    """(z, 1 - z) from the small coordinate u <= 1/2, which is z left of
    x_of_z(1/2) and 1 - z right of it.  u keeps its relative precision and
    1 - u is exact to rounding, so z + (1 - z) == 1."""
    v = 1.0 - u
    return np.where(right, v, u), np.where(right, u, v)


# x_of_z(1/2) on the z_T = 2 branch
_X_MID_ZT2 = -1.5 * math.log(2.0)
# Below this x the z_T = 2 closed form is z = 2 e**x and 1 - z = 1 to double
# precision (e**x < 1e-152); above it e**(-2x) cannot overflow.
_X_FAR_ZT2 = -350.0


def _map_zt2_pair(x):
    # z_T = 2 branch in elementary functions, z = 2 / (1 + sqrt(1 + e**(-2x)))
    # and 1 - z = e**(-2x) / (1 + sqrt(1 + e**(-2x)))**2.
    e = np.exp(-2.0 * np.maximum(x, _X_FAR_ZT2))
    s = 1.0 + np.sqrt(1.0 + e)
    right = x > _X_MID_ZT2
    u = np.where(right, e, 2.0 * s) / s**2
    far = x < _X_FAR_ZT2
    if np.any(far):
        u = np.where(far, 2.0 * np.exp(np.minimum(x, _X_FAR_ZT2)), u)
    return _pair_from_small(u, right)


# Newton in t = log u for the small coordinate u, so t <= log(1/2); exp(t)
# is 0 below _T_MIN.
_LOG_HALF = -math.log(2.0)
_T_MIN = -746.0
# A step below this many units of eps * (1 - t) is rounding noise: the
# residual's rounding error divided by its slope is at most about
# 2 * eps * (1 + |t|), and t itself moves in steps of eps * |t| / 2.
_STEP_TOL = 4.0 * np.finfo(float).eps
# Each Newton step from the tail gains about one unit of t while exp(t)
# dominates the slope, so this covers [_T_MIN, log(1/2)]; reaching it means
# the iteration failed.
_MAX_ITER = 800


def _newton_step(t, xs, alpha, beta):
    """Newton step for f(t) = alpha t + beta log1p(-e**t) - xs."""
    q = np.exp(t)
    return (alpha * t + beta * np.log1p(-q) - xs) / (alpha - beta * q / (1.0 - q))


def _newton_log(xs, alpha, beta):
    """Solve alpha t + beta log1p(-e**t) = xs for t <= log(1/2), elementwise.

    With a = -z_T / (2 (1 - z_T)) > 0 the left side is (alpha, beta) =
    (a, -1/2) and the right side (-1/2, a).  f is monotone with one-signed
    curvature, so Newton approaches the root monotonically from above and
    needs no bracket; the clamp at log(1/2) keeps an iterate there.  Two
    asymptotes give starts above the root, and the lower one is taken:
    the tail t = xs / alpha (the log1p term dropped), and the root of the
    log1p term alone with alpha t held at its value at _T_MIN.  The second
    bounds the iterations where exp(t) dominates the slope, as when
    z_T -> 0-, since from the tail each step there gains only about one
    unit of t.  ``xs`` is a 1-d array; only its points not yet converged
    are iterated.  Returns (t, iterations).
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.fmin(xs / alpha, np.log(-np.expm1((xs - alpha * _T_MIN) / beta)))
    t = np.clip(t, _T_MIN, _LOG_HALF)
    if not t.size:
        return t, 0
    todo = np.arange(t.size)
    for it in range(1, _MAX_ITER + 1):
        tt = t[todo]
        t_new = np.clip(tt - _newton_step(tt, xs[todo], alpha, beta),
                        _T_MIN, _LOG_HALF)
        t[todo] = t_new
        todo = todo[np.abs(t_new - tt) > _STEP_TOL * (1.0 - tt)]
        if not todo.size:
            return t, it
    raise ConvergenceError(f"inverse map: Newton did not converge in {_MAX_ITER} steps")


def _map_newton(x, tp: TangentPoly):
    """(z(x), 1 - z(x)) on any branch by Newton in t = log z left of
    x_of_z(1/2) and t = log(1 - z) right of it."""
    a = -tp.z_T / (2.0 * (1.0 - tp.z_T))
    if a == 0.0:
        raise DomainError(f"z_T = {tp.z_T!r} too close to 0: the log z slope underflows")
    xs_mid = math.log(2.0) / (2.0 * (1.0 - tp.z_T))  # x_of_z(1/2) - X_ORIGIN
    xs = x - X_ORIGIN
    right = xs > xs_mid
    left = ~right
    t = np.empty_like(xs)
    t[left], its_left = _newton_log(xs[left], a, -0.5)
    t[right], its_right = _newton_log(xs[right], -0.5, a)
    _log.debug("inverse map z_T=%r: %d point(s), %d Newton iterations",
               tp.z_T, xs.size, max(its_left, its_right))
    return _pair_from_small(np.exp(t), right)


class GaugeRecord:
    """The map of one grid x of finite values: ``z`` and ``omz``, z(x) and
    1 - z(x), the Liouville ``weight`` sqrt((z - z_T)/(2 (1 - z_T))), the
    factor (z')**(-1/2) less its z**(-1/2) (1 - z)**(-1/2), which solution
    prefactors absorb, and the ``halves``, :func:`split_at_half` of the
    grid.  The arrays are at least 1-d, C-contiguous (the split indexes
    them flattened in C order, and products of them are multiplied in place
    through such a view) and read-only, since a memoized record is shared
    by every later call on its grid and by every thread.
    """

    def __init__(self, x, tp: TangentPoly):
        z, omz = _map_zt2_pair(x) if tp.z_T == 2.0 else _map_newton(x, tp)
        self.z = _read_only(np.ascontiguousarray(z))
        self.omz = _read_only(np.ascontiguousarray(omz))
        self.weight = _read_only(np.sqrt((self.z - tp.z_T) / (2.0 * (1.0 - tp.z_T))))
        self.halves = tuple(_read_only(h) for h in split_at_half(self.z, self.omz))


def split_at_half(z, omz) -> tuple:
    """(left, right, z[left], (1 - z)[right]) over the flattened arrays z and
    1 - z: the indices of the points with z <= 1/2 and of the others, each
    side with its small coordinate."""
    z, omz = np.reshape(z, -1), np.reshape(omz, -1)
    mask = z <= 0.5
    left, right = np.flatnonzero(mask), np.flatnonzero(~mask)
    return left, right, z[left], omz[right]


def _read_only(a):
    a.flags.writeable = False
    return a


# The memo keeps the records of this many most recently used grids of at
# most _MEMO_MAX_POINTS points: callers evaluate every level, the potential,
# the partner and node counts on the same few grids.
_MEMO_GRIDS = 4
_MEMO_MAX_POINTS = 65536


@functools.lru_cache(maxsize=_MEMO_GRIDS)
def _memo(tp: TangentPoly, shape: tuple, data: bytes) -> GaugeRecord:
    # TangentPoly hashes and compares by z_T: equal instances share records
    return GaugeRecord(np.frombuffer(data).reshape(shape), tp)


def gauge_record(x, tp: TangentPoly) -> GaugeRecord:
    """The memoized :class:`GaugeRecord` of x; a scalar or a grid the memo
    does not keep gets a record of its own, dropped after use.  DomainError
    unless x is finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    if not x.ndim or x.size > _MEMO_MAX_POINTS:
        return GaugeRecord(x, tp)
    if not _log.isEnabledFor(logging.DEBUG):
        return _memo(tp, x.shape, x.tobytes())
    # a hit of another thread between the two reads also logs a reuse
    hits = _memo.cache_info().hits
    rec = _memo(tp, x.shape, x.tobytes())
    if _memo.cache_info().hits > hits:
        _log.debug("inverse map z_T=%r: %d point(s) reused, 0 Newton iterations",
                   tp.z_T, x.size)
    return rec


def map_x_to_z_pair(x, tp: TangentPoly):
    """(z(x), 1 - z(x)) with each component accurate in its own relative
    scale; use this instead of forming 1 - z by subtraction near the
    right asymptote.

    The :class:`GaugeRecord` of each of the 4 most recently mapped grids of
    at most 65 536 points is kept for the whole process, shared by equal
    TangentPolys, so a grid mapped again (every level of a spectrum on one
    grid, say) costs a copy.  Scalars and larger grids are mapped each time.
    The returned arrays are always fresh: a caller may change them without
    affecting later calls.
    """
    rec = gauge_record(x, tp)
    if not np.ndim(x):
        return float(rec.z[0]), float(rec.omz[0])
    return rec.z.copy(), rec.omz.copy()


def map_x_to_z(x, tp: TangentPoly):
    """Invert the change of variable: unique z in (0, 1) with x(z) = x, for
    finite x (a float or an array).

    Uses the elementary closed form on the z_T = 2 branch and Newton in
    t = log z (left of x_of_z(1/2)) or t = log(1 - z) (right) otherwise,
    converged to rounding, memoized as :func:`map_x_to_z_pair` describes;
    the returned array is always fresh.  Where z is near 1, take 1 - z from
    :func:`map_x_to_z_pair`, not by subtraction.
    """
    z = gauge_record(x, tp).z
    return float(z[0]) if not np.ndim(x) else z.copy()


def schwarzian_eval(z, omz, tp: TangentPoly):
    """Schwarzian derivative {z, x} of the map, from the pair (z, 1 - z):
    x~_T**2 times the normalized {z, x~}, where x~ carries the scale
    2(z_T - 1)."""
    z, omz = unit_interval(z, omz)
    P = z - tp.z_T
    P2 = P * P  # products: NumPy's power is slow on the negative bases of z_T > 1
    base = (
        -0.5 / P2
        + z * omz * (z - omz) / (P2 * P)
        + 1.5 * z**2 * omz**2 / (P2 * P2)
    )
    out = tp.x_tilde_T**2 * base
    return out if out.ndim else float(out)


def potential_eval_z(z, omz, ri: RayIdentifiers, tp: TangentPoly):
    """Reference z-gauge potential value v[z] on the closed interval [0, 1],
    from the pair (z, 1 - z).

    This is the asymmetric-well form that reduces exactly to the
    asymptotically-levelled (Williams-Levai) potential at lambda_o = 0;
    v[1] = 0 and v[0] = lambda_o**2 / z_T**2.  The physical x-gauge
    potential is :func:`potential_eval_x`.  A z or 1 - z outside [0, 1],
    NaN included, raises DomainError.
    """
    z, omz = unit_interval(z, omz)
    P = z - tp.z_T
    P2 = P * P
    lam2 = ri.lambda_o**2
    out = (
        (lam2 * omz - ri.f0 * z) * omz / P2
        - z * omz * (z - omz) / (2.0 * P2 * P)
        - 0.75 * z**2 * omz**2 / (P2 * P2)
    )
    return out if out.ndim else float(out)


def potential_x_of_z(z, omz, ri: RayIdentifiers, tp: TangentPoly):
    """Canonical potential V as a function of the pair (z(x), 1 - z(x)),
    each at its own relative precision (a :class:`GaugeRecord`'s).

    Equal to -(z')**2 I0[z] - {z,x}/2 but assembled as a single rational
    expression so the endpoint limits carry no 0*inf indeterminacy.
    V(z=1) = 0; V(z=0) = lambda_o**2 (1-z_T)**2 / z_T**2.
    """
    P = z - tp.z_T
    P2 = P * P
    bracket = (
        omz * (ri.lambda_o**2 - ri.f0 * z) / P2
        - 2.0 * z * omz * (z - omz) / (P2 * P)
        - 3.0 * z**2 * omz**2 / (P2 * P2)
    )
    return (1.0 - tp.z_T) ** 2 * bracket


def potential_eval_x(x, ri: RayIdentifiers, tp: TangentPoly):
    """Canonical x-gauge potential V(x), from the (z, 1 - z) pair of the
    grid's :class:`GaugeRecord`: accurate in relative terms in both tails.

    Asymptotes: V(+inf) = 0 and V(-inf) = lambda_o**2 (1-z_T)**2 / z_T**2.
    On the z_T = 2 branch this is the Dutt-Khare-Varshni potential shifted
    so that the right asymptote sits at zero energy.
    """
    g = gauge_record(x, tp)
    out = potential_x_of_z(g.z, g.omz, ri, tp)
    return float(out[0]) if np.ndim(x) == 0 else out


def dkv_map(ri: RayIdentifiers) -> tuple[float, float, float]:
    """Map ray identifiers to the Dutt-Khare-Varshni parameters.

    Returns
    -------
    (A, B, zero_shift)
        ``zero_shift`` is the value of the DKV potential at eta^ = 1,
        i.e. -lambda_o**2 / 4.
    """
    A = (2.0 * ri.mu_o**2 - ri.lambda_o**2 + 3.0) / 4.0
    B = ri.mu_o**2 / 2.0
    return A, B, -(ri.lambda_o**2) / 4.0


def dkv_potential_eval(eta_hat, A: float, B: float):
    """DKV potential -B/e + A/e**2 - (3/4)/e**4 for finite eta^ >= 1."""
    eta_hat = np.asarray(eta_hat, dtype=float)
    if not np.all((1.0 <= eta_hat) & (eta_hat < math.inf)):
        raise DomainError("eta_hat must be finite and >= 1")
    out = -B / eta_hat + A / eta_hat**2 - 0.75 / eta_hat**4
    return out if out.ndim else float(out)


def eta_hat_of_x(x):
    """Elementary variable eta^(x) = sqrt(1 + exp(-2x)) of the z_T = 2 branch,
    for finite x, as :func:`gauge_record` checks it."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    out = np.sqrt(1.0 + np.exp(-2.0 * x))
    return out if out.ndim else float(out)
