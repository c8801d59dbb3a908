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
        if not inside.all():
            raise DomainError(f"z and 1 - z must lie in {'[0, 1]' if closed else '(0, 1)'}")
    if not (np.abs(z + omz - 1.0) <= _PAIR_TOL).all():
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
    if far.any():
        u = np.where(far, 2.0 * np.exp(np.minimum(x, _X_FAR_ZT2)), u)
    return _pair_from_small(u, right)


_LOG2 = math.log(2.0)


def _log_small_zt2(x):
    """(t, right): the log t of the small coordinate of :func:`_map_zt2_pair`
    in closed form, with s = 1 + sqrt(1 + e**(-2x)), and the side: log z =
    log 2 - log s left of x_of_z(1/2) (log 2 + x below _X_FAR_ZT2) and
    log(1 - z) = -2x - 2 log s right of it.  t is finite wherever x is, also
    where the coordinate itself underflows to 0."""
    log_s = np.log(1.0 + np.sqrt(1.0 + np.exp(-2.0 * np.maximum(x, _X_FAR_ZT2))))
    right = x > _X_MID_ZT2
    t = np.where(right, -2.0 * x - 2.0 * log_s, _LOG2 - log_s)
    far = x < _X_FAR_ZT2
    if far.any():
        t = np.where(far, _LOG2 + x, t)
    return t, right


# Newton in t = log u for the small coordinate u, so t <= log(1/2); exp(t)
# is 0 below _T_MIN, where a step lands on the root xs / alpha exactly.
# Iterates are kept above _T_FLOOR, where alpha t is finite, so that a root
# beyond the double range ends there, not at a NaN.
_LOG_HALF = -math.log(2.0)
_T_MIN = -746.0
_T_FLOOR = -np.finfo(float).max
# A step below this many units of eps * (1 - t) is rounding noise: the
# residual's rounding error divided by its slope is at most about
# 2 * eps * (1 + |t|), and t itself moves in steps of eps * |t| / 2.
_STEP_TOL = 4.0 * np.finfo(float).eps
# Each Newton step from the tail gains about one unit of t while exp(t)
# dominates the slope, so this covers [_T_MIN, log(1/2)], and below _T_MIN
# one step is exact; reaching it means the iteration failed.
_MAX_ITER = 800


def _newton_step(t, xs, alpha, beta):
    """Newton step for f(t) = alpha t + beta log1p(-e**t) - xs."""
    q = np.exp(t)
    return (alpha * t + beta * np.log1p(-q) - xs) / (alpha - beta * q / (1.0 - q))


def _newton_log(xs, alpha, beta):
    """Solve alpha t + beta log1p(-e**t) = xs for t <= log(1/2), elementwise.

    ``alpha`` and ``beta`` are per point: with a = -z_T / (2 (1 - z_T)) > 0
    a point left of x_of_z(1/2) has (alpha, beta) = (a, -1/2) and one right
    of it (-1/2, a), so one loop serves both sides.  f is monotone with one-signed
    curvature, so Newton approaches the root monotonically from above and
    needs no bracket; the clamp at log(1/2) keeps an iterate there.  Two
    asymptotes give starts above the root, and the lower one is taken:
    the tail t = xs / alpha (the log1p term dropped), and the root of the
    log1p term alone with alpha t held at its value at _T_MIN.  The second
    bounds the iterations where exp(t) dominates the slope, as when
    z_T -> 0-, since from the tail each step there gains only about one
    unit of t.  The start is at least _T_MIN; an iterate below it, where
    exp(t) is 0, is the tail root xs / alpha, so t is the log of u also
    where u underflows.  ``xs``, ``alpha`` and ``beta`` are 1-d arrays of
    one length; only the points not yet converged are iterated.  Returns
    (t, iterations).
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.fmin(xs / alpha, np.log(-np.expm1((xs - alpha * _T_MIN) / beta)))
    # np.minimum(np.maximum(...)) is np.clip without its Python wrapper
    t = np.minimum(np.maximum(t, _T_MIN), _LOG_HALF)
    if not t.size:
        return t, 0
    todo = np.arange(t.size)
    # a step toward a root past the double range overflows to -inf, which
    # the clamp at _T_FLOOR takes back
    with np.errstate(over="ignore"):
        for it in range(1, _MAX_ITER + 1):
            tt = t[todo]
            t_new = np.minimum(np.maximum(
                tt - _newton_step(tt, xs[todo], alpha[todo], beta[todo]), _T_FLOOR), _LOG_HALF)
            t[todo] = t_new
            todo = todo[np.abs(t_new - tt) > _STEP_TOL * (1.0 - tt)]
            if not todo.size:
                return t, it
    raise ConvergenceError(f"inverse map: Newton did not converge in {_MAX_ITER} steps")


def _map_newton(x, tp: TangentPoly):
    """(z(x), 1 - z(x), t) on any branch by Newton in t = log z left of
    x_of_z(1/2) and t = log(1 - z) right of it, both sides in one loop; t,
    shaped as x, is the log of the smaller of z and 1 - z."""
    a = -tp.z_T / (2.0 * (1.0 - tp.z_T))
    if a == 0.0:
        raise DomainError(f"z_T = {tp.z_T!r} too close to 0: the log z slope underflows")
    xs_mid = math.log(2.0) / (2.0 * (1.0 - tp.z_T))  # x_of_z(1/2) - X_ORIGIN
    xs = x - X_ORIGIN
    right = xs > xs_mid
    t, its = _newton_log(np.ravel(xs), np.ravel(np.where(right, -0.5, a)),
                         np.ravel(np.where(right, a, -0.5)))
    _log.debug("inverse map z_T=%r: %d point(s), %d Newton iterations",
               tp.z_T, xs.size, its)
    t = t.reshape(np.shape(xs))
    return (*_pair_from_small(np.exp(t), right), t)


class GaugeRecord:
    """The map of one grid x of finite values: ``z`` and ``omz``, z(x) and
    1 - z(x); ``log_z`` and ``log_omz``, their logs from the map itself;
    ``log_weight``, the log of the Liouville weight
    sqrt((z - z_T)/(2 (1 - z_T))), the factor (z')**(-1/2) less its
    z**(-1/2) (1 - z)**(-1/2), which solution prefactors absorb; and the
    ``halves``, :func:`split_at_half` of the grid.  Newton's t, or on the
    z_T = 2 branch the closed form of :func:`_log_small_zt2`, is the log of
    the small coordinate u and log1p(-u) that of the other, so both logs
    are finite where z or 1 - z underflows to 0.  All but ``z`` and ``omz``
    are computed on their first read, since the potentials read only
    those; on the z_T = 2 branch the record keeps a copy of x for that.
    The arrays are at least 1-d, C-contiguous (the split indexes them
    flattened in C order, and products of them are multiplied in place
    through such a view) and read-only, since a memoized record is shared
    by every later call on its grid and by every thread.
    """

    def __init__(self, x, tp: TangentPoly):
        if tp.z_T == 2.0:
            z, omz = _map_zt2_pair(x)
            self._x, self._t = x.copy(), None
        else:
            z, omz, self._t = _map_newton(x, tp)
        self.z = _read_only(np.ascontiguousarray(z))
        self.omz = _read_only(np.ascontiguousarray(omz))
        self._z_T = tp.z_T

    @functools.cached_property
    def _logs(self):
        if self._t is None:
            t, right = _log_small_zt2(self._x)
        else:
            # Newton's small coordinate is at most 1/2: z on the left, 1 - z
            # on the right, and where they tie both logs are log(1/2)
            t, right = self._t, self.z > self.omz
        other = np.log1p(-np.where(right, self.omz, self.z))
        return tuple(_read_only(np.ascontiguousarray(np.where(right, a, b)))
                     for a, b in ((other, t), (t, other)))

    @property
    def log_z(self):
        return self._logs[0]

    @property
    def log_omz(self):
        return self._logs[1]

    @functools.cached_property
    def log_weight(self):
        # z - z_T as a sum of terms of one sign: z + |z_T| for z_T < 0 and
        # -((z_T - 1) + (1 - z)) for z_T > 1
        zt = self._z_T
        if zt < 0.0:
            ratio = (self.z - zt) / (2.0 * (1.0 - zt))
        else:
            ratio = (self.omz + (zt - 1.0)) / (2.0 * (zt - 1.0))
        return _read_only(0.5 * np.log(ratio))

    @functools.cached_property
    def halves(self):
        return tuple(_read_only(h) for h in split_at_half(self.z, self.omz))


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


class _GridKey:
    """The memo's key for a grid x under a TangentPoly: it hashes the
    TangentPoly, the shape and the first, middle and last value in C order,
    and equal keys have equal shapes and equal C-order bytes.  A key the
    memo stores holds those bytes, so a hit copies the probe's grid once to
    compare it."""

    __slots__ = ("tp", "x", "data", "_hash")

    def __init__(self, tp: TangentPoly, x: np.ndarray):
        self.tp, self.x, self.data = tp, x, None
        flat = x.reshape(-1)
        n = flat.size
        self._hash = hash((tp, x.shape, *((flat[0], flat[n // 2], flat[-1]) if n else ())))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self.tp == other.tp and self.x.shape == other.x.shape
                and self.grid_bytes() == other.grid_bytes())

    def grid_bytes(self) -> bytes:
        return self.x.tobytes() if self.data is None else self.data


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")


@functools.lru_cache(maxsize=_MEMO_GRIDS)
def _memo(key: _GridKey) -> GaugeRecord:
    # a miss, so the key is not stored yet: it takes its own copy of the
    # grid, which the caller may change later.  A hit needs no check, since
    # its bytes are those of a grid that passed it.  TangentPoly hashes and
    # compares by z_T: equal instances share records
    _check_finite(key.x)
    key.data = key.x.tobytes()
    key.x = np.frombuffer(key.data).reshape(key.x.shape)
    return GaugeRecord(key.x, key.tp)


def gauge_record(x, tp: TangentPoly) -> GaugeRecord:
    """The memoized :class:`GaugeRecord` of x; a scalar or a grid the memo
    does not keep gets a record of its own, dropped after use.  DomainError
    unless x is finite."""
    x = np.asarray(x, dtype=float)
    if not x.ndim or x.size > _MEMO_MAX_POINTS:
        _check_finite(x)
        return GaugeRecord(x, tp)
    if not _log.isEnabledFor(logging.DEBUG):
        return _memo(_GridKey(tp, x))
    # a hit of another thread between the two reads also logs a reuse
    hits = _memo.cache_info().hits
    rec = _memo(_GridKey(tp, x))
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
    """DKV potential -B/e + A/e**2 - (3/4)/e**4 for finite eta^ >= 1, by
    Horner's rule in 1/eta^, so that no power of eta^ overflows."""
    eta_hat = np.asarray(eta_hat, dtype=float)
    if not np.all((1.0 <= eta_hat) & (eta_hat < math.inf)):
        raise DomainError("eta_hat must be finite and >= 1")
    r = 1.0 / eta_hat
    out = r * (-B + r * (A - 0.75 * r * r))
    return out if out.ndim else float(out)


# below this x, eta^(x) > exp(-x) leaves the double range
_ETA_X_MIN = -math.log(np.finfo(float).max)


def eta_hat_of_x(x):
    """Elementary variable eta^(x) = sqrt(1 + exp(-2x)) of the z_T = 2 branch,
    for finite x, as :func:`gauge_record` checks it, and x >= -709.78, where
    eta^ is a double.  For x < 0 it is formed as exp(-x) sqrt(1 + exp(2x)),
    so that no intermediate overflows."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    if np.any(x < _ETA_X_MIN):
        raise DomainError(f"eta_hat overflows for x < {_ETA_X_MIN!r}")
    out = np.sqrt(1.0 + np.exp(-2.0 * np.abs(x))) * np.exp(np.maximum(-x, 0.0))
    return out if out.ndim else float(out)
