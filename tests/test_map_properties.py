"""Properties of the inverse map z(x) over the whole admissible domain."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drttp import core
from drttp.core import TangentPoly

EPS = np.finfo(float).eps

# z_T = 2, or log-uniform distance 1e-3..60 from 0 (left) or from 1 (right)
_log_dist = st.floats(math.log(1e-3), math.log(60.0))
Z_T = st.one_of(
    st.just(2.0),
    _log_dist.map(lambda u: -math.exp(u)),
    _log_dist.map(lambda u: 1.0 + math.exp(u)),
)
XS = st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=40)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(z_t=Z_T, xs=XS)
def test_map_properties(z_t, xs):
    tp = TangentPoly(z_t)
    xs = np.sort(np.asarray(xs))
    z, omz = core.map_x_to_z_pair(xs, tp)
    assert np.all(np.isfinite(z)) and np.all(np.isfinite(omz))
    assert np.all(np.abs(z + omz - 1.0) <= EPS)
    # monotone to rounding: x one ulp apart may give z a few ulps apart either way
    assert np.all(np.diff(z) >= -4 * EPS * z[1:])
    assert np.all(np.diff(omz) <= 4 * EPS * omz[:-1])
    assert np.array_equal(core.map_x_to_z(xs, tp), z)

    # a float gives the array's value
    for x, zi, omzi in zip(xs[:5], z, omz):
        zs, omzs = core.map_x_to_z_pair(float(x), tp)
        assert abs(zs - zi) <= 4 * EPS * zi and abs(omzs - omzi) <= 4 * EPS * omzi

    # round trip through the closed form on the pair; x_of_z takes only
    # points it is checked on, since it rejects z = 0 and 1 - z = 0
    ok = np.minimum(z, omz) > 1e-290
    x_back = core.x_of_z(np.where(ok, z, 0.5), np.where(ok, omz, 0.5), tp)
    err = np.abs(x_back - xs) / np.maximum(1.0, np.abs(xs))
    assert np.all(err[ok] <= 1e-12)


def _mp_map(z_t: float, x: float):
    """(z, 1 - z) at 50 digits by bisection in t = log of the small coordinate."""
    with mpmath.workdps(50):
        zT, x = mpmath.mpf(z_t), mpmath.mpf(x)

        def x_of(z):
            return (-zT * mpmath.log(z) - (1 - zT) * mpmath.log(1 - z)) / (2 * (1 - zT)) \
                - mpmath.log(2)

        left = x <= x_of(mpmath.mpf(0.5))
        lo, hi = mpmath.mpf(-2000), mpmath.log(mpmath.mpf(0.5))
        for _ in range(200):
            mid = (lo + hi) / 2
            u = mpmath.exp(mid)
            below = x_of(u) < x if left else x_of(1 - u) > x
            lo, hi = (mid, hi) if below else (lo, mid)
        u = mpmath.exp((lo + hi) / 2)
        return (u, 1 - u) if left else (1 - u, u)


@pytest.mark.parametrize("z_t", [2.0, -0.05, -0.7, -3.0, 1.05, 1.3, 3.0, 11.0])
def test_map_matches_mpmath(z_t):
    tp = TangentPoly(z_t)
    xs = np.array([-8.0, -2.0, -0.3, 0.0, 1.0, 4.0, 12.0])
    z, omz = core.map_x_to_z_pair(xs, tp)
    for x, got in zip(xs, zip(z, omz)):
        for g, want in zip(got, _mp_map(z_t, float(x))):
            assert abs(g - want) <= 1e-13 * want, (x, g, want)
