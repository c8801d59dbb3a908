"""Change of variable, tangent polynomial, Schwarzian and potentials."""

import copy
import dataclasses
import logging
import math
import pickle
import re
import sys
import threading

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from drttp import core, oracle, susy, verify
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import ConvergenceError, DomainError
from drttp.spectral import Kind, basic_solutions, spectrum
from drttp.wavefunction import aeh_eval, solution_eval_x

TP2 = TangentPoly(2.0)


class TestTypes:
    def test_ray_identifier_invariants(self):
        ri = RayIdentifiers(0.5, 3.0)
        assert ri.f0 == 3.0**2 - 1.0
        with pytest.raises(DomainError):
            RayIdentifiers(-0.1, 3.0)
        with pytest.raises(DomainError):
            RayIdentifiers(0.0, 0.0)

    def test_tangent_poly_derived_fields(self):
        tp = TangentPoly(-1.0)
        assert tp.c0 == pytest.approx(0.25)
        assert tp.sqrt_c0 == pytest.approx(0.5)      # z_T/(z_T-1) > 0
        assert tp.a2 == pytest.approx(0.25)
        assert tp.x_tilde_T == pytest.approx(-4.0)
        assert tp.gamma == pytest.approx(3.0)
        assert TP2.c0 == 4.0 and TP2.a2 == 1.0 and TP2.gamma == -3.0

    @pytest.mark.parametrize("z_t", [2.0, -0.7, 1.004])
    def test_tangent_poly_constants_are_not_fields(self, z_t):
        # reading the derived constants leaves the value semantics alone
        tp, fresh = TangentPoly(z_t), TangentPoly(z_t)
        assert (tp.c0, tp.a2, tp.sqrt_c0) == (
            (z_t / (z_t - 1.0)) ** 2, 1.0 / (1.0 - z_t) ** 2, z_t / (z_t - 1.0))
        assert tp == fresh and hash(tp) == hash(fresh) == hash((z_t,))
        assert repr(tp) == repr(fresh) == f"TangentPoly(z_T={z_t!r})"
        assert dataclasses.fields(tp) == dataclasses.fields(fresh)
        assert [f.name for f in dataclasses.fields(tp) if f.init] == ["z_T"]
        for other in (copy.copy(tp), pickle.loads(pickle.dumps(tp)),
                      dataclasses.replace(tp)):
            assert other == tp and other.c0 == tp.c0 and other.a2 == tp.a2
        with pytest.raises(dataclasses.FrozenInstanceError):
            tp.c0 = 1.0

    @pytest.mark.parametrize("z_t", [0.0, 0.5, 1.0, math.nan])
    def test_tangent_poly_rejects_inner_root(self, z_t):
        with pytest.raises(DomainError):
            TangentPoly(z_t)

    def test_c0_branches(self):
        assert TangentPoly(3.0).c0 > 1.0
        assert TangentPoly(-2.0).c0 < 1.0


class TestTangentEval:
    def test_value_at_zero_for_zt2(self):
        assert core.tangent_poly_eval(0.0, TP2) == pytest.approx(4.0)

    def test_normalization_at_one(self):
        for z_t in (2.0, -1.0, 5.5, -0.3):
            assert core.tangent_poly_eval(1.0, TangentPoly(z_t)) == pytest.approx(1.0)

    def test_double_root(self):
        assert core.tangent_poly_eval(2.0, TP2) == 0.0


class TestMap:
    def test_elementary_value_at_origin(self):
        assert core.map_x_to_z(0.0, TP2) == pytest.approx(2.0 / (1.0 + math.sqrt(2.0)),
                                                          abs=1e-15)

    def test_limits(self):
        assert core.map_x_to_z(50.0, TP2) == pytest.approx(1.0, abs=1e-12)
        assert core.map_x_to_z(-50.0, TP2) == pytest.approx(0.0, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(-8, 8, 200)
        for z_t in (2.0, -0.5):
            z = core.map_x_to_z(xs, TangentPoly(z_t))
            assert np.all(np.diff(z) > 0)

    def test_general_branch_against_ode_integration(self):
        # integrate dz/dx from a closed-form anchor and compare the inverse
        tp = TangentPoly(-0.5)
        z0 = 0.5
        x0 = core.x_of_z(z0, 1 - z0, tp)
        sol = solve_ivp(
            lambda x, z: core.dz_dx(z, 1 - z, tp), (x0, 1.3), [z0],
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        assert core.map_x_to_z(1.3, tp) == pytest.approx(
            float(sol.y[0, -1]), abs=1e-9
        )

    def test_x_of_z_outside_open_interval_rejected(self):
        # 1.5 gave NaN with a RuntimeWarning, 0 and 1 gave -inf and inf
        for z in (1.5, -0.2, 0.0, 1.0, math.nan, [0.3, math.nan]):
            with pytest.raises(DomainError):
                core.x_of_z(z, 1 - np.asarray(z), TP2)

    def test_mismatched_pair_rejected(self):
        # (0.3, 0.3) passed for the pair of z = 0.3: x_of_z returned -1.295
        # (the pair gives -1.719), and the potential and a level's value
        # were as far off, without complaint
        ri = RayIdentifiers(0.5, 7.3)
        sol = spectrum(ri, TP2)[1]
        for call in (lambda z, omz: core.x_of_z(z, omz, TP2),
                     lambda z, omz: core.potential_eval_z(z, omz, ri, TP2),
                     lambda z, omz: aeh_eval(z, omz, sol)):
            call(0.3, 1 - 0.3)
            for z, omz in ((0.3, 0.3), ([0.3, 0.5], [0.7, 0.7])):
                with pytest.raises(DomainError):
                    call(z, omz)

    def test_roundtrip_precision(self):
        tp = TangentPoly(-1.0)
        xs = np.linspace(-20.0, 20.0, 41)
        z, omz = core.map_x_to_z_pair(xs, tp)
        assert np.max(np.abs(z + omz - 1.0)) < 1e-15
        x_back = core.x_of_z(z, omz, tp)
        assert np.max(np.abs(x_back - xs)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            core.map_x_to_z(math.inf, TP2)

    def test_zt2_far_left_does_not_overflow(self):
        # e**(-2x) overflows for x < -355; z = 2 e**x there to double precision
        for x in (-400.0, np.array([-400.0, -356.0])):
            z, omz = core.map_x_to_z_pair(x, TP2)
            np.testing.assert_allclose(z, 2.0 * np.exp(x), rtol=1e-15)
            assert np.all(omz == 1.0)
        ri = RayIdentifiers(0.5, 5.0)
        psi = solution_eval_x(-400.0, spectrum(ri, TP2)[0], ri, TP2)
        assert math.isfinite(psi)

    def test_left_underflow_is_exact_zero(self):
        # the true z at (z_T, x) = (-0.05, -40) is about 1e-730
        tp = TangentPoly(-0.05)
        assert core.map_x_to_z_pair(-40.0, tp) == (0.0, 1.0)
        assert core.map_x_to_z(-40.0, tp) == 0.0
        ri = RayIdentifiers(0.5, 5.0)
        left = ri.lambda_o**2 * (1.0 - tp.z_T) ** 2 / tp.z_T**2
        assert core.potential_eval_x(-40.0, ri, tp) == pytest.approx(left, rel=1e-15)
        assert math.isfinite(solution_eval_x(-40.0, spectrum(ri, tp)[0], ri, tp))

    def test_logs_past_the_underflow_of_z(self):
        # below t = -746, exp(t) is 0 and one Newton step lands on the tail
        # root t = xs / a, the log of a z that rounds to 0: at (-0.05, -40)
        # z is about 1e-717; at z_T = -1e-300, a = 5e-301 and the root of
        # x = -1e10 is about -2e310, past the double range, where t stops
        # at -DBL_MAX instead of turning into NaN (the step's overflow to
        # -inf warned before)
        tp = TangentPoly(-0.05)
        rec = core.GaugeRecord(np.array([-40.0]), tp)
        a = -tp.z_T / (2.0 * (1.0 - tp.z_T))
        assert rec.z[0] == 0.0 and rec.log_omz[0] == 0.0
        assert rec.log_z[0] == pytest.approx((-40.0 - core.X_ORIGIN) / a, rel=1e-15)
        rec = core.GaugeRecord(np.array([-1e10, -1.0]), TangentPoly(-1e-300))
        assert rec.z.tolist() == [0.0, 0.0] and rec.omz.tolist() == [1.0, 1.0]
        assert rec.log_z[0] == -sys.float_info.max
        assert rec.log_z[1] == pytest.approx((-1.0 - core.X_ORIGIN) / 5e-301, rel=1e-15)

    def test_zt2_logs_keep_the_maps_side(self):
        # at x = x_of_z(1/2) the z_T = 2 closed form takes the left side,
        # where its z = 2/s can round above 1/2: log z is still its closed
        # form log 2 - log s, and log(1 - z) is log1p(-z)
        mid = core.x_of_z(0.5, 0.5, TP2)
        rec = core.GaugeRecord(np.array([mid, mid + 1e-9]), TP2)
        s = 1.0 + np.sqrt(1.0 + np.exp(-2.0 * np.array([mid, mid + 1e-9])))
        assert rec.log_z[0] == math.log(2.0) - np.log(s[0])
        assert rec.log_omz[0] == np.log1p(-rec.z[0])
        assert rec.log_omz[1] == -2.0 * (mid + 1e-9) - 2.0 * np.log(s[1])
        assert rec.log_z[1] == np.log1p(-rec.omz[1])

    def test_underflowing_slope_raises_domain_error(self):
        # a = -z_T / (2 (1 - z_T)) underflows to 0 at the smallest subnormal
        tp = TangentPoly(-5e-324)
        with pytest.raises(DomainError):
            core.map_x_to_z_pair(core.X_ORIGIN, tp)
        with pytest.raises(DomainError):
            core.map_x_to_z(np.array([-1.0, core.X_ORIGIN, 1.0]), tp)

    def test_small_coordinate_against_50_digits(self):
        # z_T log-uniform 1e-6..60 away from 0 and from 1, x on [-800, 800]
        # and within 300 ulps of x_of_z(1/2): the small coordinate u, z or
        # 1 - z, within the worst relative error of the Newton-only map on
        # these draws where u is a normal double, and its log, the map's t,
        # where u underflows
        rng = np.random.default_rng([41, 9])
        worst_u = worst_t = 0.0
        for k in range(24):
            zt = 10.0 ** rng.uniform(-6.0, math.log10(60.0))
            tp = TangentPoly(-zt if k % 2 else 1.0 + zt)
            mid = core.x_of_z(0.5, 0.5, tp)
            x = np.concatenate((rng.uniform(-800.0, 800.0, 40),
                                mid + np.arange(-300, 301, 30) * np.spacing(mid)))
            z, omz, t, right = core._map_newton(x, tp)
            with mpmath.workdps(50):
                a = -mpmath.mpf(tp.z_T) / (2 * (1 - mpmath.mpf(tp.z_T)))
                for xi, ui, ti, ri in zip(x, np.where(right, omz, z), t, right):
                    alpha, beta = (-0.5, a) if ri else (a, -0.5)
                    xs = mpmath.mpf(xi) - mpmath.mpf(core.X_ORIGIN)
                    root = mpmath.findroot(
                        lambda s: alpha * s + beta * mpmath.log1p(-mpmath.exp(s)) - xs,
                        mpmath.mpf(ti))
                    if ui >= np.finfo(float).tiny:
                        worst_u = max(worst_u, float(abs(ui / mpmath.exp(root) - 1)))
                    else:
                        worst_t = max(worst_t, float(abs(ti / root - 1)))
        assert worst_u <= 1.29e-13 and worst_t <= 2.59e-16

    @pytest.mark.parametrize("zt", [-3.0, -0.5, 1.5, 4.0])
    def test_iterations_on_the_oracle_probe(self, caplog, zt):
        # Halley's steps: the Newton-only map took 6 iterations here
        s_max = np.arcsinh(oracle._BOX)
        probe = np.sinh(np.linspace(-s_max, s_max, oracle._PROBE_NODES))
        caplog.set_level(logging.DEBUG, logger="drttp.core")
        core._map_newton(probe, TangentPoly(zt))
        (msg,) = [r.getMessage() for r in caplog.records]
        assert int(re.search(r"(\d+) Newton iterations", msg).group(1)) <= 4

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "_MAX_ITER", 1)
        tp = TangentPoly(-0.7)
        with pytest.raises(ConvergenceError):
            core.map_x_to_z(0.3, tp)
        with pytest.raises(ConvergenceError):
            core.map_x_to_z_pair(np.linspace(-3.0, 3.0, 7), tp)

    def test_iteration_count_logged_at_debug(self, caplog):
        tp = TangentPoly(-0.7)
        core.map_x_to_z(np.linspace(-3.0, 3.0, 7), tp)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="drttp.core")
        core.map_x_to_z(np.linspace(-3.0, 3.0, 7), tp)
        assert [r.name for r in caplog.records] == ["drttp.core"]
        assert "7 point(s)" in caplog.text and "Newton iterations" in caplog.text

    @pytest.mark.parametrize("zt", [-1e-300, -1e-100, -1e-12])
    def test_iterations_bounded_as_zt_tends_to_zero(self, caplog, zt):
        # started from the tail alone, X_ORIGIN took 690, 231 and 30 steps
        # here: exp(t) dominates the slope and each step gained one unit of t
        caplog.set_level(logging.DEBUG, logger="drttp.core")
        tp = TangentPoly(zt)
        z, _ = core.map_x_to_z_pair(np.array([core.X_ORIGIN]), tp)
        (msg,) = [r.getMessage() for r in caplog.records]
        assert int(re.search(r"(\d+) Newton iterations", msg).group(1)) <= 40
        # the root of a log z = log(1 - z) / 2, a = -z_T / (2 (1 - z_T))
        a = -zt / (2.0 * (1.0 - zt))
        assert a * math.log(z[0]) == pytest.approx(0.5 * math.log1p(-z[0]), rel=1e-13)


class TestOneNewtonLoop:
    """Both sides of x_of_z(1/2) share one Newton loop, each point with its
    own (alpha, beta); every point sees the IEEE operations it saw when each
    side was a loop of its own, which mapping one side's points as a grid
    of their own reproduces."""

    @staticmethod
    def straddling_grid(rng, tp):
        # points on both sides of x_of_z(1/2), from the tails to next to it,
        # unsorted, with the midpoint itself
        mid = core.x_of_z(0.5, 0.5, tp)
        spread = 10.0 ** rng.uniform(-3.0, 2.5, 300)
        x = mid + np.where(rng.random(300) < 0.5, -spread, spread)
        return np.append(x, mid)

    @pytest.mark.parametrize("seed", range(12))
    def test_one_loop_is_the_two_loops_bit_for_bit(self, seed, caplog):
        rng = np.random.default_rng([38, seed])
        distance = 10.0 ** rng.uniform(-3.0, math.log10(60.0))
        tp = TangentPoly(-distance if seed % 2 else 1.0 + distance)
        x = self.straddling_grid(rng, tp)
        left = x <= core.x_of_z(0.5, 0.5, tp)
        assert left.any() and (~left).any()
        caplog.set_level(logging.DEBUG, logger="drttp.core")
        z, omz, *_ = core._map_newton(x, tp)
        z_left, omz_left, *_ = core._map_newton(x[left], tp)
        z_right, omz_right, *_ = core._map_newton(x[~left], tp)
        assert np.array_equal(z[left], z_left) and np.array_equal(omz[left], omz_left)
        assert np.array_equal(z[~left], z_right) and np.array_equal(omz[~left], omz_right)
        # one DEBUG line per call with one iteration count: the loop over
        # both sides runs as long as the slower side
        counts = [[int(n) for n in re.findall(r"(\d+) Newton iterations", r.getMessage())]
                  for r in caplog.records]
        assert [len(c) for c in counts] == [1, 1, 1]
        assert counts[0][0] == max(counts[1][0], counts[2][0])

    @pytest.mark.parametrize("x, shape", [
        (np.empty(0), (0,)), (np.asarray(0.3), ()), (np.asarray(-5.0), ()),
        (np.linspace(-3.0, 3.0, 6).reshape(2, 3), (2, 3)), (np.empty((0, 3)), (0, 3)),
    ], ids=["empty", "0-d left", "0-d right", "2-d", "empty 2-d"])
    def test_shapes_kept(self, x, shape):
        tp = TangentPoly(-0.7)
        z, omz, *_ = core._map_newton(x, tp)
        assert z.shape == omz.shape == shape
        flat_z, flat_omz, *_ = core._map_newton(np.ravel(x), tp)
        assert np.array_equal(np.ravel(z), flat_z) and np.array_equal(np.ravel(omz), flat_omz)
        rec = core.GaugeRecord(x, tp)
        for a in (rec.z, rec.log_z, rec.log_omz, rec.log_weight):
            assert a.shape == np.atleast_1d(x).shape


class TestMapMemo:
    GRID = np.linspace(-12.0, 12.0, 301)

    @staticmethod
    def count_newton(monkeypatch):
        calls = []
        newton = core._map_newton

        def counted(x, tp):
            calls.append(x.size)
            return newton(x, tp)

        monkeypatch.setattr(core, "_map_newton", counted)
        return calls

    @staticmethod
    def hits_misses():
        info = core._memo.cache_info()
        return info.hits, info.misses

    @pytest.mark.parametrize("zt", [2.0, -0.7, 3.5])
    def test_hit_is_bit_identical_to_a_fresh_map(self, zt):
        tp = TangentPoly(zt)
        first = core.map_x_to_z_pair(self.GRID, tp)
        again = core.map_x_to_z_pair(self.GRID.copy(), tp)
        assert self.hits_misses() == (1, 1)
        fresh = core.GaugeRecord(self.GRID, tp)
        for a, b, c in zip(first, again, (fresh.z, fresh.omz)):
            assert a.tobytes() == b.tobytes() == c.tobytes()
        assert core.map_x_to_z(self.GRID, tp).tobytes() == fresh.z.tobytes()

    @pytest.mark.parametrize("zt", [2.0, -0.7])
    def test_returned_arrays_are_fresh(self, zt):
        tp = TangentPoly(zt)
        want = core.GaugeRecord(self.GRID, tp)
        core.map_x_to_z(self.GRID, tp)[:] = -1.0
        z, w = core.map_x_to_z_pair(self.GRID, tp)
        z[:], w[:] = -1.0, -1.0
        assert core.map_x_to_z(self.GRID, tp).tobytes() == want.z.tobytes()
        z, w = core.map_x_to_z_pair(self.GRID, tp)
        assert z.tobytes() == want.z.tobytes() and w.tobytes() == want.omz.tobytes()

    def test_same_bytes_other_shape_misses(self, monkeypatch):
        calls = self.count_newton(monkeypatch)
        tp = TangentPoly(-0.7)
        xs = np.linspace(-3.0, 3.0, 12)
        assert core.map_x_to_z(xs, tp).shape == (12,)
        assert core.map_x_to_z(xs.reshape(3, 4), tp).shape == (3, 4)
        assert calls == [12, 12]
        assert self.hits_misses() == (0, 2)

    @pytest.mark.parametrize("zt", [2.0, -0.7])
    def test_same_samples_other_interior_misses(self, zt):
        # the key hashes the first, middle and last values only: grids that
        # share them collide, and the full bytes tell them apart
        tp = TangentPoly(zt)
        other = self.GRID.copy()
        other[[1, 77, 299]] += 0.25
        key = core._GridKey(tp, self.GRID)
        assert hash(key) == hash(core._GridKey(tp, other)) and key != core._GridKey(tp, other)
        first, second = core.gauge_record(self.GRID, tp), core.gauge_record(other, tp)
        assert first is not second and self.hits_misses() == (0, 2)
        assert core.gauge_record(other.copy(), tp) is second
        assert core.gauge_record(self.GRID.copy(), tp) is first
        for rec, xs in ((first, self.GRID), (second, other)):
            fresh = core.GaugeRecord(xs, tp)
            for field in ("z", "omz", "log_z", "log_omz", "log_weight"):
                assert getattr(rec, field).tobytes() == getattr(fresh, field).tobytes(), field

    def test_stored_grid_is_a_copy(self):
        # a caller may change its grid after the call: the memo's key keeps
        # bytes of its own, so the changed grid misses
        tp = TangentPoly(2.0)
        xs = self.GRID.copy()
        rec = core.gauge_record(xs, tp)
        xs[150] = 0.5
        assert core.gauge_record(xs, tp) is not rec
        assert core.gauge_record(self.GRID, tp) is rec
        assert rec.log_z.tobytes() == core.GaugeRecord(self.GRID, tp).log_z.tobytes()
        # a record the memo does not keep reads its own copy too
        big = np.linspace(-5.0, 5.0, core._MEMO_MAX_POINTS + 1)
        rec = core.gauge_record(big, tp)
        want = core.GaugeRecord(big, tp).log_omz.tobytes()
        big[:] = 0.0
        assert rec.log_omz.tobytes() == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 150, 300])
    def test_non_finite_grid_raises_cold_and_warm(self, bad, where):
        # the finiteness check runs on a miss: a hit's bytes are those of a
        # grid that passed it, and a grid with a non-finite value never hits
        tp = TangentPoly(-0.7)
        xs = self.GRID.copy()
        xs[where] = bad
        with pytest.raises(DomainError, match="finite"):
            core.gauge_record(xs, tp)
        assert core._memo.cache_info().currsize == 0
        rec = core.gauge_record(self.GRID, tp)
        for _ in range(2):
            with pytest.raises(DomainError, match="finite"):
                core.gauge_record(xs, tp)
            with pytest.raises(DomainError, match="finite"):
                core.map_x_to_z_pair(xs, tp)
        assert core._memo.cache_info().currsize == 1
        assert core.gauge_record(self.GRID, tp) is rec

    @pytest.mark.parametrize("zt", [2.0, -0.7])
    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (15, 20), (20, 15)])
    def test_empty_and_2d_grids(self, zt, shape):
        tp = TangentPoly(zt)
        xs = self.GRID[:int(np.prod(shape))].reshape(shape)
        rec = core.gauge_record(xs, tp)
        assert core.gauge_record(xs.copy(), tp) is rec and self.hits_misses() == (1, 1)
        assert rec.z.shape == rec.log_z.shape == rec.log_weight.shape == shape
        fresh = core.GaugeRecord(xs, tp)
        for field in ("z", "omz", "log_z", "log_omz", "log_weight"):
            assert getattr(rec, field).tobytes() == getattr(fresh, field).tobytes(), field
        if xs.size:
            # the same bytes in another shape are another grid
            assert core.gauge_record(xs.reshape(-1), tp) is not rec

    def test_equal_tangent_polys_map_a_grid_once(self, monkeypatch):
        calls = self.count_newton(monkeypatch)
        rec = core.gauge_record(self.GRID, TangentPoly(-0.7))
        z = core.map_x_to_z(self.GRID, TangentPoly(-0.7))
        assert core.gauge_record(self.GRID, TangentPoly(-0.7)) is rec
        assert calls == [self.GRID.size]
        assert z.tobytes() == rec.z.tobytes()
        # an unequal one has records of its own
        assert core.gauge_record(self.GRID, TangentPoly(-0.8)) is not rec
        assert calls == [self.GRID.size] * 2

    def test_bounded_to_four_recent_grids(self, monkeypatch):
        tp = TangentPoly(-0.7)
        grids = [np.linspace(-3.0, 3.0, n) for n in range(5, 11)]
        for xs in grids:
            core.map_x_to_z(xs, tp)
        assert core._memo.cache_info().currsize == core._MEMO_GRIDS == 4
        # a hit makes a grid the most recent: grid 2 outlives grid 3
        core.map_x_to_z(grids[2], tp)
        core.map_x_to_z(grids[0], tp)
        calls = self.count_newton(monkeypatch)
        hits, _ = self.hits_misses()
        for j in (0, 2, 4, 5):
            core.map_x_to_z(grids[j], tp)
        assert calls == [] and self.hits_misses()[0] == hits + 4
        core.map_x_to_z(grids[3], tp)
        assert calls == [8]
        # above the point cap and 0-d inputs are mapped and not stored
        core._memo.cache_clear()
        tp = TangentPoly(2.0)
        big = np.linspace(-5.0, 5.0, core._MEMO_MAX_POINTS + 1)
        core.map_x_to_z_pair(big, tp)
        core.map_x_to_z(0.25, tp)
        assert core._memo.cache_info().currsize == 0
        core.map_x_to_z_pair(big[:-1], tp)
        assert core._memo.cache_info().currsize == 1

    def test_levels_on_one_grid_map_it_once(self, monkeypatch):
        calls = self.count_newton(monkeypatch)
        ri, tp = RayIdentifiers(0.5, 12.0), TangentPoly(-1.0)
        sols = spectrum(ri, tp)
        assert len(sols) == 6
        values = [solution_eval_x(self.GRID, s, ri, tp) for s in sols]
        assert calls == [self.GRID.size]
        core._memo.cache_clear()
        fresh = [solution_eval_x(self.GRID, s, ri, tp) for s in sols]
        assert calls == [self.GRID.size] * 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(values, fresh))

    def test_warm_grid_logs_reuse_at_debug(self, caplog):
        caplog.set_level(logging.DEBUG, logger="drttp.core")
        tp = TangentPoly(-0.7)
        core.map_x_to_z(self.GRID, tp)
        core.gauge_record(self.GRID, tp)
        first, again = [r.getMessage() for r in caplog.records]
        assert "301 point(s)," in first and "reused" not in first
        assert again == "inverse map z_T=-0.7: 301 point(s) reused, 0 Newton iterations"

    def test_memo_leaves_equality_hash_and_repr(self):
        tp = TangentPoly(-1.0)
        core.map_x_to_z(self.GRID, tp)
        assert core._memo.cache_info().currsize == 1
        # a plain value: what it stores is z_T and three constants of it
        assert sorted(vars(tp)) == ["a2", "c0", "sqrt_c0", "z_T"]
        assert tp == TangentPoly(-1.0) and tp != TangentPoly(-2.0)
        assert hash(tp) == hash(TangentPoly(-1.0)) == hash((-1.0,))
        assert repr(tp) == "TangentPoly(z_T=-1.0)"
        with pytest.raises(TypeError):
            TangentPoly(-1.0, {})

    def test_threads_sharing_a_tangent_poly(self):
        # more threads and grids than the memo holds, switching often: each
        # thread reads its grid's values whatever the others evict
        tp = TangentPoly(-0.7)
        grids = [np.linspace(-4.0, 4.0, n) for n in range(5, 13)]
        want = [core.GaugeRecord(xs, tp).z.tobytes() for xs in grids]
        errors = []

        def work(k):
            try:
                for i in range(1000):
                    j = (i * (k + 1)) % len(grids)
                    if core.map_x_to_z(grids[j], tp).tobytes() != want[j]:
                        errors.append(f"thread {k}: grid {j} differs")
            except Exception as exc:  # report, so the assertion below shows it
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert core._memo.cache_info().currsize == core._MEMO_GRIDS

    def test_threads_racing_to_the_lazy_fields(self):
        # the logs and halves are computed on the first read of a record
        # that every thread shares: whichever thread computes them, all read
        # the same read-only values
        tp = TangentPoly(-0.7)
        ref = core.GaugeRecord(self.GRID, tp)
        want = [a.tobytes() for a in (ref.log_z, ref.log_omz, ref.log_weight, *ref.halves)]
        records = [core.GaugeRecord(self.GRID, tp) for _ in range(200)]
        errors = []

        def work(k):
            try:
                for i, rec in enumerate(records if k % 2 else records[::-1]):
                    arrays = (rec.log_z, rec.log_omz, rec.log_weight, *rec.halves)
                    if [a.tobytes() for a in arrays] != want:
                        errors.append(f"thread {k}: record {i} differs")
                    if any(a.flags.writeable for a in arrays):
                        errors.append(f"thread {k}: record {i} writeable")
            except Exception as exc:  # report, so the assertion below shows it
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_one_gauge_record_per_grid(self):
        tp = TangentPoly(-0.7)
        core.map_x_to_z(self.GRID, tp)
        rec = core.gauge_record(self.GRID.copy(), tp)
        assert self.hits_misses() == (1, 1)
        assert core.gauge_record(self.GRID, tp) is rec
        for a in (rec.z, rec.omz, rec.log_z, rec.log_omz, rec.log_weight, *rec.halves):
            assert not a.flags.writeable
        assert core.map_x_to_z(self.GRID, tp).flags.writeable

    def test_gauge_record_kept_for_memoized_grids_only(self):
        tp = TangentPoly(-0.7)
        rec = core.gauge_record(self.GRID, tp)
        assert core.gauge_record(self.GRID, tp) is rec
        big = np.linspace(-5.0, 5.0, core._MEMO_MAX_POINTS + 1)
        for x in (0.25, 0.25, big):
            got = core.gauge_record(x, tp)
            assert got.z.shape == np.atleast_1d(x).shape
            assert got is not core.gauge_record(x, tp)
        assert self.hits_misses() == (1, 1)
        assert core._memo.cache_info().currsize == 1

    def test_gauge_record_c_contiguous(self):
        # a Fortran-ordered grid maps to Fortran-ordered arrays; a record
        # keeps C-ordered ones, which its split and callers index flattened
        xs = np.asfortranarray(self.GRID[:300].reshape(15, 20))
        tp = TangentPoly(-0.7)
        rec = core.gauge_record(xs, tp)
        fresh = core.GaugeRecord(np.ascontiguousarray(xs), tp)
        for got in (rec, core.GaugeRecord(xs, tp)):
            for a, want in ((got.z, fresh.z), (got.omz, fresh.omz)):
                assert a.flags.c_contiguous
                assert a.tobytes() == want.tobytes()
        assert core.gauge_record(np.ascontiguousarray(xs), tp) is rec

    @pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
    def test_halves_split_at_one_half(self, order):
        xs = {"sorted": self.GRID, "reversed": self.GRID[::-1],
              "shuffled": np.random.default_rng(0).permutation(self.GRID)}[order]
        rec = core.gauge_record(xs, TangentPoly(2.0))
        left, right, z_left, omz_right = rec.halves
        mask = rec.z <= 0.5
        assert np.array_equal(left, np.flatnonzero(mask))
        assert np.array_equal(right, np.flatnonzero(~mask))
        assert np.array_equal(z_left, rec.z[left]) and np.array_equal(omz_right, rec.omz[right])
        assert not any(h.flags.writeable for h in rec.halves)

class TestSchwarzian:
    def test_eta_mode_values(self):
        assert verify._schwarzian_eta(1.0) == pytest.approx(-2.0)
        assert verify._schwarzian_eta(1e9) == pytest.approx(-0.5)

    def test_pole_rejected(self):
        # z_T lies outside [0, 1], so the pair check rejects z = z_T
        with pytest.raises(DomainError):
            core.schwarzian_eval(2.0, -1.0, TP2)

    def test_eta_matches_x_gauge_at_zt2(self):
        for z in (0.2, 0.5, 2 / 3, 0.9):
            eta = 2.0 / z - 1.0
            assert verify._schwarzian_eta(eta) == pytest.approx(
                core.schwarzian_eval(z, 1 - z, TP2), rel=1e-13
            )

    def test_finite_difference_agreement(self):
        x0 = core.x_of_z(0.5, 0.5, TP2)
        h = 4e-3

        def fd(hh):
            xs = x0 + hh * np.arange(-2, 3)
            z = core.map_x_to_z(xs, TP2)
            d1 = (z[0] - 8 * z[1] + 8 * z[3] - z[4]) / (12 * hh)
            d2 = (-z[0] + 16 * z[1] - 30 * z[2] + 16 * z[3] - z[4]) / (12 * hh**2)
            d3 = (-z[0] + 2 * z[1] - 2 * z[3] + z[4]) / (2 * hh**3)
            return d3 / d1 - 1.5 * (d2 / d1) ** 2

        approx = (4 * fd(h / 2) - fd(h)) / 3.0
        assert approx == pytest.approx(
            core.schwarzian_eval(0.5, 0.5, TP2), abs=1e-6
        )


class TestPotentials:
    def test_z_gauge_endpoints(self):
        ri = RayIdentifiers(1.0, 5.0)
        assert core.potential_eval_z(1.0, 0.0, ri, TP2) == 0.0
        assert core.potential_eval_z(0.0, 1.0, ri, TP2) == pytest.approx(0.25)
        with pytest.raises(DomainError):
            core.potential_eval_z(1.2, -0.2, ri, TP2)
        # NaN passed the old guard and came back as NaN
        for z in (math.nan, [0.3, math.nan]):
            with pytest.raises(DomainError):
                core.potential_eval_z(z, 1 - np.asarray(z), ri, TP2)

    def test_z_gauge_matches_levelled_form(self):
        # eta = 2z - 1 substitution into the asymmetric closed form
        mu_o = 5.0
        ri = RayIdentifiers(0.0, mu_o)
        A = 4.0 * ri.f0
        g = TP2.gamma
        for z in (0.3, 0.5, 0.75):
            eta = 2 * z - 1
            wl = (
                -A * (1 - eta**2) / (4 * (eta + g) ** 2)
                - eta * (1 - eta**2) / (eta + g) ** 3
                - 0.75 * (1 - eta**2) ** 2 / (eta + g) ** 4
            )
            assert core.potential_eval_z(z, 1 - z, ri, TP2) == pytest.approx(wl, rel=1e-13)

    def test_x_gauge_asymptotes(self):
        ri = RayIdentifiers(1.0, 5.0)
        assert core.potential_eval_x(60.0, ri, TP2) == pytest.approx(0.0, abs=1e-12)
        assert core.potential_eval_x(-60.0, ri, TP2) == pytest.approx(0.25, abs=1e-12)
        tp = TangentPoly(-1.0)
        left = ri.lambda_o**2 * (1.0 - tp.z_T) ** 2 / tp.z_T**2
        assert left == pytest.approx(4.0)
        assert core.potential_eval_x(-60.0, ri, tp) == pytest.approx(left, abs=1e-12)

    def test_x_gauge_value_zt2(self):
        # elementary-branch closed form at eta^ = sqrt(2)
        ri = RayIdentifiers(0.0, 2.0)
        want = 0.0 - 4.0 / (2 * math.sqrt(2)) + 11.0 / (4 * 2) - 3.0 / (4 * 4)
        assert core.potential_eval_x(0.0, ri, TP2) == pytest.approx(want, rel=1e-14)


class TestTails:
    """V and the partner potentials against 50 digits where 1 - z is tiny."""

    XS = (10.0, 15.0, 18.0, 25.0)

    @staticmethod
    def _mp_pair(x, tp):
        # right of z = 1/2: solve x(z) = x for t = log(1 - z)
        zt, x = mpmath.mpf(tp.z_T), mpmath.mpf(x)

        def f(t):
            w = mpmath.exp(t)
            return (-zt * mpmath.log1p(-w) - (1 - zt) * t) / (2 * (1 - zt)) - mpmath.log(2) - x

        w = mpmath.exp(mpmath.findroot(f, -2 * x))
        return 1 - w, w

    @staticmethod
    def _mp_potential(z, omz, ri, tp, spec=None):
        """The paper's V in z, plus the partner correction
        8 z^2 (1-z)^2/(P^2 Q^2) + z (1-z) Delta O1/(P^2 Q), Delta O1 = 4 (2z
        + delta0), delta0 = p - 1 + mean(lambda0 - mu p) at the outer pole p."""
        zt = mpmath.mpf(tp.z_T)
        lo, mo = mpmath.mpf(ri.lambda_o), mpmath.mpf(ri.mu_o)
        P, zo = z - zt, z * omz
        v = omz * (lo**2 - (mo**2 - 1) * z) / P**2 - 2 * zo * (2 * z - 1) / P**3 - 3 * zo**2 / P**4
        if spec is not None:
            p = mpmath.mpf(spec.outer_pole)
            d0 = p - 1 + sum(mpmath.mpf(f.lambda0) - mpmath.mpf(f.mu) * p
                             for f in spec.ff_kinds) / spec.steps
            v += 8 * zo**2 / (P**2 * (z - p) ** 2) + 4 * zo * (2 * z + d0) / (P**2 * (z - p))
        return (1 - zt) ** 2 * v

    @pytest.mark.parametrize("z_t", [2.0, -1.0])
    def test_against_mpmath(self, z_t):
        # 1 - z formed by subtraction was 7.3e-8 off at x = 10, 0.91 at 18
        # and exactly 0 from x = 19 on (0.5, 7.3, 2)
        ri, tp = RayIdentifiers(0.5, 7.3), TangentPoly(z_t)
        basics = basic_solutions(ri, tp)
        c0 = basics[Kind.C]
        specs = [None, susy.single_partner_spec(c0, tp),
                 susy.double_partner_spec(c0, basics[Kind.A if z_t > 1 else Kind.B], tp)]
        xs = np.array(self.XS)
        with mpmath.workdps(50):
            pairs = [self._mp_pair(x, tp) for x in self.XS]
            for spec in specs:
                V = (core.potential_eval_x(xs, ri, tp) if spec is None
                     else susy.partner_potential_x(spec, ri, tp)(xs))
                for x, v, (z, omz) in zip(self.XS, V, pairs):
                    want = float(self._mp_potential(z, omz, ri, tp, spec))
                    assert v == pytest.approx(want, rel=1e-13, abs=0.0), (spec, x)


class TestDkv:
    def test_forward_map(self):
        assert core.dkv_map(RayIdentifiers(0.0, 2.0)) == pytest.approx(
            (11.0 / 4.0, 2.0, 0.0)
        )
        assert core.dkv_map(RayIdentifiers(2.0, 2.0)) == pytest.approx(
            (7.0 / 4.0, 2.0, -1.0)
        )

    def test_potential_values(self):
        assert core.dkv_potential_eval(1.0, 2.5, 1.5) == pytest.approx(
            2.5 - 1.5 - 0.75
        )
        assert core.dkv_potential_eval(1e9, 2.5, 1.5) == pytest.approx(0.0, abs=1e-8)
        e = math.sqrt(2.0)
        assert core.dkv_potential_eval(e, 11 / 4, 2.0) == pytest.approx(
            -2 / math.sqrt(2) + 11 / 8 - 3 / 16
        )
        with pytest.raises(DomainError):
            core.dkv_potential_eval(0.5, 1.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [-300.0, -400.0, -700.0, 700.0])
    def test_tail_without_overflow(self, x):
        # eta^ = exp(-x) sqrt(1 + exp(2x)) for x < 0 and the potential by
        # Horner in 1/eta^: finite, and the gauge identity holds in the tails,
        # where exp(-2x) (from x = -355) and eta^**4 (from x = -178) overflowed
        eh = core.eta_hat_of_x(x)
        want = mpmath.sqrt(1 + mpmath.exp(-2 * mpmath.mpf(x)))
        assert eh == pytest.approx(float(want), rel=1e-15, abs=0.0)
        ri = RayIdentifiers(1.3, 4.2)
        A, B, _ = core.dkv_map(ri)
        lhs = core.dkv_potential_eval(eh, A, B) - (A - B - 0.75)
        assert lhs == pytest.approx(core.potential_eval_x(x, ri, TP2), rel=0.0, abs=1e-14)
        xs = np.array([x, -x])
        assert np.all(np.isfinite(core.eta_hat_of_x(xs)))

    def test_eta_hat_out_of_range(self):
        # eta^ > exp(-x) is not a double below x = -log(DBL_MAX) = -709.78
        assert math.isfinite(core.eta_hat_of_x(-math.log(sys.float_info.max)))
        with pytest.raises(DomainError):
            core.eta_hat_of_x(np.array([0.0, -710.0]))

    def test_gauge_identity(self):
        ri = RayIdentifiers(1.3, 4.2)
        A, B, shift = core.dkv_map(ri)
        assert shift == pytest.approx(-ri.lambda_o**2 / 4)
        xs = np.linspace(-12, 12, 200)
        lhs = core.dkv_potential_eval(core.eta_hat_of_x(xs), A, B) - (A - B - 0.75)
        rhs = core.potential_eval_x(xs, ri, TP2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
