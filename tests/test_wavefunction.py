"""Closed-form solutions, eigenfunctions, node counting."""

import dataclasses
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from drttp import core, verify, wavefunction
from drttp.susy import HeunPolynomial
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import ConvergenceError, DomainError, DrttpError
from drttp.spectral import AehSolution, Kind, spectrum, wl_solve
from drttp.wavefunction import (
    aeh_eval,
    count_nodes,
    factor_roots_in_01,
    hypergeom_poly_jacobi,
    solution_eval_x,
    solution_norm_sq,
)

TP2 = TangentPoly(2.0)
WL5 = RayIdentifiers(0.0, 5.0)


def _mp_coeffs(n, a, c):
    """Ascending coefficients of F(-n, a; c; z) in 100-digit arithmetic."""
    with mpmath.workdps(100):
        a, c = mpmath.mpf(a), mpmath.mpf(c)
        coef = [mpmath.mpf(1)]
        for k in range(n):
            coef.append(coef[-1] * (k - n) * (a + k) / ((c + k) * (k + 1)))
    return coef


def _mp_hypergeom(n, a, c, zs):
    coef = _mp_coeffs(n, a, c)[::-1]
    with mpmath.workdps(100):
        return np.array([float(mpmath.polyval(coef, mpmath.mpf(z))) for z in zs])


def _mp_norm_sq(sol, tp):
    """Exact norm: int_0^1 (g Pi_m)**2 z**(lambda0-1) (1-z)**(lambda1-1) dz
    with g = (z - z_T)/(2(1 - z_T)), summed term by term as Beta functions."""
    p = _mp_coeffs(sol.m, sol.mu - sol.m, sol.lambda0 + 1.0)
    with mpmath.workdps(100):
        zt = mpmath.mpf(tp.z_T)
        g0, g1 = -zt / (2 * (1 - zt)), 1 / (2 * (1 - zt))
        gp = [g0 * pk for pk in p] + [0]
        for k, pk in enumerate(p):
            gp[k + 1] += g1 * pk
        sq = [0] * (2 * len(gp) - 1)
        for i, u in enumerate(gp):
            for j, v in enumerate(gp):
                sq[i + j] += u * v
        l0, l1 = mpmath.mpf(sol.lambda0), mpmath.mpf(sol.lambda1)
        return float(sum(c * mpmath.beta(l0 + k, l1) for k, c in enumerate(sq)))


class TestHypergeom:
    def test_degree_zero(self):
        assert verify._hypergeom_poly_eval(0, 3.7, 1.1, 0.9) == 1.0

    def test_degree_one(self):
        a, c, z = 2.5, 1.2, 0.4
        assert verify._hypergeom_poly_eval(1, a, c, z) == pytest.approx(1 - a / c * z)

    def test_matches_jacobi_recurrence(self):
        # both evaluators against an exact sum, Jacobi parameters in (-1, inf)
        for n, a, c, z in ((3, 4.7, 1.2, 0.4), (7, 7.5, 0.8, 0.63)):
            want = _mp_hypergeom(n, a, c, [z])[0]
            assert verify._hypergeom_poly_eval(n, a, c, z) == pytest.approx(want, rel=1e-12)
            assert hypergeom_poly_jacobi(n, a, c, z, 1 - z) == pytest.approx(want, rel=1e-12)
        # large exponents (alpha = 1745, beta = 25) near both ends of [0, 1],
        # the recurrence only, relative to the column maximum
        n, a, c = 29, 1800.0, 1746.0
        zs = np.logspace(-12.0, -1.0, 23)
        zs = np.concatenate([zs, 1.0 - zs])
        want = _mp_hypergeom(n, a, c, zs)
        got = hypergeom_poly_jacobi(n, a, c, zs, 1.0 - zs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # general parameters: the power sum only
        for n, a, c, z in ((3, 2.5, 1.2, 0.4), (7, -1.7, 0.8, 0.63)):
            want = _mp_hypergeom(n, a, c, [z])[0]
            assert verify._hypergeom_poly_eval(n, a, c, z) == pytest.approx(want, rel=1e-12)

    def test_jacobi_rejects_parameters_below_minus_one(self):
        # alpha = 12, beta = -24: the recurrence would return NaN here
        with pytest.raises(DomainError):
            hypergeom_poly_jacobi(12, 1.0, 13.0, 0.5, 0.5)
        assert verify._hypergeom_poly_eval(12, 1.0, 13.0, 0.5) == pytest.approx(
            0.673008509954359, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            verify._hypergeom_poly_eval(3, 1.5, -1.0, 0.2)

    def test_flip_identity(self):
        ri = RayIdentifiers(1.0, 7.0)
        for sol in spectrum(ri, TP2):
            if sol.m == 0:
                continue
            for z in (0.2, 0.3, 0.77):
                direct = hypergeom_poly_jacobi(
                    sol.m, sol.mu - sol.m, sol.lambda0 + 1.0, z, 1 - z
                )
                assert verify._hypergeom_flip_eval(z, sol) == pytest.approx(
                    direct, abs=1e-10 * max(1, abs(direct))
                )


class TestAehEval:
    def test_basic_solution_is_bare_prefactor(self):
        sol = {s.kind: s for s in wl_solve(0, 5.0, TP2)}[Kind.C]
        for z in (0.2, 0.5, 0.8):
            want = (
                math.sqrt(z * (1 - z))
                * z ** (sol.lambda0 / 2)
                * (1 - z) ** (sol.lambda1 / 2)
            )
            assert aeh_eval(z, 1 - z, sol) == pytest.approx(want, rel=1e-14)

    def test_ground_state_positive(self):
        sol = spectrum(WL5, TP2)[0]
        zs = np.linspace(1e-4, 1 - 1e-4, 10_000)
        assert np.all(aeh_eval(zs, 1 - zs, sol) > 0)

    def test_endpoint_limits(self):
        sol = spectrum(WL5, TP2)[0]
        assert aeh_eval(0.0, 1.0, sol) == 0.0
        assert aeh_eval(1.0, 0.0, sol) == 0.0
        irregular = {s.kind: s for s in wl_solve(0, 5.0, TP2)}[Kind.D]
        assert aeh_eval(0.0, 1.0, irregular) == math.inf

    def test_one_guard_same_bits(self):
        # the pair is checked once; the interior values are those of the
        # checked polynomial, bit for bit, and so is the finite limit at
        # z = 1 of a solution with lambda1 = -1 (degree 0, as the Jacobi
        # recurrence requires)
        sol = spectrum(RayIdentifiers(0.5, 7.3), TP2)[2]
        z, omz = core.map_x_to_z_pair(np.linspace(-20.0, 20.0, 4001), TP2)
        e0, e1 = 0.5 * (sol.lambda0 + 1.0), 0.5 * (sol.lambda1 + 1.0)
        want = z**e0 * omz**e1 * hypergeom_poly_jacobi(
            sol.m, sol.mu - sol.m, sol.lambda0 + 1.0, z, omz)
        assert aeh_eval(z, omz, sol).tobytes() == want.tobytes()
        edge = AehSolution(Kind.A, 0, 1.5, -1.0)
        assert aeh_eval(np.array([0.5, 1.0]), np.array([0.5, 0.0]), edge)[1] == \
            hypergeom_poly_jacobi(0, edge.mu, 2.5, 1.0, 0.0) == 1.0

    def test_outside_closed_interval_rejected(self):
        # NaN passed the old guard: [0.3, nan] returned uninitialised memory
        # in its second slot, a scalar NaN returned 1.0
        sol = spectrum(WL5, TP2)[0]
        for z in (math.nan, [0.3, math.nan], -0.1, 1.1, [0.5, math.inf]):
            with pytest.raises(DomainError):
                aeh_eval(z, 1 - np.asarray(z), sol)

    @pytest.mark.parametrize("params", [(0.0, 60.0, -1.0), (0.5, 80.0, 2.0)])
    def test_high_degree_polynomial_factor(self, params):
        lo, mo, zt = params
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        zs = np.linspace(0.005, 0.995, 199)
        for sol in spectrum(ri, tp):
            prefactor = zs ** (0.5 * (sol.lambda0 + 1.0)) * (1.0 - zs) ** (
                0.5 * (sol.lambda1 + 1.0))
            got = aeh_eval(zs, 1.0 - zs, sol) / prefactor
            want = _mp_hypergeom(sol.m, sol.mu - sol.m, sol.lambda0 + 1.0, zs)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), sol.m

    def test_composes_with_dz_dx_in_the_right_tail(self):
        # (dz/dx)**(-1/2) Phi on the map's pair is the x-gauge value; with
        # 1 - z formed by subtraction the composition was 5.1e-8, 9.4e-4 and
        # 2.5e-2 off at x = 10, 15 and 17, and divided by zero at x = 25
        for sol in spectrum(WL5, TP2):
            for x in (10.0, 15.0, 17.0, 25.0):
                z, omz = core.map_x_to_z_pair(x, TP2)
                composed = core.dz_dx(z, omz, TP2) ** -0.5 * aeh_eval(z, omz, sol)
                assert composed == pytest.approx(solution_eval_x(x, sol, WL5, TP2),
                                                 rel=1e-14, abs=0.0), (sol.m, x)

    def test_xz_consistency_needs_the_pair(self):
        # verify's gauge.xz-consistency on the Gram nodes reads within its
        # 1e-12 gate from the map's pair, and above it from (z, 1 - z) formed
        # by subtraction, on the nodes up to x = 17 where that 1 - z is not 0
        xq, _ = verify._gram_nodes()
        z, omz = core.map_x_to_z_pair(xq, TP2)
        near = xq <= 17.0
        z_only = core.map_x_to_z(xq[near], TP2)
        for sol in spectrum(WL5, TP2):
            assert verify._xz_gap(WL5, TP2, sol, xq, z, omz) <= 1e-12
            assert verify._xz_gap(WL5, TP2, sol, xq[near], z_only, 1.0 - z_only) > 1e-12


class TestPolyFactor:
    """Zeros in (0, 1) of the polynomial factor, by Klein's formula."""

    def test_degree_and_nodes(self):
        sols = spectrum(RayIdentifiers(0.0, 7.4), TP2)
        for n, s in enumerate(sols):
            assert s.m == n
            assert factor_roots_in_01(s) == n   # eigenfunction nodes sit inside (0,1)

    def test_roots_outside_not_counted(self):
        # (z-1)(z-2) = 2 (1-z)^2 + 2 (1/2) z (1-z) + 0 z^2 in the Bernstein
        # basis: no roots strictly inside (0,1)
        assert HeunPolynomial((2.0, 0.5, 0.0), 2, False).roots_in_01 == 0

    def test_level_n_has_n_roots_whole_domain(self):
        # every level of seeded draws over lambda_o <= 30, mu_o <= 80 and
        # z_T = 2 or 1e-3..60 (log-uniform) beyond either singular point
        rng = np.random.default_rng(11)
        draws = levels = top = 0
        while draws < 300:
            lo, mo, d = rng.uniform(0.0, 30.0), rng.uniform(0.0, 80.0), 10 ** rng.uniform(-3, 1.78)
            tp = TangentPoly((2.0, -d, 1.0 + d)[rng.integers(3)])
            try:
                sols = spectrum(RayIdentifiers(lo, mo), tp)
            except DrttpError:
                continue
            draws += 1
            for n, s in enumerate(sols):
                assert factor_roots_in_01(s) == n, (lo, mo, tp.z_T, n)
            levels, top = levels + len(sols), max(top, len(sols) - 1)
        assert levels > 3000 and top >= 30

    def test_census_grid_factors_match_bernstein_count(self):
        # the reference for all three kinds: the exact count, by de Casteljau
        # subdivision, of the Bernstein coefficients (c - a)_k / (c)_k of
        # F(-m, a; c; z), with c - a = -(lambda1 + m)
        kinds = set()
        for z_t in list(np.linspace(-3.0, -0.15, 10)) + list(np.linspace(1.15, 4.0, 10)):
            tp = TangentPoly(float(z_t))
            for mu_o in np.linspace(1.41, 9.13, 20):
                for m in range(8):
                    for s in wl_solve(m, float(mu_o), tp):
                        coeffs = [1.0]
                        for k in range(m):
                            coeffs.append(coeffs[-1] * (k - m - s.lambda1) / (s.lambda0 + 1 + k))
                        bernstein = HeunPolynomial(tuple(coeffs), m, False)
                        assert factor_roots_in_01(s) == bernstein.roots_in_01, (
                            z_t, mu_o, m, s.kind)
                        kinds.add(s.kind)
        assert len(kinds) == 7   # a, b, a', b', c, d', d

    @pytest.mark.parametrize("lambda0, lambda1", [(-1.0, 0.5), (0.5, -2.0), (-3.0, -3.0)])
    def test_vanishing_binomial_raises(self, lambda0, lambda1):
        # C(m + lambda, m) = 0 puts a zero of the factor on an endpoint
        with pytest.raises(DomainError, match="vanishes"):
            factor_roots_in_01(AehSolution(Kind.A, 3, lambda0, lambda1))


def _solution_reference(x, sol, tp):
    """solution_eval_x without the memo and the split: a fresh map, one exp
    of the record's summed logs and the polynomial factor over the whole
    grid, one product."""
    g = core.GaugeRecord(np.asarray(x, dtype=float), tp)
    pref = np.exp(g.log_z * (0.5 * sol.lambda0) + g.log_omz * (0.5 * sol.lambda1)
                  + g.log_weight)
    return pref * hypergeom_poly_jacobi(sol.m, sol.mu - sol.m, sol.lambda0 + 1.0, g.z, g.omz)


def _mp_logs(x, z_t):
    """(log z, log(1 - z)) at x in the working precision of mpmath: in
    closed form on z_T = 2, else the root t of x(z) = x in the log of the
    small coordinate, bracketed between the tail asymptote and a point
    below the root."""
    x = mpmath.mpf(x)
    if z_t == 2.0:
        s = 1 + mpmath.sqrt(1 + mpmath.exp(-2 * x))
        return mpmath.log(2) - mpmath.log(s), -2 * x - 2 * mpmath.log(s)
    zt, half = mpmath.mpf(z_t), mpmath.log(mpmath.mpf(0.5))
    a, xs = -zt / (2 * (1 - zt)), x + mpmath.log(2)
    right = xs > (a - 0.5) * half
    alpha, beta = (-0.5, a) if right else (a, -0.5)
    lo = -2 * (xs + a * mpmath.log(2)) - 1 if right else (xs - mpmath.log(2)) / a - 1
    t = mpmath.findroot(lambda t: alpha * t + beta * mpmath.log1p(-mpmath.exp(t)) - xs,
                        (lo, min(xs / alpha, half)), solver="anderson")
    other = mpmath.log1p(-mpmath.exp(t))
    return (other, t) if right else (t, other)


def _mp_solution(x, sol, z_t):
    """solution_eval_x at x in the working precision of mpmath, from the
    solution's double parameters."""
    log_z, log_omz = _mp_logs(x, z_t)
    z, zt = mpmath.exp(log_z), mpmath.mpf(z_t)
    l0, l1 = mpmath.mpf(sol.lambda0), mpmath.mpf(sol.lambda1)
    poly = mpmath.hyp2f1(-sol.m, mpmath.mpf(sol.mu) - sol.m, l0 + 1, z) if sol.m else 1
    return mpmath.sqrt((z - zt) / (2 * (1 - zt))) * mpmath.exp(l0 / 2 * log_z
                                                             + l1 / 2 * log_omz) * poly


class TestGaugeRecord:
    GRID = np.linspace(-30.0, 30.0, 1201)
    GRIDS = {
        "sorted": GRID,
        "reversed": GRID[::-1].copy(),
        "shuffled": np.random.default_rng(2).permutation(GRID),
        "2-d": GRID[:1200].reshape(30, 40),
        "2-d, Fortran order": np.asfortranarray(GRID[:1200].reshape(30, 40)),
        "above the cap": np.linspace(-45.0, 45.0, core._MEMO_MAX_POINTS + 7),
    }
    CASES = [(0.5, 12.0, 2.0), (0.7, 60.4, 2.0), (0.3, 14.2, -0.8), (1.2, 10.9, 3.5)]

    @pytest.mark.parametrize("case", CASES)
    def test_bit_equal_to_unmemoized_formula(self, case):
        lo, mo, zt = case
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        sols = spectrum(ri, tp)
        others = [np.linspace(-1.0, 1.0, k) for k in range(3, 3 + core._MEMO_GRIDS)]
        for name, xs in self.GRIDS.items():
            want = [_solution_reference(xs, s, tp).tobytes() for s in sols]
            # first call, hits, then after the other grids evicted it
            for _ in range(2):
                got = [solution_eval_x(xs, s, ri, tp).tobytes() for s in sols]
                assert got == want, name
            for other in others:
                solution_eval_x(other, sols[-1], ri, tp)
            got = [solution_eval_x(xs, s, ri, tp).tobytes() for s in sols]
            assert got == want, name
            for n, s in enumerate(sols):
                norm = math.sqrt(solution_norm_sq(s, tp))
                psi = solution_eval_x(xs, s, ri, tp) / norm
                assert psi.tobytes() == (np.frombuffer(want[n]).reshape(xs.shape) / norm).tobytes()
        for x in (-29.3, -1.5 * math.log(2.0), 0.0, 7.25):
            for s in sols:
                got = solution_eval_x(x, s, ri, tp)
                assert isinstance(got, float)
                assert np.float64(got).tobytes() == _solution_reference(x, s, tp).tobytes()

    def test_results_are_fresh_arrays(self):
        ri, tp = RayIdentifiers(0.5, 12.0), TangentPoly(-0.8)
        sols = spectrum(ri, tp)
        first = solution_eval_x(self.GRID, sols[2], ri, tp)
        want = first.copy()
        rec = core.gauge_record(self.GRID, tp)
        assert not any(np.shares_memory(first, a)
                       for a in (rec.z, rec.omz, rec.log_z, rec.log_omz, rec.log_weight))
        assert first.flags.writeable
        first[:] = np.nan
        assert solution_eval_x(self.GRID, sols[2], ri, tp).tobytes() == want.tobytes()
        assert solution_eval_x(self.GRID, sols[0], ri, tp) is not solution_eval_x(
            self.GRID, sols[0], ri, tp)

    def test_where_z_or_one_minus_z_is_zero(self):
        # z = 0 at x = -800 and 1 - z = 0 at x = 800 on z_T = 2, but their
        # logs stay finite: the value is 0 where the product underflows,
        # signed by the polynomial factor at z = 1 (-0.0 on odd levels), and
        # the 50-digit value where it does not, at the top level
        # (lambda0 = 0.73, lambda1 = 0.27), which z**(lambda0/2) and
        # (1 - z)**(lambda1/2) on the rounded pair made 0
        ri = RayIdentifiers(0.5, 12.0)
        sols = spectrum(ri, TP2)
        xs = np.array([-800.0, 800.0])
        assert [a.tolist() for a in core.map_x_to_z_pair(xs, TP2)] == [[0.0, 1.0], [1.0, 0.0]]
        for s in sols:
            for got in (solution_eval_x(xs, s, ri, TP2),
                        np.array([solution_eval_x(x, s, ri, TP2) for x in xs])):
                if s is sols[-1]:
                    with mpmath.workdps(50):
                        want = [float(_mp_solution(x, s, 2.0)) for x in xs]
                    assert 0.0 < want[0] and want[1] < 0.0
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
                    continue
                assert got.tolist() == [0.0, 0.0]
                assert np.signbit(got).tolist() == [False, s.m % 2 == 1]

    def test_threads_sharing_a_tangent_poly(self):
        ri, tp = RayIdentifiers(0.3, 14.2), TangentPoly(-0.8)
        sols = spectrum(ri, tp)
        grids = [np.linspace(-20.0, 20.0, n) for n in range(401, 409)]
        grids[3] = np.random.default_rng(4).permutation(grids[3])
        want = [[_solution_reference(xs, s, tp).tobytes() for s in sols] for xs in grids]
        results = [[] for _ in range(4)]

        def work(k):
            try:
                for i in range(60):
                    j = (i * (k + 1)) % len(grids)
                    got = [solution_eval_x(grids[j], s, ri, tp).tobytes() for s in sols]
                    results[k].append(got == want[j])
            except Exception as exc:  # report, so the assertion below shows it
                results[k].append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r == [True] * 60 for r in results)


class TestAgainstMpmath:
    """solution_eval_x against 50 digits from the same double parameters,
    body and tails: over |x| <= 800, where z or 1 - z rounds to 0 on every
    branch, relative to the level's maximum, and point by point where the
    rounded pair underflows."""

    XS = np.concatenate([np.sinh(np.linspace(-math.asinh(800.0), math.asinh(800.0), 41)),
                         np.linspace(-12.0, 12.0, 25)])

    @pytest.mark.parametrize("point, levels", [
        ((0.3, 59.7, 2.0), (0, 15, 29)),
        ((0.0, 3.0427321640114346, 2.0), (0, 1)),
        ((0.0, 52.0, -1.0), (0, 25)),
        ((1.2, 10.9, 3.5), (0, 4)),
    ], ids=["deep well", "weakly bound", "z_T < 0", "z_T > 1"])
    def test_worst_error_of_the_maximum(self, point, levels):
        ri, tp = RayIdentifiers(point[0], point[1]), TangentPoly(point[2])
        sols = spectrum(ri, tp)
        for n in levels:
            got = solution_eval_x(self.XS, sols[n], ri, tp)
            with mpmath.workdps(50):
                want = np.array([float(_mp_solution(x, sols[n], point[2])) for x in self.XS])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n

    @pytest.mark.parametrize("z_t, xs", [
        (2.0, np.linspace(300.0, 420.0, 9)),     # 1 - z rounds to 0 from x = 354
        (-1.0, np.array([-190.0, -250.0, -400.0])),  # z rounds to 0 from x = -186
    ], ids=["right, z_T = 2", "left, z_T = -1"])
    def test_past_the_underflow_of_the_pair(self, z_t, xs):
        # the weakly bound top level: lambda1 = 0.0143 on z_T = 2 and
        # lambda0 = 0.0143 on z_T = -1; z**(lambda0/2) (1 - z)**(lambda1/2)
        # on the rounded pair read 0 there, 2.4e-3 of the maximum at x = 404
        ri, tp = RayIdentifiers(0.0, 3.0427321640114346), TangentPoly(z_t)
        top = spectrum(ri, tp)[-1]
        got = solution_eval_x(xs, top, ri, tp)
        with mpmath.workdps(50):
            want = [float(_mp_solution(x, top, z_t)) for x in xs]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestEigenfunctions:
    def test_decay(self):
        # slowest level decays like exp(-0.68 |x|) here
        for s in spectrum(WL5, TP2):
            assert abs(solution_eval_x(35.0, s, WL5, TP2)) < 1e-9
            assert abs(solution_eval_x(-35.0, s, WL5, TP2)) < 1e-9
            assert abs(solution_eval_x(60.0, s, WL5, TP2)) < 1e-16

    def test_node_counts(self):
        ri = RayIdentifiers(0.0, 7.4)
        sols = spectrum(ri, TP2)
        for n, s in enumerate(sols):
            nodes = count_nodes(
                lambda x, s=s: solution_eval_x(x, s, ri, TP2), (-25.0, 25.0)
            )
            assert nodes == n

    def test_orthogonality(self):
        ri = RayIdentifiers(1.0, 5.0)
        sols = spectrum(ri, TP2)
        val, _ = quad(
            lambda x: solution_eval_x(x, sols[0], ri, TP2)
            * solution_eval_x(x, sols[1], ri, TP2),
            -40.0, 40.0, limit=300,
        )
        n0 = math.sqrt(solution_norm_sq(sols[0], TP2))
        n1 = math.sqrt(solution_norm_sq(sols[1], TP2))
        assert abs(val / (n0 * n1)) < 1e-8

    def test_values_near_both_ends_against_mpmath(self):
        # the top levels of (0, 60, -1) peak near z = 1 (lambda1 < 2); each
        # side of z = 1/2 runs the recurrence in its own small coordinate
        ri, tp = RayIdentifiers(0.0, 60.0), TangentPoly(-1.0)
        sols = spectrum(ri, tp)
        xs = np.linspace(-15.0, 15.0, 61)
        with mpmath.workdps(40):
            zt, x0 = mpmath.mpf(tp.z_T), -mpmath.log(2)
            pairs = []
            # x(z) solved in t = log of the smaller of z and 1 - z
            for x, z0, w0 in zip(xs, *core.map_x_to_z_pair(xs, tp)):
                right = w0 < z0
                t = mpmath.findroot(lambda t: (
                    -zt * (mpmath.log1p(-mpmath.exp(t)) if right else t)
                    - (1 - zt) * (t if right else mpmath.log1p(-mpmath.exp(t)))
                ) / (2 * (1 - zt)) + x0 - x, mpmath.log(min(z0, w0)))
                u = mpmath.exp(t)
                pairs.append((1 - u, u) if right else (u, 1 - u))
            for s in sols[-4:]:
                coef = _mp_coeffs(s.m, s.mu - s.m, s.lambda0 + 1.0)[::-1]
                l0, l1 = mpmath.mpf(s.lambda0), mpmath.mpf(s.lambda1)
                want = np.array([float(
                    mpmath.sqrt((z - zt) / (2 * (1 - zt))) * z ** (l0 / 2)
                    * w ** (l1 / 2) * mpmath.polyval(coef, z)) for z, w in pairs])
                got = solution_eval_x(xs, s, ri, tp)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_normalized_unit_norm(self):
        xs = np.linspace(-30, 30, 120_001)
        sol = spectrum(WL5, TP2)[0]
        psi = solution_eval_x(xs, sol, WL5, TP2) / math.sqrt(solution_norm_sq(sol, TP2))
        sq = psi**2
        norm = (xs[1] - xs[0]) * (sq.sum() - 0.5 * (sq[0] + sq[-1]))  # trapezoid rule
        assert norm == pytest.approx(1.0, rel=1e-7)

    @pytest.mark.parametrize("params", [
        (1.0, 9.0, 1.05, 3),       # decays beyond |x| = 60
        (0.0, 3.001, 2.0, -1),     # lambda1 ~ 3e-4 just below threshold
        (0.3, 59.7, 2.0, 29),
        (1.215, 58.69, 1.00137, 27),  # lambda1 = 0.0049
    ])
    def test_norm_matches_beta_expansion(self, params):
        lo, mo, zt, n = params
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        sols = spectrum(ri, tp)
        n %= len(sols)
        got = solution_norm_sq(sols[n], tp)
        assert got == pytest.approx(_mp_norm_sq(sols[n], tp), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("params", [
        (0.5, 77.0, 1.0002),  # level 0: lambda0 = 1745
        (0.0, 80.0, -1e-3),  # level 0: lambda1 = 1039.5
    ])
    def test_norm_finite_at_large_exponents(self, params):
        lo, mo, zt = params
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        sols = spectrum(ri, tp)
        got = solution_norm_sq(sols[0], tp)
        assert got == pytest.approx(_mp_norm_sq(sols[0], tp), rel=1e-11, abs=0.0)
        psi = solution_eval_x(np.linspace(-5.0, 5.0, 11), sols[0], ri, tp) / math.sqrt(got)
        assert np.all(np.isfinite(psi)) and np.any(psi > 0.0)

    def test_norm_whole_domain(self):
        # seeded levels over lambda_o <= 30, mu_o <= 80 and z_T = 2 or
        # 1e-3..60 (log-uniform) beyond either singular point
        rng = np.random.default_rng(3)
        worst, levels = 0.0, 0
        while levels < 120:
            lo, mo, d = rng.uniform(0.0, 30.0), rng.uniform(0.0, 80.0), 10 ** rng.uniform(-3, 1.78)
            tp = TangentPoly((2.0, -d, 1.0 + d)[rng.integers(3)])
            ri = RayIdentifiers(lo, mo)
            try:
                sols = spectrum(ri, tp)
            except DrttpError:
                continue
            if sols:
                n = int(rng.integers(len(sols)))
                got = solution_norm_sq(sols[n], tp)
                worst = max(worst, abs(got / _mp_norm_sq(sols[n], tp) - 1.0))
                levels += 1
        assert worst <= 1e-12

    def test_norm_underflow_is_domain_error(self):
        # both exponents in the thousands: the norm is below the smallest float
        sol = AehSolution(Kind.C, 0, 2000.0, 2000.0)
        with pytest.raises(DomainError):
            solution_norm_sq(sol, TP2)

    def test_beta_against_mpmath(self):
        # arguments 1..3e4, skewed and balanced, down to where B underflows
        rng = np.random.default_rng(4)
        pairs = [(1.0, 1.0), (10.0, 10.0), (1746.0, 31.0), (1.0, 1746.0)]
        for a, b in pairs + [tuple(10 ** rng.uniform(0.0, 4.5, 2)) for _ in range(200)]:
            with mpmath.workdps(50):
                log_b = float(mpmath.log(mpmath.beta(a, b)))
                want = float(mpmath.beta(a, b))
            got = wavefunction._beta(a, b)
            if want < 1e-300:  # subnormal or zero: no relative precision left
                assert got < 1e-300
            else:
                assert got == pytest.approx(want, rel=2e-14 + 2e-15 * abs(log_b), abs=0.0)

    def test_index_error(self):
        with pytest.raises(IndexError):
            wavefunction.eigenfunction_norm_sq(5, WL5, TP2)
        # a negative n must not wrap around to the top level
        ri, tp = RayIdentifiers(0.5, 12.0), TangentPoly(-1.0)
        for n in (-1, len(spectrum(ri, tp))):
            with pytest.raises(IndexError):
                wavefunction.eigenfunction_norm_sq(n, ri, tp)

    # a uniform grid on |x| <= 8 and the nodes of verify's Gram sums on
    # |x| <= 200, where z or 1 - z underflows and a chain rule with 1/z terms
    # divided by zero
    RESIDUAL_GRIDS = (np.linspace(-8.0, 8.0, 6401),
                      np.sinh(np.linspace(-math.asinh(200.0), math.asinh(200.0), 1000)))

    def test_schrodinger_residual(self):
        ri = RayIdentifiers(0.5, 5.0)
        tp = TangentPoly(-1.0)
        for xs in self.RESIDUAL_GRIDS:
            assert verify._schrodinger_residual(ri, tp, spectrum(ri, tp), xs) < 1e-10

    @pytest.mark.parametrize("params", verify.HIGH_DEGREE_POINTS)
    def test_schrodinger_residual_high_degree(self, params):
        # 4th-order differences on the |x| <= 8 grid read 1.3e-5 and 3.9e-4 here
        ri, tp = RayIdentifiers(*params[:2]), TangentPoly(params[2])
        sols = spectrum(ri, tp)
        assert max(s.m for s in sols) >= 25
        for xs in self.RESIDUAL_GRIDS:
            assert verify._schrodinger_residual(ri, tp, sols, xs) < 1e-10

    @pytest.mark.parametrize("params", [(0.5, 5.0, -1.0), (0.3, 59.7, 2.0)])
    def test_schrodinger_residual_detects_shifted_level(self, params):
        # one level's energy off by 1e-9 relative breaks the 1e-10 gate;
        # epsilon is derived from lambda1, so only the copy's energy moves
        ri, tp = RayIdentifiers(*params[:2]), TangentPoly(params[2])
        sols = spectrum(ri, tp)
        for n in (0, len(sols) // 2):
            shifted = dataclasses.replace(sols[n])
            object.__setattr__(shifted, "epsilon", sols[n].epsilon * (1.0 + 1e-9))
            bad = sols[:n] + [shifted] + sols[n + 1:]
            for xs in self.RESIDUAL_GRIDS:
                assert verify._schrodinger_residual(ri, tp, bad, xs) > 1e-10


class TestCountNodes:
    def test_polynomial(self):
        assert count_nodes(lambda z: (z - 0.3) * (z - 0.7), (0.0, 1.0)) == 2
        assert count_nodes(lambda z: z * z - 3 * z + 2, (0.0, 1.0)) == 0

    def test_constant(self):
        assert count_nodes(lambda z: np.ones_like(np.asarray(z, dtype=float)),
                           (0.0, 1.0)) == 0

    def test_refinement_evaluates_only_midpoints(self):
        # converging on the second grid costs 4095 + 4096 points, and the
        # points passed to f are exactly that grid
        seen = []

        def f(z):
            seen.append(z.copy())
            return (z - 0.3) * (z - 0.7)

        assert count_nodes(f, (0.0, 1.0)) == 2
        assert [s.size for s in seen] == [4095, 4096]
        np.testing.assert_allclose(np.sort(np.concatenate(seen)),
                                   np.linspace(0.0, 1.0, 8193)[1:-1], rtol=0.0, atol=1e-15)

    def test_cap_bounds_the_points_evaluated(self, monkeypatch):
        # sin(1/z) shows more nodes on every finer grid: grids of 15, 31 and
        # 63 points, and the next, 127, is over the cap
        seen = []

        def f(z):
            seen.append(z.size)
            return np.sin(1.0 / z)

        # the default cap admits the grid of 2**20 cells
        with pytest.raises(ConvergenceError):
            count_nodes(f, (0.0, 1.0))
        assert sum(seen) == 2**20 - 1
        seen.clear()
        monkeypatch.setattr(wavefunction, "_NODES_INITIAL", 16)
        monkeypatch.setattr(wavefunction, "_NODES_CAP", 100)
        with pytest.raises(ConvergenceError):
            count_nodes(f, (0.0, 1.0))
        assert seen == [15, 16, 32]

    def test_nan_values_rejected(self):
        # f has no sign where it is NaN: a band of NaN around the node at 0.3
        # raises instead of being skipped
        def f(z):
            return np.where(np.abs(z - 0.3) < 1e-3, np.nan, (z - 0.3) * (z - 0.7))

        with pytest.raises(DomainError):
            count_nodes(f, (0.0, 1.0))

    def test_scalar_result_rejected(self):
        with pytest.raises(DomainError):
            count_nodes(lambda x: 1.0, (0.0, 1.0))

    def test_interval_not_finite_rejected(self):
        # (0, nan) counted 0 nodes on a grid of NaN points
        for interval in ((0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
            with pytest.raises(DomainError):
                count_nodes(lambda x: x - 0.5, interval)
