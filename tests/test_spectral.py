"""Characteristic cubics, regions, levelled limit, spectra and basic solutions."""

import copy
import dataclasses
import logging
import math
import pickle

import mpmath
import numpy as np
import pytest

from drttp import spectral
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import (
    DegenerateLimitError,
    DomainError,
    TransferAmbiguityError,
)
from drttp.spectral import (
    AehSolution,
    CubicVariable,
    Kind,
    Region,
    TransferDirection,
    basic_solutions,
    bound_state_count,
    classify_region,
    cubic_coeffs,
    expdiff_transfer,
    make_solution,
    nodeless_census,
    real_cubic_roots,
    spectrum,
    wl_solve,
)

TP2 = TangentPoly(2.0)
WL5 = RayIdentifiers(0.0, 5.0)


class TestCubicCoeffs:
    def test_lambda1_free_term_levelled(self):
        spec = cubic_coeffs(0, WL5, TP2, CubicVariable.LAMBDA1)
        assert spec.coeffs[0] == pytest.approx(576.0)
        assert spec.coeffs[3] == pytest.approx(8 * 2 * (1 - 2) * 1)

    def test_lambda0_free_term_zero_point(self):
        spec = cubic_coeffs(0, RayIdentifiers(0.0, 1.0), TP2, CubicVariable.LAMBDA0)
        assert spec.coeffs[0] == pytest.approx(0.0, abs=1e-12)
        spec2 = cubic_coeffs(1, RayIdentifiers(0.3, 3.0), TP2, CubicVariable.LAMBDA0)
        assert spec2.coeffs[0] > 0.0

    def test_leading_coefficients(self):
        ri = RayIdentifiers(1.0, 7.0)
        for z_t in (2.0, -1.0):
            tp = TangentPoly(z_t)
            s = tp.sqrt_c0
            for m in (0, 2):
                u = 2 * m + 1
                c1 = cubic_coeffs(m, ri, tp, CubicVariable.LAMBDA1)
                c0 = cubic_coeffs(m, ri, tp, CubicVariable.LAMBDA0)
                assert c1.coeffs[3] == pytest.approx(8 * s * (1 - s) * u)
                assert c0.coeffs[3] == pytest.approx(8 * (s - 1) * u)

    def test_coeffs_against_quartic_fit(self):
        # all four coefficients recovered by fitting the defining quartic
        # reduction at sample points
        ri = RayIdentifiers(1.0, 7.0)
        tp = TangentPoly(-1.0)
        m = 2
        s, u = tp.sqrt_c0, 2 * m + 1
        L, M = ri.lambda_o**2, ri.mu_o**2

        def reduction(lam):
            return (
                tp.c0 * (M - (lam + u) ** 2 + (1 - 2 / s) * (lam**2 - L)) ** 2
                - 4 * (lam**2 - L) * (lam + u) ** 2
            )

        xs = np.linspace(-2.5, 2.5, 5)
        fit = np.polyfit(xs, [reduction(x) for x in xs], 3)[::-1]
        got = cubic_coeffs(m, ri, tp, CubicVariable.LAMBDA0).coeffs
        assert np.allclose(fit, got, rtol=1e-9, atol=1e-9)

    def test_degenerate_limit_rejected(self):
        with pytest.raises(DegenerateLimitError):
            cubic_coeffs(0, WL5, TangentPoly(1e13), CubicVariable.LAMBDA1)


class TestRoots:
    def test_factored_cubic(self):
        spec = spectral.CubicSpec(
            CubicVariable.LAMBDA1, (0.0, -1.0, 0.0, 1.0), 4.0
        )
        assert real_cubic_roots(spec) == pytest.approx([-1.0, 0.0, 1.0])

    def test_levelled_root_set(self):
        spec = cubic_coeffs(0, WL5, TP2, CubicVariable.LAMBDA1)
        roots = real_cubic_roots(spec)
        want = sorted(
            [-12.0, (-6 + math.sqrt(804)) / 16, (-6 - math.sqrt(804)) / 16]
        )
        assert roots == pytest.approx(want, abs=1e-12)

    def test_single_real_root(self):
        # negative discriminant: lambda^3 + lambda + 1
        spec = spectral.CubicSpec(CubicVariable.LAMBDA1, (1.0, 1.0, 0.0, 1.0),
                                  -31.0 / 27.0)
        roots = real_cubic_roots(spec)
        assert len(roots) == 1
        assert spec(roots[0]) == pytest.approx(0.0, abs=1e-12)

    def test_double_root(self):
        # (lambda - 1)^2 (lambda + 2) has a double root
        spec = spectral.CubicSpec(CubicVariable.LAMBDA1, (2.0, -3.0, 0.0, 1.0),
                                  0.0)
        roots = real_cubic_roots(spec)
        assert len(roots) == 3
        assert sorted(roots) == pytest.approx([-2.0, 1.0, 1.0], abs=1e-7)

    def test_residual_bound(self):
        rng = np.random.RandomState(2)
        for _ in range(200):
            ri = RayIdentifiers(rng.uniform(0, 2), rng.uniform(0.3, 8))
            tp = TangentPoly(float(rng.choice([-2.0, -0.7, 1.5, 3.0])))
            spec = cubic_coeffs(int(rng.randint(0, 3)), ri, tp,
                                CubicVariable.LAMBDA1)
            scale = max(abs(c) for c in spec.coeffs)
            for r in real_cubic_roots(spec):
                assert abs(spec(r)) <= 1e-9 * scale * max(1.0, abs(r)) ** 3


class TestTransfer:
    def test_levelled_example(self):
        lam0 = expdiff_transfer(-12.0, 0, WL5, TP2,
                                TransferDirection.LAMBDA1_TO_LAMBDA0)
        assert lam0 == pytest.approx(24.0)
        assert lam0**2 == pytest.approx(0.0 + 4.0 * 144.0)

    def test_pole_raises(self):
        with pytest.raises(TransferAmbiguityError):
            expdiff_transfer(-1.0, 0, WL5, TP2,
                             TransferDirection.LAMBDA1_TO_LAMBDA0)

    def test_roundtrip(self):
        rng = np.random.RandomState(4)
        count = 0
        while count < 100:
            ri = RayIdentifiers(rng.uniform(0, 2), rng.uniform(0.3, 8))
            tp = TangentPoly(float(rng.choice([-2.0, 1.5])))
            m = int(rng.randint(0, 3))
            spec = cubic_coeffs(m, ri, tp, CubicVariable.LAMBDA1)
            for r in real_cubic_roots(spec):
                try:
                    l0 = expdiff_transfer(r, m, ri, tp,
                                          TransferDirection.LAMBDA1_TO_LAMBDA0)
                    back = expdiff_transfer(l0, m, ri, tp,
                                            TransferDirection.LAMBDA0_TO_LAMBDA1)
                except TransferAmbiguityError:
                    continue
                assert back == pytest.approx(r, abs=1e-10 * max(1, abs(r)))
                count += 1


class TestWlSolve:
    def test_m0_mu5(self):
        sols = {s.kind: s for s in wl_solve(0, 5.0, TP2)}
        a = sols[Kind.A]
        assert a.lambda1 == pytest.approx(-12.0)
        assert a.epsilon == pytest.approx(-144.0)      # -(z_T-1)^2 g^2 / 4u^2
        c = sols[Kind.C]
        assert c.lambda1 == pytest.approx((-6 + math.sqrt(804)) / 16)
        assert c.epsilon == pytest.approx(-1.9521143551, abs=1e-9)
        d = sols[Kind.D]
        assert d.lambda1 == pytest.approx((-6 - math.sqrt(804)) / 16)

    def test_threshold_solution(self):
        sols = wl_solve(2, 5.0, TP2)   # 2m+1 == mu_o
        lin = [s for s in sols
               if s.kind in (Kind.A_PRIME, Kind.B_PRIME, Kind.A, Kind.B)]
        assert len(lin) == 1
        assert lin[0].lambda1 == 0.0 and lin[0].epsilon == 0.0

    def test_supplementary_kinds(self):
        sols = {s.kind: s for s in wl_solve(3, 5.0, TP2)}
        assert Kind.B_PRIME in sols      # c0 > 1, 2m+1 > mu_o
        assert Kind.D_PRIME in sols
        d = sols[Kind.D]
        assert d.merged_tail and d.label == "d''"

    def test_negative_m_rejected(self):
        # m = -1 used to return three "solutions" of degree -1
        with pytest.raises(DomainError):
            wl_solve(-1, 5.0, TP2)

    def test_invariants_on_all_solutions(self):
        for z_t in (2.0, -1.0):
            tp = TangentPoly(z_t)
            for m in range(4):
                for s in wl_solve(m, 6.3, tp):
                    assert s.lambda0**2 == pytest.approx(
                        tp.c0 * s.lambda1**2, abs=1e-9 * (1 + s.lambda0**2)
                    )
                    assert s.mu**2 == pytest.approx(
                        6.3**2 + tp.a2 * s.lambda1**2,
                        abs=1e-9 * (1 + s.mu**2),
                    )


class TestCountsAndRegions:
    def test_bound_state_count(self):
        assert bound_state_count(5.0) == 2
        assert bound_state_count(1.0) == 0
        assert bound_state_count(5.2) == 3
        assert bound_state_count(3.0, lambda_o=2.0) == 0
        assert bound_state_count(7.3, lambda_o=2.0) == 3

    def test_regions(self):
        assert classify_region(0, RayIdentifiers(1.0, 5.0))[0] is Region.A
        region, flags = classify_region(2, RayIdentifiers(1.0, 6.0))
        assert flags == ["A|D"]
        assert classify_region(0, RayIdentifiers(3.0, 1.0))[0] is Region.C
        assert classify_region(1, RayIdentifiers(0.5, 1.0))[0] is Region.B
        assert classify_region(0, RayIdentifiers(1.5, 1.2))[0] is Region.D


class TestCensus:
    def test_levelled_bounds(self):
        census = nodeless_census(WL5, TP2)
        assert census.m_plus_c0 is not None and census.m_plus_c0 < 2.0
        assert census.m_plus_c0 < bound_state_count(5.0)
        assert census.mu_cross_slope == pytest.approx(math.sqrt(3.0))

    def test_empty_spectrum_marker(self):
        census = nodeless_census(RayIdentifiers(0.0, 0.8), TP2)
        assert census.m_plus_c0 is None
        assert census.count_primary_nodeless is None


class TestTau:
    def test_closed_forms_c0_4(self):
        slopes = spectral.asymptotic_tau(TP2)
        assert slopes.tau1_linear == pytest.approx(0.5)
        assert {slopes.tau1_d, slopes.tau1_d_tail} == {-0.25, -0.5}
        for t in (slopes.tau1_linear, slopes.tau1_d, slopes.tau1_d_tail):
            assert slopes.cubic_residual(t, TP2) == pytest.approx(0.0, abs=1e-12)

    def test_discriminant_limit(self):
        m = 10_000
        lim = spectral.wl_quadratic_discriminant(m, 5.0, TP2) / (2 * m + 1) ** 2
        assert lim == pytest.approx(4.0, rel=0.01)


class TestSpectrum:
    def test_levelled_two_levels(self):
        sols = spectrum(WL5, TP2)
        assert len(sols) == 2
        assert sols[0].epsilon == pytest.approx(
            -(((-6 + math.sqrt(804)) / 16) ** 2), abs=1e-12
        )
        assert sols[1].epsilon == pytest.approx(
            -(((-18 + math.sqrt(836)) / 16) ** 2), abs=1e-12
        )

    def test_empty(self):
        assert spectrum(RayIdentifiers(0.0, 1.0), TP2) == []

    def test_continuity_in_lambda_o(self):
        base = [s.epsilon for s in spectrum(WL5, TP2)]
        near = [s.epsilon for s in spectrum(RayIdentifiers(1e-6, 5.0), TP2)]
        assert np.max(np.abs(np.asarray(base) - near)) < 1e-5

    def test_ordering_and_negativity(self):
        for z_t in (2.0, -1.0):
            for lo, mo in ((0.5, 7.3), (2.0, 7.3), (1.0, 5.0)):
                eps = [s.epsilon for s in
                       spectrum(RayIdentifiers(lo, mo), TangentPoly(z_t))]
                assert all(e < 0 for e in eps)
                assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_dkv_gauge_energy_relation(self):
        # E in the shifted elementary gauge is -lambda0^2/4
        sols = spectrum(WL5, TP2)
        for s in sols:
            assert s.epsilon - WL5.lambda_o**2 / 4 == pytest.approx(
                -s.lambda0**2 / 4, rel=1e-12
            )

    def test_levels_against_mpmath_root(self):
        # reference: the 50-digit root l = lambda1 > 0 of the defining system
        # sqrt(lambda_o**2 + c0 l**2) + l + 2n + 1 = sqrt(mu_o**2 + a2 l**2);
        # (0.5, 77, 1.0002) once raised ClassificationError just above z_T = 1
        rng = np.random.default_rng(5)
        points = [(0.5, 77.0, 1.0002), (1.0, 9.0, 1.05)]
        for _ in range(150):
            d = 10 ** rng.uniform(-3, math.log10(60))
            z_t = (2.0, -d, 1.0 + d)[rng.integers(3)]
            points.append((30 * rng.random(), 80 * (1 - rng.random()), z_t))
        with mpmath.workdps(50):
            for lo, mo, z_t in points:
                sols = spectrum(RayIdentifiers(lo, mo), TangentPoly(z_t))
                L, M, zt = mpmath.mpf(lo) ** 2, mpmath.mpf(mo) ** 2, mpmath.mpf(z_t)
                c0, a2 = (zt / (zt - 1)) ** 2, 1 / (1 - zt) ** 2
                for s in sols:
                    def defining(l, u=2 * s.m + 1):
                        return (mpmath.sqrt(L + c0 * l**2) + l + u
                                - mpmath.sqrt(M + a2 * l**2))

                    ref = -mpmath.findroot(defining, s.lambda1) ** 2
                    assert abs((s.epsilon - ref) / ref) < 1e-11, (lo, mo, z_t, s.m)


def _mp_level(lo, mo, z_t, n):
    """50-digit lambda1 of level n: the root of the defining system
    sqrt(lambda_o**2 + c0 l**2) + l + 2n + 1 = sqrt(mu_o**2 + a2 l**2),
    bracketed by 0 and the lambda_o = 0 root."""
    with mpmath.workdps(50):
        L, M, zt = mpmath.mpf(lo) ** 2, mpmath.mpf(mo) ** 2, mpmath.mpf(z_t)
        c0, a2 = (zt / (zt - 1)) ** 2, 1 / (1 - zt) ** 2
        u = 2 * n + 1
        qa, qb, qc = (1 + mpmath.sqrt(c0)) ** 2 - a2, 2 * u * (1 + mpmath.sqrt(c0)), u * u - M
        hi = -2 * qc / (qb + mpmath.sqrt(qb * qb - 4 * qa * qc))

        def defining(l):
            return mpmath.sqrt(L + c0 * l**2) + l + u - mpmath.sqrt(M + a2 * l**2)

        return mpmath.findroot(defining, (mpmath.mpf(0), hi), solver="anderson")


def _worst_level_error(points, top_only=False):
    worst = 0.0
    for lo, mo, z_t in points:
        sols = spectrum(RayIdentifiers(lo, mo), TangentPoly(z_t))
        assert len(sols) == bound_state_count(mo, lo), (lo, mo, z_t)
        for s in sols[-1:] if top_only else sols:
            ref = _mp_level(lo, mo, z_t, s.m)
            worst = max(worst, float(abs((s.lambda1 - ref) / ref)))
    return worst


class TestSpectrumEdges:
    """Levels where the lambda1 cubic degenerates, against 50-digit roots."""

    @staticmethod
    def _z_t(rng):
        d = 10 ** rng.uniform(-3, math.log10(60))
        return (2.0, -d, 1.0 + d)[rng.integers(3)]

    def test_lambda_o_zero_just_below_threshold(self):
        # mu_o = 2n + 1 + delta: two roots of the cubic meet at 0 as delta -> 0
        rng = np.random.default_rng(9)
        points = [(0.0, 2 * n + 1 + 10 ** rng.uniform(-9, -5), self._z_t(rng))
                  for n in rng.integers(0, 30, size=60)]
        assert _worst_level_error(points, top_only=True) < 1e-14

    def test_lambda_o_positive_just_below_threshold(self):
        # delta = mu_o - lambda_o - (2n + 1) is formed to twice working precision
        rng = np.random.default_rng(10)
        points = []
        for n in rng.integers(0, 30, size=60):
            lo = 30 * rng.random()
            points.append((lo, lo + 2 * n + 1 + 10 ** rng.uniform(-9, -5), self._z_t(rng)))
        assert _worst_level_error(points, top_only=True) < 1e-14

    def test_z_t_tends_to_zero_from_below(self):
        # the cubic's leading coefficient vanishes like |z_T|
        rng = np.random.default_rng(12)
        points = [(16.79, 19.49, -1.76e-6), (0.0, 20.0, -1e-4)]
        points += [(30 * rng.random(), 80 * (1 - rng.random()), -(10 ** rng.uniform(-6, -3)))
                   for _ in range(20)]
        assert _worst_level_error(points) < 1e-12

    def test_z_t_between_one_and_two(self):
        # sqrt(a2) > 1 here, so g' < 0 is proven only at a root, where
        # g' < -1: g is positive below the level and negative above it
        rng = np.random.default_rng(13)
        # the cubic route was 3.1e-11 and 1.5e-12 off at the first two
        points = [(7.1945297464294935, 30.194600973388095, 1.011796651584371),
                  (8.52, 37.523, 1.19405)]
        points += [(30 * rng.random(), 80 * (1 - rng.random()), 1.0 + 10 ** rng.uniform(-3, 0))
                   for _ in range(20)]
        assert _worst_level_error(points) < 1e-12
        for lo, mo, z_t in points:
            tp = TangentPoly(z_t)
            s, al = tp.sqrt_c0, 1.0 / (z_t - 1.0)
            for sol in spectrum(RayIdentifiers(lo, mo), tp):
                r = sol.lambda1
                ls = np.concatenate([r * np.geomspace(1e-6, 1e3, 1000), np.geomspace(1e-9, 1e4, 1000)])
                ls = ls[np.abs(ls / r - 1.0) > 1e-9]
                A, B = np.hypot(mo, al * ls), np.hypot(lo, s * ls)
                g = (mo - lo - 2 * sol.m - 1) + (al * ls) ** 2 / (A + mo) - (s * ls) ** 2 / (B + lo) - ls
                assert np.array_equal(np.sign(g), np.sign(r - ls)), (lo, mo, z_t, sol.m)
                assert al * al * r / sol.mu - s * s * r / sol.lambda0 - 1.0 < -1.0

    def test_solver_counts_logged_at_debug(self, caplog):
        ri, tp = RayIdentifiers(0.5, 7.3), TangentPoly(-1.0)
        spectrum(ri, tp)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="drttp.spectral")
        spectrum(ri, tp)
        assert [r.name for r in caplog.records] == ["drttp.spectral"]
        assert "3 level(s)" in caplog.text
        assert "Newton steps" in caplog.text and "bisections" in caplog.text


# signs of (mu, lambda0, lambda1) of each basic kind
_PATTERNS = {Kind.C: (1, 1, 1), Kind.D: (-1, -1, -1), Kind.A: (1, 1, -1), Kind.B: (1, -1, 1)}


def _edge_draws(row, n, rng):
    """Area A_0 draws, lambda_o <= 30 and mu_o <= 80, on one z_T row."""
    out = []
    for _ in range(n):
        lo = 30 * rng.random()
        mo = lo + 1 + (79 - lo) * rng.random()
        if row == "right-edge":
            z_t = 1 + 10 ** rng.uniform(-6, -3)
        elif row == "right":
            z_t = 1 + 10 ** rng.uniform(-3, 0)
        elif row == "left-edge":
            z_t = -(10 ** rng.uniform(-6, -3))
        else:  # z_T = 2 or log-uniform out to 60 from 0 and 1
            d = 10 ** rng.uniform(-3, math.log10(60))
            z_t = (2.0, -d, 1.0 + d)[rng.integers(3)]
            if row == "threshold":
                mo = lo + 1 + 10 ** rng.uniform(-9, -5)
        out.append((lo, mo, float(z_t)))
    return out


def _mp_error(sol, lo, mo, z_t):
    """Relative error of sol.lambda1 against the 50-digit root, near it, of
    its own sign pattern of the defining system
    sigma_mu sqrt(mu_o**2 + a2 t**2) = sigma_0 sqrt(lambda_o**2 + c0 t**2)
    + sigma_1 t + 2m + 1."""
    sm, s0, s1 = _PATTERNS[sol.kind]
    assert (math.copysign(1, sol.mu), math.copysign(1, sol.lambda0),
            math.copysign(1, sol.lambda1)) == (sm, s0, s1)
    with mpmath.workdps(50):
        L, M, zt = mpmath.mpf(lo) ** 2, mpmath.mpf(mo) ** 2, mpmath.mpf(z_t)
        c0, a2 = (zt / (zt - 1)) ** 2, 1 / (1 - zt) ** 2

        def defining(t):
            return (sm * mpmath.sqrt(M + a2 * t**2) - s0 * mpmath.sqrt(L + c0 * t**2)
                    - s1 * t - (2 * sol.m + 1))

        ref = s1 * mpmath.findroot(defining, mpmath.mpf(abs(sol.lambda1)))
        return float(abs((sol.lambda1 - ref) / ref))


class TestBasicSolutions:
    """The three m = 0 solutions, each the root of its own sign pattern."""

    def test_c_is_level_zero(self):
        rng = np.random.default_rng(21)
        for row in ("ordinary", "right-edge", "left-edge", "threshold"):
            for lo, mo, z_t in _edge_draws(row, 100, rng):
                ri, tp = RayIdentifiers(lo, mo), TangentPoly(z_t)
                assert basic_solutions(ri, tp)[Kind.C] == spectrum(ri, tp)[0], (lo, mo, z_t)

    @pytest.mark.parametrize("point", [
        (26.365999810141247, 32.49631251270906, 1.0000025580355787),
        (18.314013689020246, 28.79394732046727, 1.0000013406254948),
        (29.15502672802199, 30.240980592527425, -3.879797750821005e-06),
        (16.9882740130523, 18.74021211169794, -1.3005902635678289e-06),
        (6.382641397623506, 8.82628967789683, 1.0000012407518972),
    ])
    def test_edge_draws_give_three_kinds(self, point):
        # the cubic route raised ClassificationError on the first four and
        # returned only d on the last
        lo, mo, z_t = point
        basics = basic_solutions(RayIdentifiers(lo, mo), TangentPoly(z_t))
        regular = Kind.A if z_t > 1 else Kind.B
        assert set(basics) == {regular, Kind.C, Kind.D}
        for sol in basics.values():
            assert _mp_error(sol, lo, mo, z_t) < 1e-13

    def test_edge_rows_never_raise(self):
        rng = np.random.default_rng(22)
        for row in ("right-edge", "right", "left-edge"):
            for lo, mo, z_t in _edge_draws(row, 2000, rng):
                basics = basic_solutions(RayIdentifiers(lo, mo), TangentPoly(z_t))
                assert len(basics) == 3, (lo, mo, z_t)

    @pytest.mark.parametrize("above", [1e-13, 1e-12])
    @pytest.mark.parametrize("lo, z_t", [(0.0, 2.0), (0.7, -1.0)])
    def test_just_above_the_separatrix(self, above, lo, z_t):
        # within 1e-12 of mu_o = lambda_o + 1, classify_region's band put the
        # point in Region D: spectrum() had a level and this raised
        ri, tp = RayIdentifiers(lo, (lo + 1.0) * (1.0 + above)), TangentPoly(z_t)
        basics = basic_solutions(ri, tp)
        assert len(basics) == 3 and basics[Kind.C] == spectrum(ri, tp)[0]

    def test_order_is_ascending_mu(self):
        for z_t in (2.0, -1.0, 1.001, -1e-4):
            basics = basic_solutions(RayIdentifiers(0.7, 9.0), TangentPoly(z_t))
            mus = [s.mu for s in basics.values()]
            assert mus == sorted(mus) and next(iter(basics)) is Kind.D

    def test_levels_and_basics_against_mpmath(self):
        rng = np.random.default_rng(23)
        worst = {}
        for row in ("ordinary", "right-edge", "left-edge", "threshold"):
            for lo, mo, z_t in _edge_draws(row, 25, rng):
                ri, tp = RayIdentifiers(lo, mo), TangentPoly(z_t)
                levels = spectrum(ri, tp)
                sols = [levels[0], levels[len(levels) // 2], levels[-1]]
                sols += basic_solutions(ri, tp).values()
                for sol in sols:
                    err = _mp_error(sol, lo, mo, z_t)
                    worst[row] = max(worst.get(row, 0.0), err)
        assert max(worst.values()) < 1e-13, worst

    def test_lambda_o_near_one_as_z_t_tends_to_zero(self):
        # the d and b constants 1 - lambda_o and lambda_o - 1 cancel here, and
        # their roots grow like 1/|z_T|: B is split at lambda_o, not at A's split
        rng = np.random.default_rng(24)
        for _ in range(30):
            lo = 1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -3)
            mo, z_t = lo + 1 + 20 * rng.random(), -(10 ** rng.uniform(-16, -6))
            for sol in basic_solutions(RayIdentifiers(lo, mo), TangentPoly(z_t)).values():
                assert _mp_error(sol, lo, mo, z_t) < 1e-13, (lo, mo, z_t, sol.kind)

    @pytest.mark.parametrize("z_t", [-1e-300, -1e-200, -1e-20, -1e-12, 1 + 1e-15, 1 + 1e-9])
    def test_extreme_z_t(self, z_t):
        # the cubic route raised ZeroDivisionError at the first two and
        # ClassificationError at the others; the d root, about
        # (1 - lambda_o)/(2|z_T|), squares beyond the float range at the first two
        ri, tp = RayIdentifiers(0.3, 5.0), TangentPoly(z_t)
        if -1e-100 < z_t < 0.0:
            with pytest.raises(DomainError):
                basic_solutions(ri, tp)
        else:
            basics = basic_solutions(ri, tp)
            assert len(basics) == 3 and basics[Kind.C] == spectrum(ri, tp)[0]

    def test_overflowing_root_is_a_domain_error(self):
        # AehSolution would square lambda1 = 1e160 with ** and overflow
        ri, tp = RayIdentifiers(0.3, 5.0), TangentPoly(-1.0)
        with pytest.raises(DomainError):
            make_solution(Kind.B, 0, -1.0, 1e160, ri, tp)
        with pytest.raises(DomainError):
            make_solution(Kind.B, 0, math.nan, 1.0, ri, tp)

    def test_solver_counts_logged_at_debug(self, caplog):
        ri, tp = RayIdentifiers(0.5, 7.3), TangentPoly(-1.0)
        basic_solutions(ri, tp)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="drttp.spectral")
        basic_solutions(ri, tp)
        assert [r.name for r in caplog.records] == ["drttp.spectral"]
        assert caplog.text.count("basic_solutions") == 1
        assert "Newton steps" in caplog.text and "bisections" in caplog.text


class TestAehSolutionValue:
    """A solution is a frozen value: mu and epsilon are fields derived on
    construction, and copies, replacements and pickles compare equal."""

    SOL = AehSolution(Kind.D, 2, -3.5, -1.25, merged_tail=True)

    def test_derived_fields_and_repr(self):
        sol = self.SOL
        assert (sol.mu, sol.epsilon) == (-3.5 - 1.25 + 5, -(1.25**2))
        assert [f.name for f in dataclasses.fields(sol)] == [
            "kind", "m", "lambda0", "lambda1", "mu", "epsilon", "merged_tail"]
        assert repr(sol) == ("AehSolution(kind=<Kind.D: 'd'>, m=2, lambda0=-3.5, lambda1=-1.25, "
                             "mu=0.25, epsilon=-1.5625, merged_tail=True)")
        assert sol.label == "d''"

    def test_frozen(self):
        for name, value in (("lambda1", 0.0), ("mu", 1.0), ("extra", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(self.SOL, name, value)
        assert self.SOL.lambda1 == -1.25

    def test_equality_and_hash(self):
        same = AehSolution(kind=Kind.D, m=2, lambda0=-3.5, lambda1=-1.25, merged_tail=True)
        assert same == self.SOL and hash(same) == hash(self.SOL)
        assert AehSolution(Kind.D, 2, -3.5, -1.25) != self.SOL
        assert AehSolution(Kind.D, 2, -3.5, -1.25).merged_tail is False

    def test_replace_copy_pickle(self):
        moved = dataclasses.replace(self.SOL, m=3)
        assert (moved.m, moved.mu, moved.merged_tail) == (3, 2.25, True)
        with pytest.raises(ValueError):
            dataclasses.replace(self.SOL, mu=0.0)
        for other in (copy.copy(self.SOL), copy.deepcopy(self.SOL),
                      pickle.loads(pickle.dumps(self.SOL))):
            assert other == self.SOL and hash(other) == hash(self.SOL)
            assert repr(other) == repr(self.SOL) and vars(other) == vars(self.SOL)
