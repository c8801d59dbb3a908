"""Darboux partners, Heun operators and polynomial solutions."""

import math

import mpmath
import numpy as np
import pytest

from drttp import susy, verify
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import (
    AvailabilityError,
    DomainError,
    GaugeError,
    PairRejectedError,
)
from drttp.spectral import AehSolution, Kind, basic_solutions

TP2 = TangentPoly(2.0)
WL5 = RayIdentifiers(0.0, 5.0)


@pytest.fixture(scope="module")
def basics():
    return basic_solutions(WL5, TP2)


class TestBasicFf:
    def test_symmetric_point(self):
        sol = AehSolution(Kind.C, 0, 0.0, 0.0)
        assert susy.basic_ff_eval(0.5, sol) == pytest.approx(0.5)

    def test_vanishes_at_origin_for_regular(self, basics):
        assert susy.basic_ff_eval(1e-12, basics[Kind.C]) == pytest.approx(0.0, abs=1e-6)

    def test_log_derivative(self, basics):
        ff = basics[Kind.C]
        z0, h = 0.3, 1e-6
        fd = (
            math.log(susy.basic_ff_eval(z0 + h, ff))
            - math.log(susy.basic_ff_eval(z0 - h, ff))
        ) / (2 * h)
        want = (ff.lambda0 + 1) / (2 * z0) - (ff.lambda1 + 1) / (2 * (1 - z0))
        assert fd == pytest.approx(want, rel=1e-8)

    def test_requires_basic(self):
        sol = AehSolution(Kind.C, 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            susy.basic_ff_eval(0.5, sol)


class TestSinglePartner:
    def test_correction_vanishes_at_one(self, basics):
        for ff in basics.values():
            assert susy.single_partner_correction_z(1.0, ff, TP2) == 0.0

    def test_darboux_identity(self):
        for r in verify.check_darboux():
            assert r.passed, r.line()

    def test_x_gauge_matches_z_gauge_scaling(self, basics):
        from drttp.core import map_x_to_z, potential_eval_x

        ff = basics[Kind.C]
        x0 = 0.7
        z0 = map_x_to_z(x0, TP2)
        want = potential_eval_x(x0, WL5, TP2) + (
            (1 - TP2.z_T) ** 2 * susy.single_partner_correction_z(z0, ff, TP2)
        )
        assert susy.single_partner_eval_x(x0, ff, WL5, TP2) == pytest.approx(want)


class TestPairs:
    def test_outer_roots(self, basics):
        z_ca = susy.outer_root_ztt(basics[Kind.C], basics[Kind.A])
        z_cd = susy.outer_root_ztt(basics[Kind.C], basics[Kind.D])
        assert not 0.0 <= z_ca <= 1.0
        assert 0.0 < z_cd < 1.0        # the (d, c) pair root sits inside
        # the two equivalent expressions for the pair root agree
        t, tq = basics[Kind.C], basics[Kind.A]
        alt = 1.0 - (tq.lambda1 - t.lambda1) / (tq.mu - t.mu)
        assert z_ca == pytest.approx(alt, abs=1e-12)

    def test_degenerate_pair_rejected(self, basics):
        with pytest.raises(DomainError):
            susy.outer_root_ztt(basics[Kind.C], basics[Kind.C])

    def test_double_ff_zero_at_pair_root(self, basics):
        t, tq = basics[Kind.C], basics[Kind.A]
        ztt = susy.outer_root_ztt(t, tq)
        # explicit zero of the first-order factor, evaluated just inside
        zs = np.linspace(0.05, 0.95, 11)
        vals = susy.double_step_ff_eval(zs, t, tq, TP2)
        assert np.all(vals != 0.0)
        if 0 < ztt < 1:
            assert susy.double_step_ff_eval(ztt, t, tq, TP2) == pytest.approx(0.0)

    def test_admissibility_gate(self, basics):
        spec = susy.double_partner_spec(basics[Kind.C], basics[Kind.A], TP2)
        assert spec.steps == 2 and not 0 <= spec.outer_pole <= 1
        spec_d = susy.double_partner_spec(basics[Kind.D], basics[Kind.A], TP2)
        assert spec_d.expected_spectral_delta == frozenset(
            [basics[Kind.D].epsilon, basics[Kind.A].epsilon]
        )
        with pytest.raises(PairRejectedError):
            susy.double_partner_spec(basics[Kind.C], basics[Kind.D], TP2)

    def test_double_partner_finite_on_interval(self, basics):
        t, tq = basics[Kind.C], basics[Kind.A]
        zs = np.linspace(1e-3, 1 - 1e-3, 2001)
        vals = susy.double_partner_eval(zs, t, tq, WL5, TP2)
        assert np.all(np.isfinite(vals))

    def test_delta_o1_forms_agree(self, basics):
        t, tq = basics[Kind.D], basics[Kind.A]
        ztt = susy.outer_root_ztt(t, tq)
        zs = np.linspace(0.1, 0.9, 100)
        sym = susy._delta_o1_double(zs, t, tq, ztt)
        one = 4.0 * (2 * zs - (tq.mu - 1) * ztt + tq.lambda0 - 1)
        other = 4.0 * (2 * zs - (t.mu - 1) * ztt + t.lambda0 - 1)
        assert np.max(np.abs(sym - one)) < 1e-12
        assert np.max(np.abs(sym - other)) < 1e-12


class TestHeun:
    def test_gauges(self):
        assert (1, -1, -1) in susy.admissible_gauges(TP2)
        assert (-1, 1, -1) in susy.admissible_gauges(TangentPoly(-1.0))
        with pytest.raises(GaugeError):
            susy.heun_operator(
                -1.0, susy.single_partner_spec(
                    basic_solutions(WL5, TP2)[Kind.C], TP2),
                (-1, 1, -1), WL5, TP2,
            )

    def test_positive_energy_rejected(self, basics):
        spec = susy.single_partner_spec(basics[Kind.C], TP2)
        with pytest.raises(DomainError):
            susy.heun_operator(0.5, spec, (1, 1, -1), WL5, TP2)

    def test_exponents_against_mpmath(self):
        # deep below threshold alpha and beta are two large numbers that
        # differ by little; the expanded discriminant keeps every digit
        ri = RayIdentifiers(0.03235359799466311, 1.0505114359486323)
        tp = TangentPoly(50.0)
        eps = -8767.566124916833
        spec = susy.single_partner_spec(basic_solutions(ri, tp)[Kind.C], tp)
        op = susy.heun_operator(eps, spec, (-1, -1, -1), ri, tp)
        with mpmath.workdps(50):
            lo, mo, zt, e = (mpmath.mpf(v) for v in
                             (ri.lambda_o, ri.mu_o, tp.z_T, eps))
            sqrt_c0 = zt / (zt - 1)
            rho0 = (1 - mpmath.sqrt(lo**2 - sqrt_c0**2 * e)) / 2
            rho1 = (1 - mpmath.sqrt(-e)) / 2
            kappa = (mo**2 - lo**2 + 1) / 4 + sqrt_c0 * e / 2
            ab_sum = 2 * (rho0 + rho1) - 3
            ab_prod = 2 * (rho0 - 1) * (rho1 - 1) - kappa
            root = mpmath.sqrt(ab_sum**2 - 4 * ab_prod)
            assert abs(op.alpha - (ab_sum - root) / 2) <= 1e-14
            assert abs(op.beta - (ab_sum + root) / 2) <= 1e-14

    def test_exponents_and_fuchs(self, basics):
        spec = susy.single_partner_spec(basics[Kind.C], TP2)
        seed = basics[Kind.A]
        op = susy.heun_operator(seed.epsilon, spec,
                                susy.gauge_for_solution(seed), WL5, TP2)
        assert op.rho0 == pytest.approx((seed.lambda0 + 1) / 2)
        assert op.rho1 == pytest.approx((seed.lambda1 + 1) / 2)
        assert op.alpha + op.beta == pytest.approx(2 * (op.rho0 + op.rho1) - 3.0)
        assert op.singular_points[2] == TP2.z_T

    def test_degree_one_annihilation(self, basics):
        t, seed = basics[Kind.C], basics[Kind.A]
        spec = susy.single_partner_spec(t, TP2)
        op = susy.heun_operator(seed.epsilon, spec,
                                susy.gauge_for_solution(seed), WL5, TP2)
        ztt = susy.outer_root_ztt(t, seed)
        for z in (0.2, 0.5, 0.8):
            assert op.apply(z - ztt, 1.0, 0.0, z) == pytest.approx(0.0, abs=1e-10)

    def test_poly_construct_degree_one(self, basics):
        t = basics[Kind.C]
        seed = basics[Kind.A]
        poly = susy.heun_poly_construct(t, seed, TP2)
        assert poly.degree == 1
        ztt = susy.outer_root_ztt(t, seed)
        # proportional to z - z_tt'
        root = -poly.coeffs[0] / poly.coeffs[1]
        assert root == pytest.approx(ztt, rel=1e-12)

    def test_poly_residuals(self):
        for r in verify.check_heun(m_max=3):
            assert r.passed, r.line()

    def test_lambe_ward_reduces_to_polynomial(self, basics):
        t = basics[Kind.A]
        seed = basics[Kind.C]   # both exponent differences positive
        sigma = (1, 1, -1)
        poly = susy.heun_poly_construct(t, seed, TP2)
        for z in (0.3, 0.6):
            assert susy.lambe_ward_eval(z, t, seed, sigma, TP2) == pytest.approx(
                poly(z)
            )


class TestAppendixIdentities:
    def test_b2_factorization(self, basics):
        res = susy.b2_factor_check(Kind.C, Kind.A, Kind.D, WL5, TP2)
        assert res["factor_residual"] < 1e-10
        assert res["zero_residual"] < 1e-12
        assert res["mu_lambda_residual"] < 1e-10

    def test_missing_kind(self):
        ri = RayIdentifiers(3.0, 1.0)   # no discrete spectrum here
        with pytest.raises(AvailabilityError):
            susy.b2_factor_check(Kind.C, Kind.A, Kind.D, ri, TP2)


class TestNodelessPredicate:
    def test_regular_ff_matches_census_logic(self):
        # seed below the base ground level iff inside the primary bound
        from drttp.spectral import nodeless_census

        for mu_o in (5.0, 7.4, 9.2):
            census = nodeless_census(RayIdentifiers(0.0, mu_o), TP2)
            n0 = math.ceil((mu_o - 1) / 2)
            for m in range(1, n0):
                want = census.primary_nodeless(m)
                got = susy.nodeless_predicate(Kind.A, m, mu_o, TP2, "primary")
                assert got == want

    def test_c_partner_at_m0(self):
        assert susy.nodeless_predicate(Kind.C, 0, 5.0, TP2, "primary")

    def test_d_pair_threshold(self):
        # the m = 0 (d0, regular-basic) pair turns admissible where the
        # linear-branch and lower quadratic-branch energies cross,
        # mu**2 = 2 max(s, 1/s) - 1
        s = TP2.sqrt_c0
        thr = math.sqrt(2.0 * max(s, 1.0 / s) - 1.0)
        assert 1.0 < thr < 2.0
        assert susy.nodeless_predicate(Kind.D, 0, thr + 0.05, TP2, "primary")
        assert not susy.nodeless_predicate(Kind.D, 0, max(1.01, thr - 0.05),
                                           TP2, "primary")

    def test_large_m_secondary_tail(self):
        vals = [susy.nodeless_predicate(Kind.D, m, 5.0, TP2, "secondary")
                for m in range(3, 40)]
        assert all(vals[20:])

    def test_guards(self):
        with pytest.raises(AvailabilityError):
            susy.nodeless_predicate(Kind.A, 0, 5.0, TP2, "primary")
        with pytest.raises(AvailabilityError):
            susy.nodeless_predicate(Kind.C, 1, 2.5, TP2, "primary")


class TestStructureConstants:
    def test_values(self):
        sc = susy.structure_constants(WL5, TP2)
        assert sc.o00 == pytest.approx(26.0)
        assert sc.d == pytest.approx(-4.0, abs=1e-10)
        assert susy.StructureConstants.c00(2.0, 3.0) - susy.StructureConstants.c00(
            -2.0, -3.0
        ) == pytest.approx(5.0)

    def test_d_matches_closed_form_other_branch(self):
        tp = TangentPoly(-1.0)
        sc = susy.structure_constants(RayIdentifiers(0.3, 4.0), tp)
        assert sc.d == pytest.approx(tp.a2 - tp.c0 - 1.0, abs=1e-10)

    def test_vanishing_combination_on_basics(self, basics):
        sc = susy.structure_constants(WL5, TP2)
        for sol in basics.values():
            c0val = 0.25 * (sc.d * sol.epsilon - sc.o00) + sc.c00(
                sol.lambda0, sol.lambda1
            )
            assert c0val == pytest.approx(0.0, abs=1e-10)
