"""Darboux partners, Heun operators and polynomial solutions."""

import dataclasses
import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from drttp import susy, verify
from drttp.core import RayIdentifiers, TangentPoly, potential_eval_z
from drttp.errors import (
    AvailabilityError,
    ConvergenceError,
    DomainError,
    DrttpError,
    GaugeError,
    PairRejectedError,
)
from drttp.spectral import AehSolution, Kind, basic_solutions, spectrum
from drttp.wavefunction import aeh_eval

TP2 = TangentPoly(2.0)
WL5 = RayIdentifiers(0.0, 5.0)


def _mp_heun_jet(t0, seed, zs):
    """(y, y', y'') of heun_poly_construct's polynomial at zs in 60-digit
    mpmath: the two-term combination of hyp2f1, differentiated by
    d/dz F(a, b; c; z) = (a b / c) F(a + 1, b + 1; c + 1; z)."""
    with mpmath.workdps(60):
        m = seed.m
        l0, l1 = mpmath.mpf(seed.lambda0), mpmath.mpf(seed.lambda1)
        a, c = l0 + l1 + m + 1, l0 + 1
        b_const = c / 2 * (l0 - mpmath.mpf(t0.lambda0))
        b_lin = b_const + c / 2 * (l1 - mpmath.mpf(t0.lambda1))

        def F(n, a, c, z, k):
            if k > n:
                return mpmath.mpf(0)
            return (mpmath.rf(-n, k) * mpmath.rf(a, k) / mpmath.rf(c, k)
                    * mpmath.hyp2f1(k - n, a + k, c + k, z))

        out = []
        for z in map(mpmath.mpf, zs):
            f0 = [F(m, a, c, z, k) for k in range(3)]
            f1 = [F(m - 1, a + 1, c + 1, z, k) if m else 0 for k in range(3)]
            g, dg = z * (1 - z), 1 - 2 * z
            h = b_lin * z - b_const
            out.append([float(v) for v in (
                m * a * g * f1[0] + h * f0[0],
                m * a * (dg * f1[0] + g * f1[1]) + b_lin * f0[0] + h * f0[1],
                m * a * (-2 * f1[0] + 2 * dg * f1[1] + g * f1[2]) + 2 * b_lin * f0[1] + h * f0[2],
            )])
    return np.array(out)


@pytest.fixture(scope="module")
def basics():
    return basic_solutions(WL5, TP2)


class TestBasicFf:
    """A basic FF is the m = 0 solution of ``aeh_eval``, the bare prefactor
    sqrt(z(1-z)) z^(l0/2) (1-z)^(l1/2)."""

    def test_symmetric_point(self):
        sol = AehSolution(Kind.C, 0, 0.0, 0.0)
        assert aeh_eval(0.5, 0.5, sol) == pytest.approx(0.5)

    def test_vanishes_at_origin_for_regular(self, basics):
        assert aeh_eval(1e-12, 1.0 - 1e-12, basics[Kind.C]) == pytest.approx(0.0, abs=1e-6)

    def test_log_derivative(self, basics):
        ff = basics[Kind.C]
        z0, h = 0.3, 1e-6
        fd = (
            math.log(aeh_eval(z0 + h, 1 - (z0 + h), ff))
            - math.log(aeh_eval(z0 - h, 1 - (z0 - h), ff))
        ) / (2 * h)
        want = (ff.lambda0 + 1) / (2 * z0) - (ff.lambda1 + 1) / (2 * (1 - z0))
        assert fd == pytest.approx(want, rel=1e-8)

    def test_log_space_against_mpmath(self):
        # lambda0' = 1627 and lambda1' = -737: z**(l0'/2) underflows at
        # z = 0.38188 and (1-z)**(l1'/2) overflows at z = 0.86, while both
        # FFs are representable; a RuntimeWarning would fail the test
        tp = TangentPoly(1.8276)
        basics = basic_solutions(RayIdentifiers(12.906, 43.271), tp)
        t, tq = basics[Kind.C], basics[Kind.A]
        with mpmath.workdps(50):
            zt, mu, mq, l0, lq, l1q = (mpmath.mpf(v) for v in (
                tp.z_T, t.mu, tq.mu, t.lambda0, tq.lambda0, tq.lambda1))
            ztt = (lq - l0) / (mq - mu)
            for z in (0.38188, 0.86):
                zm = mpmath.mpf(z)
                ff = mpmath.sqrt(zm * (1 - zm)) * zm ** (lq / 2) * (1 - zm) ** (l1q / 2)
                double = (mq - mu) * ff * (zm - ztt) / (zm - zt)
                assert aeh_eval(z, 1 - z, tq) == pytest.approx(float(ff), rel=1e-12)
                assert susy.double_step_ff_eval(z, 1 - z, t, tq, tp) == pytest.approx(
                    float(double), rel=1e-12)


class TestSinglePartner:
    def test_correction_vanishes_at_one(self, basics):
        for ff in basics.values():
            spec = susy.single_partner_spec(ff, TP2)
            assert susy.partner_correction_z(1.0, 0.0, spec, TP2) == 0.0

    def test_darboux_identity(self):
        for r in verify.check_darboux():
            assert r.passed, r.line()

    def test_darboux_gap_detects_shifted_delta0(self, basics):
        # delta0 off by 1e-9 breaks the 1e-12 gate, one step and two
        class Shifted(susy.PartnerSpec):
            @property
            def delta0(self):
                return super().delta0 + 1e-9

        xs = np.linspace(-2.0, 2.5, 9)
        specs = [susy.single_partner_spec(ff, TP2) for ff in basics.values()]
        specs.append(susy.double_partner_spec(basics[Kind.C], basics[Kind.A], TP2))
        for spec in specs:
            assert verify._darboux_gap(spec, TP2, xs) <= 1e-12
            bad = Shifted(spec.ff_kinds, spec.outer_pole)
            assert verify._darboux_gap(bad, TP2, xs) > 1e-12

    def test_x_gauge_matches_z_gauge_scaling(self, basics):
        from drttp.core import map_x_to_z_pair, potential_eval_x

        spec = susy.single_partner_spec(basics[Kind.C], TP2)
        x0 = 0.7
        z0, omz0 = map_x_to_z_pair(x0, TP2)
        want = potential_eval_x(x0, WL5, TP2) + (
            (1 - TP2.z_T) ** 2 * susy.partner_correction_z(z0, omz0, spec, TP2)
        )
        assert susy.partner_potential_x(spec, WL5, TP2)(x0) == pytest.approx(want)


class TestPartnerCorrection:
    @staticmethod
    def _paper_forms(zs, spec, tp):
        """The paper's separate one-step and two-step corrections at the
        spec's double inputs, evaluated in the current mpmath precision."""
        zt, zo = mpmath.mpf(tp.z_T), mpmath.mpf(spec.outer_pole)
        if spec.steps == 1:
            mu, l0 = (mpmath.mpf(v) for v in (spec.ff_kinds[0].mu,
                                               spec.ff_kinds[0].lambda0))
            c = 4 * (-(mu - 1) * zt + l0 - 1)          # Delta O1 = 8 z + c
        else:
            t, tq = spec.ff_kinds
            mu, mq, l0, lq = (mpmath.mpf(v) for v in
                              (t.mu, tq.mu, t.lambda0, tq.lambda0))
            c = 2 * (-(mu + mq - 2) * zo + l0 + lq - 2)
        out = []
        for z in map(mpmath.mpf, zs):
            zz, P, Q = z * (z - 1), z - zt, z - zo
            if spec.steps == 1:
                out.append(8 * zz**2 / P**4 - zz * (8 * z + c) / P**3)
            else:
                out.append(8 * zz**2 / (P**2 * Q**2) - zz * (8 * z + c) / (P**2 * Q))
        return np.array([float(v) for v in out])

    def test_against_mpmath_paper_forms(self):
        # every basic FF and every admitted pair over the whole domain; the
        # error is taken relative to the largest value on the z column.
        # Gates: the worst errors of the separate one-step (1.9e-11) and
        # two-step (8.5e-14) forms on these draws, rounded up to a power
        # of ten; the one-step error is the rounding of delta0 at large mu
        # and |z_T|, common to both forms
        zs = np.concatenate([np.geomspace(1e-6, 0.5, 12),
                             1.0 - np.geomspace(0.5, 1e-6, 12)[1:]])
        rng = np.random.default_rng(2015)
        worst = {1: 0.0, 2: 0.0}
        counts = {1: 0, 2: 0}
        with mpmath.workdps(60):
            for _ in range(400):
                lo, mo = rng.uniform(0.0, 30.0), rng.uniform(1e-3, 80.0)
                side = rng.integers(3)
                dist = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
                zt = (2.0, -dist, 1.0 + dist)[side]
                if mo <= lo + 1.0:
                    continue
                tp = TangentPoly(zt)
                basics = basic_solutions(RayIdentifiers(lo, mo), tp)
                specs = [susy.single_partner_spec(ff, tp) for ff in basics.values()]
                for t, tq in itertools.combinations(basics.values(), 2):
                    try:
                        specs.append(susy.double_partner_spec(t, tq, tp))
                    except PairRejectedError:
                        pass
                for spec in specs:
                    exact = self._paper_forms(zs, spec, tp)
                    got = susy.partner_correction_z(zs, 1 - zs, spec, tp)
                    err = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
                    worst[spec.steps] = max(worst[spec.steps], float(err))
                    counts[spec.steps] += 1
        assert counts[1] > 900 and counts[2] > 600
        assert worst[1] <= 1e-10, worst
        assert worst[2] <= 1e-13, worst

    def test_delta0_against_mpmath(self):
        # delta0 = z - 1 + mean(lambda0 - mu z) over the FFs cancels to O(1)
        # from terms of size mu |z|; at (0.5743, 74.927, -55.277), FF b0
        # (mu = 2 808, lambda0 = -155 137), plain rounding was 1.4e-11 off
        rng = np.random.default_rng(60)
        points = [(0.5743, 74.927, -55.277)]
        for _ in range(40):
            dist = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
            points.append((rng.uniform(0.0, 30.0), rng.uniform(31.0, 80.0),
                           (2.0, -dist, 1.0 + dist)[rng.integers(3)]))
        worst = 0.0
        with mpmath.workdps(60):
            for lo, mo, zt in points:
                tp = TangentPoly(zt)
                basics = basic_solutions(RayIdentifiers(lo, mo), tp)
                specs = [susy.single_partner_spec(ff, tp) for ff in basics.values()]
                for t, tq in itertools.combinations(basics.values(), 2):
                    try:
                        specs.append(susy.double_partner_spec(t, tq, tp))
                    except PairRejectedError:
                        pass
                for spec in specs:
                    z = mpmath.mpf(spec.outer_pole)
                    exact = z - 1 + sum(mpmath.mpf(ff.lambda0) - mpmath.mpf(ff.mu) * z
                                        for ff in spec.ff_kinds) / spec.steps
                    worst = max(worst, float(abs(spec.delta0 - exact) / abs(exact)))
        assert worst <= 4 * np.finfo(float).eps, worst


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
        vals = susy.double_step_ff_eval(zs, 1 - zs, t, tq, TP2)
        assert np.all(vals != 0.0)
        if 0 < ztt < 1:
            assert susy.double_step_ff_eval(ztt, 1 - ztt, t, tq, TP2) == pytest.approx(0.0)

    def test_admissibility_gate(self, basics):
        spec = susy.double_partner_spec(basics[Kind.C], basics[Kind.A], TP2)
        assert spec.steps == 2 and not 0 <= spec.outer_pole <= 1
        spec_d = susy.double_partner_spec(basics[Kind.D], basics[Kind.A], TP2)
        assert spec_d.expected_spectral_delta == frozenset(
            [basics[Kind.D].epsilon, basics[Kind.A].epsilon]
        )
        with pytest.raises(PairRejectedError):
            susy.double_partner_spec(basics[Kind.C], basics[Kind.D], TP2)

    def test_spec_holds_only_its_ffs_and_pole(self, basics):
        # steps and the spectral delta are read off the FFs, never stored
        assert [f.name for f in dataclasses.fields(susy.PartnerSpec)] == ["ff_kinds",
                                                                          "outer_pole"]
        c, a = basics[Kind.C], basics[Kind.A]
        for ffs in ((c,), (c, a)):
            spec = susy.PartnerSpec(ffs, TP2.z_T)
            assert spec.steps == len(ffs)
            assert spec.expected_spectral_delta == frozenset(ff.epsilon for ff in ffs)

    def test_admitted_pair_ff_keeps_its_sign(self):
        # on (0, 1) the first-order FF is (mu' - mu) sqrt(z(1-z))
        # z^(l0'/2) (1-z)^(l1'/2) (z - z_tt')/(z - z_T); evaluated in log
        # space, where the powers cannot overflow, no admitted pair changes
        # sign, which is why the gate needs no scan
        rng = np.random.default_rng(2015)
        zs = np.concatenate([np.geomspace(1e-12, 0.5, 2000),
                             1.0 - np.geomspace(0.5, 1e-12, 2000)[1:]])
        admitted = 0
        for _ in range(300):
            lo, mo = rng.uniform(0.0, 30.0), rng.uniform(1e-3, 80.0)
            side = rng.integers(3)
            dist = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
            zt = (2.0, -dist, 1.0 + dist)[side]
            if mo <= lo + 1.0:
                continue
            tp = TangentPoly(zt)
            basics = basic_solutions(RayIdentifiers(lo, mo), tp)
            t0 = basics[Kind.A if tp.c0 > 1.0 else Kind.B]
            for t, tq in ((basics[Kind.C], t0), (basics[Kind.D], t0),
                          (t0, basics[Kind.C]), (t0, basics[Kind.D])):
                try:
                    ztt = susy.double_partner_spec(t, tq, tp).outer_pole
                except PairRejectedError:
                    continue
                admitted += 1
                dmu = tq.mu - t.mu
                sign = np.sign(dmu) * np.sign(zs - ztt) * np.sign(zs - tp.z_T)
                log_z = 0.5 * (1.0 + tq.lambda0) * np.log(zs)
                log_1mz = 0.5 * (1.0 + tq.lambda1) * np.log1p(-zs)
                log_abs = (math.log(abs(dmu)) + log_z + log_1mz
                           + np.log(np.abs(zs - ztt)) - np.log(np.abs(zs - tp.z_T)))
                assert np.all(np.isfinite(log_abs))
                assert np.all(sign == sign[0]) and sign[0] != 0
                # the log form is the FF wherever the direct value and its
                # power factors are far from overflow and from subnormals
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    direct = susy.double_step_ff_eval(zs, 1 - zs, t, tq, tp)
                ok = np.max(np.abs([log_z, log_1mz, log_abs]), axis=0) < 600.0
                assert np.all(np.sign(direct[ok]) == sign[ok])
                np.testing.assert_allclose(np.log(np.abs(direct[ok])), log_abs[ok],
                                           rtol=1e-12, atol=1e-9)
        assert admitted >= 100

    def test_double_partner_finite_on_interval(self, basics):
        spec = susy.double_partner_spec(basics[Kind.C], basics[Kind.A], TP2)
        zs = np.linspace(1e-3, 1 - 1e-3, 2001)
        vals = (potential_eval_z(zs, 1 - zs, WL5, TP2)
                + susy.partner_correction_z(zs, 1 - zs, spec, TP2))
        assert np.all(np.isfinite(vals))

    def test_delta_o1_forms_agree(self, basics):
        t, tq = basics[Kind.D], basics[Kind.A]
        spec = susy.double_partner_spec(t, tq, TP2)
        ztt = spec.outer_pole
        zs = np.linspace(0.1, 0.9, 100)
        sym = 4.0 * (2 * zs + spec.delta0)
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
        assert op.p == TP2.z_T

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
        # proportional to z - z_tt': b0 (1 - z) + b1 z vanishes at b0 / (b0 - b1)
        b0, b1 = poly.coeffs
        assert b0 / (b0 - b1) == pytest.approx(ztt, rel=1e-12)

    def test_poly_root_count_whole_domain(self):
        # seeded Area A_0 draws over lambda_o <= 30, mu_o <= 80 and z_T = 2 or
        # 1e-3..60 (log-uniform) beyond either singular point; each basic FF
        # against the top and the middle level n.  The reference is the
        # oscillation theorem on the partner: y is the polynomial part of
        # A psi_n, which has n nodes for a regular (a or b) FF, n - 1 for c0,
        # whose level the partner loses, and n + 1 for d0, whose level it
        # gains below the ground.  A c FF against level 0 has no reference.
        # np.roots on monomial coefficients was wrong on 155 of these 600
        rng = np.random.default_rng(17)
        polys = checked = 0
        while polys < 600:
            lo, mo, d = rng.uniform(0.0, 30.0), rng.uniform(0.0, 80.0), 10 ** rng.uniform(-3, 1.78)
            tp = TangentPoly((2.0, -d, 1.0 + d)[rng.integers(3)])
            ri = RayIdentifiers(lo, mo)
            if mo <= lo + 1.0:
                continue
            try:
                sols = spectrum(ri, tp)
                basics = basic_solutions(ri, tp)
            except DrttpError:
                continue
            for n in (len(sols) - 1, (len(sols) - 1) // 2):
                for ff in basics.values():
                    poly = susy.heun_poly_construct(ff, sols[n], tp)
                    polys += 1
                    if ff.kind is Kind.C and n == 0:
                        continue
                    want = {Kind.C: n - 1, Kind.D: n + 1}.get(ff.kind, n)
                    assert poly.roots_in_01 == want, (lo, mo, tp.z_T, ff.kind, n)
                    checked += 1
        assert checked >= 590

    def test_poly_root_count_degree_11(self):
        # a seed-17 draw of test_poly_root_count_whole_domain: FF d0 against
        # level 10, 11 nodes; np.roots on monomial coefficients read 6
        ri = RayIdentifiers(17.613951083403833, 59.603629145527876)
        tp = TangentPoly(1.0017163530304605)
        poly = susy.heun_poly_construct(basic_solutions(ri, tp)[Kind.D], spectrum(ri, tp)[10], tp)
        assert poly.degree == 11
        assert poly.roots_in_01 == 11

    def test_poly_root_count_exact_or_raises(self):
        # Bernstein coefficients of (z - 1/4)(z - 1/2)(z - 3/4): the middle
        # root sits on the first split point
        cubic = susy.HeunPolynomial((-3 / 32, 13 / 96, -13 / 96, 3 / 32), 3, False)
        with pytest.raises(ConvergenceError):
            cubic.roots_in_01
        # (z - 1/3)**2: no subdivision separates a double root
        with pytest.raises(ConvergenceError):
            susy.HeunPolynomial((1 / 9, -2 / 9, 4 / 9), 2, False).roots_in_01
        with pytest.raises(ConvergenceError):
            susy.HeunPolynomial((1.0, math.nan, -1.0, 1.0), 3, False).roots_in_01

    def test_poly_degenerate_degree(self, basics):
        # the zero polynomial: an FF against itself
        t = basics[Kind.C]
        zero = susy.heun_poly_construct(t, t, TP2)
        assert zero.degree_degenerate and zero.degree == -1 and zero.roots_in_01 == 0
        # a seed with the FF's mu: the z**2 coefficient vanishes
        seed = AehSolution(Kind.A, 1, 1.5, t.mu - 4.5)
        poly = susy.heun_poly_construct(t, seed, TP2)
        assert poly.degree_degenerate and poly.degree == 1

    def test_poly_against_mpmath(self):
        # value, P' and P'' against the same y in 60-digit mpmath, y =
        # m'(mu - m') z (1 - z) F1 + (b_lin z - b_const) F0 from hyp2f1, at the
        # top levels of two deep wells (degrees 39 and 30) and of the
        # degree-21 point of test_poly_root_count_degree_11, each basic FF.
        # Gate: the float parameters fix y only to about n 2**-52 times the
        # Bernstein condition number max sum |b_s| B_s(z) / max |y| (Farouki &
        # Rajan 1987), 4e10 at degree 39 and 1.5 at degree 21; the errors
        # stay below 0.2 of that.  The monomial path was off by 6e11 relative
        # at degree 39
        zs = np.linspace(0.01, 0.99, 25)
        for lo, mo, zt in ((0.3, 79.0, 2.0), (0.3, 60.0, 2.0),
                           (17.613951083403833, 59.603629145527876, 1.0017163530304605)):
            ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
            seed = spectrum(ri, tp)[-1]
            for t0 in basic_solutions(ri, tp).values():
                poly = susy.heun_poly_construct(t0, seed, tp)
                want = _mp_heun_jet(t0, seed, zs)
                got = np.array([poly.jet(z, 1 - z) for z in zs])
                bound = susy.HeunPolynomial(tuple(map(abs, poly.coeffs)), poly.degree, False)
                cond = np.max(bound.jet(zs, 1 - zs)[0]) / np.max(np.abs(want[:, 0]))
                err = np.max(np.abs(got - want), axis=0) / np.max(np.abs(want), axis=0)
                assert np.all(err <= poly.degree * 2.0**-52 * cond), (lo, mo, t0.kind, err, cond)

    def test_poly_roots_counted_on_first_read_only(self, basics, monkeypatch):
        calls = []

        count = susy._count_roots

        def spy(coeffs, bounds, depth=0):
            calls.append(tuple(coeffs))
            return count(coeffs, bounds, depth)

        monkeypatch.setattr(susy, "_count_roots", spy)
        poly = susy.heun_poly_construct(basics[Kind.C], basics[Kind.A], TP2)
        assert calls == []
        assert [poly.roots_in_01 for _ in range(3)] == [0, 0, 0]
        assert calls == [poly.coeffs]
        assert [f.name for f in dataclasses.fields(poly)] == [
            "coeffs", "degree", "degree_degenerate"]
        again = susy.heun_poly_construct(basics[Kind.C], basics[Kind.A], TP2)
        assert again == poly and hash(again) == hash(poly)

    def test_poly_fields_are_plain_python(self, basics):
        # numpy.bool and numpy.float64 fields made asdict() unserializable
        # and printed np.float64(...) in the repr
        ri, left = RayIdentifiers(0.5, 30.3), TangentPoly(-1.5)
        for t0, seed, tp in ((basics[Kind.C], basics[Kind.A], TP2),
                             (basic_solutions(ri, left)[Kind.B], spectrum(ri, left)[-1], left)):
            poly = susy.heun_poly_construct(t0, seed, tp)
            assert type(poly.degree_degenerate) is bool and type(poly.degree) is int
            assert all(type(c) is float for c in poly.coeffs)
            assert "np." not in repr(poly)
            doc = json.loads(json.dumps(dataclasses.asdict(poly)))
            assert doc == {"coeffs": list(poly.coeffs), "degree": poly.degree,
                           "degree_degenerate": poly.degree_degenerate}
            boxed = susy.HeunPolynomial(tuple(np.float64(c) for c in poly.coeffs), poly.degree,
                                        np.bool_(poly.degree_degenerate))
            assert boxed == poly and hash(boxed) == hash(poly)

    def test_poly_residuals(self):
        for r in verify.check_heun():
            assert r.passed, r.line()


class TestAppendixIdentities:
    def test_b2_factorization(self, basics):
        factor, zero, mu_lambda = verify._b2_factor_check(
            basics[Kind.C], basics[Kind.A], basics[Kind.D], TP2, seed=0)
        assert factor < 1e-10
        assert zero < 1e-12
        assert mu_lambda < 1e-10

    def test_missing_kind(self):
        ri = RayIdentifiers(3.0, 1.0)   # no discrete spectrum here
        with pytest.raises(AvailabilityError):
            verify._b2_factor_check(*basic_solutions(ri, TP2).values(), TP2, seed=0)


class TestNodelessPredicate:
    def test_regular_ff_matches_census_logic(self):
        # seed below the base ground level iff inside the primary bound
        from drttp.spectral import nodeless_census

        for mu_o in (5.0, 7.4, 9.2):
            census = nodeless_census(RayIdentifiers(0.0, mu_o), TP2)
            n0 = math.ceil((mu_o - 1) / 2)
            for m in range(1, n0):
                want = census.primary_nodeless(m)
                got = susy.nodeless_predicate(Kind.A, m, mu_o, TP2)
                assert got == want

    def test_c_partner_at_m0(self):
        assert susy.nodeless_predicate(Kind.C, 0, 5.0, TP2)

    def test_d_pair_threshold(self):
        # the m = 0 (d0, regular-basic) pair turns admissible where the
        # linear-branch and lower quadratic-branch energies cross,
        # mu**2 = 2 max(s, 1/s) - 1
        s = TP2.sqrt_c0
        thr = math.sqrt(2.0 * max(s, 1.0 / s) - 1.0)
        assert 1.0 < thr < 2.0
        assert susy.nodeless_predicate(Kind.D, 0, thr + 0.05, TP2)
        assert not susy.nodeless_predicate(Kind.D, 0, max(1.01, thr - 0.05), TP2)

    def test_large_m_secondary_tail(self):
        vals = [susy.nodeless_predicate(Kind.D, m, 5.0, TP2)
                for m in range(3, 40)]
        assert all(vals[20:])

    def test_guards(self):
        # the seed is the FF; one base level; mu_o = 2m + 1, where there is
        # neither a primary nor a supplementary seed
        for kind, m, mu_o in ((Kind.A, 0, 5.0), (Kind.C, 1, 2.5), (Kind.D, 2, 5.0)):
            with pytest.raises(AvailabilityError):
                susy.nodeless_predicate(kind, m, mu_o, TP2)


class TestStructureConstants:
    def test_values(self):
        o00, d = verify._structure_constants(WL5, TP2)
        assert o00 == pytest.approx(26.0)
        assert d == pytest.approx(-4.0, abs=1e-10)
        assert verify._c00(2.0, 3.0) - verify._c00(-2.0, -3.0) == pytest.approx(5.0)

    def test_d_matches_closed_form_other_branch(self):
        tp = TangentPoly(-1.0)
        _, d = verify._structure_constants(RayIdentifiers(0.3, 4.0), tp)
        assert d == pytest.approx(tp.a2 - tp.c0 - 1.0, abs=1e-10)

    def test_vanishing_combination_on_basics(self, basics):
        o00, d = verify._structure_constants(WL5, TP2)
        for sol in basics.values():
            c0val = 0.25 * (d * sol.epsilon - o00) + verify._c00(
                sol.lambda0, sol.lambda1
            )
            assert c0val == pytest.approx(0.0, abs=1e-10)
