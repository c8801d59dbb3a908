"""Closed-form solutions, eigenfunctions, node counting."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from drttp import core, wavefunction
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import DomainError
from drttp.spectral import Kind, spectrum, wl_solve
from drttp.wavefunction import (
    aeh_eval,
    count_nodes,
    count_roots_in_01,
    eigenfunction_eval_x,
    hypergeom_flip_eval,
    hypergeom_poly_eval,
    hypergeom_poly_jacobi,
    poly_factor,
    solution_eval_x,
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
        assert hypergeom_poly_eval(0, 3.7, 1.1, 0.9) == 1.0

    def test_degree_one(self):
        a, c, z = 2.5, 1.2, 0.4
        assert hypergeom_poly_eval(1, a, c, z) == pytest.approx(1 - a / c * z)

    def test_matches_jacobi_recurrence(self):
        # both evaluators against an exact sum, Jacobi parameters in (-1, inf)
        for n, a, c, z in ((3, 4.7, 1.2, 0.4), (7, 7.5, 0.8, 0.63)):
            want = _mp_hypergeom(n, a, c, [z])[0]
            assert hypergeom_poly_eval(n, a, c, z) == pytest.approx(want, rel=1e-12)
            assert hypergeom_poly_jacobi(n, a, c, z) == pytest.approx(want, rel=1e-12)
        # general parameters: the power sum only
        for n, a, c, z in ((3, 2.5, 1.2, 0.4), (7, -1.7, 0.8, 0.63)):
            want = _mp_hypergeom(n, a, c, [z])[0]
            assert hypergeom_poly_eval(n, a, c, z) == pytest.approx(want, rel=1e-12)

    def test_jacobi_rejects_parameters_below_minus_one(self):
        # alpha = 12, beta = -24: the recurrence would return NaN here
        with pytest.raises(DomainError):
            hypergeom_poly_jacobi(12, 1.0, 13.0, 0.5)
        assert hypergeom_poly_eval(12, 1.0, 13.0, 0.5) == pytest.approx(
            0.673008509954359, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            hypergeom_poly_eval(3, 1.5, -1.0, 0.2)

    def test_flip_identity(self):
        ri = RayIdentifiers(1.0, 7.0)
        for sol in spectrum(ri, TP2):
            if sol.m == 0:
                continue
            for z in (0.2, 0.3, 0.77):
                direct = hypergeom_poly_jacobi(
                    sol.m, sol.mu - sol.m, sol.lambda0 + 1.0, z
                )
                assert hypergeom_flip_eval(z, sol) == pytest.approx(
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
            assert aeh_eval(z, sol, WL5, TP2) == pytest.approx(want, rel=1e-14)

    def test_ground_state_positive(self):
        sol = spectrum(WL5, TP2)[0]
        zs = np.linspace(1e-4, 1 - 1e-4, 10_000)
        assert np.all(aeh_eval(zs, sol, WL5, TP2) > 0)

    def test_endpoint_limits(self):
        sol = spectrum(WL5, TP2)[0]
        assert aeh_eval(0.0, sol, WL5, TP2) == 0.0
        assert aeh_eval(1.0, sol, WL5, TP2) == 0.0
        irregular = {s.kind: s for s in wl_solve(0, 5.0, TP2)}[Kind.D]
        assert aeh_eval(0.0, irregular, WL5, TP2) == math.inf

    @pytest.mark.parametrize("params", [(0.0, 60.0, -1.0), (0.5, 80.0, 2.0)])
    def test_high_degree_polynomial_factor(self, params):
        lo, mo, zt = params
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        zs = np.linspace(0.005, 0.995, 199)
        for sol in spectrum(ri, tp):
            prefactor = zs ** (0.5 * (sol.lambda0 + 1.0)) * (1.0 - zs) ** (
                0.5 * (sol.lambda1 + 1.0))
            got = aeh_eval(zs, sol, ri, tp) / prefactor
            want = _mp_hypergeom(sol.m, sol.mu - sol.m, sol.lambda0 + 1.0, zs)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), sol.m


class TestPolyFactor:
    def test_degree_and_nodes(self):
        sols = spectrum(RayIdentifiers(0.0, 7.4), TP2)
        for n, s in enumerate(sols):
            pf = poly_factor(s)
            assert pf.degree == n
            assert pf.roots_in_01 == n   # eigenfunction nodes sit inside (0,1)

    def test_roots_outside_not_counted(self):
        # z^2 - 3z + 2 = (z-1)(z-2): no roots strictly inside (0,1)
        assert count_roots_in_01([2.0, -3.0, 1.0]) == 0


class TestEigenfunctions:
    def test_decay(self):
        # slowest level decays like exp(-0.68 |x|) here
        for n in range(2):
            assert abs(eigenfunction_eval_x(35.0, n, WL5, TP2)) < 1e-9
            assert abs(eigenfunction_eval_x(-35.0, n, WL5, TP2)) < 1e-9
            assert abs(eigenfunction_eval_x(60.0, n, WL5, TP2)) < 1e-16

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
        n0 = math.sqrt(wavefunction.eigenfunction_norm_sq(0, ri, TP2, _sols=sols))
        n1 = math.sqrt(wavefunction.eigenfunction_norm_sq(1, ri, TP2, _sols=sols))
        assert abs(val / (n0 * n1)) < 1e-8

    def test_normalized_unit_norm(self):
        xs = np.linspace(-30, 30, 120_001)
        psi = eigenfunction_eval_x(xs, 0, WL5, TP2, normalize=True)
        norm = np.trapezoid(psi**2, xs)
        assert norm == pytest.approx(1.0, rel=1e-7)

    @pytest.mark.parametrize("params", [
        (1.0, 9.0, 1.05, 3),       # decays beyond |x| = 60
        (0.0, 3.001, 2.0, -1),     # lambda1 ~ 3e-4 just below threshold
        (0.3, 59.7, 2.0, 29),
    ])
    def test_norm_matches_beta_expansion(self, params):
        lo, mo, zt, n = params
        ri, tp = RayIdentifiers(lo, mo), TangentPoly(zt)
        sols = spectrum(ri, tp)
        n %= len(sols)
        got = wavefunction.eigenfunction_norm_sq(n, ri, tp, _sols=sols)
        assert got == pytest.approx(_mp_norm_sq(sols[n], tp), rel=1e-11)

    def test_norm_overflow_is_domain_error(self):
        # level 0 here has lambda0 = 1745: 2**(lambda0 + lambda1 - 1) and
        # scipy's Gauss-Jacobi weights both overflow
        ri, tp = RayIdentifiers(0.5, 77.0), TangentPoly(1.0002)
        sols = spectrum(ri, tp)
        with pytest.raises(DomainError):
            wavefunction.eigenfunction_norm_sq(0, ri, tp, _sols=sols)
        with pytest.raises(DomainError):
            eigenfunction_eval_x(0.0, 0, ri, tp, normalize=True, _sols=sols)

    def test_index_error(self):
        with pytest.raises(IndexError):
            eigenfunction_eval_x(0.0, 5, WL5, TP2)

    def test_schrodinger_residual(self):
        from drttp.oracle import residual_check

        ri = RayIdentifiers(0.5, 5.0)
        tp = TangentPoly(-1.0)
        sols = spectrum(ri, tp)
        xs = np.linspace(-8.0, 8.0, 6401)
        for s in sols:
            psi = solution_eval_x(xs, s, ri, tp)
            psi = psi / np.max(np.abs(psi))
            res = residual_check(
                psi, s.epsilon, lambda x: core.potential_eval_x(x, ri, tp), xs
            )
            assert res < 1e-7


class TestCountNodes:
    def test_polynomial(self):
        assert count_nodes(lambda z: (z - 0.3) * (z - 0.7), (0.0, 1.0)) == 2
        assert count_nodes(lambda z: z * z - 3 * z + 2, (0.0, 1.0)) == 0

    def test_constant(self):
        assert count_nodes(lambda z: np.ones_like(np.asarray(z, dtype=float)),
                           (0.0, 1.0)) == 0

    def test_scalar_result_rejected(self):
        with pytest.raises(DomainError):
            count_nodes(lambda x: 1.0, (0.0, 1.0))
