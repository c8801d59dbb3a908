"""Numerical eigensolver sanity and convergence checks."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import drttp
from drttp import core
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import ConvergenceError, DomainError
from drttp.oracle import (
    compare_spectra,
    residual_check,
    solve_schrodinger,
    spectral_symmetric_difference,
)
from drttp.spectral import spectrum


def harmonic(x):
    return np.asarray(x, dtype=float) ** 2


class TestBenchmarks:
    def test_harmonic_levels(self):
        # -psi'' + x^2 psi = E psi: E_n = 2n + 1
        ns = solve_schrodinger(harmonic, domain=(-12.0, 12.0), h=1e-3)
        assert np.allclose(ns.eigenvalues[:5], [1, 3, 5, 7, 9], atol=1e-7)
        assert ns.node_counts[:5] == [0, 1, 2, 3, 4]

    def test_square_well_order(self):
        # infinite well of width L: E_n = (n pi / L)^2; the Dirichlet box
        # IS the well, so errors shrink at the method order
        L = 2.0
        exact = (math.pi / L) ** 2

        def flat(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        errs = []
        for h in (2e-3, 1e-3):
            n = int(round(L / h))
            xs = np.linspace(0.0, L, n + 1)
            from drttp.oracle import _solve_fd2

            w, _ = _solve_fd2(flat(xs), h, 50.0)
            errs.append(abs(w[0] - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_grid_halving_orders(self):
        # raw (pre-extrapolation) eigenvalue change shrinks by ~4 under
        # h -> h/2
        from drttp.oracle import _solve_fd2

        vals = []
        for h in (8e-3, 4e-3, 2e-3):
            n = int(round(20.0 / h))
            xs = np.linspace(-10.0, 10.0, n + 1)
            w, _ = _solve_fd2(harmonic(xs), h, 30.0)
            vals.append(w[2])
        ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
        assert ratio == pytest.approx(4.0, rel=0.25)


@pytest.fixture(scope="module")
def wl5():
    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    ns = solve_schrodinger(
        lambda x: core.potential_eval_x(x, ri, tp), h=1e-3, method="fd2"
    )
    return ri, tp, ns


class TestDkvOracle:
    def test_level_count_and_values(self, wl5):
        ri, tp, ns = wl5
        assert len(ns) == 2
        sols = spectrum(ri, tp)
        rep = compare_spectra([s.epsilon for s in sols], ns, 1e-6)
        assert rep.passed

    def test_fractional_count(self):
        ri = RayIdentifiers(0.0, 5.2)
        tp = TangentPoly(2.0)
        ns = solve_schrodinger(
            lambda x: core.potential_eval_x(x, ri, tp), h=1e-3, method="fd2"
        )
        assert len(ns) == 3

    def test_oracle_eigenvector_residual(self, wl5):
        # self-consistency at the discretization/eigensolver noise level
        ri, tp, ns = wl5
        xs = np.linspace(ns.grid["x_min"], ns.grid["x_max"], ns.grid["n_points"])
        V = lambda x: core.potential_eval_x(x, ri, tp)
        res = residual_check(ns.eigenvectors[:, 0], ns.eigenvalues[0], V,
                             xs[1:-1])
        assert res < 1e-5

    def test_detuned_energy_blows_residual(self, wl5):
        ri, tp, ns = wl5
        xs = np.linspace(ns.grid["x_min"], ns.grid["x_max"], ns.grid["n_points"])
        V = lambda x: core.potential_eval_x(x, ri, tp)
        good = residual_check(ns.eigenvectors[:, 0], ns.eigenvalues[0], V, xs[1:-1])
        bad = residual_check(ns.eigenvectors[:, 0], ns.eigenvalues[0] + 0.1, V,
                             xs[1:-1])
        assert bad > 100 * good


class TestComparisons:
    def test_identical(self):
        ns = solve_schrodinger(harmonic, domain=(-10.0, 10.0), h=2e-3)
        rep = compare_spectra(list(ns.eigenvalues), ns, 1e-12)
        assert rep.passed and np.max(rep.abs_errors) == 0.0

    def test_count_mismatch(self):
        ns = solve_schrodinger(harmonic, domain=(-10.0, 10.0), h=2e-3)
        rep = compare_spectra(list(ns.eigenvalues[:-1]), ns, 1e-12)
        assert not rep.count_match and not rep.passed

    def test_symmetric_difference(self):
        only_a, only_b = spectral_symmetric_difference(
            [1.0, 2.0, 3.0], [1.0 + 1e-9, 2.5, 3.0], 1e-6
        )
        assert only_a == [2.0] and only_b == [2.5]

    def test_not_confining(self):
        with pytest.raises(ConvergenceError):
            solve_schrodinger(lambda x: -1.0 / (1.0 + np.asarray(x) ** 2) * 0
                              - np.abs(np.asarray(x)) * 1e-3,
                              domain=(-10.0, 10.0), h=5e-3)


class TestInputs:
    def test_only_fd2(self):
        with pytest.raises(DomainError):
            solve_schrodinger(harmonic, domain=(-10.0, 10.0), h=2e-3,
                              method="numerov")

    def test_scalar_potential_rejected(self):
        with pytest.raises(DomainError):
            solve_schrodinger(lambda x: 1.0, domain=(-10.0, 10.0), h=2e-3)

    @pytest.mark.parametrize("domain, h", [((2.0, 14.0), 5e-3),
                                           ((-14.0, -2.0), 5e-3),
                                           ((-10.0, 10.0), 0.0),
                                           ((-1.0, 1.0), 5.0)])
    def test_bad_domain_or_step_rejected(self, domain, h):
        # widening scales the edges, which moves an edge on the wrong side
        # of 0 inward: (2, 14) lost every level of (x - 7.5)**2; h = 5 on
        # (-1, 1) leaves a one-point grid
        with pytest.raises(DomainError):
            solve_schrodinger(lambda x: (np.asarray(x) - 7.5) ** 2,
                              domain=domain, h=h)

    def test_cold_start_leaves_scipy_out(self):
        # the closed-form paths need only numpy: a fresh process that imports
        # drttp, runs spectrum(), solution_eval_x and the spectrum, partner
        # and tabulate --psi commands loads no scipy module; the deferred
        # imports of the oracle then still work
        src = os.path.dirname(os.path.dirname(drttp.__file__))
        code = """
import contextlib, io, json, sys
import numpy as np
import drttp
from drttp import cli, oracle, wavefunction
ri, tp = drttp.RayIdentifiers(0.5, 7.0), drttp.TangentPoly(2.0)
sols = drttp.spectrum(ri, tp)
params = ["--lambda-o", "0.5", "--mu-o", "7", "--zt", "2"]
psi = wavefunction.solution_eval_x(np.array([-3.0, 0.0, 2.5]), sols[2], ri, tp)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["spectrum", *params]),
             cli.main(["partner", *params, "--ff", "c0"]),
             cli.main(["tabulate", *params, "--points", "101", "--psi", "0,1"])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
ns = oracle.solve_schrodinger(lambda x: -6.0 / np.cosh(x) ** 2,
                              domain=(-20.0, 20.0), h=2e-2)
print(json.dumps({"codes": codes, "loaded": loaded,
                  "oracle": ns.eigenvalues.tolist(), "psi": psi.tolist()}))
"""
        out = json.loads(subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src)).stdout)
        assert out["codes"] == [0, 0, 0]
        assert out["loaded"] == []
        assert out["oracle"] == pytest.approx(
            [-3.9999999982808343, -0.9999999933120836], rel=1e-12)
        assert out["psi"] == pytest.approx(
            [0.11728316776232378, 0.03204742893127039, 0.048007635944772434],
            rel=1e-12)
