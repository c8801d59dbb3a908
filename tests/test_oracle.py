"""Numerical eigensolver sanity and convergence checks."""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import drttp
from drttp import core, oracle
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import ConvergenceError, DomainError
from drttp.oracle import (
    compare_spectra,
    solve_schrodinger,
    spectral_symmetric_difference,
)
from drttp.spectral import spectrum


def harmonic(x):
    return np.asarray(x, dtype=float) ** 2


def sech2(x):
    # -6 sech(x)^2 (levels -4, -1), written so that it cannot overflow at
    # the box edge
    e = np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)))
    return -24.0 * e / (1.0 + e) ** 2


def collocation_residual(ns, j, E, V):
    """max |-psi'' + (V - E) psi| / max |psi| at the oracle's nodes, with
    psi'' from the exact second derivative of the sinc interpolant in
    s = asinh(x / L) rather than the D1 weak form the oracle solves."""
    x = ns.x
    s = np.arcsinh(x / oracle._MAP_SCALE)
    ds = s[1] - s[0]
    k = np.subtract.outer(np.arange(len(x)), np.arange(len(x)))
    sgn = np.where(k % 2, -1.0, 1.0)
    kk = np.where(k == 0, 1, k)
    d1 = np.where(k == 0, 0.0, sgn / (kk * ds))
    d2 = np.where(k == 0, -np.pi**2 / 3.0, -2.0 * sgn / kk**2) / ds**2
    psi = ns.eigenvectors[:, j]
    psi_xx = (d2 @ psi - np.tanh(s) * (d1 @ psi)) / (oracle._MAP_SCALE * np.cosh(s)) ** 2
    res = -psi_xx + (V(x) - E) * psi
    return float(np.max(np.abs(res)) / np.max(np.abs(psi)))


@pytest.fixture(scope="module")
def harmonic_ns():
    return solve_schrodinger(harmonic)


class TestBenchmarks:
    def test_harmonic_levels(self, harmonic_ns):
        # -psi'' + x^2 psi = E psi: E_n = 2n + 1
        ns = harmonic_ns
        assert np.allclose(ns.eigenvalues[:5], [1, 3, 5, 7, 9], atol=1e-7)
        assert ns.node_counts[:5] == [0, 1, 2, 3, 4]

    def test_sech2_levels_exact(self):
        # -6 sech^2 has exactly -4 and -1; its zero-energy half-bound state
        # gives an eigenvalue just below threshold on each grid, which the
        # n-versus-2n filter rejects.  The error falls from 1e-6 at n = 50
        # to rounding at n = 100.
        ns = solve_schrodinger(sech2)
        assert ns.eigenvalues == pytest.approx([-4.0, -1.0], rel=1e-11)
        assert ns.node_counts == [0, 1]
        assert np.all(ns.convergence < 1e-10)
        assert len(ns.diagnostics["rejected"]) == 1
        assert -1e-4 < ns.diagnostics["rejected"][0] < 0.0
        errs = [np.max(np.abs(oracle._solve_sinc(sech2, n, -1e-8)[1][:2]
                              - [-4.0, -1.0])) for n in (50, 100)]
        assert errs[1] < errs[0] / 100.0

    def test_grid_halving_orders(self):
        # harmonic levels: the error falls by orders of magnitude each time
        # n doubles, until it reaches rounding (about 1e-9 here, where the
        # matrix has norm V(5000) = 2.5e7)
        exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        errs = []
        for n in (50, 100, 200):
            _, w, _ = oracle._solve_sinc(harmonic, n, 30.0)
            errs.append(np.max(np.abs(w[:5] - exact)))
        assert errs[1] < errs[0] / 100.0 and errs[2] < errs[1] / 100.0


@pytest.fixture(scope="module")
def wl5():
    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    ns = solve_schrodinger(lambda x: core.potential_eval_x(x, ri, tp))
    return ri, tp, ns


class TestDkvOracle:
    def test_level_count_and_values(self, wl5):
        ri, tp, ns = wl5
        assert len(ns) == 2
        sols = spectrum(ri, tp)
        rep = compare_spectra([s.epsilon for s in sols], ns)
        assert rep.count_match and rep.node_match and np.max(rep.abs_errors) <= 1e-6

    @pytest.mark.parametrize("lam, mu, zt, levels", [
        # top level at E = -2.8e-4: lost by a +-40 box
        (0.0, 3.05, 2.0, 2),
        # weaker still: off by 5e-6 relative in a +-500 box
        (0.0, 3.04, 2.0, 2),
        # narrow wells of z_T in -0.3..-10: the first loses a level with a
        # map scale of 4, the second with 200 nodes
        (0.0, 10.44, -0.775, 5),
        (0.0, 10.3, -0.5, 5),
    ])
    def test_levels_against_closed_form(self, lam, mu, zt, levels):
        ri, tp = RayIdentifiers(lam, mu), TangentPoly(zt)
        ns = solve_schrodinger(lambda x: core.potential_eval_x(x, ri, tp))
        assert ns.node_counts == list(range(levels))
        rep = compare_spectra([s.epsilon for s in spectrum(ri, tp)], ns)
        assert rep.count_match and rep.node_match and np.max(rep.rel_errors) <= 1e-6

    def test_fractional_count(self):
        ri = RayIdentifiers(0.0, 5.2)
        tp = TangentPoly(2.0)
        ns = solve_schrodinger(lambda x: core.potential_eval_x(x, ri, tp))
        assert len(ns) == 3

    def test_oracle_eigenvector_residual(self, wl5):
        # the eigenvectors solve the Schrodinger equation at the collocation
        # nodes to well below the level tolerance
        ri, tp, ns = wl5
        V = lambda x: core.potential_eval_x(x, ri, tp)
        for j in range(len(ns)):
            assert collocation_residual(ns, j, ns.eigenvalues[j], V) < 1e-8

    def test_detuned_energy_blows_residual(self, wl5):
        ri, tp, ns = wl5
        V = lambda x: core.potential_eval_x(x, ri, tp)
        good = collocation_residual(ns, 0, ns.eigenvalues[0], V)
        bad = collocation_residual(ns, 0, ns.eigenvalues[0] + 0.1, V)
        assert bad > 100 * good


class TestDiagnostics:
    def test_fields_and_debug_log(self, caplog):
        ns = solve_schrodinger(sech2)
        assert not caplog.records
        d = ns.diagnostics
        assert d["map_scale"] == oracle._MAP_SCALE
        assert d["n_points"] == (oracle._N_NODES, 2 * oracle._N_NODES)
        assert len(d["seconds"]) == 2 and all(t > 0.0 for t in d["seconds"])
        assert len(ns.x) == 2 * oracle._N_NODES
        assert ns.x[0] == pytest.approx(-oracle._BOX)
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        solve_schrodinger(sech2)
        assert [r.name for r in caplog.records] == ["drttp.oracle"]
        assert "2 levels kept" in caplog.text and "rejected" in caplog.text


class TestSincGridCache:
    def test_solve_independent_of_order(self):
        # a solve that wrote into the shared kinetic block would change
        # every later solve of the same node count
        ri, tp = RayIdentifiers(0.0, 5.0), TangentPoly(2.0)
        oracle._sinc_grid.cache_clear()
        ref = solve_schrodinger(sech2)
        solve_schrodinger(lambda x: core.potential_eval_x(x, ri, tp))
        got = solve_schrodinger(sech2)
        for field in ("eigenvalues", "eigenvectors", "convergence"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()

    def test_arrays_read_only(self):
        xs, g, _, kinetic = oracle._sinc_grid(50)
        for arr in (xs, g, kinetic):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_built_once_per_node_count(self):
        first = oracle._sinc_grid(50)
        assert all(a is b for a, b in zip(oracle._sinc_grid(50), first))


class TestComparisons:
    def test_identical(self, harmonic_ns):
        ns = harmonic_ns
        rep = compare_spectra(list(ns.eigenvalues), ns)
        assert rep.count_match and rep.node_match
        assert np.max(rep.abs_errors) == np.max(rep.rel_errors) == 0.0

    def test_count_mismatch(self, harmonic_ns):
        ns = harmonic_ns
        rep = compare_spectra(list(ns.eigenvalues[:-1]), ns)
        assert not rep.count_match and rep.node_match
        assert len(rep.abs_errors) == len(rep.rel_errors) == len(ns) - 1

    def test_symmetric_difference(self):
        only_a, only_b = spectral_symmetric_difference(
            [1.0, 2.0, 3.0], [1.0 + 1e-9, 2.5, 3.0], 1e-6
        )
        assert only_a == [2.0] and only_b == [2.5]

    def test_not_confining(self):
        with pytest.raises(ConvergenceError):
            solve_schrodinger(lambda x: -np.abs(np.asarray(x)) * 1e-3)


class TestInputs:
    def test_scalar_potential_rejected(self):
        with pytest.raises(DomainError):
            solve_schrodinger(lambda x: 1.0)

    def test_nonfinite_potential_rejected(self):
        # finite at the box edges, NaN inside
        with pytest.raises(DomainError):
            solve_schrodinger(lambda x: np.where(np.abs(x) < 1.0, np.nan, 0.0))

    def test_cold_start_leaves_scipy_out(self):
        # the closed-form paths need only numpy: a fresh process that imports
        # drttp, runs spectrum(), solution_eval_x, eigenfunction_norm_sq,
        # solution_norm_sq and the spectrum, partner and tabulate --psi
        # commands loads no scipy module; the deferred imports of the oracle
        # then still work
        src = os.path.dirname(os.path.dirname(drttp.__file__))
        code = """
import contextlib, io, json, math, sys
import numpy as np
import drttp
from drttp import cli, oracle, wavefunction
ri, tp = drttp.RayIdentifiers(0.5, 7.0), drttp.TangentPoly(2.0)
sols = drttp.spectrum(ri, tp)
params = ["--lambda-o", "0.5", "--mu-o", "7", "--zt", "2"]
psi = wavefunction.solution_eval_x(np.array([-3.0, 0.0, 2.5]), sols[2], ri, tp)
norm_sq = wavefunction.eigenfunction_norm_sq(2, ri, tp)
unit = psi / math.sqrt(wavefunction.solution_norm_sq(sols[2], tp))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["spectrum", *params]),
             cli.main(["partner", *params, "--ff", "c0"]),
             cli.main(["tabulate", *params, "--points", "101", "--psi", "0,1"])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
e = lambda x: np.exp(-2.0 * np.abs(x))
ns = oracle.solve_schrodinger(lambda x: -24.0 * e(x) / (1.0 + e(x)) ** 2)
print(json.dumps({"codes": codes, "loaded": loaded,
                  "oracle": ns.eigenvalues.tolist(), "psi": psi.tolist(),
                  "norm_sq": norm_sq, "unit": unit.tolist()}))
"""
        out = json.loads(subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src)).stdout)
        assert out["codes"] == [0, 0, 0]
        assert out["loaded"] == []
        assert out["oracle"] == pytest.approx([-4.0, -1.0], rel=1e-11)
        assert out["psi"] == pytest.approx(
            [0.11728316776232378, 0.03204742893127039, 0.048007635944772434],
            rel=1e-12)
        scale = out["norm_sq"] ** -0.5
        assert out["unit"] == pytest.approx([v * scale for v in out["psi"]], rel=1e-15, abs=0.0)
