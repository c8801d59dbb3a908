"""Numerical eigensolver sanity and convergence checks."""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import drttp
from drttp import core, oracle, spectral, verify
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
    psi'' from the exact first and second derivatives of the sinc
    interpolant of psi in s = asinh((x - x0) / L), x0 and L from the
    solve's diagnostics, rather than the Liouville form the oracle solves."""
    x = ns.x
    x0, scale = ns.diagnostics["x0"], ns.diagnostics["map_scale"]
    s = np.arcsinh((x - x0) / scale)
    ds = s[1] - s[0]
    k = np.subtract.outer(np.arange(len(x)), np.arange(len(x)))
    sgn = np.where(k % 2, -1.0, 1.0)
    kk = np.where(k == 0, 1, k)
    d1 = np.where(k == 0, 0.0, sgn / (kk * ds))
    d2 = np.where(k == 0, -np.pi**2 / 3.0, -2.0 * sgn / kk**2) / ds**2
    psi = ns.eigenvectors[:, j]
    psi_xx = (d2 @ psi - np.tanh(s) * (d1 @ psi)) / (scale * np.cosh(s)) ** 2
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

    def test_harmonic_level_count(self, harmonic_ns):
        # a potential that grows without bound is resolved as far as the
        # 400- and 800-node solves agree: 50 levels here, each within 1e-8 of
        # 2n + 1, and never fewer than the 47 of the product form D1^T G^-1 D1
        ns = harmonic_ns
        assert len(ns) >= 47
        assert ns.node_counts == list(range(len(ns)))
        assert ns.eigenvalues == pytest.approx(2.0 * np.arange(len(ns)) + 1.0, rel=0.0, abs=1e-8)
        assert (ns.diagnostics["x0"], ns.diagnostics["map_scale"]) == (0.0, 1.0)

    def test_sech2_levels_exact(self):
        # -6 sech^2 has exactly -4 and -1, and nothing else lies below
        # threshold to reject (the product form D1^T G^-1 D1 had a grid mode
        # just below it on every grid).  The error falls from 1e-6 at n = 50
        # to rounding at n = 100.
        ns = solve_schrodinger(sech2)
        assert ns.eigenvalues == pytest.approx([-4.0, -1.0], rel=1e-11)
        assert ns.node_counts == [0, 1]
        assert np.all(ns.convergence < 1e-10)
        assert ns.diagnostics["rejected"] == []
        errs = [np.max(np.abs(oracle._solve_sinc(sech2, n, -1e-8, *oracle._map_for(sech2))[1][:2]
                              - [-4.0, -1.0])) for n in (50, 100)]
        assert errs[1] < errs[0] / 100.0

    def test_grid_halving_orders(self):
        # harmonic levels: the error falls by orders of magnitude each time
        # n doubles, until it reaches rounding (about 1e-9 here, where the
        # matrix has norm V(5000) = 2.5e7)
        exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        errs = []
        for n in (50, 100, 200):
            _, w, _ = oracle._solve_sinc(harmonic, n, 30.0, *oracle._map_for(harmonic))
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

    @pytest.mark.parametrize("pt, levels", [
        # the product form D1^T G^-1 D1 on x = sinh(s) kept 33 of 34, 38 of
        # 39, 29 of 30, 17 of 26 and 26 of 37 levels of these deep wells and
        # miscounted the nodes of level 15 of (1.561, 32.66, 1.00273)
        ((0.441, 69.16, 2.0), 34),
        ((0.3, 79.0, 2.0), 39),
        *zip(verify.HIGH_DEGREE_POINTS, (30, 26)),
        ((0.5743, 74.927, -55.277), 37),
        ((1.561, 32.66, 1.00273), 16),
    ])
    def test_deep_wells_complete(self, pt, levels):
        ri, tp = RayIdentifiers(pt[0], pt[1]), TangentPoly(pt[2])
        ns = solve_schrodinger(lambda x: core.potential_eval_x(x, ri, tp))
        assert spectral.bound_state_count(ri) == len(ns) == levels
        assert ns.node_counts == list(range(levels))
        assert ns.diagnostics["sawtooth"] == 0
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


def dkv(lam, mu, zt):
    ri, tp = RayIdentifiers(lam, mu), TangentPoly(zt)
    return lambda x: core.potential_eval_x(x, ri, tp)


def rung_pair(V, threshold, n_coarse, n_fine):
    """The comparison of two rungs written out as one procedure: eigenvalues
    only on n_coarse nodes, vectors on n_fine, levels kept from the bottom
    up while the two agree, first significant excursion positive."""
    x0, scale = oracle._map_for(V)
    _, w_c, _ = oracle._solve_sinc(V, n_coarse, threshold, x0, scale, eigvals_only=True)
    _, w_f, vecs = oracle._solve_sinc(V, n_fine, threshold, x0, scale)
    conv = np.array([np.min(np.abs(w_c - e), initial=np.inf) for e in w_f])
    keep = np.cumprod(conv <= oracle._AGREE_TOL * np.abs(w_f)).astype(bool)
    vecs = vecs[:, keep]
    for j in range(vecs.shape[1]):
        nz = np.nonzero(np.abs(vecs[:, j]) > 1e-6 * np.max(np.abs(vecs[:, j])))[0]
        if len(nz) and vecs[nz[0], j] < 0:
            vecs[:, j] = -vecs[:, j]
    counts = [oracle._count_sign_changes(vecs[:, j]) for j in range(vecs.shape[1])]
    return w_f[keep], vecs, counts, conv[keep], w_f[~keep].tolist()


def assert_is_rung_pair(ns, V, n_coarse, n_fine):
    w, vecs, counts, conv, rejected = rung_pair(V, ns.threshold, n_coarse, n_fine)
    assert ns.eigenvalues.tobytes() == w.tobytes()
    assert ns.eigenvectors.tobytes() == vecs.tobytes()
    assert ns.node_counts == counts
    assert ns.convergence.tobytes() == conv.tobytes()
    assert ns.diagnostics["rejected"] == rejected


class TestLadder:
    @pytest.mark.parametrize("pt", [(0.5, 7.3, -1.0), (1.0, 6.13, 2.0)])
    def test_stops_at_200_nodes(self, pt):
        # every level below threshold agrees between 100 and 200 nodes and
        # the node counts are 0..k-1: the 200-node solve is the answer, as
        # accurate as a direct 800-node solve and the closed form
        V = dkv(*pt)
        ns = solve_schrodinger(V)
        assert ns.diagnostics["n_points"] == (100, 200)
        assert len(ns.diagnostics["seconds"]) == 2
        assert len(ns.x) == 200 and ns.diagnostics["rejected"] == []
        _, w, vecs = oracle._solve_sinc(V, 800, ns.threshold, *oracle._map_for(V))
        assert len(w) == len(ns) == 3
        assert ns.eigenvalues == pytest.approx(w, rel=1e-9, abs=0.0)
        counts = [oracle._count_sign_changes(vecs[:, j]) for j in range(len(w))]
        assert ns.node_counts == counts == [0, 1, 2]
        levels = [s.epsilon for s in spectrum(RayIdentifiers(*pt[:2]), TangentPoly(pt[2]))]
        assert ns.eigenvalues == pytest.approx(levels, rel=1e-9, abs=0.0)

    def test_middle_rung_is_the_200_400_pair(self):
        # 100 nodes do not resolve the upper levels of this well, which 200
        # and 400 nodes agree on: the answer is the 200/400 comparison
        V = dkv(1.561, 32.66, 1.00273)
        ns = solve_schrodinger(V)
        assert ns.diagnostics["n_points"] == (100, 200, 400)
        assert len(ns.x) == 400 and len(ns) == 16
        assert_is_rung_pair(ns, V, 200, 400)

    @pytest.mark.parametrize("name, V", [
        # deep wells: 200 nodes do not resolve their upper levels
        ("(0.441, 69.16, 2)", dkv(0.441, 69.16, 2.0)),
        ("(0, 52, -1)", dkv(0.0, 52.0, -1.0)),
        ("(0.5743, 74.927, -55.277)", dkv(0.5743, 74.927, -55.277)),
    ])
    def test_escalation_is_the_cap_pair(self, name, V):
        ns = solve_schrodinger(V)
        assert ns.diagnostics["n_points"] == (100, 200, 400, 800)
        assert len(ns.x) == 800
        assert_is_rung_pair(ns, V, 400, 800)

    def test_node_count_mismatch_climbs(self, monkeypatch, caplog):
        # agreeing eigenvalues with node counts other than 0..k-1 do not stop
        # the ladder
        monkeypatch.setattr(oracle, "_count_sign_changes", lambda psi: 0)
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        ns = solve_schrodinger(dkv(1.0, 6.13, 2.0))
        assert ns.diagnostics["n_points"] == (100, 200, 400, 800)
        assert "sinc rung 200 against 100: node counts [0, 0, 0], not 0..2" in caplog.text


class TestDiagnostics:
    def test_fields_and_debug_log(self, caplog):
        V = dkv(0.441, 69.16, 2.0)
        ns = solve_schrodinger(V)
        assert not caplog.records
        d = ns.diagnostics
        assert (d["x0"], d["map_scale"]) == oracle._map_for(V)
        assert d["map_scale"] == 0.25 and -1.0 < d["x0"] < 0.0
        assert d["n_points"] == oracle._N_NODES == (100, 200, 400, 800)
        assert len(d["seconds"]) == 4 and all(t > 0.0 for t in d["seconds"])
        assert d["map_seconds"] > 0.0
        assert d["rejected"] == [] and d["sawtooth"] == 0
        assert len(ns.x) == oracle._N_NODES[-1]
        assert ns.x[0] == pytest.approx(d["x0"] - oracle._BOX)
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        solve_schrodinger(V)
        assert [r.name for r in caplog.records] == ["drttp.oracle"] * 4
        messages = [r.getMessage() for r in caplog.records]
        assert messages[0].startswith("sinc rung 200 against 100: rejected levels [-")
        assert messages[1].startswith("sinc rung 400 against 200: rejected levels [-")
        assert messages[2] == "sinc rung 800 against 400: accepted"
        assert messages[3].startswith("sinc solve: 34 levels kept, ")
        for key in ("x0", "map_scale", "map_seconds", "n_points", "seconds", "rejected",
                    "sawtooth"):
            assert f"'{key}': " in messages[3]

    def test_sawtooth_counted_and_logged(self, monkeypatch, caplog):
        # a kept eigenvector that changes sign at more than half the nodes,
        # a grid mode, is counted and shown in the DEBUG log
        monkeypatch.setattr(oracle, "_count_sign_changes", lambda psi: len(psi) - 1)
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        ns = solve_schrodinger(sech2)
        assert ns.diagnostics["sawtooth"] == len(ns) == 2
        assert "'sawtooth': 2" in caplog.records[-1].getMessage()

    def test_map_centred_and_scaled_from_the_well(self):
        # x0 is the probe point at the bottom of the well and L its harmonic
        # length a**-1/4, capped at 1 and rounded to a power of 2: -6 sech^2
        # has a = 6, -600 sech^2(x - 3) has a = 600 and levels -(24 - n)**2
        def deep(x):
            return 100.0 * sech2(np.asarray(x, dtype=float) - 3.0)

        assert oracle._map_for(sech2) == (0.0, 0.5)
        x0, scale = oracle._map_for(deep)
        assert x0 == pytest.approx(3.0, abs=0.01) and scale == 0.25
        ns = solve_schrodinger(deep)
        assert ns.eigenvalues == pytest.approx(-(24.0 - np.arange(24)) ** 2, rel=1e-9)
        assert ns.node_counts == list(range(24))

    def test_silent_by_default(self, caplog):
        # a solve that stops at 200 nodes and one that climbs to the cap log
        # nothing unless DEBUG is enabled for drttp.oracle
        solve_schrodinger(dkv(1.0, 6.13, 2.0))
        solve_schrodinger(dkv(0.441, 69.16, 2.0))
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        solve_schrodinger(dkv(1.0, 6.13, 2.0))
        assert [r.getMessage() for r in caplog.records][0] == "sinc rung 200 against 100: accepted"


class TestVerifyMemo:
    def test_base_point_solved_once(self, monkeypatch):
        # wl.oracle-agreement and the susy.spectral-surgery base both solve
        # (0, 5, 2); the five partners are solved once each
        verify._oracle_for.cache_clear()
        solved = []
        solve = oracle.solve_schrodinger
        monkeypatch.setattr(oracle, "solve_schrodinger", lambda V: solved.append(V) or solve(V))
        results = verify.check_wl_point() + verify.check_susy_surgery()
        assert all(r.passed for r in results)
        assert len(solved) == 1 + 5
        assert verify._oracle_for.cache_info().hits == 1


class TestSincGridCache:
    def test_solve_independent_of_order(self):
        # a solve that wrote into the shared kinetic block would change
        # every later solve of the same node count and map scale
        V = dkv(0.5, 7.3, -1.0)
        assert oracle._map_for(V)[1] == oracle._map_for(sech2)[1] == 0.5
        oracle._sinc_grid.cache_clear()
        ref = solve_schrodinger(sech2)
        solve_schrodinger(V)
        got = solve_schrodinger(sech2)
        for field in ("eigenvalues", "eigenvectors", "convergence"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()

    def test_arrays_read_only(self):
        offsets, g, _, kinetic = oracle._sinc_grid(50, 1.0)
        for arr in (offsets, g, kinetic):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_built_once_per_node_count(self):
        # one block per (n, L): the map centre x0 does not enter it
        first = oracle._sinc_grid(50, 0.5)
        assert all(a is b for a, b in zip(oracle._sinc_grid(50, 0.5), first))
        assert oracle._sinc_grid(50, 1.0)[3] is not first[3]


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
