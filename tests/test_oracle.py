"""Numerical eigensolver sanity and convergence checks."""

import importlib.util
import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import drttp
from drttp import core, oracle, spectral, verify
from drttp.core import RayIdentifiers, TangentPoly
from drttp.errors import ConvergenceError, DomainError
from drttp.oracle import solve_schrodinger
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
        # 560- and 800-node solves agree: 76 levels here, each within 1e-8 of
        # 2n + 1.  Reaching the cap raises nothing: the levels above those the
        # cap pair keeps are listed as rejected
        ns = harmonic_ns
        assert ns.diagnostics["n_points"] == oracle._N_NODES == (100, 140, 200, 280, 400, 560, 800)
        assert ns.diagnostics["rejected"] and min(ns.diagnostics["rejected"]) > ns.eigenvalues[-1]
        assert len(ns) >= 76
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
        errs = [np.max(np.abs(oracle._solve_sinc(sech2, n, -1e-8, *oracle._map_for(sech2)[1:])[1][:2]
                              - [-4.0, -1.0])) for n in (50, 100)]
        assert errs[1] < errs[0] / 100.0

    def test_grid_halving_orders(self):
        # harmonic levels: the error falls by orders of magnitude each time
        # n doubles, until it reaches rounding (about 1e-9 here, where the
        # matrix has norm V(5000) = 2.5e7)
        exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
        errs = []
        for n in (50, 100, 200):
            _, w, _ = oracle._solve_sinc(harmonic, n, 30.0, *oracle._map_for(harmonic)[1:])
            errs.append(np.max(np.abs(w[:5] - exact)))
        assert errs[1] < errs[0] / 100.0 and errs[2] < errs[1] / 100.0


@pytest.fixture(scope="module")
def wl5():
    ri = RayIdentifiers(0.0, 5.0)
    tp = TangentPoly(2.0)
    ns = solve_schrodinger(lambda x: core.potential_eval_x(x, ri, tp))
    return ri, tp, ns


class TestDkvOracle:
    def test_level_count_and_values(self):
        rec = verify.oracle_point(RayIdentifiers(0.0, 5.0), TangentPoly(2.0))
        assert len(rec.numeric) == 2
        assert rec.count_ok and rec.node_ok and np.max(rec.abs_errors) <= 1e-6

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
        rec = verify.oracle_point(RayIdentifiers(lam, mu), TangentPoly(zt))
        assert rec.numeric.node_counts == list(range(levels))
        assert rec.count_ok and rec.node_ok and np.max(rec.rel_errors) <= 1e-6

    @pytest.mark.parametrize("pt", [(0.3, 59.7, 2.0), (0.0, 52.0, -1.0), (0.441, 69.16, 2.0)], ids=str)
    def test_deep_wells_to_1e_10(self, pt):
        # these wells stop at the 280/400 pair, one rung above the grid that
        # resolves them: within 1e-10 relative of the closed form (the 800
        # nodes the doubling ladder climbed to read 2.3e-10, 1.3e-10 and
        # 3.1e-11, their rounding growing with the matrix norm, as n**2)
        rec = verify.oracle_point(RayIdentifiers(pt[0], pt[1]), TangentPoly(pt[2]))
        assert rec.count_ok and rec.node_ok and np.max(rec.rel_errors) <= 1e-10

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
        ri = RayIdentifiers(pt[0], pt[1])
        rec = verify.oracle_point(ri, TangentPoly(pt[2]))
        ns = rec.numeric
        assert spectral.bound_state_count(ri) == len(ns) == levels
        assert ns.node_counts == list(range(levels))
        assert ns.diagnostics["sawtooth"] == 0
        assert rec.count_ok and rec.node_ok and np.max(rec.rel_errors) <= 1e-6

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
    """The comparison of two rungs written out as one procedure: the
    n_coarse and n_fine solves, levels kept from the bottom up while the two
    agree, first significant excursion positive."""
    _, x0, scale = oracle._map_for(V)
    _, w_c, _ = oracle._solve_sinc(V, n_coarse, threshold, x0, scale)
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
    def test_stops_at_140_nodes(self, pt):
        # every level below threshold agrees between 100 and 140 nodes and
        # the node counts are 0..k-1: the 140-node solve is the answer, as
        # accurate as a direct 800-node solve and the closed form
        V = dkv(*pt)
        ns = solve_schrodinger(V)
        assert ns.diagnostics["n_points"] == (100, 140)
        assert len(ns.diagnostics["seconds"]) == 2
        assert len(ns.x) == 140 and ns.diagnostics["rejected"] == []
        assert_is_rung_pair(ns, V, 100, 140)
        _, w, vecs = oracle._solve_sinc(V, 800, ns.threshold, *oracle._map_for(V)[1:])
        assert len(w) == len(ns) == 3
        assert ns.eigenvalues == pytest.approx(w, rel=1e-9, abs=0.0)
        counts = [oracle._count_sign_changes(vecs[:, j]) for j in range(len(w))]
        assert ns.node_counts == counts == [0, 1, 2]
        levels = [s.epsilon for s in spectrum(RayIdentifiers(*pt[:2]), TangentPoly(pt[2]))]
        assert ns.eigenvalues == pytest.approx(levels, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("pt, levels, n_coarse, n_fine", [
        # 100 nodes do not resolve the upper levels of these wells, which
        # 140 and 200 nodes agree on
        pytest.param((1.561, 32.66, 1.00273), 16, 140, 200, id="(1.561, 32.66, 1.00273)"),
        pytest.param((0.0, 20.3, 2.0), 10, 140, 200, id="(0, 20.3, 2)"),
        # nor do 140 nodes those of this one, which 200 and 280 agree on
        pytest.param((0.0, 32.66, 2.0), 16, 200, 280, id="(0, 32.66, 2)"),
    ])
    def test_middle_rung_pair(self, pt, levels, n_coarse, n_fine):
        V = dkv(*pt)
        ns = solve_schrodinger(V)
        assert ns.diagnostics["n_points"] == oracle._N_NODES[:oracle._N_NODES.index(n_fine) + 1]
        assert len(ns.x) == n_fine and len(ns) == levels
        assert_is_rung_pair(ns, V, n_coarse, n_fine)

    @pytest.mark.parametrize("name, V", [
        # deep wells of 26 to 37 levels: 200 nodes do not resolve their
        # upper levels, and the answer is the 280/400 comparison
        ("(0.441, 69.16, 2)", dkv(0.441, 69.16, 2.0)),
        ("(0, 52, -1)", dkv(0.0, 52.0, -1.0)),
        ("(0.5743, 74.927, -55.277)", dkv(0.5743, 74.927, -55.277)),
    ])
    def test_escalation_is_the_last_pair(self, name, V):
        ns = solve_schrodinger(V)
        assert ns.diagnostics["n_points"] == (100, 140, 200, 280, 400)
        assert len(ns.x) == 400
        assert_is_rung_pair(ns, V, 280, 400)

    def test_node_count_mismatch_climbs(self, monkeypatch, caplog):
        # agreeing eigenvalues with node counts other than 0..k-1 do not stop
        # the ladder
        monkeypatch.setattr(oracle, "_count_sign_changes", lambda psi: 0)
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        ns = solve_schrodinger(dkv(1.0, 6.13, 2.0))
        assert ns.diagnostics["n_points"] == oracle._N_NODES
        assert "sinc rung 140 against 100: node counts [0, 0, 0], not 0..2" in caplog.text


class TestDiagnostics:
    def test_fields_and_debug_log(self, caplog):
        V = dkv(0.441, 69.16, 2.0)
        ns = solve_schrodinger(V)
        assert not caplog.records
        d = ns.diagnostics
        assert (ns.threshold, d["x0"], d["map_scale"]) == oracle._map_for(V)
        assert d["map_scale"] == 0.25 and -1.0 < d["x0"] < 0.0
        assert d["n_points"] == oracle._N_NODES[:5] == (100, 140, 200, 280, 400)
        assert len(d["seconds"]) == 5 and all(t > 0.0 for t in d["seconds"])
        assert d["map_seconds"] > 0.0
        assert d["rejected"] == [] and d["sawtooth"] == 0
        assert len(ns.x) == 400
        assert ns.x[0] == pytest.approx(d["x0"] - oracle._BOX)
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        solve_schrodinger(V)
        assert [r.name for r in caplog.records] == ["drttp.oracle"] * 5
        messages = [r.getMessage() for r in caplog.records]
        assert messages[0].startswith("sinc rung 140 against 100: rejected levels [-")
        assert messages[1].startswith("sinc rung 200 against 140: rejected levels [-")
        assert messages[2].startswith("sinc rung 280 against 200: rejected levels [-")
        assert messages[3] == "sinc rung 400 against 280: accepted"
        assert messages[4].startswith("sinc solve: 34 levels kept, ")
        for key in ("x0", "map_scale", "map_seconds", "n_points", "seconds", "rejected",
                    "sawtooth"):
            assert f"'{key}': " in messages[4]

    @pytest.mark.parametrize("V", [sech2, dkv(1.561, 32.66, 1.00273)],
                             ids=["sech2", "(1.561, 32.66, 1.00273)"])
    def test_one_call_of_v_before_the_ladder(self, V):
        # the edge check, the threshold and the map read one call of V on
        # the probe and the edge points; each rung then calls V once
        calls = []
        ns = solve_schrodinger(lambda x: calls.append(np.array(x)) or V(x))
        n_points = ns.diagnostics["n_points"]
        assert len(calls) == len(n_points) + 1
        s_max = np.arcsinh(oracle._BOX)
        probe = np.sinh(np.linspace(-s_max, s_max, oracle._PROBE_NODES))
        edges = [-5000.0, -4999.0, 4999.0, 5000.0]
        assert len(calls[0]) == oracle._PROBE_NODES + 4
        assert np.all(np.isin(probe, calls[0])) and np.all(np.isin(edges, calls[0]))
        assert [len(c) for c in calls[1:]] == list(n_points)
        assert calls[-1].tobytes() == ns.x.tobytes()

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

        assert oracle._map_for(sech2)[1:] == (0.0, 0.5)
        _, x0, scale = oracle._map_for(deep)
        assert x0 == pytest.approx(3.0, abs=0.01) and scale == 0.25
        ns = solve_schrodinger(deep)
        assert ns.eigenvalues == pytest.approx(-(24.0 - np.arange(24)) ** 2, rel=1e-9)
        assert ns.node_counts == list(range(24))

    def test_silent_by_default(self, caplog):
        # a solve that stops at 140 nodes and one that climbs to 400 log
        # nothing unless DEBUG is enabled for drttp.oracle
        solve_schrodinger(dkv(1.0, 6.13, 2.0))
        solve_schrodinger(dkv(0.441, 69.16, 2.0))
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="drttp.oracle")
        solve_schrodinger(dkv(1.0, 6.13, 2.0))
        assert [r.getMessage() for r in caplog.records][0] == "sinc rung 140 against 100: accepted"


@pytest.fixture
def fresh_oracle_points():
    """An empty oracle_point cache before and after the test: the cache is
    process-wide, so a record built under a patch would reach later tests."""
    verify.oracle_point.cache_clear()
    yield
    verify.oracle_point.cache_clear()


class TestVerifyMemo:
    def test_base_point_solved_once(self, monkeypatch, fresh_oracle_points):
        # wl.oracle-agreement and the susy.spectral-surgery base both read
        # the record of (0, 5, 2); the five partners are solved once each
        solved = []
        solve = oracle.solve_schrodinger
        monkeypatch.setattr(oracle, "solve_schrodinger", lambda V: solved.append(V) or solve(V))
        results = verify.check_wl_point() + verify.check_susy_surgery()
        assert all(r.passed for r in results)
        assert len(solved) == 1 + 5
        assert verify.oracle_point.cache_info().hits == 1


class TestOraclePoint:
    def test_count_mismatch(self, monkeypatch, fresh_oracle_points):
        # a closed form one level short: the counts disagree, and the node
        # counts and errors cover the levels both have
        ri, tp = RayIdentifiers(0.5, 7.3), TangentPoly(-1.0)
        monkeypatch.setattr(spectral, "spectrum", lambda ri, tp: spectrum(ri, tp)[:-1])
        rec = verify.oracle_point(ri, tp)
        assert len(rec.levels) == len(rec.numeric) - 1 == 2
        assert not rec.count_ok and rec.node_ok
        assert len(rec.abs_errors) == len(rec.rel_errors) == len(rec.numeric) - 1
        assert np.max(rec.rel_errors) <= 1e-6

    def test_node_count_mismatch(self, monkeypatch, fresh_oracle_points):
        # node counts one too high never stop the ladder, which climbs to
        # the cap; the counts and levels still agree
        count = oracle._count_sign_changes
        monkeypatch.setattr(oracle, "_count_sign_changes", lambda psi: count(psi) + 1)
        rec = verify.oracle_point(RayIdentifiers(0.0, 5.0), TangentPoly(2.0))
        assert rec.numeric.diagnostics["n_points"] == oracle._N_NODES
        assert rec.numeric.node_counts == [1, 2]
        assert rec.count_ok and not rec.node_ok
        assert np.max(rec.rel_errors) <= 1e-6

    def test_shared_arrays_read_only(self):
        # every caller of the cache gets the same record
        rec = verify.oracle_point(RayIdentifiers(0.0, 5.0), TangentPoly(2.0))
        assert verify.oracle_point(RayIdentifiers(0.0, 5.0), TangentPoly(2.0)) is rec
        ns = rec.numeric
        for arr in (rec.abs_errors, rec.rel_errors, ns.eigenvalues, ns.eigenvectors, ns.x,
                    ns.convergence):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestSincGridCache:
    def test_solve_independent_of_order(self):
        # a solve that wrote into the shared kinetic block would change
        # every later solve of the same node count and map scale
        V = dkv(0.5, 7.3, -1.0)
        assert oracle._map_for(V)[2] == oracle._map_for(sech2)[2] == 0.5
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


def crossval_points(seed, count):
    """(lambda_o, mu_o, z_T) of the first ``count`` crossval draws of the
    benchmark (perfbench/workloads.py) for ``seed``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return [(p["lambda_o"], p["mu_o"], p["z_T"])
            for p in (workloads.crossval_params(seed, i) for i in range(count))]


def map_for_by_polyfit(V):
    """_map_for written out with np.polyfit for the parabola's curvature
    and the probe built here."""
    s_max = np.arcsinh(oracle._BOX)
    probe = np.sinh(np.linspace(-s_max, s_max, oracle._PROBE_NODES))
    edges = [-oracle._BOX, 1.0 - oracle._BOX, oracle._BOX - 1.0, oracle._BOX]
    vals = np.asarray(V(np.concatenate((probe, edges))), dtype=float)
    v_edge, vals = vals[oracle._PROBE_NODES:], vals[:oracle._PROBE_NODES]
    threshold = float(min(v_edge[0], v_edge[3])) - oracle._BOUND_MARGIN
    i = int(np.argmin(vals))
    x0 = float(probe[i])
    lo = min(max(i - 2, 0), oracle._PROBE_NODES - 5)
    a = float(np.polyfit(probe[lo:lo + 5] - x0, vals[lo:lo + 5], 2)[0])
    width = min(1.0, a ** -0.25) if a > 0.0 else 1.0
    return threshold, x0, 2.0 ** round(math.log2(width))


class TestMapFit:
    @pytest.mark.parametrize("seed", range(20))
    def test_closed_form_curvature_is_the_least_squares_fit(self, seed):
        # 5 distinct points around 0 on scales from 1e-3 to 10, values a
        # parabola with 1e-3 noise (odd seeds) or noise alone (even seeds),
        # against the least-squares parabola solved in 50 digits; np.polyfit
        # agrees to 1e-12 on the noise alone, and is itself up to 3e-12 off
        # on the parabolas
        rng = np.random.default_rng([38, seed])
        u = np.sort(rng.uniform(-1.0, 1.0, 5)) * 10.0 ** rng.uniform(-3.0, 1.0)
        v = rng.normal(size=5)
        if seed % 2:
            v = rng.normal() * u**2 + rng.normal() * u + rng.normal() + 1e-3 * v
        with mpmath.workdps(50):
            A = mpmath.matrix([[mpmath.mpf(x) ** 2, mpmath.mpf(x), 1] for x in u])
            exact = float(mpmath.lu_solve(A.T * A, A.T * mpmath.matrix(v.tolist()))[0])
        got = oracle._parabola_curvature(u, v)
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)
        if not seed % 2:
            assert got == pytest.approx(np.polyfit(u, v, 2)[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name, points", [
        ("verify", verify.GRID_POINTS + verify.HIGH_DEGREE_POINTS),
        ("crossval seed 1", crossval_points(1, 120)),
        ("crossval seed 2", crossval_points(2, 120)),
    ])
    def test_map_is_the_polyfit_map(self, name, points):
        for pt in points:
            V = dkv(*pt)
            assert oracle._map_for(V) == map_for_by_polyfit(V), pt

    def test_probe_private_to_each_solve(self):
        # the probe points are built once and shared by every solve; V gets
        # its own copy, so a V that writes into its argument leaves the next
        # solve unchanged (a read-only probe would make it raise ValueError)
        def scribbling(x):
            out = sech2(x)
            x[...] = 0.0
            return out

        first, second = solve_schrodinger(scribbling), solve_schrodinger(scribbling)
        assert len(first) == 2
        for field in ("eigenvalues", "eigenvectors", "convergence"):
            assert getattr(first, field).tobytes() == getattr(second, field).tobytes()
        assert first.threshold == second.threshold
        for key in ("x0", "map_scale", "n_points", "rejected"):
            assert first.diagnostics[key] == second.diagnostics[key]


class TestFirstRung:
    @pytest.mark.parametrize("V", [sech2, dkv(0.5, 7.3, -1.0), dkv(1.561, 32.66, 1.00273)],
                             ids=["sech2", "(0.5, 7.3, -1)", "(1.561, 32.66, 1.00273)"])
    def test_eigenvalues_only_are_the_vector_solve_s(self, V):
        # LAPACK's dsyevr takes the eigenvalues of a range from dstebz with
        # or without vectors, so the first rung may skip them
        threshold, x0, scale = oracle._map_for(V)
        xs, w, vecs = oracle._solve_sinc(V, 100, threshold, x0, scale)
        xs_only, w_only, none = oracle._solve_sinc(V, 100, threshold, x0, scale, vectors=False)
        assert none is None and vecs.shape == (100, len(w)) and len(w) >= 2
        assert np.array_equal(w_only, w) and np.array_equal(xs_only, xs)


class TestComparisons:
    def test_symmetric_difference(self):
        only_a, only_b = verify._spectral_symmetric_difference(
            [1.0, 2.0, 3.0], [1.0 + 1e-9, 2.5, 3.0], 1e-6
        )
        assert only_a == [2.0] and only_b == [2.5]

    @pytest.mark.parametrize("V, where", [
        (lambda x: np.minimum(x, 0.0) * 1e-3, "by 0.001 at the left edge"),
        (lambda x: -np.maximum(x, 0.0) * 1e-3, "by 0.001 at the right edge"),
        (lambda x: -np.abs(x) * 1e-3, "by 0.001 at the left edge and by 0.001 at the right edge"),
    ], ids=["left", "right", "both"])
    def test_not_confining(self, V, where):
        # V falls outward by 1e-3 over the last unit of x at either edge
        with pytest.raises(ConvergenceError,
                           match=re.escape(f"potential not confining: V falls outward {where}") + "$"):
            solve_schrodinger(V)


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
