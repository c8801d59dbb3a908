"""Acceptance suite: one criterion per test, one printed line per criterion.

Every criterion runs at its stated tolerance through the shared
verification battery; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math

from drttp import verify
from drttp.core import RayIdentifiers, TangentPoly
from drttp.spectral import spectrum


def _report(criterion: str, results, extra_ok: bool = True, checks=None) -> None:
    """Print and assert one criterion; ``checks``, if given, is the list of
    (name, tolerance) the results must carry, in order."""
    ok = extra_ok and all(r.passed for r in results)
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    for r in results:
        print("   " + r.line())
    if checks is not None:
        assert [(r.name, r.tolerance) for r in results] == checks
    assert ok, "\n".join(r.line() for r in results if not r.passed)


def test_criterion_01_wl_closed_form_spectrum():
    sols = spectrum(RayIdentifiers(0.0, 5.0), TangentPoly(2.0))
    eps0 = -(((-6.0 + math.sqrt(804.0)) / 16.0) ** 2)
    eps1 = -(((-18.0 + math.sqrt(836.0)) / 16.0) ** 2)
    closed_ok = (
        len(sols) == 2
        and abs(sols[0].epsilon - eps0) < 1e-10
        and abs(sols[1].epsilon - eps1) < 1e-10
    )
    results = verify.check_wl_point()
    _report(
        "criterion 1: levelled-limit closed-form spectrum + oracle (1e-10 / 1e-6)",
        results,
        extra_ok=closed_ok,
    )


def test_criterion_02_oracle_agreement_grid():
    results = verify.check_oracle_grid()
    _report(
        "criterion 2: level counts and oracle agreement on the "
        "(lambda_o, mu_o, z_T) grid (1e-6 relative)",
        results,
    )


def test_criterion_03_cross_cubic_consistency():
    results = verify.check_cubic()
    _report(
        "criterion 3: cross-cubic consistency and discriminant-sign "
        "agreement on 1000 draws",
        results,
        checks=[("cubic.cross-consistency", 1e-8), ("cubic.discriminant-sign", 0.5),
                ("cubic.quartic-containment", 1e-8), ("cubic.freeterm-positivity", 0.5),
                ("cubic.level-residual", 1e-12)],
    )


def test_criterion_04_eigenfunction_suite():
    results = verify.check_eigenfunctions()
    _report(
        "criterion 4: node counts, orthogonality (1e-7), exact Schrodinger "
        "residual (1e-10, degrees <= 29 included), argument-flip identity (1e-10)",
        results,
        checks=[("eigenfunction.node-counts", 0.5), ("eigenfunction.orthogonality", 1e-7),
                ("eigenfunction.schrodinger-residual", 1e-10),
                ("eigenfunction.high-degree-node-counts", 0.5),
                ("eigenfunction.high-degree-orthogonality", 1e-7),
                ("eigenfunction.norm-closed-form", 1e-10), ("eigenfunction.flip-identity", 1e-10)],
    )


def test_criterion_05_susy_spectral_surgery():
    results = verify.check_susy_surgery()
    _report(
        "criterion 5: partner spectra differ from the base only by the "
        "factorization energies (1e-5)",
        results,
    )


def test_criterion_06_heun_residuals():
    results = verify.check_heun()
    _report(
        "criterion 6: Heun polynomials and quasi-algebraic kernels "
        "annihilated (1e-9); exponent-sum identity (1e-12)",
        results,
        checks=[("heun.polynomial-residual", 1e-9), ("heun.fuchs-sum", 1e-12),
                ("heun.class-bookkeeping", 1e-9), ("heun.lambe-ward-residual", 1e-9),
                ("heun.degree1-annihilation", 1e-10), ("heun.order-preservation", 1e-12),
                ("heun.q-at-zero-energy", 1e-12)],
    )


def test_criterion_07_appendix_a():
    results = verify.check_appendix_a()
    _report(
        "criterion 7: basic-pair factorization identity (1e-10) and zero "
        "condition (1e-12) on 100 draws",
        results,
        checks=[("appendix-a.factorization", 1e-10), ("appendix-a.zero-condition", 1e-12),
                ("appendix-a.mu-lambda-consistency", 1e-10)],
    )


def test_criterion_08_appendix_b():
    results = verify.check_appendix_b()
    _report(
        "criterion 8: nodelessness predicates match brute-force node "
        "counting exactly on 5160 configurations of the 30x30 grid at "
        "c0 in {1/4, 4}, degrees <= 29",
        results,
        checks=[("appendix-b.node-equivalence", 0.5), ("appendix-b.large-m-tail", 0.5)],
    )


def test_criterion_09_map_and_gauge():
    results = (
        verify.check_map() + verify.check_schwarzian() + verify.check_gauge()
    )
    _report(
        "criterion 9: map/ODE identity (1e-10), elementary-gauge identity "
        "(1e-10), Schwarzian FD (1e-6), fast path (1e-12)",
        results,
        checks=[("map.ode-consistency", 1e-10), ("map.fastpath-vs-general", 1e-12),
                ("map.limits", 1e-12), ("schwarzian.fd-agreement", 1e-6),
                ("schwarzian.parity", 0.0), ("schwarzian.eta-values", 1e-12),
                ("gauge.dkv-identity", 1e-10), ("gauge.xz-consistency", 1e-12),
                ("gauge.potential-endpoints", 1e-13), ("gauge.wl-reduction", 1e-12)],
    )


def test_criterion_10_structure_constants():
    results = verify.check_constants()
    _report(
        "criterion 10: structure-constant identities; derived d = -4 at "
        "z_T = 2 (1e-8)",
        results,
        checks=[("constants.c00-identity", 1e-14), ("constants.d-closed-form", 1e-8),
                ("constants.d-at-zt2", 1e-8), ("constants.o00-value", 1e-12)],
    )


def test_criterion_11_zero_energy_separatrix():
    results = verify.check_separatrix()
    _report(
        "criterion 11: on the zero-energy separatrices mu_o = 2m + 1 +/- lambda_o "
        "the lambda1 cubic has the root 0 and its transfer |lambda0| = lambda_o (1e-9)",
        results,
        checks=[("cubic.zfe-separatrix", 1e-9)],
    )


def test_criterion_12_susy_algebra():
    results = verify.check_susy_algebra()
    _report(
        "criterion 12: pair-root forms (1e-12), Delta O1 forms, Wronskian "
        "and first-order reciprocal identities (1e-10)",
        results,
        checks=[("susy.pair-root-consistency", 1e-12), ("susy.delta-o1-forms", 1e-10),
                ("susy.wronskian-identity", 1e-10), ("susy.suzko-reciprocal", 1e-10)],
    )


def test_criterion_13_large_m_slopes():
    results = verify.check_tau()
    _report(
        "criterion 13: large-m slopes are roots of the slope cubic and pair "
        "by -/+ sqrt(c0) (1e-12); discriminant limit (1e-2 relative)",
        results,
        checks=[("tau.cubic-roots", 1e-12), ("tau.pair-relation", 1e-12),
                ("tau.discriminant-limit", 0.01)],
    )
