"""Acceptance suite: one criterion per test, one printed line per criterion.

Every criterion runs at its stated tolerance through the shared
verification battery; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math

from drttp import verify
from drttp.core import RayIdentifiers, TangentPoly
from drttp.spectral import spectrum


def _report(criterion: str, results, extra_ok: bool = True) -> None:
    ok = extra_ok and all(r.passed for r in results)
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    for r in results:
        print("   " + r.line())
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
    results = verify.check_cubic(n_draws=1000)
    _report(
        "criterion 3: cross-cubic consistency and discriminant-sign "
        "agreement on 1000 draws",
        results,
    )


def test_criterion_04_eigenfunction_suite():
    results = verify.check_eigenfunctions()
    _report(
        "criterion 4: node counts, orthogonality (1e-7), exact Schrodinger "
        "residual (1e-10, degrees <= 29 included), argument-flip identity (1e-10)",
        results,
    )


def test_criterion_05_susy_spectral_surgery():
    results = verify.check_susy_surgery()
    _report(
        "criterion 5: partner spectra differ from the base only by the "
        "factorization energies (1e-5)",
        results,
    )


def test_criterion_06_heun_residuals():
    results = verify.check_heun(m_max=5)
    _report(
        "criterion 6: Heun polynomials and quasi-algebraic kernels "
        "annihilated (1e-9); exponent-sum identity (1e-12)",
        results,
    )


def test_criterion_07_appendix_a():
    results = verify.check_appendix_a(n_draws=100)
    _report(
        "criterion 7: basic-pair factorization identity (1e-10) and zero "
        "condition (1e-12) on 100 draws",
        results,
    )


def test_criterion_08_appendix_b():
    results = verify.check_appendix_b()
    _report(
        "criterion 8: nodelessness predicates match brute-force node "
        "counting exactly on 1332 configurations of the 30x8 grid at "
        "c0 in {1/4, 4}",
        results,
    )


def test_criterion_09_map_and_gauge():
    results = (
        verify.check_map() + verify.check_schwarzian() + verify.check_gauge()
    )
    _report(
        "criterion 9: map/ODE identity (1e-10), elementary-gauge identity "
        "(1e-10), Schwarzian FD (1e-6), fast path (1e-12)",
        results,
    )


def test_criterion_10_structure_constants():
    results = verify.check_constants()
    _report(
        "criterion 10: structure-constant identities; derived d = -4 at "
        "z_T = 2 (1e-8)",
        results,
    )
