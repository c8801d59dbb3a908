"""The package surface: exported names, lazy submodules, the NumPy-free
cold path and the checks of the parameter types."""

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import drttp
from drttp import core, params
from drttp.errors import DomainError

SRC = os.path.dirname(os.path.dirname(drttp.__file__))

# every name `import drttp` exports, by the module that defines it
EXPORTS = {
    "errors": ("AvailabilityError", "ClassificationError", "ConvergenceError",
               "DegenerateLimitError", "DomainError", "DrttpError", "GaugeError",
               "PairRejectedError", "PoleError", "TransferAmbiguityError"),
    "params": ("RayIdentifiers", "TangentPoly"),
    "spectral": ("AehSolution", "CubicSpec", "CubicVariable", "Kind", "Region",
                 "TransferDirection", "asymptotic_tau", "basic_solutions",
                 "bound_state_count", "classify_region", "cubic_coeffs",
                 "expdiff_transfer", "nodeless_census", "real_cubic_roots",
                 "spectrum", "wl_solve"),
    "core": ("dkv_inverse", "dkv_map", "dkv_potential_eval", "eta_hat_of_x",
             "map_x_to_z", "potential_eval_x", "potential_eval_z", "schwarzian_eta",
             "schwarzian_eval", "tangent_poly_eval", "x_of_z"),
    "oracle": ("NumericSpectrum", "compare_spectra", "solve_schrodinger",
               "spectral_symmetric_difference"),
    "susy": ("HeunOperator", "HeunPolynomial", "PartnerSpec", "StructureConstants",
             "b2_factor_check", "basic_ff_eval", "double_partner_spec",
             "double_step_ff_eval", "heun_operator", "heun_poly_construct",
             "lambe_ward_eval", "nodeless_predicate", "outer_root_ztt",
             "partner_correction_z", "partner_potential_x", "single_partner_spec",
             "structure_constants"),
    "wavefunction": ("PolyFactor", "aeh_eval", "count_nodes", "eigenfunction_eval_x",
                     "hypergeom_poly_eval", "poly_factor", "solution_eval_x"),
}
NAMES = sorted({n for names in EXPORTS.values() for n in names} | set(EXPORTS))


def run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this source tree."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return proc.stdout


class TestLazySurface:
    def test_all_is_the_frozen_list(self):
        assert drttp.__all__ == NAMES

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_the_submodule_objects(self, module):
        mod = importlib.import_module(f"drttp.{module}")
        assert getattr(drttp, module) is mod
        for name in EXPORTS[module]:
            assert getattr(drttp, name) is getattr(mod, name), name

    def test_dir_lists_every_name(self):
        assert set(NAMES) <= set(dir(drttp))

    def test_star_import_binds_every_name(self):
        ns = {}
        exec("from drttp import *", ns)
        assert set(NAMES) <= set(ns)
        assert ns["solve_schrodinger"] is drttp.oracle.solve_schrodinger

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            drttp.no_such_name
        assert not hasattr(drttp, "verify_all")

    def test_parameter_types_are_shared(self):
        assert core.TangentPoly is drttp.TangentPoly is params.TangentPoly
        assert core.RayIdentifiers is drttp.RayIdentifiers is params.RayIdentifiers

    def test_submodules_reachable_after_bare_import(self):
        out = run_fresh("import drttp; print(drttp.oracle.__name__, drttp.core.__name__)")
        assert out.split() == ["drttp.oracle", "drttp.core"]


COLD_PATH = """
import contextlib, io, sys
import drttp
from drttp import cli
ri, tp = drttp.RayIdentifiers(0.5, 7.3), drttp.TangentPoly(2.0)
assert len(drttp.spectrum(ri, tp)) == 3
drttp.basic_solutions(ri, tp)
drttp.nodeless_census(ri, tp)
drttp.wl_solve(1, 7.3, tp)
args = ["--lambda-o", "0.5", "--mu-o", "7.3", "--zt", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["spectrum", *args]), cli.main(["census", *args]),
             cli.main(["wl", "--lambda-o", "0", "--mu-o", "7.3", "--zt", "2"])]
assert codes == [0, 0, 0], codes
print("numpy" in sys.modules)
drttp.solution_eval_x
print("numpy" in sys.modules)
"""


def test_cold_path_loads_no_numpy():
    # import, the closed-form spectral layer and the scalar CLI commands run
    # without NumPy; the first array function loads it
    assert run_fresh(COLD_PATH).split() == ["False", "True"]


class TestParameterChecks:
    @pytest.mark.parametrize("cast", [float, np.float64, np.float32, int])
    def test_numeric_types_accepted(self, cast):
        ri = drttp.RayIdentifiers(cast(1), cast(7))
        assert (ri.lambda_o, ri.mu_o, ri.f0) == (1.0, 7.0, 48.0)
        assert drttp.TangentPoly(cast(2)).c0 == 4.0
        assert drttp.TangentPoly(cast(-1)).z_T == -1.0

    @pytest.mark.parametrize("lambda_o, mu_o", [
        (math.nan, 5.0), (math.inf, 5.0), (-math.inf, 5.0), (-0.5, 5.0), (-1, 5),
        (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf), (0.0, 0.0), (0, -1),
        (np.float64(math.nan), 5.0), (np.float32(-1.0), 5.0), (0.0, np.float32(0.0)),
    ])
    def test_bad_ray_identifiers_raise(self, lambda_o, mu_o):
        with pytest.raises(DomainError):
            drttp.RayIdentifiers(lambda_o, mu_o)

    @pytest.mark.parametrize("z_T", [
        math.nan, math.inf, -math.inf, 0.0, 0.5, 1.0, 0, 1,
        np.float64(0.5), np.float32(1.0), np.float64(math.nan),
    ])
    def test_bad_double_root_raises(self, z_T):
        with pytest.raises(DomainError):
            drttp.TangentPoly(z_T)
