"""The package surface: exported names, lazy submodules, the NumPy-free
cold path, the checks of the parameter types and the input guards of the
public functions."""

import ast
import functools
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
from drttp.spectral import Kind

SRC = os.path.dirname(os.path.dirname(drttp.__file__))

# every name `import drttp` exports, by the module that defines it
EXPORTS = {
    "errors": ("AvailabilityError", "ClassificationError", "ConvergenceError",
               "DegenerateLimitError", "DomainError", "DrttpError", "GaugeError",
               "PairRejectedError"),
    "params": ("RayIdentifiers", "TangentPoly"),
    "spectral": ("AehSolution", "Kind", "basic_solutions", "bound_state_count",
                 "nodeless_census", "spectrum", "wl_solve"),
    "core": ("dkv_map", "dkv_potential_eval", "eta_hat_of_x", "map_x_to_z",
             "potential_eval_x", "potential_eval_z", "schwarzian_eval", "tangent_poly_eval",
             "x_of_z"),
    "oracle": ("NumericSpectrum", "solve_schrodinger"),
    "susy": ("HeunOperator", "HeunPolynomial", "PartnerSpec",
             "double_partner_spec", "double_step_ff_eval", "heun_operator",
             "heun_poly_construct", "nodeless_predicate", "outer_root_ztt",
             "partner_correction_z", "partner_potential_x", "single_partner_spec"),
    "wavefunction": ("aeh_eval", "count_nodes", "factor_roots_in_01", "solution_eval_x",
                     "solution_norm_sq"),
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


def _private_uses(filename: str) -> tuple[set, set]:
    """The drttp modules that ``filename`` imports by name, and its uses of
    their private parts: (module, name) for each private name it reads and
    (module, function, keyword) for each private keyword it passes."""
    with open(os.path.join(SRC, "drttp", filename)) as fh:
        tree = ast.parse(fh.read())
    modules, imported, uses = set(), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules |= {a.asname or a.name for a in node.names}
            else:
                imported |= {a.asname or a.name: (node.module, a.name) for a in node.names}
                uses |= {(node.module, a.name) for a in node.names if a.name.startswith("_")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            uses.add((node.value.id, node.attr))
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in modules):
                callee = (f.value.id, f.attr)
            elif isinstance(f, ast.Name) and f.id in imported:
                callee = imported[f.id]
            else:
                continue
            uses |= {callee + (k.arg,) for k in node.keywords
                     if k.arg is not None and k.arg.startswith("_")}
    return modules, uses


def test_verify_reads_no_private_name_of_another_module():
    # verify and the CLI use the library through its public names and
    # keywords; the one private read is the general-branch map solver that
    # map.fastpath-vs-general compares the z_T = 2 closed form against
    modules, uses = _private_uses("verify.py")
    assert modules >= {"core", "oracle", "spectral", "susy", "wavefunction"}
    assert uses == {("core", "_map_newton")}
    modules, uses = _private_uses("cli.py")
    assert modules >= {"core", "spectral", "susy", "wavefunction"}
    assert uses == set()


def _reads(node, enclosing=frozenset()):
    """The names read under ``node``: the ids of Name loads, the attrs of
    Attribute loads and the modules of ``from .module import`` statements,
    leaving out those of a function or class inside its own definition."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    elif isinstance(node, ast.ImportFrom) and node.level == 1:
        name = node.module
    else:
        name = None
    if name is not None and name not in enclosing:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, enclosing)


def _library_trees():
    """The parsed source of every module of the library."""
    for filename in sorted(os.listdir(os.path.join(SRC, "drttp"))):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, "drttp", filename)) as fh:
                yield ast.parse(fh.read())


def test_every_exported_name_has_a_reader_in_the_library():
    # a name the library exports but never reads itself is surface that the
    # computation does not use
    read = set()
    for tree in _library_trees():
        read |= set(_reads(tree))
    assert sorted(set(drttp.__all__) - read) == []


def test_every_exported_exception_type_has_a_raise_site():
    # an exported exception type that no statement of the library raises is
    # a type no caller can meet
    raised = set()
    for tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    types = {name for name in drttp.__all__ if isinstance(getattr(drttp, name), type)
             and issubclass(getattr(drttp, name), BaseException)}
    assert types and sorted(types - raised) == []


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

    def test_fields_stored_as_float(self):
        # a float32 field made the spectrum's Newton solve run in single
        # precision and raise ConvergenceError
        args = (np.float32(0.5), np.float32(7.3)), np.float32(2.0)
        ri, tp = drttp.RayIdentifiers(*args[0]), drttp.TangentPoly(args[1])
        assert [type(v) for v in (ri.lambda_o, ri.mu_o, tp.z_T)] == [float] * 3
        want = drttp.spectrum(drttp.RayIdentifiers(*map(float, args[0])),
                              drttp.TangentPoly(float(args[1])))
        assert len(want) == 3
        assert drttp.spectrum(ri, tp) == want

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


def _bad_inputs():
    """(id, call) for each bad input of each function with an input guard:
    the pair (z, 1 - z) outside [0, 1], NaN or unpaired, a negative degree
    or a non-finite mu_o, energy, eta^ or x."""
    tp, ri = drttp.TangentPoly(2.0), drttp.RayIdentifiers(0.0, 5.0)
    basics = drttp.basic_solutions(ri, tp)
    spec = drttp.single_partner_spec(basics[Kind.C], tp)
    pair_functions = {
        "schwarzian_eval": functools.partial(drttp.schwarzian_eval, tp=tp),
        "dz_dx": functools.partial(core.dz_dx, tp=tp),
        "partner_correction_z": functools.partial(drttp.partner_correction_z,
                                                  spec=spec, tp=tp),
        "aeh_eval": functools.partial(drttp.aeh_eval, sol=basics[Kind.C]),
        "double_step_ff_eval": functools.partial(drttp.double_step_ff_eval, t=basics[Kind.C],
                                                 t_prime=basics[Kind.A], tp=tp),
        "HeunPolynomial.jet": drttp.HeunPolynomial((1.0, -2.0, 0.5), 2, False).jet,
        "hypergeom_poly_jacobi": functools.partial(drttp.wavefunction.hypergeom_poly_jacobi,
                                                   2, 1.0, 2.0),
    }
    pairs = [(math.nan, math.nan), (math.inf, -math.inf), (-math.inf, math.inf),
             (1.5, -0.5), (0.3, 0.9)]
    cases = [(f"{name}-{z}-{omz}", functools.partial(f, z, omz))
             for name, f in pair_functions.items() for z, omz in pairs]
    cases += [(f"nodeless_predicate-{kind.value}-{m}-{mu_o}",
               functools.partial(drttp.nodeless_predicate, kind, m, mu_o, tp))
              for kind, m, mu_o in ((Kind.A, -1, 5.0), (Kind.C, 1, math.nan),
                                    (Kind.C, 1, math.inf))]
    cases += [(f"heun_operator-{eps}",
               functools.partial(drttp.heun_operator, eps, spec, (1, 1, -1), ri, tp))
              for eps in (math.nan, -math.inf)]
    cases += [(f"{f.__name__}-{v}", functools.partial(f, v, *args))
              for f, args in ((drttp.dkv_potential_eval, (2.5, 1.5)), (drttp.eta_hat_of_x, ()))
              for v in (math.nan, math.inf, -math.inf)]
    # finite z_T whose (1 - z_T)**2 overflows
    cases += [(f"TangentPoly-{z_T}", functools.partial(drttp.TangentPoly, z_T))
              for z_T in (1e155, -1e155)]
    return cases


BAD_INPUTS = _bad_inputs()


@pytest.mark.parametrize("call", [c for _, c in BAD_INPUTS], ids=[i for i, _ in BAD_INPUTS])
def test_bad_input_raises_domain_error(call):
    # RuntimeWarning is an error (pyproject.toml), so an input that gets past
    # its guard fails here whether the formula warns or returns a value
    with pytest.raises(DomainError):
        call()
