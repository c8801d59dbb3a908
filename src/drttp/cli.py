"""Command-line front end.

Subcommands: spectrum | tabulate | partner | verify | wl | census.
Exit codes: 0 ok, 1 verification failure, 2 bad parameters, 3 rejected
construction.  ``spectrum`` writes JSON (versioned schema) or CSV,
``tabulate`` CSV and the others JSON; a format a command cannot write is
a bad parameter.  Identical configurations produce identical bytes.

One parameter path: :func:`_resolve_params` turns flags over the config file
into a :class:`RayIdentifiers` and a :class:`TangentPoly` once, and those
types check the values.  One emitter per format: every JSON document goes
through :func:`_emit_json`, every CSV table through :func:`_emit_csv`.
Only ``tabulate``, ``partner`` and ``verify`` import the array modules, so
``spectrum``, ``wl`` and ``census`` start without NumPy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

from . import spectral
from .errors import DomainError, DrttpError, PairRejectedError
from .params import RayIdentifiers, TangentPoly
from .spectral import Kind

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_PARAMS = 2
EXIT_REJECTED = 3

_KIND_BY_NAME = {
    "c0": Kind.C,
    "d0": Kind.D,
    "a0": Kind.A,
    "b0": Kind.B,
    "t0": None,  # the regular basic solution, spectral.regular_kind
}


def _fmt_float(x) -> str:
    # an int (spectrum's n) prints as str prints it
    return format(float(x), ".17g")


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DrttpError(f"bad config line: {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _resolve_params(args, formats=("json",)) -> tuple[RayIdentifiers, TangentPoly, str]:
    """The run's parameter types and output format, from flags over the
    config file; ``formats`` are the formats the command writes, its
    default first."""
    file_vals = _load_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name, cast, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return cast(flag)
        if name in file_vals:
            return cast(file_vals[name])
        if default is not None:
            return default
        raise DrttpError(f"missing required parameter {name.replace('_', '-')}")

    ri = RayIdentifiers(pick("lambda_o", float), pick("mu_o", float))
    tp = TangentPoly(pick("zt", float))
    fmt = pick("format", str, formats[0])
    if fmt not in formats:
        raise DrttpError(f"{args.command} writes {' or '.join(formats)}, not {fmt}")
    return ri, tp, fmt


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params(ri: RayIdentifiers, tp: TangentPoly) -> dict:
    return {"lambda_o": ri.lambda_o, "mu_o": ri.mu_o, "z_T": tp.z_T}


def _emit_json(args, ri, tp, **body):
    """Write ``body`` as a JSON document with the schema version and, when
    the run has parameters (``ri`` is not None), its ``params``."""
    doc = {"schema_version": SCHEMA_VERSION, **body}
    if ri is not None:
        doc["params"] = _params(ri, tp)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)


def _emit_csv(args, comments, names, rows):
    """Write the ``comments`` lines, the column ``names`` and one line of
    numbers per row."""
    lines = [*comments, ",".join(names)]
    lines += [",".join(map(_fmt_float, row)) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)


def _solution_row(s, **extra) -> dict:
    return {"lambda0": s.lambda0, "lambda1": s.lambda1, "mu": s.mu,
            "epsilon": s.epsilon, **extra}


def cmd_spectrum(args) -> int:
    ri, tp, fmt = _resolve_params(args, ("json", "csv"))
    if args.n is not None and args.n < 0:
        raise DomainError(f"--n must be >= 0, got {args.n}")
    levels = [_solution_row(s, n=s.m, E=s.epsilon) for s in spectral.spectrum(ri, tp)[: args.n]]
    if fmt == "csv":
        names = ("n", "lambda0", "lambda1", "mu", "epsilon", "E")
        _emit_csv(args, (), names, ([lv[k] for k in names] for lv in levels))
    else:
        _emit_json(args, ri, tp, n0=len(levels), levels=levels,
                   gauge={"convention": "V(+inf) = 0, hbar^2/2m = 1", "E": "epsilon"})
    return EXIT_OK


def _parse_partner_request(spec_str: str, ri, tp):
    """'c0' -> single-step spec; 'd0+t0' / 'd0,c0-pair' style -> double."""
    from . import susy

    basics = spectral.basic_solutions(ri, tp)

    def lookup(token):
        token = token.strip().lower()
        if token not in _KIND_BY_NAME:
            raise DrttpError(f"unknown factorization function {token!r}")
        kind = _KIND_BY_NAME[token] or spectral.regular_kind(tp)
        if kind not in basics:
            raise DrttpError(f"basic solution {token!r} not available here")
        return basics[kind]

    tokens = [t for t in spec_str.replace("-pair", "").replace(",", "+").split("+") if t]
    if len(tokens) == 1:
        return susy.single_partner_spec(lookup(tokens[0]), tp)
    if len(tokens) == 2:
        return susy.double_partner_spec(lookup(tokens[0]), lookup(tokens[1]), tp)
    raise DrttpError("partner request must name one or two factorization functions")


def cmd_tabulate(args) -> int:
    import numpy as np

    from . import core, susy, wavefunction

    ri, tp, _ = _resolve_params(args, ("csv",))
    if not (math.isfinite(args.x_min) and math.isfinite(args.x_max)):
        raise DomainError(
            f"--x-min and --x-max must be finite, got {args.x_min} and {args.x_max}")
    if args.points < 0:
        raise DomainError(f"--points must be >= 0, got {args.points}")
    xs = np.linspace(args.x_min, args.x_max, args.points)
    columns = [("x", xs), ("V", core.potential_eval_x(xs, ri, tp))]
    if args.psi:
        sols = spectral.spectrum(ri, tp)
        for tok in args.psi.split(","):
            n = int(tok)
            if not 0 <= n < len(sols):
                raise DomainError(f"--psi level {n} out of range [0, {len(sols)})")
            columns.append((f"psi{n}", wavefunction.solution_eval_x(xs, sols[n], ri, tp)))
    if args.partner:
        spec = _parse_partner_request(args.partner, ri, tp)
        V = susy.partner_potential_x(spec, ri, tp)
        label = "Vpartner_" + args.partner.replace(",", "+").replace(" ", "")
        columns.append((label, V(xs)))
    comments = (
        f"# schema_version={SCHEMA_VERSION}",
        "# " + " ".join(f"{k}={_fmt_float(v)}" for k, v in _params(ri, tp).items()),
        f"# x_min={_fmt_float(args.x_min)} x_max={_fmt_float(args.x_max)} "
        f"points={args.points}",
    )
    names, values = zip(*columns)
    _emit_csv(args, comments, names, zip(*values))
    return EXIT_OK


def cmd_partner(args) -> int:
    ri, tp, _ = _resolve_params(args)
    spec = _parse_partner_request(args.ff, ri, tp)
    _emit_json(args, ri, tp, steps=spec.steps, outer_pole=spec.outer_pole,
               ff=[_solution_row(s, kind=s.kind.value) for s in spec.ff_kinds],
               expected_spectral_delta=sorted(spec.expected_spectral_delta))
    return EXIT_OK


def cmd_wl(args) -> int:
    ri, tp, _ = _resolve_params(args)
    if ri.lambda_o != 0.0:
        raise DrttpError("the levelled-limit solver requires lambda-o = 0")
    n0 = spectral.bound_state_count(ri)
    degrees = [args.m] if args.m is not None else range(max(n0, 1))
    rows = [_solution_row(s, m=s.m, kind=s.kind.value)
            for m in degrees for s in spectral.wl_solve(m, ri.mu_o, tp)]
    _emit_json(args, ri, tp, n0=n0, solutions=rows)
    return EXIT_OK


def cmd_census(args) -> int:
    ri, tp, _ = _resolve_params(args)
    _emit_json(args, ri, tp, **asdict(spectral.nodeless_census(ri, tp)))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    timings = {} if args.timings else None
    results = verify.run_verification(only=args.only, timings=timings)
    all_passed = all(r.passed for r in results)
    _emit_json(args, None, None, checks=[asdict(r) for r in results], all_passed=all_passed)
    for r in results:
        print(r.line(), file=sys.stderr)
    for name, seconds in (timings or {}).items():
        print(f"[TIME] {name}: {seconds:.3f} s", file=sys.stderr)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--lambda-o", dest="lambda_o", type=float, default=None)
    p.add_argument("--mu-o", dest="mu_o", type=float, default=None)
    p.add_argument("--zt", dest="zt", type=float, default=None)
    p.add_argument("--format", dest="format", choices=("json", "csv"), default=None)
    p.add_argument("--out", dest="out", default=None)
    p.add_argument("--config", dest="config", default=None,
                   help="flat key = value config file; flags override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drttp",
        description="Closed-form spectra, eigenfunctions and Darboux "
                    "partners for the DKV family of solvable potentials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form discrete spectrum")
    _add_param_flags(p)
    p.add_argument("--n", type=int, default=None,
                   help="emit at most this many levels")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tabulate", help="CSV table of V(x) and friends")
    _add_param_flags(p)
    p.add_argument("--x-min", type=float, default=-15.0)
    p.add_argument("--x-max", type=float, default=15.0)
    p.add_argument("--points", type=int, default=601)
    p.add_argument("--psi", default=None, help="comma list of level indices")
    p.add_argument("--partner", default=None,
                   help="factorization function(s): c0 | t0 | d0 | d0+t0 ...")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("partner", help="partner-construction report")
    _add_param_flags(p)
    p.add_argument("--ff", required=True,
                   help="factorization function(s): c0 | t0 | d0 | d0+t0 ...")
    p.set_defaults(func=cmd_partner)

    p = sub.add_parser("wl", help="levelled-limit closed-form solutions")
    _add_param_flags(p)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_wl)

    p = sub.add_parser("census", help="nodeless below-ground census")
    _add_param_flags(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--only", default=None, help="check-group name prefix filter")
    p.add_argument("--out", default=None)
    p.add_argument("--timings", action="store_true",
                   help="print each group's wall seconds to stderr")
    p.set_defaults(func=cmd_verify)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every in-process call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PairRejectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (DrttpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
