"""drttp benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 30 --trace 0

Workloads are ``crossval``, ``closedform`` and ``tabulate`` (see
``workloads.py`` and ``README.md``).  The library is imported from ``src/``
of the same checkout.  Human-readable results and the environment go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run repeats
its ops with every traced function wrapped and reports per-layer metrics
and the tracing overhead.  A full report (and, traced, every span) is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 5
# share of op time spent on the reference kernel (see REFERENCE)
REF_SHARE = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "DRTTP_THREADS")

# what a user waits for before the first answer: a fresh interpreter,
# `import drttp` and one spectrum() call (CLI cold start is about the same)
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import drttp; "
    "drttp.spectrum(drttp.RayIdentifiers(0.5, 7.0), drttp.TangentPoly(2.0)); "
    "print('ready', flush=True)"
)

# per workload: (what one item is, name of the throughput in the report)
ITEMS = {
    "crossval": ("point", "crossval_points_per_s"),
    "closedform": ("draw", "closedform_draws_per_s"),
    "tabulate": ("tabulated value", "tabulate_values_per_s"),
}


def measure_setup(repeats: int) -> list[float]:
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def interpreter_kernel() -> float:
    """Python loops and NumPy calls on 257-point arrays, like the library's
    per-call work in `closedform`."""
    x = np.linspace(-3.0, 3.0, 257)
    acc = 0.0
    for k in range(40):
        acc += float(np.exp(-x * x * (1.0 + k / 40.0)).sum())
        acc += math.fsum(j * 0.5 for j in range(50))
    return acc


_GRID = np.linspace(-40.0, 40.0, 160001)


def array_kernel() -> float:
    """Array arithmetic and a LAPACK tridiagonal eigensolve on a grid the
    size of the oracle's, like the large-array work that dominates
    `crossval` and `tabulate`."""
    from scipy.linalg import eigh_tridiagonal

    h = _GRID[1] - _GRID[0]
    v = -5.0 / np.cosh(_GRID) ** 2
    d = 2.0 / h**2 + v[1:-1]
    w, _ = eigh_tridiagonal(d, np.full(len(d) - 1, -1.0 / h**2),
                            select="i", select_range=(0, 1), tol=1e-13)
    return float(w[0])


# Reference kernels use no drttp code.  On a shared host the speed of the
# moment drifts by +-20 % within seconds and between runs, by different
# amounts for interpreter-bound and array-bound work; each workload is
# timed against the kernel of its own kind, with its speed on a nominal
# host in kernel calls per second.
REFERENCE = {
    "crossval": (array_kernel, 6.0),
    "closedform": (interpreter_kernel, 3000.0),
    "tabulate": (array_kernel, 6.0),
}


def run_pass(workload: str, seed: int, seconds: float | None = None,
             n_ops: int | None = None, tracer=None) -> dict:
    """Issue ops back to back: whole cycles until ``seconds`` have passed,
    or exactly ``n_ops`` ops.  Between ops, the workload's reference kernel
    runs for REF_SHARE of the time the ops took, so both see the same host
    speed."""
    import workloads
    from drttp.errors import DrttpError

    params_of, op, cycle = workloads.WORKLOADS[workload]
    kernel = REFERENCE[workload][0]
    st = workloads.Stats()
    lat_ns, failures, reasons = [], [], {}
    items = crashes = 0
    ref_units = ref_ns = ref_debt = 0
    start = time.perf_counter_ns()
    deadline = start + int((seconds or 0) * 1e9)
    i = 0
    while i < n_ops if n_ops is not None else (i % cycle or time.perf_counter_ns() < deadline):
        p = params_of(seed, i)
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter_ns()
        try:
            n, why = op(p, st)
        except DrttpError as exc:
            n, why = 0, [f"drttp_error:{type(exc).__name__}"]
        except Exception as exc:  # a crash outside the library's error types
            n, why = 0, [f"crash:{type(exc).__name__}"]
            crashes += 1
        lat_ns.append(time.perf_counter_ns() - t0)
        items += n
        if why:
            failures.append({"op": i, "params": p, "reasons": why})
            for r in why:
                reasons[r] = reasons.get(r, 0) + 1
        i += 1
        ref_debt += REF_SHARE * lat_ns[-1]
        while ref_debt > 0:
            r0 = time.perf_counter_ns()
            kernel()
            d = time.perf_counter_ns() - r0
            ref_units, ref_ns, ref_debt = ref_units + 1, ref_ns + d, ref_debt - d
    op_s = sum(lat_ns) / 1e9
    return {"workload": workload, "ops": i, "items": items, "op_s": op_s,
            "items_per_s": items / op_s, "ref_units_per_s": ref_units / (ref_ns / 1e9),
            "wall_s": (time.perf_counter_ns() - start) / 1e9, "lat_ns": lat_ns,
            "failed": len(failures), "failed_ops": failures, "reasons": reasons,
            "crashes": crashes, "counts": st.counts, "worst": st.worst}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def e2e(res: dict) -> dict:
    """Items per second at the nominal host speed."""
    nominal = REFERENCE[res["workload"]][1]
    return {"throughput_per_s": res["items_per_s"] * nominal / res["ref_units_per_s"]}


def report_metrics(workload: str, res: dict) -> dict:
    """The metrics named per workload, for the human-readable report."""
    out = {ITEMS[workload][1]: res["items_per_s"],
           "reference_calls_per_s": res["ref_units_per_s"]}
    lat_us = [x / 1e3 for x in res["lat_ns"]]
    out[f"{workload}_p50_us"] = statistics.median(lat_us)
    # highest percentile with at least ten samples beyond it
    if len(lat_us) >= 1000:
        out[f"{workload}_p99_us"] = percentile(lat_us, 99)
    elif len(lat_us) >= 100:
        out[f"{workload}_p90_us"] = percentile(lat_us, 90)
    out[f"{workload}_fail_frac"] = res["failed"] / max(1, res["ops"])
    if workload == "crossval":
        out["crossval_worst_rel_err"] = res["worst"].get("level_rel_err", 0.0)
    if workload == "tabulate":
        out["tabulate_worst_gram"] = res["worst"].get("gram", 0.0)
        out["tabulate_worst_norm_rel"] = res["worst"].get("norm_rel", 0.0)
    return out


def layer_metrics(tracer, res: dict) -> dict:
    agg = tracer.aggregate()

    def per(key, scale, field="busy_ns", base="work"):
        st = agg.get(key)
        return st[field] / scale / st[base] if st and st[base] else 0.0

    def get(key, field):
        return agg.get(key, {}).get(field, 0)

    m = {}
    for fn in ("map_x_to_z", "map_x_to_z_pair", "potential_eval_x"):
        for branch in ("zt2", "general"):
            m[f"core.{fn}.{branch}.ns_per_point"] = per(f"core.{fn}.{branch}", 1)
    m["core.potential_eval_x.points"] = (get("core.potential_eval_x.zt2", "work")
                                         + get("core.potential_eval_x.general", "work"))
    solve = "oracle.solve_schrodinger"
    m[f"{solve}.self_s"] = get(solve, "self_ns") / 1e9
    m[f"{solve}.solves"] = get(solve, "calls")
    m[f"{solve}.grid_points"] = res["counts"].get("oracle_grid_points", 0)
    m[f"{solve}.widenings"] = res["counts"].get("oracle_widenings", 0)
    m[f"{solve}.v_points"] = res["counts"].get("oracle_v_points", 0)
    for deg in ("m_le_25", "m_gt_25"):
        m[f"wavefunction.solution_eval_x.{deg}.ns_per_point"] = per(
            f"wavefunction.solution_eval_x.{deg}", 1)
    norm = "wavefunction.eigenfunction_norm_sq"
    m[f"{norm}.us_per_call"] = per(norm, 1e3, base="calls")
    m[f"{norm}.integrand_calls"] = tracer.child_calls(norm, "wavefunction.solution_eval_x")
    m["wavefunction.count_nodes.s"] = get("wavefunction.count_nodes", "busy_ns") / 1e9
    m["wavefunction.count_nodes.fails"] = res["counts"].get("count_nodes_fails", 0)
    m["spectral.spectrum.us_per_call"] = per("spectral.spectrum", 1e3, base="calls")
    m["spectral.spectrum.levels"] = get("spectral.spectrum", "work")
    m["spectral.basic_solutions.us_per_call"] = per("spectral.basic_solutions", 1e3,
                                                    base="calls")
    m["susy.partner_potential_x.ns_per_point"] = per("susy.partner_potential_x", 1)
    m["susy.heun_poly_construct.us_per_call"] = per("susy.heun_poly_construct", 1e3,
                                                    base="calls")
    for sub in ("spectrum", "partner"):
        m[f"cli.main.{sub}.us_per_call"] = per(f"cli.main.{sub}", 1e3, base="calls")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ITEMS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "drttp" / "__init__.py").is_file():
        print(f"error: no drttp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans  # noqa: E402  (imports drttp)

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "item": ITEMS[args.workload][0],
              "env": env, "seconds": args.seconds}

    if args.trace == 0:
        setup = measure_setup(SETUP_REPEATS)
        res = run_pass(args.workload, args.seed, seconds=args.seconds)
        metrics = e2e(res)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["setup_runs_s"] = setup
        units = {"throughput_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        # same ops twice: plain for half the time, then with tracing on
        plain = run_pass(args.workload, args.seed, seconds=args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install(spans.drttp_modules())
        try:
            res = run_pass(args.workload, args.seed, n_ops=plain["ops"], tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, res)
        base, traced = e2e(plain), e2e(res)
        for k in base:
            metrics[f"trace_overhead.{k}"] = traced[k] - base[k]
        report["untraced"] = {k: v for k, v in plain.items() if k != "lat_ns"}
        report["untraced_e2e"], report["traced_e2e"] = base, traced
        report["layers"] = tracer.aggregate()
        tracer.dump(stem.with_suffix(".spans.jsonl.gz"))
        units = {}

    named = report_metrics(args.workload, res)
    report.update({k: v for k, v in res.items() if k != "lat_ns"})
    report["op_ms"] = [round(x / 1e6, 3) for x in res["lat_ns"]]
    report["named_metrics"], report["metrics"] = named, metrics
    stem.with_suffix(".json").write_text(json.dumps(report, sort_keys=True) + "\n")

    print(f"workload {args.workload}: {res['ops']} ops, {res['items']} "
          f"{ITEMS[args.workload][0]}s in {res['op_s']:.3f} s of ops "
          f"({res['wall_s']:.3f} s wall), seed {args.seed}")
    for k, v in env.items():
        print(f"env {k} = {v}")
    for k, v in sorted(named.items()):
        print(f"{k} = {v:.6g}")
    for k, v in sorted(res["reasons"].items()):
        print(f"failure {k}: {v} of {res['ops']} ops")
    for k, v in sorted(res["counts"].items()):
        print(f"count {k} = {v}")

    # every op was checked; an exception outside the library's own error
    # types is a wrong output that no check anticipated
    result = {
        "correct": res["crashes"] == 0,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("ns_per_point", "ns"), ("us_per_call", "us"), ("self_s", "s"),
                         ("count_nodes.s", "s"), ("throughput_per_s", "1/s")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
