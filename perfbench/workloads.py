"""The three benchmark workloads: input generation, calls and checks.

Every workload is a closed loop with one client: op ``i`` is issued after
op ``i - 1`` returned.  Ops come in cycles of fixed composition (the
``SLOTS`` tables); the seed draws each slot's parameters inside the slot's
ranges.  A fixed composition keeps the cost of a run steady from one seed
to the next, because the cost of an op depends on the branch of ``z_T``,
the number of levels and the distance of the top level from threshold far
more than on the exact draw.

An op's checks return failure reasons; an op fails if it has any.  Nothing
is skipped or drawn again after a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from drttp import cli, core, oracle, spectral, susy, wavefunction
from drttp.errors import ConvergenceError, DrttpError, PairRejectedError
from drttp.spectral import Kind

# oracle settings exactly as `drttp verify` uses them
ORACLE_DOMAIN = (-40.0, 40.0)
ORACLE_H = 5e-4
ORACLE_METHOD = "fd2"
LEVEL_REL_TOL = 1e-6
PARTNER_ABS_TOL = 1e-5
GRAM_TOL = 1e-7


@dataclass
class Stats:
    """Accumulators shared by the ops of one pass."""

    counts: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def worse(self, key, value):
        self.worst[key] = max(self.worst.get(key, 0.0), float(value))


def expected_levels(lambda_o: float, mu_o: float) -> int:
    """ceil((mu_o - lambda_o - 1)/2) floored at 0, computed independently."""
    return max(0, math.ceil((mu_o - lambda_o - 1.0) / 2.0))


def _rng(seed: int, cycle: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle, slot])


def _draw_zt(rng, side: str, near: float, far: float) -> float:
    """z_T = 2, or log-uniform distance ``near..far`` from 0 (left) or 1 (right)."""
    if side == "zt2":
        return 2.0
    dist = math.exp(rng.uniform(math.log(near), math.log(far)))
    return -dist if side == "left" else 1.0 + dist


def _regular_basic(tp) -> Kind:
    # the regular basic solution t0 is of type a when c0 > 1, b otherwise
    return Kind.A if tp.c0 > 1.0 else Kind.B


PARTNER_FFS = ("c0", "t0", "d0", "c0+t0", "d0+t0")


def partner_spec(ff: str, basics: dict, tp):
    kinds = {"c0": Kind.C, "d0": Kind.D, "t0": _regular_basic(tp)}
    sols = [basics[kinds[tok]] for tok in ff.split("+")]
    if len(sols) == 1:
        return susy.single_partner_spec(sols[0], tp)
    return susy.double_partner_spec(sols[0], sols[1], tp)


class CountingPotential:
    """The x -> V(x) callable handed to the oracle, as `drttp verify` builds
    it, counting the points the oracle asks for and the boxes it solves on."""

    def __init__(self, fn):
        self.fn = fn
        self.v_points = 0
        self.grid_points = 0
        self.boxes: list[tuple[float, float]] = []

    def __call__(self, x):
        n = int(np.size(x))
        self.v_points += n
        if n > 1:
            self.grid_points += n
            box = (float(x[0]), float(x[-1]))
            if not self.boxes or self.boxes[-1] != box:
                self.boxes.append(box)
        return self.fn(x)

    def widenings(self) -> int:
        """Box changes, counting the step from the requested domain."""
        if not self.boxes:
            return 0
        return len(self.boxes) - 1 + (self.boxes[0] != ORACLE_DOMAIN)


def _oracle_solve(V: CountingPotential, st: Stats):
    st.add("oracle_solves")
    try:
        return oracle.solve_schrodinger(V, domain=ORACLE_DOMAIN, h=ORACLE_H,
                                        method=ORACLE_METHOD)
    finally:
        st.add("oracle_v_points", V.v_points)
        st.add("oracle_grid_points", V.grid_points)
        st.add("oracle_widenings", V.widenings())


# ---------------------------------------------------------------------------
# crossval: closed form against the oracle
# ---------------------------------------------------------------------------

# (z_T side, lambda_o range, levels, top-level distance above threshold,
# partner?).  The top level sits `delta` above the threshold mu_o =
# lambda_o + 2 n + 1 of the next level; a small delta means a weakly bound
# top level and domain widening.  Levels are fixed per slot because the
# oracle's eigenvector cost grows with them.
CROSSVAL_SLOTS = (
    ("zt2", (0.0, 0.0), 2, (0.04, 0.06), False),   # lambda_o = 0 at threshold
    ("zt2", (0.9, 1.1), 3, (0.09, 0.11), False),   # near threshold: widens
    ("zt2", (0.0, 0.0), 5, (1.2, 1.9), True),
    ("left", (0.5, 2.0), 3, (0.6, 1.9), True),
    ("left", (0.0, 0.0), 5, (1.2, 1.9), False),
    ("right", (0.5, 2.0), 4, (0.6, 1.9), False),
)


def crossval_params(seed: int, i: int) -> dict:
    cycle, slot = divmod(i, len(CROSSVAL_SLOTS))
    side, (lo_a, lo_b), levels, (d_a, d_b), partner = CROSSVAL_SLOTS[slot]
    rng = _rng(seed, cycle, slot)
    lo = float(rng.uniform(lo_a, lo_b))
    mo = lo + 2.0 * (levels - 1) + 1.0 + float(rng.uniform(d_a, d_b))
    # partner kinds rotate so that every seed solves the same kinds
    ff = PARTNER_FFS[(cycle + slot) % len(PARTNER_FFS)] if partner else None
    return {"lambda_o": lo, "mu_o": mo, "z_T": _draw_zt(rng, side, 0.3, 10.0),
            "partner": ff}


def crossval_op(p: dict, st: Stats) -> tuple[int, list[str]]:
    ri = core.RayIdentifiers(p["lambda_o"], p["mu_o"])
    tp = core.TangentPoly(p["z_T"])
    reasons = []
    sols = spectral.spectrum(ri, tp)
    energies = [s.epsilon for s in sols]
    V = CountingPotential(lambda x: core.potential_eval_x(x, ri, tp))
    try:
        ns = _oracle_solve(V, st)
    except DrttpError:
        return 1, ["oracle_raises"]
    want = expected_levels(p["lambda_o"], p["mu_o"])
    if not len(sols) == want == len(ns.eigenvalues):
        reasons.append("count")
    n = min(len(sols), len(ns.eigenvalues))
    if list(ns.node_counts[:n]) != list(range(n)):
        reasons.append("nodes")
    if n:
        rel = np.abs(np.subtract(energies[:n], ns.eigenvalues[:n])) / np.abs(energies[:n])
        st.worse("level_rel_err", np.max(rel))
        st.add("levels_compared", n)
        if not np.max(rel) <= LEVEL_REL_TOL:
            reasons.append("level")
    if p["partner"]:
        reasons += _crossval_partner(p["partner"], energies, ri, tp, st)
    return 1, reasons


def _crossval_partner(ff: str, energies, ri, tp, st: Stats) -> list[str]:
    """Partner spectrum = base spectrum with factorization energies removed
    or inserted; any other difference is an extraneous level.  The matching
    is done here so that the check does not rest on the oracle module's
    own comparator."""
    try:
        spec = partner_spec(ff, spectral.basic_solutions(ri, tp), tp)
    except PairRejectedError:
        st.add("partner_rejected")
        return []
    V = CountingPotential(susy.partner_potential_x(spec, ri, tp))
    try:
        ns = _oracle_solve(V, st)
    except DrttpError:
        return ["partner_oracle_raises"]
    st.add("partner_solves")
    base = sorted(energies)
    part = sorted(float(e) for e in ns.eigenvalues)
    unmatched = []
    i = j = 0
    while i < len(base) and j < len(part):
        if abs(base[i] - part[j]) <= PARTNER_ABS_TOL:
            i, j = i + 1, j + 1
        elif base[i] < part[j]:
            unmatched.append(base[i])
            i += 1
        else:
            unmatched.append(part[j])
            j += 1
    unmatched += base[i:] + part[j:]
    st.add("partner_levels_compared", len(part))
    extraneous = [e for e in unmatched
                  if min(abs(e - f) for f in spec.expected_spectral_delta) > PARTNER_ABS_TOL]
    return ["partner_extraneous"] if extraneous else []


# ---------------------------------------------------------------------------
# closedform: the whole parameter domain through the closed-form layers
# ---------------------------------------------------------------------------

CLOSEDFORM_CYCLE = 50
CLI_EVERY = 25          # draws 24 and 49 of each cycle also go through cli.main
# Just above z_T = 1 the seed's spectrum() fails its 1e-10 constraint-residual
# check, which grows like 1/(z_T - 1)**2: from (z_T - 1) ~ 1.5e-3 down a few
# draws in a thousand fail, scattered.  Scattered rare failures make the failure
# share of a timed run depend on how far it got, so the right side is drawn
# from z_T - 1 >= 1e-2 (largest residual seen: 1 % of the tolerance) and draw
# 47 of each cycle is drawn where the defect shows every time.
RIGHT_NEAR = 1e-2
DEFECT_SLOT = 47         # a right-side slot (47 % 3 == 2)
DEFECT_RANGES = ((0.0, 1.0), (74.0, 80.0), (2e-4, 2.5e-4))  # lambda_o, mu_o, z_T - 1


def closedform_params(seed: int, i: int) -> dict:
    cycle, slot = divmod(i, CLOSEDFORM_CYCLE)
    rng = _rng(seed, cycle, slot)
    side = ("zt2", "left", "right")[slot % 3]
    if slot == DEFECT_SLOT:
        lo_range, mo_range, (near, far) = DEFECT_RANGES
    else:
        lo_range, mo_range = (0.0, 30.0), (1e-3, 80.0)
        near, far = (RIGHT_NEAR, 59.0) if side == "right" else (1e-3, 60.0)
    return {
        "lambda_o": float(rng.uniform(*lo_range)),
        "mu_o": float(rng.uniform(*mo_range)),
        "z_T": _draw_zt(rng, side, near, far),
        "cli": slot % CLI_EVERY == CLI_EVERY - 1,
        "partner": PARTNER_FFS[int(rng.integers(len(PARTNER_FFS)))],
    }


def _cli_bytes(argv) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue().encode()


def closedform_op(p: dict, st: Stats) -> tuple[int, list[str]]:
    lo, mo, zt = p["lambda_o"], p["mu_o"], p["z_T"]
    ri, tp = core.RayIdentifiers(lo, mo), core.TangentPoly(zt)
    reasons = []
    sols = spectral.spectrum(ri, tp)
    st.add("levels", len(sols))
    if len(sols) != expected_levels(lo, mo):
        reasons.append("level_count")
    partner_rc = 2      # `drttp partner` outside Area A_0: bad parameters
    if mo > lo + 1.0:
        basics = spectral.basic_solutions(ri, tp)
        for sol in basics.values():
            susy.single_partner_spec(sol, tp)
        t0 = basics[_regular_basic(tp)]
        for kind in (Kind.C, Kind.D):
            try:
                susy.double_partner_spec(basics[kind], t0, tp)
            except PairRejectedError:
                st.add("pair_rejected")
        poly = susy.heun_poly_construct(t0, sols[-1], tp)
        st.add("heun_degree", poly.degree)
        if p["cli"]:
            try:
                partner_spec(p["partner"], basics, tp)
                partner_rc = 0
            except PairRejectedError:
                partner_rc = 3
    if p["cli"]:
        reasons += _closedform_cli(p, [s.epsilon for s in sols], partner_rc, st)
    return 1, reasons


def _closedform_cli(p, energies, partner_rc, st: Stats) -> list[str]:
    """In-process CLI: two identical calls give identical bytes, the
    spectrum matches the API and the partner exit code matches its gate."""
    params = ["--lambda-o", repr(p["lambda_o"]), "--mu-o", repr(p["mu_o"]),
              "--zt", repr(p["z_T"])]
    ok = True
    for argv, want_rc in ((["spectrum"] + params, 0),
                          (["partner"] + params + ["--ff", p["partner"]], partner_rc)):
        first, second = _cli_bytes(argv), _cli_bytes(argv)
        st.add("cli_calls", 2)
        ok &= first == second and first[0] == want_rc
        if argv[0] == "spectrum" and first[0] == 0:
            doc = json.loads(first[1])
            ok &= [lv["E"] for lv in doc["levels"]] == energies
    return [] if ok else ["cli_mismatch"]


# ---------------------------------------------------------------------------
# tabulate: dense evaluation of potentials and eigenfunctions
# ---------------------------------------------------------------------------

TAB_GRID = np.linspace(-40.0, 40.0, 4001)
NODE_INTERVAL = (-40.0, 40.0)


def _gauss_legendre(a: float, b: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


GL_X, GL_W = _gauss_legendre(-60.0, 60.0, 240, 24)

# (z_T side, levels, lambda_o range, top-level distance above threshold).
# Levels reach n = 29 on z_T = 2, across the degree-25 switch of the
# polynomial evaluator.  On the general branch the seed's node counter
# spends ~8 s per level it cannot converge above ~17 levels, more than a
# run can hold, so general-branch slots stop at 14 levels.  A slot's ops
# either all fail or all pass the Gram check, so that the failure share of a
# run does not depend on how many ops it reached: the 18-level slot keeps
# lambda_o >= 0.5, where its Gram residual stayed above 1.3e-6 (it drops to
# 6e-7 at lambda_o = 0); the 14-level general slot stayed below 3.2e-8.
TABULATE_SLOTS = (
    ("zt2", 30, (0.0, 0.5), (0.3, 0.5)),
    ("zt2", 18, (0.5, 2.0), (0.3, 1.9)),
    ("zt2", 6, (0.0, 2.0), (0.3, 1.9)),
    ("left", 14, (0.0, 2.0), (0.3, 1.9)),
    ("right", 9, (0.0, 2.0), (0.3, 1.9)),
    ("left", 4, (0.0, 2.0), (0.3, 1.9)),
)


def tabulate_params(seed: int, i: int) -> dict:
    cycle, slot = divmod(i, len(TABULATE_SLOTS))
    side, levels, (lo_a, lo_b), (d_a, d_b) = TABULATE_SLOTS[slot]
    rng = _rng(seed, cycle, slot)
    lo = float(rng.uniform(lo_a, lo_b))
    mo = lo + 2.0 * (levels - 1) + 1.0 + float(rng.uniform(d_a, d_b))
    return {
        "lambda_o": lo, "mu_o": mo, "z_T": _draw_zt(rng, side, 0.5, 4.0),
        "partner": PARTNER_FFS[(cycle + slot) % 3],
    }


def tabulate_op(p: dict, st: Stats) -> tuple[int, list[str]]:
    ri = core.RayIdentifiers(p["lambda_o"], p["mu_o"])
    tp = core.TangentPoly(p["z_T"])
    reasons = set()
    xs = TAB_GRID
    sols = spectral.spectrum(ri, tp)
    columns = [core.potential_eval_x(xs, ri, tp)]
    columns += [wavefunction.solution_eval_x(xs, s, ri, tp) for s in sols]
    spec = partner_spec(p["partner"], spectral.basic_solutions(ri, tp), tp)
    columns.append(susy.partner_potential_x(spec, ri, tp)(xs))
    values = sum(c.size for c in columns)
    if not all(np.all(np.isfinite(c)) for c in columns):
        reasons.add("non_finite")
    st.add("degrees", sum(s.m for s in sols))
    for n, s in enumerate(sols):
        try:
            nodes = wavefunction.count_nodes(
                lambda x, s=s: wavefunction.solution_eval_x(x, s, ri, tp), NODE_INTERVAL)
        except ConvergenceError:
            st.add("count_nodes_fails")
            reasons.add("nodes_convergence")
            continue
        if nodes != n:
            st.add("count_nodes_fails")
            reasons.add("nodes_wrong")
    top = len(sols) - 1
    norm_sq = wavefunction.eigenfunction_norm_sq(top, ri, tp)
    psis = np.stack([wavefunction.solution_eval_x(GL_X, s, ri, tp) for s in sols])
    gram = (psis * GL_W) @ psis.T
    diag = np.sqrt(np.diag(gram))
    if not (np.all(np.isfinite(gram)) and np.all(diag > 0.0) and math.isfinite(norm_sq)):
        reasons.add("non_finite")
    else:
        resid = float(np.max(np.abs(gram / np.outer(diag, diag) - np.eye(len(sols)))))
        st.worse("gram", resid)
        st.worse("norm_rel", abs(norm_sq / gram[top, top] - 1.0))
        if resid > GRAM_TOL:
            reasons.add("gram")
    st.add("levels", len(sols))
    return values, sorted(reasons)


WORKLOADS = {
    "crossval": (crossval_params, crossval_op, len(CROSSVAL_SLOTS)),
    "closedform": (closedform_params, closedform_op, CLOSEDFORM_CYCLE),
    "tabulate": (tabulate_params, tabulate_op, len(TABULATE_SLOTS)),
}
