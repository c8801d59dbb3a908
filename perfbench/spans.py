"""In-memory span tracer that wraps drttp's public functions from outside.

The library is not modified.  ``Tracer.install`` replaces each traced
function with a wrapper in every drttp module namespace that holds it, so
the name a caller resolves at call time (``core.map_x_to_z`` inside
``potential_eval_x``, ``susy.map_x_to_z`` inside the partner potentials,
``wavefunction.map_x_to_z_pair`` ...) goes through the wrapper too.
``Tracer.uninstall`` puts the originals back.

A span is ``(name, label, start_ns, end_ns, parent_index, op_id, work)``:
``label`` splits one function by an input property (branch of the map,
polynomial degree, CLI subcommand) and ``work`` counts what the call did
(points evaluated, levels returned, polynomial degree).
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter_ns

import numpy as np


def _branch(tp) -> str:
    return "zt2" if tp.z_T == 2.0 else "general"


def _points(args, result) -> int:
    return int(np.size(args[0]))


def _one(args, result) -> int:
    return 1


def _none(args) -> str:
    return ""


# (module, function, label(args), work(args, result)); the benchmark and the
# library pass the arguments these read positionally.
TRACED = (
    ("core", "map_x_to_z", lambda a: _branch(a[1]), _points),
    ("core", "map_x_to_z_pair", lambda a: _branch(a[1]), _points),
    ("core", "potential_eval_x", lambda a: _branch(a[2]), _points),
    ("spectral", "spectrum", _none, lambda a, r: len(r)),
    ("spectral", "basic_solutions", _none, lambda a, r: len(r)),
    ("wavefunction", "solution_eval_x",
     lambda a: "m_le_25" if a[1].m <= 25 else "m_gt_25", _points),
    ("wavefunction", "eigenfunction_norm_sq", _none, _one),
    ("wavefunction", "count_nodes", _none, _one),
    ("susy", "heun_poly_construct", _none, lambda a, r: r.degree),
    ("susy", "partner_potential_x", _none, _one),
    ("oracle", "solve_schrodinger", _none, _one),
    ("cli", "main", lambda a: a[0][0], _one),
)


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _traced(self, name, fn, label_of, work_of):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = label_of(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            work = 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                work = work_of(args, result)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, label, t0, t1, parent, self.op_id, work)

        return wrapper

    def _partner_wrapper(self, fn):
        # partner_potential_x returns the potential as a closure; the layer's
        # cost is in calling it, so every call of the closure is a span.
        build = self._traced("susy.partner_potential_x.build", fn, _none, _one)

        def wrapper(*args, **kwargs):
            return self._traced("susy.partner_potential_x", build(*args, **kwargs),
                                _none, _points)

        return wrapper

    def install(self, modules: dict):
        for mod_name, fn_name, label_of, work_of in TRACED:
            original = getattr(modules[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == "susy.partner_potential_x":
                wrapped = self._partner_wrapper(original)
            else:
                wrapped = self._traced(name, original, label_of, work_of)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def aggregate(self) -> dict:
        """Per ``name.label``: calls, busy and self nanoseconds, work."""
        child_ns = [0] * len(self.spans)
        for _, _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict = {}
        for i, (name, label, t0, t1, _, _, work) in enumerate(self.spans):
            key = f"{name}.{label}" if label else name
            st = out.setdefault(key, {"calls": 0, "busy_ns": 0, "self_ns": 0, "work": 0})
            st["calls"] += 1
            st["busy_ns"] += t1 - t0
            st["self_ns"] += t1 - t0 - child_ns[i]
            st["work"] += work
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose direct parent is ``parent_name``."""
        spans = self.spans
        return sum(1 for s in spans
                   if s[0] == child_name and s[4] >= 0 and spans[s[4]][0] == parent_name)

    def dump(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def drttp_modules() -> dict:
    """The loaded drttp modules, keyed by short name, for ``install``."""
    return {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name == "drttp" or name.startswith("drttp.")}
