"""Layer tracing from outside the program.

``Tracer.install`` replaces selected public functions of the ``approxlaws``
modules with timing wrappers.  ``from .jets import euler`` copies the
function reference into the importing module, so a wrapper is installed at
every name binding in every loaded ``approxlaws`` module, not only in the
defining one.

Each wrapper counts calls and failed calls (calls that raised) and keeps the
time spent in the function.  Self time is a span's duration minus the time
its traced children took.  Functions called millions of times (the kernel
and ``total_derivative``) are counted and timed but keep no span record; the
others append ``(id, name, start, end, parent_id)`` to ``spans``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "approxlaws"

# layer name -> (module, attribute); attribute "Class.method" for methods
TARGETS = {
    "kernel.poly_mul": ("kernel", "poly_mul"),
    "kernel.derive": ("kernel", "derive"),
    "jets.euler": ("jets", "euler"),
    "jets.total_derivative": ("jets", "total_derivative"),
    "jets.expand_epsilon": ("jets", "expand_epsilon"),
    "printer.print_poly": ("printer", "print_poly"),
    "multipliers.solve_multipliers": ("multipliers", "solve_multipliers"),
    "multipliers.determining_system": ("multipliers", "determining_system"),
    "multipliers.classify": ("multipliers", "classify"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.solve_particular": ("linalg", "solve_particular"),
    "fluxes.reconstruct": ("fluxes", "reconstruct"),
    "verify.full_report": ("verify", "full_report"),
    "verify.spot_check": ("verify", "spot_check"),
    "verify.verify_on_solutions": ("verify", "verify_on_solutions"),
    "problem.reduce_on_solutions": ("problem", "PdeProblem.reduce_on_solutions"),
    "corpus.load": ("corpus", "load"),
}

NO_SPANS = {"kernel.poly_mul", "kernel.derive", "jets.total_derivative"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.failed = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # shape counters filled by the result hooks
        self.spans = []
        self._stack = []  # one [child_time, span_id] frame per active call
        self._hooks = {
            "multipliers.determining_system": self._system_shape,
            "linalg.rref": self._rref_rank,
        }

    # -- result hooks ------------------------------------------------------

    def _system_shape(self, args, result):
        rows = result.rows
        self.counts["multipliers.system.rows"] += len(rows)
        self.counts["multipliers.system.distinct_rows"] += len(
            {frozenset(r.items()) for r in rows}
        )
        self.counts["multipliers.system.unknowns"] += len(result.unknowns)
        self.counts["multipliers.system.nnz"] += sum(len(r) for r in rows)

    def _rref_rank(self, args, result):
        self.counts["linalg.rows_in"] += len(args[0])
        self.counts["linalg.rank"] += len(result)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        calls, failed, self_s = self.calls, self.failed, self.self_s
        spans = None if name in NO_SPANS else self.spans
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if spans is None:
                frame = [0.0, parent[1] if parent else None]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                self_s[name] += end - start - frame[0]
                if parent is not None:
                    parent[0] += end - start
                if spans is not None:
                    spans[frame[1]] = (frame[1], name, start, end, parent[1] if parent else None)
            if hook is not None:
                hook(args, result)
                if parent is not None:
                    # hook time is tracer overhead, not the caller's own work
                    parent[0] += clock() - end
            return result

        return traced

    def install(self):
        """Wrap every target at every binding in the loaded package modules."""
        replace = {}
        for name, (mod_name, attr) in TARGETS.items():
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                fn = getattr(mod, attr)
                replace[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])

    def layer_metrics(self) -> dict:
        """Per-layer numbers: calls, failed, self_s per target, shape counts
        and the derived ratios."""
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.failed"] = self.failed[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        c = self.counts
        out["multipliers.system.distinct_ratio"] = (
            c["multipliers.system.distinct_rows"] / c["multipliers.system.rows"]
            if c["multipliers.system.rows"] else 0.0
        )
        out["linalg.rank_ratio"] = c["linalg.rank"] / c["linalg.rows_in"] if c["linalg.rows_in"] else 0.0
        return out
