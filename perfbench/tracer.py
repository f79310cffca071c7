"""Spans around the calls into each gridrisk module, recorded from outside.

Every function is wrapped at the name its caller looks up (for example
`gridrisk.detector.threshold`, not `gridrisk.chi2.threshold`), so the
package itself carries no tracing.  Spans hold name, start, end, parent
and run id, stay in memory, and are written out when the run ends.  The
branch-and-bound node oracle is called thousands of times per program,
so it is timed and counted inside the `solve_milp` wrapper instead of
getting spans of its own.
"""

from __future__ import annotations

import csv
import statistics
import time
from array import array
from collections import defaultdict

MODULES = ("network", "estimator", "chi2", "detector", "attack", "security",
           "milp", "risk", "cli")


class Tracer:
    def __init__(self):
        # Span columns; flat arrays keep a few hundred thousand spans from
        # slowing every garbage collection the traced program triggers.
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # span index, or -1 for an operation
        self.runs = array("q")
        self.run = 0
        self._stack = []
        self._counts = defaultdict(float)  # (run, name) -> value
        self._class_s = defaultdict(list)  # run -> per-class sweep seconds
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1.0):
        self._counts[self.run, name] += value

    def patch(self, module, attr, name, before=None, after=None):
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            out = self.call(name, orig, *args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def restore(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def install(self):
        from gridrisk import chi2, cli, detector, risk, security

        patch, count = self.patch, self.count

        def class_timer(args, kwargs):
            if kwargs.get("mapper") is not None:
                return args, kwargs

            def mapper(fn, items):
                out = []
                for item in items:
                    start = time.perf_counter()
                    out.append(fn(item))
                    self._class_s[self.run].append(time.perf_counter() - start)
                return out

            return args, dict(kwargs, mapper=mapper)

        def oracle_timer(args, kwargs):
            problem = args[0]
            hook = problem.node_hook
            if hook is not None:
                def timed_hook(lo, hi):
                    start = time.perf_counter()
                    try:
                        return hook(lo, hi)
                    finally:
                        count("milp.oracle.calls")
                        count("milp.oracle.s", time.perf_counter() - start)
                problem.node_hook = timed_hook
            return args, kwargs

        def milp_stats(args, sol):
            count("milp.solves")
            count("milp.nodes", sol.node_count)
            count("milp.lp_solves", sol.lp_count)
            count("milp.simplex_iters", sol.simplex_iterations)

        def index_stats(args, res):
            count("security.index_programs")
            count("security.stealth_verified", bool(res.verified_stealth))

        patch(cli, "_write_text", "cli.write",
              after=lambda args, out: count("cli.bytes_out", len(args[1].encode())))
        patch(cli, "load_case_file", "network.load_case_file")
        patch(cli, "build_model", "network.build_model")
        patch(cli, "perturb_model", "attack.perturb_model")
        patch(cli, "tuple_attack_variants", "risk.tuple_attack_variants")
        patch(cli, "risk_sweep", "risk.risk_sweep")
        patch(cli, "format_risk_csv", "risk.format_risk_csv")
        patch(cli, "index_sweep", "security.index_sweep", before=class_timer)
        patch(cli, "format_index_csv", "security.format_index_csv")
        for mod in (cli, risk):
            patch(mod, "compute_gains", "estimator.gains")
            patch(mod, "compute_reduced_gains", "estimator.gains")
            patch(mod, "scale_attack", "attack.scale_attack")
            patch(mod, "detection_probability", "detector.detection_probability")
            patch(mod, "make_bdd_config", "detector.make_bdd_config")
            patch(mod, "empirical_detection", "risk.empirical_detection")
        patch(risk, "combined_index", "security.index", after=index_stats)
        patch(risk, "build_limited_knowledge_attack",
              "attack.build_limited_knowledge_attack")
        patch(risk, "impact_metric", "risk.impact_metric")
        patch(risk, "synthesize_measurements", "network.synthesize_measurements")
        patch(risk, "j_test", "detector.j_test")
        patch(detector, "threshold", "chi2.threshold")
        patch(detector, "detection_delta", "chi2.detection_delta")
        patch(chi2, "noncentral_cdf", "chi2.noncentral_cdf")
        for attr in ("fdi_index", "combined_index", "cost_weighted_index"):
            patch(security, attr, "security.index", after=index_stats)
        patch(security, "solve_milp", "milp.solve_milp",
              before=oracle_timer, after=milp_stats)

    def metrics(self, run: int) -> dict:
        """Per-layer counts and times of one run id.  Self time is a
        span's duration minus its direct children's; the oracle's time
        moves from milp's self time to security's."""
        spans = [s for s in enumerate(zip(self.names, self.starts, self.ends,
                                          self.parents, self.runs)) if s[1][4] == run]
        child = defaultdict(float)
        for i, (name, start, end, parent, r) in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = defaultdict(int), defaultdict(float), defaultdict(float)
        wall = 0.0
        for i, (name, start, end, parent, r) in spans:
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
            if parent < 0:
                wall += end - start

        def c(name):
            return self._counts.get((run, name), 0.0)

        oracle_s = c("milp.oracle.s")
        module_s = dict.fromkeys(MODULES, 0.0)
        for name, t in own.items():
            module_s[name.split(".")[0]] += t
        module_s["milp"] -= oracle_s
        module_s["security"] += oracle_s
        classes = self._class_s.get(run, [])
        out = {
            "milp.solves": c("milp.solves"),
            "milp.bigm_retries": c("milp.solves") - c("security.index_programs"),
            "milp.nodes": c("milp.nodes"),
            "milp.lp_solves": c("milp.lp_solves"),
            "milp.simplex_iters": c("milp.simplex_iters"),
            "milp.s": incl["milp.solve_milp"],
            "milp.nodes_per_s": c("milp.nodes") / max(incl["milp.solve_milp"], 1e-12),
            "milp.oracle.calls": c("milp.oracle.calls"),
            "milp.oracle.s": oracle_s,
            "security.index_programs": c("security.index_programs"),
            "security.index.s": own["security.index"],
            "security.class_s.p50": statistics.median(classes) if classes else 0.0,
            "security.class_s.max": max(classes, default=0.0),
            "security.stealth_verified_frac":
                c("security.stealth_verified") / max(c("security.index_programs"), 1.0),
            "risk.risk_sweep.s": own["risk.risk_sweep"],
            "cli.bytes_out": c("cli.bytes_out"),
            "risk.empirical_detection.share": incl["risk.empirical_detection"] / wall,
        }
        for name in ("network.synthesize_measurements", "detector.j_test",
                     "risk.empirical_detection", "estimator.gains",
                     "chi2.threshold", "chi2.noncentral_cdf",
                     "detector.detection_probability", "attack.scale_attack"):
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = incl[name]
        for name in ("network.build_model", "attack.perturb_model",
                     "risk.tuple_attack_variants", "risk.impact_metric",
                     "cli.write"):
            out[name + ".s"] = incl[name]
        for mod, t in module_s.items():
            out[mod + ".self_s"] = t
            out[mod + ".share"] = t / wall
        out["op.wall_s"] = wall
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "run"])
            w.writerows(zip(self.names, self.starts, self.ends, self.parents, self.runs))
