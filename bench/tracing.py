"""Layer timing from outside the package, for the benchmark's traced run.

``Tracer.install`` replaces each traced public function or method with a
timing wrapper.  A function that other modules import by name is
replaced in every ``hessprec`` module that holds it, because that is
where the caller looks it up.  Each call records one span (name, start,
end, parent, whether it returned) in memory; ``layer_stats`` turns the
spans into per-layer calls, inclusive time, self time (the span minus
the time its child spans cover) and duration percentiles.

``FallbackCounter`` classifies the warnings of the ``hessprec`` loggers,
so fallbacks are counted in untraced runs too.
"""
from __future__ import annotations

import logging
import statistics
import sys
import time
from collections import Counter

import numpy as np

import hessprec
from hessprec import data, harness, inference, linalg, mlp, precond, problems, solver

import probe_oracle

# (span name, owner, attribute).  Several attributes may share one name.
TRACED = (
    ("solver.draw_batch", solver.HessianOracle, "draw_batch"),
    ("problems.gradient", problems.QuadraticOracle, "gradient"),
    ("problems.hvp", problems.QuadraticOracle, "hvp"),
    ("mlp.gradient", mlp.MLPOracle, "gradient"),
    ("mlp.hvp", mlp.MLPOracle, "hvp"),
    ("probe_oracle.gradient", probe_oracle.ProbeOracle, "gradient"),
    ("probe_oracle.hvp", probe_oracle.ProbeOracle, "hvp"),
    ("harness.record", harness.QuadraticBundle, "train_loss"),
    ("harness.record", harness.QuadraticBundle, "test_loss"),
    ("harness.record", harness.QuadraticBundle, "test_accuracy"),
    ("harness.record", harness.MLPBundle, "train_loss"),
    ("harness.record", harness.MLPBundle, "test_loss"),
    ("harness.record", harness.MLPBundle, "test_accuracy"),
    ("harness.run_sgd", harness, "run_sgd"),
    ("harness.run_precond_sgd", harness, "run_precond_sgd"),
    ("harness.run_baseline", harness, "run_baseline"),
    ("harness.write_csv", harness, "write_comparison_csv"),
    ("solver.estimate_parameters", solver, "estimate_parameters"),
    ("solver.run_inference", solver, "run_inference"),
    ("solver.next_direction", solver, "next_direction"),
    ("inference.infer_noisy", inference, "infer_noisy"),
    ("linalg.generalized_sym_eig", linalg, "generalized_sym_eig"),
    ("linalg.woodbury_solve", linalg, "woodbury_solve"),
    ("linalg.thin_svd_product", linalg, "thin_svd_product"),
    ("precond.reduce_rank", precond, "reduce_rank"),
    ("precond.apply_p_squared", precond, "apply_p_squared"),
    ("problems.exact_solution", problems, "exact_solution"),
    ("problems.polynomial_features", problems, "polynomial_features"),
    ("data.gen", data, "gen_regression"),
    ("data.gen", data, "gen_blobs"),
)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "hessprec" or name.startswith("hessprec."))]


class Tracer:
    """In-memory span recorder; spans are tuples (name, t0_ns, t1_ns, parent, ok)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, on_return=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, ok)
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        hooks = {"solver.run_inference": _count_probes,
                 "problems.gradient": _count_gather, "problems.hvp": _count_gather}
        modules = _package_modules()
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore = []


def write_spans(path, spans):
    """Write spans as CSV: name, start and end in ns, parent row, returned."""
    with open(path, "w") as fh:
        fh.write("name,t0_ns,t1_ns,parent,ok\n")
        for name, t0, t1, parent, ok in spans:
            fh.write(f"{name},{t0},{t1},{parent},{int(ok)}\n")


def _count_probes(counts, args, kwargs, post):
    config = kwargs["config"] if "config" in kwargs else args[3]
    counts["solver.probes_accepted"] += post.m
    counts["solver.probes_requested"] += config.iterations


def _count_gather(counts, args, kwargs, result):
    # Phi[:, batch] (and y[batch] for a gradient), from the array sizes
    oracle, batch = args[0], args[-1]
    rows = oracle.problem.n_features + (len(args) == 3)
    counts["problems.gather_bytes"] += rows * len(batch) * 8


def layer_stats(spans):
    """Per span name: calls, ok calls, inclusive s, self s, durations in s."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, ok in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    stats = {}
    for (name, t0, t1, parent, ok), covered in zip(spans, child_ns):
        st = stats.setdefault(name, {"calls": 0, "ok": 0, "incl_s": 0.0,
                                     "self_s": 0.0, "durations": []})
        dur = (t1 - t0) * 1e-9
        st["calls"] += 1
        st["ok"] += ok
        st["incl_s"] += dur
        st["self_s"] += dur - covered * 1e-9
        st["durations"].append(dur)
    return stats


def covered_s(spans):
    """Time covered by top-level spans, which equals the sum of all self times."""
    return sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent < 0) * 1e-9


def iteration_ms(spans):
    """Probing-loop iteration times: each ``next_direction`` start to the
    end of the ``infer_noisy`` update that follows it in the same loop."""
    out, start = [], {}
    for name, t0, t1, parent, _ in spans:
        if name == "solver.next_direction":
            start[parent] = t0
        elif name == "inference.infer_noisy" and parent in start:
            out.append((t1 - start.pop(parent)) * 1e-6)
    return out


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


class FallbackCounter(logging.Handler):
    """Counts the ``hessprec`` warnings by the fallback they report."""

    KINDS = (
        ("solve_fallbacks", "falling back to gradient direction"),
        ("construction_fallbacks", "plain SGD fallback"),
        ("construction_fallbacks", "keeping step"),
        ("scalar_retries", "scalar estimation attempt failed"),
        ("probes_rejected", "posterior update failed"),
        ("divergences", "diverged at step"),
    )

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        msg = record.getMessage()
        for kind, needle in self.KINDS:
            if needle in msg:
                self.counts[kind] += 1
                return
        self.counts["other_warnings"] += 1

    def attach(self):
        logging.getLogger(hessprec.__name__).addHandler(self)
        return self


_EMPTY = {"calls": 0, "ok": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []}


def _rep_values(wall, spans, counts, out):
    """One traced repetition's layer values, split into times and counts."""
    st = layer_stats(spans)

    def g(name):
        return st.get(name, _EMPTY)

    db, pg, ph = g("solver.draw_batch"), g("problems.gradient"), g("problems.hvp")
    rec, ep, inf = g("harness.record"), g("solver.estimate_parameters"), g("inference.infer_noisy")
    iters = iteration_ms(spans)
    covered = covered_s(spans)
    times = {
        "solver.draw_batch.self_s": db["self_s"],
        "solver.draw_batch.us_p50": percentile(db["durations"], 50) * 1e6,
        "solver.draw_batch.us_p99": percentile(db["durations"], 99) * 1e6,
        "problems.gradient.self_s": pg["self_s"],
        "problems.gradient.us_p50": percentile(pg["durations"], 50) * 1e6,
        "problems.hvp.self_s": ph["self_s"],
        "mlp.gradient.self_s": g("mlp.gradient")["self_s"],
        "mlp.hvp.self_s": g("mlp.hvp")["self_s"],
        "probe_oracle.self_s": g("probe_oracle.gradient")["self_s"] + g("probe_oracle.hvp")["self_s"],
        "harness.record.self_s": rec["self_s"],
        "harness.run_sgd.s": g("harness.run_sgd")["incl_s"],
        "harness.run_precond_sgd.s": g("harness.run_precond_sgd")["incl_s"],
        "harness.run_baseline.s": g("harness.run_baseline")["incl_s"],
        "harness.write_csv.s": g("harness.write_csv")["incl_s"],
        "solver.estimate_parameters.self_s": ep["self_s"],
        "solver.run_inference.self_s": g("solver.run_inference")["self_s"],
        "solver.next_direction.self_s": g("solver.next_direction")["self_s"],
        "solver.iteration.ms_p50": percentile(iters, 50),
        "solver.iteration.ms_max": max(iters, default=0.0),
        "inference.infer_noisy.self_s": inf["self_s"],
        "inference.infer_noisy.ms_p50": percentile(inf["durations"], 50) * 1e3,
        "linalg.generalized_sym_eig.self_s": g("linalg.generalized_sym_eig")["self_s"],
        "linalg.woodbury_solve.self_s": g("linalg.woodbury_solve")["self_s"],
        "linalg.thin_svd_product.self_s": g("linalg.thin_svd_product")["self_s"],
        "precond.reduce_rank.s": g("precond.reduce_rank")["incl_s"],
        "precond.apply_p_squared.us_p50":
            percentile(g("precond.apply_p_squared")["durations"], 50) * 1e6,
        "trace.wall_s": wall,
        "trace.covered_s": covered,
        "trace.remainder_s": wall - covered,
    }
    requested = counts["solver.probes_requested"]
    counted = {
        "solver.draw_batch.calls": db["calls"],
        "problems.gradient.calls": pg["calls"],
        "problems.hvp.calls": ph["calls"],
        "problems.gather_bytes.computed": counts["problems.gather_bytes"],
        "mlp.hvp.calls": g("mlp.hvp")["calls"],
        "harness.record.calls": rec["calls"],
        "harness.diverged_runs": out.diverged,
        "harness.csv_bytes": out.csv_bytes,
        "solver.estimate_parameters.calls": ep["calls"],
        "solver.estimate_parameters.success_ratio": ep["ok"] / ep["calls"] if ep["calls"] else 0.0,
        "solver.probes_accepted_ratio":
            counts["solver.probes_accepted"] / requested if requested else 0.0,
        "inference.infer_noisy.calls": inf["calls"],
        "precond.apply_p_squared.calls": g("precond.apply_p_squared")["calls"],
    }
    return times, counted


def layer_metrics(setup_stats, traced_reps, untraced_walls, fallbacks, outcome):
    """Per-layer metrics: times are medians over the traced repetitions,
    counts come from the first (they repeat exactly for one seed)."""
    reps = [_rep_values(*rep) for rep in traced_reps]
    values = {key: statistics.median(t[key] for t, _ in reps) for key in reps[0][0]}
    values.update(reps[0][1])
    for key, name in (("problems.exact_solution.s", "problems.exact_solution"),
                      ("problems.polynomial_features.s", "problems.polynomial_features"),
                      ("data.gen.s", "data.gen")):
        values[key] = setup_stats.get(name, _EMPTY)["incl_s"]
    values["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["harness.construction_fallbacks"] = fallbacks.get("construction_fallbacks", 0)
    values["solver.scalar_retries"] = fallbacks.get("scalar_retries", 0)
    values["solver.solve_fallbacks"] = fallbacks.get("solve_fallbacks", 0)
    for name in ("reads_to_target", "lr_spread", "capture"):
        values[f"result.{name}"] = outcome.results.get(name, 0)
    return values
