#!/usr/bin/env python3
"""hessprec benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload regression --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads (see ``workloads.py``): ``regression``, ``mlp_sweep``,
``probe_large``.

End-to-end metrics (``--trace 0``, tracing off):

- ``setup_s``: problem or oracle build, plus the optimum and target where
  they apply.  Before each repetition the set-up is repeated for about
  0.2 s (at least three times in all), so that its samples spread over
  the whole run; this is their median.
- ``wall_s``: the workload's run time after set-up.  The workload repeats
  for about ``--seconds`` seconds, and at least twice; this is the
  median repetition time.  Every repetition's wall and CPU time is
  printed in the report line.
- ``batches_per_s``: loaded batches (samples read / batch size) per
  second of ``wall_s``.
- ``peak_rss_mb``: the process's peak resident memory.

Every repetition's output is checked:

- each run's own check (the criterion-07 orderings, the criterion-09
  spreads, the large-N capture floor and probe count); a run also fails
  when its pre-conditioner construction fell back.  ``attempted`` is the
  number of runs in the workload and ``failed`` the number of them that
  failed in any repetition (all of them if a repetition raised), so
  neither depends on how many repetitions fit in ``--seconds``.
  Fixed-step SGD and noisy CG runs may diverge without failing.
- ``correct`` is false when a repetition raised, when repetitions
  disagree on the results fingerprint (reads to target and final loss
  per run), or when the fingerprint differs from the one recorded in
  ``golden.json`` for this workload and seed.  ``golden.json`` holds
  seeds 0-9 only; for another seed that last comparison is skipped and
  a warning says so on standard error.

``--trace 0`` reports the end-to-end metrics, all measured with tracing
off.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics named in ``BENCHMARK.json``: times are
medians over the traced repetitions, counts repeat exactly for a seed,
and layers that a workload does not call read 0.  They include each
workload's result metric (``result.reads_to_target``,
``result.lr_spread``, ``result.capture``) and ``trace.overhead_s``, the
traced minus the untraced repetition time.  The spans of the last traced repetition
are written to ``.bench_out/spans_<workload>_<seed>.csv``.

The last line of standard output is the JSON result; the line before it
is a JSON report with the environment, the fingerprint and the failed
runs.  BLAS runs single-threaded (set before numpy is imported): the
load is one Python thread, and on a shared two-CPU host one BLAS thread
was both faster and steadier than two on ``mlp_sweep``.
"""
import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_MIN_REPEATS = 3
SETUP_SECONDS_PER_REP = 0.2
SETUP_MAX_BLOCK = 50
MIN_REPETITIONS = 2
BLAS_THREADS = 1
SAME_RUN_RTOL = 1e-9
GOLDEN_RTOL = 1e-6


def _environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "hessprec")):
        ap.error(f"no hessprec sources at {src}; run from a hessprec checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [src, HERE]
    import numpy as np

    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[args.workload].get(str(args.seed))
    if golden is None:
        print(f"benchmark: golden.json has no {args.workload} seed {args.seed}; "
              "results are checked for agreement between repetitions only",
              file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, OUT_DIR)
    fallbacks = tracing.FallbackCounter().attach()
    tracer = tracing.Tracer()

    setup_times = []
    setup_stats = {}

    def set_up(minimum):
        """Set up repeatedly for about SETUP_SECONDS_PER_REP; in a traced
        run keep the spans of the last set-up.  Returns the last state."""
        if args.trace:
            tracer.install()
        count = 0
        while count < minimum or (count < SETUP_MAX_BLOCK
                                  and count * statistics.median(setup_times)
                                  < SETUP_SECONDS_PER_REP):
            tracer.reset()
            t0 = time.perf_counter()
            state = wl.setup()
            setup_times.append(time.perf_counter() - t0)
            count += 1
        if args.trace:
            setup_stats.update(tracing.layer_stats(tracer.spans))
            tracer.uninstall()
        return state

    start = time.perf_counter()
    set_up(SETUP_MIN_REPEATS - 1)
    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    traced_reps = []
    raised = False
    failed_runs = {}
    errors = []
    first = fallback_counts = None
    while True:
        state = set_up(1)
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        fallbacks.counts.clear()
        if traced:
            tracer.install()
            tracer.reset()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = wl.run(state)
        except Exception:
            traceback.print_exc()
            raw = None
        wall = time.perf_counter() - t0
        cpus[traced].append(time.process_time() - c0)
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        if raw is None:
            raised = True
            errors.append("a repetition raised")
        else:
            out = wl.outcome(raw)
            bad = dict(out.failed)
            if fallbacks.counts["construction_fallbacks"]:
                bad.update((label, "construction fell back") for label in out.precond_labels)
            for label, why in bad.items():
                failed_runs.setdefault(label, why)
            if first is None:
                first, fallback_counts = out, dict(fallbacks.counts)
            elif not workloads.same_results(out.fingerprint(), first.fingerprint(),
                                            SAME_RUN_RTOL):
                errors.append("repetitions disagree on the results fingerprint")
            if traced:
                traced_reps.append((wall, tracer.spans, tracer.counts, out))
        # release this repetition's arrays before the next one, so that
        # peak_rss_mb does not depend on the repetition count
        raw = out = None
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        enough = walls[True] if args.trace else len(walls[False]) >= MIN_REPETITIONS
        if enough and elapsed >= args.seconds - 0.5 * typical:
            break
    if golden and first is not None and not workloads.same_results(
            first.fingerprint(), golden, GOLDEN_RTOL):
        errors.append("results fingerprint differs from golden.json")
    correct = not errors
    attempted = len(first.rows) if first is not None else 1
    failed = attempted if raised else len(failed_runs)

    if first is None:
        values = {}
    elif args.trace:
        values = tracing.layer_metrics(setup_stats, traced_reps, walls[False],
                                       fallback_counts, first)
        values["runs_failed"] = failed
        tracing.write_spans(os.path.join(OUT_DIR, f"spans_{args.workload}_{args.seed}.csv"),
                            traced_reps[-1][1])
    else:
        wall_s = statistics.median(walls[False])
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "batches_per_s": first.batches / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(np),
        "repetitions": len(walls[False]) + len(walls[True]),
        "walls_s": walls[False], "traced_walls_s": walls[True],
        "cpu_s": cpus[False], "traced_cpu_s": cpus[True],
        "setup_repetitions": len(setup_times),
        "runs": attempted, "runs_failed": failed,
        "failures": [f"{label}: {why}" for label, why in failed_runs.items()] + errors,
        "fingerprint": first.fingerprint() if first is not None else None,
        "extra": first.extra if first is not None else {},
        "fallbacks": fallback_counts,
    }
    print(json.dumps(report))
    if len(metrics) != len(wanted):
        missing = sorted({m["name"] for m in wanted} - set(metrics))
        print(f"benchmark: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
