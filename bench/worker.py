"""One workload in one fresh process: set up, run closed-loop operations for
the given seconds, check every output, and print the result as JSON.

Started by run.py, which times the set-up from process start to the
"ready" line. Passes run the workload's cases round-robin and the run ends
after the pass during which the time is up, so every case runs equally
often. With --trace 1, odd passes run under the tracer and even passes
without it, interleaved so that drift on the machine hits both alike.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import warnings
from time import perf_counter

import numpy as np
import scipy

import cartbeam
import workloads
from tracer import Tracer

# Percentile reported as op_s_tail, fixed per workload so that runs compare
# the same point of the distribution. Each falls inside the samples of one
# size or cell, not on the edge between two: the n=256 arcs (the n=512
# ones carry machine drift the calibration below does not remove), the
# n=32 splines, the slowest but one study cell. Higher percentiles of the
# helix and the splines moved by 7-10 % between runs of the same code.
TAIL_PERCENTILE = {"arc_ladder": 60, "spline_ladder": 60, "helix_dense_output": 60,
                   "study_small": 90}


# Times are scaled to a reference machine speed. The CPU of a shared
# machine changes speed by tens of percent within seconds, and it slows
# interpreter-bound work like this program's as much as a fixed
# calibration loop, so each operation's time is multiplied by
# CAL_REF / (calibration time around it). CAL_REF is the calibration time
# on the machine the bounds were set on (2-core VM, Python 3.11).
CAL_REF = 0.008
_CAL_V = np.array([0.3, -1.2, 0.7])
_CAL_W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small-array numpy calls."""
    start = perf_counter()
    acc = 0.0
    for i in range(300):
        w = np.cross(_CAL_V, _CAL_W[i % 3])
        acc += float(w @ _CAL_V) + i * 0.5
    return perf_counter() - start


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """Value at the percentile (linear interpolation) and the count beyond it."""
    pos = pct / 100.0 * (len(values) - 1)
    value = float(np.percentile(values, pct))
    return value, len(values) - 1 - int(pos)


def write_spans(spans, out_root: str, workload: str, seed: int) -> str:
    """Write the spans kept in memory, one JSON array per line."""
    path = os.path.join(out_root, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        fh.write('["id", "name", "start", "end", "parent", "op"]\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def provenance(workload: str, seed: int, toy: bool) -> dict:
    sizes, samples = workloads.TOY_SIZES[workload] if toy else workloads.WORKLOADS[workload][1:]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cartbeam": os.path.dirname(cartbeam.__file__),
        "seed": seed,
        "sizes": list(sizes),
        "export_samples": samples,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: str,
        toy: bool = False, cases=None) -> dict:
    """Closed loop over the workload's cases; returns the result record."""
    cases = cases if cases is not None else workloads.make_cases(workload, seed, toy)
    out_dir = os.path.join(out_root, "work", workload)
    tracer = Tracer() if trace else None
    digests: dict = {}
    ops = []                               # (seconds, ndof, passed, traced) per operation
    cal = []                               # calibrate() before each operation, and at the end
    attempted = failed = raised = 0
    equilibrium = form_equiv = residual = 0.0
    tip_errors, reasons = [], []

    deadline = perf_counter() + seconds
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        for case in cases:
            case_dir = os.path.join(out_dir, case.key.replace("/", "_"))
            cal.append(calibrate())
            if traced:
                tracer.begin_op(len(ops))
            start = perf_counter()
            if case.kind == "solve":
                out = workloads.run_solve(case, case_dir)
            else:
                out = workloads.run_study(case)
            elapsed = perf_counter() - start
            if traced:
                tracer.end_op()
            verdict = workloads.check(case, out, digests)
            ops.append((elapsed, case.ndof, verdict.failed == 0, traced))
            attempted += verdict.attempted
            failed += verdict.failed
            raised += sum(1 for r in verdict.reasons if "raised" in r)
            equilibrium = max(equilibrium, verdict.equilibrium)
            form_equiv = max(form_equiv, verdict.form_equiv)
            residual = max(residual, verdict.residual)
            if verdict.tip_rel_err is not None:
                tip_errors.append(verdict.tip_rel_err)
            reasons += [f"{case.key}: {r}" for r in verdict.reasons]
        if traced:
            tracer.uninstall()
        passes += 1
        if perf_counter() >= deadline and (tracer is None or passes % 2 == 0):
            break
    cal.append(calibrate())

    # each operation scaled by the machine speed around it: the mean of the
    # calibrations just before and just after it
    scaled = [t * CAL_REF / (0.5 * (cal[i] + cal[i + 1])) for i, (t, *_) in enumerate(ops)]
    untraced = [i for i, op in enumerate(ops) if not op[3]]
    ok = [scaled[i] for i in untraced if ops[i][2]]
    record = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and len(ok) > 0,
        "passes": passes,
        "provenance": provenance(workload, seed, toy),
        "failures": {"raised": raised, "check": failed - raised,
                     "first": sorted(set(reasons))[:20]},
        "wait": "none: single-threaded, no queues or locks",
        "accuracy": {
            "failed_frac": (failed / max(attempted, 1), "ratio"),
            "equilibrium_rel_max": (equilibrium, "ratio"),
            "form_equiv_rel_max": (form_equiv, "ratio"),
            "tip_rel_err_max": (max(tip_errors), "ratio") if tip_errors else None,
        },
        "metrics": {},
    }
    if ok:
        record["metrics"], record["timing"] = _metrics(workload, ops, scaled, cal, ok, tracer,
                                                       record["accuracy"], residual)
    # after the peak RSS is read, so that the probe does not count in it
    record["known_defects"] = known_defects(workload, out_dir)
    if tracer is not None and ok:
        record["metrics"]["check.known_defect_failures"] = (
            sum(d["failed"] for d in record["known_defects"]), "count")
        record["spans_file"] = write_spans(tracer.spans, out_root, workload, seed)
    return record


def known_defects(workload: str, out_dir: str) -> list[dict]:
    """Run the fixed known-defect inputs once, untimed, and keep their verdicts."""
    found = []
    for what, case in workloads.known_defect_cases(workload):
        case_dir = os.path.join(out_dir, "known-defects", case.key.replace("/", "_"))
        out = workloads.run_solve(case, case_dir) if case.kind == "solve" else \
            workloads.run_study(case)
        verdict = workloads.check(case, out, {})
        found.append({"input": case.key, "shows": what, "attempted": verdict.attempted,
                      "failed": verdict.failed, "equilibrium_rel_max": verdict.equilibrium,
                      "reasons": verdict.reasons[:4]})
    return found


def _metrics(workload, ops, scaled, cal, ok, tracer, accuracy, residual):
    """The metrics of a run with at least one successful operation, and the
    timing details printed next to them."""
    untraced = [i for i, op in enumerate(ops) if not op[3]]
    pct = TAIL_PERCENTILE[workload]
    tail_value, beyond = tail(ok, pct)
    raw_ok = [ops[i][0] for i in untraced if ops[i][2]]
    timing = {
        "successful_ops": len(ok), "tail_percentile": pct, "samples_beyond_tail": beyond,
        "calibration_median_s": statistics.median(cal), "calibration_ref_s": CAL_REF,
        "raw_op_s_p50": statistics.median(raw_ok),
        "raw_op_s_tail": float(np.percentile(raw_ok, pct)),
        "op_s": ok,
    }
    if tracer is None:
        return {
            "op_s_p50": (statistics.median(ok), "s"),
            "op_s_tail": (tail_value, "s"),
            "dof_per_s": (sum(op[1] for op in ops) / sum(scaled), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }, timing
    metrics = dict(tracer.metrics())
    metrics["solver.residual_rel_max"] = (residual, "ratio")
    traced_ok = [scaled[i] for i, op in enumerate(ops) if op[3] and op[2]]
    overhead = statistics.median(traced_ok) / statistics.median(ok) - 1.0 if traced_ok else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    for name in ("failed_frac", "equilibrium_rel_max", "form_equiv_rel_max"):
        metrics[f"check.{name}"] = accuracy[name]
    return metrics, timing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for CSVs and spans")
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up; run.py times several of these")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")
    cases = workloads.make_cases(args.workload, args.seed, args.toy)
    print("ready", flush=True)
    # machine speed right after set-up, to scale the set-up time
    print(statistics.median(calibrate() for _ in range(5)), flush=True)
    if args.setup_only:
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out,
                 args.toy, cases)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
