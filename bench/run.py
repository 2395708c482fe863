"""cartbeam benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload arc_ladder --seed 1 --seconds 24 --trace 0

Runs from the root of a source checkout (the program is imported from
``src``). The workload runs in a fresh single-threaded process with BLAS
threads pinned to 1; set-up time is the median over several fresh
processes. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it give
every metric with its unit, the failures and the provenance. The full
record, and with --trace 1 the spans, are written under .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5          # fresh processes timed for setup_s, the measured run included
TIME_LIMIT = 170.0      # seconds for the whole command
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _start(args, extra: list[str]):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(ROOT / ".bench_out"), *extra]
    if args.toy:
        cmd.append("--toy")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        if proc.stdout.readline().strip() != "ready":
            raise BenchError("worker did not start")
        ready = perf_counter() - start
        calibration = float(proc.stdout.readline())
    except BaseException:
        _stop(proc)
        raise
    return proc, ready, calibration


def _stop(proc):
    proc.kill()
    proc.communicate()


def _finish(proc, deadline: float) -> str:
    """Wait for the worker's output; never leave it running."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker exceeded the time limit") from None
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def _fmt(value, unit) -> str:
    return f"{value:.6g} {unit}"


def run(args) -> dict:
    begin = perf_counter()
    deadline = begin + TIME_LIMIT
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    setups = []   # (seconds to ready, calibration seconds right after)
    for _ in range(SETUP_RUNS - 1):
        proc, ready, calibration = _start(args, ["--setup-only"])
        _finish(proc, deadline)
        setups.append((ready, calibration))
    proc, ready, calibration = _start(args, [])
    setups.append((ready, calibration))
    lines = _finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    record = json.loads(lines[-1])
    src = (ROOT / "src").resolve()
    if not Path(record["provenance"]["cartbeam"]).resolve().is_relative_to(src):
        raise BenchError(f"cartbeam was imported from outside {src}")
    record["provenance"].update(_source_identity())
    record["setup_s_samples"] = setups
    if not args.trace and record["metrics"]:
        ref = record["timing"]["calibration_ref_s"]
        scaled = [ready * ref / calibration for ready, calibration in setups]
        record["metrics"]["setup_s"] = (statistics.median(scaled), "s")
    record["wall_s"] = perf_counter() - begin
    return record


def report(args, record: dict):
    """Human-readable lines: every metric with its unit, failures, provenance."""
    p = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['passes']}  wall {record['wall_s']:.1f} s")
    print(f"  sizes n={p['sizes']}  export samples {p['export_samples']}")
    m = record["metrics"]
    if not args.trace and m:
        t = record["timing"]
        raw = ", ".join(f"{ready:.3f}" for ready, _ in record["setup_s_samples"])
        print(f"  setup_s {_fmt(*m['setup_s'])}  (median of {len(record['setup_s_samples'])} "
              f"fresh processes; raw {raw} s)")
        print(f"  op_s_p50 {_fmt(*m['op_s_p50'])}  ({t['successful_ops']} successful operations; "
              f"raw {t['raw_op_s_p50']:.6g} s)")
        print(f"  op_s_tail {_fmt(*m['op_s_tail'])}  (p{t['tail_percentile']} of "
              f"{t['successful_ops']}, {t['samples_beyond_tail']} samples beyond; "
              f"raw {t['raw_op_s_tail']:.6g} s)")
        print(f"  dof_per_s {_fmt(*m['dof_per_s'])}")
        print(f"  peak_rss_mb {_fmt(*m['peak_rss_mb'])}")
        print(f"  times scaled to a {t['calibration_ref_s'] * 1e3:g} ms calibration loop; "
              f"it took {t['calibration_median_s'] * 1e3:.3f} ms (median) in this run")
    elif m:
        for name, (value, unit) in m.items():
            print(f"  {name} {_fmt(value, unit)}")
    acc = record["accuracy"]
    f = record["failures"]
    print(f"  failed_frac {_fmt(*acc['failed_frac'])}  ({record['failed']} failed of "
          f"{record['attempted']} solves: {f['raised']} raised, {f['check']} failed a check)")
    print(f"  equilibrium_rel_max {_fmt(*acc['equilibrium_rel_max'])}")
    print(f"  form_equiv_rel_max {_fmt(*acc['form_equiv_rel_max'])}")
    tip = acc["tip_rel_err_max"]
    print(f"  tip_rel_err_max {_fmt(*tip) if tip else 'n/a (no analytic reference)'}")
    for reason in f["first"][:10]:
        print(f"    failed: {reason}")
    for d in record["known_defects"]:
        verdict = (f"fails {d['failed']} of {d['attempted']}: {'; '.join(d['reasons'][:2])}"
                   if d["failed"] else f"passes (force balance {d['equilibrium_rel_max']:.2e})")
        print(f"  known defect, untimed, not counted: {d['shows']}: {d['input']} {verdict}")
    print(f"  wait time: {record['wait']}")
    print(f"  provenance: python {p['python']}, numpy {p['numpy']}, scipy {p['scipy']}, "
          f"nproc {p['nproc']} ({p['cpus_usable']} usable), BLAS threads {p['blas_threads']}, "
          f"commit {p['git_commit'] or 'n/a (not a git checkout)'}, "
          f"source sha256 {p['source_sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cartbeam" / "__init__.py").is_file():
        print(f"error: no cartbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / ".bench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    report(args, record)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
