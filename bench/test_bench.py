"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cartbeam  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
REPORTED = ("setup_s", "op_s_p50", "op_s_tail", "dof_per_s", "peak_rss_mb", "failed_frac",
            "equilibrium_rel_max", "form_equiv_rel_max", "tip_rel_err_max")


def bench(cwd: Path, *args: str):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_run_prints_every_metric(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    for m in result["metrics"].values():
        assert m["value"] > 0 and m["unit"]
    text = "\n".join(lines[:-1])
    for name in REPORTED:
        assert f"  {name} " in text


@pytest.mark.parametrize("workload", ["arc_ladder", "study_small"])
def test_traced_toy_run_reports_per_layer_metrics(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                 "--toy")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == PER_LAYER
    values = {k: v["value"] for k, v in metrics.items()}
    # layer self times plus the benchmark's own glue account for the operation time
    assert values["trace.unaccounted_frac"] < 0.05
    assert values["assembly.stiffness_s"] > values["assembly.stiffness_self_s"] > 0
    assert values["geometry.frame_calls"] > 0
    if workload == "study_small":
        assert values["benchmarks.solves"] == 3 and values["postprocess.export_s"] == 0
    else:
        assert values["postprocess.samples"] == 11 and values["benchmarks.solves"] == 0


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "arc_ladder", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_varies_inputs_but_not_sizes():
    for workload in workloads.WORKLOADS:
        a, b = workloads.make_cases(workload, 1), workloads.make_cases(workload, 2)
        assert [c.key for c in a] == [c.key for c in b]
        assert [c.ndof for c in a] == [c.ndof for c in b]
        assert [c.doc for c in a] != [c.doc for c in b]
        assert [c.doc for c in a] == [c.doc for c in workloads.make_cases(workload, 1)]


def test_ndof_matches_the_dof_map():
    from cartbeam.discretization import DofMap, Mesh1D, formulation
    for name in {form for form, _ in workloads.STUDY_CELLS}:
        for n in (1, 7, 64):
            assert workloads.ndof(name, n) == DofMap(Mesh1D.uniform(1.0, n), formulation(name)).ndof


def test_arc_input_is_the_quarter_arc_benchmark_model():
    case = workloads.make_cases("arc_ladder", 5)[0]
    model, *_ = cartbeam.cli.load_model(case.doc)
    R, t, P = case.doc["curve"]["radius"], case.doc["section"]["t"], -case.doc["loads"]["end"]["force"][0]
    ref = cartbeam.benchmarks.make_quarter_arc_model(t, R=R, P=P)
    assert model.curve.length == pytest.approx(ref.curve.length, rel=1e-15)
    assert model.section.area == pytest.approx(ref.section.area, rel=1e-15)
    assert model.section.inertia_iso == pytest.approx(ref.section.inertia_iso, rel=1e-15)
    np.testing.assert_array_equal(model.loads.force_end, ref.loads.force_end)


def _toy(workload, tmp_path, seed=3):
    return worker.run(workload, seed, 0.0, False, str(tmp_path), toy=True)


def test_perturbed_solution_counts_as_failed(tmp_path, monkeypatch):
    inner = cartbeam.solver.solve_model
    rng = np.random.default_rng(0)

    def perturbed(*args, **kwargs):
        sol = inner(*args, **kwargs)
        sol.x = sol.x + 1e-6 * np.abs(sol.x).max() * rng.standard_normal(sol.x.shape)
        return sol

    monkeypatch.setattr(cartbeam.solver, "solve_model", perturbed)
    monkeypatch.setattr(cartbeam.benchmarks, "solve_model", perturbed)
    for workload in workloads.WORKLOADS:
        record = _toy(workload, tmp_path)
        assert record["failed"] == record["attempted"] > 0, workload
        assert record["correct"] is False and record["metrics"] == {}


def test_injected_exception_counts_as_failed_and_untimed(tmp_path, monkeypatch):
    inner = cartbeam.solver.solve_model
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) % 2:
            raise RuntimeError("injected")
        return inner(*args, **kwargs)

    monkeypatch.setattr(cartbeam.solver, "solve_model", flaky)
    record = _toy("arc_ladder", tmp_path)
    assert record["attempted"] == 4 and record["failed"] == 2
    assert record["failures"]["raised"] == 2
    assert record["timing"]["successful_ops"] == 2
    assert record["correct"] is False


def test_csv_that_changes_between_identical_solves_fails(tmp_path, monkeypatch):
    inner = cartbeam.postprocess.export
    calls = []

    def drifting(solution, out_dir, n_samples=101):
        paths = inner(solution, out_dir, n_samples)
        calls.append(1)
        if len(calls) > 4:          # the second pass over the four inputs
            with open(paths["centerline"], "a") as fh:
                fh.write("# drift\n")
        return paths

    monkeypatch.setattr(cartbeam.postprocess, "export", drifting)
    record = worker.run("arc_ladder", 3, 0.0, True, str(tmp_path), toy=True)
    assert record["passes"] == 2
    assert sum("CSV bytes differ" in r for r in record["failures"]["first"]) == 4


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_known_defects_show_beside_a_clean_run(workload, tmp_path):
    record = _toy(workload, tmp_path, seed=1)
    assert record["failed"] == 0 and record["correct"] is True
    defects = record["known_defects"]
    assert defects and sum(d["failed"] for d in defects) > 0
    assert all(d["failed"] == 0 or d["reasons"] for d in defects)


def test_held_out_seed_gives_the_same_metric_set_with_its_own_numbers(tmp_path):
    a = _toy("arc_ladder", tmp_path, seed=3)
    b = _toy("arc_ladder", tmp_path, seed=987654321)
    assert set(a["metrics"]) == set(b["metrics"])
    assert a["accuracy"]["tip_rel_err_max"] != b["accuracy"]["tip_rel_err_max"]
    assert a["provenance"]["seed"] == 3 and b["provenance"]["seed"] == 987654321
    assert a["provenance"]["sizes"] == b["provenance"]["sizes"]


def test_missing_trace_target_reads_zero(monkeypatch):
    kept = tuple(t for t in tracer.TARGETS if t[1] != "rigid_modes")
    monkeypatch.setattr(tracer, "TARGETS", kept + (("cartbeam.nosuch", "f", "x.f"),
                                                   ("cartbeam.solver", "gone", "solver.gone")))
    t = tracer.Tracer()
    t.install()
    try:
        case = workloads.make_cases("arc_ladder", 3, toy=True)[0]
        t.begin_op(1)
        workloads.run_solve(case, str(ROOT / ".bench_out" / "test"))
        t.end_op()
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["solver.rigid_modes_s"][0] == 0 and m["solver.rigid_modes_calls"][0] == 0
    assert m["solver.solve_s"][0] > 0
    assert cartbeam.solver.solve_model.__module__ == "cartbeam.solver"
