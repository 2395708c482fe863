"""The experiment scripts and the benchmark's tracer use only names that
cartbeam still provides, and the package exports only its public names."""
import importlib.util
import os
import sys

import pytest

from cartbeam import cli
from cartbeam.benchmarks import ConvergenceReport, StudySpec, demo_configs, write_convergence_csv

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT_DIR = os.path.join(ROOT, "scripts")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # runs the imports; main() stays behind __main__
    return module


@pytest.mark.parametrize("name", ["run_convergence", "run_demos"])
def test_script_imports_without_running(name):
    module = _load(os.path.join(SCRIPT_DIR, f"{name}.py"), f"_script_{name}")
    assert callable(module.main)


def test_run_convergence_writes_both_studies_and_the_locking_lines(tmp_path, monkeypatch,
                                                                     capsys):
    module = _load(os.path.join(SCRIPT_DIR, "run_convergence.py"), "_script_run_convergence")
    empty = tmp_path / "empty.csv"
    write_convergence_csv(ConvergenceReport(study=StudySpec("straight", ["timoshenko_p2p1"],
                                                            ["full"], [1], [0.1])),
                          str(empty))
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_convergence.py", "--out", str(out)])
    module.main()
    header = empty.read_text()
    for name in ("straight", "quarter_arc"):
        lines = (out / f"convergence_{name}.csv").read_text().splitlines(keepends=True)
        assert lines[0] == header and len(lines) > 1
        assert all(line.startswith(name + ",") for line in lines[1:])
    printed = capsys.readouterr().out
    assert "locking comparison: quarter arc, 8 elements, t = 0.001" in printed
    for form in ("timoshenko_p2p1", "timoshenko_h3p2"):
        assert f"  {form}: rel error full " in printed


def test_run_demos_writes_one_directory_per_demo_file(tmp_path, monkeypatch):
    # --out alone names the base directory: a stray BEAM_OUT in the
    # environment draws no demo into its directory
    module = _load(os.path.join(SCRIPT_DIR, "run_demos.py"), "_script_run_demos")
    monkeypatch.setenv("BEAM_OUT", str(tmp_path / "stray"))
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_demos.py", "--out", str(out), "--samples", "3"])
    assert module.main() == 0
    assert not (tmp_path / "stray").exists()
    assert sorted(os.listdir(out)) == sorted(demo_configs())
    for name in os.listdir(out):
        assert sorted(os.listdir(out / name)) == ["centerline.csv", "resultants.csv",
                                                  "summary.json"]


def test_run_demos_refuses_too_few_samples_before_any_solve(tmp_path, monkeypatch, capsys):
    # exit 1 with the CLI's message, as `cartbeam solve --samples 0` does,
    # instead of a traceback after the first demo's solve
    module = _load(os.path.join(SCRIPT_DIR, "run_demos.py"), "_script_run_demos")

    def no_solve(*args):
        raise AssertionError("solved before the sample count was checked")

    monkeypatch.setattr(cli, "solve_model", no_solve)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_demos.py", "--out", str(out), "--samples", "0"])
    assert module.main() == 1
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


def test_every_bench_tracer_target_resolves():
    # the tracer skips a target it cannot find without a word, so a renamed
    # function would read zero in its per-layer metrics
    tracer = _load(os.path.join(ROOT, "bench", "tracer.py"), "_bench_tracer")
    assert tracer.TARGETS
    for owner_path, attr, _ in tracer.TARGETS:
        owner = tracer._owner(owner_path)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_star_import_binds_no_module():
    # __all__ holds the public names only, not the submodules the package
    # imports them from
    import types
    namespace = {}
    exec("from cartbeam import *", namespace)
    del namespace["__builtins__"]
    assert namespace
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
