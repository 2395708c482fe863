"""The experiment scripts and the benchmark's tracer use only names that
cartbeam still provides."""
import importlib.util
import os

import pytest

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


def test_every_bench_tracer_target_resolves():
    # the tracer skips a target it cannot find without a word, so a renamed
    # function would read zero in its per-layer metrics
    tracer = _load(os.path.join(ROOT, "bench", "tracer.py"), "_bench_tracer")
    assert tracer.TARGETS
    for owner_path, attr, _ in tracer.TARGETS:
        owner = tracer._owner(owner_path)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"
