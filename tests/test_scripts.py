"""The experiment scripts import only names that cartbeam still provides."""
import importlib.util
import os

import pytest

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.mark.parametrize("name", ["run_convergence", "run_demos"])
def test_script_imports_without_running(name):
    spec = importlib.util.spec_from_file_location(
        f"_script_{name}", os.path.join(SCRIPT_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # runs the imports; main() stays behind __main__
    assert callable(module.main)
