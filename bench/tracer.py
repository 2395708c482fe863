"""Spans around the public functions of each cartbeam layer, wrapped from
outside the package.

A wrapped function records a span (name, start, end, parent, operation id)
and charges its exclusive time to its layer, so the layers' self times add
up to the operation time. ``curve.frame`` is called tens of thousands of
times per operation, so its calls are counted and timed at the enclosing
span instead of being kept as spans. A target that a later version of the
program renames or deletes is skipped and its metrics read zero.
"""
from __future__ import annotations

import functools
import importlib
import os
import re
import warnings
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "geometry", "assembly", "solver", "postprocess", "benchmarks")

# (owner, attribute, span name). The owner is a module, or a module and a
# class; the attribute is what the call path looks up at run time.
TARGETS = (
    ("cartbeam.cli", "load_model", "cli.load_model"),
    ("cartbeam.cli", "load_study", "cli.load_study"),
    ("cartbeam.geometry:ParamCurve", "frame", "geometry.frame"),
    ("cartbeam.geometry:ArcLengthMap", "__init__", "geometry.arclength_build"),
    ("cartbeam.assembly", "discretize", "assembly.discretize"),
    ("cartbeam.assembly", "assemble_stiffness", "assembly.stiffness"),
    ("cartbeam.assembly", "assemble_load", "assembly.load"),
    ("cartbeam.assembly", "apply_essential_bcs", "assembly.bcs"),
    ("cartbeam.solver", "solve_model", "solver.solve_model"),
    ("cartbeam.solver", "solve", "solver.solve"),
    ("cartbeam.solver", "rigid_modes", "solver.rigid_modes"),
    ("cartbeam.postprocess", "export", "postprocess.export"),
    ("cartbeam.postprocess", "displacement_samples", "postprocess.displacement_samples"),
    ("cartbeam.postprocess", "resultants", "postprocess.resultants"),
    ("cartbeam.postprocess", "tip_displacement", "postprocess.tip_displacement"),
    ("cartbeam.postprocess", "reactions", "postprocess.reactions"),
    ("cartbeam.postprocess", "strain_energy", "postprocess.strain_energy"),
    ("cartbeam.benchmarks", "run_convergence", "benchmarks.run_convergence"),
    # names the benchmarks module imported at load time
    ("cartbeam.benchmarks", "solve_model", "solver.solve_model"),
    ("cartbeam.benchmarks", "tip_displacement", "postprocess.tip_displacement"),
)

_DROPPED = re.compile(r"dropping (\d+) redundant")


def _with_subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_with_subclasses(sub))
    return out


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counters while an operation is open."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent id, op id)
        self.stack: list[list] = []         # open calls: [child seconds, span id, layer]
        self.op_id: int | None = None
        self.ops = 0
        self.op_seconds = 0.0
        self.inclusive = defaultdict(float)  # span name -> seconds
        self.exclusive = defaultdict(float)  # span name -> seconds without children
        self.layer_self = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._frame_s: set = set()
        self._patches: list = []
        self._next_id = 0

    # -- installation -------------------------------------------------------
    def install(self):
        """Wrap every target that exists in the loaded program."""
        for owner_path, attr, name in TARGETS:
            try:
                owner = _owner(owner_path)
            except (ImportError, AttributeError):
                continue
            if isinstance(owner, type):
                # the class and every subclass that overrides the method
                found = [(c, c.__dict__[attr]) for c in _with_subclasses(owner)
                         if attr in c.__dict__]
            else:
                found = [(owner, getattr(owner, attr, None))]
            for obj, fn in found:
                if not callable(fn):
                    continue
                self._patches.append((obj, attr, fn))
                setattr(obj, attr, self._wrap(name, fn, f"{owner_path}.{attr}"))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- operations ---------------------------------------------------------
    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._frame_s = set()
        self.stack = [[0.0, self._new_id(), "bench"]]
        self._op_start = perf_counter()

    def end_op(self):
        end = perf_counter()
        root = self.stack.pop()
        elapsed = end - self._op_start
        self.layer_self["bench"] += elapsed - root[0]
        self.spans.append((root[1], "op", self._op_start, end, None, self.op_id))
        self.counts["frame_unique"] += len(self._frame_s)
        self.ops += 1
        self.op_seconds += elapsed
        self.op_id = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, name: str, fn, target: str):
        tracer = self
        layer = name.partition(".")[0]
        is_frame = name == "geometry.frame"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            entry = [0.0, None if is_frame else tracer._new_id(), layer]
            tracer.stack.append(entry)
            start = perf_counter()
            try:
                if name == "assembly.bcs":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    for w in caught:
                        m = _DROPPED.search(str(w.message))
                        if m:
                            tracer.counts["dropped_rows"] += int(m.group(1))
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(name, target, exc)
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                tracer.inclusive[name] += elapsed
                tracer.exclusive[name] += elapsed - entry[0]
                tracer.layer_self[layer] += elapsed - entry[0]
                tracer.calls[target] += 1
                if is_frame:
                    tracer.counts[f"frame_calls.{parent[2]}"] += 1
                    tracer._frame_s.add(float(args[1] if len(args) > 1 else kwargs["s"]))
                else:
                    tracer.spans.append((entry[1], name, start, end, parent[1], tracer.op_id))
            tracer._on_result(name, result, args, kwargs)
            return result

        return wrapper

    def _on_error(self, name: str, target: str, exc: Exception):
        if name == "solver.solve_model":
            singular = type(exc).__name__ == "SingularSystemError"
            self.counts["singular_errors" if singular else "other_errors"] += 1
        if name == "solver.solve" and getattr(exc, "n_rigid_modes", None):
            self.counts["rigid_check_useful"] += 1
        if target == "cartbeam.benchmarks.solve_model":
            self.counts["study_failures"] += 1

    def _on_result(self, name: str, result, args, kwargs):
        # a later version may return other types: count what is there
        try:
            if name == "assembly.discretize":
                self.counts["ndof"] += result.dofmap.ndof
                self.counts["nnz"] += result.K.nnz
                self.counts["n_constraints"] += result.n_constraints
            elif name == "postprocess.export":
                self.counts["samples"] += kwargs.get("n_samples", args[2] if len(args) > 2 else 0)
                self.counts["bytes_written"] += sum(os.path.getsize(p) for p in result.values())
        except (AttributeError, TypeError, OSError):
            pass

    # -- summary ------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as means per traced operation unless a ratio."""
        ops = max(self.ops, 1)
        per_op = lambda v: v / ops  # noqa: E731
        frame_calls = self.calls["cartbeam.geometry:ParamCurve.frame"]
        solves = self.calls["cartbeam.solver.solve"]
        m = {
            "geometry.frame_calls": (per_op(frame_calls), "count"),
            "geometry.frame_s": (per_op(self.inclusive["geometry.frame"]), "s"),
            "geometry.frame_unique_frac": (self.counts["frame_unique"] / max(frame_calls, 1), "ratio"),
        }
        for layer in ("assembly", "solver", "postprocess"):
            m[f"geometry.frame_calls.{layer}"] = (per_op(self.counts[f"frame_calls.{layer}"]), "count")
        m["geometry.arclength_build_s"] = (per_op(self.inclusive["geometry.arclength_build"]), "s")
        m["cli.load_model_s"] = (per_op(self.inclusive["cli.load_model"]
                                        + self.inclusive["cli.load_study"]), "s")
        m["assembly.stiffness_s"] = (per_op(self.inclusive["assembly.stiffness"]), "s")
        m["assembly.stiffness_self_s"] = (per_op(self.exclusive["assembly.stiffness"]), "s")
        m["assembly.load_s"] = (per_op(self.inclusive["assembly.load"]), "s")
        m["assembly.bcs_s"] = (per_op(self.inclusive["assembly.bcs"]), "s")
        for key in ("ndof", "nnz", "n_constraints", "dropped_rows"):
            m[f"assembly.{key}"] = (per_op(self.counts[key]), "count")
        m["solver.solve_s"] = (per_op(self.inclusive["solver.solve"]), "s")
        m["solver.solve_self_s"] = (per_op(self.exclusive["solver.solve"]), "s")
        m["solver.rigid_modes_s"] = (per_op(self.inclusive["solver.rigid_modes"]), "s")
        m["solver.rigid_modes_calls"] = (per_op(self.calls["cartbeam.solver.rigid_modes"]), "count")
        m["solver.rigid_check_useful_frac"] = (self.counts["rigid_check_useful"] / max(solves, 1),
                                               "ratio")
        m["solver.singular_errors"] = (per_op(self.counts["singular_errors"]), "count")
        m["solver.other_errors"] = (per_op(self.counts["other_errors"]), "count")
        m["postprocess.export_s"] = (per_op(self.inclusive["postprocess.export"]), "s")
        m["postprocess.export_self_s"] = (per_op(self.exclusive["postprocess.export"]), "s")
        m["postprocess.samples"] = (per_op(self.counts["samples"]), "count")
        m["postprocess.bytes_written"] = (per_op(self.counts["bytes_written"]), "B")
        m["benchmarks.run_convergence_s"] = (per_op(self.inclusive["benchmarks.run_convergence"]), "s")
        m["benchmarks.solves"] = (per_op(self.calls["cartbeam.benchmarks.solve_model"]), "count")
        m["benchmarks.failures"] = (per_op(self.counts["study_failures"]), "count")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (per_op(self.layer_self[layer]), "s")
        m["trace.unaccounted_frac"] = (self.layer_self["bench"] / max(self.op_seconds, 1e-300),
                                       "ratio")
        return m
