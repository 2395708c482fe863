"""Command-line front end: solve a model file, run a study file, or run the
built-in acceptance suite.

Exit codes: 0 success, 1 schema/usage error (the message names the offending
key path) or a model error found during assembly (conflicting constraints, a
section director along the tangent), 2 singular system, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .assembly import (
    _SCALAR_ROWS,
    BCRow,
    BeamModel,
    BoundaryCondition,
    ConstraintConflictError,
    LoadCase,
    PointConstraint,
    _point_row,
    body_table,
)
from .benchmarks import (
    StudySpec,
    print_order_table,
    run_convergence,
    write_convergence_csv,
)
from .discretization import FORMULATIONS, formulation
from .geometry import curve_from_dict
from .postprocess import displacement_samples, export, reactions, strain_energy
from .section import DirectorDegeneracyError, Material, section_from_shape
from .solver import SingularSystemError, solve_model


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(doc: dict, path: str, key: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required key")
    return doc[key]


def _object(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(path or "document", "expected an object")
    return doc


def _check_keys(doc, path: str, allowed: set[str]):
    for key in _object(doc, path):
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list")
    return value


def _array(value, path: str, shape=(3,)) -> np.ndarray:
    """value as a float array of the given shape (-1 matches any length);
    strings, bools and ragged nesting are refused."""
    try:
        arr = np.asarray(value)
    except ValueError:      # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != len(shape) or \
            any(n not in (-1, m) for n, m in zip(shape, arr.shape)):
        what = f"numbers of shape {str(shape).replace('-1', 'n')}" if shape else "a number"
        raise SchemaError(path, f"expected {what}")
    return arr.astype(float)


def _number(value, path: str) -> float:
    return float(_array(value, path, ()))


def _check_kind(doc, path: str, tag: str, specs: dict):
    """Check doc (an object) against the spec of the kind that doc[tag] names:
    its keys and the shape of each value."""
    kind = _object(doc, path).get(tag)
    if not isinstance(kind, str) or kind not in specs:
        raise SchemaError(f"{path}.{tag}", f"unknown {path} {tag} {kind!r}")
    _check_keys(doc, path, {tag, *specs[kind]})
    for key, shape in specs[kind].items():
        if key in doc:
            _array(doc[key], f"{path}.{key}", shape)


# the keys of each curve kind and section shape, with the shape of each value
_CURVE_KEYS = {
    "line": {"p0": (3,), "p1": (3,)},
    "arc": {"center": (3,), "radius": (), "basis": (2, 3), "angle": (2,)},
    "helix": {"center": (3,), "radius": (), "pitch": (), "basis": (2, 3), "angle": (2,)},
    "hermite_spline": {"points": (-1, 3), "end_tangents": (2, 3)},
}

_SECTION_KEYS = {
    "rect": {"w": (), "h": (), "director": (3,)},
    "circle": {"d": ()},
    "unit_depth_rect": {"t": ()},
}

_BC_PRESETS = {
    "clamped": BoundaryCondition.clamped,
    "free": BoundaryCondition.free,
    "pinned": BoundaryCondition.pinned,
}

_ROWS = [row for row, _ in BoundaryCondition.free().rows()]


def _parse_bc(doc, path: str) -> BoundaryCondition:
    if isinstance(doc, str):
        if doc not in _BC_PRESETS:
            raise SchemaError(path, f"unknown preset {doc!r}; use clamped/free/pinned "
                                    "or a per-row object")
        return _BC_PRESETS[doc]()
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected a preset name or an object")
    _check_keys(doc, path, set(_ROWS))
    rows = {}
    for row in _ROWS:
        spec = _require(doc, path, row)
        rpath = f"{path}.{row}"
        if not isinstance(spec, dict) or len(spec) != 1:
            raise SchemaError(rpath, 'expected exactly one of {"natural": ...} '
                                     'or {"essential": ...}')
        kind, value = next(iter(spec.items()))
        if kind not in ("natural", "essential"):
            raise SchemaError(f"{rpath}.{kind}", "unknown condition kind")
        value = (_number if row in _SCALAR_ROWS else _array)(value, f"{rpath}.{kind}")
        rows[row] = BCRow(kind, value)
    return BoundaryCondition(**rows)


def _parse_loads(doc, path: str) -> LoadCase:
    if doc is None:
        return LoadCase()
    _check_keys(doc, path, {"body", "start", "end"})
    body = None
    if "body" in doc and doc["body"] is not None:
        b = doc["body"]
        if isinstance(b, dict):
            _check_keys(b, f"{path}.body", {"s", "f"})
            try:
                body = body_table(_require(b, f"{path}.body", "s"),
                                  _require(b, f"{path}.body", "f"))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{path}.body", str(exc)) from None
        else:
            body = _array(b, f"{path}.body")
    kwargs = {"body": body}
    for end in ("start", "end"):
        if end in doc and doc[end] is not None:
            sub = doc[end]
            _check_keys(sub, f"{path}.{end}", {"force", "moment"})
            if "force" in sub:
                kwargs[f"force_{end}"] = _array(sub["force"], f"{path}.{end}.force")
            if "moment" in sub:
                kwargs[f"moment_{end}"] = _array(sub["moment"], f"{path}.{end}.moment")
    return LoadCase(**kwargs)


def _parse_constraints(doc, path: str, fields: tuple[str, str]) -> list[PointConstraint]:
    if doc is None:
        return []
    out = []
    for i, item in enumerate(_list(doc, path)):
        ipath = f"{path}[{i}]"
        _check_keys(item, ipath, {"at", "field", "direction", "value"})
        at = _require(item, ipath, "at")
        if at not in ("start", "end"):
            raise SchemaError(f"{ipath}.at", "expected 'start' or 'end'")
        fld = item.get("field", "u")
        if fld not in fields:
            raise SchemaError(f"{ipath}.field", f"expected {fields[0]} or {fields[1]}")
        direction = _array(_require(item, ipath, "direction"), f"{ipath}.direction")
        pc = PointConstraint(at, fld, direction, _number(item.get("value", 0.0), f"{ipath}.value"))
        try:
            _point_row(pc)
        except ValueError as exc:
            raise SchemaError(f"{ipath}.direction", str(exc)) from None
        out.append(pc)
    return out


def load_model(doc: dict) -> tuple[BeamModel, str, int, str]:
    """Validate a model document and build (model, formulation, n_elements, policy)."""
    _check_keys(doc, "", {"curve", "material", "section", "formulation",
                          "elements", "quadrature", "bcs", "loads", "constraints"})

    curve_doc = _require(doc, "", "curve")
    _check_kind(curve_doc, "curve", "kind", _CURVE_KEYS)
    try:
        curve = curve_from_dict(curve_doc)
    except KeyError as exc:
        raise SchemaError(f"curve.{exc.args[0]}", "missing required key") from None
    except ValueError as exc:
        raise SchemaError("curve", str(exc)) from None

    mat = _material(_require(doc, "", "material"))
    try:
        material = Material(E=_require(mat, "material", "E"), G=mat.get("G"), nu=mat.get("nu"))
    except ValueError as exc:
        raise SchemaError("material", str(exc)) from None

    sec_doc = _require(doc, "", "section")
    _check_kind(sec_doc, "section", "shape", _SECTION_KEYS)
    try:
        section = section_from_shape(sec_doc)
    except KeyError as exc:
        raise SchemaError(f"section.{exc.args[0]}", "missing required key") from None
    except ValueError as exc:
        raise SchemaError("section", str(exc)) from None

    form_name = _require(doc, "", "formulation")
    if not isinstance(form_name, str) or form_name not in FORMULATIONS:
        raise SchemaError("formulation", f"unknown formulation {form_name!r}")
    n_elements = _require(doc, "", "elements")
    if isinstance(n_elements, bool) or not isinstance(n_elements, int) or n_elements < 1:
        raise SchemaError("elements", "expected a positive integer")
    policy = doc.get("quadrature", "full")
    if policy not in ("full", "reduced"):
        raise SchemaError("quadrature", f"unknown policy {policy!r}")

    bcs = _require(doc, "", "bcs")
    _check_keys(bcs, "bcs", {"start", "end"})
    bc_start = _parse_bc(_require(bcs, "bcs", "start"), "bcs.start")
    bc_end = _parse_bc(_require(bcs, "bcs", "end"), "bcs.end")

    loads = _parse_loads(doc.get("loads"), "loads")
    constraints = _parse_constraints(doc.get("constraints"), "constraints",
                                     ("u", FORMULATIONS[form_name].angle_field))

    model = BeamModel(curve=curve, material=material, section=section,
                      bc_start=bc_start, bc_end=bc_end, loads=loads,
                      constraints=constraints)
    return model, form_name, n_elements, policy


def _material(doc) -> dict:
    """A material object's numbers, by key."""
    _check_keys(doc, "material", {"E", "G", "nu"})
    return {key: _number(value, f"material.{key}") for key, value in doc.items()}


def load_study(doc: dict) -> StudySpec:
    _check_keys(doc, "", {"benchmark", "formulations", "quadrature", "elements",
                          "thickness", "material", "load", "length", "radius"})
    _require(doc, "", "benchmark")
    for key in ("formulations", "quadrature", "elements", "thickness"):
        _list(doc.get(key, []), key)
    elements = _require(doc, "", "elements")
    if not elements:
        raise SchemaError("elements", "element list must not be empty")
    if any(isinstance(n, bool) or not isinstance(n, int) for n in elements):
        raise SchemaError("elements", "expected a list of integers")
    for i, t in enumerate(doc.get("thickness", [])):
        _number(t, f"thickness[{i}]")
    for key in ("load", "length", "radius"):
        _number(doc.get(key, 0.0), key)
    _material(doc.get("material", {}))
    try:
        return StudySpec.from_dict(doc)
    except (TypeError, ValueError, KeyError) as exc:
        raise SchemaError("study", str(exc)) from None


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, f"invalid JSON: {exc}") from None


def _out_dir(args) -> str:
    return os.environ.get("BEAM_OUT") or args.out


def cmd_solve(args) -> int:
    model, form_name, n_elements, policy = load_model(_read_json(args.model))
    solution = solve_model(model, formulation(form_name), n_elements, policy)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    export(solution, out, n_samples=args.samples)

    (tip,), (rot,) = displacement_samples(solution, [solution.mesh.length])
    summary = {
        "formulation": form_name,
        "elements": n_elements,
        "quadrature": policy,
        "length": solution.mesh.length,
        "n_dofs": solution.system.dofmap.ndof,
        "tip_displacement": [float(v) for v in tip],
        "tip_rotation": [float(v) for v in rot],
        "strain_energy": strain_energy(solution),
        "reactions": {
            end: {k: [float(v) for v in vec] for k, vec in r.items()}
            for end, r in reactions(solution).items()
        },
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_converge(args) -> int:
    study = load_study(_read_json(args.study))
    report = run_convergence(study)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    write_convergence_csv(report, os.path.join(out, "convergence.csv"))
    print_order_table(report)
    return 0


def cmd_validate(args) -> int:
    from .acceptance import CRITERION_NAMES, run_acceptance

    if args.list:
        for name in CRITERION_NAMES:
            print(name)
        return 0
    names = args.criteria.split(",") if args.criteria else None
    try:
        results = run_acceptance(names=names)
    except ValueError as exc:
        raise SchemaError("criteria", str(exc)) from None
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"[{status}] {r.name:<{width}} ({r.runtime:6.2f}s)  {r.detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if ok else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartbeam",
        description="Curved-beam finite elements in global Cartesian coordinates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a model file, write CSV results")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--out", default="./out", help="output directory (env BEAM_OUT overrides)")
    p.add_argument("--samples", type=int, default=101, help="resultant sample count")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="run a convergence/locking study file")
    p.add_argument("study", help="study JSON file")
    p.add_argument("--out", default="./out", help="output directory (env BEAM_OUT overrides)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("validate", help="run the built-in acceptance suite")
    p.add_argument("--list", action="store_true", help="print criterion names without running")
    p.add_argument("--criteria", default=None,
                   help="comma-separated subset of criteria to run")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ConstraintConflictError, DirectorDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
