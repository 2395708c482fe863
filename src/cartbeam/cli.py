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


def _check_keys(doc: dict, path: str, allowed: set[str]):
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")


def _vec3(value, path: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise SchemaError(path, "expected a 3-vector")
    return arr


_CURVE_KEYS = {
    "line": {"kind", "p0", "p1"},
    "arc": {"kind", "center", "radius", "basis", "angle"},
    "helix": {"kind", "center", "radius", "pitch", "basis", "angle"},
    "hermite_spline": {"kind", "points", "end_tangents"},
}

_SECTION_KEYS = {
    "rect": {"shape", "w", "h", "director"},
    "circle": {"shape", "d"},
    "unit_depth_rect": {"shape", "t"},
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
        if row in _SCALAR_ROWS:
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise SchemaError(f"{rpath}.{kind}", "expected a scalar") from None
        else:
            value = _vec3(value, f"{rpath}.{kind}")
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
            except ValueError as exc:
                raise SchemaError(f"{path}.body", str(exc)) from None
        else:
            body = _vec3(b, f"{path}.body")
    kwargs = {"body": body}
    for end in ("start", "end"):
        if end in doc and doc[end] is not None:
            sub = doc[end]
            _check_keys(sub, f"{path}.{end}", {"force", "moment"})
            if "force" in sub:
                kwargs[f"force_{end}"] = _vec3(sub["force"], f"{path}.{end}.force")
            if "moment" in sub:
                kwargs[f"moment_{end}"] = _vec3(sub["moment"], f"{path}.{end}.moment")
    return LoadCase(**kwargs)


def _parse_constraints(doc, path: str, fields: tuple[str, str]) -> list[PointConstraint]:
    if doc is None:
        return []
    out = []
    for i, item in enumerate(doc):
        ipath = f"{path}[{i}]"
        _check_keys(item, ipath, {"at", "field", "direction", "value"})
        at = _require(item, ipath, "at")
        if at not in ("start", "end"):
            raise SchemaError(f"{ipath}.at", "expected 'start' or 'end'")
        fld = item.get("field", "u")
        if fld not in fields:
            raise SchemaError(f"{ipath}.field", f"expected {fields[0]} or {fields[1]}")
        direction = _vec3(_require(item, ipath, "direction"), f"{ipath}.direction")
        pc = PointConstraint(at, fld, direction, float(item.get("value", 0.0)))
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
    kind = curve_doc.get("kind")
    if kind not in _CURVE_KEYS:
        raise SchemaError("curve.kind", f"unknown curve kind {kind!r}")
    _check_keys(curve_doc, "curve", _CURVE_KEYS[kind])
    try:
        curve = curve_from_dict(curve_doc)
    except KeyError as exc:
        raise SchemaError(f"curve.{exc.args[0]}", "missing required key") from None
    except ValueError as exc:
        raise SchemaError("curve", str(exc)) from None

    mat_doc = _require(doc, "", "material")
    _check_keys(mat_doc, "material", {"E", "G", "nu"})
    try:
        material = Material(E=float(_require(mat_doc, "material", "E")),
                            G=mat_doc.get("G"), nu=mat_doc.get("nu"))
    except ValueError as exc:
        raise SchemaError("material", str(exc)) from None

    sec_doc = _require(doc, "", "section")
    shape = sec_doc.get("shape")
    if shape not in _SECTION_KEYS:
        raise SchemaError("section.shape", f"unknown section shape {shape!r}")
    _check_keys(sec_doc, "section", _SECTION_KEYS[shape])
    try:
        section = section_from_shape(sec_doc)
    except KeyError as exc:
        raise SchemaError(f"section.{exc.args[0]}", "missing required key") from None
    except ValueError as exc:
        raise SchemaError("section", str(exc)) from None

    form_name = _require(doc, "", "formulation")
    if form_name not in FORMULATIONS:
        raise SchemaError("formulation", f"unknown formulation {form_name!r}")
    n_elements = _require(doc, "", "elements")
    if not isinstance(n_elements, int) or n_elements < 1:
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


def load_study(doc: dict) -> StudySpec:
    _check_keys(doc, "", {"benchmark", "formulations", "quadrature", "elements",
                          "thickness", "material", "load", "length", "radius"})
    _require(doc, "", "benchmark")
    elements = _require(doc, "", "elements")
    if not elements:
        raise SchemaError("elements", "element list must not be empty")
    try:
        return StudySpec.from_dict(doc)
    except (ValueError, KeyError) as exc:
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
    slack = 1.0
    if os.environ.get("CARTBEAM_VALIDATE_SABOTAGE"):
        slack = 1e-12
    names = args.criteria.split(",") if args.criteria else None
    try:
        results = run_acceptance(names=names, slack=slack)
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
