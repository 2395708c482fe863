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
    QUADRATURE_POLICIES,
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
    _BENCHMARKS,
    StudySpec,
    print_order_table,
    run_convergence,
    write_convergence_csv,
)
from .discretization import FORMULATIONS, element_count, formulation
from .geometry import CircularArc, Helix, HermiteSpline, LineSegment
from .postprocess import displacement_samples, export, reactions, strain_energy
from .section import (
    DirectorDegeneracyError,
    Material,
    circle_section,
    rect_section,
    unit_depth_rect_section,
)
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


def _array(value, path: str, shape=(3,)):
    """value as a float array of the given shape (-1 matches any length), or
    as a float when the shape is (); strings, bools, ragged nesting and the
    NaN and Infinity that JSON readers accept are refused."""
    try:
        arr = np.asarray(value)
    except ValueError:      # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != len(shape) or \
            any(n not in (-1, m) for n, m in zip(shape, arr.shape)) or \
            not np.isfinite(arr).all():
        what = f"finite numbers of shape {str(shape).replace('-1', 'n')}" if shape \
            else "a finite number"
        raise SchemaError(path, f"expected {what}")
    return arr.astype(float) if shape else float(arr)


def _number(value, path: str) -> float:
    return _array(value, path, ())


def _positive(value, path: str) -> float:
    value = _number(value, path)
    if not value > 0:
        raise SchemaError(path, "expected a positive number")
    return value


def _count(value, path: str) -> int:
    try:
        return element_count(value)
    except ValueError:
        raise SchemaError(path, "expected a positive integer") from None


def _choice(value, path: str, options):
    """value, which must be one of the names in options."""
    if not isinstance(value, str) or value not in options:
        raise SchemaError(path, f"expected one of {', '.join(options)}; got {value!r}")
    return value


def _build(doc, path: str, tag: str, table: dict):
    """The object that doc describes. doc[tag] picks a row of table: the keys
    doc may hold, each with the shape of its value, and the constructor that
    takes the checked values by key."""
    shapes, make = table[_choice(_object(doc, path).get(tag), f"{path}.{tag}", table)]
    _check_keys(doc, path, {tag, *shapes})
    values = {key: _array(doc[key], f"{path}.{key}", shape)
              for key, shape in shapes.items() if key in doc}
    try:
        return make(values)
    except KeyError as exc:
        raise SchemaError(f"{path}.{exc.args[0]}", "missing required key") from None
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


# curve kind -> (its keys with the shape of each value, constructor)
_CURVES = {
    "line": ({"p0": (3,), "p1": (3,)}, lambda v: LineSegment(v["p0"], v["p1"])),
    "arc": ({"center": (3,), "radius": (), "basis": (2, 3), "angle": (2,)},
            lambda v: CircularArc(v["center"], v["radius"], *v["basis"], *v["angle"])),
    "helix": ({"center": (3,), "radius": (), "pitch": (), "basis": (2, 3), "angle": (2,)},
              lambda v: Helix(v.get("center", np.zeros(3)), v["radius"], v["pitch"],
                              *v.get("basis", np.eye(3)[:2]), *v["angle"])),
    "hermite_spline": ({"points": (-1, 3), "end_tangents": (2, 3)},
                       lambda v: HermiteSpline(v["points"], *v["end_tangents"])),
}

# section shape -> (its keys with the shape of each value, constructor)
_SECTIONS = {
    "rect": ({"w": (), "h": (), "director": (3,)},
             lambda v: rect_section(v["w"], v["h"], v["director"])),
    "circle": ({"d": ()}, lambda v: circle_section(v["d"])),
    "unit_depth_rect": ({"t": ()}, lambda v: unit_depth_rect_section(v["t"])),
}

_BC_PRESETS = ("clamped", "free", "pinned")     # BoundaryCondition constructors

_ROWS = [row for row, _ in BoundaryCondition.free().rows()]


def _parse_bc(doc, path: str) -> BoundaryCondition:
    if isinstance(doc, str):
        return getattr(BoundaryCondition, _choice(doc, path, _BC_PRESETS))()
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
        _choice(kind, f"{rpath}.{kind}", ("natural", "essential"))
        value = (_number if row in _SCALAR_ROWS else _array)(value, f"{rpath}.{kind}")
        rows[row] = BCRow(kind, value)
    return BoundaryCondition(**rows)


def _parse_loads(doc, path: str) -> LoadCase:
    if doc is None:
        return LoadCase()
    _check_keys(doc, path, {"body", "start", "end"})
    body = doc.get("body")
    if isinstance(body, dict):
        _check_keys(body, f"{path}.body", {"s", "f"})
        s, f = (_require(body, f"{path}.body", key) for key in "sf")
        try:
            body = body_table(s, f)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}.body", str(exc)) from None
    elif body is not None:
        body = _array(body, f"{path}.body")
    kwargs = {"body": body}
    for end in ("start", "end"):
        if doc.get(end) is not None:
            _check_keys(doc[end], f"{path}.{end}", {"force", "moment"})
            for key, value in doc[end].items():
                kwargs[f"{key}_{end}"] = _array(value, f"{path}.{end}.{key}")
    return LoadCase(**kwargs)


def _parse_constraints(doc, path: str, fields: tuple[str, str]) -> list[PointConstraint]:
    if doc is None:
        return []
    out = []
    for i, item in enumerate(_list(doc, path)):
        ipath = f"{path}[{i}]"
        _check_keys(item, ipath, {"at", "field", "direction", "value"})
        at = _choice(_require(item, ipath, "at"), f"{ipath}.at", ("start", "end"))
        fld = _choice(item.get("field", "u"), f"{ipath}.field", fields)
        direction = _array(_require(item, ipath, "direction"), f"{ipath}.direction")
        pc = PointConstraint(at, fld, direction, _number(item.get("value", 0.0), f"{ipath}.value"))
        try:
            _point_row(pc)
        except ValueError as exc:
            raise SchemaError(f"{ipath}.direction", str(exc)) from None
        out.append(pc)
    return out


def _material(doc, defaults: dict) -> Material:
    """The Material of a material object. A key it lacks takes its value from
    defaults, except nu when the object gives G."""
    _check_keys(doc, "material", {"E", "G", "nu"})
    values = {**defaults, **{key: _number(v, f"material.{key}") for key, v in doc.items()}}
    if "G" in doc and "nu" not in doc:
        values.pop("nu", None)
    E = _require(values, "material", "E")
    try:
        return Material(E=E, G=values.get("G"), nu=values.get("nu"))
    except ValueError as exc:
        raise SchemaError("material", str(exc)) from None


def load_model(doc: dict) -> tuple[BeamModel, str, int, str]:
    """Validate a model document and build (model, formulation, n_elements, policy)."""
    _check_keys(doc, "", {"curve", "material", "section", "formulation",
                          "elements", "quadrature", "bcs", "loads", "constraints"})
    curve = _build(_require(doc, "", "curve"), "curve", "kind", _CURVES)
    material = _material(_require(doc, "", "material"), {})
    section = _build(_require(doc, "", "section"), "section", "shape", _SECTIONS)
    form_name = _choice(_require(doc, "", "formulation"), "formulation", FORMULATIONS)
    n_elements = _count(_require(doc, "", "elements"), "elements")
    policy = _choice(doc.get("quadrature", "full"), "quadrature", QUADRATURE_POLICIES)

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
    """Validate a study document and build its StudySpec; a key it lacks
    takes the default that the README lists."""
    _check_keys(doc, "", {"benchmark", "formulations", "quadrature", "elements",
                          "thickness", "material", "load", "length", "radius"})

    def items(key, default, check):
        values = _list(doc.get(key, default), key)
        if not values:
            raise SchemaError(key, "expected a nonempty list")
        return [check(value, f"{key}[{i}]") for i, value in enumerate(values)]

    benchmark = _choice(_require(doc, "", "benchmark"), "benchmark", _BENCHMARKS)
    formulations = items("formulations", ["timoshenko_p2p1"],
                         lambda v, p: _choice(v, p, FORMULATIONS))
    quadrature = items("quadrature", ["full"], lambda v, p: _choice(v, p, QUADRATURE_POLICIES))
    elements = items("elements", _require(doc, "", "elements"), _count)
    if any(np.diff(elements) <= 0):
        raise SchemaError("elements", "expected a strictly increasing list")
    thickness = items("thickness", [0.1], _positive)
    material = _material(doc.get("material", {}), {"E": 1e6, "nu": 0.3})
    load = _number(doc.get("load", 1.0), "load")
    if load == 0:
        raise SchemaError("load", "expected a nonzero number")
    length = _positive(doc.get("length", 10.0), "length")
    radius = _positive(doc.get("radius", 1.0), "radius")
    if benchmark == "quarter_arc" and radius <= max(thickness) / 2:
        raise SchemaError("radius", "expected more than half the largest thickness")
    return StudySpec(benchmark, formulations, quadrature, elements, thickness,
                     material, load, length, radius)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(path, f"invalid JSON: {exc}") from None


def cmd_solve(args) -> int:
    if args.samples < 2:
        raise SchemaError("--samples", "expected at least 2 samples")
    model, form_name, n_elements, policy = load_model(_read_json(args.model))
    solution = solve_model(model, formulation(form_name), n_elements, policy)
    out = args.out
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
    out = args.out
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
    p.add_argument("--out", default="./out", help="output directory")
    p.add_argument("--samples", type=int, default=101, help="resultant sample count")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="run a convergence/locking study file")
    p.add_argument("study", help="study JSON file")
    p.add_argument("--out", default="./out", help="output directory")
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
