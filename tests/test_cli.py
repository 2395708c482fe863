"""Command-line front end: schema validation, exit codes, output files."""
import fnmatch
import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cartbeam.benchmarks import (
    DEMO_DIR,
    analytic_quarter_arc_tip,
    analytic_straight_tip,
    make_quarter_arc_model,
    make_straight_model,
)
from cartbeam.cli import SchemaError, load_model, load_study, main
from cartbeam.discretization import FORMULATIONS, formulation
from cartbeam.postprocess import displacement_samples, tip_displacement
from cartbeam.solver import SingularSystemError, solve_model

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")


def config(name):
    return os.path.join(CONFIG_DIR, name)


def demo(name):
    return os.path.join(DEMO_DIR, name)


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def straight_doc(**overrides):
    doc = {
        "curve": {"kind": "line", "p0": [0, 0, 0], "p1": [10, 0, 0]},
        "material": {"E": 1e6, "nu": 0.3},
        "section": {"shape": "unit_depth_rect", "t": 0.1},
        "formulation": "timoshenko_p2p1",
        "elements": 8,
        "quadrature": "full",
        "bcs": {"start": "clamped", "end": "free"},
        "loads": {"end": {"force": [0, -1, 0]}},
    }
    doc.update(overrides)
    return doc


class TestSchema:
    def test_missing_bcs_names_key(self):
        doc = straight_doc()
        del doc["bcs"]
        with pytest.raises(SchemaError, match="bcs"):
            load_model(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="torsion_constant"):
            load_model(straight_doc(torsion_constant=1.0))

    def test_unknown_nested_key_names_path(self):
        doc = straight_doc()
        doc["curve"]["radius"] = 2.0
        with pytest.raises(SchemaError, match="curve.radius"):
            load_model(doc)

    def test_bad_bc_row(self):
        doc = straight_doc(bcs={"start": {"stretching": {"pinned": 0.0},
                                          "shearing": {"natural": [0, 0, 0]},
                                          "bending": {"natural": [0, 0, 0]},
                                          "twisting": {"natural": 0.0}},
                                "end": "free"})
        with pytest.raises(SchemaError, match="bcs.start.stretching"):
            load_model(doc)

    def test_bad_vector_shape(self):
        doc = straight_doc(loads={"end": {"force": [1, 2]}})
        with pytest.raises(SchemaError, match="loads.end.force"):
            load_model(doc)

    def test_elements_must_be_positive_int(self):
        with pytest.raises(SchemaError, match="elements"):
            load_model(straight_doc(elements=0))

    def test_detailed_bc_and_body_table(self):
        doc = straight_doc(
            bcs={"start": {"stretching": {"essential": 0.0},
                           "shearing": {"essential": [0, 0, 0]},
                           "bending": {"essential": [0, 0, 0]},
                           "twisting": {"essential": 0.0}},
                 "end": "free"},
            loads={"body": {"s": [0.0, 10.0], "f": [[0, -1, 0], [0, -2, 0]]}},
        )
        model, form, n, policy = load_model(doc)
        assert form == "timoshenko_p2p1" and n == 8 and policy == "full"
        f = model.loads.body(np.array([0.0, 5.0]))
        assert f.shape == (2, 3) and np.allclose(f, [[0, -1, 0], [0, -1.5, 0]])

    def test_body_table_needs_increasing_s(self):
        # np.interp reads a decreasing table as garbage without a word
        doc = straight_doc(loads={"body": {"s": [10.0, 0.0], "f": [[0, -2, 0], [0, -1, 0]]}})
        with pytest.raises(SchemaError, match="loads.body: body table s samples must be"):
            load_model(doc)

    def test_study_empty_elements(self):
        with pytest.raises(SchemaError, match="elements"):
            load_study({"benchmark": "straight", "elements": []})


class TestWireFormat:
    def test_roundtrip_kinds(self):
        docs = [
            {"kind": "line", "p0": [0, 0, 0], "p1": [1, 1, 0]},
            {"kind": "arc", "center": [0, 0, 0], "radius": 2.0,
             "basis": [[1, 0, 0], [0, 1, 0]], "angle": [0.0, 1.0]},
            {"kind": "helix", "center": [0, 0, 0], "radius": 1.0, "pitch": 0.2,
             "basis": [[1, 0, 0], [0, 1, 0]], "angle": [0.0, 6.0]},
            {"kind": "hermite_spline", "points": [[0, 0, 0], [1, 1, 0], [2, 0, 0]],
             "end_tangents": [[1, 1, 0], [1, -1, 0]]},
        ]
        for doc in docs:
            curve = load_model(straight_doc(curve=doc))[0].curve
            assert curve.kind == doc["kind"]
            assert curve.length > 0

    def test_helix_center_and_basis_default(self):
        doc = {"kind": "helix", "radius": 1.0, "pitch": 0.2, "angle": [0.0, 6.0]}
        curve = load_model(straight_doc(curve=doc))[0].curve
        full = load_model(straight_doc(curve={**doc, "center": [0, 0, 0],
                                              "basis": [[1, 0, 0], [0, 1, 0]]}))[0].curve
        xi = np.linspace(0.0, 6.0, 7)
        assert np.array_equal(curve.point(xi), full.point(xi))

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="curve.kind"):
            load_model(straight_doc(curve={"kind": "bezier"}))

    def test_section_shapes(self):
        sec = load_model(straight_doc(section={"shape": "circle", "d": 1.0}))[0].section
        assert sec.is_isotropic
        sec = load_model(straight_doc(section={"shape": "rect", "w": 1.0, "h": 2.0,
                                               "director": [0, 0, 1]}))[0].section
        assert not sec.is_isotropic
        with pytest.raises(SchemaError, match="section.director: missing required key"):
            load_model(straight_doc(section={"shape": "rect", "w": 1.0, "h": 2.0}))
        with pytest.raises(SchemaError, match="section.shape"):
            load_model(straight_doc(section={"shape": "triangle"}))

    @pytest.mark.parametrize("section", [{"shape": "unit_depth_rect", "t": 1e300},
                                         {"shape": "circle", "d": 1e200},
                                         {"shape": "rect", "w": 1e300, "h": 1.0,
                                          "director": [0, 0, 1]}])
    def test_overflowing_section_is_a_schema_error(self, section):
        # a raw OverflowError used to escape load_model
        with pytest.raises(SchemaError, match="section: .* must be finite and positive"):
            load_model(straight_doc(section=section))

    def test_study(self):
        study = load_study({
            "benchmark": "quarter_arc",
            "formulations": ["timoshenko_h3p2"],
            "quadrature": ["reduced"],
            "elements": [2, 4, 8],
            "thickness": [0.1],
            "material": {"E": 2e6, "nu": 0.25},
        })
        assert study.material.E == 2e6
        assert study.model(0.1).material is study.material
        assert study.reference(0.1) == pytest.approx(
            analytic_quarter_arc_tip(1.0, 2e6, 0.95, 1.05))

    def test_study_defaults(self):
        study = load_study({"benchmark": "straight", "elements": [2]})
        assert (study.formulations, study.quadrature, study.thickness) == \
            (["timoshenko_p2p1"], ["full"], [0.1])
        assert (study.material.E, study.material.nu) == (1e6, 0.3)
        assert (study.load, study.length, study.radius) == (1.0, 10.0, 1.0)
        assert load_study({"benchmark": "straight", "elements": [2],
                           "material": {"G": 4e5}}).material.nu == 0.25


@pytest.mark.parametrize("path", [config(name) for name in sorted(os.listdir(CONFIG_DIR))]
                         + [demo(name) for name in sorted(os.listdir(DEMO_DIR))],
                         ids=os.path.basename)
def test_every_shipped_config_loads(path):
    with open(path) as fh:
        doc = json.load(fh)
    (load_study if os.path.basename(path).startswith("study_") else load_model)(doc)


# the keys that place each curve kind in space
_PLACEMENT_KEYS = {"line": ("p0", "p1"), "arc": ("center",), "helix": ("center",),
                   "hermite_spline": ("points",)}

SHIPPED_MODELS = ([config(name) for name in sorted(os.listdir(CONFIG_DIR))
                   if not name.startswith("study_")]
                  + [demo(name) for name in sorted(os.listdir(DEMO_DIR))])


@pytest.mark.parametrize("path", SHIPPED_MODELS, ids=os.path.basename)
def test_every_shipped_model_solves_the_same_when_translated(path):
    # the formulation reads only the tangent (and kappa), so a rigid
    # translation by 1e9 in every coordinate must keep the verdict and x; the
    # rigid-mode rows used to be taken about the origin, which counted two
    # free modes on every file translated by 2e7 (the helix by 1e7). Line,
    # arc and helix stay bitwise; a spline's knot points round at 1e9, which
    # moves x by 1.6e-8 and 2.0e-8 relative on the two shipped S-curves
    from cartbeam.discretization import formulation
    from cartbeam.solver import solve_model

    with open(path) as fh:
        doc = json.load(fh)
    curve = dict(doc["curve"])
    for key in _PLACEMENT_KEYS[curve["kind"]]:
        curve[key] = (np.asarray(curve[key], float) + 1e9).tolist()
    x0, x1 = (solve_model(model, formulation(form), n, policy).x
              for model, form, n, policy in (load_model(doc), load_model({**doc, "curve": curve})))
    if curve["kind"] == "hermite_spline":
        assert np.abs(x1 - x0).max() <= 1e-7 * np.abs(x0).max()
    else:
        assert np.array_equal(x1, x0)


def _moved(doc, R, lam, mu):
    """doc turned by the rotation R, with lengths x lam and moduli x mu, and
    its loads scaled to match: forces x mu a, moments x mu a lam, where a =
    lam^2 is the section area's factor (lam for the unit-depth rectangle).
    Then u becomes lam R u and theta becomes R theta. The custom end rows of
    the shipped files are homogeneous, so they stay as they are."""
    doc = json.loads(json.dumps(doc))

    def turn(v, f=1.0):
        return (f * np.asarray(v, float) @ R.T).tolist()

    curve, sec = doc["curve"], doc["section"]
    for key in ("p0", "p1", "center", "points", "end_tangents"):
        if key in curve:
            curve[key] = turn(curve[key], lam)
    for key in ("radius", "pitch"):
        if key in curve:
            curve[key] *= lam
    if "basis" in curve:
        curve["basis"] = turn(curve["basis"])
    for key in ("E", "G"):
        if key in doc["material"]:
            doc["material"][key] *= mu
    for key in ("d", "t", "w", "h"):
        if key in sec:
            sec[key] *= lam
    if "director" in sec:
        sec["director"] = turn(sec["director"])
    a = mu * (lam if sec["shape"] == "unit_depth_rect" else lam**2)
    for end in ("start", "end"):
        load = doc["loads"].get(end, {})
        for key, f in (("force", a), ("moment", a * lam)):
            if key in load:
                load[key] = turn(load[key], f)
    assert "body" not in doc["loads"]
    for c in doc.get("constraints", []):
        c["direction"] = turn(c["direction"])
        c["value"] = c.get("value", 0.0) * (lam if c.get("field", "u") == "u" else 1.0)
    for bc in doc["bcs"].values():
        assert isinstance(bc, str) or not any(np.any(v) for row in bc.values()
                                              for v in row.values())
    return doc


def _solve(doc):
    model, form, n, policy = load_model(doc)
    return solve_model(model, formulation(form), n, policy)


def _verdict(doc):
    """The solution of a model document, or the SingularSystemError it raises."""
    try:
        return _solve(doc)
    except SingularSystemError as exc:
        return exc


# The largest error over 200 random draws at n = 8, 3600 solve pairs, which
# read the same before and after the residual norms moved to BLAS nrm2:
# 8.8e-15 to 5.5e-14 on the quarter arc under Timoshenko kinematics, up to
# 4.8e-12 on the straight files and 5.4e-12 on the S-curves, 3.5e-10 on the
# helix spring (H3-P2; 9.9e-11 under P2-P1), and for EB-H3 up to 3.7e-11 (the
# S-curve under torque). The helix reads 1e-12 at lam = 1 and 3.6e-10 at an
# exact lam = 2^-10, whose assembled blocks scale exactly: the banded solve's
# rounding changes with the units.
_MOTION_BOUND = 1e-9


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_lam=st.floats(-3.0, 3.0),
       log_mu=st.floats(-3.0, 3.0))
def test_every_shipped_model_turns_and_scales_with_its_data(seed, log_lam, log_mu):
    # the formulation reads only the tangent (and kappa), so a rigid rotation
    # and a change of units of a whole model keep its verdict and map its
    # solution: u to lam R u and theta to R theta, compared at 9 points
    # relative to max(|u|, L |theta|)
    R = Rotation.random(random_state=seed).as_matrix()
    lam, mu = 10.0 ** log_lam, 10.0 ** log_mu
    for path, form in itertools.product(SHIPPED_MODELS, sorted(FORMULATIONS)):
        with open(path) as fh:
            doc = {**json.load(fh), "formulation": form, "elements": 8}
        base, moved = _verdict(doc), _verdict(_moved(doc, R, lam, mu))
        assert type(moved) is type(base), (path, form)
        if isinstance(base, SingularSystemError):
            continue
        (u0, th0), (u1, th1) = (displacement_samples(sol, np.linspace(0.0, sol.mesh.length, 9))
                                for sol in (base, moved))
        L = base.mesh.length
        err = max(np.abs(u1 / lam - u0 @ R.T).max(), L * np.abs(th1 - th0 @ R.T).max())
        assert err <= _MOTION_BOUND * max(np.abs(u0).max(), L * np.abs(th0).max()), \
            (path, form)


def _scaled(path, keys, factor):
    """A shipped model file with the value at the key path keys x factor."""
    with open(path) as fh:
        doc = json.load(fh)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = (factor * np.asarray(node[keys[-1]])).tolist()
    return doc


MODULUS, END_FORCE = ("material", "E"), ("loads", "end", "force")


@pytest.mark.parametrize("path, keys, factor, tip_factor", [
    (demo("helix_spring.json"), MODULUS, 1e294, 1e-294),
    (config("straight_cantilever.json"), MODULUS, 1e294, 1e-294),
    (config("quarter_arc.json"), MODULUS, 1e-306, 1e306),
    (config("quarter_arc.json"), END_FORCE, 1e300, 1e300),
], ids=["helix_E1e300", "straight_E1e300", "arc_E1e-300", "arc_force1e300"])
def test_extreme_values_solve_to_the_scaled_solution(path, keys, factor, tip_factor):
    # the residual and hourglass-load checks take their 2-norms by BLAS
    # nrm2: a sum of squares underflowed |x| to 0 at E = 1e300, which dropped
    # kappa |x| from the equilibrium bound and refused the solve, and
    # overflowed, with a RuntimeWarning, to an inf bound at E = 1e-300 and to
    # an inf hourglass bound under a force of 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        base, scaled = (_solve(_scaled(path, keys, f)) for f in (1.0, factor))
    tip, ref = tip_displacement(scaled) / tip_factor, tip_displacement(base)
    assert np.abs(tip - ref).max() <= 1e-12 * np.abs(ref).max()


def test_straight_cantilever_at_tiny_modulus_is_refused():
    # at E = 1e-300 the tip is ~1e302 and the solve loses its digits: the
    # equilibrium residual reads 1.1 against a bound of 9.9e-4, which the
    # overflowing norm made inf
    with pytest.raises(SingularSystemError, match="equilibrium residual"):
        _solve(_scaled(config("straight_cantilever.json"), MODULUS, 1e-306))


def test_package_data_ships_every_demo():
    # an installed cartbeam reads its demos from package data, so a demo file
    # the glob misses would exist in a checkout only
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["cartbeam"]
    names = sorted(os.listdir(DEMO_DIR))
    assert names
    for name in names:
        assert any(fnmatch.fnmatch(f"demos/{name}", g) for g in globs), name


def _edit(doc, path, value):
    """doc with the value at a dotted key path ("a.b[0].c") replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.replace("[", ".").replace("]", "").split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return doc


ARC = {"kind": "arc", "center": [0, 0, 0], "radius": 10.0, "basis": [[1, 0, 0], [0, 1, 0]],
       "angle": [0.0, 1.5]}
CONSTRAINED = straight_doc(constraints=[{"at": "end", "direction": [0, 0, 1], "value": 0.0}])
NAN, INF = float("nan"), float("inf")
STUDY = {"benchmark": "straight", "formulations": ["timoshenko_p2p1"], "quadrature": ["full"],
         "elements": [1, 2], "thickness": [0.1], "material": {"E": 1e6, "G": 4e5}}


@pytest.mark.parametrize("command, doc, path, value", [
    ("solve", straight_doc(), "constraints", [5]),
    ("solve", straight_doc(), "bcs", 5),
    ("solve", straight_doc(), "loads", 5),
    ("solve", straight_doc(), "loads.end", 5),
    ("solve", straight_doc(), "curve", 5),
    ("solve", straight_doc(), "section", 5),
    ("solve", straight_doc(), "material.G", "abc"),
    ("solve", straight_doc(), "material.nu", "abc"),
    ("solve", straight_doc(), "loads.end.force", "abc"),
    ("solve", straight_doc(), "loads.end.force", [1, "a", 2]),
    ("solve", straight_doc(curve=ARC), "curve.angle", 5),
    ("solve", straight_doc(curve=ARC), "curve.basis", 5),
    ("solve", straight_doc(curve=ARC), "curve.radius", "10"),
    ("solve", CONSTRAINED, "constraints[0].value", "abc"),
    ("solve", straight_doc(), "elements", True),
    ("converge", STUDY, "elements", 5),
    ("converge", STUDY, "material", 5),
    ("converge", STUDY, "material.G", "abc"),
    ("converge", STUDY, "formulations", 5),
    ("converge", STUDY, "elements", [True, 2]),
    ("converge", STUDY, "thickness", [0.1, "abc"]),
    ("converge", STUDY, "load", "abc"),
    ("converge", STUDY, "load", 0),
    ("converge", STUDY, "length", -1),
    ("converge", STUDY, "thickness[0]", -0.1),
    ("converge", {**STUDY, "benchmark": "quarter_arc"}, "radius", 0.01),
    ("converge", STUDY, "benchmark", "spiral"),
    ("converge", STUDY, "formulations[0]", "timoshenko_x"),
    ("converge", STUDY, "quadrature[0]", "selective"),
    ("converge", STUDY, "elements[0]", 0),
    ("converge", STUDY, "elements", [2, 2]),
    # JSON readers accept NaN and Infinity
    ("solve", straight_doc(curve=ARC), "curve.radius", NAN),
    ("solve", straight_doc(), "material.E", NAN),
    ("solve", straight_doc(), "loads.end.force", [0, NAN, 0]),
    ("solve", straight_doc(), "loads.body", {"s": [0, 10], "f": [[0, NAN, 0], [0, -1, 0]]}),
    ("solve", straight_doc(), "loads.body", {"s": [0, INF], "f": [[0, -1, 0], [0, -1, 0]]}),
    ("converge", STUDY, "thickness[0]", INF),
    ("converge", STUDY, "load", NAN),
], ids=lambda v: json.dumps(v) if not isinstance(v, dict) else "doc")
def test_malformed_value_exits_1_and_names_its_path(tmp_path, capsys, command, doc, path,
                                                    value):
    bad = write_json(tmp_path / "doc.json", _edit(doc, path, value))
    assert main([command, bad, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "Traceback" not in err


class TestSolveCommand:
    @staticmethod
    def assert_runs_without(module, argv):
        """`cartbeam` with argv exits 0 in a fresh process that never imports module."""
        code = ("import sys\nfrom cartbeam.cli import main\n"
                "assert main(sys.argv[2:]) == 0\n"
                "assert sys.argv[1] not in sys.modules, sys.argv[1] + ' was imported'")
        path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code, module, *argv],
                             env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_solve_never_imports_scipy_sparse(self, tmp_path):
        # K_soft, C and B stay as element and end-node blocks on the solve
        # path; only reading LinearSystem's scipy matrices would load
        # scipy.sparse
        self.assert_runs_without("scipy.sparse", ["solve", demo("helix_spring.json"),
                                                  "--out", str(tmp_path / "out")])

    def test_validate_never_imports_scipy_sparse(self):
        # every criterion that reads K, the mechanics suite's rigid-mode
        # energy, symmetry and energy identity among them, forms it from
        # its element matrices
        self.assert_runs_without("scipy.sparse", ["validate"])

    def test_geometry_criterion_never_imports_scipy_optimize(self):
        # criterion 7 builds its Frenet frame and its projection onto the
        # midline from `frames` and Newton steps, so no optimizer is loaded
        self.assert_runs_without("scipy.optimize",
                                 ["validate", "--criteria", "geometry_identity_suite"])

    def test_shipped_straight_model(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["solve", config("straight_cantilever.json"), "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        ref = analytic_straight_tip(1.0, 1e6, 0.3, 0.1, 10.0)
        assert summary["tip_displacement"][1] == pytest.approx(ref, rel=1e-3)
        assert os.path.exists(os.path.join(out, "centerline.csv"))
        assert os.path.exists(os.path.join(out, "resultants.csv"))

    @pytest.mark.parametrize("material", [{"E": 1e6, "nu": -1.0},
                                          {"E": 1e6, "G": 1.0, "nu": 0.3}])
    def test_invalid_material_exits_1(self, tmp_path, capsys, material):
        path = write_json(tmp_path / "model.json", straight_doc(material=material))
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: material") and "Traceback" not in err

    def test_missing_bcs_exits_1(self, tmp_path, capsys):
        doc = straight_doc()
        del doc["bcs"]
        path = write_json(tmp_path / "model.json", doc)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
        assert "bcs" in capsys.readouterr().err

    def test_point_constraint_field_not_in_formulation_exits_1(self, tmp_path, capsys):
        doc = straight_doc(formulation="euler_bernoulli_h3",
                           constraints=[{"at": "end", "field": "theta", "direction": [1, 0, 0]}])
        with pytest.raises(SchemaError, match=r"constraints\[0\]\.field"):
            load_model(doc)
        path = write_json(tmp_path / "model.json", doc)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
        assert "constraints[0].field" in capsys.readouterr().err

    @pytest.mark.parametrize("form,field,direction", [
        ("timoshenko_p2p1", "u", [0, 0, 0]),
        ("euler_bernoulli_h3", "theta_t", [0, 1, 0]),
    ])
    def test_point_constraint_with_an_empty_row_exits_1(self, tmp_path, capsys, form, field,
                                                        direction):
        doc = straight_doc(formulation=form, constraints=[
            {"at": "end", "field": field, "direction": direction, "value": 0.1}])
        with pytest.raises(SchemaError, match=r"constraints\[0\]\.direction"):
            load_model(doc)
        path = write_json(tmp_path / "model.json", doc)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
        assert "constraints[0].direction" in capsys.readouterr().err

    def test_conflicting_constraints_exit_1(self, tmp_path, capsys):
        # the clamped start already holds u_y = 0
        doc = straight_doc(constraints=[{"at": "start", "field": "u", "direction": [0, 1, 0],
                                         "value": 0.5}])
        path = write_json(tmp_path / "model.json", doc)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
        assert "contradicts" in capsys.readouterr().err

    def test_director_along_tangent_exits_1(self, tmp_path, capsys):
        doc = straight_doc(section={"shape": "rect", "w": 0.1, "h": 0.2,
                                    "director": [1, 0, 0]})
        path = write_json(tmp_path / "model.json", doc)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
        assert "director" in capsys.readouterr().err

    @pytest.mark.parametrize("path, key, value",
                             [(config("quarter_arc.json"), "curve.radius", 1e-300),
                              (demo("helix_spring.json"), "curve.pitch", 1e300)],
                             ids=["arc_radius_1e-300", "helix_pitch_1e300"])
    def test_degenerate_curve_data_exits_1(self, tmp_path, capsys, path, key, value):
        # a helix of vanishing speed is refused when it is built, and a value
        # that stops being finite in assembly is a ValueError: both end in
        # "error:", not in a traceback. At pitch 1e300 the section frames
        # overflow first, so the warning filter is the test's own
        with open(path) as fh:
            model = write_json(tmp_path / "model.json", _edit(json.load(fh), key, value))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["solve", model, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_singular_system_exits_2(self, tmp_path):
        doc = straight_doc(bcs={"start": "free", "end": "free"})
        path = write_json(tmp_path / "model.json", doc)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 2

    def test_load_on_hourglass_modes_exits_2(self, tmp_path, capsys):
        # a linear body load does work on the zero-energy modes of H3-P2
        # under reduced quadrature
        doc = straight_doc(formulation="timoshenko_h3p2", quadrature="reduced",
                           loads={"body": {"s": [0, 10], "f": [[0, 0, 0], [0, -1, 0]]}})
        path = write_json(tmp_path / "model.json", doc)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 2
        assert "zero-energy mode" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_fewer_than_two_samples_exits_1(self, tmp_path, capsys, samples):
        assert main(["solve", config("straight_cantilever.json"), "--samples", samples,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: --samples: ")

    def test_unwritable_output_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        path = write_json(tmp_path / "model.json", straight_doc())
        assert main(["solve", path, "--out", str(blocker)]) == 3

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["solve", config("quarter_arc.json"), "--out", out1]) == 0
        assert main(["solve", config("quarter_arc.json"), "--out", out2]) == 0
        for name in ("centerline.csv", "resultants.csv", "summary.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_beam_out_env_is_ignored(self, tmp_path, monkeypatch):
        # --out alone names the output directory of both commands that write
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("BEAM_OUT", str(env_out))
        for command, path, written in (("solve", "straight_cantilever.json", "summary.json"),
                                       ("converge", "study_straight.json", "convergence.csv")):
            flag_out = tmp_path / command
            assert main([command, config(path), "--out", str(flag_out)]) == 0
            assert (flag_out / written).exists()
        assert not env_out.exists()

    def test_spline_config_twist_decouples(self):
        # end-to-end through the JSON spline path: the in-plane S-curve load
        # must leave the twist identically zero
        from cartbeam.discretization import formulation
        from cartbeam.solver import solve_model
        import numpy as np

        doc = json.load(open(demo("s_curve_bend.json")))
        model, form_name, n, policy = load_model(doc)
        sol = solve_model(model, formulation(form_name), n, policy)
        for si in np.linspace(0.0, sol.mesh.length, 17):
            fr = model.curve.frame(float(si))
            st = sol.evaluate(float(si))
            assert abs(float(fr.t @ st.theta)) <= 1e-10

    def test_helix_spring_with_constraints(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["solve", demo("helix_spring.json"), "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        tip = summary["tip_displacement"]
        assert tip[2] < 0 and abs(tip[0]) < 1e-8 and abs(tip[1]) < 1e-8


class TestConvergeCommand:
    def test_shipped_straight_study(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["converge", config("study_straight.json"), "--out", out]) == 0
        lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
        assert lines[0] == ("benchmark,formulation,quadrature,t,n_elem,qoi,error,rel_error,"
                            "model_gap,order")
        assert len(lines) == 1 + 2 * 6   # two thicknesses, six meshes

    def test_shipped_quarter_arc_study_orders(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["converge", config("study_quarter_arc.json"), "--out", out]) == 0
        printed = capsys.readouterr().out
        orders = {}
        for line in printed.splitlines():
            if line.startswith("quarter_arc") and "fitted order" in line:
                head, val = line.rsplit("fitted order", 1)
                key = ("p2p1" if "p2p1" in head else "h3p2", "0.001" in head)
                orders[key] = float(val)
        assert abs(orders[("p2p1", False)] - 2.0) <= 0.2
        assert abs(orders[("p2p1", True)] - 2.0) <= 0.2
        assert abs(orders[("h3p2", False)] - 4.0) <= 0.3
        assert abs(orders[("h3p2", True)] - 4.0) <= 0.3
        lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
        assert len(lines) == 1 + 2 * 2 * 6  # 2 formulations x 2 thicknesses x 6 meshes

    def test_study_with_shear_modulus_converges(self, tmp_path):
        # STUDY gives E and G; the straight reference needs the nu they imply
        path = write_json(tmp_path / "study.json", STUDY)
        out = str(tmp_path / "out")
        assert main(["converge", path, "--out", out]) == 0
        assert len(open(os.path.join(out, "convergence.csv")).read().splitlines()) == 3

    def test_empty_element_list_exits_1(self, tmp_path):
        path = write_json(tmp_path / "study.json",
                          {"benchmark": "straight", "elements": []})
        assert main(["converge", path, "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("empty", [["thickness", "formulations"], ["formulations"],
                                       ["quadrature"], ["thickness"]])
    def test_empty_study_lists_exit_1_and_write_nothing(self, tmp_path, capsys, empty):
        # an empty list used to run no cell, write a header-only CSV and exit 0
        doc = {"benchmark": "straight", "elements": [1, 2, 4], **{key: [] for key in empty}}
        out = tmp_path / "out"
        assert main(["converge", write_json(tmp_path / "study.json", doc), "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {empty[-1]}: expected a nonempty list")
        assert not out.exists()

    def test_single_cell_study_order_empty(self, tmp_path):
        path = write_json(tmp_path / "study.json",
                          {"benchmark": "straight", "elements": [4],
                           "formulations": ["timoshenko_p2p1"],
                           "quadrature": ["full"], "thickness": [0.1]})
        out = str(tmp_path / "out")
        assert main(["converge", path, "--out", out]) == 0
        lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",")   # order column empty


class TestValidateCommand:
    def test_list_prints_names(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "straight_cantilever_order_p2p1" in out
        assert "curvature_coupling_demos" in out

    def test_subset_passes(self, capsys):
        assert main(["validate", "--criteria",
                     "geometry_identity_suite,h3p2_one_element_quality"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_sabotaged_tolerances_fail(self, monkeypatch, capsys):
        import cartbeam.acceptance
        inner = cartbeam.acceptance.run_acceptance
        monkeypatch.setattr(cartbeam.acceptance, "run_acceptance",
                            lambda names=None: inner(names=names, slack=1e-12))
        assert main(["validate", "--criteria", "geometry_identity_suite"]) != 0
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_criterion_exits_1(self):
        assert main(["validate", "--criteria", "nonexistent_criterion"]) == 1


@pytest.mark.parametrize("name, make", [("straight_cantilever.json", make_straight_model),
                                        ("quarter_arc.json", make_quarter_arc_model)])
def test_shipped_config_section_matches_the_study_model(name, make):
    # the CLI and the convergence studies build the unit-depth section with
    # one constructor, so the two paths solve with the same bits
    with open(config(name)) as fh:
        model = load_model(json.load(fh))[0]
    assert model.section == make(0.1).section
