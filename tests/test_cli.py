"""Command-line front end: schema validation, exit codes, output files."""
import fnmatch
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cartbeam.benchmarks import (
    DEMO_DIR,
    analytic_quarter_arc_tip,
    analytic_straight_tip,
    make_quarter_arc_model,
    make_straight_model,
)
from cartbeam.cli import SchemaError, load_model, load_study, main

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

    def test_beam_out_env_overrides_flag(self, tmp_path, monkeypatch):
        env_out = str(tmp_path / "env_out")
        monkeypatch.setenv("BEAM_OUT", env_out)
        assert main(["solve", config("straight_cantilever.json"),
                     "--out", str(tmp_path / "flag_out")]) == 0
        assert os.path.exists(os.path.join(env_out, "summary.json"))

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
        assert lines[0] == "benchmark,formulation,quadrature,t,n_elem,qoi,error,rel_error,order"
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
