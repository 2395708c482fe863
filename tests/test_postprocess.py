"""Resultant, reaction, and export tests.

Static-equilibrium oracles: on a tip-loaded cantilever the internal force
transmitted across every section must equal the applied tip load, and the
reactions recovered from the multipliers must balance all applied loads.
"""
import json
import math
import os
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartbeam import postprocess
from cartbeam.assembly import BeamModel, BoundaryCondition, LoadCase, PointConstraint, \
    discretize
from cartbeam.benchmarks import DEMO_DIR, make_quarter_arc_model, make_straight_model
from cartbeam.cli import load_model
from cartbeam.discretization import FORMULATIONS, formulation, shape_eval
from cartbeam.geometry import CircularArc, Helix, HermiteSpline, LineSegment, ParamCurve
from cartbeam.postprocess import (
    _CSV_BLOCK,
    _write_csv,
    applied_load_totals,
    displacement_samples,
    export,
    reaction_force_totals,
    reactions,
    resultants,
    resultants_curvature_form,
    sample_points,
    strain_energy,
)
from cartbeam.section import Material, circle_section, inertia_tensor, rect_section
from cartbeam.solver import SolutionFields, solve_model
from manufactured import interpolated_solution

MAT = Material(E=1e6, nu=0.3)


def solved_cantilever(form="timoshenko_h3p2", n=4, P=1.0):
    model = make_straight_model(0.1, L=10.0, P=P)
    return solve_model(model, formulation(form), n)


class TestResultants:
    def test_zero_solution_zero_resultants(self):
        model = make_straight_model(0.1, P=0.0)
        sol = solve_model(model, formulation("timoshenko_p2p1"), 3)
        res = resultants(sol, np.linspace(0, 10, 5))
        for q in "NSMT":
            assert np.allclose(getattr(res, q), 0.0, atol=1e-12)

    def test_constant_shear_state(self):
        # transmitted section force equals the applied tip load everywhere
        sol = solved_cantilever()
        s = sample_points(sol)
        res = resultants(sol, s)
        assert np.allclose(res.S, np.array([0.0, -1.0, 0.0]), atol=1e-8)
        assert np.allclose(res.N, 0.0, atol=1e-8)
        # |S| at the support equals the applied load magnitude
        assert np.linalg.norm(resultants(sol, 0.0).S[0]) == pytest.approx(1.0, abs=1e-8)

    def test_projection_invariants(self):
        helix = Helix([0, 0, 0], 1.0, 0.2, [1, 0, 0], [0, 1, 0], 0.0, 3 * np.pi)
        model = BeamModel(curve=helix, material=MAT, section=circle_section(0.12),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(force_end=[0.2, 0.1, -0.4],
                                         moment_end=[0.05, 0.0, 0.02]))
        sol = solve_model(model, formulation("timoshenko_h3p2"), 16, "reduced")
        s = sample_points(sol)
        res = resultants(sol, s)
        scale = max(np.abs(v).max() for v in (res.N, res.S, res.M, res.T))
        for i, si in enumerate(s):
            t = model.curve.frame(float(si)).t
            assert np.linalg.norm(np.cross(res.N[i], t)) <= 1e-10 * scale
            assert np.linalg.norm(np.cross(res.T[i], t)) <= 1e-10 * scale
            assert abs(res.S[i] @ t) <= 1e-10 * scale
            assert abs(res.M[i] @ t) <= 1e-10 * scale

    def test_pure_twist_shaft(self):
        T = 0.3
        model = BeamModel(curve=LineSegment([0, 0, 0], [10, 0, 0]), material=MAT,
                          section=circle_section(0.2),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(moment_end=[T, 0.0, 0.0]))
        for name in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
            sol = solve_model(model, formulation(name), 4)
            s = np.linspace(0.5, 9.5, 7)
            res = resultants(sol, s)
            assert np.allclose(res.T, np.array([T, 0.0, 0.0]), atol=1e-10)
            assert np.allclose(res.M, 0.0, atol=1e-10)


class TestCurvatureForms:
    def test_agreement_on_solved_arc(self):
        sol = solve_model(make_quarter_arc_model(0.1), formulation("timoshenko_p2p1"),
                          8, "reduced")
        s = np.linspace(0.05, sol.mesh.length - 0.05, 10)
        plain = resultants(sol, s)
        sep = resultants_curvature_form(sol, s)
        scale = max(np.abs(getattr(plain, q)).max() for q in "NSMT")
        for q in "NSMT":
            assert np.abs(getattr(plain, q) - getattr(sep, q)).max() <= 1e-10 * scale

    def test_forms_identical_on_straight(self):
        sol = solved_cantilever("timoshenko_p2p1", n=6)
        s = np.linspace(0, 10, 9)
        plain = resultants(sol, s)
        sep = resultants_curvature_form(sol, s)
        for q in "NSMT":
            assert np.allclose(getattr(plain, q), getattr(sep, q), atol=1e-12)

    def test_agreement_on_nonplanar_spline_and_off_plane_arc(self):
        y = np.linspace(0.0, 4.0, 7)
        pts = np.column_stack([0.5 * np.sin(np.pi * y / 2), y, 0.15 * y**2])
        spline = HermiteSpline(pts, [0.7, 0.6, 0.0], [0.5, 0.7, 0.4])
        arc_yz = CircularArc([0.5, 0, 0], 2.0, [0, 1, 0], [0, 0, 1], 0.3, 1.8)
        loads = LoadCase(force_end=[0.1, -0.2, 0.3], moment_end=[0.02, 0.0, -0.05])
        cases = [(spline, "timoshenko_h3p2"), (spline, "euler_bernoulli_h3"),
                 (arc_yz, "timoshenko_p2p1")]
        for curve, name in cases:
            model = BeamModel(curve=curve, material=MAT, section=circle_section(0.1),
                              bc_start=BoundaryCondition.clamped(),
                              bc_end=BoundaryCondition.free(), loads=loads)
            sol = solve_model(model, formulation(name), 16, "reduced")
            s = sample_points(sol)
            plain = resultants(sol, s)
            sep = resultants_curvature_form(sol, s)
            scale = max(np.abs(getattr(plain, q)).max() for q in "NSMT")
            for q in "NSMT":
                assert np.abs(getattr(plain, q) - getattr(sep, q)).max() <= 1e-10 * scale
            resid = applied_load_totals(sol) + reaction_force_totals(sol)
            fscale = max(np.linalg.norm(applied_load_totals(sol)), 1e-30)
            assert np.linalg.norm(resid) <= 1e-8 * fscale

    def test_manufactured_tangential_field_on_arc(self):
        # u(s) = s t(s): unit tangential stretch, N = E|A| t from both forms
        R = 1.0
        model = make_quarter_arc_model(0.1, R=R, P=0.0)
        system = discretize(model, formulation("timoshenko_h3p2"), 6, "reduced")
        curve = model.curve
        u = lambda s: s * curve.frame(s).t
        du = lambda s: curve.frame(s).t + s * curve.frame(s).kappa
        sol = interpolated_solution(system, u=u, du=du, theta=lambda s: np.zeros(3),
                                    dtheta=lambda s: np.zeros(3))
        EA = MAT.E * model.section.area
        for s in system.mesh.nodes:  # interpolation is exact at the nodes
            si = float(s)
            t = curve.frame(si).t
            for res in (resultants(sol, si), resultants_curvature_form(sol, si)):
                assert np.allclose(res.N[0], EA * t, rtol=1e-10)


class TestReactionsAndEnergy:
    @pytest.mark.parametrize("name", FORMULATIONS)
    def test_reactions_balance_tip_load(self, name):
        # a 3D tip force and moment on the straight cantilever: the clamp
        # takes -F and -(M + L e_x x F)
        F, M = np.array([0.3, -1.0, 0.5]), np.array([0.2, -0.4, 0.7])
        model = make_straight_model(0.1, L=10.0)
        model.loads = LoadCase(force_end=F, moment_end=M)
        r = reactions(solve_model(model, formulation(name), 4))
        assert np.allclose(r["start"]["force"], -F, atol=1e-8)
        assert np.allclose(r["start"]["moment"], -(M + np.cross([10.0, 0.0, 0.0], F)), atol=1e-7)
        assert np.allclose(r["end"]["force"], 0.0, atol=1e-12)
        assert np.allclose(r["end"]["moment"], 0.0, atol=1e-12)

    @pytest.mark.parametrize("name, field", [("euler_bernoulli_h3", "theta_t"),
                                             ("timoshenko_h3p2", "theta")])
    def test_held_twist_reaction_balances_end_torque(self, name, field):
        # a shaft under end torque, clamped at the start, twist held at the end
        torque = np.array([0.3, 0.0, 0.0])
        model = BeamModel(curve=LineSegment([0, 0, 0], [2.0, 0, 0]), material=MAT,
                          section=circle_section(0.1), bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(), loads=LoadCase(moment_end=torque),
                          constraints=[PointConstraint("end", field, [1.0, 0.0, 0.0])])
        r = reactions(solve_model(model, formulation(name), 4))
        total = torque + r["start"]["moment"] + r["end"]["moment"]
        assert np.linalg.norm(total) <= 1e-10 * np.linalg.norm(torque)

    def test_global_force_balance_on_curved_models(self):
        arc = make_quarter_arc_model(0.1)
        helix = BeamModel(curve=Helix([0, 0, 0], 1.0, 0.2, [1, 0, 0], [0, 1, 0],
                                      0.0, 3 * np.pi),
                          material=MAT, section=circle_section(0.12),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(force_end=[0.2, 0.1, -0.4],
                                         body=[0.0, 0.0, -0.05]))
        for model, name in ((arc, "timoshenko_p2p1"), (helix, "timoshenko_h3p2")):
            sol = solve_model(model, formulation(name), 12, "reduced")
            resid = applied_load_totals(sol) + reaction_force_totals(sol)
            scale = max(np.linalg.norm(applied_load_totals(sol)), 1e-30)
            assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_energy_identity(self):
        sol = solve_model(make_quarter_arc_model(0.1), formulation("timoshenko_h3p2"),
                          10, "reduced")
        a_uu = float(sol.x @ (sol.system.K @ sol.x))
        l_u = float(sol.system.rhs @ sol.x)
        assert a_uu == pytest.approx(l_u, rel=1e-10)
        assert strain_energy(sol) == pytest.approx(0.5 * l_u, rel=1e-10)

    def test_energy_keeps_its_digits_on_a_stiff_model(self):
        with open(os.path.join(DEMO_DIR, "helix_spring.json")) as fh:
            model, name, n, policy = load_model(json.load(fh))
        sol = solve_model(model, formulation(name), n, policy)
        energy = strain_energy(sol)
        rng = np.random.default_rng(7)
        x = sol.x * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, sol.x.shape))
        moved = SolutionFields(system=sol.system, x=x, multipliers=sol.multipliers)
        assert abs(strain_energy(moved) - energy) < 1e-12 * abs(energy)


class TestExport:
    def test_headers_and_row_counts(self, tmp_path):
        sol = solved_cantilever()
        paths = export(sol, str(tmp_path), n_samples=23)
        center = open(paths["centerline"]).read().splitlines()
        res = open(paths["resultants"]).read().splitlines()
        assert center[0] == "s,x,y,z,ux,uy,uz,thx,thy,thz"
        assert res[0] == "s,Nx,Ny,Nz,Sx,Sy,Sz,Mx,My,Mz,Tx,Ty,Tz"
        assert len(center) == 24
        assert len(res) == 24
        assert open(paths["centerline"], "rb").read().endswith(b"\n")

    def test_zero_solution_roundtrip(self, tmp_path):
        model = make_straight_model(0.1, P=0.0)
        sol = solve_model(model, formulation("timoshenko_p2p1"), 3)
        paths = export(sol, str(tmp_path), n_samples=5)
        data = np.genfromtxt(paths["centerline"], delimiter=",", skip_header=1)
        assert np.allclose(data[:, 4:], 0.0, atol=1e-12)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        sol = solved_cantilever()
        paths = export(sol, str(tmp_path), n_samples=11)
        s = np.linspace(0.0, 10.0, 11)
        res = resultants(sol, s)
        rows = open(paths["resultants"]).read().splitlines()[1:]
        for i, row in enumerate(rows):
            vals = [float(v) for v in row.split(",")]
            assert vals[0] == s[i]
            assert vals[1:4] == list(res.N[i])
            assert vals[4:7] == list(res.S[i])

    @pytest.mark.parametrize("curve", [
        LineSegment([0, 0, 0], [3.0, 0.5, 0.0]),
        CircularArc([0, 0, 0], 1.5, [1, 0, 0], [0, 1, 0], 0.0, 2.0),
        Helix([0, 0, 0], 1.0, 0.3, [1, 0, 0], [0, 1, 0], 0.0, 3.0),
        HermiteSpline(np.array([[0.0, 0, 0], [1.0, 0.6, 0.2], [2.0, 0.0, 0.5]]),
                      [1.0, 0.5, 0.0], [1.0, -0.5, 0.3]),
    ], ids=lambda c: c.kind)
    def test_one_frames_query_per_export(self, tmp_path, monkeypatch, curve):
        model = BeamModel(curve=curve, material=MAT, section=circle_section(0.1),
                          bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
                          loads=LoadCase(force_end=[0.1, -0.2, 0.3]))
        sol = solve_model(model, formulation("timoshenko_h3p2"), 4)
        calls = []
        frames = ParamCurve.frames
        monkeypatch.setattr(ParamCurve, "frames", lambda c, s: calls.append(1) or frames(c, s))
        paths = export(sol, str(tmp_path), n_samples=13)
        assert len(calls) == 1
        monkeypatch.undo()
        data = np.loadtxt(paths["resultants"], delimiter=",", skiprows=1)
        res = resultants(sol, data[:, 0])
        ref = np.column_stack([res.s, res.N, res.S, res.M, res.T])
        assert np.abs(data - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_block_writer_matches_row_format(self, tmp_path, n):
        # the blocked writer gives the bytes of one %.17g format per row, on
        # special values and across a block boundary
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300,
                   0.1, 1.0 / 3.0, -2.5e-17, 123456789.0]
        rows = np.resize(np.array(special), (n, 10))
        rows[-1, :] = np.random.default_rng(n).normal(size=10)
        path = tmp_path / "block.csv"
        _write_csv(str(path), "a,b,c,d,e,f,g,h,i,j", rows)
        row_fmt = ",".join(["%.17g"] * 10) + "\n"
        expected = "a,b,c,d,e,f,g,h,i,j\n" + "".join(row_fmt % tuple(r) for r in rows.tolist())
        assert path.read_bytes() == expected.encode()

    def test_repeat_export_byte_identical(self, tmp_path):
        sol = solved_cantilever()
        p1 = export(sol, str(tmp_path / "a"), n_samples=7)
        p2 = export(sol, str(tmp_path / "b"), n_samples=7)
        for key in p1:
            assert open(p1[key], "rb").read() == open(p2[key], "rb").read()

    @pytest.mark.parametrize("n_samples", [0, 1, -3, 2.5])
    def test_too_few_or_fractional_samples_are_refused(self, tmp_path, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            export(solved_cantilever(), str(tmp_path / "out"), n_samples=n_samples)
        assert not (tmp_path / "out").exists()

    def test_two_samples_are_the_two_ends(self, tmp_path):
        paths = export(solved_cantilever(), str(tmp_path), n_samples=2)
        data = np.loadtxt(paths["centerline"], delimiter=",", skiprows=1)
        assert data[:, 0].tolist() == [0.0, 10.0]


def _row_format(header: str, rows: np.ndarray) -> bytes:
    """The reference CSV: one '%.17g' format per row."""
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return (header + "\n" + "".join(row_fmt % tuple(r) for r in rows.tolist())).encode()


def _python_formatted(monkeypatch) -> list:
    """Record each value that the CSV writer hands to Python's formatting."""
    seen = []
    fmt = postprocess._py_format
    monkeypatch.setattr(postprocess, "_py_format", lambda v: seen.append(v) or fmt(v))
    return seen


class TestCsvFormat:
    """The array-formatted CSV cells against Python's own '%.17g'."""

    def check(self, tmp_path, values, width=1):
        rows = np.asarray(values, dtype=float).reshape(-1, width)
        header = ",".join("c%d" % j for j in range(width))
        path = tmp_path / "cells.csv"
        _write_csv(str(path), header, rows)
        assert path.read_bytes() == _row_format(header, rows)

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(18).integers(0, 2**64, 2**18, dtype=np.uint64)
        self.check(tmp_path, bits.view(np.float64), width=16)

    def test_powers_of_ten_and_their_neighbours(self, tmp_path, monkeypatch):
        p10 = 10.0 ** np.arange(-300, 301)
        seen = _python_formatted(monkeypatch)
        self.check(tmp_path, [np.nextafter(p10, -np.inf), p10, np.nextafter(p10, np.inf)],
                   width=601)
        # where log10 misplaces the exponent, the array path corrects it: in
        # range, only a tie (999999999999999.875) is left to Python, and no
        # power of ten, although some land within round-off of 10^16
        assert sorted(v for v in seen if 1e-250 <= abs(v) <= 1e250) == [999999999999999.875]
        assert not set(seen) & set(10.0 ** np.arange(-250, 251))

    def test_exact_ties_round_half_even(self, tmp_path, monkeypatch):
        # odd multiples of 1/8 in [2^49, 10^15) carry 18 significant digits,
        # the last a 5: each is an exact tie at 17 digits, which only
        # Python's formatting can break (to even)
        odd = 2 * np.random.default_rng(8).integers(0, (10**15 - 2**49) * 4, 4000) + 1
        ties = 2.0**49 + odd / 8.0
        seen = _python_formatted(monkeypatch)
        self.check(tmp_path, np.concatenate([ties, -ties]), width=8)
        assert len(seen) == 8000

    def test_notation_switch_points(self, tmp_path):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        values = [edges]
        lo, hi = edges, edges
        for _ in range(3):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
            values += [lo, hi]
        self.check(tmp_path, np.concatenate(values + [-v for v in values]), width=4)

    def test_values_rounding_up_to_the_next_power(self, tmp_path):
        # doubles just below 10^p whose 17 digits round up to 10^p
        cands = [float(np.nextafter(10.0**p, d)) for p in range(-300, 301) for d in (0.0, np.inf)]
        cands += [10.0**p for p in range(-300, 301)]
        up = [v for v in cands if Fraction(v) < Fraction(10) ** round(math.log10(v))
              and ("%.17g" % v).split("e")[0] == "1"]
        assert len(up) >= 10
        self.check(tmp_path, up + [-v for v in up])

    def test_special_values(self, tmp_path):
        self.check(tmp_path, [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                              1e-250, 1e250, 2.2250738585072014e-308, 1.7976931348623157e308],
                   width=11)

    @pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                                   3 * _CSV_BLOCK + 7])
    def test_row_counts_around_the_block(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(n, 13)) * 10.0 ** rng.integers(-8, 20, (n, 13))
        self.check(tmp_path, rows, width=13)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(1, 5)),
                      elements=st.floats(width=64)))
    def test_any_float_array(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cells.csv")
            _write_csv(path, "h", rows)
            with open(path, "rb") as fh:
                assert fh.read() == _row_format("h", rows)

    def test_helix_export_needs_no_python_formatting(self, tmp_path, monkeypatch):
        with open(os.path.join(DEMO_DIR, "helix_spring.json")) as fh:
            model, name, n, policy = load_model(json.load(fh))
        sol = solve_model(model, formulation(name), n, policy)
        seen = _python_formatted(monkeypatch)
        export(sol, str(tmp_path), n_samples=1001)
        assert seen == []

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_transient_memory_is_bounded(self, n):
        rows = np.random.default_rng(n).normal(size=(n, 13))
        tracemalloc.start()
        try:
            _write_csv(os.devnull, "h", rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def _fields_per_sample(sol, si):
    """One sample the element-by-element way: locate, scalar shape rows, and
    one dot product per derivative row; {field: [value, d/ds, ...]}."""
    (e,), (xi,) = sol.mesh.locate(np.array([float(si)]))
    h = float(np.diff(sol.mesh.nodes)[e])
    out = {}
    for name, info in sol.system.dofmap.fields.items():
        nderiv = 2 if name == "u" and sol.form.euler_bernoulli else 1
        coeff = sol.x[info.elem_dofs[e]].reshape(-1, info.ncomp)
        out[name] = [row @ coeff for row in shape_eval(info.kind, h, xi, nderiv=nderiv)]
    return out


def _per_sample_reference(sol, s):
    """Resultants sample by sample, from scalar field values and the scalar
    section tensor."""
    mat, sec = sol.model.material, sol.model.section
    fr = sol.model.curve.frames(s)
    eb = sol.form.euler_bernoulli
    ref = {q: np.zeros((len(s), 3)) for q in ("N", "S", "M", "T")}
    for i, si in enumerate(s):
        t, k = fr.t[i], fr.kappa[i]
        f = _fields_per_sample(sol, si)
        du = f["u"][1]
        if eb:
            tt, dtt = f["theta_t"][0][0], f["theta_t"][1][0]
            theta = np.cross(t, du) + t * tt
            dtheta = np.cross(k, du) + np.cross(t, f["u"][2]) + k * tt + t * dtt
        else:
            theta, dtheta = f["theta"]
            Qdu = du - float(t @ du) * t
            ref["S"][i] = mat.G * sec.area * (Qdu - np.cross(theta, t))
        ref["N"][i] = mat.E * sec.area * float(t @ du) * t
        ref["M"][i] = mat.E * inertia_tensor(sec, t) @ dtheta
        ref["T"][i] = mat.G * sec.polar * float(t @ dtheta) * t
    return ref


class TestBatchEvaluation:
    """Batch field evaluation and post-processing agree with the sample by
    sample evaluation at the mesh nodes, which include s = 0 and s = L, and
    between them."""

    @pytest.mark.parametrize("section", [circle_section(0.15),
                                         rect_section(0.2, 0.1, [0.0, 0.0, 1.0])],
                             ids=["circle", "rect"])
    @pytest.mark.parametrize("name", ["timoshenko_p2p1", "timoshenko_h3p2",
                                      "euler_bernoulli_h3"])
    def test_batch_matches_per_sample(self, name, section):
        model = BeamModel(
            curve=Helix([0, 0, 0], 1.0, 0.2, [1, 0, 0], [0, 1, 0], 0.0, 3 * np.pi),
            material=MAT, section=section,
            bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
            loads=LoadCase(force_end=[0.1, -0.2, 0.3], moment_end=[0.02, 0.01, -0.03]))
        sol = solve_model(model, formulation(name), 6, "full")
        s = np.concatenate([sol.mesh.nodes, np.linspace(0.0, sol.mesh.length, 25)[1:-1]])
        assert s[0] == 0.0 and s[len(sol.mesh.nodes) - 1] == sol.mesh.length

        def close(batch, ref, scale=None):
            scale = np.abs(ref).max() if scale is None else scale
            assert np.abs(batch - ref).max() <= 1e-14 * scale

        st = sol.evaluate(s)
        per = [_fields_per_sample(sol, si) for si in s]
        angle = "theta_t" if sol.form.euler_bernoulli else "theta"
        close(st.u, np.array([f["u"][0] for f in per]))
        close(st.du, np.array([f["u"][1] for f in per]))
        if sol.form.euler_bernoulli:
            close(st.d2u, np.array([f["u"][2] for f in per]))
            close(st.theta_t, np.array([f[angle][0][0] for f in per]))
            close(st.dtheta_t, np.array([f[angle][1][0] for f in per]))
        else:
            close(st.theta, np.array([f[angle][0] for f in per]))
            close(st.dtheta, np.array([f[angle][1] for f in per]))

        # a scalar s is the one-row case
        one = sol.evaluate(float(s[2]))
        assert np.array_equal(one.u, st.u[2]) and np.array_equal(one.du, st.du[2])

        # N and S are small differences of u' and theta terms (t . u'
        # against |u'|, Q u' against theta x t), so their round-off scales
        # with those terms, not with the result
        ref = _per_sample_reference(sol, s)
        res = resultants(sol, s)
        du = np.abs(st.du).max()
        terms = max(du, np.abs(displacement_samples(sol, s)[1]).max())
        mat, sec = model.material, model.section
        close(res.N, ref["N"], mat.E * sec.area * du)
        close(res.S, ref["S"], mat.G * sec.area * terms)
        close(res.M, ref["M"])
        close(res.T, ref["T"])

    @pytest.mark.parametrize("where", ["before", "beyond", "nan"])
    def test_refuses_arc_lengths_off_the_beam(self, where):
        # evaluate refuses what resultants refuses, instead of extrapolating
        # the end elements' polynomials
        with open(os.path.join(DEMO_DIR, "helix_spring.json")) as fh:
            model, name, n, policy = load_model(json.load(fh))
        sol = solve_model(model, formulation(name), n, policy)
        s = {"before": -1.0, "beyond": 1.5 * sol.mesh.length, "nan": np.nan}[where]
        for query in (sol.evaluate, lambda v: resultants(sol, np.array([v]))):
            with pytest.raises(ValueError, match=f"arc length {s}"):
                query(s)
        with pytest.raises(ValueError, match=f"arc length {s}"):
            sol.evaluate(np.array([0.0, s]))
