"""Benchmark tests: analytic reference formulas (frozen values), convergence
and locking studies, and the curvature-coupling demo problems."""
import decimal
import math
import os
import shutil

import numpy as np
import pytest

from cartbeam import benchmarks
from cartbeam.benchmarks import (
    StudySpec,
    analytic_quarter_arc_tip,
    analytic_straight_tip,
    demo_configs,
    fitted_order,
    make_straight_model,
    observed_orders,
    plateau_pair_index,
    run_convergence,
    solve_demo,
)
from cartbeam.cli import load_study
from cartbeam.discretization import Mesh1D, formulation
from cartbeam.postprocess import displacement_samples, tip_displacement
from cartbeam.solver import SingularSystemError, solve_model


class TestAnalyticFormulas:
    def test_zero_load_zero_deflection(self):
        assert analytic_straight_tip(0.0, 1e6, 0.3, 0.1, 10.0) == 0.0
        assert analytic_quarter_arc_tip(0.0, 1e6, 0.95, 1.05) == 0.0

    def test_straight_frozen_value(self):
        # direct evaluation: -(1/500) * ((4 + 1.5) * 0.025 + 2000) = -4.000275
        assert analytic_straight_tip(1.0, 1e6, 0.3, 0.1, 10.0) == pytest.approx(
            -4.000275, rel=1e-14)

    def test_straight_thin_limit_is_pure_bending(self):
        # nu = 0, t -> 0: u_y -> -4 P L^3 / (E t^3)
        P, E, L = 1.0, 1e6, 10.0
        for t in (1e-4, 1e-6):
            ratio = analytic_straight_tip(P, E, 0.0, t, L) / (-4 * P * L**3 / (E * t**3))
            assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_quarter_arc_frozen_value(self):
        val = analytic_quarter_arc_tip(1.0, 1e6, 0.95, 1.05)
        # 80-digit evaluation of the same expression at the same double radii
        assert val == pytest.approx(-0.0094388858220633829643560163, rel=1e-15, abs=0)
        # 50-digit reference at the decimal radii 0.95 and 1.05
        assert val == pytest.approx(-0.0094388858220634084575, rel=1e-11)

    @pytest.mark.parametrize("a, b", [(1 - t / 2, 1 + t / 2) for t in 10.0 ** -np.arange(1, 7)]
                             + [(1.0, 2.99999), (1.0, 3.0), (0.3, 0.9)])
    def test_quarter_arc_keeps_its_digits_as_the_arc_thins(self, a, b):
        # against an 80-digit evaluation at the same double radii (b - a from
        # rounded radii already carries a relative error of eps / t, so only
        # equal inputs compare), down to t/R = 1e-6, where the two terms of
        # the closed form cancel to their last digit, and on both sides of
        # the switch to the closed form at (b - a)/(b + a) = 1/2
        A, B = decimal.Decimal(a), decimal.Decimal(b)
        with decimal.localcontext(decimal.Context(prec=80)):
            exact = -decimal.Decimal(math.pi) * (A * A + B * B) / (
                decimal.Decimal(1e6) * ((A * A - B * B) + (A * A + B * B) * (B / A).ln()))
        assert analytic_quarter_arc_tip(1.0, 1e6, a, b) == pytest.approx(float(exact), rel=1e-13,
                                                                         abs=0)

    def test_quarter_arc_linearity_in_load(self):
        one = analytic_quarter_arc_tip(1.0, 1e6, 0.95, 1.05)
        two = analytic_quarter_arc_tip(2.0, 1e6, 0.95, 1.05)
        assert two == pytest.approx(2.0 * one, rel=1e-15, abs=0)

    def test_quarter_arc_geometric_similarity(self):
        # scaling (a, b, P) by (lam, lam, lam) scales the deflection by lam
        lam = 2.5
        base = analytic_quarter_arc_tip(1.0, 1e6, 0.95, 1.05)
        scaled = analytic_quarter_arc_tip(lam, 1e6, lam * 0.95, lam * 1.05)
        assert scaled == pytest.approx(lam * base, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            analytic_quarter_arc_tip(1.0, 1e6, 1.05, 0.95)
        with pytest.raises(ValueError):
            analytic_straight_tip(1.0, -1e6, 0.3, 0.1, 10.0)


class TestOrderFitting:
    def test_observed_orders_on_synthetic_data(self):
        ns = [1, 2, 4, 8]
        errors = [1.0, 0.25, 0.0625, 0.015625]
        assert np.allclose(observed_orders(ns, errors), 2.0)

    def test_plateau_detection(self):
        errors = [1.0, 0.25, 0.0625, 0.06, 0.061]
        assert plateau_pair_index(errors) == 2
        assert plateau_pair_index([1.0, 0.25, 0.0625]) is None

    def test_fitted_order_ignores_post_plateau(self):
        ns = [1, 2, 4, 8, 16]
        errors = [1.0, 0.25, 0.0625, 0.06, 0.061]
        assert fitted_order(ns, errors) == pytest.approx(2.0)


class TestConvergenceStudy:
    def test_straight_p2p1_order_two(self):
        study = StudySpec("straight", ["timoshenko_p2p1"], ["full"], [2, 4, 8, 16], [0.1])
        cell = run_convergence(study).cell("timoshenko_p2p1", "full", 0.1)
        assert not cell.failures
        assert cell.order == pytest.approx(2.0, abs=0.2)
        assert all(r > 0 for r in cell.rel_errors)

    def test_report_rows_have_order_column(self):
        study = StudySpec("straight", ["timoshenko_p2p1"], ["full"], [2, 4, 8], [0.1])
        rows = list(run_convergence(study).rows())
        assert len(rows) == 3
        assert rows[0][-1] == ""           # no previous mesh
        assert isinstance(rows[1][-1], float)

    def test_single_mesh_study_has_no_order(self):
        study = StudySpec("straight", ["timoshenko_p2p1"], ["full"], [4], [0.1])
        report = run_convergence(study)
        cell = report.cell("timoshenko_p2p1", "full", 0.1)
        assert cell.order is None
        assert all(row[-1] == "" for row in report.rows())

    def test_rel_error_of_a_failed_mesh_raises_with_its_message(self, monkeypatch):
        import cartbeam.benchmarks as bm

        def failing_at_four(model, form, n, policy="full"):
            if n == 4:
                raise SingularSystemError("planted failure at n=4")
            return solve_model(model, form, n, policy)

        monkeypatch.setattr(bm, "solve_model", failing_at_four)
        study = StudySpec("straight", ["timoshenko_p2p1"], ["full"], [2, 4, 8], [0.1])
        report = run_convergence(study)
        cell = report.cell("timoshenko_p2p1", "full", 0.1)
        assert cell.elements == [2, 8] and list(cell.failures) == [4]
        with pytest.raises(RuntimeError, match="n=4 failed: SingularSystemError: planted failure"):
            report.rel_error("timoshenko_p2p1", "full", 0.1, 4)
        assert report.rel_error("timoshenko_p2p1", "full", 0.1, 8) == cell.rel_errors[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            StudySpec("straight", ["timoshenko_p2p1"], ["full"], [], [0.1])
        with pytest.raises(ValueError):
            StudySpec("straight", ["timoshenko_p2p1"], ["full"], [4, 2], [0.1])
        with pytest.raises(ValueError):
            StudySpec("spiral", ["timoshenko_p2p1"], ["full"], [2], [0.1])
        with pytest.raises(ValueError):
            StudySpec("straight", ["p9"], ["full"], [2], [0.1])

    @pytest.mark.parametrize("key", ["formulations", "quadrature", "elements", "thickness"])
    def test_empty_lists_are_refused(self, key):
        spec = dict(benchmark="straight", formulations=["timoshenko_p2p1"],
                    quadrature=["full"], elements=[2, 4], thickness=[0.1])
        with pytest.raises(ValueError, match=f"{key} list must not be empty"):
            StudySpec(**{**spec, key: []})

    @pytest.mark.parametrize("elements", [[1.5, 3], [2.0, 4.0], [True, 2], [np.True_, 2],
                                          [0, 2], [np.int64(2), np.int32(4)]])
    def test_element_counts_are_positive_integers(self, elements):
        # a bool or a non-integral count is refused as load_study refuses it
        # (1.5 used to fail inside the cell, 2.0 left it without meshes and
        # True ran as one element); numpy integers are integers
        spec = dict(benchmark="straight", formulations=["timoshenko_p2p1"],
                    quadrature=["full"], elements=elements, thickness=[0.1])
        if all(isinstance(n, np.integer) for n in elements):
            assert StudySpec(**spec).elements == [2, 4]
            assert Mesh1D.uniform(1.0, elements[0]).n_elements == 2
            return
        with pytest.raises(ValueError, match="elements"):
            load_study({"benchmark": "straight", "elements": elements})
        with pytest.raises(ValueError, match="element count must be a positive integer"):
            StudySpec(**spec)
        with pytest.raises(ValueError, match="element count must be a positive integer"):
            Mesh1D.uniform(1.0, elements[0])

    @pytest.mark.parametrize("kwargs, match", [
        (dict(load=0.0), "load must be nonzero"),
        (dict(thickness=[0.1, 0.0]), "must be positive"),
        (dict(thickness=[-0.1]), "must be positive"),
        (dict(length=0.0), "must be positive"),
        (dict(radius=-1.0), "must be positive"),
        (dict(radius=0.01), "half the largest thickness"),
        (dict(radius=0.05, thickness=[0.01, 0.1]), "half the largest thickness"),
        (dict(load=float("nan")), "must be finite"),
        (dict(thickness=[0.1, float("inf")]), "must be finite"),
    ])
    def test_refuses_what_load_study_refuses(self, kwargs, match):
        # these specs reached run_convergence and failed outside its per-cell
        # try (ZeroDivisionError for load 0, "need 0 < a < b" for the radius)
        spec = dict(benchmark="quarter_arc", formulations=["timoshenko_p2p1"],
                    quadrature=["full"], elements=[1, 2], thickness=[0.1]) | kwargs
        with pytest.raises(ValueError, match=match):
            StudySpec(**spec)


class TestLockingStudy:
    def test_full_quadrature_locks_on_thin_arc(self):
        study = StudySpec("quarter_arc", ["timoshenko_p2p1"], ["full", "reduced"],
                          [8], [0.001])
        report = run_convergence(study)
        assert report.full_over_reduced("timoshenko_p2p1", 0.001, 8) >= 10.0

    def test_straight_beam_insensitive_to_thickness(self):
        study = StudySpec("straight", ["timoshenko_p2p1"], ["full"], [4, 8], [0.1, 0.001])
        report = run_convergence(study)
        for n in (4, 8):
            ratio = (report.rel_error("timoshenko_p2p1", "full", 0.001, n)
                     / report.rel_error("timoshenko_p2p1", "full", 0.1, n))
            assert 0.5 <= ratio <= 2.0

    def test_reduced_matches_full_on_straight_bending(self):
        # compatible spaces: on straight geometry the P2-P1 stretch/shear
        # integrands are quadratic, so the 2-point rule is already exact and
        # both policies assemble the same operator to quadrature roundoff;
        # the slender-beam condition number (~1e6) amplifies that roundoff
        # into the displacements, so the QoI check is correspondingly looser
        from cartbeam.assembly import discretize
        model = make_straight_model(0.1)
        form = formulation("timoshenko_p2p1")
        K_full = discretize(model, form, 16, "full").K
        K_red = discretize(model, form, 16, "reduced").K
        assert abs(K_full - K_red).max() <= 1e-12 * abs(K_full).max()
        uy_full = tip_displacement(solve_model(model, form, 16, "full"))[1]
        uy_red = tip_displacement(solve_model(model, form, 16, "reduced"))[1]
        assert uy_red == pytest.approx(uy_full, rel=1e-8)


@pytest.fixture(scope="module")
def solved():
    return {name: solve_demo(*case) for name, case in demo_configs().items()}


class TestDemos:

    def test_all_demos_solve_and_export(self, solved, tmp_path):
        from cartbeam.postprocess import export
        assert sorted(solved) == ["helix_spring", "s_curve_bend", "s_curve_torque",
                                  "straight_torque"]
        for name, sol in solved.items():
            paths = export(sol, str(tmp_path / name), n_samples=21)
            assert open(paths["centerline"]).readline().startswith("s,x,y,z")

    def test_demo_files_found_under_any_install_path(self, tmp_path, monkeypatch):
        # a glob metacharacter in the install path must not hide the demos
        demo_dir = tmp_path / "site[1]" / "demos"
        shutil.copytree(benchmarks.DEMO_DIR, demo_dir)
        monkeypatch.setattr(benchmarks, "DEMO_DIR", str(demo_dir))
        assert benchmarks.demo_files() == {
            name[:-5]: os.path.join(demo_dir, name)
            for name in os.listdir(demo_dir) if name.endswith(".json")}
        assert sorted(demo_configs()) == ["helix_spring", "s_curve_bend", "s_curve_torque",
                                          "straight_torque"]

    def test_torque_on_s_curve_moves_midline_out_of_plane(self, solved):
        sol = solved["s_curve_torque"]
        s = np.linspace(0, sol.mesh.length, 33)
        u, _ = displacement_samples(sol, s)
        assert np.abs(u[:, 2]).max() > 1e-8

    def test_inplane_load_keeps_twist_zero(self, solved):
        sol = solved["s_curve_bend"]
        for si in np.linspace(0, sol.mesh.length, 33):
            fr = sol.model.curve.frame(float(si))
            st = sol.evaluate(float(si))
            assert abs(float(fr.t @ st.theta)) <= 1e-10

    def test_straight_torque_pure_twist(self, solved):
        sol = solved["straight_torque"]
        u, _ = displacement_samples(sol, np.linspace(0, sol.mesh.length, 17))
        assert np.abs(u).max() <= 1e-10

    def test_helix_spring_compresses_axially(self, solved):
        sol = solved["helix_spring"]
        tip = tip_displacement(sol)
        assert tip[2] < 0.0
        assert abs(tip[0]) <= 1e-9 and abs(tip[1]) <= 1e-9


class TestSplineSelfConvergence:
    def test_orders_on_knot_aligned_meshes(self):
        # full-pipeline check on 3d geometry with varying curvature and
        # torsion: tip deflection self-converges at the expected rates when
        # element boundaries align with the spline knots (the interpolated
        # geometry has curvature jumps there, so elements must not straddle
        # them to see the full order)
        from cartbeam.assembly import (BeamModel, BoundaryCondition, LoadCase,
                                       apply_essential_bcs, assemble_load,
                                       assemble_stiffness)
        from cartbeam.discretization import Mesh1D
        from cartbeam.geometry import HermiteSpline
        from cartbeam.section import Material, circle_section
        from cartbeam.solver import solve

        y = np.linspace(0.0, 4.0, 7)
        pts = np.column_stack([0.5 * np.sin(np.pi * y / 2), y, 0.15 * y**2])
        spline = HermiteSpline(pts, [0.7, 0.6, 0.0], [0.5, 0.7, 0.4])
        model = BeamModel(curve=spline, material=Material(E=1e6, nu=0.3),
                          section=circle_section(0.1),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(force_end=[0.1, -0.2, 0.3],
                                         moment_end=[0.02, 0.0, -0.05]))
        amap = spline.arclength()
        knot_s = np.array([amap.s_of_xi(float(x)) for x in range(7)])

        def knot_mesh(k):
            nodes = [np.linspace(knot_s[i], knot_s[i + 1], k + 1)[:-1] for i in range(6)]
            return Mesh1D(np.concatenate(nodes + [knot_s[-1:]]))

        def tip(form_name, mesh):
            form = formulation(form_name)
            system = assemble_stiffness(model, mesh, form, "reduced")
            system.rhs = assemble_load(model, system.dofmap)
            sol = solve(apply_essential_bcs(system))
            return tip_displacement(sol)

        for form_name, ks, expected, tol in (("timoshenko_p2p1", [1, 2, 4, 8], 2.0, 0.25),
                                             ("timoshenko_h3p2", [2, 4, 8], 4.0, 0.6)):
            ref = tip(form_name, knot_mesh(24))
            errs = [np.linalg.norm(tip(form_name, knot_mesh(k)) - ref) for k in ks]
            order = np.log2(errs[-2] / errs[-1])
            assert order == pytest.approx(expected, abs=tol)


class TestEulerBernoulliLimit:
    def test_gap_scales_with_thickness_squared(self):
        ts = [0.1, 0.03, 0.01]
        gaps = []
        for t in ts:
            model = make_straight_model(t)
            uy_t = tip_displacement(solve_model(model, formulation("timoshenko_h3p2"), 2))[1]
            uy_e = tip_displacement(solve_model(model, formulation("euler_bernoulli_h3"), 2))[1]
            gaps.append(abs(uy_t - uy_e) / abs(uy_t))
            # the gap is the shear flexibility share: (1 + nu) t^2 / (2 L^2)
            assert gaps[-1] == pytest.approx(1.3 * t**2 / 200.0, rel=1e-3)
        slope = np.polyfit(np.log(ts), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)
