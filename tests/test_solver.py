"""Solver tests: patch-exact states, singularity detection, determinism."""
import json
import os
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cartbeam.assembly import (
    BCRow,
    BeamModel,
    BoundaryCondition,
    LoadCase,
    PointConstraint,
    _free_rigid_mode_count,
    body_table,
    discretize,
)
from cartbeam.benchmarks import DEMO_DIR, make_quarter_arc_model
from cartbeam.cli import load_model
from cartbeam.discretization import FORMULATIONS, formulation
from cartbeam.geometry import CircularArc, Helix, HermiteSpline, LineSegment
from cartbeam.postprocess import reaction_force_totals, tip_displacement
from cartbeam.section import Material, circle_section, rect_section, unit_depth_rect_section
import cartbeam.solver
from cartbeam.solver import (
    SingularSystemError,
    SolutionFields,
    _SaddleBand,
    _apply_stiffness,
    _stiff_blocks,
    _stiffness_scale,
    hourglass_modes,
    rigid_modes,
    solve,
    solve_model,
)
from manufactured import interpolated_solution
from saddle_reference import band_storage, saddle_entries

MAT = Material(E=1e6, nu=0.3)


def bar_model(loads=None, bc_start=None, bc_end=None, curve=None):
    return BeamModel(
        curve=curve or LineSegment([0, 0, 0], [10.0, 0, 0]),
        material=MAT,
        section=unit_depth_rect_section(0.1),
        bc_start=bc_start or BoundaryCondition.clamped(),
        bc_end=bc_end or BoundaryCondition.free(),
        loads=loads or LoadCase(),
    )


class TestPatchStates:
    def test_axial_bar_is_exact(self):
        F = 2.0
        model = bar_model(loads=LoadCase(force_end=[F, 0, 0]))
        for name in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
            sol = solve_model(model, formulation(name), 3)
            EA = MAT.E * model.section.area
            for s in np.linspace(0, 10, 7):
                st = sol.evaluate(s)
                assert st.u[0] == pytest.approx(F * s / EA, abs=1e-12 * 10 / EA * F + 1e-16)
                assert np.allclose(st.u[1:], 0.0, atol=1e-14)

    def test_distributed_load_nodal_exactness(self):
        # Hermite beam elements with a consistent load vector reproduce the
        # classical distributed-load tip deflection exactly at the nodes:
        # EB: w L^4 / (8 E I); Timoshenko adds the shear share w L^2 / (2 G A)
        E, L, t, f = MAT.E, 10.0, 0.1, 0.01
        sec = unit_depth_rect_section(t)
        A, I = sec.area, sec.inertia_iso
        model = bar_model(loads=LoadCase(body=[0.0, -f, 0.0]))
        w = f * A
        eb_exact = -w * L**4 / (8 * E * I)
        timo_exact = eb_exact - w * L**2 / (2 * MAT.G * A)
        for name, exact in (("euler_bernoulli_h3", eb_exact),
                            ("timoshenko_h3p2", timo_exact)):
            for n in (1, 3):
                sol = solve_model(model, formulation(name), n)
                st = sol.evaluate(L)
                assert st.u[1] == pytest.approx(exact, rel=1e-10)

    def test_prescribed_end_rotation_euler_bernoulli(self):
        # prescribing a bending rotation at a held end pins the midline slope
        # through Q u' = theta_perp x t; with no load the beam rotates rigidly
        phi = 0.01
        bc = BoundaryCondition(
            stretching=BCRow("essential", 0.0),
            shearing=BCRow("essential", np.zeros(3)),
            bending=BCRow("essential", np.array([0.0, 0.0, phi])),
            twisting=BCRow("essential", 0.0),
        )
        model = bar_model(bc_start=bc)
        sol = solve_model(model, formulation("euler_bernoulli_h3"), 4)
        energy = float(sol.x @ (sol.system.K @ sol.x))
        assert energy <= 1e-12 * abs(sol.system.K).max() * max(float(sol.x @ sol.x), 1e-30)
        for s in (2.5, 10.0):
            st = sol.evaluate(s)
            assert st.u[1] == pytest.approx(phi * s, rel=1e-9)
            assert st.du[1] == pytest.approx(phi, rel=1e-9)

    def test_euler_bernoulli_tip_moment_via_natural_value(self):
        # natural bending value M at the free end loads the slope DOFs;
        # the exact response u_y = M s^2 / (2 E I) is quadratic, hence in H3
        M = 0.4
        bc_end = BoundaryCondition(
            stretching=BCRow("natural", 0.0),
            shearing=BCRow("natural", np.zeros(3)),
            bending=BCRow("natural", np.array([0.0, 0.0, M])),
            twisting=BCRow("natural", 0.0),
        )
        model = bar_model(bc_end=bc_end)
        EI = MAT.E * model.section.inertia_iso
        sol = solve_model(model, formulation("euler_bernoulli_h3"), 3)
        for s in (4.0, 10.0):
            assert sol.evaluate(s).u[1] == pytest.approx(M * s**2 / (2 * EI), rel=1e-10)

    def test_prescribed_rigid_translation(self):
        ubar = np.array([0.3, -0.2, 0.5])
        t = np.array([1.0, 0.0, 0.0])
        bc = BoundaryCondition(
            stretching=BCRow("essential", float(ubar @ t)),
            shearing=BCRow("essential", ubar - float(ubar @ t) * t),
            bending=BCRow("essential", np.zeros(3)),
            twisting=BCRow("essential", 0.0),
        )
        for curve in (LineSegment([0, 0, 0], [10.0, 0, 0]),
                      CircularArc([0, -1, 0], 1.0, [0, 1, 0], [1, 0, 0], 0.0, 1.2)):
            model = BeamModel(curve=curve, material=MAT,
                              section=unit_depth_rect_section(0.1),
                              bc_start=bc, bc_end=BoundaryCondition.free())
            sol = solve_model(model, formulation("timoshenko_p2p1"), 4)
            energy = float(sol.x @ (sol.system.K @ sol.x))
            knorm = abs(sol.system.K).max()
            assert energy <= 1e-12 * knorm * float(sol.x @ sol.x)
            st = sol.evaluate(0.6 * curve.length)
            assert np.allclose(st.u, ubar, atol=1e-9)
            assert np.allclose(st.theta, 0.0, atol=1e-10)


class TestSingularityDetection:
    def test_free_free_reports_six_modes(self):
        model = bar_model(bc_start=BoundaryCondition.free())
        with pytest.raises(SingularSystemError) as err:
            solve_model(model, formulation("timoshenko_p2p1"), 3)
        assert err.value.n_rigid_modes == 6
        assert "6" in str(err.value)

    def test_pinned_only_reports_rotations(self):
        model = bar_model(bc_start=BoundaryCondition.pinned())
        with pytest.raises(SingularSystemError) as err:
            solve_model(model, formulation("timoshenko_h3p2"), 3)
        assert err.value.n_rigid_modes == 3

    def test_an_exactly_zero_pivot_raises(self):
        # with no stiffness at all the free DOFs' columns of the saddle
        # matrix are zero, so the band LU meets an exactly zero pivot
        system = discretize(bar_model(loads=LoadCase(force_end=[0.0, -1.0, 0.0])),
                            formulation("timoshenko_p2p1"), 3)
        system.K_blocks[:] = 0.0
        system.C_blocks[:] = 0.0
        with pytest.raises(SingularSystemError, match="pivot .* is exactly zero") as err:
            solve(system)
        assert err.value.n_rigid_modes == 0


NAN3 = [np.nan, 0.0, 0.0]
NON_FINITE_MODELS = {
    "end_force": lambda: bar_model(loads=LoadCase(force_end=NAN3)),
    "end_moment": lambda: bar_model(loads=LoadCase(moment_start=[0.0, np.nan, 0.0])),
    "body_constant": lambda: bar_model(loads=LoadCase(body=NAN3)),
    "body_callable": lambda: bar_model(loads=LoadCase(
        body=lambda s: np.column_stack([np.full(len(s), np.nan), 0 * s, 0 * s]))),
    "natural_end_value": lambda: bar_model(bc_end=BoundaryCondition(
        BCRow("natural", np.nan), BCRow("natural", np.zeros(3)),
        BCRow("natural", np.zeros(3)), BCRow("natural", 0.0))),
    "essential_end_value": lambda: bar_model(bc_start=BoundaryCondition(
        BCRow("essential", 0.0), BCRow("essential", [0.0, np.nan, 0.0]),
        BCRow("essential", np.zeros(3)), BCRow("essential", 0.0))),
    "point_constraint_value": lambda: BeamModel(
        curve=LineSegment([0, 0, 0], [10.0, 0, 0]), material=MAT,
        section=unit_depth_rect_section(0.1), bc_start=BoundaryCondition.clamped(),
        bc_end=BoundaryCondition.free(),
        constraints=[PointConstraint("end", "u", [0.0, 1.0, 0.0], np.nan)]),
}
NON_FINITE_INPUTS = {
    "line_endpoint": lambda: LineSegment([0, 0, 0], [np.nan, 0, 0]),
    "spline_knot": lambda: HermiteSpline(np.array([[0.0, 0, 0], [1.0, np.nan, 0]]),
                                         [1, 0, 0], [1, 0, 0]),
    "spline_tangent": lambda: HermiteSpline(np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                                            [1, 0, 0], [np.inf, 0, 0]),
    "circle_section": lambda: circle_section(np.nan),
    "rect_section": lambda: rect_section(np.nan, 0.1, [0, 0, 1]),
    "unit_depth_rect_section": lambda: unit_depth_rect_section(np.nan),
    "infinite_section": lambda: circle_section(np.inf),
}


class TestNonFiniteData:
    """Non-finite input is refused as a ValueError when it is built or
    assembled, never reported as a singular system."""

    @pytest.mark.parametrize("case", sorted(NON_FINITE_MODELS))
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_solve_refuses_non_finite_data(self, name, case):
        with pytest.raises(ValueError, match="not finite"):
            solve_model(NON_FINITE_MODELS[case](), formulation(name), 3)

    @pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
    def test_constructors_refuse_non_finite_numbers(self, case):
        with pytest.raises(ValueError, match="must be finite"):
            NON_FINITE_INPUTS[case]()


KERNEL_CURVES = {
    "line": LineSegment([0, 0, 0], [3.0, 0.5, 0.0]),
    "arc": CircularArc([0, 0, 0], 1.5, [1, 0, 0], [0, 1, 0], 0.0, 2.0),
    "helix": Helix([0, 0, 0], 1.0, 0.3, [1, 0, 0], [0, 1, 0], 0.0, 3.0),
    "hermite_spline": HermiteSpline(np.array([[0.0, 0, 0], [1.0, 0.6, 0.2], [2.0, 0.0, 0.5]]),
                                    [1.0, 0.5, 0.0], [1.0, -0.5, 0.3]),
}


class TestKernel:
    """The clamped-free constrained stiffness has a trivial kernel, except for
    the documented zero-energy modes of the H3 midline under reduced
    quadrature: all three for H3-P2 on every curve, and the one along the
    tangent for Euler-Bernoulli on a straight beam."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_constrained_kernel(self, name, policy, kind):
        model = BeamModel(curve=KERNEL_CURVES[kind], material=MAT,
                          section=circle_section(0.2),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free())
        system = discretize(model, formulation(name), 4, policy)
        K = system.K.toarray()
        N = scipy.linalg.null_space(system.B.toarray())
        Kc = N.T @ K @ N
        scale = 1.0 / np.sqrt(np.diag(Kc))
        eig = np.linalg.eigvalsh(scale[:, None] * Kc * scale[None, :])
        kernel_dim = int(np.sum(eig < 1e-10 * eig[-1]))

        expected = 0
        if policy == "reduced" and name == "timoshenko_h3p2":
            expected = 3
        elif policy == "reduced" and name == "euler_bernoulli_h3" and kind == "line":
            expected = 1
        H = hourglass_modes(system, _stiffness_scale(system))
        assert kernel_dim == expected, eig[:4]
        assert H.shape[1] == expected
        if expected:
            # the modes survive the constraints, carry no energy and, being
            # as many as the kernel dimension, span it
            assert np.abs(system.B @ H).max() <= 1e-15
            assert np.linalg.matrix_rank(H) == expected
            knorm = np.abs(K).sum(axis=1).max()
            assert np.linalg.norm(K @ H) <= 1e-12 * knorm * np.linalg.norm(H)


class TestTipDisplacement:
    """The tip is the end node's u values: every basis is nodal at s = L."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_tip_is_the_field_at_the_end(self, name, policy, kind):
        model = BeamModel(curve=KERNEL_CURVES[kind], material=MAT,
                          section=circle_section(0.2),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(force_end=[0.3, -0.2, 1.0]))
        sol = solve_model(model, formulation(name), 3, policy)
        assert tip_displacement(sol).tobytes() == sol.evaluate(sol.mesh.length).u.tobytes()


class TestHourglassModes:
    """timoshenko_h3p2 under reduced quadrature: loads that do work on the
    zero-energy modes are refused, all others are solved in the gauge."""

    def test_load_doing_work_on_modes_is_refused(self):
        L = 10.0
        load = body_table([0.0, L], [[0.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        model = bar_model(loads=LoadCase(body=load))
        with pytest.raises(SingularSystemError, match="zero-energy mode"):
            solve_model(model, formulation("timoshenko_h3p2"), 32, "reduced")

    def test_one_element_tip_load_is_exact(self):
        P, L = 1.0, 10.0
        model = bar_model(loads=LoadCase(force_end=[0.0, -P, 0.0]))
        sec = model.section
        exact = -(P * L**3 / (3 * MAT.E * sec.inertia_iso) + P * L / (MAT.G * sec.area))
        sol = solve_model(model, formulation("timoshenko_h3p2"), 1, "reduced")
        assert tip_displacement(sol)[1] == pytest.approx(exact, rel=1e-10)

    def test_euler_bernoulli_straight_reduced_is_solved(self):
        # the axial mode of a straight Euler-Bernoulli beam is gauged too
        model = bar_model(loads=LoadCase(force_end=[1.0, -1.0, 0.0]))
        for n in (1, 4):
            red = solve_model(model, formulation("euler_bernoulli_h3"), n, "reduced")
            full = solve_model(model, formulation("euler_bernoulli_h3"), n, "full")
            assert np.allclose(tip_displacement(red), tip_displacement(full), rtol=1e-10)

    def test_gauge_rows_stay_out_of_the_reactions(self):
        model = bar_model(loads=LoadCase(body=[0.0, -0.01, 0.0], force_end=[0.0, 0.0, 1.0]))
        sol = solve_model(model, formulation("timoshenko_h3p2"), 6, "reduced")
        assert len(sol.multipliers) == len(sol.system.rows_info) == sol.system.n_constraints

    def test_gauge_converges_to_full_quadrature(self):
        # the gauge fixes nodal slopes and interior displacements; its
        # choice (least hourglass content) tends to the full-quadrature answer
        L = 10.0
        model = bar_model(loads=LoadCase(body=[0.0, -0.01, 0.0]))
        errs = []
        for n in (4, 16):
            red = solve_model(model, formulation("timoshenko_h3p2"), n, "reduced")
            full = solve_model(model, formulation("timoshenko_h3p2"), n, "full")
            tip = abs(full.evaluate(L).u[1])
            assert red.evaluate(L).u[1] == pytest.approx(full.evaluate(L).u[1], rel=1e-10)
            errs.append(abs(red.evaluate(L / 3).u[1] - full.evaluate(L / 3).u[1]) / tip)
        assert errs[1] < errs[0] / 30


class TestSolveProperties:
    def test_deterministic_bitwise(self):
        model = bar_model(loads=LoadCase(force_end=[0.1, -1.0, 0.2],
                                         moment_end=[0.3, 0.0, 0.1]))
        a = solve(discretize(model, formulation("timoshenko_h3p2"), 6))
        b = solve(discretize(model, formulation("timoshenko_h3p2"), 6))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.multipliers, b.multipliers)

    def test_load_scaling_linearity(self):
        # floating-point scale equivariance is bounded by eps * cond(K), so the
        # 1e-12 check uses a stocky beam; power-of-two scalings are exact
        def solved(t, alpha, curve_len=2.0):
            model = BeamModel(curve=LineSegment([0, 0, 0], [curve_len, 0, 0]),
                              material=MAT, section=unit_depth_rect_section(t),
                              bc_start=BoundaryCondition.clamped(),
                              bc_end=BoundaryCondition.free(),
                              loads=LoadCase(force_end=[0.0, -alpha, 0.0]))
            return solve(discretize(model, formulation("timoshenko_p2p1"), 5)).x

        alpha = 3.7
        xa, xb = solved(0.5, 1.0), solved(0.5, alpha)
        assert np.linalg.norm(alpha * xa - xb) <= 1e-12 * np.linalg.norm(xb)
        xa, xb = solved(0.1, 1.0, 10.0), solved(0.1, 4.0, 10.0)
        assert np.array_equal(4.0 * xa, xb)

    def test_essential_bcs_satisfied_at_ends(self):
        model = bar_model(loads=LoadCase(force_end=[0.0, -1.0, 0.0]))
        for name in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
            sol = solve_model(model, formulation(name), 4)
            st = sol.evaluate(0.0)
            assert np.allclose(st.u, 0.0, atol=1e-9)
            residual = sol.system.B @ sol.x - sol.system.g
            assert np.abs(residual).max() <= 1e-9

    @settings(max_examples=12, deadline=None)
    @given(
        radius=st.floats(0.5, 2.0),
        pitch=st.floats(0.0, 0.5),
        turns=st.floats(0.5, 2.5),
        load=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
    )
    def test_solved_models_satisfy_energy_and_force_balance(self, radius, pitch,
                                                            turns, load):
        # randomized end-to-end property: any solvable clamped-free helix with
        # a tip load satisfies the discrete energy identity and force balance
        from cartbeam.geometry import Helix
        from cartbeam.postprocess import applied_load_totals, reaction_force_totals
        from cartbeam.section import circle_section

        force = np.asarray(load)
        if np.linalg.norm(force) < 1e-3:
            force = np.array([0.0, 0.0, 1.0])
        helix = Helix([0, 0, 0], radius, pitch, [1, 0, 0], [0, 1, 0],
                      0.0, 2 * np.pi * turns)
        model = BeamModel(curve=helix, material=MAT, section=circle_section(0.2),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(force_end=force))
        sol = solve_model(model, formulation("timoshenko_p2p1"), 4, "reduced")
        a_uu = float(sol.x @ (sol.system.K @ sol.x))
        l_u = float(sol.system.rhs @ sol.x)
        assert a_uu == pytest.approx(l_u, rel=1e-9)
        resid = applied_load_totals(sol) + reaction_force_totals(sol)
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(force)

    def test_interpolated_fields_match_functions(self):
        model = bar_model()
        system = discretize(model, formulation("timoshenko_h3p2"), 4)
        u = lambda s: np.array([0.1 * s, -0.2 * s, 0.0])
        du = lambda s: np.array([0.1, -0.2, 0.0])
        th = lambda s: np.array([0.0, 0.0, 0.01 * s])
        sol = interpolated_solution(system, u=u, du=du, theta=th)
        st = sol.evaluate(3.21)
        assert np.allclose(st.u, u(3.21), atol=1e-12)
        assert np.allclose(st.du, du(3.21), atol=1e-12)
        assert np.allclose(st.theta, th(3.21), atol=1e-12)


def _s_curve(pieces, reverse):
    """A 3D S-curve spline of `pieces` pieces, clamped at its first point and
    loaded by a force at its last; `reverse` runs the same beam backwards:
    points reversed, end tangents swapped and negated, end data swapped."""
    y = np.linspace(0.0, 4.0, pieces + 1)
    pts = np.column_stack([0.5 * np.sin(np.pi * y / 2), y, 0.1 * y**2])
    dy = 4.0 / pieces
    t0, t1 = np.array([0.25 * np.pi, 1.0, 0.0]) * dy, np.array([0.25 * np.pi, 1.0, 0.8]) * dy
    clamped, free, force = BoundaryCondition.clamped(), BoundaryCondition.free(), [0.1, -0.2, 0.3]
    if reverse:
        return BeamModel(curve=HermiteSpline(pts[::-1], -t1, -t0), material=MAT,
                         section=circle_section(0.1), bc_start=free, bc_end=clamped,
                         loads=LoadCase(force_start=force))
    return BeamModel(curve=HermiteSpline(pts, t0, t1), material=MAT, section=circle_section(0.1),
                     bc_start=clamped, bc_end=free, loads=LoadCase(force_end=force))


class TestReversal:
    """A formulation that reads only the tangent gives a solution independent
    of the direction of parametrization. 6 and 11 pieces do not divide 256,
    the arc-length table's interval count on a one-piece curve; 8 pieces do."""

    @pytest.mark.parametrize("pieces", [6, 8, 11])
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_reversed_spline_gives_the_same_tip(self, name, policy, pieces):
        forward = solve_model(_s_curve(pieces, False), formulation(name), 24, policy)
        backward = solve_model(_s_curve(pieces, True), formulation(name), 24, policy)
        tip = tip_displacement(forward)
        back_tip = backward.x[backward.system.dofmap.fields["u"].node_dofs[0, :3]]
        # Euler-Bernoulli's bend rows are the worst conditioned of the three
        bound = 2e-10 if name == "euler_bernoulli_h3" else 1e-12
        assert np.linalg.norm(back_tip - tip) <= bound * np.linalg.norm(tip)


def _guided():
    """The guided support of the helix spring: the start holds u and the
    twist, the end slides along z only."""
    z = np.zeros(3)
    return (BoundaryCondition(BCRow("essential", 0.0), BCRow("essential", z.copy()),
                              BCRow("natural", z.copy()), BCRow("essential", 0.0)),
            [PointConstraint("end", "u", np.array([1.0, 0.0, 0.0])),
             PointConstraint("end", "u", np.array([0.0, 1.0, 0.0]))])


SUPPORTS = {
    "clamped": lambda: (BoundaryCondition.clamped(), []),
    "pinned": lambda: (BoundaryCondition.pinned(), []),
    "free_free": lambda: (BoundaryCondition.free(), []),
    "guided": _guided,
}


def _rigid_modes_by_np_cross(system):
    """rigid_modes as it was written with np.cross, the reference."""
    dm, curve, eye = system.dofmap, system.model.curve, np.eye(3)
    Z = np.zeros((dm.ndof, 6))
    u = dm.fields["u"]
    fr = curve.frames(u.node_s)
    rot = np.cross(eye[:, None, :], fr.x)
    for a in range(3):
        Z[u.node_dofs[:, :3], a] = eye[a]
        Z[u.node_dofs[:, :3], 3 + a] = rot[a]
    if u.kind == "H3":
        rot_t = np.cross(eye[:, None, :], fr.t)
        for a in range(3):
            Z[u.node_dofs[:, 3:], 3 + a] = rot_t[a]
    ang = dm.fields[system.form.angle_field]
    if system.form.euler_bernoulli:
        Z[ang.node_dofs[:, 0], 3:] = curve.frames(ang.node_s).t
    else:
        for a in range(3):
            Z[ang.node_dofs[:, :3], 3 + a] = eye[a]
    return Z


def _end_points(form):
    """A free end held by point constraints on u and on the angle field (the
    twist theta_t under Euler-Bernoulli kinematics)."""
    return [PointConstraint("end", "u", np.array([0.2, 1.0, -0.4])),
            PointConstraint("end", form.angle_field, np.array([1.0, 0.3, 0.5]))]


END_SUPPORTS = {
    "free": lambda form: (BoundaryCondition.free(), []),
    "pinned": lambda form: (BoundaryCondition.pinned(), []),
    "clamped": lambda form: (BoundaryCondition.clamped(), []),
    "points": lambda form: (BoundaryCondition.free(), _end_points(form)),
}


class TestRigidCheck:
    """The singularity check forms B Z from the closed-form rows of Z at the
    end nodes; it must count what the full rigid-mode matrix counts."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("end", sorted(END_SUPPORTS))
    @pytest.mark.parametrize("support", sorted(SUPPORTS))
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_restricted_count_equals_full_count(self, name, support, end, kind):
        form = formulation(name)
        bc, constraints = SUPPORTS[support]()
        bc_end, end_constraints = END_SUPPORTS[end](form)
        model = BeamModel(curve=KERNEL_CURVES[kind], material=MAT, section=circle_section(0.2),
                          bc_start=bc, bc_end=bc_end,
                          constraints=constraints + end_constraints)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "dropping .* redundant")
            system = discretize(model, form, 3)
        Z, Z_ref = rigid_modes(system), _rigid_modes_by_np_cross(system)
        assert np.all(np.abs(Z - Z_ref) <= np.spacing(np.abs(Z_ref)))
        if system.n_constraints == 0:
            full = 6
        else:
            BZ = system.B @ Z
            sv = np.linalg.svd(BZ, compute_uv=False)
            tol = max(BZ.shape) * np.finfo(float).eps * sv[0]
            full = 6 - int(np.sum(sv > max(tol, 1e-10)))
        assert _free_rigid_mode_count(form, model.curve.end_frames(), system.B_end) == full
        assert system.free_rigid_modes == full
        if support == "clamped" or end == "clamped":
            assert full == 0
        elif support == "free_free" and end == "free":
            assert full == 6
        if full:
            with pytest.raises(SingularSystemError, match=f"system is singular: {full} "
                               "unconstrained rigid-body mode") as err:
                solve(system)
            assert err.value.n_rigid_modes == full


class TestStiffnessFromSplit:
    """solve applies K = K_soft + C^T diag(1/compliance) C from the split and
    never forms it; its scale kappa = max_i K_ii is never above ||K||_inf."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_solve_reads_the_split_alone(self, name, policy, kind):
        model = BeamModel(curve=KERNEL_CURVES[kind], material=MAT,
                          section=circle_section(0.2),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(force_end=[0.1, -0.2, 0.3]))
        system = discretize(model, formulation(name), 4, policy)
        solve(system)
        assert "K" not in vars(system) and "K_soft" not in vars(system)
        kappa, K = _stiffness_scale(system), system.K
        assert "K" in vars(system)
        diag = K.diagonal().max()
        assert abs(kappa - diag) <= 1e-15 * diag
        assert kappa <= abs(K).sum(axis=1).max()
        X = np.random.default_rng(5).standard_normal((K.shape[0], 3))
        KX = K @ X
        assert np.abs(_apply_stiffness(system, X) - KX).max() <= 1e-14 * np.abs(KX).max()
        assert np.array_equal(_apply_stiffness(system, X[:, 1]), _apply_stiffness(system, X)[:, 1])


NO_GAUGE = np.zeros((0, 3))
# the half-bandwidth of the structural order, per formulation and policy, on
# every curve and mesh: an element's block of node DOFs, stiff unknowns
# (sigma, or the P2 midline's condensed resultants) and interior angle DOFs,
# plus the K_soft coupling to the next node (on the angle field alone under
# Timoshenko kinematics, on every DOF under Euler-Bernoulli)
HALF_BANDWIDTH = {
    ("euler_bernoulli_h3", "full"): 18, ("euler_bernoulli_h3", "reduced"): 16,
    ("timoshenko_h3p2", "full"): 26, ("timoshenko_h3p2", "reduced"): 20,
    ("timoshenko_p2p1", "full"): 14, ("timoshenko_p2p1", "reduced"): 11,
}


def _saddle_reference(system, V):
    """[[K_soft, C^T, B^T], [C, -D, 0], [B, 0, 0]] by scipy's bmat (COO), with
    one gauge row per row of V below B's rows, on node 0's slope DOFs, and
    the right-hand side [f, 0, g, 0], both in the order [x, sigma, lambda,
    gauge]."""
    n, p, k = system.dofmap.ndof, system.C.shape[0], len(V)
    slopes = system.dofmap.fields["u"].node_dofs[0, 3:]
    gauge = scipy.sparse.csr_matrix((V.ravel(), np.tile(slopes, k), np.arange(0, 3 * k + 1, 3)),
                                    shape=(k, n))
    B = scipy.sparse.vstack([system.B, gauge], format="csr")
    ref = scipy.sparse.bmat([[system.K_soft, system.C.T, B.T],
                             [system.C, -scipy.sparse.diags(system.compliance), None],
                             [B, None, None]], format="coo")
    return ref, np.concatenate([system.rhs, np.zeros(p), system.g, np.zeros(k)])


def _gauge_directions(system):
    """What solve gauges: each zero-energy mode's slope direction at node 0."""
    H = hourglass_modes(system, _stiffness_scale(system))
    return H[system.dofmap.fields["u"].node_dofs[0, 3:]].T


def _schur(A, b, I, K, X):
    """(S X, b_K - A_KI A_II^-1 b_I) for the Schur complement S = A_KK -
    A_KI A_II^-1 A_IK of the sparse matrix A, by scipy's sparse LU of A_II."""
    A = A.tocsr()
    lu = scipy.sparse.linalg.splu(A[I][:, I].tocsc())
    A_KI, A_IK = A[K][:, I], A[I][:, K]
    return A[K][:, K] @ X - A_KI @ lu.solve(A_IK @ X), b[K] - A_KI @ lu.solve(b[I])


def _band_places(band, stiff, n):
    """Each unknown's band place, in the order [x, stiff, lambda, gauge], -1
    for a condensed DOF; the gauge rows hold the places left, in order."""
    x = np.full(n, -1)
    x[stiff.cols] = band.xplaces
    pos = np.concatenate([x, band.splaces.ravel(), band.lam])
    return np.concatenate([pos, np.setdiff1d(np.arange(band.ab.shape[1]), pos)])


def _band_matrix(band):
    """The band's matrix, unscaled (A_ij = ab / (d_i d_j)), in band order, as COO."""
    ab, kl, d = band.ab, band.kl, band.d
    r, j = np.nonzero(ab)
    i = r - 2 * kl + j
    return scipy.sparse.coo_matrix((ab[r, j] / (d[i] * d[j]), (i, j)), shape=(len(d),) * 2)


class TestSaddleMatrix:
    @staticmethod
    def check(system, V):
        # every entry of the LAPACK band storage is the equilibrated bmat
        # reference's entry v d_i d_j at the permuted place, with d_i =
        # 1/sqrt(max_j |A_ij|), or 0 where the reference has none, although
        # K_soft comes as element blocks, two on a node that two elements
        # share; the right side is the reference's, permuted and scaled the
        # same way, and the residual and |A| read the scaled matrix
        stiff = _stiff_blocks(system)
        band = _SaddleBand(system, V, stiff)
        ab, kl = band.ab, band.kl
        ref, ref_rhs = _saddle_reference(system, V)
        N = ref.shape[0]
        pos = _band_places(band, stiff, system.dofmap.ndof)
        assert np.array_equal(np.sort(pos), np.arange(N))
        d = band.d[pos]
        assert np.array_equal(d, 1.0 / np.sqrt(np.maximum(
            abs(ref).max(axis=0).toarray().ravel(), 1e-300)))
        assert ab.shape == (3 * kl + 1, N) and ab.flags.f_contiguous
        i, j = pos[ref.row], pos[ref.col]
        assert np.abs(i - j).max() <= kl
        expect = np.zeros_like(ab)
        expect[2 * kl + i - j, j] = ref.data * (d[ref.row] * d[ref.col])
        assert np.array_equal(ab, expect)
        assert np.array_equal(band.rhs[pos], d * ref_rhs)
        scaled = scipy.sparse.diags(d) @ ref @ scipy.sparse.diags(d)
        y = np.random.default_rng(7).standard_normal(N)
        Ay = scaled @ y[pos]
        assert np.abs(band.product(y)[pos] - Ay).max() <= 1e-14 * np.abs(Ay).max()
        anorm = abs(scaled).sum(axis=1).max()
        assert abs(band.anorm - anorm) <= 1e-14 * anorm
        # K_soft, built from its blocks, has sorted indices and is bitwise
        # symmetric, pattern and values, so the band is too
        K, KT = system.K_soft, system.K_soft.T.tocsr()
        KT.sort_indices()
        assert K.has_sorted_indices
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(K, attr), getattr(KT, attr))
        return kl

    @staticmethod
    def check_condensed(system):
        # under a P2 midline the band holds the vertex DOFs, each element's
        # condensed resultants and the multipliers, each once; what it says
        # on the vertex DOFs and multipliers, once the resultants are
        # eliminated, is what the bmat reference says once sigma and the
        # midpoint DOFs are: the same Schur complement and right-hand side
        n, mid = system.dofmap.ndof, np.sort(system.dofmap.fields["u"].node_dofs[1::2].ravel())
        stiff = _stiff_blocks(system)
        band = _SaddleBand(system, NO_GAUGE, stiff)
        kl, N = band.kl, band.ab.shape[1]
        pos = _band_places(band, stiff, n)
        placed = np.flatnonzero(pos >= 0)
        assert np.array_equal(np.sort(pos[placed]), np.arange(N))
        assert np.array_equal(np.flatnonzero(pos < 0), mid)
        A = _band_matrix(band)
        assert np.abs(A.row - A.col).max() <= kl
        # the band's matrix and right-hand side, unscaled, in the order [x,
        # resultants, lambda]
        unknown = np.empty(N, np.intp)
        unknown[pos[placed]] = placed
        A = scipy.sparse.coo_matrix((A.data, (unknown[A.row], unknown[A.col])),
                                    shape=(len(pos),) * 2)
        b = np.zeros(len(pos))
        b[placed] = (band.rhs / band.d)[pos[placed]]
        p, m = len(pos) - n - system.n_constraints, system.n_constraints
        K = np.setdiff1d(placed, n + np.arange(p))
        X = np.random.default_rng(3).standard_normal((len(K), 4))
        SX, bK = _schur(A, b, n + np.arange(p), K, X)
        ref, ref_rhs = _saddle_reference(system, NO_GAUGE)
        q = system.C.shape[0]
        ref_K = np.concatenate([np.setdiff1d(np.arange(n), mid), n + q + np.arange(m)])
        ref_SX, ref_bK = _schur(ref, ref_rhs, np.concatenate([mid, n + np.arange(q)]), ref_K, X)
        assert np.abs(SX - ref_SX).max() <= 1e-10 * np.abs(ref_SX).max()
        assert np.abs(bK - ref_bK).max() <= 1e-10 * np.abs(ref_bK).max()
        return kl

    @pytest.mark.parametrize("n", [1, 3, 64, 512])
    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_blocks(self, name, policy, kind, n):
        model = bar_model(curve=KERNEL_CURVES[kind], loads=LoadCase(
            body=[0.0, -0.01, 0.02], force_end=[0.0, 0.0, 1.0]))
        system = discretize(model, formulation(name), n, policy)
        check = self.check_condensed(system) if name == "timoshenko_p2p1" else \
            self.check(system, _gauge_directions(system))
        assert check == HALF_BANDWIDTH[name, policy]

    def test_blocks_with_point_rows_and_gauge_rows(self):
        # H3-P2 reduced on a helix guided at its free end: B holds the point
        # constraint rows, and the three hourglass gauge rows go below them
        model = bar_model(curve=KERNEL_CURVES["helix"])
        model.constraints = [PointConstraint("end", "u", [1.0, 0.0, 0.0]),
                             PointConstraint("end", "theta", [0.0, 0.6, 0.8], 0.01)]
        system = discretize(model, formulation("timoshenko_h3p2"), 5, "reduced")
        assert sum(info.label == "point" for info in system.rows_info) == 2
        V = _gauge_directions(system)
        assert V.shape == (3, 3)
        assert self.check(system, V) == HALF_BANDWIDTH["timoshenko_h3p2", "reduced"]

    def test_size_of_the_arc_ladder_system(self):
        # P2-P1 reduced at n=512: 4614 DOFs less the 1536 midpoint DOFs, 512 x
        # 3 condensed resultant unknowns and 6 multipliers
        system = discretize(make_quarter_arc_model(0.15), formulation("timoshenko_p2p1"),
                            512, "reduced")
        band = _SaddleBand(system, NO_GAUGE, _stiff_blocks(system))
        assert band.kl == HALF_BANDWIDTH["timoshenko_p2p1", "reduced"]
        assert band.ab.shape == (3 * band.kl + 1, 4620)

    @pytest.mark.parametrize("rows", ["start", "both_ends", "end_point"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_band_is_bitwise_the_triplet_routes(self, name, policy, kind, n, rows):
        # the band, d and the scaled right-hand side are those of one
        # (row, column, value) triplet per nonzero summed by a bincount
        # (`saddle_reference`), bit for bit: with essential rows at the start
        # only, at both ends, or a point row at the end, and the gauge rows
        # of H3 reduced; one and two elements are where a start row's zeros
        # on the end node lie inside the storage but outside the band
        model = bar_model(curve=KERNEL_CURVES[kind], loads=LoadCase(
            body=[0.0, -0.01, 0.02], force_end=[0.0, 0.0, 1.0]),
            bc_end=BoundaryCondition.pinned() if rows == "both_ends" else None)
        if rows == "end_point":
            model.constraints = [PointConstraint("end", "u", [0.0, 0.6, 0.8], 0.01)]
        system = discretize(model, formulation(name), n, policy)
        V, stiff = _gauge_directions(system), _stiff_blocks(system)
        band = _SaddleBand(system, V, stiff)
        i, j, v, rhs, pos, kl = saddle_entries(system, V, stiff)
        ab, d, _ = band_storage(i, j, v, kl, len(rhs))
        assert band.kl == kl
        assert band.ab.shape == ab.shape and band.ab.flags.f_contiguous
        for new, old in ((band.ab, ab), (band.d, d), (band.rhs, d * rhs)):
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


def _least_hourglass_rows(system, modes):
    """The least-hourglass gauge rows, dense: per mode with slope direction v,
    sum_e h_e a2_e . v with a2_e = (m_left + m_right)/2 - (u_right - u_left)/h_e."""
    nd, h = system.dofmap.fields["u"].node_dofs, np.diff(system.mesh.nodes)
    G = np.zeros((len(modes), system.dofmap.ndof))
    for row, v in zip(G, modes):
        for e, he in enumerate(h):
            row[nd[e, 3:]] += 0.5 * he * v
            row[nd[e + 1, 3:]] += 0.5 * he * v
            row[nd[e + 1, :3]] -= v
            row[nd[e, :3]] += v
    return G


def _dense_least_hourglass_solve(system, modes):
    """x and the multipliers of the saddle system with the least-hourglass
    rows G below B, [[K_soft, C^T, X^T], [C, -D, 0], [X, 0, 0]] with X =
    [B; G], by a dense LU, for the zero-energy modes whose slope directions
    are the rows of modes."""
    X = np.vstack([system.B.toarray(), _least_hourglass_rows(system, modes)])
    C, p = system.C.toarray(), system.C.shape[0]
    A = np.block([[system.K_soft.toarray(), C.T, X.T],
                  [C, -np.diag(system.compliance), np.zeros((p, len(X)))],
                  [X, np.zeros((len(X), p + len(X)))]])
    y = scipy.linalg.solve(A, np.concatenate([system.rhs, np.zeros(p), system.g,
                                              np.zeros(len(modes))]))
    n, m = system.dofmap.ndof, system.n_constraints
    return y[:n], y[n + p:n + p + m]


LOCAL_GAUGE_CASES = [("timoshenko_h3p2", kind) for kind in sorted(KERNEL_CURVES)] \
    + [("euler_bernoulli_h3", "line")]


class TestLocalGauge:
    """Under H3 reduced, solve gauges each zero-energy mode by one row on
    node 0's slope DOFs and projects x onto the least-hourglass gauge after:
    x, the multipliers and the reactions are those of a dense solve with
    the least-hourglass rows."""

    @staticmethod
    def check(sol, modes):
        system = sol.system
        x, lam = _dense_least_hourglass_solve(system, modes)
        assert np.abs(sol.x - x).max() <= 1e-10 * np.abs(x).max()
        assert np.abs(sol.multipliers - lam).max() <= 1e-10 * np.abs(lam).max()
        ref = reaction_force_totals(SolutionFields(system=system, x=x, multipliers=lam))
        assert np.abs(reaction_force_totals(sol) - ref).max() <= 1e-10 * np.abs(lam).max()
        # the gauge rows are not model constraints
        assert len(sol.multipliers) == len(system.rows_info) == system.n_constraints

    @pytest.mark.parametrize("name, kind", LOCAL_GAUGE_CASES)
    def test_projected_x_is_the_least_hourglass_answer(self, name, kind):
        curve = KERNEL_CURVES[kind]
        model = BeamModel(curve=curve, material=MAT, section=circle_section(0.2),
                          bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
                          loads=LoadCase(body=[0.0, -0.01, 0.02], force_end=[0.3, -0.2, 1.0],
                                         moment_end=[0.1, 0.0, -0.2]),
                          constraints=[PointConstraint("end", "u", [0.0, 0.6, 0.8])])
        sol = solve_model(model, formulation(name), 6, "reduced")
        if name == "timoshenko_h3p2":
            modes = np.eye(3)
        else:
            modes = curve.end_frames().t[:1]
        self.check(sol, modes)

    @pytest.mark.parametrize("demo", ["helix_spring", "s_curve_bend", "s_curve_torque"])
    def test_shipped_reduced_demos(self, demo):
        with open(os.path.join(DEMO_DIR, demo + ".json")) as fh:
            model, name, n, policy = load_model(json.load(fh))
        assert (name, policy) == ("timoshenko_h3p2", "reduced")
        self.check(solve_model(model, formulation(name), n, policy), np.eye(3))


def _dense_saddle_solve(system):
    """x and the multipliers of [[K_soft, C^T, B^T], [C, -D, 0], [B, 0, 0]]
    by a dense LU of the symmetrically equilibrated matrix (d_i =
    1/sqrt(max_j |A_ij|)), with every unknown, midpoint DOFs and sigma
    included."""
    C, B, p = system.C.toarray(), system.B.toarray(), system.C.shape[0]
    m = len(B)
    A = np.block([[system.K_soft.toarray(), C.T, B.T],
                  [C, -np.diag(system.compliance), np.zeros((p, m))],
                  [B, np.zeros((m, p + m))]])
    d = 1.0 / np.sqrt(np.abs(A).max(axis=1))
    y = d * scipy.linalg.solve(d[:, None] * A * d, d * np.concatenate(
        [system.rhs, np.zeros(p), system.g]))
    n = system.dofmap.ndof
    return y[:n], y[n + p:]


BODY_LOADS = {
    "constant": lambda L: [0.0, -0.01, 0.02],
    "tabulated": lambda L: body_table([0.0, 0.4 * L, L], [[0.0, -0.01, 0.0], [0.02, 0.0, 0.01],
                                                          [0.0, 0.03, -0.02]]),
}


class TestMidpointCondensation:
    """Under a P2 midline solve eliminates each element's midpoint DOFs with
    the resultants they fix and recovers them after: x, midpoint DOFs
    included, and the multipliers are those of a dense solve of the whole
    saddle system."""

    @pytest.mark.parametrize("body", sorted(BODY_LOADS))
    @pytest.mark.parametrize("t", [0.1, 1e-3])
    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    def test_x_and_multipliers_are_the_dense_answer(self, policy, kind, t, body):
        curve = KERNEL_CURVES[kind]
        model = BeamModel(curve=curve, material=MAT, section=unit_depth_rect_section(t),
                          bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
                          loads=LoadCase(body=BODY_LOADS[body](curve.length),
                                         force_end=[0.3, -0.2, 1.0], moment_end=[0.1, 0.0, -0.2]),
                          constraints=[PointConstraint("end", "u", [0.0, 0.6, 0.8])])
        sol = solve_model(model, formulation("timoshenko_p2p1"), 6, policy)
        x, lam = _dense_saddle_solve(sol.system)
        mid = sol.system.dofmap.fields["u"].node_dofs[1::2]
        assert np.any(sol.system.rhs[mid])
        assert np.abs(sol.x - x).max() <= 1e-10 * np.abs(x).max()
        assert np.abs(sol.multipliers - lam).max() <= 1e-10 * np.abs(lam).max()


class TestRefinement:
    """The first triangular solve is refined only while its residual exceeds
    the round-off bound, for at most two steps."""

    @staticmethod
    def counted_dgbtrs(monkeypatch, perturb):
        # every band triangular solve is recorded and its result passed to
        # perturb(call number, y)
        calls = []
        real = cartbeam.solver.dgbtrs

        def counted(lu, kl, ku, b, piv, **kw):
            calls.append(b)
            y, info = real(lu, kl, ku, b, piv, **kw)
            return perturb(len(calls), y), info

        monkeypatch.setattr(cartbeam.solver, "dgbtrs", counted)
        return calls

    @staticmethod
    def arc_system():
        return discretize(make_quarter_arc_model(0.15), formulation("timoshenko_p2p1"),
                          512, "reduced")

    def test_one_triangular_solve_on_an_arc(self, monkeypatch):
        calls = self.counted_dgbtrs(monkeypatch, lambda k, y: y)
        solve(self.arc_system())
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1e-9, 1e-3])
    def test_a_bad_first_solve_is_refined(self, monkeypatch, scale):
        rng = np.random.default_rng(5)
        exact = solve(self.arc_system()).x
        calls = self.counted_dgbtrs(monkeypatch, lambda k, y: y * (
            1.0 + scale * rng.standard_normal(y.shape)) if k == 1 else y)
        system = self.arc_system()
        sol = solve(system)
        assert 1 < len(calls) <= 3
        r1 = system.K @ sol.x - system.rhs + system.B.T @ sol.multipliers
        bound = 1e-10 * (np.linalg.norm(system.rhs)
                         + abs(system.K).sum(axis=1).max() * np.linalg.norm(sol.x))
        assert np.linalg.norm(r1) <= bound
        assert np.abs(sol.x - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_a_factorization_that_stays_bad_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        calls = self.counted_dgbtrs(monkeypatch, lambda k, y: y * (
            1.0 + 0.1 * rng.standard_normal(y.shape)))
        with pytest.raises(SingularSystemError, match="equilibrium residual"):
            solve(self.arc_system())
        assert len(calls) == 3


class TestCallBudget:
    """Per-solve geometry and quadrature queries, counted on two consecutive
    P2-P1 arc solves of one model: one frames query per stiffness assembly,
    the end frames once for the loads, the essential rows and the rigid
    check of both solves; the Gauss rule once; one normal-plane basis per
    solve for the shear and the isotropic bend factors of the full rule,
    and one for the essential end rows of the first solve alone (the second
    reads them from the model's `EndTerms`); no scipy sparse matrix (K_soft
    stays as entries, C as element blocks and B as an end-node block, and
    the saddle matrix goes straight into LAPACK band storage)."""

    def test_samples_take_the_uncached_shape_path(self, monkeypatch):
        # the tables of QuadratureRule.shapes serve the quadrature points
        # alone: field samples at arbitrary xi evaluate the polynomials afresh
        import cartbeam.solver
        from cartbeam.discretization import gauss_rule, shape_eval
        sol = solve_model(bar_model(loads=LoadCase(force_end=[0.0, 0.0, 1.0])),
                          formulation("timoshenko_h3p2"), 3)
        tables = {n: dict(gauss_rule(n)._tables) for n in (2, 4)}
        calls = []
        monkeypatch.setattr(cartbeam.solver, "shape_eval",
                            lambda *a, **k: calls.append(a) or shape_eval(*a, **k))
        sol.evaluate(np.linspace(0.0, 10.0, 7))
        assert len(calls) == 2
        for n, kept in tables.items():
            assert gauss_rule(n)._tables.keys() == kept.keys()
            assert all(gauss_rule(n)._tables[key] is table for key, table in kept.items())

    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("form_name", list(FORMULATIONS))
    def test_one_frames_query_per_assembly(self, monkeypatch, form_name, policy):
        # under `reduced` the stiff terms take the 2-point rule and the soft
        # terms the full rule: one query still covers the points of both
        from cartbeam.assembly import assemble_stiffness
        from cartbeam.discretization import Mesh1D
        from cartbeam.geometry import ParamCurve
        arc = CircularArc([0, 0, 0], 1.5, [1, 0, 0], [0, 1, 0], 0.0, 2.0)
        calls = []
        frames = ParamCurve.frames
        monkeypatch.setattr(ParamCurve, "frames", lambda c, s: calls.append(len(s)) or frames(c, s))
        form = formulation(form_name)
        assemble_stiffness(bar_model(curve=arc), Mesh1D(np.linspace(0.0, arc.length, 5)), form,
                           policy)
        rules = [2, form.full_points] if policy == "reduced" else [form.full_points]
        assert calls == [4 * sum(rules)]

    def test_two_arc_solves(self, monkeypatch):
        import cartbeam.assembly
        import cartbeam.geometry
        import cartbeam.section
        from cartbeam.discretization import gauss_rule
        from cartbeam.geometry import ParamCurve
        counts = {"frames": 0, "frame": 0, "leggauss": 0, "orthonormal_completion": 0,
                  "sparse_constructions": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ParamCurve, "frames", counted("frames", ParamCurve.frames))
        monkeypatch.setattr(ParamCurve, "frame", counted("frame", ParamCurve.frame))
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            counted("leggauss", np.polynomial.legendre.leggauss))
        completion = counted("orthonormal_completion", cartbeam.geometry.orthonormal_completion)
        for module in (cartbeam.geometry, cartbeam.assembly, cartbeam.section):
            monkeypatch.setattr(module, "orthonormal_completion", completion)
        monkeypatch.setattr(scipy.sparse._compressed._cs_matrix, "__init__", counted(
            "sparse_constructions", scipy.sparse._compressed._cs_matrix.__init__))
        gauss_rule.cache_clear()
        arc = CircularArc([0, 0, 0], 1.5, [1, 0, 0], [0, 1, 0], 0.0, 2.0)
        model = bar_model(curve=arc, loads=LoadCase(force_end=[0.0, 0.0, 1.0]))
        for _ in range(2):
            solve_model(model, formulation("timoshenko_p2p1"), 4)
        assert counts == {"frames": 3, "frame": 0, "leggauss": 1, "orthonormal_completion": 3,
                          "sparse_constructions": 0}

    def test_a_second_mesh_reuses_the_end_terms(self, monkeypatch):
        # the redundancy QR and the rigid-mode check run once per model and
        # formulation, not once per mesh
        import cartbeam.assembly
        counts = {"qr": 0, "rigid": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg, "qr", counted("qr", scipy.linalg.qr))
        monkeypatch.setattr(cartbeam.assembly, "_free_rigid_mode_count", counted(
            "rigid", cartbeam.assembly._free_rigid_mode_count))
        arc = CircularArc([0, 0, 0], 1.5, [1, 0, 0], [0, 1, 0], 0.0, 2.0)
        model = bar_model(curve=arc, loads=LoadCase(force_end=[0.0, 0.0, 1.0]))
        solve_model(model, formulation("timoshenko_p2p1"), 4)
        assert counts == {"qr": 1, "rigid": 1}
        solve_model(model, formulation("timoshenko_p2p1"), 8)
        assert counts == {"qr": 1, "rigid": 1}

    @pytest.mark.parametrize("name, calls", [("timoshenko_h3p2", 1), ("euler_bernoulli_h3", 2)])
    def test_reduced_modes_of_h3p2_take_no_stiffness_product(self, monkeypatch, name, calls):
        # the residual check applies K once; the three H3-P2 modes are in
        # closed form, while Euler-Bernoulli's SVD of K H applies K again
        seen = []
        real = cartbeam.solver._apply_stiffness
        monkeypatch.setattr(cartbeam.solver, "_apply_stiffness",
                            lambda *a: seen.append(a) or real(*a))
        solve_model(bar_model(loads=LoadCase(force_end=[0.0, -1.0, 0.5])), formulation(name),
                    4, "reduced")
        assert len(seen) == calls
