"""Solver tests: patch-exact states, singularity detection, determinism."""
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
    body_table,
    discretize,
)
from cartbeam.benchmarks import make_quarter_arc_model
from cartbeam.discretization import FORMULATIONS, formulation
from cartbeam.geometry import CircularArc, Helix, HermiteSpline, LineSegment
from cartbeam.postprocess import tip_displacement
from cartbeam.section import Material, circle_section, rect_section, unit_depth_rect_section
from cartbeam.solver import (
    SingularSystemError,
    _apply_stiffness,
    _free_rigid_mode_count,
    _hourglass_gauge,
    _inf_norm,
    _mixed_system,
    _segment_reduce,
    _stiffness_scale,
    hourglass_modes,
    rigid_modes,
    solve,
    solve_model,
)
from manufactured import interpolated_solution

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
        assert _free_rigid_mode_count(system) == full
        if support == "clamped" or end == "clamped":
            assert full == 0
        elif support == "free_free" and end == "free":
            assert full == 6
        if full:
            with pytest.raises(SingularSystemError, match=f"system is singular: {full} "
                               "unconstrained rigid-body mode") as err:
                solve(system)
            assert err.value.n_rigid_modes == full


def _csr(rows, n_cols, cls=scipy.sparse.csr_matrix):
    """A compressed matrix from explicit (index, value) rows, stored zeros kept."""
    ptr = np.cumsum([0] + [len(r) for r in rows])
    ind = np.array([i for r in rows for i, _ in r], dtype=np.int32)
    dat = np.array([v for r in rows for _, v in r], dtype=float)
    return cls((dat, ind, ptr), shape=(len(rows), n_cols) if cls is scipy.sparse.csr_matrix
               else (n_cols, len(rows)))


NORM_CASES = {
    "dense_row": [[(0, -3.0), (2, 1.0)], [(1, 2.0)]],
    "empty_rows": [[], [(0, -1.0), (3, 4.0)], [], [(2, -5.0)], []],
    "empty_columns": [[(1, 2.0)], [(1, -7.0), (4, 1.0)]],
    "stored_zeros": [[(0, 0.0), (1, -2.0)], [(2, 0.0)], [(0, 3.0), (3, 0.0)]],
    "no_entries": [[], [], []],
}


class TestNormHelpers:
    """_segment_reduce runs reduceat over the compressed arrays, which for an
    empty segment returns the next entry instead of 0."""

    @pytest.mark.parametrize("case", sorted(NORM_CASES))
    def test_column_max_matches_abs_copy(self, case):
        A = _csr(NORM_CASES[case], 5, scipy.sparse.csc_matrix)
        ref = abs(A).max(axis=0).toarray().ravel()
        assert np.array_equal(_segment_reduce(np.maximum, A), ref)

    @pytest.mark.parametrize("case", sorted(NORM_CASES))
    def test_inf_norm_matches_abs_copy(self, case):
        M = _csr(NORM_CASES[case], 5)
        assert _inf_norm(M) == abs(M).sum(axis=1).max()

    def test_on_the_saddle_matrix_and_stiffness(self):
        model = bar_model(curve=KERNEL_CURVES["helix"])
        system = discretize(model, formulation("timoshenko_h3p2"), 3)
        A, _ = _mixed_system(system)
        assert np.array_equal(_segment_reduce(np.maximum, A), abs(A).max(axis=0).toarray().ravel())
        assert _inf_norm(system.K) == pytest.approx(abs(system.K).sum(axis=1).max(), rel=1e-15)


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
        assert "K" not in vars(system)
        kappa, K = _stiffness_scale(system), system.K
        assert "K" in vars(system)
        diag = K.diagonal().max()
        assert abs(kappa - diag) <= 1e-15 * diag
        assert kappa <= _inf_norm(K)
        X = np.random.default_rng(5).standard_normal((K.shape[0], 3))
        KX = K @ X
        assert np.abs(_apply_stiffness(system, X) - KX).max() <= 1e-14 * np.abs(KX).max()
        assert np.array_equal(_apply_stiffness(system, X[:, 1]), _apply_stiffness(system, X)[:, 1])


class TestSaddleMatrix:
    @staticmethod
    def check(system, gauge=None):
        # [[K_soft, C^T, B^T], [C, -D, 0], [B, 0, 0]] with any gauge rows in B
        # below the essential rows, from one constructor: its arrays are those
        # of the bmat reference as CSC with sorted indices. The first columns
        # come from the CSR stack [K_soft; C; B], so they need no symmetry,
        # but K_soft is bitwise symmetric, pattern and values, all the same.
        B = system.B if gauge is None else scipy.sparse.vstack([system.B, gauge], format="csr")
        A, rhs = _mixed_system(system, gauge)
        n, p, m = system.dofmap.ndof, system.C.shape[0], B.shape[0]
        ref = scipy.sparse.bmat([[system.K_soft, system.C.T, B.T],
                                 [system.C, -scipy.sparse.diags(system.compliance), None],
                                 [B, None, None]], format="csc")
        ref.sort_indices()
        assert A.format == "csc" and A.has_sorted_indices and A.shape == (n + p + m,) * 2
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(ref, attr))
        assert A.nnz == system.K_soft.nnz + 2 * (system.C.nnz + B.nnz) + p
        assert np.array_equal(rhs, np.concatenate([system.rhs, np.zeros(p), system.g,
                                                   np.zeros(m - system.n_constraints)]))
        K, KT = system.K_soft, system.K_soft.T.tocsr()
        KT.sort_indices()
        assert K.has_sorted_indices
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(K, attr), getattr(KT, attr))

    @pytest.mark.parametrize("n", [1, 3, 64])
    @pytest.mark.parametrize("kind", sorted(KERNEL_CURVES))
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_blocks(self, name, policy, kind, n):
        model = bar_model(curve=KERNEL_CURVES[kind], loads=LoadCase(force_end=[0.0, 0.0, 1.0]))
        self.check(discretize(model, formulation(name), n, policy))

    def test_blocks_with_point_rows_and_gauge_rows(self):
        # H3-P2 reduced on a helix guided at its free end: B holds the point
        # constraint rows, and the three hourglass gauge rows go below them
        model = bar_model(curve=KERNEL_CURVES["helix"])
        model.constraints = [PointConstraint("end", "u", [1.0, 0.0, 0.0]),
                             PointConstraint("end", "theta", [0.0, 0.6, 0.8], 0.01)]
        system = discretize(model, formulation("timoshenko_h3p2"), 5, "reduced")
        assert sum(info.label == "point" for info in system.rows_info) == 2
        gauge = _hourglass_gauge(system, hourglass_modes(system, _stiffness_scale(system)))
        assert gauge.shape == (3, system.dofmap.ndof)
        self.check(system, gauge)

    def test_size_of_the_arc_ladder_system(self):
        # P2-P1 reduced at n=512: 4614 DOFs, 512 x 2 points x 3 resultant
        # unknowns (stretch 1, shear 2) and 6 multipliers
        system = discretize(make_quarter_arc_model(0.15), formulation("timoshenko_p2p1"),
                            512, "reduced")
        A, _ = _mixed_system(system)
        assert A.shape == (7692, 7692)


class TestRefinement:
    """The first triangular solve is refined only while its residual exceeds
    the round-off bound, for at most two steps."""

    @staticmethod
    def counted_splu(monkeypatch, perturb):
        # every triangular solve is recorded and its result passed to
        # perturb(call number, y)
        calls = []
        real = scipy.sparse.linalg.splu

        class Counted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                calls.append(b)
                return perturb(len(calls), self.lu.solve(b))

        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda A, **kw: Counted(real(A, **kw)))
        return calls

    @staticmethod
    def arc_system():
        return discretize(make_quarter_arc_model(0.15), formulation("timoshenko_p2p1"),
                          512, "reduced")

    def test_one_triangular_solve_on_an_arc(self, monkeypatch):
        calls = self.counted_splu(monkeypatch, lambda k, y: y)
        solve(self.arc_system())
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1e-9, 1e-3])
    def test_a_bad_first_solve_is_refined(self, monkeypatch, scale):
        rng = np.random.default_rng(5)
        exact = solve(self.arc_system()).x
        calls = self.counted_splu(monkeypatch, lambda k, y: y * (
            1.0 + scale * rng.standard_normal(y.shape)) if k == 1 else y)
        system = self.arc_system()
        sol = solve(system)
        assert 1 < len(calls) <= 3
        r1 = system.K @ sol.x - system.rhs + system.B.T @ sol.multipliers
        bound = 1e-10 * (np.linalg.norm(system.rhs) + _inf_norm(system.K) * np.linalg.norm(sol.x))
        assert np.linalg.norm(r1) <= bound
        assert np.abs(sol.x - exact).max() <= 1e-10 * np.abs(exact).max()

    def test_a_factorization_that_stays_bad_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        calls = self.counted_splu(monkeypatch, lambda k, y: y * (
            1.0 + 0.1 * rng.standard_normal(y.shape)))
        with pytest.raises(SingularSystemError, match="equilibrium residual"):
            solve(self.arc_system())
        assert len(calls) == 3


class TestCallBudget:
    """Per-solve geometry and quadrature queries, counted on two consecutive
    P2-P1 arc solves of a fresh curve: one frames query per stiffness rule,
    the end frames once for the loads, the essential rows and the rigid
    check of both solves; the Gauss rule once; one normal-plane basis per
    solve for the shear and the isotropic bend factors of the full rule,
    and one for the essential end rows; four scipy compressed-matrix
    constructions per solve: K_soft, C, B and the saddle matrix."""

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
        assert counts == {"frames": 3, "frame": 0, "leggauss": 1, "orthonormal_completion": 4,
                          "sparse_constructions": 8}
