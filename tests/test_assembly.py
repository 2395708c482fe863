"""Assembly tests: strain measures, element matrices against hand-integrated
and independently coded references, load vectors, and constraint rows."""
import glob
import json
import os
import warnings

import numpy as np
import pytest
import scipy.sparse

from cartbeam.assembly import (
    BCRow,
    BeamModel,
    BoundaryCondition,
    ConstraintConflictError,
    LoadCase,
    PointConstraint,
    apply_essential_bcs,
    assemble_load,
    assemble_stiffness,
    body_table,
    discretize,
)
from cartbeam.acceptance import _point_factors
from cartbeam.benchmarks import demo_files
from cartbeam.cli import load_model
from cartbeam.assembly import _element_factors
from cartbeam.discretization import (
    FORMULATIONS,
    DofMap,
    Mesh1D,
    formulation,
    gauss_rule,
    shape_eval,
)
from cartbeam.geometry import (
    CircularArc,
    Helix,
    HermiteSpline,
    LineSegment,
    orthonormal_completion,
)
from cartbeam.solver import SingularSystemError, solve
from cartbeam.section import (
    DirectorDegeneracyError,
    Material,
    circle_section,
    rect_section,
    unit_depth_rect_section,
)
from saddle_reference import split_matrices


MAT = Material(E=1e6, nu=0.3)
# every model file shipped, the study files aside
MODEL_FILES = [p for p in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                                       "configs", "*.json")))
               if not os.path.basename(p).startswith("study_")] + list(demo_files().values())


def straight_model(L=10.0, section=None, loads=None, bc_end=None):
    return BeamModel(
        curve=LineSegment([0, 0, 0], [L, 0, 0]),
        material=MAT,
        section=section or unit_depth_rect_section(0.1),
        bc_start=BoundaryCondition.clamped(),
        bc_end=bc_end or BoundaryCondition.free(),
        loads=loads or LoadCase(),
    )


def helix_model():
    return BeamModel(
        curve=Helix([0, 0, 0], 1.0, 0.2, [1, 0, 0], [0, 1, 0], 0.0, 3 * np.pi),
        material=MAT,
        section=circle_section(0.15),
        bc_start=BoundaryCondition.clamped(),
        bc_end=BoundaryCondition.free(),
        loads=LoadCase(force_end=[0.1, -0.2, 0.3]),
    )


def rigid_rotation_fields(form, fr, omega):
    """Pointwise derivatives of u = omega x r(s), theta = omega: u' = omega x t,
    u'' = omega x kappa, and theta_t = t . omega for Euler-Bernoulli."""
    du, z = np.cross(omega, fr.t), np.zeros(3)
    if form.euler_bernoulli:
        return [z, du, np.cross(omega, fr.kappa)], [fr.t @ omega, fr.kappa @ omega]
    return [z, du], [omega, z]


class TestKinematicMeasures:
    """The strain operator is the G factors of the assembly, evaluated at
    pointwise field values."""

    @pytest.mark.parametrize("name", FORMULATIONS)
    def test_constant_twist_on_straight_beam(self, name):
        form = formulation(name)
        fr = LineSegment([0, 0, 0], [1, 0, 0]).frame(0.5)
        c, z = 0.37, np.zeros(3)
        nu = 3 if form.euler_bernoulli else 2
        angle = [c, 0.0] if form.euler_bernoulli else [c * fr.t, z]
        for G, x in _point_factors(form, circle_section(0.1), fr, [z] * nu, angle):
            assert np.allclose(G @ x, 0.0, atol=1e-14)

    @pytest.mark.parametrize("name", FORMULATIONS)
    @pytest.mark.parametrize("section", [circle_section(0.1), rect_section(0.1, 0.05, [0, 0, 1])])
    @pytest.mark.parametrize("curve", [
        LineSegment([0, 0, 0], [2, 1, 0]),
        CircularArc([0, 0, 0], 2.0, [1, 0, 0], [0, 1, 0], 0.0, np.pi),
        Helix([0, 0, 0], 1.0, 0.5, [1, 0, 0], [0, 1, 0], 0.0, 4 * np.pi),
    ])
    def test_rigid_rotation_gives_zero_measures(self, curve, section, name):
        form = formulation(name)
        rng = np.random.default_rng(3)
        omega = rng.normal(size=3)
        for s in np.linspace(0, curve.length, 7):
            fr = curve.frame(s)
            for G, x in _point_factors(form, section, fr,
                                       *rigid_rotation_fields(form, fr, omega)):
                assert np.linalg.norm(G @ x) <= 1e-10 * np.linalg.norm(omega)

    @pytest.mark.parametrize("name", ["timoshenko_p2p1", "timoshenko_h3p2"])
    def test_unit_tangential_displacement_on_arc(self, name):
        # u = t(s): the normal-plane part of u' equals the curvature vector
        R = 2.0
        arc = CircularArc([0, 0, 0], R, [1, 0, 0], [0, 1, 0], 0.0, np.pi)
        fr = arc.frame(1.1)
        z = np.zeros(3)
        _, (G_shear, x), _, _ = _point_factors(formulation(name), circle_section(0.1), fr,
                                               [fr.t, fr.kappa], [z, z])
        # two rows, the components on the normal-plane pair N
        assert G_shear.shape[0] == 2
        assert np.allclose(orthonormal_completion(fr.t).T @ (G_shear @ x), fr.kappa, atol=1e-12)
        assert np.linalg.norm(G_shear @ x) == pytest.approx(1.0 / R, abs=1e-12)

    def test_strain_tensor_contraction_identities(self):
        # P- and Q-projected strain parts are mutually orthogonal under
        # contraction, and the vector measures carry the full contractions
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            P = np.outer(t, t)
            Q = np.eye(3) - P
            eps = {}
            for key in ("u", "v"):
                du = rng.normal(size=3)
                grad = np.outer(t, du)  # midline fields vary only along t
                e = 0.5 * (grad + grad.T)
                eps[key] = (P @ e @ P, Q @ e @ P + P @ e @ Q, du)
            ePu, eSu, du = eps["u"]
            ePv, eSv, dv = eps["v"]
            assert abs(np.tensordot(ePu, eSv)) <= 1e-12
            assert abs(np.tensordot(eSu, ePv)) <= 1e-12
            assert np.tensordot(ePu, ePv) == pytest.approx(
                float((ePu @ t) @ (ePv @ t)), abs=1e-12)
            assert np.tensordot(eSu, eSv) == pytest.approx(
                2.0 * float((eSu @ t) @ (eSv @ t)), abs=1e-12)
            # and the measure vectors are exactly those tensor rows
            assert np.allclose(ePu @ t, (t @ du) * t, atol=1e-12)
            assert np.allclose(2.0 * (eSu @ t), Q @ du, atol=1e-12)


class TestStiffness:
    def test_quadratic_bar_stretch_block(self):
        # hand-integrated quadratic bar matrix (EA/h) [[7/3,-8/3,1/3],...]
        L = 2.0
        model = straight_model(L=L)
        mesh = Mesh1D.uniform(L, 1)
        form = formulation("timoshenko_p2p1")
        # on a straight bar the axial block of the full K is the stretch term's
        system = assemble_stiffness(model, mesh, form)
        dm = system.dofmap
        ux = dm.fields["u"].node_dofs[:, 0]
        K = system.K.toarray()[np.ix_(ux, ux)]
        EA_h = MAT.E * model.section.area / L
        expected = EA_h * np.array([[7, -8, 1], [-8, 16, -8], [1, -8, 7]]) / 3.0
        assert np.allclose(K, expected, rtol=1e-12)

    def test_symmetry_on_curved_model(self):
        for policy in ("full", "reduced"):
            system = discretize(helix_model(), formulation("timoshenko_h3p2"), 6, policy)
            dev = abs(system.K - system.K.T).max()
            assert dev <= 1e-12 * abs(system.K).max()

    def test_positive_semidefinite(self):
        system = assemble_stiffness(helix_model(), Mesh1D.uniform(helix_model().curve.length, 4),
                                    formulation("timoshenko_p2p1"))
        vals = np.linalg.eigvalsh(system.K.toarray())
        assert vals[0] >= -1e-10 * vals[-1]

    def test_rigid_modes_in_null_space_straight(self):
        from cartbeam.solver import rigid_modes
        model = BeamModel(curve=LineSegment([0, 0, 0], [5, 0, 0]), material=MAT,
                          section=circle_section(0.2),
                          bc_start=BoundaryCondition.free(), bc_end=BoundaryCondition.free())
        for name in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
            system = assemble_stiffness(model, Mesh1D.uniform(5.0, 3), formulation(name))
            Z = rigid_modes(system)
            knorm = abs(system.K).max()
            for a in range(6):
                z = Z[:, a]
                assert np.linalg.norm(system.K @ z) <= 1e-9 * knorm * np.linalg.norm(z)

    def test_rigid_modes_in_null_space_curved(self):
        # on curved geometry the nodal interpolants of rigid rotations carry
        # O(h^p) interpolation strain, so the 1e-9 bound needs a fine mesh
        from cartbeam.solver import rigid_modes
        arc = CircularArc([0, 0, 0], 1.0, [1, 0, 0], [0, 1, 0], -np.pi / 2, 0.0)
        model = BeamModel(curve=arc, material=MAT, section=circle_section(0.1),
                          bc_start=BoundaryCondition.free(), bc_end=BoundaryCondition.free())
        for name, n in (("timoshenko_p2p1", 64), ("timoshenko_h3p2", 32)):
            system = assemble_stiffness(model, Mesh1D.uniform(arc.length, n),
                                        formulation(name))
            Z = rigid_modes(system)
            knorm = abs(system.K).max()
            for a in range(6):
                z = Z[:, a]
                assert np.linalg.norm(system.K @ z) <= 1e-9 * knorm * np.linalg.norm(z)

    def test_timoshenko_matches_textbook_element(self):
        # independent oracle: classical irreducible plane Timoshenko element,
        # quadratic deflection w, linear rotation theta:
        #   EI int theta' eta' + GA int (w' - theta)(v' - eta)
        L, n_el = 2.4, 3
        sec = unit_depth_rect_section(0.2)
        model = straight_model(L=L, section=sec)
        mesh = Mesh1D.uniform(L, n_el)
        system = assemble_stiffness(model, mesh, formulation("timoshenko_p2p1"))
        dm = system.dofmap
        uy = dm.fields["u"].node_dofs[:, 1]
        thz = dm.fields["theta"].node_dofs[:, 2]
        idx = np.concatenate([uy, thz])
        K_ours = system.K.toarray()[np.ix_(idx, idx)]

        EI = MAT.E * sec.inertia_iso
        GA = MAT.G * sec.area
        n_w = 2 * n_el + 1
        n_t = n_el + 1
        K_ref = np.zeros((n_w + n_t, n_w + n_t))
        rule = gauss_rule(3)
        h = L / n_el
        for e in range(n_el):
            wdofs = [2 * e, 2 * e + 1, 2 * e + 2]
            tdofs = [n_w + e, n_w + e + 1]
            for xi, wq in zip(rule.points, rule.weights):
                Nw = shape_eval("P2", h, xi, nderiv=1)
                Nt = shape_eval("P1", h, xi, nderiv=1)
                B = np.zeros(5)
                B[:3] = Nw[1]
                B[3:] = -Nt[0]
                edofs = wdofs + tdofs
                K_ref[np.ix_(edofs, edofs)] += wq * h * GA * np.outer(B, B)
                Bb = np.zeros(5)
                Bb[3:] = Nt[1]
                K_ref[np.ix_(edofs, edofs)] += wq * h * EI * np.outer(Bb, Bb)
        assert np.allclose(K_ours, K_ref, atol=1e-10 * abs(K_ref).max())

    def test_stretch_shear_energy_matches_tensor_contraction(self):
        # assembled stretch+shear energy == quadrature of the full-tensor
        # contraction E ePu:ePu + 2G eSu:eSu for a midline-only field
        model = helix_model()
        mesh = Mesh1D.uniform(model.curve.length, 3)
        form = formulation("timoshenko_p2p1")
        # bend and twist act on theta alone, so K sees only stretch and shear
        system = assemble_stiffness(model, mesh, form)
        dm = system.dofmap
        rng = np.random.default_rng(5)
        x = np.zeros(dm.ndof)
        uinfo = dm.fields["u"]
        x[: uinfo.n_dofs] = rng.normal(size=uinfo.n_dofs)

        energy_K = float(x @ (system.K @ x))
        rule = gauss_rule(3)
        E, G, A = MAT.E, MAT.G, model.section.area
        energy_q = 0.0
        for e in range(mesh.n_elements):
            s0, h = mesh.nodes[e], mesh.nodes[e + 1] - mesh.nodes[e]
            dofs_u = dm.fields["u"].elem_dofs[e]
            coeff = x[dofs_u].reshape(-1, 3)
            for xi, wq in zip(rule.points, rule.weights):
                sh = shape_eval("P2", h, xi, nderiv=1)
                du = sh[1] @ coeff
                fr = model.curve.frame(s0 + xi * h)
                grad = np.outer(fr.t, du)
                eps = 0.5 * (grad + grad.T)
                P = np.outer(fr.t, fr.t)
                Q = np.eye(3) - P
                ePu = P @ eps @ P
                eSu = Q @ eps @ P + P @ eps @ Q
                energy_q += wq * h * A * (E * np.tensordot(ePu, ePu)
                                          + 2 * G * np.tensordot(eSu, eSu))
        assert energy_K == pytest.approx(energy_q, rel=1e-12)

    def test_reduced_equals_full_on_straight_p2p1(self):
        model = straight_model()
        mesh = Mesh1D.uniform(10.0, 4)
        form = formulation("timoshenko_p2p1")
        K_full = assemble_stiffness(model, mesh, form, "full").K
        K_red = assemble_stiffness(model, mesh, form, "reduced").K
        assert abs(K_full - K_red).max() <= 1e-12 * abs(K_full).max()


SPLIT_CURVES = {
    "line": LineSegment([0, 0, 0], [3.0, 0.5, 0.0]),
    "arc": CircularArc([0, 0, 0], 1.5, [1, 0, 0], [0, 1, 0], 0.0, 2.0),
    "helix": Helix([0, 0, 0], 1.0, 0.3, [1, 0, 0], [0, 1, 0], 0.0, 3.0),
    "hermite_spline": HermiteSpline(np.array([[0.0, 0, 0], [1.0, 0.6, 0.2], [2.0, 0.0, 0.5]]),
                                    [1.0, 0.5, 0.0], [1.0, -0.5, 0.3]),
}


SPLIT_CASES = pytest.mark.parametrize(
    "name, policy, kind, section",
    [(name, policy, kind, section) for name in sorted(FORMULATIONS)
     for policy in ("full", "reduced") for kind in sorted(SPLIT_CURVES)
     for section in ("circle", "rect")])
SPLIT_SECTIONS = {"circle": circle_section(0.2), "rect": rect_section(0.2, 0.1, [0.0, 0.0, 1.0])}


def split_system(name, policy, kind, section):
    curve = SPLIT_CURVES[kind]
    model = BeamModel(curve=curve, material=MAT, section=SPLIT_SECTIONS[section],
                      bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free())
    return assemble_stiffness(model, Mesh1D.uniform(curve.length, 3), formulation(name), policy)


def stiff_rows_per_point(form):
    # stretch 1, and shear 2: the components of u' - theta x t on the
    # normal-plane pair
    return 1 if form.euler_bernoulli else 3


def full_column_reference(system):
    """Dense K and K_soft of a system from the factors of `_element_factors`
    placed on all of an element's u + angle columns, integrated point by
    point and added element by element."""
    model, form, mesh, dm = system.model, system.form, system.mesh, system.dofmap
    udofs, adofs = dm.fields["u"].elem_dofs, dm.fields[form.angle_field].elem_dofs
    edofs, nu, na = np.hstack([udofs, adofs]), udofs.shape[1], adofs.shape[1]
    full = gauss_rule(form.full_points)
    stiff_rule = gauss_rule(2) if system.policy == "reduced" else full
    lengths = np.diff(mesh.nodes)
    K, K_soft = np.zeros((dm.ndof, dm.ndof)), np.zeros((dm.ndof, dm.ndof))
    for term in ("stretch", "shear", "bend", "twist"):
        if term == "shear" and form.euler_bernoulli:
            continue
        soft = term in ("bend", "twist")
        rule = full if soft else stiff_rule
        spts, w = rule.on_element(mesh.nodes[:-1, None], lengths[:, None])
        fr = model.curve.frames(spts.ravel())
        t, kappa = fr.t.reshape(spts.shape + (3,)), fr.kappa.reshape(spts.shape + (3,))
        shu = shape_eval(form.midline, lengths[:, None], rule.points,
                         nderiv=2 if form.euler_bernoulli else 1)
        sha = shape_eval(form.angle, lengths[:, None], rule.points, nderiv=1)
        G, k, c = _element_factors(term, form, t, kappa, orthonormal_completion(t),
                                   model.material, model.section, shu, sha, nu, na)
        G_all = np.zeros(G.shape[:-1] + (nu + na,))
        G_all[..., c:] = G
        for e in range(mesh.n_elements):
            for q in range(len(rule.points)):
                ke = w[e, q] * k * G_all[e, q].T @ G_all[e, q]
                K[np.ix_(edofs[e], edofs[e])] += ke
                if soft:
                    K_soft[np.ix_(edofs[e], edofs[e])] += ke
    return K, K_soft


class TestSoftColumns:
    """Bend and twist are assembled on the columns they act on: the angle
    DOFs under Timoshenko, every DOF under Euler-Bernoulli."""

    @SPLIT_CASES
    def test_matches_full_column_assembly(self, name, policy, kind, section):
        system = split_system(name, policy, kind, section)
        K_ref, K_soft_ref = full_column_reference(system)
        for got, ref in ((system.K, K_ref), (split_matrices(system)[0], K_soft_ref)):
            assert np.abs(got.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()

    @SPLIT_CASES
    def test_u_entries_of_the_soft_part(self, name, policy, kind, section):
        # none under Timoshenko, where bend and twist read theta' alone
        system = split_system(name, policy, kind, section)
        u = system.dofmap.fields["u"].elem_dofs.ravel()
        eb, K_soft = system.form.euler_bernoulli, split_matrices(system)[0]
        assert (K_soft[u].nnz > 0) == (K_soft[:, u].nnz > 0) == eb


class TestSoftBlocks:
    """K_soft is held as one block per element on the element's last local
    columns (`K_blocks`): bend plus twist, as assembly forms them."""

    @SPLIT_CASES
    def test_blocks_are_the_bend_and_twist_gram_sums(self, name, policy, kind, section,
                                                     monkeypatch):
        # the element blocks w k G^T G as assembly forms them, captured from
        # its factors and Gram products: K_blocks is their sum, bitwise, on
        # the last columns of `DofMap.element_dofs`, the ones they act on
        import cartbeam.assembly
        ks, grams = [], []
        factors, gram = cartbeam.assembly._element_factors, cartbeam.assembly._gram
        monkeypatch.setattr(cartbeam.assembly, "_element_factors", lambda term, *a: ks.append(
            term) or factors(term, *a))
        monkeypatch.setattr(cartbeam.assembly, "_gram",
                            lambda A: grams.append(gram(A)) or grams[-1])
        system = split_system(name, policy, kind, section)
        mat, sec = system.model.material, system.model.section
        moduli = {"bend": mat.E, "twist": mat.G * sec.polar}
        ke = sum(moduli[term] * g for term, g in zip([k for k in ks if k in moduli], grams))
        assert system.K_blocks.dtype == ke.dtype and np.array_equal(system.K_blocks, ke)
        dm = system.dofmap
        n_angle = dm.fields[system.form.angle_field].elem_dofs.shape[1]
        assert ke.shape[-1] == (dm.element_dofs().shape[1] if system.form.euler_bernoulli
                                else n_angle)


class TestMixedSplit:
    """K = K_soft + C^T diag(1/compliance) C, the split the solver factors:
    K from its element matrices (`element_stiffness`) against the split's
    matrices formed apart from them."""

    @SPLIT_CASES
    def test_full_stiffness_is_soft_part_plus_resultant_rows(self, name, policy, kind,
                                                             section):
        system = split_system(name, policy, kind, section)
        form, (K_soft, C) = system.form, split_matrices(system)
        K = system.K.toarray()
        stiff = (C.T @ scipy.sparse.diags(1.0 / system.compliance) @ C).toarray()
        assert np.abs(K - K_soft.toarray() - stiff).max() <= 1e-14 * np.abs(K).max()
        # one row per element, point of the stiff rule, and independent
        # strain component
        n_points = 2 if policy == "reduced" else form.full_points
        assert C.shape[0] == 3 * n_points * stiff_rows_per_point(form) \
            == len(system.compliance)

    @SPLIT_CASES
    def test_each_point_has_independent_rows(self, name, policy, kind, section):
        # the rows of C at each quadrature point have full row rank: one
        # resultant unknown per independent strain component
        system = split_system(name, policy, kind, section)
        rows = stiff_rows_per_point(system.form)
        C = split_matrices(system)[1]
        for block in C.toarray().reshape(-1, rows, C.shape[1]):
            assert np.linalg.matrix_rank(block) == rows

    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_reduced_policy_only_touches_stretch_and_shear(self, name, monkeypatch):
        # bend and twist keep the full rule under both policies: the same K_soft
        # bits; stretch and shear rows of C: 2 points per element under
        # reduced, the full rule's points under full
        import cartbeam.assembly
        curve = SPLIT_CURVES["helix"]
        model = BeamModel(curve=curve, material=MAT, section=circle_section(0.2),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free())
        form, mesh = formulation(name), Mesh1D.uniform(curve.length, 3)
        rules = []
        monkeypatch.setattr(cartbeam.assembly, "gauss_rule",
                            lambda n: rules.append(gauss_rule(n)) or rules[-1])
        full = assemble_stiffness(model, mesh, form, "full")
        red = assemble_stiffness(model, mesh, form, "reduced")
        (full_soft, full_C), (red_soft, red_C) = split_matrices(full), split_matrices(red)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(full_soft, attr), getattr(red_soft, attr))
        assert red_C.shape[0] == 3 * 2 * stiff_rows_per_point(form)
        assert full_C.shape[0] == 3 * form.full_points * stiff_rows_per_point(form)
        # the reduced rule is the shared, memoized 2-point rule
        assert any(rule is gauss_rule(2) for rule in rules)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown quadrature policy 'hourglass'"):
            assemble_stiffness(straight_model(), Mesh1D.uniform(10.0, 2),
                               formulation("timoshenko_p2p1"), "hourglass")

    def test_director_parallel_to_the_tangent_at_one_point_raises(self):
        curve = SPLIT_CURVES["arc"]
        form = formulation("timoshenko_h3p2")
        mesh = Mesh1D.uniform(curve.length, 3)
        s0, h = mesh.nodes[1], mesh.nodes[2] - mesh.nodes[1]
        s_q = s0 + gauss_rule(form.full_points).points[1] * h
        model = BeamModel(curve=curve, material=MAT,
                          section=rect_section(0.2, 0.1, curve.frame(s_q).t),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free())
        with pytest.raises(DirectorDegeneracyError):
            assemble_stiffness(model, mesh, form, "full")


class TestLoads:
    def test_zero_loads_give_zero_rhs(self):
        model = straight_model()
        rhs = assemble_load(model, DofMap(Mesh1D.uniform(10.0, 4), formulation("timoshenko_p2p1")))
        assert np.allclose(rhs, 0.0)

    def test_tip_point_load_is_nodal(self):
        P = np.array([0.3, -1.0, 0.7])
        model = straight_model(loads=LoadCase(force_end=P))
        mesh = Mesh1D.uniform(10.0, 4)
        form = formulation("timoshenko_p2p1")
        dm = DofMap(mesh, form)
        rhs = assemble_load(model, dm)
        tip_dofs = dm.fields["u"].node_dofs[-1, :]
        assert np.allclose(rhs[tip_dofs], P)
        mask = np.ones(len(rhs), bool)
        mask[tip_dofs] = False
        assert np.allclose(rhs[mask], 0.0)

    def test_uniform_body_force_consistent_vector(self):
        # one quadratic element: h |A| f (1/6, 2/3, 1/6) per component
        h = 2.0
        f = np.array([0.0, -3.0, 1.0])
        model = BeamModel(curve=LineSegment([0, 0, 0], [h, 0, 0]), material=MAT,
                          section=unit_depth_rect_section(0.1),
                          bc_start=BoundaryCondition.clamped(),
                          bc_end=BoundaryCondition.free(),
                          loads=LoadCase(body=f))
        mesh = Mesh1D.uniform(h, 1)
        form = formulation("timoshenko_p2p1")
        dm = DofMap(mesh, form)
        rhs = assemble_load(model, dm)
        A = model.section.area
        for comp in range(3):
            dofs = dm.fields["u"].node_dofs[:, comp]
            expected = h * A * f[comp] * np.array([1 / 6, 2 / 3, 1 / 6])
            assert np.allclose(rhs[dofs], expected, atol=1e-14)

    def test_natural_value_projection_warns(self):
        bc_end = BoundaryCondition(
            stretching=BCRow("natural", 0.0),
            shearing=BCRow("natural", np.array([1.0, 1.0, 0.0])),  # x-part is tangential
            bending=BCRow("natural", np.zeros(3)),
            twisting=BCRow("natural", 0.0),
        )
        model = straight_model(bc_end=bc_end)
        with pytest.warns(UserWarning, match="tangential"):
            assemble_load(model, DofMap(Mesh1D.uniform(10.0, 2), formulation("timoshenko_p2p1")))

    def test_natural_end_values_match_point_loads_at_free_end(self):
        # prescribing N/S/M/T resultants at s=L equals applying the same
        # force and moment vectors as concentrated loads (on the arc the two
        # end tangents differ)
        F = np.array([0.5, -1.0, 0.25])
        M = np.array([0.2, 0.15, -0.4])
        for curve in (LineSegment([0, 0, 0], [10.0, 0, 0]),
                      CircularArc([0, 0, 0], 4.0, [1, 0, 0], [0, 1, 0], 0.3, 2.0)):
            t = curve.frame(curve.length).t
            bc_end = BoundaryCondition(
                stretching=BCRow("natural", float(F @ t)),
                shearing=BCRow("natural", F - float(F @ t) * t),
                bending=BCRow("natural", M - float(M @ t) * t),
                twisting=BCRow("natural", float(M @ t)),
            )
            mesh = Mesh1D.uniform(curve.length, 3)
            point_loads = LoadCase(force_end=F, moment_end=M)
            for name in ("timoshenko_h3p2", "euler_bernoulli_h3"):
                rhs_bc, rhs_load = (
                    assemble_load(BeamModel(curve=curve, material=MAT, section=circle_section(0.1),
                                            bc_start=BoundaryCondition.clamped(), bc_end=bc,
                                            loads=loads), DofMap(mesh, formulation(name)))
                    for bc, loads in ((bc_end, LoadCase()), (BoundaryCondition.free(), point_loads)))
                assert np.allclose(rhs_bc, rhs_load, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    @pytest.mark.parametrize("body", ["constant", "table"])
    def test_array_body_force_matches_one_call_per_point(self, body, name):
        # one call on every quadrature point gives the bits of one call per
        # point with a scalar arc length
        S = np.array([0.0, 4.0, 10.0])
        F = np.array([[0.0, -1.0, 0.0], [0.5, -2.0, 0.1], [0.0, 0.0, 1.0]])
        f = np.array([0.3, -1.5, 0.7])
        if body == "constant":
            vector, per_point = f, lambda s: np.array([f for _ in s])
        else:
            vector = body_table(S, F)
            per_point = lambda s: np.array(  # noqa: E731
                [[np.interp(si, S, F[:, k]) for k in range(3)] for si in s])
        dm = DofMap(Mesh1D.uniform(helix_model().curve.length, 5), formulation(name))
        rhs = []
        for fn in (vector, per_point):
            model = helix_model()
            model.loads.body = LoadCase(body=fn).body
            rhs.append(assemble_load(model, dm))
        assert np.any(rhs[0] != 0.0) and np.array_equal(rhs[0], rhs[1])

    def test_body_callable_of_the_wrong_shape_raises(self):
        model = straight_model(loads=LoadCase(body=lambda s: np.zeros(3)))
        with pytest.raises(ValueError, match=r"expected \(15, 3\)"):
            discretize(model, formulation("timoshenko_p2p1"), 5)

    def test_discretize_builds_one_dof_map(self, monkeypatch):
        # the load vector and the constraint rows use the stiffness's map
        import cartbeam.assembly
        built = []

        class CountingDofMap(DofMap):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(cartbeam.assembly, "DofMap", CountingDofMap)
        model = helix_model()
        model.loads.body = LoadCase(body=[0.0, 0.0, -1.0]).body
        system = discretize(model, formulation("timoshenko_h3p2"), 4)
        assert built == [system.dofmap]

    @pytest.mark.parametrize("name", FORMULATIONS)
    @pytest.mark.parametrize("row", ["shearing", "bending"])
    @pytest.mark.parametrize("kind", ["natural", "essential"])
    def test_each_offending_value_warns_once(self, kind, row, name):
        rows = {r: c for r, c in BoundaryCondition.free().rows()}
        rows[row] = BCRow(kind, np.array([1.0, 1.0, 0.0]))     # x-part is tangential
        model = straight_model(bc_end=BoundaryCondition(**rows))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            discretize(model, formulation(name), 2)
        assert sum("tangential" in str(w.message) for w in caught) == 1


class TestMalformedEndData:
    """The end-data constructors refuse a malformed shape or name at once,
    with a ValueError that names the field, instead of solving or failing
    inside assembly."""

    @pytest.mark.parametrize("key, value", [
        ("force_end", [[0.0, -1.0, 0.0]]),
        ("force_end", [1.0, 2.0]),
        ("force_start", 1.0),
        ("moment_end", [1.0, 0.0, 0.0, 0.0]),
        ("moment_start", np.zeros((3, 1))),
    ])
    def test_end_forces_and_moments_are_3_vectors(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a 3-vector"):
            LoadCase(**{key: value})

    def test_well_formed_end_loads_are_kept_as_float_vectors(self):
        loads = LoadCase(force_end=[0, -1, 0], moment_start=(1, 2, 3))
        assert loads.force_end.dtype == float and loads.force_end.shape == (3,)
        assert loads.moment_start.tolist() == [1.0, 2.0, 3.0]
        assert loads.force_start is None and loads.moment_end is None

    @pytest.mark.parametrize("end, field, match", [
        ("middle", "u", "point constraint end must be one of start, end, got 'middle'"),
        ("end", "w", "point constraint field must be one of u, theta, theta_t, got 'w'"),
    ])
    def test_point_constraint_end_and_field(self, end, field, match):
        with pytest.raises(ValueError, match=match):
            PointConstraint(end, field, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("field", ["u", "theta", "theta_t"])
    @pytest.mark.parametrize("direction, value, match", [
        ([[0.0, 1.0, 0.0]], 0.0, "direction must be finite and of shape \\(3,\\), got shape"),
        ([1.0, 0.0], 0.0, "direction must be finite and of shape \\(3,\\), got shape"),
        ([1.0, 0.0, 0.0, 0.0], 0.0, "direction must be finite and of shape"),
        ([np.nan, 1.0, 0.0], 0.0, "direction must be finite and of shape \\(3,\\), got \\[nan"),
        ([0.0, np.inf, 0.0], 0.0, "direction must be finite"),
        ([1.0, 0.0, 0.0], [1.0, 2.0], "value \\[1.0, 2.0\\] is not finite or not a scalar"),
        ([1.0, 0.0, 0.0], np.inf, "value inf is not finite"),
    ], ids=["1x3", "2-vector", "4-vector", "nan-direction", "inf-direction", "2-value",
            "inf-value"])
    def test_point_constraint_direction_and_value(self, field, direction, value, match):
        # refused when built, as a model file's constraint is, not after a
        # solve or inside the factorization
        with pytest.raises(ValueError, match=f"^point constraint {match}"):
            PointConstraint("end", field, direction, value)

    def test_point_constraint_keeps_a_float_direction_and_a_float_value(self):
        direction = np.array([0.0, 0.6, 0.8])
        pc = PointConstraint("end", "u", direction, np.float32(0.5))
        assert pc.direction is direction
        assert type(pc.value) is float and pc.value == 0.5

    @pytest.mark.parametrize("row, value, match", [
        ("shearing", np.zeros(2), "shearing value must be a 3-vector, got shape \\(2,\\)"),
        ("bending", 0.0, "bending value must be a 3-vector"),
        ("stretching", np.zeros(3), "stretching value must be a scalar"),
        ("twisting", [0.0], "twisting value must be a scalar"),
    ])
    @pytest.mark.parametrize("kind", ["natural", "essential"])
    def test_row_values_have_the_row_shape(self, kind, row, value, match):
        rows = dict(BoundaryCondition.free().rows())
        rows[row] = BCRow(kind, value)
        with pytest.raises(ValueError, match=match):
            BoundaryCondition(**rows)


class TestEssentialBCs:
    def count_rows(self, bc_start, bc_end=None, name="timoshenko_p2p1"):
        model = BeamModel(curve=LineSegment([0, 0, 0], [1, 0, 0]), material=MAT,
                          section=circle_section(0.1), bc_start=bc_start,
                          bc_end=bc_end or BoundaryCondition.free())
        system = assemble_stiffness(model, Mesh1D.uniform(1.0, 2), formulation(name))
        return apply_essential_bcs(system).n_constraints

    def test_clamped_has_six_rows(self):
        assert self.count_rows(BoundaryCondition.clamped()) == 6

    def test_free_has_zero_rows(self):
        assert self.count_rows(BoundaryCondition.free()) == 0

    def test_no_essential_rows_is_an_empty_matrix(self):
        model = straight_model(bc_end=BoundaryCondition.free())
        model.bc_start = BoundaryCondition.free()
        system = discretize(model, formulation("timoshenko_h3p2"), 3)
        assert system.B_end.shape == (0, len(system.dofmap.boundary_dofs())) == (0, 12)
        assert system.B.shape == (0, system.dofmap.ndof) and system.g.shape == (0,)
        assert system.rows_info == []

    def test_pinned_has_three_rows(self):
        assert self.count_rows(BoundaryCondition.pinned()) == 3

    def test_clamped_euler_bernoulli_has_six_rows(self):
        assert self.count_rows(BoundaryCondition.clamped(), name="euler_bernoulli_h3") == 6

    def test_conflicting_duplicate_constraint_raises(self):
        model = straight_model()
        model.constraints = [PointConstraint("start", "u", [0.0, 1.0, 0.0], value=0.5)]
        with pytest.raises(ConstraintConflictError):
            discretize(model, formulation("timoshenko_p2p1"), 2)

    def test_consistent_duplicate_constraint_pruned(self):
        model = straight_model()
        model.constraints = [PointConstraint("start", "u", [0.0, 1.0, 0.0], value=0.0)]
        with pytest.warns(UserWarning, match="redundant"):
            system = discretize(model, formulation("timoshenko_p2p1"), 2)
        assert system.n_constraints == 6

    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_row_drop_does_not_depend_on_the_mesh(self, name):
        # a point row on u a hair (3e-12) off the first shearing row: its
        # pivot is far above round-off, so it is kept at every mesh size, and
        # the axial translation it holds so weakly stays a rigid mode
        t = np.array([1.0, 0.0, 0.0])
        w1 = orthonormal_completion(t)[0]
        bc = BoundaryCondition.clamped()
        bc.stretching = BCRow("natural", 0.0)
        model = BeamModel(curve=LineSegment([0, 0, 0], [10, 0, 0]), material=MAT,
                          section=circle_section(0.1), bc_start=bc,
                          bc_end=BoundaryCondition.free(),
                          constraints=[PointConstraint("start", "u", w1 + 3e-12 * t)])
        seen = []
        for n in (2, 64, 4096):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                system = discretize(model, formulation(name), n)
            with pytest.raises(SingularSystemError) as err:
                solve(system)
            seen.append((system.B_end.tobytes(), system.g.tobytes(),
                         [(i.end, i.label) for i in system.rows_info],
                         [str(w.message) for w in caught], err.value.n_rigid_modes))
        assert seen[0][2][-1] == ("start", "point") and len(seen[0][2]) == 6
        assert seen[0][3] == [] and seen[0][4] == 1
        assert seen[1] == seen[0] and seen[2] == seen[0]

    @pytest.mark.parametrize("path", MODEL_FILES, ids=os.path.basename)
    @pytest.mark.parametrize("policy", ["full", "reduced"])
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_rows_do_not_depend_on_the_mesh(self, name, policy, path):
        # the rows read the end frames alone: the same bits at every n. One
        # model solved at every n reads its rows from its `EndTerms` after
        # the first, so each n is also compared with a freshly loaded model,
        # which builds them anew
        def load():
            with open(path) as fh:
                return load_model(dict(json.load(fh), formulation=name, quadrature=policy))[0]

        model = load()
        kept, fresh = [], []
        for n in (1, 3, 64):
            for m, seen in ((model, kept), (load(), fresh)):
                system = discretize(m, formulation(name), n, policy)
                seen.append((system.B_end.tobytes(), system.g.tobytes(),
                             [(i.end, i.label) for i in system.rows_info]))
        assert fresh == kept and kept[1] == kept[0] and kept[2] == kept[0]

    def test_point_constraint_field_checked(self):
        model = straight_model()
        model.constraints = [PointConstraint("end", "theta_t", [1.0, 0, 0])]
        with pytest.raises(ValueError):
            discretize(model, formulation("timoshenko_p2p1"), 2)

    @pytest.mark.parametrize("name,field,direction", [
        ("timoshenko_p2p1", "u", [0.0, 0.0, 0.0]),
        ("timoshenko_h3p2", "theta", [0.0, 0.0, 0.0]),
        ("euler_bernoulli_h3", "theta_t", [0.0, 1.0, 0.0]),    # theta_t reads direction[0]
    ])
    @pytest.mark.parametrize("value", [0.0, 0.1])
    def test_point_constraint_with_an_empty_row_raises(self, name, field, direction, value):
        # a free end, so a nonzero row would be independent of the clamped start
        model = straight_model()
        model.constraints = [PointConstraint("end", field, direction, value=value)]
        with pytest.raises(ValueError, match="empty row"):
            discretize(model, formulation(name), 2)


def memo_model():
    """An arc with an essential start, a natural end value, end loads, a body
    load on the end DOFs too and a point constraint: every input of
    `EndTerms`."""
    bc_end = BoundaryCondition.free()
    bc_end.stretching = BCRow("natural", 0.3)
    bc_end.bending = BCRow("natural", np.array([0.0, 0.0, 0.2]))
    return BeamModel(curve=CircularArc([0, 0, 0], 1.5, [1, 0, 0], [0, 1, 0], 0.0, 2.0),
                     material=MAT, section=circle_section(0.2),
                     bc_start=BoundaryCondition.clamped(), bc_end=bc_end,
                     loads=LoadCase(body=[0.0, -0.1, 0.0], force_end=[0.2, 0.0, 0.1],
                                    moment_end=[0.0, 0.05, 0.0]),
                     constraints=[PointConstraint("end", "u", [0.0, 0.6, 0.8], 0.01)])


def _bc_value_in_place(m):
    m.bc_start.shearing.value[2] = 0.003        # the start tangent is e_y


def _bc_end_replaced(m):
    m.bc_end = BoundaryCondition.free()
    m.bc_end.stretching = BCRow("essential", 0.005)


def _kind_flipped(m):
    m.bc_end.twisting.kind = "essential"        # its value 0.0 stays


def _constraints_replaced(m):
    m.constraints = [PointConstraint("end", "u", [1.0, 0.0, 0.0], 0.02)]


def _constraint_appended(m):
    m.constraints.append(PointConstraint("end", "u", [0.0, 0.0, 1.0], -0.01))


def _force_in_place(m):
    m.loads.force_end[1] = 0.5


def _curve_swapped(m):
    m.curve = CircularArc([0, 0, 0], 2.0, [1, 0, 0], [0, 1, 0], 0.0, 1.5)


MEMO_CHANGES = [_bc_value_in_place, _bc_end_replaced, _kind_flipped, _constraints_replaced,
                _constraint_appended, _force_in_place, _curve_swapped]


class TestEndTermsMemo:
    """A model keeps its `EndTerms` per formulation; a solve after any change
    of an input gives what a fresh model with that change gives, bit for
    bit, and the warnings and errors come back on every call."""

    @staticmethod
    def state(model, name, n):
        system = discretize(model, formulation(name), n)
        sol = solve(system)
        return (system.B_end.tobytes(), system.g.tobytes(), system.rhs.tobytes(),
                [(i.end, i.label, i.category, np.asarray(i.reaction_dir).tobytes())
                 for i in system.rows_info], sol.x.tobytes())

    @pytest.mark.parametrize("change", MEMO_CHANGES, ids=lambda f: f.__name__.strip("_"))
    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_a_changed_input_is_never_served_stale(self, name, change):
        model = memo_model()
        self.state(model, name, 4)
        change(model)
        fresh = memo_model()
        change(fresh)
        after = self.state(model, name, 6)
        assert after == self.state(fresh, name, 6)
        assert after != self.state(memo_model(), name, 6)

    @pytest.mark.parametrize("first", sorted(FORMULATIONS))
    @pytest.mark.parametrize("second", sorted(FORMULATIONS))
    def test_each_formulation_has_its_own_entry(self, first, second):
        model = memo_model()
        self.state(model, first, 4)
        assert self.state(model, second, 5) == self.state(memo_model(), second, 5)
        assert set(model._end_terms) == {first, second}

    def test_a_read_shares_the_read_only_rows(self):
        model = memo_model()
        one, two = (discretize(model, formulation("timoshenko_p2p1"), n) for n in (2, 7))
        assert two.B_end is one.B_end and two.g is one.g
        assert two.rows_info is not one.rows_info and two.rows_info == one.rows_info
        with pytest.raises(ValueError, match="read-only"):
            two.B_end[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            two.g[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            two.rows_info[-1].reaction_dir[0] = 1.0

    def test_a_row_keeps_its_own_copy_of_a_direction(self):
        # an edit of the direction in place changes the next solve's rows,
        # not the reaction directions of a system already returned
        direction = np.array([0.0, 0.6, 0.8])
        model = straight_model()
        model.constraints = [PointConstraint("end", "u", direction)]
        system = discretize(model, formulation("timoshenko_p2p1"), 3)
        direction[1] = 0.0
        assert system.rows_info[-1].reaction_dir.tolist() == [0.0, 0.6, 0.8]
        again = discretize(model, formulation("timoshenko_p2p1"), 3)
        assert again.rows_info[-1].reaction_dir.tolist() == [0.0, 0.0, 0.8]

    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_warnings_come_on_every_call(self, name):
        # an essential value and a natural value with tangential parts, and
        # a consistent duplicate of the first shearing row
        bc_start = BoundaryCondition.clamped()
        bc_start.shearing = BCRow("essential", np.array([0.01, 0.0, 0.0]))
        bc_end = BoundaryCondition.free()
        bc_end.bending = BCRow("natural", np.array([0.3, 0.1, 0.0]))
        model = straight_model(bc_end=bc_end)
        model.bc_start = bc_start
        model.constraints = [PointConstraint("start", "u", [0.0, 1.0, 0.0])]
        seen = []
        for n in (2, 3, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                discretize(model, formulation(name), n)
            seen.append([str(w.message) for w in caught])
        assert seen[1] == seen[0] and seen[2] == seen[0]
        assert [m.split(" has")[0] for m in seen[0][:2]] == [
            "natural bending value at end", "essential shearing value at start"]
        assert seen[0][2] == "dropping 1 redundant, consistent constraint row(s)"
        assert model._end_terms[name].dropped == 1

    def test_a_conflict_raises_on_every_call(self):
        model = straight_model()
        model.constraints = [PointConstraint("start", "u", [0.0, 1.0, 0.0], value=0.5)]
        for n in (2, 3):
            with pytest.raises(ConstraintConflictError):
                discretize(model, formulation("timoshenko_p2p1"), n)
            assert model._end_terms["timoshenko_p2p1"].B_end is None
