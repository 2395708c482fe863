"""Shape functions, quadrature rules, meshes, formulations, and DOF maps."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cartbeam.discretization import (
    FORMULATIONS,
    DofMap,
    FormulationError,
    Formulation,
    Mesh1D,
    UnsupportedOrderError,
    formulation,
    gauss_rule,
    shape_eval,
)


class TestShapeFunctions:
    def test_p2_cardinality(self):
        h = 0.7
        for i, xi in enumerate((0.0, 0.5, 1.0)):
            vals = shape_eval("P2", h, xi, nderiv=0)[0]
            expected = np.zeros(3)
            expected[i] = 1.0
            assert np.allclose(vals, expected, atol=1e-14)

    @given(st.sampled_from(["P1", "P2", "H3"]), st.floats(0.0, 1.0),
           st.floats(0.1, 5.0))
    def test_partition_of_unity(self, kind, xi, h):
        sh = shape_eval(kind, h, xi, nderiv=1)
        if kind == "H3":
            # value functions sum to 1, slope functions are scaled by h
            assert sh[0][0] + sh[0][2] == pytest.approx(1.0, abs=1e-12)
            assert sh[1][0] + sh[1][2] == pytest.approx(0.0, abs=1e-12 / h)
        else:
            assert np.sum(sh[0]) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(sh[1]) == pytest.approx(0.0, abs=1e-11 / h)

    def test_h3_reproduces_cubic_exactly(self):
        # interpolating u(s) = s^3 on [0, h] must be exact to machine precision
        h = 0.7
        coeffs = np.array([0.0, 0.0, h**3, 3 * h**2])  # (u_L, u'_L, u_R, u'_R)
        for xi in np.linspace(0.0, 1.0, 11):
            s = xi * h
            sh = shape_eval("H3", h, xi, nderiv=2)
            assert sh[0] @ coeffs == pytest.approx(s**3, abs=1e-10 * h**3)
            assert sh[1] @ coeffs == pytest.approx(3 * s**2, abs=1e-9 * h**2)
            assert sh[2] @ coeffs == pytest.approx(6 * s, abs=1e-9 * h)

    def test_h3_cardinality_at_ends(self):
        h = 1.3
        v0 = shape_eval("H3", h, 0.0, nderiv=1)
        v1 = shape_eval("H3", h, 1.0, nderiv=1)
        assert np.allclose(v0[0], [1, 0, 0, 0], atol=1e-14)
        assert np.allclose(v0[1], [0, 1, 0, 0], atol=1e-14)
        assert np.allclose(v1[0], [0, 0, 1, 0], atol=1e-14)
        assert np.allclose(v1[1], [0, 0, 0, 1], atol=1e-14)

    def test_second_derivative_unsupported_for_lagrange(self):
        for kind in ("P1", "P2"):
            with pytest.raises(UnsupportedOrderError):
                shape_eval(kind, 1.0, 0.5, nderiv=2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            shape_eval("P7", 1.0, 0.5)

    @pytest.mark.parametrize("kind,nderiv", [("P1", 1), ("P2", 1), ("H3", 2), ("H3", 0)])
    def test_batch_rows_equal_scalar_calls(self, kind, nderiv):
        h = np.array([[0.3], [1.0], [2.5]])
        xi = np.array([0.0, 0.21, 0.5, 0.9, 1.0])
        batch = shape_eval(kind, h, xi, nderiv=nderiv)
        assert batch.shape == (3, 5) + shape_eval(kind, 1.0, 0.5, nderiv=nderiv).shape
        for i in range(3):
            for j in range(5):
                scalar = shape_eval(kind, float(h[i, 0]), float(xi[j]), nderiv=nderiv)
                assert np.array_equal(batch[i, j], scalar)


class TestQuadrature:
    def test_two_point_integrates_cubic(self):
        rule = gauss_rule(2)
        val = float(np.sum(rule.weights * rule.points**3))
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_three_point_integrates_quintic(self):
        rule = gauss_rule(3)
        val = float(np.sum(rule.weights * rule.points**5))
        assert val == pytest.approx(1.0 / 6.0, abs=1e-15)

    @given(st.integers(1, 8), st.floats(0.1, 4.0), st.floats(0.0, 10.0))
    def test_weights_positive_and_sum_to_element_length(self, n, h, s0):
        rule = gauss_rule(n)
        pts, w = rule.on_element(s0, h)
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(h, rel=1e-12)
        assert np.all((pts >= s0) & (pts <= s0 + h))

    def test_rules_are_computed_once_and_read_only(self):
        # every solve asks for its rules: the memo hands out one shared rule,
        # so a caller must not be able to write into its arrays
        assert gauss_rule(3) is gauss_rule(3)
        rule = gauss_rule(4)
        for arr in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        x, w = np.polynomial.legendre.leggauss(4)
        assert np.array_equal(rule.points, 0.5 * (x + 1.0))
        assert np.array_equal(rule.weights, 0.5 * w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shape_tables_are_the_uncached_formula(self, n):
        # rule.shapes scales a table kept per (kind, nderiv) by the powers of
        # h; at the rule's points it gives the bits of shape_eval, which
        # evaluates the polynomials afresh, for a batch of element lengths
        rule = gauss_rule(n)
        h = np.array([[0.3], [1.0], [2.7e-3]])
        for kind, top in (("P1", 1), ("P2", 1), ("H3", 2)):
            for nderiv in range(top + 1):
                for _ in range(2):      # the first call fills the table, the second reads it
                    got = rule.shapes(kind, h, nderiv)
                    assert np.array_equal(got, shape_eval(kind, h, rule.points, nderiv))
                    assert got.shape == (3, n, nderiv + 1, len(shape_eval(kind, 1.0, 0.5, 0)[0]))
                with pytest.raises(ValueError, match="read-only"):
                    rule._tables[kind, nderiv][..., 0] = 1.0
        with pytest.raises(UnsupportedOrderError):
            rule.shapes("P2", h, 2)


class TestMesh:
    def test_uniform_covers_interval(self):
        mesh = Mesh1D.uniform(5.0, 4)
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 5.0
        assert mesh.n_elements == 4

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            Mesh1D(np.array([0.0, 1.0, 0.5]))

    def test_locate(self):
        mesh = Mesh1D.uniform(4.0, 4)
        e, xi = mesh.locate(np.array([0.0, 0.3, 1.0, 2.5, 4.0]))
        assert e.tolist() == [0, 0, 1, 2, 3]
        assert xi == pytest.approx([0.0, 0.3, 0.0, 0.5, 1.0])

    def test_locate_puts_node_samples_on_one_side(self):
        # an s a round-off short of a node is in the element that starts at
        # the node, as the node itself is
        mesh = Mesh1D.uniform(3.0, 4)
        node = mesh.nodes[2]
        s = np.array([node, np.nextafter(node, 0.0), node - 2 * np.spacing(node), node - 1e-9])
        assert mesh.locate(s)[0].tolist() == [2, 2, 2, 1]

    @pytest.mark.parametrize("s", [np.nan, -np.inf, -1e-6, 4.0 + 1e-6, 6.0])
    def test_locate_refuses_arc_lengths_off_the_mesh(self, s):
        mesh = Mesh1D.uniform(4.0, 4)
        with pytest.raises(ValueError, match=f"arc length {s}"):
            mesh.locate(np.array([0.0, s, 4.0]))
        # within the 1e-9 max(L, 1) slack an end sample is still located
        assert mesh.locate(np.array([-1e-12, 4.0 + 1e-12]))[0].tolist() == [0, 3]


class TestFormulations:
    def test_registry(self):
        assert formulation("timoshenko_p2p1").midline == "P2"
        assert formulation("timoshenko_h3p2").angle == "P2"
        assert formulation("euler_bernoulli_h3").euler_bernoulli
        with pytest.raises(ValueError):
            formulation("timoshenko_p9")

    def test_euler_bernoulli_requires_h3(self):
        with pytest.raises(FormulationError):
            Formulation("bogus", "P2", "P2", 1, True, 3)


class TestDofMap:
    def test_dof_counts(self):
        mesh = Mesh1D.uniform(1.0, 5)
        n = 5
        assert DofMap(mesh, formulation("timoshenko_p2p1")).ndof == 9 * n + 6
        assert DofMap(mesh, formulation("timoshenko_h3p2")).ndof == 12 * n + 9
        assert DofMap(mesh, formulation("euler_bernoulli_h3")).ndof == 8 * n + 7

    def test_shared_nodes_share_indices(self):
        dm = DofMap(Mesh1D.uniform(1.0, 3), formulation("timoshenko_p2p1"))
        for e in range(2):
            right_of_e = dm.fields["u"].elem_dofs[e][-3:]
            left_of_next = dm.fields["u"].elem_dofs[e + 1][:3]
            assert np.array_equal(right_of_e, left_of_next)

    def test_every_dof_appears_in_some_element(self):
        for name in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
            dm = DofMap(Mesh1D.uniform(2.0, 4), formulation(name))
            seen = set()
            for info in dm.fields.values():
                for e in range(4):
                    seen.update(info.elem_dofs[e].tolist())
            assert seen == set(range(dm.ndof))

    def test_element_dofs_follow_the_node_blocks(self):
        # element by element: P1 and H3 take nodes e, e + 1 (an H3 element
        # as value_left, slope_left, value_right, slope_right), P2 takes
        # nodes 2e, 2e + 1, 2e + 2
        for name in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
            dm = DofMap(Mesh1D.uniform(2.0, 5), formulation(name))
            for info in dm.fields.values():
                nd, nc = info.node_dofs, info.ncomp
                for e in range(5):
                    if info.kind == "P1":
                        blocks = [nd[e], nd[e + 1]]
                    elif info.kind == "P2":
                        blocks = [nd[2 * e], nd[2 * e + 1], nd[2 * e + 2]]
                    else:
                        blocks = [nd[e, :nc], nd[e, nc:], nd[e + 1, :nc], nd[e + 1, nc:]]
                    assert np.array_equal(info.elem_dofs[e], np.concatenate(blocks))

    @pytest.mark.parametrize("name", sorted(FORMULATIONS))
    def test_end_dofs_are_the_end_values(self, name):
        # every basis is nodal at the beam ends: the end element's shape rows
        # for u, u' (Euler-Bernoulli) and the angle pick exactly end_dofs, with
        # coefficient 1.0 and exact zeros elsewhere, on a nonuniform mesh
        form = formulation(name)
        dm = DofMap(Mesh1D([0.0, 0.3, 1.1, 1.25, 2.0]), form)
        u, a = dm.fields["u"], dm.fields[form.angle_field]
        parts = [(u, 0), (u, 1), (a, 0)] if form.euler_bernoulli else [(u, 0), (a, 0)]
        for end, e, xi in (("start", 0, 0.0), ("end", -1, 1.0)):
            h = np.diff(dm.mesh.nodes)[e]
            picked = [info.elem_dofs[e][np.outer(shape_eval(info.kind, h, xi, d)[d], row).ravel() == 1.0]
                      for info, d in parts for row in np.eye(info.ncomp)]
            for info, d in parts:
                rows = np.outer(shape_eval(info.kind, h, xi, d)[d], np.ones(info.ncomp)).ravel()
                assert set(rows) <= {0.0, 1.0}
            assert np.array_equal(np.concatenate(picked), dm.end_dofs(end))
        with pytest.raises(ValueError, match="unknown end"):
            dm.end_dofs("middle")


class TestInterpolationOrders:
    @pytest.mark.parametrize("kind,expected", [("P1", 2.0), ("P2", 3.0), ("H3", 4.0)])
    def test_l2_error_decay(self, kind, expected):
        # L2 interpolation error of a smooth function decays at order p+1
        f = lambda s: np.sin(1.3 * s + 0.4)
        df = lambda s: 1.3 * np.cos(1.3 * s + 0.4)
        L = 3.0
        gx, gw = np.polynomial.legendre.leggauss(6)
        errors = []
        meshes = [4, 8, 16, 32]
        for n in meshes:
            mesh = Mesh1D.uniform(L, n)
            total = 0.0
            for e in range(n):
                s0, h = mesh.nodes[e], mesh.nodes[e + 1] - mesh.nodes[e]
                if kind == "P1":
                    nodes = [s0, s0 + h]
                    coeff = np.array([f(s) for s in nodes])
                elif kind == "P2":
                    nodes = [s0, s0 + h / 2, s0 + h]
                    coeff = np.array([f(s) for s in nodes])
                else:
                    coeff = np.array([f(s0), df(s0), f(s0 + h), df(s0 + h)])
                for x, w in zip(gx, gw):
                    xi = 0.5 * (x + 1.0)
                    sh = shape_eval(kind, h, xi, nderiv=0)[0]
                    err = sh @ coeff - f(s0 + xi * h)
                    total += 0.5 * w * h * err**2
            errors.append(np.sqrt(total))
        slope = np.polyfit(np.log(meshes), np.log(errors), 1)[0]
        assert -slope == pytest.approx(expected, abs=0.2)

    def test_h3_reproduces_global_cubic(self):
        f = lambda s: s**3 - 2 * s**2 + 0.5 * s
        df = lambda s: 3 * s**2 - 4 * s + 0.5
        L = 3.0
        mesh = Mesh1D.uniform(L, 3)
        worst = 0.0
        for e in range(3):
            s0, h = mesh.nodes[e], mesh.nodes[e + 1] - mesh.nodes[e]
            coeff = np.array([f(s0), df(s0), f(s0 + h), df(s0 + h)])
            for xi in np.linspace(0, 1, 9):
                sh = shape_eval("H3", h, xi, nderiv=0)[0]
                worst = max(worst, abs(sh @ coeff - f(s0 + xi * h)))
        assert worst <= 1e-10 * L**3
