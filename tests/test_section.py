"""Cross-section property tests, cross-checked by direct 2d quadrature of the
defining integrals over the section domain."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cartbeam.section import (
    CrossSection,
    DirectorDegeneracyError,
    Material,
    circle_section,
    inertia_factor,
    inertia_tensor,
    rect_section,
    unit_depth_rect_section,
)

unit_vectors = st.builds(
    lambda a, b: np.array([np.cos(a) * np.sin(b), np.sin(a) * np.sin(b), np.cos(b)]),
    st.floats(0, 2 * np.pi), st.floats(0.01, np.pi - 0.01),
)


class TestMaterial:
    def test_shear_modulus_from_poisson(self):
        mat = Material(E=1e6, nu=0.3)
        assert mat.G == pytest.approx(1e6 / 2.6, rel=1e-14)

    def test_explicit_shear_modulus(self):
        mat = Material(E=200.0, G=80.0)
        assert mat.G == 80.0

    def test_poisson_ratio_from_shear_modulus(self):
        # the straight-cantilever reference reads nu, so (E, G) must give it
        assert Material(E=1e6, G=4e5).nu == 0.25

    @pytest.mark.parametrize("kwargs", [{"E": -1, "nu": 0.3}, {"E": 1.0, "G": -2.0},
                                        {"E": 1.0}, {"E": 1e6, "nu": -1.0},
                                        {"E": 1e6, "nu": -1.5},
                                        {"E": 1e6, "G": 1.0, "nu": 0.3}])
    def test_invalid_inputs(self, kwargs):
        # nu = -1 would divide by zero in G = E / (2 (1 + nu)); a G that
        # disagrees with nu would split the beam, which reads G, from the
        # straight-cantilever reference, which reads nu
        with pytest.raises(ValueError):
            Material(**kwargs)

    def test_shear_modulus_and_poisson_ratio_that_agree(self):
        G = 1e6 / 2.6
        assert Material(E=1e6, G=G, nu=0.3).G == G
        assert Material(E=1e6, G=G * (1 + 5e-10), nu=0.3).nu == 0.3

    @pytest.mark.parametrize("kwargs", [{"E": np.nan, "nu": 0.3}, {"E": np.inf, "nu": 0.3},
                                        {"E": 1.0, "G": np.inf}, {"E": 1.0, "nu": np.nan},
                                        {"E": 1.0, "G": 0.4, "nu": -np.inf}])
    def test_non_finite_constants(self, kwargs):
        # E <= 0 and G <= 0 are false for NaN, so finiteness is its own check
        with pytest.raises(ValueError, match="finite"):
            Material(**kwargs)


class TestShapes:
    def test_unit_depth_rect(self):
        sec = unit_depth_rect_section(0.1)
        assert sec.area == pytest.approx(0.1, rel=1e-14)
        assert sec.inertia_iso == pytest.approx(1e-3 / 12.0, rel=1e-14)

    def test_circle(self):
        sec = circle_section(2.0)
        assert sec.area == pytest.approx(np.pi, rel=1e-14)
        assert sec.inertia_iso == pytest.approx(np.pi / 4.0, rel=1e-14)
        assert sec.polar == pytest.approx(np.pi / 2.0, rel=1e-14)

    def test_circle_polar_is_twice_inertia(self):
        for d in (0.3, 1.0, 2.7):
            sec = circle_section(d)
            assert sec.polar == pytest.approx(2.0 * sec.inertia_iso, rel=1e-12)

    def test_rect_polar_closed_form_and_quadrature(self):
        w, h = 2.0, 3.0
        sec = rect_section(w, h, [0, 1, 0])
        assert sec.polar == pytest.approx(6.5, rel=1e-14)
        # midpoint-rule oracle for the integral of zeta . zeta over the rectangle
        n = 1500
        xs = (np.arange(n) + 0.5) / n * w - w / 2
        ys = (np.arange(n) + 0.5) / n * h - h / 2
        X, Y = np.meshgrid(xs, ys)
        numeric = float(np.sum(X**2 + Y**2) * (w / n) * (h / n))
        assert numeric == pytest.approx(sec.polar, rel=1e-6)

    def test_invalid_dimensions(self):
        for bad in (lambda: rect_section(-1, 2, [0, 1, 0]),
                    lambda: circle_section(0.0),
                    lambda: unit_depth_rect_section(-0.1),
                    lambda: unit_depth_rect_section(0.0)):
            with pytest.raises(ValueError):
                bad()


class TestInertiaTensor:
    def test_isotropic_diag(self):
        sec = CrossSection(area=1.0, polar=4.0, inertia_iso=2.0)
        I = inertia_tensor(sec, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(I, np.diag([2.0, 2.0, 0.0]), atol=1e-14)

    @given(unit_vectors)
    def test_isotropic_annihilates_tangent(self, t):
        sec = CrossSection(area=1.0, polar=4.0, inertia_iso=2.0)
        assert np.allclose(inertia_tensor(sec, t) @ t, 0.0, atol=1e-13)

    @given(unit_vectors)
    def test_isotropic_trace_equals_polar(self, t):
        sec = circle_section(1.3)
        assert np.trace(inertia_tensor(sec, t)) == pytest.approx(sec.polar, rel=1e-12)

    def test_oriented_rect_vs_quadrature(self):
        # oracle: Gauss product quadrature of (zeta x t) (x) (zeta x t) over the
        # rectangle, with the h-side along the projected director
        w, h = 1.0, 2.0
        t = np.array([1.0, 0.0, 0.0])
        d_ref = np.array([0.0, 1.0, 0.0])
        sec = rect_section(w, h, d_ref)
        I = inertia_tensor(sec, t)

        n1 = d_ref
        n2 = np.cross(t, n1)
        gx, gw = np.polynomial.legendre.leggauss(8)
        numeric = np.zeros((3, 3))
        for xi_h, wi in zip(gx, gw):
            for xi_w, wj in zip(gx, gw):
                zeta = (h / 2) * xi_h * n1 + (w / 2) * xi_w * n2
                zxt = np.cross(zeta, t)
                numeric += wi * wj * np.outer(zxt, zxt) * (w / 2) * (h / 2)
        assert np.allclose(I, numeric, atol=1e-8 * max(1.0, abs(numeric).max()))

    def test_oriented_centroid_integral_vanishes(self):
        w, h = 1.0, 2.0
        gx, gw = np.polynomial.legendre.leggauss(6)
        total = np.zeros(2)
        for xi_h, wi in zip(gx, gw):
            for xi_w, wj in zip(gx, gw):
                total += wi * wj * np.array([(h / 2) * xi_h, (w / 2) * xi_w]) * (w * h / 4)
        assert np.allclose(total, 0.0, atol=1e-14)

    @given(unit_vectors)
    def test_psd_with_tangent_null_space(self, t):
        sec = rect_section(1.0, 2.0, [0.0, 0.3, 1.0])
        if abs(sec.director @ t) > 1.0 - 1e-3:
            return
        I = inertia_tensor(sec, t)
        vals = np.linalg.eigvalsh(I)
        assert vals[0] >= -1e-12
        assert np.allclose(I @ t, 0.0, atol=1e-12)
        assert np.sum(vals > 1e-12) == 2

    def test_director_parallel_to_tangent(self):
        sec = rect_section(1.0, 2.0, [1.0, 0.0, 0.0])
        with pytest.raises(DirectorDegeneracyError):
            inertia_tensor(sec, np.array([1.0, 0.0, 0.0]))

    @given(unit_vectors)
    def test_factor_reproduces_tensor(self, t):
        for sec in (circle_section(0.7), rect_section(1.0, 2.0, [0.0, 0.3, 1.0])):
            if sec.director is not None and abs(sec.director @ t) > 1.0 - 1e-3:
                continue
            C = inertia_factor(sec, t)
            assert np.allclose(C.T @ C, inertia_tensor(sec, t), atol=1e-12)
