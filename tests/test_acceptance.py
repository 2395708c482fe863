"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test runs its criterion at the pinned tolerances and prints a pass/fail
line; `cartbeam validate` exercises the same functions from the CLI. The
Frenet frame and vector distance that criterion 7 builds as its oracle are
tested at the end.
"""
import numpy as np
import pytest

from cartbeam import acceptance
from cartbeam.acceptance import _frenet, _zeta
from cartbeam.geometry import CircularArc
from curves import quarter_circle, sample_spline, unit_helix


def _run(fn):
    result = fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} ({result.runtime:.2f}s): {result.detail}")
    assert result.passed, result.detail
    return result


def test_criterion_1_straight_cantilever_order_p2p1():
    """P2-P1, t=0.1, L=10, E=1e6, nu=0.3, P=1, meshes 1..32: fitted
    pre-plateau order 2.0 +- 0.2 for the tip deflection, under 5 s."""
    result = _run(acceptance.straight_cantilever_order_p2p1)
    assert result.runtime < 5.0


def test_criterion_2_h3p2_one_element_quality():
    """A single H3-P2 element beats the P2-P1 plateau error at 32 elements,
    under 1 s."""
    result = _run(acceptance.h3p2_one_element_quality)
    assert result.runtime < 1.0


def test_criterion_3_quarter_arc_orders_reduced():
    """Reduced-integration quarter arc at t=0.1 and t=0.001: P2-P1 order
    2.0 +- 0.2 and H3-P2 order 4.0 +- 0.3 (pre-plateau), under 10 s."""
    result = _run(acceptance.quarter_arc_orders_reduced)
    assert result.runtime < 10.0


def test_criterion_4_curvature_locking():
    """Quarter arc, 8 elements, t=0.001: full-quadrature relative error at
    least 10x the reduced-quadrature error for P2-P1, H3-P2 and EB-H3."""
    _run(acceptance.curvature_locking_reduced_integration)


def test_criterion_5_straight_no_locking():
    """Straight cantilever relative tip errors at t=0.1 and t=0.001 stay
    within a factor of two at every mesh (two-sided for P2-P1; for H3-P2,
    which is exact, the thin error may only shrink)."""
    _run(acceptance.straight_beam_no_locking)


def test_criterion_6_resultant_form_equivalence():
    """Plain and curvature-separated N, S, M, T agree to 1e-10 relative at
    all sample points on solved straight, arc, and helix models."""
    _run(acceptance.resultant_form_equivalence)


def test_criterion_7_geometry_identity_suite():
    """Frenet-Serret finite-difference identity <= 1e-6; (t.grad) zeta = 0
    and (n.grad) zeta = n by finite differences <= 1e-6; helix curvature and
    torsion a/(a^2+b^2), b/(a^2+b^2) to 1e-8."""
    _run(acceptance.geometry_identity_suite)


def test_criterion_8_mechanics_property_suite():
    """Zero-energy rigid modes (1e-12 scaled), symmetric K, exact patch
    states (1e-8), reaction equilibrium (1e-8 relative), and the energy
    identity a(u_h, u_h) = l(u_h) (1e-10)."""
    _run(acceptance.mechanics_property_suite)


def test_criterion_9_timoshenko_eb_thin_limit():
    """Timoshenko-vs-EB tip gap scales like t^2 (slope 2.0 +- 0.2 across
    t in {0.1 .. 0.001}); relative gap below 1e-4 at t=0.001."""
    _run(acceptance.timoshenko_eb_thin_limit)


def test_thin_limit_gap_matches_closed_form():
    """Both elements are exact for the tip-loaded straight cantilever, so the
    measured Timoshenko-vs-EB relative tip gap equals the shear share
    (L/G|A|) / (L^3/3EI + L/G|A|) to 1 % at every thickness of criterion 9,
    down to t=0.001 where the gap is ~6.5e-9."""
    from cartbeam.benchmarks import make_straight_model
    from cartbeam.discretization import formulation
    from cartbeam.postprocess import tip_displacement
    from cartbeam.solver import solve_model

    L = 10.0
    for t in (0.1, 0.03, 0.01, 0.003, 0.001):
        model = make_straight_model(t, L=L)
        uy_t = tip_displacement(solve_model(model, formulation("timoshenko_h3p2"), 4))[1]
        uy_e = tip_displacement(solve_model(model, formulation("euler_bernoulli_h3"), 4))[1]
        gap = abs(uy_t - uy_e) / abs(uy_t)
        EI = model.material.E * model.section.inertia_iso
        GA = model.material.G * model.section.area
        closed = (L / GA) / (L**3 / (3 * EI) + L / GA)
        assert gap == pytest.approx(closed, rel=1e-2), f"t={t}"


def test_criterion_10_curvature_coupling_demos():
    """S-curve + torque moves out of plane; in-plane transverse load keeps
    theta_t <= 1e-10; straight beam under torque keeps its midline fixed."""
    _run(acceptance.curvature_coupling_demos)


def test_runtime_limits_read_a_monotonic_clock(monkeypatch):
    """A wall-clock step during a run neither fails a criterion nor sets its
    runtime: time.time jumping by 1e4 s per call leaves the 1 s limit of
    criterion 2 met."""
    import time
    clock = iter(range(0, 10**9, 10**4))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    result = _run(acceptance.h3p2_one_element_quality)
    assert result.runtime < 1.0


def test_sabotage_hook_fails_criteria():
    results = acceptance.run_acceptance(
        names=["geometry_identity_suite", "h3p2_one_element_quality"], slack=1e-12)
    assert not any(r.passed for r in results)


def test_unknown_criterion_name_rejected():
    with pytest.raises(ValueError):
        acceptance.run_acceptance(names=["not_a_criterion"])


class TestFrenetOracle:
    """Criterion 7's Frenet frame, built from `frames` alone."""

    def test_planar_arc_zero_torsion(self):
        arc = quarter_circle(2.0)
        for s in np.linspace(0.1, arc.length - 0.1, 5):
            assert abs(_frenet(arc, s)[4]) <= 1e-8

    @pytest.mark.parametrize("curve_factory", [quarter_circle, unit_helix, sample_spline])
    def test_frame_is_right_handed_orthonormal(self, curve_factory):
        curve = curve_factory()
        t, n, b, *_ = _frenet(curve, 0.4 * curve.length)
        M = np.array([t, n, b])
        assert np.allclose(M @ M.T, np.eye(3), atol=1e-10)
        assert np.allclose(np.cross(t, n), b, atol=1e-10)

    @pytest.mark.parametrize("curve_factory", [unit_helix, sample_spline])
    def test_frenet_serret_matrix_identity(self, curve_factory):
        # d/ds [t, n, b] = [[0, k, 0], [-k, 0, tau], [0, -tau, 0]] [t, n, b];
        # criterion 7 checks it on a helix only
        curve, eps = curve_factory(), 1e-4
        for frac in (0.3, 0.6):
            s = frac * curve.length
            t, n, b, k, tau = _frenet(curve, s)
            fp, fm = _frenet(curve, s + eps), _frenet(curve, s - eps)
            assert np.allclose((fp[0] - fm[0]) / (2 * eps), k * n, atol=1e-6)
            assert np.allclose((fp[1] - fm[1]) / (2 * eps), -k * t + tau * b, atol=1e-6)
            assert np.allclose((fp[2] - fm[2]) / (2 * eps), -tau * n, atol=1e-6)


class TestZetaOracle:
    """Criterion 7's vector distance, by Newton steps from a nearby arc length."""

    def test_point_on_curve_has_zero_zeta(self):
        helix = unit_helix()
        assert np.linalg.norm(_zeta(helix, helix.frame(2.0).x, 2.0)) <= 1e-10

    def test_circle_radial_projection(self):
        # started 0.3 of arc length away from the foot at (1, 0, 0)
        circle = CircularArc([0, 0, 0], 1.0, [1, 0, 0], [0, 1, 0], -np.pi / 2, np.pi / 2)
        zeta = _zeta(circle, np.array([1.5, 0.0, 0.0]), 0.5 * circle.length + 0.3)
        assert np.allclose(zeta, [0.5, 0, 0], atol=1e-10)

    def test_stationarity_inside_injectivity_tube(self):
        # random points offset into the normal plane, started 5 % of the
        # length off their source, project back onto it with
        # |zeta . t| <= 1e-12 |zeta|
        rng = np.random.default_rng(4)
        for curve in (unit_helix(), quarter_circle(2.0)):
            L = curve.length
            for _ in range(10):
                s = rng.uniform(0.1 * L, 0.9 * L)
                t, n, b, k, _tau = _frenet(curve, s)
                a, c = rng.normal(size=2)
                d = a * n + c * b
                d *= rng.uniform(0.01, 0.4) / (np.linalg.norm(d) * k)
                zeta = _zeta(curve, curve.frame(s).x + d, s + 0.05 * L * rng.choice([-1, 1]))
                assert abs(zeta @ t) <= 1e-12 * np.linalg.norm(zeta)
                assert np.allclose(zeta, d, atol=1e-12 * L)

    @pytest.mark.parametrize("curve_factory", [quarter_circle, unit_helix, sample_spline])
    def test_vector_distance_directional_derivatives(self, curve_factory):
        # on the curve: (t.grad) zeta = 0 and (n.grad) zeta = n
        curve, eps = curve_factory(), 1e-5
        for frac in (0.3, 0.5, 0.7):
            s = frac * curve.length
            t, n, *_ = _frenet(curve, s)
            x0 = curve.frame(s).x
            for d, target in ((t, np.zeros(3)), (n, n)):
                fd = (_zeta(curve, x0 + eps * d, s) - _zeta(curve, x0 - eps * d, s)) / (2 * eps)
                assert np.allclose(fd, target, atol=1e-6)
