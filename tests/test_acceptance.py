"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test runs its criterion at the pinned tolerances and prints a pass/fail
line; `cartbeam validate` exercises the same functions from the CLI.
"""
import pytest

from cartbeam import acceptance


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
    least 10x the reduced-quadrature error for both formulations."""
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
