"""Built-in acceptance suite: one named criterion per shipped guarantee.

Each criterion re-runs its experiment from scratch at fixed tolerances and
returns a pass/fail record; `cartbeam validate` prints them as a table and
the pytest suite asserts each one. The `slack` knob exists only as a test
hook for corrupting tolerances (slack < 1 tightens every bound).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .assembly import _SOFT_TERMS, _STIFF_TERMS, BeamModel, BoundaryCondition, LoadCase, \
    _element_factors
from .benchmarks import (
    DEFAULT_MATERIAL,
    StudySpec,
    analytic_straight_tip,
    demo_configs,
    make_quarter_arc_model,
    make_straight_model,
    pre_plateau_orders,
    run_convergence,
    solve_demo,
)
from .discretization import FORMULATIONS, formulation
from .geometry import CircularArc, Helix, LineSegment, orthonormal_completion
from .postprocess import (
    applied_load_totals,
    displacement_samples,
    reaction_force_totals,
    reactions,
    resultants,
    resultants_curvature_form,
    sample_points,
    tip_displacement,
)
from .section import Material, circle_section, rect_section, unit_depth_rect_section
from .solver import _apply_stiffness, rigid_modes, solve_model


@dataclass(eq=False)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    runtime: float


def _result(name, start, checks, runtime_limit=None):
    elapsed = time.perf_counter() - start
    failures = [msg for ok, msg in checks if not ok]
    if runtime_limit is not None and elapsed > runtime_limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {runtime_limit}s")
    detail = "; ".join(failures) if failures else "; ".join(msg for _, msg in checks[:3])
    return CriterionResult(name=name, passed=not failures, detail=detail, runtime=elapsed)


def _cell_order_checks(cell, expected, tol):
    """Two-sided median check when at least two pre-plateau pairs exist;
    plateau-starved cells must show at least the expected rate on the pairs
    they have (the reference is an analytic approximation, so fine meshes sit
    on its error floor and cannot witness the rate)."""
    pre = pre_plateau_orders(cell.pair_orders, cell.plateau_pair)
    label = f"{cell.formulation} t={cell.t}"
    if len(pre) >= 2:
        med = float(np.median(pre))
        return (abs(med - expected) <= tol,
                f"{label}: order {med:.2f} (target {expected}+-{tol:.2g})")
    if len(pre) == 1 and cell.plateau_pair is not None:
        return (pre[0] >= expected - tol,
                f"{label}: plateau-limited, single pre-plateau pair order {pre[0]:.2f} "
                f">= {expected - tol:.2f}")
    return (False, f"{label}: no usable pre-plateau refinement pairs")


def straight_cantilever_order_p2p1(slack: float = 1.0) -> CriterionResult:
    """P2-P1 straight cantilever converges at order 2 against the analytic tip
    deflection (t=0.1, L=10, E=1e6, nu=0.3, P=1, meshes 1..32)."""
    start = time.perf_counter()
    study = StudySpec("straight", ["timoshenko_p2p1"], ["full"],
                      [1, 2, 4, 8, 16, 32], [0.1])
    cell = run_convergence(study).cell("timoshenko_p2p1", "full", 0.1)
    checks = [_cell_order_checks(cell, 2.0, 0.2 * slack)]
    checks.append((not cell.failures, f"failures: {cell.failures}" if cell.failures else "all meshes solved"))
    return _result("straight_cantilever_order_p2p1", start, checks, runtime_limit=5.0)


def h3p2_one_element_quality(slack: float = 1.0) -> CriterionResult:
    """One H3-P2 element already reaches the analytic-approximation floor:
    its tip error is no larger than the P2-P1 error at 32 elements."""
    start = time.perf_counter()
    ref = analytic_straight_tip(1.0, 1e6, 0.3, 0.1, 10.0)
    model = make_straight_model(0.1)
    e_h3 = abs(tip_displacement(solve_model(model, formulation("timoshenko_h3p2"), 1))[1] - ref)
    e_p2 = abs(tip_displacement(solve_model(model, formulation("timoshenko_p2p1"), 32))[1] - ref)
    checks = [(e_h3 <= e_p2 * slack,
               f"H3-P2 1-element error {e_h3:.3e} vs P2-P1 32-element error {e_p2:.3e}")]
    return _result("h3p2_one_element_quality", start, checks, runtime_limit=1.0)


def quarter_arc_orders_reduced(slack: float = 1.0) -> CriterionResult:
    """Reduced-integration quarter arc: P2-P1 converges at order 2, H3-P2 at
    order 4, for both t=0.1 (a=0.95, b=1.05) and t=0.001."""
    start = time.perf_counter()
    study = StudySpec("quarter_arc", ["timoshenko_p2p1", "timoshenko_h3p2"],
                      ["reduced"], [1, 2, 4, 8, 16, 32], [0.1, 0.001])
    report = run_convergence(study)
    checks = []
    for name, expected, tol in (("timoshenko_p2p1", 2.0, 0.2), ("timoshenko_h3p2", 4.0, 0.3)):
        for t in (0.1, 0.001):
            checks.append(_cell_order_checks(report.cell(name, "reduced", t),
                                             expected, tol * slack))
    return _result("quarter_arc_orders_reduced", start, checks, runtime_limit=10.0)


def curvature_locking_reduced_integration(slack: float = 1.0) -> CriterionResult:
    """Quarter arc, 8 elements, t=0.001: full quadrature locks, with at least
    10x the relative error of reduced quadrature for every formulation."""
    start = time.perf_counter()
    names = ["timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"]
    report = run_convergence(StudySpec("quarter_arc", names, ["full", "reduced"], [8], [0.001]))
    checks = []
    for name in names:
        ratio = report.full_over_reduced(name, 0.001, 8)
        checks.append((ratio >= 10.0 / slack, f"{name}: full/reduced error ratio {ratio:.1f}"))
    return _result("curvature_locking_reduced_integration", start, checks)


def straight_beam_no_locking(slack: float = 1.0) -> CriterionResult:
    """Straight cantilever shows no locking as t -> 0: the t=0.001 relative
    tip error never exceeds twice the t=0.1 error at any mesh, and for P2-P1
    (whose error is discretization-dominated) the two agree within a factor
    of 2 both ways. H3-P2 represents the model solution exactly, so its
    error IS the analytic-approximation gap, which shrinks like t^2."""
    start = time.perf_counter()
    study = StudySpec("straight", ["timoshenko_p2p1", "timoshenko_h3p2"], ["full"],
                      [1, 2, 4, 8, 16, 32], [0.1, 0.001])
    report = run_convergence(study)
    checks = []
    for name in ("timoshenko_p2p1", "timoshenko_h3p2"):
        for n in study.elements:
            big = report.rel_error(name, "full", 0.1, n)
            small = report.rel_error(name, "full", 0.001, n)
            checks.append((small <= 2.0 * big / slack,
                           f"{name} n={n}: rel err {small:.2e} (t=1e-3) vs {big:.2e} (t=0.1)"))
            if name == "timoshenko_p2p1":
                checks.append((big <= 2.0 * small / slack,
                               f"{name} n={n}: errors agree within factor 2"))
    return _result("straight_beam_no_locking", start, checks)


def _helix_mixed_model():
    helix = Helix([0.0, 0.0, 0.0], 1.0, 0.15, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  0.0, 4.0 * np.pi)
    return BeamModel(curve=helix, material=DEFAULT_MATERIAL, section=circle_section(0.1),
                     bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
                     loads=LoadCase(force_end=[0.2, 0.0, -0.5], moment_end=[0.1, 0.05, 0.0]))


def resultant_form_equivalence(slack: float = 1.0) -> CriterionResult:
    """Plain and curvature-separated N, S, M, T agree to 1e-10 relative at all
    quadrature points on solved straight, arc, and helix models."""
    start = time.perf_counter()
    cases = [
        (make_straight_model(0.1), "timoshenko_h3p2"),
        (make_quarter_arc_model(0.1), "timoshenko_p2p1"),
        (_helix_mixed_model(), "timoshenko_h3p2"),
        (_helix_mixed_model(), "euler_bernoulli_h3"),
    ]
    checks = []
    for model, form_name in cases:
        sol = solve_model(model, formulation(form_name), 12, "reduced")
        s = sample_points(sol)
        plain = resultants(sol, s)
        sep = resultants_curvature_form(sol, s)
        global_scale = max(np.abs(getattr(plain, q)).max() for q in "NSMT")
        worst = 0.0
        for q in "NSMT":
            a, b = getattr(plain, q), getattr(sep, q)
            scale = max(np.abs(a).max(), 1e-6 * global_scale)
            worst = max(worst, float(np.abs(a - b).max() / scale))
        checks.append((worst <= 1e-10 * slack,
                       f"{model.curve.kind}/{form_name}: worst mismatch {worst:.2e}"))
    return _result("resultant_form_equivalence", start, checks)


def _frenet(curve, s, eps=1e-4):
    """Frenet frame (t, n, b), |kappa| and torsion at arc length s, from
    `frames` alone: n = kappa/|kappa|, b = t x n, and
    tau = (t x kappa) . kappa' / |kappa|^2 with kappa' one central difference."""
    fr = curve.frames(np.array([s - eps, s, s + eps]))
    t, kappa = fr.t[1], fr.kappa[1]
    k = float(np.linalg.norm(kappa))
    n = kappa / k
    tau = float(np.cross(t, kappa) @ (fr.kappa[2] - fr.kappa[0])) / (2 * eps * k * k)
    return t, n, np.cross(t, n), k, tau


def _zeta(curve, x, s):
    """Vector distance x - r(xi) to the foot of x on the curve, by Newton
    steps on (x - r) . r' = 0 from xi(s); x must lie close to r(xi(s))."""
    xi = curve.arclength().xi_of_s(s)
    for _ in range(20):
        d, r1 = x - curve.point(xi), curve.d1(xi)
        step = float(d @ r1) / float(d @ curve.d2(xi) - r1 @ r1)
        xi -= step
        if abs(step) <= 1e-15 * max(abs(xi), 1.0):
            break
    return x - curve.point(xi)


def _fd_zeta_identities(curve, s_values, eps=1e-5):
    worst = [0.0, 0.0]
    for s in s_values:
        t, n, *_ = _frenet(curve, s)
        x0 = curve.frame(s).x
        for k, (d, target) in enumerate(((t, np.zeros(3)), (n, n))):
            fd = (_zeta(curve, x0 + eps * d, s) - _zeta(curve, x0 - eps * d, s)) / (2 * eps)
            worst[k] = max(worst[k], float(np.linalg.norm(fd - target)))
    return worst


def geometry_identity_suite(slack: float = 1.0) -> CriterionResult:
    """Moving-frame and vector-distance identities: finite-difference
    Frenet-Serret check <= 1e-6, (t.grad) zeta = 0 and (n.grad) zeta = n by
    finite differences <= 1e-6, helix kappa = a/(a^2+b^2) and
    tau = b/(a^2+b^2) to 1e-8. The Frenet frame and the projection behind
    zeta are private oracles built on `frames`, the one geometry query the
    solver makes; the library defines neither."""
    start = time.perf_counter()
    checks = []
    helix = Helix([0.0, 0.0, 0.0], 1.0, 1.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  0.0, 2.0 * np.pi)
    *_, kappa, tau = _frenet(helix, 0.37 * helix.length)
    checks.append((abs(kappa - 0.5) <= 1e-8 * slack, f"helix kappa {kappa:.12f}"))
    checks.append((abs(tau - 0.5) <= 1e-8 * slack, f"helix tau {tau:.12f}"))

    eps = 1e-4
    worst_fs = 0.0
    for s in np.linspace(0.15, 0.85, 5) * helix.length:
        (t0, n0, b0, k0, tau0), fp, fm = (_frenet(helix, s), _frenet(helix, s + eps),
                                          _frenet(helix, s - eps))
        for v_p, v_m, target in zip(fp[:3], fm[:3],
                                    (k0 * n0, -k0 * t0 + tau0 * b0, -tau0 * n0)):
            worst_fs = max(worst_fs, float(np.linalg.norm((v_p - v_m) / (2 * eps) - target)))
    checks.append((worst_fs <= 1e-6 * slack, f"Frenet-Serret FD error {worst_fs:.2e}"))

    arc = CircularArc([0.0, 0.0, 0.0], 2.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.1, 1.4)
    for curve in (arc, helix):
        wt, wn = _fd_zeta_identities(curve, np.linspace(0.25, 0.75, 3) * curve.length)
        checks.append((wt <= 1e-6 * slack, f"{curve.kind}: (t.grad)zeta FD error {wt:.2e}"))
        checks.append((wn <= 1e-6 * slack, f"{curve.kind}: (n.grad)zeta FD error {wn:.2e}"))
    return _result("geometry_identity_suite", start, checks)


def _point_factors(form, section, fr, u_derivs, angle_derivs):
    """Each term's G factor at frame fr, with identity shape rows (row k is
    the k-th s-derivative), paired with the field values x on its columns:
    G @ x is the term's strain for the field derivatives [u, u', (u'')] and
    [theta, theta'] or [theta_t, theta_t']."""
    u, a = np.ravel(u_derivs), np.ravel(angle_derivs)
    x, N = np.concatenate([u, a]), orthonormal_completion(fr.t)
    factors = [_element_factors(tm, form, fr.t, fr.kappa, N, DEFAULT_MATERIAL, section,
                                np.eye(len(u_derivs)), np.eye(len(angle_derivs)), u.size, a.size)
               for tm in _STIFF_TERMS + _SOFT_TERMS if not (tm == "shear" and form.euler_bernoulli)]
    return [(G, x[c:]) for G, _, c in factors]


def _dense_stiffness(system) -> np.ndarray:
    """K of a small system (ndof <= 150 here) as a dense array, column by
    column from its element matrices: K I."""
    return _apply_stiffness(system, system.element_stiffness(), np.eye(system.dofmap.ndof))


def mechanics_property_suite(slack: float = 1.0) -> CriterionResult:
    """Rigid modes carry no strain, K is symmetric, the axial / torsion /
    constant-shear / pure-bending patch states are reproduced exactly,
    reactions balance applied loads, and the solved energy identity
    a(u_h, u_h) = l(u_h) holds."""
    from .assembly import assemble_stiffness, discretize
    from .discretization import Mesh1D

    start = time.perf_counter()
    checks = []
    E, nu = 1e6, 0.3
    mat = Material(E=E, nu=nu)

    # rigid-body modes: discrete null vectors on a straight free-free model
    free_model = BeamModel(curve=LineSegment([0, 0, 0], [7.0, 0, 0]), material=mat,
                           section=circle_section(0.3),
                           bc_start=BoundaryCondition.free(), bc_end=BoundaryCondition.free())
    for fname in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
        form = formulation(fname)
        sys_free = assemble_stiffness(free_model, Mesh1D.uniform(7.0, 4), form)
        Z, K = rigid_modes(sys_free), _dense_stiffness(sys_free)
        knorm = float(np.abs(K).sum(axis=1).max())
        worst = max(float(Z[:, a] @ (K @ Z[:, a]))
                    / (knorm * float(Z[:, a] @ Z[:, a])) for a in range(6))
        checks.append((worst <= 1e-12 * slack, f"{fname}: rigid-mode energy ratio {worst:.1e}"))

    # rigid-body modes pointwise on curved geometry, through the G factors the
    # solver assembles: u' = omega x t, u'' = omega x kappa, theta = omega
    # (theta_t = t . omega)
    rng = np.random.default_rng(7)
    helix = _helix_mixed_model().curve
    sections = (circle_section(0.1), rect_section(0.1, 0.05, [0.0, 0.0, 1.0]))
    worst = 0.0
    for _ in range(8):
        fr = helix.frame(rng.uniform(0, helix.length))
        omega = rng.normal(size=3)
        du, z = np.cross(omega, fr.t), np.zeros(3)
        for form, sec in ((formulation(f), sec) for f in FORMULATIONS for sec in sections):
            fields = (([z, du, np.cross(omega, fr.kappa)], [fr.t @ omega, fr.kappa @ omega])
                      if form.euler_bernoulli else ([z, du], [omega, z]))
            worst = max([worst] + [np.linalg.norm(G @ x) / np.linalg.norm(omega)
                                   for G, x in _point_factors(form, sec, fr, *fields)])
    checks.append((worst <= 1e-12 * slack, f"curved rigid measures {worst:.1e}"))

    # stiffness symmetry on a curved model
    K = _dense_stiffness(discretize(_helix_mixed_model(), formulation("timoshenko_h3p2"), 8,
                                    "reduced"))
    dev = np.abs(K - K.T).max() / np.abs(K).max()
    checks.append((dev <= 1e-12 * slack, f"K asymmetry {dev:.1e}"))

    # patch tests
    L, t = 10.0, 0.1
    sec = unit_depth_rect_section(t)
    A, I, J = sec.area, sec.inertia_iso, sec.polar
    G = mat.G

    def patch(model, fname, n, getter, expected, label):
        sol = solve_model(model, formulation(fname), n)
        got = getter(sol)
        err = abs(got - expected) / max(abs(expected), 1e-30)
        checks.append((err <= 1e-8 * slack, f"{label} [{fname}]: rel err {err:.1e}"))

    axial = BeamModel(curve=LineSegment([0, 0, 0], [L, 0, 0]), material=mat, section=sec,
                      bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
                      loads=LoadCase(force_end=[2.5, 0.0, 0.0]))
    torsion = BeamModel(curve=LineSegment([0, 0, 0], [L, 0, 0]), material=mat, section=sec,
                        bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
                        loads=LoadCase(moment_end=[0.3, 0.0, 0.0]))
    shear_m = make_straight_model(t, L=L, P=1.0, material=mat)
    bend_m = BeamModel(curve=LineSegment([0, 0, 0], [L, 0, 0]), material=mat, section=sec,
                       bc_start=BoundaryCondition.clamped(), bc_end=BoundaryCondition.free(),
                       loads=LoadCase(moment_end=[0.0, 0.0, 0.4]))

    def twist_at_tip(sol):
        st = sol.evaluate(L)
        return st.theta_t if sol.form.euler_bernoulli else float(st.theta[0])

    for fname in ("timoshenko_p2p1", "timoshenko_h3p2", "euler_bernoulli_h3"):
        patch(axial, fname, 3, lambda s: float(tip_displacement(s)[0]),
              2.5 * L / (E * A), "axial patch")
        patch(torsion, fname, 3, twist_at_tip, 0.3 * L / (G * J), "torsion patch")
    for fname in ("timoshenko_h3p2", "euler_bernoulli_h3"):
        shear_part = 0.0 if fname == "euler_bernoulli_h3" else 1.0 * L / (G * A)
        patch(shear_m, fname, 3, lambda s: float(tip_displacement(s)[1]),
              -(1.0 * L**3 / (3 * E * I) + shear_part), "constant-shear patch")
    patch(bend_m, "timoshenko_p2p1", 3, lambda s: float(tip_displacement(s)[1]),
          0.4 * L**2 / (2 * E * I), "pure-bending patch")

    # global equilibrium of reactions (force everywhere, moments incl. curved)
    eq_cases = [
        (make_straight_model(0.1), "timoshenko_h3p2", 4),
        (make_quarter_arc_model(0.1), "timoshenko_p2p1", 32),
        (make_quarter_arc_model(0.1), "timoshenko_h3p2", 32),
        (_helix_mixed_model(), "timoshenko_h3p2", 48),
    ]
    for model, fname, n in eq_cases:
        sol = solve_model(model, formulation(fname), n, "reduced")
        fres = applied_load_totals(sol) + reaction_force_totals(sol)
        fscale = max(np.linalg.norm(applied_load_totals(sol)), 1e-30)
        checks.append((np.linalg.norm(fres) <= 1e-8 * slack * fscale,
                       f"{model.curve.kind}/{fname}: force balance {np.linalg.norm(fres):.1e}"))
        r0 = model.curve.frame(0.0).x
        rL = model.curve.frame(model.curve.length).x
        applied_m = np.zeros(3)
        if model.loads.force_end is not None:
            applied_m += np.cross(rL - r0, model.loads.force_end)
        if model.loads.moment_end is not None:
            applied_m += model.loads.moment_end
        mres = applied_m + reactions(sol)["start"]["moment"]
        mscale = max(np.linalg.norm(applied_m), 1e-30)
        checks.append((np.linalg.norm(mres) <= 1e-8 * slack * mscale,
                       f"{model.curve.kind}/{fname}: moment balance {np.linalg.norm(mres):.1e}"))

    # energy consistency a(u_h, u_h) = l(u_h) for homogeneous essential data
    sol = solve_model(make_quarter_arc_model(0.1), formulation("timoshenko_p2p1"), 16, "reduced")
    a_uu = float(sol.x @ (_dense_stiffness(sol.system) @ sol.x))
    l_u = float(sol.system.rhs @ sol.x)
    err = abs(a_uu - l_u) / max(abs(l_u), 1e-30)
    checks.append((err <= 1e-10 * slack, f"energy identity rel err {err:.1e}"))

    return _result("mechanics_property_suite", start, checks)


def timoshenko_eb_thin_limit(slack: float = 1.0) -> CriterionResult:
    """The Timoshenko-vs-Euler-Bernoulli relative tip gap on the straight
    cantilever scales like t^2 over t in {0.1 .. 0.001}, fitted over all five
    thicknesses, and is below 1e-4 at t = 0.001."""
    start = time.perf_counter()
    ts = [0.1, 0.03, 0.01, 0.003, 0.001]
    gaps = []
    for t in ts:
        model = make_straight_model(t)
        uy_t = tip_displacement(solve_model(model, formulation("timoshenko_h3p2"), 4))[1]
        uy_e = tip_displacement(solve_model(model, formulation("euler_bernoulli_h3"), 4))[1]
        gaps.append(abs(uy_t - uy_e) / abs(uy_t))
    slope = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
    checks = [
        (abs(slope - 2.0) <= 0.2 * slack,
         f"gap slope {slope:.3f} over {len(ts)} thicknesses (target 2.0 +- 0.2)"),
        (gaps[-1] < 1e-4 * slack, f"gap at t=1e-3: {gaps[-1]:.2e} < 1e-4"),
    ]
    return _result("timoshenko_eb_thin_limit", start, checks)


def curvature_coupling_demos(slack: float = 1.0) -> CriterionResult:
    """S-curve under end torque moves out of plane; the in-plane transverse
    load keeps the twist identically zero (pure bending); a straight shaft
    under torque keeps its midline fixed."""
    start = time.perf_counter()
    demos = demo_configs()
    checks = []

    sol = solve_demo(*demos["s_curve_torque"])
    s = np.linspace(0.0, sol.mesh.length, 41)
    u, _ = displacement_samples(sol, s)
    t = sol.model.curve.frames(s).t
    qu = u - np.einsum("ij,ij->i", t, u)[:, None] * t
    qnorm = float(np.linalg.norm(qu, axis=1).max())
    checks.append((qnorm > 1e-8 / slack,
                   f"S-curve torque: max normal-plane displacement {qnorm:.3e}"))

    sol = solve_demo(*demos["s_curve_bend"])
    t = sol.model.curve.frames(s).t
    tmax = float(np.abs(np.einsum("ij,ij->i", t, sol.evaluate(s).theta)).max())
    checks.append((tmax <= 1e-10 * slack,
                   f"S-curve in-plane load: max twist {tmax:.3e}"))

    sol = solve_demo(*demos["straight_torque"])
    u, _ = displacement_samples(sol, np.linspace(0.0, sol.mesh.length, 21))
    checks.append((float(np.abs(u).max()) <= 1e-10 * slack,
                   f"straight torque: max midline displacement {np.abs(u).max():.3e}"))

    sol = solve_demo(*demos["helix_spring"])
    uz = float(tip_displacement(sol)[2])
    checks.append((uz < 0.0, f"helix spring compresses: tip u_z = {uz:.3e}"))
    return _result("curvature_coupling_demos", start, checks)


CRITERIA = [
    straight_cantilever_order_p2p1,
    h3p2_one_element_quality,
    quarter_arc_orders_reduced,
    curvature_locking_reduced_integration,
    straight_beam_no_locking,
    resultant_form_equivalence,
    geometry_identity_suite,
    mechanics_property_suite,
    timoshenko_eb_thin_limit,
    curvature_coupling_demos,
]

CRITERION_NAMES = [fn.__name__ for fn in CRITERIA]


def run_acceptance(names: list[str] | None = None, slack: float = 1.0) -> list[CriterionResult]:
    unknown = set(names or ()) - set(CRITERION_NAMES)
    if unknown:
        raise ValueError(f"unknown criteria: {sorted(unknown)}")
    return [fn(slack=slack) for fn in CRITERIA if not names or fn.__name__ in names]
