"""Seeded inputs, timed operations and untimed output checks of the workloads.

Every input is drawn from the workload seed; the mesh sizes never depend on
it, so the amount of work per operation is the same for every seed. The
program is reached only through public module attributes looked up at call
time (``cli.load_model``, ``solver.solve_model``, ...), so the tracer in
``tracer.py`` can wrap them from outside the package.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

import cartbeam.benchmarks
import cartbeam.cli
import cartbeam.discretization
import cartbeam.postprocess
import cartbeam.solver

# Acceptance criterion 8 (force balance) and criterion 6 (resultant forms).
FORCE_BALANCE_BOUND = 1e-8
FORM_EQUIV_BOUND = 1e-10
# The bound solver.solve itself enforces on the residual of what it returns.
RESIDUAL_BOUND = 1e-10
# The analytic quarter-arc reference is an elasticity solution; for the
# drawn t/R in [0.12, 0.2] the beam model sits 2.4e-3 to 6.0e-3 from it.
TIP_REL_TOL = 1e-2

E_DEFAULT = 1e6
NU = 0.3
# The study's formulation x policy pairs and thicknesses: those on which no
# solve fails at any seed (see KNOWN_DEFECTS for the ones left out).
STUDY_CELLS = (("timoshenko_p2p1", "full"), ("timoshenko_p2p1", "reduced"),
               ("timoshenko_h3p2", "full"), ("euler_bernoulli_h3", "full"))
STUDY_THICKNESS = (0.2, 0.1)

# name -> (why, mesh sizes, export samples); the sizes are the same for every
# seed. A pass runs the middle size twice, with two inputs, so that the
# median falls between two solves of the same size.
WORKLOADS = {
    "arc_ladder": (
        "closed-form arc geometry: stiffness assembly and the solver carry the work",
        (64, 256, 512), 101),
    "spline_ladder": (
        "S-curve splines: every frame inverts arc length by scalar Newton, geometry dominates",
        (16, 32, 64), 101),
    "helix_dense_output": (
        "one small guided-helix solve read at many samples: post-processing dominates",
        (64,), 1001),
    "study_small": (
        "80 tiny convergence-study solves per pass: fixed per-call cost dominates",
        (1, 2, 4, 8, 16), 0),
}
# small sizes for the benchmark's own tests
TOY_SIZES = {
    "arc_ladder": ((4, 8, 12), 11),
    "spline_ladder": ((4, 6, 8), 11),
    "helix_dense_output": ((6,), 21),
    "study_small": ((1, 2, 4), 0),
}


def ndof(form_name: str, n: int) -> int:
    """Unknowns of the discretization at n elements, before constraints."""
    per = {"timoshenko_p2p1": (9, 6), "timoshenko_h3p2": (12, 9), "euler_bernoulli_h3": (8, 7)}
    a, b = per[form_name]
    return a * n + b


@dataclass(eq=False)
class Case:
    """One input of a workload; an operation runs exactly one case."""

    key: str
    kind: str                  # "solve" | "study"
    doc: dict
    solves: int                # solves per operation
    ndof: int                  # summed over those solves
    samples: int = 0
    tip: tuple | None = None   # (component, analytic value) for the tip check


def _arc_doc(R, t, P, n):
    return {
        "curve": {"kind": "arc", "center": [0.0, 0.0, 0.0], "radius": R,
                  "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "angle": [-math.pi / 2, 0.0]},
        "material": {"E": E_DEFAULT, "nu": NU},
        "section": {"shape": "unit_depth_rect", "t": t},
        "formulation": "timoshenko_p2p1", "elements": n, "quadrature": "reduced",
        "bcs": {"start": "clamped", "end": "free"},
        "loads": {"end": {"force": [-P, 0.0, 0.0]}},
    }


def _spline_doc(amplitude, n_knots, P, phi, n, quadrature="full", height=4.0):
    y = np.linspace(0.0, height, n_knots)
    pts = np.column_stack([amplitude * np.sin(2 * np.pi * y / height), y, np.zeros(n_knots)])
    dy = y[1] - y[0]
    tangent = [amplitude * (2 * np.pi / height) * dy, dy, 0.0]
    t0 = np.array(tangent) / np.linalg.norm(tangent)
    inplane = np.cross([0.0, 0.0, 1.0], t0)
    force = P * (math.cos(phi) * inplane + math.sin(phi) * np.array([0.0, 0.0, 1.0]))
    return {
        "curve": {"kind": "hermite_spline", "points": pts.tolist(),
                  "end_tangents": [tangent, tangent]},
        "material": {"E": E_DEFAULT, "nu": NU},
        "section": {"shape": "circle", "d": 0.12},
        "formulation": "timoshenko_h3p2", "elements": n, "quadrature": quadrature,
        "bcs": {"start": "free", "end": "clamped"},
        "loads": {"start": {"force": force.tolist()}},
    }


def _helix_doc(turns, pitch, P, n, quadrature="full"):
    # supports of configs/helix_spring.json: pinned with twist held at the
    # start, end guided along the axis
    return {
        "curve": {"kind": "helix", "center": [0.0, 0.0, 0.0], "radius": 1.0, "pitch": pitch,
                  "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                  "angle": [0.0, 2 * math.pi * turns]},
        "material": {"E": E_DEFAULT, "nu": NU},
        "section": {"shape": "circle", "d": 0.1},
        "formulation": "timoshenko_h3p2", "elements": n, "quadrature": quadrature,
        "bcs": {"start": {"stretching": {"essential": 0.0},
                          "shearing": {"essential": [0.0, 0.0, 0.0]},
                          "bending": {"natural": [0.0, 0.0, 0.0]},
                          "twisting": {"essential": 0.0}},
                "end": "free"},
        "loads": {"end": {"force": [0.0, 0.0, -P]}},
        "constraints": [
            {"at": "end", "field": "u", "direction": [1.0, 0.0, 0.0], "value": 0.0},
            {"at": "end", "field": "u", "direction": [0.0, 1.0, 0.0], "value": 0.0},
        ],
    }


def make_cases(workload: str, seed: int, toy: bool = False) -> list[Case]:
    """The workload's inputs for this seed, in the order a pass runs them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes, samples = TOY_SIZES[workload] if toy else WORKLOADS[workload][1:]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    cases = []
    if workload != "study_small":
        # the middle size runs twice per pass, with two inputs
        mid = len(sizes) // 2
        keys = [f"n{n}" for n in sizes] + [f"n{sizes[mid]}b"]
        keys[mid] += "a"
        sizes = sizes + (sizes[mid],)
    if workload == "arc_ladder":
        for key, n in zip(keys, sizes):
            R = float(rng.uniform(0.5, 2.0))
            t = R * float(rng.uniform(0.12, 0.2))
            P = float(rng.uniform(0.5, 2.0))
            cases.append(_arc_case(key, R, t, P, n, samples))
    elif workload == "spline_ladder":
        for key, n in zip(keys, sizes):
            doc = _spline_doc(float(rng.uniform(0.4, 0.8)), int(rng.integers(7, 14)),
                              float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, math.pi / 2)), n)
            cases.append(Case(key, "solve", doc, 1, ndof("timoshenko_h3p2", n), samples))
    elif workload == "helix_dense_output":
        for key, n in zip(keys, sizes):
            doc = _helix_doc(float(rng.uniform(2.0, 4.0)), float(rng.uniform(0.1, 0.25)),
                             float(rng.uniform(0.05, 0.2)), n)
            cases.append(Case(key, "solve", doc, 1, ndof("timoshenko_h3p2", n), samples))
    else:
        E = float(rng.uniform(0.5e6, 2e6))
        P = float(rng.uniform(0.5, 2.0))
        for bench in ("straight", "quarter_arc"):
            for form, policy in STUDY_CELLS:
                for t in STUDY_THICKNESS:
                    cases.append(_study_case(bench, form, policy, t, sizes, E, P))
    return cases


def _study_case(bench, form, policy, t, sizes, E=E_DEFAULT, P=1.0) -> Case:
    doc = {"benchmark": bench, "formulations": [form], "quadrature": [policy],
           "elements": list(sizes), "thickness": [t], "material": {"E": E, "nu": NU}, "load": P}
    return Case(f"{bench}/{form}/{policy}/t={t:g}", "study", doc, len(sizes),
                sum(ndof(form, n) for n in sizes))


def _arc_case(key, R, t, P, n, samples) -> Case:
    ref = cartbeam.benchmarks.analytic_quarter_arc_tip(P, E_DEFAULT, R - t / 2, R + t / 2)
    return Case(key, "solve", _arc_doc(R, t, P, n), 1, ndof("timoshenko_p2p1", n), samples,
                (0, ref))


def known_defect_cases(workload: str) -> list[tuple[str, Case]]:
    """Fixed inputs, the same for every seed, that show the known defects of
    the program next to each workload: (what they show, case). The timed
    inputs are drawn where no solve fails; these run once per run, untimed,
    and their verdicts are reported beside the result, not counted in it."""
    samples = WORKLOADS[workload][2]
    if workload == "arc_ladder":
        return [
            ("force balance margin of the quarter arc at n=1024, t/R=0.1 (passes, close)",
             _arc_case("arc/n1024/t=0.1", 1.0, 0.1, 1.0, 1024, samples)),
            ("thin-section accuracy floor: n=1024, t/R=0.05",
             _arc_case("arc/n1024/t=0.05", 1.0, 0.05, 1.0, 1024, samples)),
        ]
    if workload == "spline_ladder":
        doc = _spline_doc(0.6, 10, 0.5, 0.8, 16, quadrature="reduced")
        return [("H3-P2 reduced zero-energy mode: S-curve, n=16",
                 Case("spline/n16/reduced", "solve", doc, 1, ndof("timoshenko_h3p2", 16),
                      samples))]
    if workload == "helix_dense_output":
        doc = _helix_doc(3.9, 0.16, 0.12, 64, quadrature="reduced")
        return [("H3-P2 reduced zero-energy mode: guided helix, n=64",
                 Case("helix/n64/reduced", "solve", doc, 1, ndof("timoshenko_h3p2", 64),
                      samples))]
    sizes = WORKLOADS[workload][1]
    return [
        ("H3-P2 reduced zero-energy mode: straight, t=0.1",
         _study_case("straight", "timoshenko_h3p2", "reduced", 0.1, sizes)),
        ("thin-section accuracy floor: quarter arc, t=1e-3",
         _study_case("quarter_arc", "euler_bernoulli_h3", "full", 1e-3, sizes)),
    ]


@dataclass(eq=False)
class Outcome:
    """What one operation produced, kept until its checks have run."""

    solutions: list = field(default_factory=list)   # (n, solution or exception)
    error: BaseException | None = None
    paths: dict | None = None
    tip: np.ndarray | None = None
    reactions: dict | None = None
    energy: float | None = None
    cell: object = None


@contextlib.contextmanager
def patched(owner, name: str, value):
    """Temporarily replace an attribute of a module or class."""
    old = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, old)


def run_solve(case: Case, out_dir: str) -> Outcome:
    """The work of `cartbeam solve`: parse, solve, export, summary values."""
    out = Outcome()
    try:
        model, form_name, n, policy = cartbeam.cli.load_model(case.doc)
        form = cartbeam.discretization.formulation(form_name)
        sol = cartbeam.solver.solve_model(model, form, n, policy)
        out.solutions.append((n, sol))
        out.paths = cartbeam.postprocess.export(sol, out_dir, n_samples=case.samples)
        out.tip = cartbeam.postprocess.tip_displacement(sol)
        out.reactions = cartbeam.postprocess.reactions(sol)
        out.energy = cartbeam.postprocess.strain_energy(sol)
    except Exception as exc:  # noqa: BLE001 - a raising solve is a failed operation
        out.error = exc
    return out


def run_study(case: Case) -> Outcome:
    """One convergence-study cell: a formulation x policy x thickness over
    its mesh ladder. The solutions are captured for the checks."""
    out = Outcome()
    inner = cartbeam.benchmarks.solve_model

    def capture(model, form, n_elements, policy="full"):
        try:
            sol = inner(model, form, n_elements, policy)
        except Exception as exc:
            out.solutions.append((n_elements, exc))
            raise
        out.solutions.append((n_elements, sol))
        return sol

    try:
        with patched(cartbeam.benchmarks, "solve_model", capture):
            spec = cartbeam.cli.load_study(case.doc)
            out.cell = next(iter(cartbeam.benchmarks.run_convergence(spec).cells.values()))
    except Exception as exc:  # noqa: BLE001
        out.error = exc
    return out


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def force_balance(sol) -> float:
    """||applied + reaction force totals|| / ||applied|| (criterion 8)."""
    applied = cartbeam.postprocess.applied_load_totals(sol)
    imbalance = applied + cartbeam.postprocess.reaction_force_totals(sol)
    return float(np.linalg.norm(imbalance) / max(np.linalg.norm(applied), 1e-300))


def form_mismatch(sol, s, plain: np.ndarray) -> float:
    """Worst mismatch between exported plain resultants (columns N, S, M, T)
    and the curvature-separated forms, scaled as in criterion 6."""
    sep = cartbeam.postprocess.resultants_curvature_form(sol, s)
    blocks = {q: plain[:, 3 * i:3 * i + 3] for i, q in enumerate("NSMT")}
    global_scale = max(float(np.abs(b).max()) for b in blocks.values())
    worst = 0.0
    for q, a in blocks.items():
        scale = max(float(np.abs(a).max()), 1e-6 * global_scale, 1e-300)
        worst = max(worst, float(np.abs(a - getattr(sep, q)).max()) / scale)
    return worst


def residual(sol) -> float | None:
    """Residual of the solved saddle-point system, relative to the scale
    solver.solve uses for its own check; None if the solution does not
    expose the system in this form."""
    try:
        system = sol.system
        r = system.K @ sol.x - system.rhs
        if system.n_constraints:
            r = r + system.B.T @ sol.multipliers
        knorm = float(abs(system.K).sum(axis=1).max())
        scale = np.linalg.norm(system.rhs) + knorm * np.linalg.norm(sol.x)
    except AttributeError:
        return None
    return float(np.linalg.norm(r) / max(scale, 1e-300))


@contextlib.contextmanager
def _rigid_modes_memo():
    """Both force-balance totals call rigid_modes on the same system; build it once."""
    inner = cartbeam.solver.rigid_modes
    last = []

    def memo(system):
        if not last or last[0] is not system:
            last[:] = [system, inner(system)]
        return last[1]

    with patched(cartbeam.solver, "rigid_modes", memo):
        yield


@dataclass(eq=False)
class Verdict:
    """Check results of one operation, at solve granularity."""

    attempted: int
    failed: int = 0
    reasons: list = field(default_factory=list)
    equilibrium: float = 0.0
    form_equiv: float = 0.0
    residual: float = 0.0
    tip_rel_err: float | None = None


def check(case: Case, out: Outcome, digests: dict) -> Verdict:
    """Verify an operation's outputs; runs outside the timed section.

    A solve fails if it raised, returned a non-finite value, does not satisfy
    its own discrete equations, missed the force balance bound, missed the
    resultant-form bound at the export samples, missed the analytic tip
    reference, or wrote CSVs that differ from the first solve of the same
    input.
    """
    v = Verdict(attempted=case.solves)
    if out.error is not None and not out.solutions:
        v.failed = case.solves
        v.reasons.append(f"raised {type(out.error).__name__}: {out.error}")
        return v
    with _rigid_modes_memo():
        if case.kind == "solve":
            _check_solve(case, out, digests, v)
        else:
            _check_study(case, out, v)
    return v


def _check_solve(case: Case, out: Outcome, digests: dict, v: Verdict):
    if out.error is not None:
        v.failed = 1
        v.reasons.append(f"raised {type(out.error).__name__}: {out.error}")
        return
    reasons = []
    digest = hashlib.sha256()
    for name in sorted(out.paths):
        with open(out.paths[name], "rb") as fh:
            digest.update(fh.read())
    if digests.setdefault(case.key, digest.hexdigest()) != digest.hexdigest():
        reasons.append("CSV bytes differ from an earlier solve of the same input")
    try:
        center = np.loadtxt(out.paths["centerline"], delimiter=",", skiprows=1, ndmin=2)
        plain = np.loadtxt(out.paths["resultants"], delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        reasons.append(f"unreadable CSV: {exc}")
    else:
        reasons += _check_values(case, out, center, plain, v)
    if reasons:
        v.failed = 1
        v.reasons.extend(reasons)


def _check_values(case: Case, out: Outcome, center, plain, v: Verdict) -> list[str]:
    sol = out.solutions[0][1]
    values = [sol.x, out.tip, out.energy, center, plain]
    values += [vec for r in out.reactions.values() for vec in r.values()]
    if not _finite(*values):
        return ["non-finite output"]
    reasons = _residual_reasons(sol, v)
    v.equilibrium = force_balance(sol)
    if not v.equilibrium <= FORCE_BALANCE_BOUND:
        reasons.append(f"force balance {v.equilibrium:.2e}")
    v.form_equiv = form_mismatch(sol, plain[:, 0], plain[:, 1:])
    if not v.form_equiv <= FORM_EQUIV_BOUND:
        reasons.append(f"resultant forms differ by {v.form_equiv:.2e}")
    if case.tip is not None:
        comp, ref = case.tip
        v.tip_rel_err = abs(float(out.tip[comp]) - ref) / abs(ref)
        if not v.tip_rel_err <= TIP_REL_TOL:
            reasons.append(f"tip off the analytic reference by {v.tip_rel_err:.2e}")
    return reasons


def _residual_reasons(sol, v: Verdict) -> list[str]:
    r = residual(sol)
    if r is None:
        return []
    v.residual = max(v.residual, r)
    return [] if r <= RESIDUAL_BOUND else [f"residual {r:.2e} of the solved system"]


def _check_study(case: Case, out: Outcome, v: Verdict):
    if out.error is not None:
        v.reasons.append(f"raised {type(out.error).__name__}: {out.error}")
        v.failed = case.solves
        return
    cell = out.cell
    ref = cell.reference
    for n, sol in out.solutions:
        if isinstance(sol, BaseException):
            v.failed += 1
            v.reasons.append(f"n={n} raised {type(sol).__name__}: {sol}")
            continue
        tip = cartbeam.postprocess.tip_displacement(sol)
        if not _finite(sol.x, tip):
            v.failed += 1
            v.reasons.append(f"n={n} non-finite output")
            continue
        reasons = _residual_reasons(sol, v)
        fb = force_balance(sol)
        v.equilibrium = max(v.equilibrium, fb)
        if not fb <= FORCE_BALANCE_BOUND:
            reasons.append(f"force balance {fb:.2e}")
        if reasons:
            v.failed += 1
            v.reasons += [f"n={n} {r}" for r in reasons]
    # the coarse meshes of a convergence study are not expected to meet the
    # reference, so the tip error is reported at the finest mesh, not checked
    finest = max(n for n, _ in out.solutions) if out.solutions else None
    if cell.elements and cell.elements[-1] == finest:
        v.tip_rel_err = abs(cell.qoi[-1] - ref) / abs(ref)
