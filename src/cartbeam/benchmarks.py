"""Analytical references, convergence studies, and demo problems.

Two classical cantilever solutions serve as references: a straight beam of
unit depth under a transverse tip load, and a plane quarter-circle arc under
a radial tip load. Both are elasticity solutions that assume a parabolic
end-stress distribution the beam model cannot represent, so measured errors
eventually plateau; order fitting therefore only uses pre-plateau
refinements. The locking comparisons (quadrature policy on curved geometry,
thickness on straight) read their relative errors from the same convergence
report. The curvature-coupling demos are model files in the package's
demos/ directory, read by cli.load_model like any `cartbeam solve` input.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .assembly import QUADRATURE_POLICIES, BeamModel, BoundaryCondition, LoadCase
from .discretization import element_count, formulation
from .geometry import CircularArc, LineSegment
from .postprocess import tip_displacement
from .section import Material, unit_depth_rect_section
from .solver import SolutionFields, solve_model


def analytic_straight_tip(P: float, E: float, nu: float, t: float, L: float) -> float:
    """Tip deflection u_y of a straight unit-depth cantilever under a tip load
    of magnitude P acting in -y:  u_y = -(P / 6EI) ((4 + 5 nu) t^2 L / 4 + 2 L^3),
    I = t^3 / 12. Both terms have one sign, so it loses no digits as t -> 0."""
    if E <= 0 or t <= 0 or L <= 0:
        raise ValueError("E, t, L must be positive")
    I = t**3 / 12.0
    return -(P / (6.0 * E * I)) * ((4.0 + 5.0 * nu) * t**2 * L / 4.0 + 2.0 * L**3)


def analytic_quarter_arc_tip(P: float, E: float, a: float, b: float) -> float:
    """Tip deflection u_x of a plane quarter-circle unit-depth cantilever
    (inner radius a, outer radius b) under a radial tip load of magnitude P
    acting in -x:  u_x = -P pi (a^2 + b^2) / (E [(a^2 - b^2) + (a^2 + b^2) ln(b/a)]).

    The bracket's two terms are O(t) and their sum O(t^3), so for a thin arc
    it is summed instead: with tau = (b - a)/(b + a), whose b - a is exact
    in floating point for b <= 2a, and R = (a + b)/2, ln(b/a) = 2 artanh(tau)
    and the bracket is 4R^2 [(1 + tau^2) artanh(tau) - tau] = 4R^2
    sum_k>=1 4k/(4k^2 - 1) tau^(2k+1), a sum of positive terms; u_x = -P pi
    (1 + tau^2) / (2E sum). Below tau = 1/2, 30 terms reach a relative
    4^-29 of the first."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    tau = (b - a) / (b + a)
    if tau < 0.5:
        bracket = math.fsum(4 * k / (4 * k * k - 1) * tau ** (2 * k + 1) for k in range(1, 31))
        return -P * math.pi * (1 + tau**2) / (2 * E * bracket)
    num = P * math.pi * (a**2 + b**2)
    den = E * ((a**2 - b**2) + (a**2 + b**2) * math.log(b / a))
    return -num / den


DEFAULT_MATERIAL = Material(E=1e6, nu=0.3)

# the demo model files, shipped as package data
DEMO_DIR = os.path.join(os.path.dirname(__file__), "demos")


def make_straight_model(t: float, L: float = 10.0, P: float = 1.0,
                        material: Material = DEFAULT_MATERIAL) -> BeamModel:
    """Straight unit-depth cantilever along x, clamped at s=0, tip load -P e_y."""
    return BeamModel(
        curve=LineSegment([0.0, 0.0, 0.0], [L, 0.0, 0.0]),
        material=material,
        section=unit_depth_rect_section(t),
        bc_start=BoundaryCondition.clamped(),
        bc_end=BoundaryCondition.free(),
        loads=LoadCase(force_end=[0.0, -P, 0.0]),
    )


def make_quarter_arc_model(t: float, R: float = 1.0, P: float = 1.0,
                           material: Material = DEFAULT_MATERIAL) -> BeamModel:
    """Plane quarter-circle unit-depth cantilever of centerline radius R,
    clamped at (0, -R), free at (R, 0), radial tip load -P e_x."""
    return BeamModel(
        curve=CircularArc([0.0, 0.0, 0.0], R, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          -np.pi / 2.0, 0.0),
        material=material,
        section=unit_depth_rect_section(t),
        bc_start=BoundaryCondition.clamped(),
        bc_end=BoundaryCondition.free(),
        loads=LoadCase(force_end=[-P, 0.0, 0.0]),
    )


# benchmark -> the tip displacement component that is its quantity of interest
_BENCHMARKS = {"straight": 1, "quarter_arc": 0}


@dataclass(eq=False)
class StudySpec:
    """One benchmark swept over formulations, quadrature policies, mesh sizes,
    and thicknesses."""

    benchmark: str
    formulations: list[str]
    quadrature: list[str]
    elements: list[int]
    thickness: list[float]
    material: Material = DEFAULT_MATERIAL
    load: float = 1.0
    length: float = 10.0
    radius: float = 1.0

    def __post_init__(self):
        if self.benchmark not in _BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        for key in ("formulations", "quadrature", "elements", "thickness"):
            if len(getattr(self, key)) == 0:
                raise ValueError(f"{key} list must not be empty")
        self.elements = [element_count(n) for n in self.elements]
        if len(self.elements) > 1 and not all(np.diff(self.elements) > 0):
            raise ValueError("element counts must be strictly increasing")
        for name in self.formulations:
            formulation(name)
        for q in self.quadrature:
            if q not in QUADRATURE_POLICIES:
                raise ValueError(f"unknown quadrature policy {q!r}")
        if not np.isfinite([self.load, self.length, self.radius, *self.thickness]).all():
            raise ValueError("load, thickness, length and radius must be finite")
        if self.load == 0:
            raise ValueError("load must be nonzero")
        if min(self.thickness) <= 0 or min(self.length, self.radius) <= 0:
            raise ValueError("thickness, length and radius must be positive")
        if self.benchmark == "quarter_arc" and self.radius <= max(self.thickness) / 2:
            raise ValueError("radius must exceed half the largest thickness")

    @property
    def supports_order_fit(self) -> bool:
        return len(self.elements) >= 3

    @property
    def qoi_index(self) -> int:
        return _BENCHMARKS[self.benchmark]

    def model(self, t: float) -> BeamModel:
        if self.benchmark == "straight":
            return make_straight_model(t, L=self.length, P=self.load, material=self.material)
        return make_quarter_arc_model(t, R=self.radius, P=self.load, material=self.material)

    def reference(self, t: float) -> float:
        if self.benchmark == "straight":
            return analytic_straight_tip(self.load, self.material.E, self.material.nu,
                                         t, self.length)
        return analytic_quarter_arc_tip(self.load, self.material.E,
                                        self.radius - t / 2.0, self.radius + t / 2.0)


def observed_orders(elements, errors) -> list[float]:
    """Observed order per refinement pair, log(e_i / e_{i+1}) / log(n_{i+1} / n_i)."""
    out = []
    for i in range(len(errors) - 1):
        if errors[i] <= 0 or errors[i + 1] <= 0:
            out.append(float("nan"))
        else:
            out.append(math.log(errors[i] / errors[i + 1])
                       / math.log(elements[i + 1] / elements[i]))
    return out


def plateau_pair_index(errors) -> int | None:
    """Index of the first refinement pair where the error fails to shrink by
    at least 20 percent; None when every refinement keeps converging."""
    for i in range(len(errors) - 1):
        if errors[i] <= 0 or errors[i + 1] > 0.8 * errors[i]:
            return i
    return None


def pre_plateau_orders(pair_orders, plateau_pair: int | None) -> list[float]:
    """The finite pair orders before the plateau pair (all of them when None)."""
    usable = pair_orders if plateau_pair is None else pair_orders[:plateau_pair]
    return [p for p in usable if np.isfinite(p)]


def fitted_order(elements, errors) -> float | None:
    """Median of the observed pre-plateau pair orders (None if no usable pair)."""
    usable = pre_plateau_orders(observed_orders(elements, errors), plateau_pair_index(errors))
    if not usable:
        return None
    return float(np.median(usable))


@dataclass(eq=False)
class CellResult:
    benchmark: str
    formulation: str
    policy: str
    t: float
    elements: list[int]
    qoi: list[float]
    reference: float
    errors: list[float]
    rel_errors: list[float]
    pair_orders: list[float]
    plateau_pair: int | None
    order: float | None
    failures: dict[int, str] = field(default_factory=dict)


@dataclass(eq=False)
class ConvergenceReport:
    study: StudySpec
    cells: dict[tuple, CellResult] = field(default_factory=dict)

    def cell(self, formulation: str, policy: str, t: float) -> CellResult:
        return self.cells[(self.study.benchmark, formulation, policy, t)]

    def rel_error(self, formulation: str, policy: str, t: float, n: int) -> float:
        """Relative tip error of one mesh; raises if that mesh failed to solve."""
        cell = self.cell(formulation, policy, t)
        if n in cell.failures:
            raise RuntimeError(f"{formulation} {policy} t={t} n={n} failed: {cell.failures[n]}")
        return cell.rel_errors[cell.elements.index(n)]

    def full_over_reduced(self, formulation: str, t: float, n: int) -> float:
        return (self.rel_error(formulation, "full", t, n)
                / self.rel_error(formulation, "reduced", t, n))

    def rows(self):
        """Flat rows (benchmark, formulation, quadrature, t, n_elem, qoi, error,
        rel_error, order) for CSV emission; order is blank for the coarsest mesh
        and whenever fewer than three meshes were run."""
        with_order = self.study.supports_order_fit
        for key, cell in sorted(self.cells.items(), key=lambda kv: repr(kv[0])):
            for i, n in enumerate(cell.elements):
                order = ""
                if with_order and i > 0 and np.isfinite(cell.pair_orders[i - 1]):
                    order = cell.pair_orders[i - 1]
                yield (cell.benchmark, cell.formulation, cell.policy, cell.t, n,
                       cell.qoi[i], cell.errors[i], cell.rel_errors[i], order)


def run_convergence(study: StudySpec) -> ConvergenceReport:
    """Solve every (formulation, policy, thickness, mesh) cell, compare the tip
    deflection with the analytic reference, and fit pre-plateau orders."""
    report = ConvergenceReport(study=study)
    for name in study.formulations:
        form = formulation(name)
        for policy in study.quadrature:
            for t in study.thickness:
                model = study.model(t)
                ref = study.reference(t)
                used_elements, qois, failures = [], [], {}
                for n in study.elements:
                    try:
                        sol = solve_model(model, form, n, policy)
                        q = float(tip_displacement(sol)[study.qoi_index])
                    except Exception as exc:  # noqa: BLE001 - study keeps going per cell
                        failures[n] = f"{type(exc).__name__}: {exc}"
                        continue
                    used_elements.append(n)
                    qois.append(q)
                errs = [abs(q - ref) for q in qois]
                rels = [e / abs(ref) for e in errs]
                orders = observed_orders(used_elements, errs)
                key = (study.benchmark, name, policy, t)
                report.cells[key] = CellResult(
                    benchmark=study.benchmark, formulation=name, policy=policy, t=t,
                    elements=used_elements, qoi=qois, reference=ref, errors=errs,
                    rel_errors=rels, pair_orders=orders,
                    plateau_pair=plateau_pair_index(errs),
                    order=fitted_order(used_elements, errs) if study.supports_order_fit else None,
                    failures=failures,
                )
    return report


def write_convergence_csv(report: ConvergenceReport, path: str) -> None:
    """Write the report's rows (see ConvergenceReport.rows) as CSV, floats
    with 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write("benchmark,formulation,quadrature,t,n_elem,qoi,error,rel_error,order\n")
        for row in report.rows():
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def print_order_table(report: ConvergenceReport) -> None:
    """Print each cell's fitted pre-plateau order, then its qoi, relative
    error and pair order per mesh, and the meshes that failed."""
    for _, cell in sorted(report.cells.items(), key=lambda kv: repr(kv[0])):
        order = "n/a" if cell.order is None else f"{cell.order:.2f}"
        print(f"{cell.benchmark} {cell.formulation} {cell.policy} t={cell.t:g}: "
              f"fitted order {order}")
        print(f"  {'n':>4}  {'qoi':>22}  {'rel_error':>12}  {'pair order':>10}")
        for i, n in enumerate(cell.elements):
            pair = "" if i == 0 else f"{cell.pair_orders[i - 1]:10.2f}"
            print(f"  {n:>4}  {cell.qoi[i]:22.15g}  {cell.rel_errors[i]:12.3e}  {pair}")
        for n, msg in cell.failures.items():
            print(f"  n={n} failed: {msg}")


def demo_files() -> dict[str, str]:
    """The path of each model file in DEMO_DIR, keyed by file stem."""
    return {name[:-5]: os.path.join(DEMO_DIR, name)
            for name in sorted(os.listdir(DEMO_DIR)) if name.endswith(".json")}


def demo_configs() -> dict[str, tuple[BeamModel, str, int, str]]:
    """The curvature-coupling demos: load_model of each demo file, keyed by
    file stem. The README says what each one shows."""
    from .cli import _read_json, load_model   # cli imports this module

    return {name: load_model(_read_json(path)) for name, path in demo_files().items()}


def solve_demo(model: BeamModel, form_name: str, n_elements: int, policy: str) -> SolutionFields:
    return solve_model(model, formulation(form_name), n_elements, policy)
