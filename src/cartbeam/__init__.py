"""Curved Timoshenko and Euler-Bernoulli beam finite elements whose degrees
of freedom are plain global Cartesian components. The only geometric data
the solver consumes is the unit tangent along the midline (plus the
curvature vector for the Euler-Bernoulli variant), so straight segments,
inflection points, and general 3d curves are all handled uniformly."""

from .assembly import (
    BCRow,
    BeamModel,
    BoundaryCondition,
    ConstraintConflictError,
    LoadCase,
    PointConstraint,
    apply_essential_bcs,
    assemble_load,
    assemble_stiffness,
    discretize,
)
from .discretization import (
    FORMULATIONS,
    Formulation,
    FormulationError,
    Mesh1D,
    QuadratureRule,
    UnsupportedOrderError,
    formulation,
    gauss_rule,
    shape_eval,
)
from .geometry import (
    ArcLengthMap,
    CircularArc,
    DegenerateCurveError,
    FrameSample,
    Helix,
    HermiteSpline,
    LineSegment,
    ParamCurve,
)
from .postprocess import (
    Resultants,
    export,
    reactions,
    resultants,
    resultants_curvature_form,
    strain_energy,
    tip_displacement,
)
from .section import (
    CrossSection,
    DirectorDegeneracyError,
    Material,
    circle_section,
    inertia_tensor,
    rect_section,
    unit_depth_rect_section,
)
from .solver import SingularSystemError, SolutionFields, solve, solve_model
from .benchmarks import (
    StudySpec,
    analytic_quarter_arc_tip,
    analytic_straight_tip,
    demo_configs,
    make_quarter_arc_model,
    make_straight_model,
    run_convergence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
