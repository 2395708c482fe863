"""Meshes on arc length, shape functions, DOF maps, and Gauss rules.

All interpolation is polynomial in the arc length, so directional
derivatives along the beam are plain d/ds of the element polynomials and
the element Jacobian is the element length. Cubic Hermite (H3) elements
carry value and arc-length-derivative degrees of freedom, which makes their
element matrices independent of the underlying curve parametrization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import clip_arc_lengths


class UnsupportedOrderError(ValueError):
    """A derivative order beyond what the basis supports was requested."""


class FormulationError(ValueError):
    """Incompatible space combination (e.g. Euler-Bernoulli without H3 midline)."""


@dataclass(eq=False)
class Mesh1D:
    """Nodes 0 = s_0 < ... < s_N = L on arc length; elements are node pairs."""

    nodes: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or len(self.nodes) < 2:
            raise ValueError("mesh needs at least two nodes")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        if abs(self.nodes[0]) > 1e-12 * max(self.nodes[-1], 1.0):
            raise ValueError("mesh must start at s = 0")

    @classmethod
    def uniform(cls, length: float, n_elements: int) -> "Mesh1D":
        if n_elements < 1:
            raise ValueError("need at least one element")
        return cls(np.linspace(0.0, length, n_elements + 1))

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    def locate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Element index and local coordinate xi in [0, 1] of each arc length
        of a 1-d array s. An s off [0, L] or not finite raises ValueError
        (`clip_arc_lengths`)."""
        s = clip_arc_lengths(s, self.length)
        # an s a few ulp short of a node counts as on it, in the element to its
        # right, so the side a node sample takes does not follow round-off in s
        e = np.searchsorted(self.nodes, s + 4 * np.spacing(np.abs(s)), side="right")
        e = np.clip(e - 1, 0, self.n_elements - 1)
        return e, (s - self.nodes[e]) / (self.nodes[e + 1] - self.nodes[e])


_MAX_DERIV = {"P1": 1, "P2": 1, "H3": 2}
# Basis functions in the monomials of xi: row p holds the xi^p coefficients.
# The H3 slope functions (columns 1 and 3) carry one more factor h.
_MONOMIAL = {
    "P1": np.array([[1.0, 0.0], [-1.0, 1.0]]),
    "P2": np.array([[1.0, 0.0, 0.0], [-3.0, 4.0, -1.0], [2.0, -4.0, 2.0]]),
    "H3": np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                    [-3.0, -2.0, 3.0, -1.0], [2.0, 1.0, -2.0, 1.0]]),
}
_SLOPE = {"P1": np.zeros(2), "P2": np.zeros(3), "H3": np.array([0.0, 1.0, 0.0, 1.0])}
# d^k/dxi^k xi^p = p! / (p - k)! xi^(p - k): the factor in row k, column p
_FALLING = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 2.0, 6.0]])


def shape_eval(kind: str, h, xi, nderiv: int = 1) -> np.ndarray:
    """Basis values and arc-length derivatives at local coordinate xi in [0, 1].

    h (element length) and xi broadcast against each other, and the result
    has shape broadcast_shape + (nderiv + 1, n_basis): (nderiv + 1, n_basis)
    for scalars. Row k holds d^k/ds^k = h^-k d^k/dxi^k. H3 rows follow the
    DOF order (value_left, slope_left, value_right, slope_right) with slopes
    taken with respect to arc length.
    """
    if kind not in _MONOMIAL:
        raise ValueError(f"unknown basis kind {kind!r}")
    if nderiv > _MAX_DERIV[kind]:
        raise UnsupportedOrderError(f"{kind} basis supports d^{_MAX_DERIV[kind]}/ds at most")
    coef = _MONOMIAL[kind]
    k = np.arange(nderiv + 1)[:, None]
    power = np.maximum(np.arange(len(coef)) - k, 0)
    xi = np.asarray(xi, dtype=float)[..., None, None]
    return ((_FALLING[:nderiv + 1, :len(coef)] * xi**power) @ coef) * _h_powers(kind, h, nderiv)


def _h_powers(kind: str, h, nderiv: int) -> np.ndarray:
    """h^(slope - k): takes row k of the basis in xi to d^k/ds^k (`shape_eval`)."""
    return np.asarray(h, float)[..., None, None] ** (_SLOPE[kind] - np.arange(nderiv + 1)[:, None])


@dataclass(frozen=True)
class Formulation:
    """Element formulation: midline space, angle space, and kinematics flavor."""

    name: str
    midline: str
    angle: str
    angle_ncomp: int
    euler_bernoulli: bool
    full_points: int

    def __post_init__(self):
        if self.euler_bernoulli and self.midline != "H3":
            raise FormulationError("Euler-Bernoulli kinematics needs the H3 midline space")

    @property
    def angle_field(self) -> str:
        return "theta_t" if self.euler_bernoulli else "theta"


FORMULATIONS = {
    "timoshenko_p2p1": Formulation("timoshenko_p2p1", "P2", "P1", 3, False, 3),
    "timoshenko_h3p2": Formulation("timoshenko_h3p2", "H3", "P2", 3, False, 4),
    "euler_bernoulli_h3": Formulation("euler_bernoulli_h3", "H3", "P2", 1, True, 4),
}


def formulation(name: str) -> Formulation:
    try:
        return FORMULATIONS[name]
    except KeyError:
        raise ValueError(f"unknown formulation {name!r}; "
                         f"choose one of {sorted(FORMULATIONS)}") from None


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre points and weights on the reference element [0, 1]."""

    points: np.ndarray
    weights: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def on_element(self, s0: float, h: float) -> tuple[np.ndarray, np.ndarray]:
        return s0 + self.points * h, self.weights * h

    def shapes(self, kind: str, h, nderiv: int) -> np.ndarray:
        """shape_eval(kind, h, self.points, nderiv), bitwise: the table on the
        reference element (h = 1) is computed once per (kind, nderiv), kept
        read-only, and scaled by the powers of h."""
        if (kind, nderiv) not in self._tables:
            table = shape_eval(kind, 1.0, self.points, nderiv)
            table.flags.writeable = False
            self._tables[kind, nderiv] = table
        return self._tables[kind, nderiv] * _h_powers(kind, h, nderiv)


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """The n-point rule, computed once per n and shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    points, weights = 0.5 * (x + 1.0), 0.5 * w
    points.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(points=points, weights=weights)


@dataclass(eq=False)
class FieldInfo:
    kind: str
    ncomp: int
    node_s: np.ndarray          # arc-length position of each DOF node
    node_dofs: np.ndarray       # (n_nodes, dofs_per_node) global indices
    elem_dofs: np.ndarray       # (n_elements, n_basis * ncomp) global indices
    n_dofs: int


class DofMap:
    """Global DOF numbering for the fields of a formulation on a mesh.

    Midline DOFs come first, angle DOFs after, each block in mesh order.
    Element-local DOF order is basis-major: for scalar basis function b and
    component a the local index is b * ncomp + a, matching `shape_eval` rows.
    """

    def __init__(self, mesh: Mesh1D, form: Formulation):
        self.mesh = mesh
        self.form = form
        self.fields: dict[str, FieldInfo] = {}
        offset = 0
        offset = self._add_field("u", form.midline, 3, offset)
        offset = self._add_field(form.angle_field, form.angle, form.angle_ncomp, offset)
        self.ndof = offset

    def _add_field(self, name: str, kind: str, ncomp: int, offset: int) -> int:
        mesh = self.mesh
        n_el = mesh.n_elements
        if kind in ("P1", "H3"):
            node_s = mesh.nodes.copy()
        else:  # P2: vertices and element midpoints
            node_s = np.sort(np.concatenate([mesh.nodes, 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])]))
        per_node = 2 * ncomp if kind == "H3" else ncomp
        n_nodes = len(node_s)
        node_dofs = offset + np.arange(n_nodes * per_node).reshape(n_nodes, per_node)
        # element e uses nodes first[e] + (0, 1[, 2]); an H3 node's block is
        # (values, slopes), so two consecutive blocks give the DOF order
        # (value_left, slope_left, value_right, slope_right)
        n_elem_nodes = 3 if kind == "P2" else 2
        first = (2 if kind == "P2" else 1) * np.arange(n_el)
        elem_dofs = node_dofs[first[:, None] + np.arange(n_elem_nodes)].reshape(n_el, -1)
        self.fields[name] = FieldInfo(kind=kind, ncomp=ncomp, node_s=node_s,
                                      node_dofs=node_dofs, elem_dofs=elem_dofs,
                                      n_dofs=n_nodes * per_node)
        return offset + n_nodes * per_node

    def end_dofs(self, end: str) -> np.ndarray:
        """The DOFs of the node at a beam end ('start' or 'end'): u's values,
        its slopes under Euler-Bernoulli kinematics, then the angle field's.
        Every basis is nodal there (its value and H3 slope rows are 0 or 1 at
        xi = 0 and 1), so these DOFs are the end values of u, u' and angle."""
        if end not in ("start", "end"):
            raise ValueError(f"unknown end {end!r}")
        k, eb = (0 if end == "start" else -1), self.form.euler_bernoulli
        return np.concatenate([self.fields["u"].node_dofs[k, :6 if eb else 3],
                               self.fields[self.form.angle_field].node_dofs[k]])
