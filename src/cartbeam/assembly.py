"""Stiffness and load assembly for curved beams in global Cartesian DOFs.

The bilinear form is the sum of four term classes evaluated with the local
unit tangent t, P = t (x) t and Q = I - P:

  stretch: E|A| (P u') . (P v')
  shear:   G|A| (Q u' - theta x t) . (Q v' - eta x t)
  bend:    E (I_sigma theta') . eta'
  twist:   G J (P theta') . (P eta')

with ' the arc-length derivative. Under Euler-Bernoulli kinematics the
rotation is derived from the midline, theta = t x u' + t theta_t, the shear
term vanishes identically, and the bend/twist measures pick up explicit
curvature terms:

  bend:  kappa x u' + t x u'' + theta_t kappa
  twist: theta_t' - (t x u') . kappa

Only the tangent (plus kappa for Euler-Bernoulli) is ever queried from the
geometry; no normal directions along the curve are needed, so straight
segments and inflection points require no special handling.

Assembly builds the mixed split K = K_soft + C^T diag(1/compliance) C, and
K's element matrices only on request (`LinearSystem.element_stiffness`),
for the checks that read K. Every term reads the tangent
alone, so each part is one block per element: K_soft's bend and twist on the
DOFs they act on (the rotation DOFs alone for Timoshenko, every DOF for
Euler-Bernoulli), two blocks adding on a shared node wherever they are read,
and C's rows, each sqrt(w_q) times one independent strain component at a
point q of a stiff term's rule: stretch t . u' (compliance 1/(E|A|)) and,
unless Euler-Bernoulli, shear N (u' - theta x t) (1/(G|A|)), two rows on the
orthonormal pair N of the normal plane, where that strain lies. So a point
gives 3 rows of C (Euler-Bernoulli 1). The solver carries one resultant
unknown per row of C, so the stiff terms, which exceed the bending response
by ~(L/t)^2, are never rounded into a factored matrix.

Essential boundary conditions are enforced with Lagrange multipliers since
they are directional (along t or in the normal plane) while the DOFs are
global Cartesian components. The boundary bracket sign convention is +1 at
s = L and -1 at s = 0. A natural and an essential condition are the two
sides of one pairing per row of the bracket; `_row_functional` is the one
table of these pairings, for loads and constraints alike.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .discretization import DofMap, Formulation, Mesh1D, gauss_rule
from .geometry import (FrameSample, ParamCurve, Vec3, cross3, finite_vec3, orthonormal_completion,
                       skew)
from .section import CrossSection, Material, inertia_factor

# quadrature policies for the stiff (stretch and shear) terms
QUADRATURE_POLICIES = ("full", "reduced")


class ConstraintConflictError(ValueError):
    """Linearly dependent essential constraints with inconsistent values."""


@dataclass(eq=False)
class BCRow:
    """One row of the end-condition table: natural (force-like value) or
    essential (displacement/rotation-like value)."""

    kind: str               # "natural" | "essential"
    value: float | np.ndarray

    def __post_init__(self):
        if self.kind not in ("natural", "essential"):
            raise ValueError(f"bad condition kind {self.kind!r}")


@dataclass(eq=False)
class BoundaryCondition:
    """Per-end choice of one condition per row: stretching, shearing, bending,
    twisting. Scalar values for stretching/twisting, normal-plane vectors for
    shearing/bending (tangential parts are projected away with a warning)."""

    stretching: BCRow
    shearing: BCRow
    bending: BCRow
    twisting: BCRow

    def __post_init__(self):
        for row, c in self.rows():
            shape, scalar = np.shape(c.value), row in _SCALAR_ROWS
            if shape != (() if scalar else (3,)):
                raise ValueError(f"{row} value must be {'a scalar' if scalar else 'a 3-vector'}, "
                                 f"got shape {shape}")

    @classmethod
    def clamped(cls) -> "BoundaryCondition":
        z = np.zeros(3)
        return cls(BCRow("essential", 0.0), BCRow("essential", z.copy()),
                   BCRow("essential", z.copy()), BCRow("essential", 0.0))

    @classmethod
    def free(cls) -> "BoundaryCondition":
        z = np.zeros(3)
        return cls(BCRow("natural", 0.0), BCRow("natural", z.copy()),
                   BCRow("natural", z.copy()), BCRow("natural", 0.0))

    @classmethod
    def pinned(cls) -> "BoundaryCondition":
        z = np.zeros(3)
        return cls(BCRow("essential", 0.0), BCRow("essential", z.copy()),
                   BCRow("natural", z.copy()), BCRow("natural", 0.0))

    def rows(self):
        return (("stretching", self.stretching), ("shearing", self.shearing),
                ("bending", self.bending), ("twisting", self.twisting))


@dataclass(eq=False)
class PointConstraint:
    """Extra essential row d . field(end) = value for a direction d that need
    not be aligned with the local tangent split (e.g. a guided support that
    only permits motion along a fixed axis)."""

    end: str                # "start" | "end"
    field: str              # "u" | "theta" | "theta_t"
    direction: Vec3
    value: float = 0.0

    def __post_init__(self):
        for name, allowed in (("end", _ENDS), ("field", tuple(_POINT_ROWS))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"point constraint {name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        # a float array is kept, not copied, so an edit in place reaches the next solve
        self.direction = finite_vec3(self.direction, "point constraint direction")
        value = np.asarray(self.value, dtype=float)
        if value.shape != () or not np.isfinite(value):
            raise ValueError(f"point constraint value {self.value!r} is not finite or not a scalar")
        self.value = float(value)


class LoadCase:
    """Body force density (force/length^3, constant over each cross-section)
    plus optional concentrated end forces/moments (applied external loads,
    entering the load functional with + sign at both ends). body is a 3-vector
    or a callable from a 1-d array of n arc lengths to an (n, 3) array; each
    end force and moment a 3-vector or None."""

    def __init__(self, body=None, force_start=None, force_end=None,
                 moment_start=None, moment_end=None):
        self.body = _as_body_function(body)
        for name, value in (("force_start", force_start), ("force_end", force_end),
                            ("moment_start", moment_start), ("moment_end", moment_end)):
            if value is not None and np.shape(value) != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {np.shape(value)}")
            setattr(self, name, None if value is None else np.asarray(value, float))


def _as_body_function(body):
    if body is None:
        return None
    if callable(body):
        return body
    arr = np.asarray(body, dtype=float)
    if arr.shape == (3,):
        return lambda s: np.tile(arr, (len(s), 1))
    raise ValueError("body force must be a 3-vector or a callable of an arc-length array")


def body_table(s_values, f_values):
    """Body force from a per-s table, linearly interpolated per component."""
    s_values = np.asarray(s_values, float)
    f_values = np.asarray(f_values, float)
    if s_values.ndim != 1 or f_values.shape != (len(s_values), 3):
        raise ValueError("body table needs one 3-vector per s sample")
    if not (np.isfinite(s_values).all() and np.isfinite(f_values).all()):
        raise ValueError("body table entries must be finite")
    if np.any(np.diff(s_values) <= 0):
        raise ValueError("body table s samples must be strictly increasing")
    return lambda s: np.column_stack([np.interp(s, s_values, f_values[:, k]) for k in range(3)])


@dataclass(eq=False)
class BeamModel:
    """A complete problem statement: geometry, material, section, end
    conditions, loads, and optional extra point constraints."""

    curve: ParamCurve
    material: Material
    section: CrossSection
    bc_start: BoundaryCondition
    bc_end: BoundaryCondition
    loads: LoadCase = dc_field(default_factory=LoadCase)
    constraints: list[PointConstraint] = dc_field(default_factory=list)
    # the `EndTerms` of each formulation name, kept by `end_terms`
    _end_terms: dict = dc_field(default_factory=dict, init=False, repr=False)

    def bc(self, end: str) -> BoundaryCondition:
        return self.bc_start if end == "start" else self.bc_end


@dataclass(eq=False)
class RowInfo:
    """Metadata for one multiplier row, enough to map multipliers back to
    reaction forces/moments at the ends."""

    end: str
    label: str
    category: str           # "force" | "moment"
    reaction_dir: Vec3


@dataclass(eq=False)
class LinearSystem:
    """Assembled stiffness, loads and essential rows of one discretization.

    K_blocks, C_blocks and compliance are the mixed split of the stiffness
    K = K_soft + C^T diag(1/compliance) C (see the module docstring), which
    is what the solver factors, held as element blocks on the columns of
    `DofMap.element_dofs`: K_soft as `K_blocks` (n_el, c, c) on the last c
    (the angle DOFs for Timoshenko, all nloc for Euler-Bernoulli), C as
    `C_blocks` (n_el, rows, nloc). `element_stiffness` multiplies the split
    out into K's element matrices, which every reader of K takes. The
    essential rows B x = g, m >= 0, set by `apply_essential_bcs`, are
    `B_end` (m, k) on `DofMap.boundary_dofs` and g (m,), both read-only,
    with the count of rigid-body modes they leave free
    (`_free_rigid_mode_count`).
    """

    rhs: np.ndarray
    dofmap: DofMap
    mesh: Mesh1D
    form: Formulation
    model: BeamModel
    K_blocks: np.ndarray
    C_blocks: np.ndarray
    compliance: np.ndarray
    policy: str
    B_end: np.ndarray | None = None
    g: np.ndarray | None = None
    rows_info: list[RowInfo] = dc_field(default_factory=list)
    free_rigid_modes: int | None = None

    @property
    def n_constraints(self) -> int:
        return self.B_end.shape[0]

    def element_stiffness(self) -> np.ndarray:
        """K's element matrices ke = C_e^T diag(1/compliance) C_e, `K_blocks`
        added on the last c columns, (n_el, nloc, nloc) on
        `DofMap.element_dofs`: K = sum_e ke scattered there. The one place
        the split is multiplied out; the factored system never holds it."""
        Cb, Kb = self.C_blocks, self.K_blocks
        ke = Cb.mT @ (Cb / self.compliance.reshape(Cb.shape[:2])[..., None])
        c = Kb.shape[-1]
        ke[:, -c:, -c:] += Kb
        return ke

    @functools.cached_property
    def K(self) -> scipy.sparse.csr_matrix:
        """K (ndof, ndof), formed from `element_stiffness` on first read and kept."""
        e = self.dofmap.element_dofs()
        return self._csr(self.element_stiffness(), e, e, self.dofmap.ndof)

    @functools.cached_property
    def B(self) -> scipy.sparse.csr_matrix:
        """B (m, ndof), formed from `B_end` on first read and kept."""
        m = self.n_constraints
        return self._csr(self.B_end, np.arange(m), self.dofmap.boundary_dofs(), m)

    def _csr(self, blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             n_rows: int) -> scipy.sparse.csr_matrix:
        """The entries of blocks (`_block_entries`) as a CSR matrix with
        n_rows rows and ndof columns: entries on one slot added, sorted
        indices, no entry that a block gives as an exact zero. The only
        scipy.sparse import in the package, kept for the benchmark's
        residual check, which reads `K` and `B`; it goes once the benchmark
        reads the blocks (ROADMAP item 6)."""
        import scipy.sparse
        r, c, v = _block_entries(blocks, rows, cols)
        return scipy.sparse.csr_matrix((v, (r, c)), shape=(n_rows, self.dofmap.ndof))


def _block_entries(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray
                   ) -> tuple[np.ndarray, ...]:
    """(rows, columns, values) of the nonzero entries of blocks (..., r, c), in
    C order: entry [..., a, b] lies in row rows[..., a], column cols[..., b]."""
    r, c = blocks.shape[-2:]
    f = np.flatnonzero(blocks != 0.0)
    i = f // c
    return rows.ravel()[i], cols.ravel()[i // r * c + f % c], blocks.ravel()[f]


# terms whose modulus scales like |A| and whose resultants are carried as
# unknowns by the solver; bend and twist scale like t^2 |A|
_STIFF_TERMS = ("stretch", "shear")
_SOFT_TERMS = ("bend", "twist")
_FLIP = np.array([[-1.0], [1.0]])     # [n2; n1] -> [-n2; n1]


def _element_factors(term: str, form: Formulation, t: np.ndarray, kappa: np.ndarray,
                     N: np.ndarray | None, mat: Material, sec: CrossSection, shu: np.ndarray,
                     sha: np.ndarray, nu: int, na: int) -> tuple[np.ndarray, float, int]:
    """Factor G, modulus k and first local column c of one term's integrand
    at points with tangents t, curvature vectors kappa (..., 3) and normal
    pairs N (..., 2, 3; None where no shear or isotropic bend reads them),
    given the shape rows shu, sha (..., nderiv + 1, n_basis) there: a point
    of weight w contributes w k G^T G on the local columns c: of u then angle.
    Stretch and shear take every column, their G the unit strain operator;
    Timoshenko bend and twist read theta' alone (c = nu)."""
    lead = t.shape[:-1]

    def kron(sh, M):
        # [..., i, b * ncol + a] = sh[..., b] M[..., i, a], np.kron per point
        return (sh[..., None, :, None] * M[..., :, None, :]).reshape(lead + (M.shape[-2], -1))

    def outer(a, b):
        # the raveled outer product of two vectors per point, as one row
        return (a[..., :, None] * b[..., None, :]).reshape(lead + (1, -1))

    n = nu + na
    if term == "stretch":
        G = np.zeros(lead + (1, n))
        G[..., :nu] = outer(shu[..., 1, :], t)
        return G, mat.E * sec.area, 0
    if term == "shear":
        # N (u' - theta x t) = N u' + [-n2; n1] theta, N = [n1; n2]
        G = np.zeros(lead + (2, n))
        G[..., :nu] = kron(shu[..., 1, :], N)
        G[..., nu:] = kron(sha[..., 0, :], N[..., [1, 0], :] * _FLIP)
        return G, mat.G * sec.area, 0
    if term == "bend":
        CI = inertia_factor(sec, t, N)
        if not form.euler_bernoulli:
            return kron(sha[..., 1, :], CI), mat.E, nu
        G = np.zeros(lead + (CI.shape[-2], n))
        G[..., :nu] = (kron(shu[..., 1, :], CI @ skew(kappa))
                       + kron(shu[..., 2, :], CI @ skew(t)))
        G[..., nu:] = (CI @ kappa[..., None]) * sha[..., None, 0, :]
        return G, mat.E, 0
    if term == "twist":
        if not form.euler_bernoulli:
            return outer(sha[..., 1, :], t), mat.G * sec.polar, nu
        G = np.zeros(lead + (1, n))
        G[..., :nu] = outer(shu[..., 1, :], np.cross(t, kappa))
        G[..., 0, nu:] = sha[..., 1, :]
        return G, mat.G * sec.polar, 0
    raise ValueError(f"unknown term {term!r}")


def _gram(A: np.ndarray) -> np.ndarray:
    """A_e^T A_e for every element e of a stack (n_el, rows, n_local), as one
    batched BLAS product (an einsum over the same stack is ~20x slower)."""
    return np.swapaxes(A, 1, 2) @ A


def assemble_stiffness(model: BeamModel, mesh: Mesh1D, form: Formulation,
                       policy: str = "full") -> LinearSystem:
    """Assemble K = K_stretch + K_shear + K_bend + K_twist (shear omitted for
    Euler-Bernoulli) as its mixed split K = K_soft + C^T diag(1/compliance) C
    (see LinearSystem), so the stiff terms never need to be factored. Bend
    and twist use the full Gauss rule; stretch and shear use the 2-point rule
    under the reduced policy, the full rule else."""
    if policy not in QUADRATURE_POLICIES:
        raise ValueError(f"unknown quadrature policy {policy!r}")
    dm = DofMap(mesh, form)
    full = gauss_rule(form.full_points)
    stiff_rule = gauss_rule(2) if policy == "reduced" else full
    stiff_terms = _STIFF_TERMS[:1] if form.euler_bernoulli else _STIFF_TERMS
    # one batch per rule, in the term order stretch, shear, bend, twist
    batches = [(full, stiff_terms + _SOFT_TERMS)] if stiff_rule is full else \
        [(stiff_rule, stiff_terms), (full, _SOFT_TERMS)]
    nderiv_u = 2 if form.euler_bernoulli else 1

    nu, na = (dm.fields[name].elem_dofs.shape[1] for name in ("u", form.angle_field))
    nloc = nu + na
    n_el = mesh.n_elements
    lengths = np.diff(mesh.nodes)

    # bend and twist: w k G^T G summed over each element's points and rows,
    # on the last local columns, the ones they act on
    K_blocks = 0
    # per element, the sqrt(w) G rows of the stiff terms point by point and
    # term by term (the blocks of C on the element's DOFs), and the modulus
    # of each of these rows (the same for every element)
    c_blocks, moduli = [], []
    # one batch geometry query over every element x point of every rule,
    # sliced per rule; geometry is pointwise, so each slice holds the bits a
    # query of that rule alone gives
    placed = [rule.on_element(mesh.nodes[:-1, None], lengths[:, None]) for rule, _ in batches]
    fr = model.curve.frames(np.concatenate([spts.ravel() for spts, _ in placed]))
    start = 0
    for (rule, tms), (spts, w) in zip(batches, placed):
        # one normal-plane basis and shape evaluation per rule, on its rows
        rows = slice(start, start + spts.size)
        start += spts.size
        t, kappa = fr.t[rows].reshape(spts.shape + (3,)), fr.kappa[rows].reshape(spts.shape + (3,))
        N = orthonormal_completion(t) if "shear" in tms or (
            "bend" in tms and model.section.is_isotropic) else None
        shu = rule.shapes(form.midline, lengths[:, None], nderiv_u)
        sha = rule.shapes(form.angle, lengths[:, None], 1)
        stiff, stiff_k = [], []
        for tm in tms:
            G, k, c = _element_factors(tm, form, t, kappa, N, model.material, model.section,
                                       shu, sha, nu, na)
            G *= np.sqrt(w)[..., None, None]
            if tm in _STIFF_TERMS:
                stiff.append(G)
                stiff_k += [k] * G.shape[-2]
            else:
                K_blocks = K_blocks + k * _gram(G.reshape(n_el, -1, nloc - c))
        if stiff:
            c_blocks.append(np.concatenate(stiff, axis=-2).reshape(n_el, -1, nloc))
            moduli += stiff_k * len(rule.points)

    return LinearSystem(rhs=np.zeros(dm.ndof), dofmap=dm, mesh=mesh, form=form,
                        model=model, K_blocks=K_blocks,
                        C_blocks=np.concatenate(c_blocks, axis=1),
                        compliance=1.0 / np.tile(moduli, n_el), policy=policy)


_ENDS = ("start", "end")
_SCALAR_ROWS = ("stretching", "twisting")
_MOMENT_ROWS = ("bending", "twisting")
# a point constraint is the row that carries its field, with w its direction
# (the first component for the scalar theta_t) and no projection; an applied
# end force works on u the same way
_POINT_ROWS = {"u": "shearing", "theta": "bending", "theta_t": "twisting"}


def _point_row(pc: PointConstraint) -> tuple[str, float | Vec3]:
    """A point constraint's row and its w: the direction, or its first
    component for the scalar theta_t. A zero w, an empty row, raises."""
    row, d = _POINT_ROWS[pc.field], np.array(pc.direction, float)
    w = float(d[0]) if row in _SCALAR_ROWS else d
    if not np.any(w):
        hint = "theta_t reads direction[0]" if row in _SCALAR_ROWS else "zero direction"
        raise ValueError(f"point constraint on {pc.field} at {pc.end} has an empty row ({hint})")
    return row, w


def _row_value(row: str, value, t: Vec3, what: str, notes: list[str]):
    """A row's prescribed value: a float on the scalar rows, and on the vector
    rows the normal-plane part of a vector (noting a warning in notes if that
    drops a tangential part)."""
    if row in _SCALAR_ROWS:
        return float(value)
    value = np.asarray(value, dtype=float)
    tangential = float(t @ value)
    if abs(tangential) > 1e-12 * max(np.linalg.norm(value), 1e-30):
        notes.append(f"{what} has a tangential component {tangential:.3e}; projecting "
                     "onto the normal plane")
        value = value - tangential * t
    return value


def _row_functional(form: Formulation, row: str, t: Vec3, w) -> np.ndarray:
    """The end functional of one row of the boundary bracket, the kinematic
    quantity that the row's resultant works on: w t . u (stretching), w . u
    (shearing), w . Q theta (bending) and w t . theta (twisting), for a scalar
    w on the scalar rows and a vector w on the others, as weights on the end
    values (u, u' for Euler-Bernoulli, angle), the DOFs of `DofMap.end_dofs`.
    Euler-Bernoulli kinematics carry theta_t = t . theta and Q theta = t x u',
    so there w . Q theta = (w x t) . u'."""
    omega = np.zeros(7 if form.euler_bernoulli else 6)
    if row in ("stretching", "shearing"):
        omega[:3] = w * t if row == "stretching" else w
    elif form.euler_bernoulli:
        omega[3:] = (*cross3(w, t), 0.0) if row == "bending" else (0.0, 0.0, 0.0, w)
    else:
        omega[3:] = w * t if row == "twisting" else w
    return omega


@dataclass(eq=False)
class EndTerms:
    """What a model's end data give under one formulation, whatever the mesh:
    every basis is nodal at the ends, so these are weights on the DOFs of
    `DofMap.end_dofs`. Two halves, each None until built and kept only once
    it builds, so an error comes back on every call:
    - `assemble_load`'s: the end-load vectors, each (end, weights) in the
      order they are added, and the messages of their warnings;
    - `apply_essential_bcs`'s: `B_end`, g and `rows_info`, the count of
      rows dropped and of rigid-body modes the rows leave free, and the
      messages of their warnings.
    The arrays are read-only."""

    key: list
    loads: list[tuple[str, np.ndarray]] | None = None
    load_warnings: list[str] = dc_field(default_factory=list)
    B_end: np.ndarray | None = None
    g: np.ndarray | None = None
    rows_info: list[RowInfo] = dc_field(default_factory=list)
    dropped: int = 0
    free_rigid_modes: int = 0
    row_warnings: list[str] = dc_field(default_factory=list)


def end_terms(model: BeamModel, form: Formulation) -> EndTerms:
    """The `EndTerms` of model under form, kept on the model, one per
    formulation name. Its key holds the contents of every input it reads:
    the formulation, the curve's end frames (one read-only object per curve),
    each end row's kind and value, each point constraint's end, field,
    direction and value, and the applied end forces and moments. So a value
    edited in place, a condition, constraint, load or curve replaced, or a
    constraint appended gives a new entry, with no half built."""
    rows, loads = [c for end in _ENDS for _, c in model.bc(end).rows()], model.loads
    key = [form, model.curve.end_frames(), *(c.kind for c in rows),
           *(s for pc in model.constraints for s in (pc.end, pc.field))]
    # each value as its dtype, shape and bytes; one flat list, as its length
    # fixes the number of constraints
    for value in [*(c.value for c in rows),
                  *(v for pc in model.constraints for v in (pc.direction, pc.value)),
                  loads.force_start, loads.force_end, loads.moment_start, loads.moment_end]:
        a = np.asarray(value)
        key += (a.dtype, a.shape, a.tobytes())
    entry = model._end_terms.get(form.name)
    if entry is None or entry.key != key:
        entry = model._end_terms[form.name] = EndTerms(key)
    return entry


def _warn(messages: list[str]) -> None:
    """Give the warnings of a half of `EndTerms`, on every call that reads it."""
    for message in messages:
        warnings.warn(message)


def assemble_load(model: BeamModel, dm: DofMap) -> np.ndarray:
    """Load vector on the DOFs of dm: |A| integral of f . v_mid (full Gauss
    rule) plus the end terms of `EndTerms` (`_end_loads`), added one at a
    time, since the body load shares the end DOFs."""
    mesh, form = dm.mesh, dm.form
    rhs = np.zeros(dm.ndof)

    if model.loads.body is not None:
        rule = gauss_rule(form.full_points)
        lengths = np.diff(mesh.nodes)
        spts, w = rule.on_element(mesh.nodes[:-1, None], lengths[:, None])
        f = np.asarray(model.loads.body(spts.ravel()), dtype=float)
        if f.shape != (spts.size, 3):
            raise ValueError(f"body force callable returned shape {f.shape} for {spts.size} "
                             f"arc lengths; expected ({spts.size}, 3)")
        shu = rule.shapes(form.midline, lengths[:, None], 0)[..., 0, :]
        fe = np.einsum("eq,eqb,eqa->eba", w * model.section.area, shu,
                       f.reshape(spts.shape + (3,)))
        np.add.at(rhs, dm.fields["u"].elem_dofs, fe.reshape(mesh.n_elements, -1))

    terms = end_terms(model, form)
    if terms.loads is None:
        notes = []
        try:
            loads = _end_loads(model, form, notes)
        finally:
            _warn(notes)
        terms.loads, terms.load_warnings = loads, notes
    else:
        _warn(terms.load_warnings)
    for end, weights in terms.loads:
        rhs[dm.end_dofs(end)] += weights

    if not np.isfinite(rhs).all():
        raise ValueError("the load vector is not finite: check the body force, the end "
                         "forces and moments, and the natural end values")
    return rhs


def _end_loads(model: BeamModel, form: Formulation, notes: list[str]
               ) -> list[tuple[str, np.ndarray]]:
    """The end terms of the load vector, each (end, weights on the end's
    DOFs), in the order they are added. Natural boundary values (prescribed
    resultants) enter through the end bracket with sign +1 at s = L and -1
    at s = 0; concentrated applied end forces/moments from the load case
    enter with + sign at both ends."""
    out = []
    for end, sgn, t in zip(_ENDS, (-1.0, +1.0), model.curve.end_frames().t):
        # (row, w, scale): the natural values on the end bracket, then the
        # applied force (on u, like a point row) and the applied moment as its
        # bending part Q m and twisting part t . m
        terms = [(row, _row_value(row, c.value, t, f"natural {row} value at {end}", notes), sgn)
                 for row, c in model.bc(end).rows() if c.kind == "natural"]
        force = model.loads.force_start if end == "start" else model.loads.force_end
        moment = model.loads.moment_start if end == "start" else model.loads.moment_end
        if force is not None:
            terms.append((_POINT_ROWS["u"], force, 1.0))
        if moment is not None:
            m_t = float(t @ moment)
            terms += [("bending", moment - m_t * t, 1.0), ("twisting", m_t, 1.0)]
        for row, w, scale in terms:
            if np.any(w):
                weights = scale * _row_functional(form, row, t, w)
                weights.flags.writeable = False
                out.append((end, weights))
    return out


def apply_essential_bcs(system: LinearSystem) -> LinearSystem:
    """Set the essential conditions as Lagrange-multiplier rows: `B_end`, g
    and `rows_info`, and the count of rigid-body modes they leave free, from
    the model's `EndTerms`, built on the first call (`_essential_rows`) and
    read on every later one, for any mesh, until an input changes (see
    `end_terms`). A call that reads them gets the same read-only `B_end` and
    g, a new `rows_info` list and the same warnings, in the same order.
    """
    form, model = system.form, system.model
    terms = end_terms(model, form)
    if terms.B_end is None:
        notes = []
        try:
            rows = _essential_rows(model, form, len(system.dofmap.end_dofs("start")), notes)
        finally:
            _warn(notes)
        terms.B_end, terms.g, terms.rows_info, terms.dropped = rows
        terms.free_rigid_modes = _free_rigid_mode_count(form, model.curve.end_frames(),
                                                        terms.B_end)
        terms.row_warnings = notes
    else:
        _warn(terms.row_warnings)
    system.B_end, system.g, system.free_rigid_modes = terms.B_end, terms.g, terms.free_rigid_modes
    system.rows_info = list(terms.rows_info)
    return system


def _essential_rows(model: BeamModel, form: Formulation, k: int, notes: list[str]
                    ) -> tuple[np.ndarray, np.ndarray, list[RowInfo], int]:
    """B_end (read-only), g (read-only), rows_info and the count of rows
    dropped: each end's essential conditions in the order of
    `BoundaryCondition.rows`, then the point constraints. A row's
    `_row_functional` weights (k of them) are its entries on its end's part
    of `DofMap.boundary_dofs`, the columns of B_end.

    Linearly dependent but consistent rows are pruned with a warning;
    inconsistent dependent rows raise ConstraintConflictError.
    """
    ends = model.curve.end_frames()
    rows = []             # (end, row, tangent, w, value, label)
    for end, t, normal in zip(_ENDS, ends.t, orthonormal_completion(ends.t)):
        for row, c in model.bc(end).rows():
            if c.kind == "essential":
                value = _row_value(row, c.value, t, f"essential {row} value at {end}", notes)
                rows += [(end, row, t, 1.0, value, row)] if row in _SCALAR_ROWS else \
                    [(end, row, t, w, w @ value, row) for w in normal]
    for pc in model.constraints:
        if pc.field not in ("u", form.angle_field):
            raise ValueError(f"point constraint field {pc.field!r} not available "
                             f"for formulation {form.name}")
        row, w = _point_row(pc)
        rows.append((pc.end, row, ends.t[_ENDS.index(pc.end)], w, pc.value, "point"))
    # each row on its end's half of `DofMap.boundary_dofs`
    B = np.zeros((len(rows), 2, k))
    for i, (end, row, t, w, *_) in enumerate(rows):
        B[i, _ENDS.index(end)] = _row_functional(form, row, t, w)
    B = B.reshape(len(rows), 2 * k)
    values = np.array([r[4] for r in rows], dtype=float)
    bad = [f"{label} at {end}" for (end, *_, label), v in zip(rows, values) if not np.isfinite(v)]
    if bad:
        raise ValueError(f"essential value not finite: {', '.join(bad)}")
    infos = [RowInfo(end, label, "moment" if row in _MOMENT_ROWS else "force",
                     w * t if row in _SCALAR_ROWS else w) for end, row, t, w, _, label in rows]
    for info in infos:
        info.reaction_dir.flags.writeable = False

    # the redundancy QR and its tolerance see the block alone, so the rows
    # kept do not depend on the mesh; m = 0 takes the same path
    m = len(rows)
    R, piv = scipy.linalg.qr(B.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(m, 2 * k) * np.finfo(float).eps * (diag[0] if len(diag) else 1.0)
    rank = int(np.sum(diag > max(tol, 1e-12)))
    keep = sorted(piv[:rank])
    Bk = B[keep]
    if rank < m:
        for j in (j for j in range(m) if j not in keep):
            c, *_ = np.linalg.lstsq(Bk.T, B[j], rcond=None)
            if abs(c @ values[keep] - values[j]) > 1e-9 * max(1.0, np.abs(values).max()):
                raise ConstraintConflictError(
                    f"constraint '{infos[j].label}' at {infos[j].end} contradicts "
                    "earlier constraints")
        notes.append(f"dropping {m - rank} redundant, consistent constraint row(s)")
    g = values[keep]
    Bk.flags.writeable = g.flags.writeable = False
    return Bk, g, [infos[j] for j in keep], m - rank


def _rigid_node_rows(form: Formulation, fr: FrameSample, slopes: bool
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the six rigid-body modes at nodes with frames fr: translations
    u = e_a (column a), rotations about the origin u = e_a x x, theta = e_a
    (column 3 + a). On u's values [I | e_a x x], then, if `slopes`, on its
    slopes [0 | e_a x t], as (n, 3 or 6, 6); on the angle [0 | I], or [0 | t]
    on the Euler-Bernoulli twist theta_t = t . theta, as (n, angle_ncomp, 6).
    Column a of skew(v)^T = -skew(v) is e_a x v."""
    eye, zero = np.broadcast_to(np.eye(3), (len(fr.s), 3, 3)), np.zeros((len(fr.s), 3, 3))
    mid = [np.concatenate([eye, skew(fr.x).mT], axis=2)]
    if slopes:
        mid.append(np.concatenate([zero, skew(fr.t).mT], axis=2))
    ang = np.concatenate([zero[:, :1], fr.t[:, None]] if form.euler_bernoulli
                         else [zero, eye], axis=2)
    return np.concatenate(mid, axis=1), ang


def _free_rigid_mode_count(form: Formulation, ends: FrameSample, B_end: np.ndarray) -> int:
    """6 - rank(B Z), with the rows of Z at the end nodes (frames ends), the
    columns of `B_end`, in `DofMap.boundary_dofs` order (u's slopes only
    under Euler-Bernoulli kinematics)."""
    Z = np.concatenate(_rigid_node_rows(form, ends, form.euler_bernoulli), axis=1)
    BZ = B_end @ Z.reshape(-1, 6)
    sv = np.linalg.svd(BZ, compute_uv=False)
    tol = max(BZ.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > max(tol, 1e-10)))
    return 6 - rank


def discretize(model: BeamModel, form: Formulation, n_elements: int,
               policy: str = "full") -> LinearSystem:
    """Mesh uniformly on arc length, assemble stiffness + loads, apply BCs."""
    mesh = Mesh1D.uniform(model.curve.length, n_elements)
    system = assemble_stiffness(model, mesh, form, policy)
    system.rhs = assemble_load(model, system.dofmap)
    return apply_essential_bcs(system)
