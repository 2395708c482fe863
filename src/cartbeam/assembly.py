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
K itself only on request (`LinearSystem.K`). K_soft holds bend and twist,
formed on the DOFs they act on (the rotation DOFs alone for Timoshenko,
every DOF for Euler-Bernoulli), and each row of C is sqrt(w_q) times one
independent strain component at a point q of a stiff term's rule: stretch
t . u' (compliance 1/(E|A|)) and, unless Euler-Bernoulli, shear
N (u' - theta x t) (1/(G|A|)), two rows on the orthonormal pair N of the
normal plane, where that strain lies. So a point gives 3 rows of C
(Euler-Bernoulli 1). The solver carries one resultant
unknown per row of C, so the stiff terms, which exceed the bending
response by ~(L/t)^2, are never rounded into a factored matrix.

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
import scipy.sparse

from .discretization import DofMap, Formulation, Mesh1D, gauss_rule
from .geometry import ParamCurve, Vec3, cross3, orthonormal_completion, skew
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


class LoadCase:
    """Body force density (force/length^3, constant over each cross-section)
    plus optional concentrated end forces/moments (applied external loads,
    entering the load functional with + sign at both ends). body is a 3-vector
    or a callable from a 1-d array of n arc lengths to an (n, 3) array."""

    def __init__(self, body=None, force_start=None, force_end=None,
                 moment_start=None, moment_end=None):
        self.body = _as_body_function(body)
        self.force_start = None if force_start is None else np.asarray(force_start, float)
        self.force_end = None if force_end is None else np.asarray(force_end, float)
        self.moment_start = None if moment_start is None else np.asarray(moment_start, float)
        self.moment_end = None if moment_end is None else np.asarray(moment_end, float)


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

    K_soft, C and compliance are the mixed split of the stiffness
    K = K_soft + C^T diag(1/compliance) C (see the module docstring), which
    is what the solver factors; K is formed only when read (the split is
    never reassigned). For Timoshenko, K_soft has entries on the theta DOFs
    only. B (m, ndof) and g (m,) are the essential rows B x = g, m >= 0,
    set by `apply_essential_bcs`.
    """

    rhs: np.ndarray
    dofmap: DofMap
    mesh: Mesh1D
    form: Formulation
    model: BeamModel
    K_soft: scipy.sparse.csr_matrix
    C: scipy.sparse.csr_matrix
    compliance: np.ndarray
    policy: str
    B: scipy.sparse.csr_matrix | None = None
    g: np.ndarray | None = None
    rows_info: list[RowInfo] = dc_field(default_factory=list)

    @property
    def n_constraints(self) -> int:
        return self.B.shape[0]

    @functools.cached_property
    def K(self) -> scipy.sparse.csr_matrix:
        """The full stiffness, formed from the split on first read and kept."""
        return (self.K_soft + self.C.T @ scipy.sparse.diags(1 / self.compliance) @ self.C).tocsr()


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

    udofs, adofs = dm.fields["u"].elem_dofs, dm.fields[form.angle_field].elem_dofs
    nu, na = udofs.shape[1], adofs.shape[1]
    nloc = nu + na
    n_el = mesh.n_elements
    edofs_all = np.hstack([udofs, adofs]).astype(np.int32)    # scipy's index type
    lengths = np.diff(mesh.nodes)

    # bend and twist: w k G^T G summed over each element's points and rows,
    # on the local columns c0: that they act on
    ke_soft = c0 = 0
    # per element, the sqrt(w) G rows of the stiff terms point by point and
    # term by term, and the modulus of each of these rows (the same for
    # every element)
    c_blocks, moduli = [], []
    for rule, tms in batches:
        # one batch geometry query, normal-plane basis and shape evaluation
        # per rule: every element x point of the rule
        spts, w = rule.on_element(mesh.nodes[:-1, None], lengths[:, None])
        fr = model.curve.frames(spts.ravel())
        t, kappa = fr.t.reshape(spts.shape + (3,)), fr.kappa.reshape(spts.shape + (3,))
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
                ke_soft, c0 = ke_soft + k * _gram(G.reshape(n_el, -1, nloc - c)), c
        if stiff:
            c_blocks.append(np.concatenate(stiff, axis=-2).reshape(n_el, -1, nloc))
            moduli += stiff_k * len(rule.points)

    c_el = np.concatenate(c_blocks, axis=1)
    moduli = np.asarray(moduli, dtype=float)
    # C is CSR as built: element-major rows over each element's DOFs, exact
    # zeros dropped (many strain rows vanish in plane geometry)
    n_c = n_el * len(moduli)
    C = scipy.sparse.csr_matrix((c_el.ravel(), np.repeat(edofs_all, c_el.shape[1], axis=0).ravel(),
                                 np.arange(0, n_c * nloc + 1, nloc, dtype=np.int32)),
                                shape=(n_c, dm.ndof))
    C.eliminate_zeros()
    # K_soft on the DOFs of its columns, in a pattern from the DofMap, with no
    # sort: per field an element holds a run of m DOFs starting `step` after
    # the previous element's, so a row held by c elements holds a run of
    # m + step (c - 1), and an element column's place in it follows from c
    # and whether the row is shared with the previous element (the index into
    # `table`). Entries that every element gives as exact zeros are left out.
    ek, fk = edofs_all[:, c0:], [f for name, f in dm.fields.items() if c0 == 0 or name != "u"]
    m = np.array([f.elem_dofs.shape[1] for f in fk])
    step = m - [f.node_dofs.shape[1] for f in fk]
    field = np.repeat(np.arange(len(fk)), m)
    loc = np.arange(m.sum()) - (np.cumsum(m) - m)[field]
    table = np.arange(m.sum()) + np.multiply.outer([0, 0, 1, 1], (np.cumsum(step) - step)[field]) \
        + np.multiply.outer([0, 1, 0, 1], step[field])
    count = np.bincount(ek.ravel(), minlength=dm.ndof)
    indptr = np.concatenate([[0], np.cumsum((count > 0) * (m.sum() + step.sum() * (count - 1)))])
    c = count[ek]
    at = indptr[ek][..., None] + table[2 * c - 2 + ((c > 1) & (loc < (m - step)[field]))]
    hit, cols = np.zeros(indptr[-1], bool), np.empty(indptr[-1], np.int32)
    hit[at[ke_soft != 0.0]] = True
    cols[at] = ek[:, None, :]
    kept = np.concatenate([np.zeros(1, np.int32), np.cumsum(hit, dtype=np.int32)])
    K_soft = scipy.sparse.csr_matrix((np.bincount(at.ravel(), ke_soft.ravel(), indptr[-1])[hit],
                                      cols[hit], kept[indptr]), shape=(dm.ndof, dm.ndof))
    return LinearSystem(rhs=np.zeros(dm.ndof), dofmap=dm, mesh=mesh, form=form,
                        model=model, K_soft=K_soft, C=C,
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
    row, d = _POINT_ROWS[pc.field], np.asarray(pc.direction, float)
    w = float(np.ravel(d)[0]) if row in _SCALAR_ROWS else d
    if not np.any(w):
        hint = "theta_t reads direction[0]" if row in _SCALAR_ROWS else "zero direction"
        raise ValueError(f"point constraint on {pc.field} at {pc.end} has an empty row ({hint})")
    return row, w


def _row_value(row: str, value, t: Vec3, what: str):
    """A row's prescribed value: a float on the scalar rows, and on the vector
    rows the normal-plane part of a vector (with a warning if that drops a
    tangential part)."""
    if row in _SCALAR_ROWS:
        return float(value)
    value = np.asarray(value, dtype=float)
    tangential = float(t @ value)
    if abs(tangential) > 1e-12 * max(np.linalg.norm(value), 1e-30):
        warnings.warn(f"{what} has a tangential component {tangential:.3e}; projecting "
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


def assemble_load(model: BeamModel, dm: DofMap) -> np.ndarray:
    """Load vector on the DOFs of dm: |A| integral of f . v_mid (full Gauss
    rule) plus end terms.

    Natural boundary values (prescribed resultants) enter through the end
    bracket with sign +1 at s = L and -1 at s = 0; concentrated applied end
    forces/moments from the load case enter with + sign at both ends.
    """
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

    ends = model.curve.end_frames()
    for end, sgn, t in zip(_ENDS, (-1.0, +1.0), ends.t):
        # (row, w, scale): the natural values on the end bracket, then the
        # applied force (on u, like a point row) and the applied moment as its
        # bending part Q m and twisting part t . m
        terms = [(row, _row_value(row, c.value, t, f"natural {row} value at {end}"), sgn)
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
                rhs[dm.end_dofs(end)] += scale * _row_functional(form, row, t, w)

    if not np.isfinite(rhs).all():
        raise ValueError("the load vector is not finite: check the body force, the end "
                         "forces and moments, and the natural end values")
    return rhs


def apply_essential_bcs(system: LinearSystem) -> LinearSystem:
    """Append the essential conditions as Lagrange-multiplier rows: each end's
    essential conditions in the order of `BoundaryCondition.rows`, then the
    point constraints. The rows of one end are gathered in one pass: their
    `_row_functional` weights are their entries on `DofMap.end_dofs`.

    Linearly dependent but consistent rows are pruned with a warning;
    inconsistent dependent rows raise ConstraintConflictError.
    """
    dm, form, model = system.dofmap, system.form, system.model
    ends = model.curve.end_frames()
    rows = []             # (end, row, tangent, w, value, label)
    for end, t, normal in zip(_ENDS, ends.t, orthonormal_completion(ends.t)):
        for row, c in model.bc(end).rows():
            if c.kind == "essential":
                value = _row_value(row, c.value, t, f"essential {row} value at {end}")
                rows += [(end, row, t, 1.0, value, row)] if row in _SCALAR_ROWS else \
                    [(end, row, t, w, w @ value, row) for w in normal]
    for pc in model.constraints:
        if pc.field not in ("u", form.angle_field):
            raise ValueError(f"point constraint field {pc.field!r} not available "
                             f"for formulation {form.name}")
        row, w = _point_row(pc)
        rows.append((pc.end, row, ends.t[_ENDS.index(pc.end)], w, pc.value, "point"))
    B = np.zeros((len(rows), dm.ndof))
    for end in _ENDS:
        at = [i for i, r in enumerate(rows) if r[0] == end]
        if at:
            B[np.array(at)[:, None], dm.end_dofs(end)] = \
                [_row_functional(form, *rows[i][1:4]) for i in at]
    values = np.array([r[4] for r in rows], dtype=float)
    bad = [f"{label} at {end}" for (end, *_, label), v in zip(rows, values) if not np.isfinite(v)]
    if bad:
        raise ValueError(f"essential value not finite: {', '.join(bad)}")
    infos = [RowInfo(end, label, "moment" if row in _MOMENT_ROWS else "force",
                     w * t if row in _SCALAR_ROWS else w) for end, row, t, w, _, label in rows]
    m, ndof = B.shape

    # the redundancy QR runs on the columns the rows touch (end node DOFs);
    # m = 0 takes the same path
    cols = np.flatnonzero(B.any(axis=0)).astype(np.int32)    # scipy's index type
    Bd = B[:, cols]
    R, piv = scipy.linalg.qr(Bd.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(m, ndof) * np.finfo(float).eps * (diag[0] if len(diag) else 1.0)
    rank = int(np.sum(diag > max(tol, 1e-12)))
    keep = sorted(piv[:rank])
    Bk = Bd[keep]
    if rank < m:
        dropped = [j for j in range(m) if j not in keep]
        for j in dropped:
            c, *_ = np.linalg.lstsq(Bk.T, Bd[j], rcond=None)
            if abs(c @ values[keep] - values[j]) > 1e-9 * max(1.0, np.abs(values).max()):
                raise ConstraintConflictError(
                    f"constraint '{infos[j].label}' at {infos[j].end} contradicts "
                    "earlier constraints")
        warnings.warn(f"dropping {m - rank} redundant, consistent constraint row(s)")

    nz = Bk != 0.0
    system.B = scipy.sparse.csr_matrix((Bk[nz], np.broadcast_to(cols, Bk.shape)[nz], np.cumsum(
        np.r_[0, nz.sum(axis=1)], dtype=np.int32)), shape=(rank, ndof))
    system.g = values[keep]
    system.rows_info = [infos[j] for j in keep]
    return system


def discretize(model: BeamModel, form: Formulation, n_elements: int,
               policy: str = "full") -> LinearSystem:
    """Mesh uniformly on arc length, assemble stiffness + loads, apply BCs."""
    mesh = Mesh1D.uniform(model.curve.length, n_elements)
    system = assemble_stiffness(model, mesh, form, policy)
    system.rhs = assemble_load(model, system.dofmap)
    return apply_essential_bcs(system)
