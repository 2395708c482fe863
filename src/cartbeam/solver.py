"""Direct solution of the constrained linear system in mixed form.

The stiff stretch and shear terms (E|A| and G|A| exceed the bending
response by ~(L/t)^2) are never added into the factored matrix. Each row of
their strain operator C (one per unit strain component at each point of the
term's quadrature rule, scaled by sqrt(w_q)) carries a resultant unknown
sigma, and the solve factors the saddle system

  [ K_soft  C^T  B^T ] [ x      ]   [ f ]
  [ C       -D   0   ] [ sigma  ] = [ 0 ]
  [ B       0    0   ] [ lambda ]   [ g ]

with K_soft the bend and twist stiffness, D = diag(1/(E|A|), 1/(G|A|)) and B
the essential rows. C has one row per independent strain component (3 per
Timoshenko point, 1 per Euler-Bernoulli point; see `assembly`). Eliminating
sigma gives back K x + B^T lambda = f with K = K_soft + C^T D^-1 C, so the
discrete solution is the same; only the rounding of the stiff terms no
longer swamps the bending response as t -> 0 (Malkus & Hughes, CMAME 15,
1978; Arnold, Numer. Math. 37, 1981). K is applied from this split, never
formed.

Under a P2 midline the solve factors fewer unknowns. K_soft does not read
an element's midpoint DOFs, and C's columns on them are a_q [t_q; N_q] at
point q, a scaled rotation, so their rows say only sum_q a_q n_q = f_m for
the global resultants n_q = [t_q; N_q]^T sigma_q. Each element's midpoint
DOFs are eliminated in closed form with the resultant combination they fix
(`_condense`): its stiff unknowns become its global force resultant (3
under `reduced`; 6 under `full`, with the middle point's sigma), and after
the solve the midpoint DOFs are recovered from the part of C x = D sigma
that the condensed rows leave out. So P2-P1 factors 9 unknowns per element
under `reduced` (12 under `full`) in place of 15 (18). Under an H3 midline
the stiff unknowns are sigma as they stand.

Every unknown couples only within one element: the geometry enters through
the tangent alone, each block of K_soft, each row of C and each resultant
belong to one element, and B acts on the end nodes; the solve reads them
as the blocks that assembly holds, with no scipy sparse matrix. So it
numbers [x, stiff, lambda] in a structural order, by index arithmetic on
the `DofMap` with no sort: each node's DOFs, then the stiff unknowns and
interior angle DOFs of the element to its right; each end's multipliers
sit next to their end node. The saddle matrix is then a band whose
half-width is a constant of the formulation and quadrature policy (11 to
26), whatever the curve or mesh. Its entries are written straight into
LAPACK band storage, the two of neighbouring elements on one slot added,
and equilibrated there symmetrically; `dgbtrf` factors it by LU with
partial pivoting (the multipliers and, under Timoshenko kinematics, the
midline DOFs have zero diagonals) and `dgbtrs` solves. The first solve is
refined, at most twice, only while the residual |rhs - A y| > 16 eps
(|rhs| + |A| |y|) in the max norm: below that it is its own rounding
(Arioli, Demmel & Duff, SIAM J. Matrix Anal. Appl. 10, 1989). The
equilibrium and constraint checks read x, midpoint DOFs included, with K
from the full split.

Under `reduced` quadrature the H3 midline has zero-energy modes: three for
`timoshenko_h3p2` on every curve and mesh, one for `euler_bernoulli_h3` on a
straight beam (see `hourglass_modes`). A load that does work on them is
refused. Otherwise each mode is gauged by one row on node 0's slope DOFs,
its slope direction there, which keeps the band; x is then projected onto
the least-hourglass gauge G x = 0 (`_least_hourglass`), x <- x - H (G H)^-1
G x. This is exact: C H = 0, B H = 0 and K H = 0, so sigma, the
multipliers and the reactions do not move. The gauge rows are kept out of
the model's multipliers and reactions.
"""
from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .assembly import LinearSystem, _block_entries, _rigid_node_rows, discretize
from .discretization import shape_eval


class SingularSystemError(RuntimeError):
    """The constrained system is structurally or numerically singular."""

    def __init__(self, message: str, n_rigid_modes: int | None = None):
        super().__init__(message)
        self.n_rigid_modes = n_rigid_modes


@dataclass(eq=False)
class FieldState:
    """Raw interpolated field data at one arc length, or at each of a 1-d
    array of arc lengths: then every field leads with the sample axis
    (theta_t and dtheta_t of shape (n,))."""

    s: float
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray | None = None
    theta: np.ndarray | None = None         # Timoshenko rotation vector
    dtheta: np.ndarray | None = None
    theta_t: float | None = None            # Euler-Bernoulli twist
    dtheta_t: float | None = None

    def row(self, i: int) -> "FieldState":
        """The state at sample i of a batch state."""
        return FieldState(**{f.name: None if getattr(self, f.name) is None
                             else getattr(self, f.name)[i] for f in dc_fields(self)})


@dataclass(eq=False)
class SolutionFields:
    """Solved coefficient vector plus multipliers, with field evaluation."""

    system: LinearSystem
    x: np.ndarray
    multipliers: np.ndarray

    @property
    def mesh(self):
        return self.system.mesh

    @property
    def form(self):
        return self.system.form

    @property
    def model(self):
        return self.system.model

    def _field_at(self, name: str, e: np.ndarray, xi: np.ndarray, nderiv: int) -> np.ndarray:
        """d^k/ds^k of a field, k = 0..nderiv, at local coordinates xi of
        elements e, as an array (nderiv + 1, n, ncomp)."""
        info = self.system.dofmap.fields[name]
        sh = shape_eval(info.kind, np.diff(self.mesh.nodes)[e], xi, nderiv=nderiv)
        coeff = self.x[info.elem_dofs[e]].reshape(len(e), -1, info.ncomp)
        return np.moveaxis(sh @ coeff, 1, 0)

    def evaluate(self, s) -> FieldState:
        """Field values and d/ds values at the arc lengths of a 1-d array s,
        as a FieldState whose fields lead with the sample axis. A scalar s
        is the one-row case."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        e, xi = self.mesh.locate(s_arr)
        form = self.form
        if form.euler_bernoulli:
            u, du, d2u = self._field_at("u", e, xi, 2)
            tt, dtt = self._field_at("theta_t", e, xi, 1)[..., 0]
            st = FieldState(s=s_arr, u=u, du=du, d2u=d2u, theta_t=tt, dtheta_t=dtt)
        else:
            u, du = self._field_at("u", e, xi, 1)
            th, dth = self._field_at(form.angle_field, e, xi, 1)
            st = FieldState(s=s_arr, u=u, du=du, theta=th, dtheta=dth)
        return st.row(0) if np.ndim(s) == 0 else st


def rigid_modes(system: LinearSystem) -> np.ndarray:
    """Discrete representations of the six rigid-body modes, columns of (ndof, 6):
    the rows of `_rigid_node_rows` scattered through each field's node DOFs."""
    form, curve = system.form, system.model.curve
    u, ang = (system.dofmap.fields[name] for name in ("u", form.angle_field))
    Z = np.zeros((system.dofmap.ndof, 6))
    Z[u.node_dofs] = _rigid_node_rows(form, curve.frames(u.node_s), u.kind == "H3")[0]
    Z[ang.node_dofs] = _rigid_node_rows(form, curve.frames(ang.node_s), False)[1]
    return Z


def hourglass_modes(system: LinearSystem, kappa: float) -> np.ndarray:
    """Zero-energy modes that survive the essential rows, columns of (ndof, k).

    The candidates are the three hourglass vectors of the H3 midline: in H_a
    every midline value DOF is 0, every angle DOF is 0, and every midline
    slope DOF equals e_a. In each element u' = (6 xi^2 - 6 xi + 1) e_a,
    which vanishes at both 2-point Gauss points, so the `reduced` stretch
    and shear terms do not see it; end rows act on values only, so no
    essential condition removes it. For `timoshenko_h3p2` all three are
    zero-energy modes on every curve and mesh (bend and twist act on theta
    alone), so they are returned as they are, in closed form. For
    `euler_bernoulli_h3` the bend and twist measures see u' through t x u''
    and kappa x u', which leaves only the combination along t on a straight
    beam: the columns returned are the combinations that K does not see, by
    an SVD of K H (k = 0 under `full`), with kappa max_i K_ii, at most
    ||K||_inf (see `solve`).
    """
    dm = system.dofmap
    if system.form.midline != "H3" or system.policy != "reduced":
        return np.zeros((dm.ndof, 0))
    H = np.zeros((dm.ndof, 3))
    slopes = dm.fields["u"].node_dofs[:, 3:]
    H[slopes, np.arange(3)] = 1.0
    if not system.form.euler_bernoulli:
        return H
    _, sv, Vt = np.linalg.svd(_apply_stiffness(system, H), full_matrices=False)
    null = sv <= 1e-12 * kappa * np.sqrt(len(slopes))
    if null.all():
        return H
    return H @ Vt[null].T


def _apply_stiffness(system: LinearSystem, X: np.ndarray) -> np.ndarray:
    """K X = K_soft X + C^T ((C X) / compliance), column by column, without
    forming K_soft, K or C: per element K_e x_e + C_e^T (C_e x_e / comp), by
    batched products with `K_blocks` (on the element's last DOFs) and
    `C_blocks`, whose element sums one bincount over the element DOFs adds."""
    Kb, Cb, e = system.K_blocks, system.C_blocks, system.dofmap.element_dofs()
    comp, c = system.compliance.reshape(Cb.shape[:2]), Kb.shape[-1]
    KX = []
    for x in np.reshape(X.T, (-1, len(X))):
        xe = x[e][..., None]
        ye = Cb.mT @ ((Cb @ xe) / comp[..., None])
        ye[:, -c:] += Kb @ xe[:, -c:]
        KX.append(np.bincount(e.ravel(), ye.ravel(), len(x)))
    return np.transpose(KX).reshape(X.shape)


def _stiffness_scale(system: LinearSystem) -> float:
    """kappa = max_i K_ii = max_i (K_soft)_ii + sum_k C_ki^2 / compliance_k."""
    Kb, Cb, e = system.K_blocks, system.C_blocks, system.dofmap.element_dofs()
    w = (Cb**2 / system.compliance.reshape(Cb.shape[:2])[..., None]).sum(axis=1)
    w[:, -Kb.shape[-1]:] += np.diagonal(Kb, axis1=1, axis2=2)
    return float(np.bincount(e.ravel(), w.ravel(), system.dofmap.ndof).max())


def _least_hourglass(system: LinearSystem, V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """G X for the least-hourglass rows G, one per mode: sum_e h_e a2_e . v,
    where a2_e = (m_left + m_right)/2 - (u_right - u_left)/h_e is the
    hourglass coefficient of element e (m the slope DOFs) and v the mode's
    slope direction, a row of V. The u terms telescope to u(L) - u(0). This
    gauge takes the least hourglass content, so nodal slopes and interior
    displacements converge to the `full` answer."""
    nd, h = system.dofmap.fields["u"].node_dofs, np.diff(system.mesh.nodes)
    weight = np.pad(0.5 * h, (0, 1)) + np.pad(0.5 * h, (1, 0))
    return V @ (np.tensordot(weight, X[nd[:, 3:]], axes=1) + X[nd[0, :3]] - X[nd[-1, :3]])


@dataclass(eq=False)
class StiffBlocks:
    """The stiff unknowns of the saddle system, s per element, in element
    order: their rows `rows` (n_el, s, c) on the element DOFs `cols` (n_el,
    c), their compliance `comp`, as the diagonal (n_el s,) or as one dense
    block per element (n_el, s, s), and the right-hand side on x (`rhs`) and
    on them (`rhs_s`). Under an H3 midline they are sigma, C's rows as
    assembled. Under a P2 midline they are each element's resultants once
    its midpoint DOFs are condensed (`_condense`), and the rest is what
    recovers those DOFs (`midpoint_dofs`), on the rows of C at the two
    points where its midpoint columns C_m are not 0: Z, sigma_p, the
    compliance D, C_m and the vertex columns C_x there, and a2 = sum_q
    a_q^2."""

    rows: np.ndarray
    cols: np.ndarray
    comp: np.ndarray
    rhs: np.ndarray
    rhs_s: np.ndarray
    Z: np.ndarray | None = None
    sigma_p: np.ndarray | None = None
    D: np.ndarray | None = None
    C_m: np.ndarray | None = None
    C_x: np.ndarray | None = None
    a2: np.ndarray | None = None

    def midpoint_dofs(self, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """u_m = C_m^T (D sigma - C_x x) / a2 per element, (n_el, 3), with
        sigma = sigma_p + Z n: the part of the resultant rows C x - D sigma =
        0 along C_m, which the condensed system leaves out. n is the first 3
        of each element's stiff unknowns tau."""
        n = tau.reshape(len(self.Z), -1)[:, :3, None]
        e = self.D * (self.sigma_p + (self.Z @ n)[..., 0]) - (self.C_x @ x[self.cols][..., None])[..., 0]
        return (e[:, None] @ self.C_m)[:, 0] / self.a2[:, None]


def _stiff_blocks(system: LinearSystem) -> StiffBlocks:
    """The stiff unknowns that `solve` factors: condensed for a P2 midline."""
    if system.form.midline == "P2":
        return _condense(system)
    return StiffBlocks(system.C_blocks, system.dofmap.element_dofs(), system.compliance,
                       system.rhs, np.zeros(len(system.compliance)))


def _condense(system: LinearSystem) -> StiffBlocks:
    """Eliminate each element's P2 midpoint DOFs u_m with the resultants
    they fix. K_soft does not read u_m, and C's columns on it are a_q R_q
    at point q (a_q = sqrt(w_q) phi_m'(s_q)), R_q = [t_q; N_q] orthonormal,
    so its rows say sum_q a_q R_q^T sigma_q = f_m, and C_m^T C_m = a2 I.
    Both P2 rules have a_q != 0 at two points, j and l (a_q = 0 at the
    3-point rule's middle point). So sigma = sigma_p + Z n + the middle
    point's sigma, with sigma_p = C_m f_m / a2 and Z = C_m,j / a_j^2 at j,
    -C_m,l / a_l^2 at l: C_m^T Z = 0, and sigma_q = R_q n' at both, n' a
    multiple of the element's global force resultant. The unknowns [n, the
    middle sigma] have rows [Z^T C_x; C_x at the middle point] on the
    vertex DOFs and the compliance diag(Z^T D Z, D at the middle point);
    the load becomes [f_x - C_x^T sigma_p, Z^T D sigma_p, 0], and 0 on the
    midpoint rows."""
    dm, Cb = system.dofmap, system.C_blocks
    n_el, r, nloc = Cb.shape
    D = system.compliance.reshape(n_el, r)
    # u's local columns are (left, midpoint, right) x 3 components; j and l
    # are the first and the last point, and a row of a_q R_q has norm |a_q|
    vert, jl = [0, 1, 2, *range(6, nloc)], [0, 1, 2, r - 3, r - 2, r - 1]
    C_jl, D_jl = Cb[:, jl], D[:, jl]
    C_m, C_x = C_jl[..., 3:6], C_jl[..., vert]
    a2j = np.square(C_m[:, ::3]).sum(axis=2)
    # an element with no stiff term (C = 0) keeps zero rows, a zero pivot
    a2j[a2j == 0.0] = np.inf
    Z = (C_m.reshape(n_el, 2, 3, 3) / (a2j * [1.0, -1.0])[..., None, None]).reshape(n_el, 6, 3)
    Zt = Z.mT
    rows, comp = Zt @ C_x, Zt @ (D_jl[..., None] * Z)
    if r > 6:
        # the middle point's sigma, with its rows of C and its compliance
        rows = np.concatenate([rows, Cb[:, 3:-3, vert]], axis=1)
        E, comp = comp, np.zeros((n_el, r - 3, r - 3))
        comp[:, :3, :3] = E
        i = np.arange(3, r - 3)
        comp[:, i, i] = D[:, 3:-3]
    a2 = a2j.sum(axis=1)
    cols = dm.element_dofs()[:, vert]
    mid = dm.fields["u"].node_dofs[1::2]
    f_m = system.rhs[mid]
    sigma_p, rhs_s, rhs = np.zeros(D_jl.shape), np.zeros(rows.shape[:2]), system.rhs.copy()
    if f_m.any():
        sigma_p = (C_m @ f_m[..., None])[..., 0] / a2[:, None]
        rhs -= np.bincount(cols.ravel(), (sigma_p[:, None] @ C_x).ravel(), dm.ndof)
        rhs_s[:, :3] = (Zt @ (D_jl * sigma_p)[..., None])[..., 0]
    rhs[mid] = 0.0
    return StiffBlocks(rows, cols, comp, rhs, rhs_s.ravel(), Z, sigma_p, D_jl, C_m, C_x, a2)


def _band_layout(system: LinearSystem, k: int, stiff: StiffBlocks) -> tuple[np.ndarray, int]:
    """The band position of each saddle unknown, indexed in the order [x,
    stiff, lambda, gauge] (`stiff`'s unknowns in element order), and the
    half-bandwidth; a condensed DOF (a P2 midline's midpoint) gets
    -1. Node i's DOFs (each field's vertex node) come first, then the stiff
    unknowns of element i and its interior angle DOFs (the P2 midpoint
    nodes of H3-P2's theta), then node i + 1. The start multipliers and the
    k gauge rows, which touch node 0 alone, come before node 0; the end
    multipliers after the last node. The half-bandwidth follows from element
    0's places: a stiff unknown couples to the element DOFs of its rows
    (`stiff.cols`), x to x only through K_soft (on the last DOFs of each
    element, `K_blocks`), and a multiplier to its end node."""
    dm, (n_el, s) = system.dofmap, stiff.rows.shape[:2]
    n, p, m = dm.ndof, n_el * s, system.n_constraints
    vert = [f.node_dofs[::2] if f.kind == "P2" else f.node_dofs for f in dm.fields.values()]
    inner = [f.node_dofs[1::2] for name, f in dm.fields.items() if f.kind == "P2" and name != "u"]
    blocks = vert + [n + np.arange(p).reshape(n_el, s)] + inner
    nv, step = sum(b.shape[1] for b in vert), sum(b.shape[1] for b in blocks)
    at_start = np.array([info.end == "start" for info in system.rows_info], bool)
    ms = int(at_start.sum())
    first = ms + k
    pos = np.full(n + p + m + k, -1, np.intp)
    offset = first
    for b in blocks:
        pos[b] = offset + step * np.arange(len(b))[:, None] + np.arange(b.shape[1])
        offset += b.shape[1]
    lam = n + p + np.arange(m)
    pos[lam[at_start]] = np.arange(ms)
    pos[n + p + m:] = ms + np.arange(k)
    pos[lam[~at_start]] = first + step * n_el + nv + np.arange(m - ms)
    ex, es = pos[stiff.cols[0]], pos[n:n + s]
    soft = pos[dm.element_dofs()[0, -system.K_blocks.shape[-1]:]]
    kl = max(np.ptp(soft), es.max() - ex.min(), ex.max() - es.min(), first + nv - 1,
             m - ms + nv - 1)
    return pos, int(kl)


def _saddle_entries(system: LinearSystem, V: np.ndarray, stiff: StiffBlocks
                    ) -> tuple[np.ndarray, ...]:
    """The saddle matrix A = [[K_soft, X^T], [X, E]], X = [stiff rows; B;
    gauge], E = diag(-comp, 0), and its right-hand side [stiff.rhs,
    stiff.rhs_s, g, 0]. The gauge row of mode j reads the slope DOFs of node
    0 in the direction V[j]. Returns the entries (rows, columns, values) and
    rhs in the order of `_band_layout`, then that layout (pos, kl), pos in
    the order [x, stiff, lambda, gauge]. K_soft is given as its element
    blocks' entries, so a slot on a node that two elements share has two,
    which add. A condensed DOF has no entry and no place (pos -1)."""
    dm = system.dofmap
    n, m, k = dm.ndof, system.n_constraints, len(V)
    n_el, s = stiff.rows.shape[:2]
    p = n_el * s
    pos, kl = _band_layout(system, k, stiff)
    ek = pos[dm.element_dofs()[:, -system.K_blocks.shape[-1]:]]
    K_rows, K_cols, K_vals = _block_entries(system.K_blocks, ek, ek)
    srows = pos[n + np.arange(p).reshape(n_el, s)]
    # X's (rows, columns, values) block by block, exact zeros left out (half
    # of C's in plane geometry), each block's rows and columns at their
    # places in the band
    X_rows, X_cols, X_vals = (np.concatenate(z) for z in zip(
        _block_entries(stiff.rows, srows, pos[stiff.cols]),
        _block_entries(system.B_end, pos[n + p + np.arange(m)], pos[dm.boundary_dofs()]),
        _block_entries(V, pos[n + p + m + np.arange(k)], pos[dm.fields["u"].node_dofs[0, 3:]])))
    E_rows, E_cols, E_vals = (srows.ravel(), srows.ravel(), stiff.comp) \
        if stiff.comp.ndim == 1 else _block_entries(stiff.comp, srows, srows)
    i = np.concatenate([K_rows, X_rows, X_cols, E_rows])
    j = np.concatenate([K_cols, X_cols, X_rows, E_cols])
    v = np.concatenate([K_vals, X_vals, X_vals, -E_vals])
    placed = pos >= 0
    rhs = np.zeros(np.count_nonzero(placed))
    rhs[pos[placed]] = np.concatenate([stiff.rhs, stiff.rhs_s, system.g, np.zeros(k)])[placed]
    return i, j, v, rhs, pos, kl


def _band_storage(i: np.ndarray, j: np.ndarray, v: np.ndarray, kl: int, N: int
                  ) -> tuple[np.ndarray, ...]:
    """The N x N symmetric matrix A whose (i, j) entry, |i - j| <= kl, is the
    sum of the values v given there, equilibrated: S A S with S = diag(d),
    d_i = 1/sqrt(max_j |A_ij|), each A_ij becoming A_ij (d_i d_j). Returns
    it in LAPACK band storage for `dgbtrf` with kl = ku (Fortran order, kl
    rows on top for the fill of the row swaps, A[i, j] at ab[2 kl + i - j,
    j]), then d and the values scaled, v (d_i d_j). One bincount and one
    scatter, with no sparse intermediate."""
    ldab = 3 * kl + 1
    at = 2 * kl + i + (ldab - 1) * j
    ab = np.bincount(at, v, ldab * N)
    # each value's A_ij: the values given on its slot added
    a = ab[at]
    amax = np.zeros(N)
    np.maximum.at(amax, i, np.abs(a))
    d = 1.0 / np.sqrt(np.maximum(amax, 1e-300))
    scale = d[i] * d[j]
    ab[at] = a * scale
    return ab.reshape((ldab, N), order="F"), d, v * scale


def solve(system: LinearSystem) -> SolutionFields:
    """Factor the mixed saddle system (module docstring) and verify residuals.

    Banded LU with partial pivoting (LAPACK `dgbtrf`) of the symmetrically
    equilibrated system, refined while the residual is above round-off (at
    most two steps). The equilibrium check scales by kappa = max_i K_ii <=
    sum_j |K_ij|, so never looser than by ||K||_inf. Raises
    SingularSystemError when unconstrained rigid modes remain, when the load
    does work on the zero-energy modes of `hourglass_modes`, or when the
    factorization or residual checks fail.
    """
    n, m = system.dofmap.ndof, system.n_constraints
    free = system.free_rigid_modes
    if free > 0:
        raise SingularSystemError(
            f"system is singular: {free} unconstrained rigid-body mode(s)",
            n_rigid_modes=free)

    kappa = _stiffness_scale(system)
    H = hourglass_modes(system, kappa)
    k = H.shape[1]
    if k:
        work = system.rhs @ H
        bound = 1e-10 * np.linalg.norm(system.rhs) * np.linalg.norm(H, axis=0)
        if np.any(np.abs(work) > bound):
            raise SingularSystemError(
                f"the load does work ({', '.join(f'{v:.3e}' for v in work)}) on the "
                f"{k} zero-energy mode(s) of {system.form.name} under reduced "
                "quadrature (every midline slope DOF equal, all else 0); "
                "use full quadrature for this load", n_rigid_modes=0)

    # each mode's slope direction at node 0: the local gauge row, and the
    # direction of its least-hourglass row
    V = H[system.dofmap.fields["u"].node_dofs[0, 3:]].T
    stiff = _stiff_blocks(system)
    i, j, v, rhs, pos, kl = _saddle_entries(system, V, stiff)
    p, N = len(stiff.rhs_s), len(rhs)
    ab, d, v = _band_storage(i, j, v, kl, N)
    rhs = d * rhs
    anorm = float(np.bincount(i, np.abs(v), N).max())
    lu, piv, info = dgbtrf(ab, kl, kl, overwrite_ab=1)
    if info > 0:
        raise SingularSystemError(f"factorization failed: pivot {info} is exactly zero",
                                  n_rigid_modes=0)

    y = dgbtrs(lu, kl, kl, rhs, piv)[0]
    for _ in range(2):
        r = rhs - np.bincount(i, v * y[j], N)
        tol = 16 * np.finfo(float).eps * (np.abs(rhs).max() + anorm * np.abs(y).max())
        if np.abs(r).max() <= tol:
            break
        y = y + dgbtrs(lu, kl, kl, r, piv)[0]
    # a condensed DOF (pos -1) reads the 0 appended
    sol = np.append(d * y, 0.0)[pos]
    if stiff.Z is not None:
        sol[system.dofmap.fields["u"].node_dofs[1::2]] = stiff.midpoint_dofs(sol, sol[n:n + p])
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("factorization produced non-finite values", n_rigid_modes=0)

    x, lam = sol[:n], sol[n + p:n + p + m]
    if k:
        # the local gauge leaves x in the least-hourglass gauge up to a
        # combination of the modes, which C, B and K do not see
        x = x - H @ np.linalg.solve(_least_hourglass(system, V, H), _least_hourglass(system, V, x))
    # K x - f + B^T lam, B on the end nodes' DOFs
    B, ends = system.B_end, system.dofmap.boundary_dofs()
    r1 = _apply_stiffness(system, x) - system.rhs
    r1[ends] += lam @ B
    bound = 1e-10 * (np.linalg.norm(system.rhs) + kappa * np.linalg.norm(x) + 1e-300)
    if np.linalg.norm(r1) > max(bound, 1e-300):
        raise SingularSystemError(
            f"equilibrium residual {np.linalg.norm(r1):.3e} exceeds {bound:.3e}; "
            "system is numerically singular")
    r2 = np.linalg.norm(B @ x[ends] - system.g)
    B_inf = np.abs(B).sum(axis=1).max(initial=0.0)
    if r2 > 1e-10 * max(1.0, np.linalg.norm(system.g), B_inf * np.linalg.norm(x)):
        raise SingularSystemError(f"constraint residual {r2:.3e} too large")

    return SolutionFields(system=system, x=x, multipliers=lam)


def solve_model(model, form, n_elements: int, policy: str = "full") -> SolutionFields:
    return solve(discretize(model, form, n_elements, policy))
