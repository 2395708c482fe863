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
26), whatever the curve or mesh, and element e's unknowns sit at element
0's places plus e step, so its slots in LAPACK band storage are element
0's plus e step (3 kl + 1). The element blocks are written straight there
through element 0's slot tables, K_soft's parts of two elements on a
shared node added first, and equilibrated symmetrically from the blocks'
row maxima; B goes in from its nonzeros. `dgbtrf` factors it by LU with
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

import functools
from dataclasses import dataclass, fields as dc_fields

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .assembly import LinearSystem, _rigid_node_rows, discretize
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
    c), the columns `local` (c,) of `DofMap.element_dofs`, their compliance
    `comp`, as the diagonal (n_el s,) or as one dense block per element
    (n_el, s, s), and the right-hand side on x (`rhs`) and on them
    (`rhs_s`). Under an H3 midline they are sigma, C's rows as
    assembled. Under a P2 midline they are each element's resultants once
    its midpoint DOFs are condensed (`_condense`), and the rest is what
    recovers those DOFs (`midpoint_dofs`), on the rows of C at the two
    points where its midpoint columns C_m are not 0: Z, sigma_p, the
    compliance D, C_m and the vertex columns C_x there, and a2 = sum_q
    a_q^2."""

    rows: np.ndarray
    cols: np.ndarray
    local: np.ndarray
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
    ed = system.dofmap.element_dofs()
    return StiffBlocks(system.C_blocks, ed, np.arange(ed.shape[1]), system.compliance,
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
    return StiffBlocks(rows, cols, np.array(vert), comp, rhs, rhs_s.ravel(), Z, sigma_p, D_jl,
                       C_m, C_x, a2)


# building the tables costs as much as writing a small band, and every solve
# with the same arguments, whatever its mesh, reads the same ones
@functools.lru_cache(maxsize=64)
def _band_layout(fields: tuple, s: int, c: int, local: tuple, ms: int, me: int, k: int,
                 end_u: int) -> tuple:
    """Element 0's band places and slot tables, by index arithmetic on what
    they read, all of it in the arguments: each field's (is u, kind, ncomp,
    DOFs per node), an element's s stiff unknowns and K_soft's c columns
    (its last), the stiff rows' columns `local`, the counts of start and end
    multipliers and of gauge rows, and u's DOFs in an end row. Node i's DOFs
    (each field's vertex node) come first, then the stiff unknowns of
    element i and its interior angle DOFs, then node i + 1; the start
    multipliers and the gauge rows come before node 0, the end multipliers
    after the last node. Returns node 0's place, the element step, a node's
    DOF count, the half-bandwidth (the widest coupling: within K_soft, a
    stiff unknown to its columns, a multiplier to its end node); element
    0's places, relative to node 0, of K_soft's columns, the stiff unknowns
    and their columns; the flat indices of K_soft's left-node and right-node
    parts; the slot tables, relative to element 0's first slot, of K_soft,
    its left-node part, the stiff rows and their transpose, and their span;
    the places of an end node's `DofMap.end_dofs` relative to the node."""
    per = [w for *_, w in fields]
    nv = sum(per)
    inner = [n if kind == "P2" and not u else 0 for u, kind, n, _ in fields]
    step = nv + s + sum(inner)
    # element 0's DOFs in element order: left node, P2 midpoint (-1 where
    # condensed), right node
    loc, at = [], nv + s
    for (u, kind, _, w), off, wi in zip(fields, (0, per[0]), inner):
        left = list(range(off, off + w))
        mid = [] if kind != "P2" else list(range(at, at + wi)) if wi else [-1] * w
        at += wi
        loc += left + mid + [step + j for j in left]
    q = np.array(loc[-c:] + list(range(nv, nv + s)) + [loc[j] for j in local])
    qK, qs, qX = q[:c, None], q[c:c + s, None], q[c + s:]
    kl = int(max(np.ptp(qK), nv + s - 1 - qX.min(), qX.max() - nv, ms + k + nv - 1, me + nv - 1))
    TK = qK + 3 * kl * qK.T
    L, R = (np.flatnonzero(np.logical_and.outer(a, a)) for a in (q[:c] < nv, q[:c] >= step))
    tables = (TK, TK.ravel()[L], qs + 3 * kl * q[c:], qX + 3 * kl * qs)
    for a in (q, L, R, *tables):
        a.flags.writeable = False
    return (ms + k, step, nv, kl, q, (L, R), tables, (3 * kl + 1) * q.max() + 1,
            tuple(range(end_u)) + tuple(range(per[0], nv)))


class _SaddleBand:
    """The saddle matrix A = [[K_soft, X^T], [X, E]], X = [stiff rows; B;
    gauge], E = diag(-comp, 0), and b = [stiff.rhs, stiff.rhs_s, g, 0],
    equilibrated: S A S in LAPACK band storage `ab` (A[i, j] at flat index
    2 kl + i + 3 kl j) and S b, S = diag(d), d_i = 1/sqrt(max_j |A_ij|),
    each A_ij becoming A_ij (d_i d_j); the gauge row of mode j reads node
    0's slope DOFs in the direction V[j]. Two element blocks, K_soft's and
    the stiff rows [-comp, rows] (n_el, s, s + cc), go in through element
    0's slot tables (`_band_layout`) plus e step (3 kl + 1), each exact zero
    as +0, as a sum from 0 gives it; their zeros lie inside the band, but
    B's may not, so B and the gauge rows go in from their nonzeros. d, |A|
    (`anorm`) and `product` read the blocks by `rows`, in one pass each."""

    def __init__(self, system: LinearSystem, V: np.ndarray, stiff: StiffBlocks):
        (n_el, s, cc), c, k = stiff.rows.shape, system.K_blocks.shape[-1], len(V)
        at_start = [info.end == "start" for info in system.rows_info]
        m, ms = len(at_start), sum(at_start)
        first, step, nv, kl, q, (L, R), (TK, TL, TS, TX), span, ends = _band_layout(
            tuple((name == "u", f.kind, f.ncomp, f.node_dofs.shape[1])
                  for name, f in system.dofmap.fields.items()),
            s, c, tuple(stiff.local.tolist()), ms, m - ms, k,
            6 if system.form.euler_bernoulli else 3)
        last = first + step * n_el
        N = last + nv + m - ms
        # the multipliers' places in row order, then the gauge rows'
        order = iter(range(ms)), iter(range(last + nv, N))
        lam = np.array([next(order[not st]) for st in at_start] + list(range(ms, first)), np.intp)
        self.lam, self.places = lam[:m], np.add.outer(np.arange(first, last, step), q)
        self.splaces, self.xplaces = self.places[:, c:c + s], self.places[:, c + s:]
        # B, then the gauge rows on node 0's slopes
        Bg = system.B_end
        if k:
            Bg = np.zeros((m + k, 2 * len(ends) + 3))
            Bg[:m, :-3], Bg[m:, -3:] = system.B_end, V
        i, j = np.nonzero(Bg)
        br, bc = lam[i], np.array([first + e for e in ends] + [last + e for e in ends]
                                  + [first + 3, first + 4, first + 5])[j]
        self.rows = np.concatenate([self.places.ravel(), br, bc])
        self.cols, bv = np.concatenate([bc, br]), np.concatenate([Bg[i, j]] * 2)

        # K_soft with a shared node's part on the element to its right only
        K = system.K_blocks.reshape(n_el, -1) + 0.0
        K[1:, L] += K[:-1, R]
        K[:-1, R] = 0.0
        K = K.reshape(n_el, c, c)
        Sb = np.zeros((n_el, s, s + cc))
        np.add(stiff.rows, 0.0, out=Sb[..., s:])
        if stiff.comp.ndim > 1:
            np.subtract(0.0, stiff.comp, out=Sb[..., :s])
        else:
            Sb[:, np.arange(s), np.arange(s)] = 0.0 - stiff.comp.reshape(n_el, s)
        self.buf, self.c, self.s = np.empty(len(self.rows)), c, s
        self.P = self.buf[:self.places.size].reshape(self.places.shape)
        amax = np.zeros(N)
        np.maximum.at(amax, self.rows, self._row_values(np.max, K, Sb, bv))
        self.d = d = 1.0 / np.sqrt(np.maximum(amax, 1e-300))
        dq = d[self.places]
        K *= dq[:, :c, None] * dq[:, None, :c]
        Sb *= dq[:, c:c + s, None] * dq[:, None, c:]
        bv *= d[self.rows[-len(bv):]] * d[self.cols]
        self.K, self.Sb, self.bv, self.kl = K, Sb, bv, kl

        ab = np.zeros((3 * kl + 1) * N)
        # row e of this view starts at element e's first slot
        slots = np.ndarray((n_el, span), buffer=ab, offset=8 * (2 * kl + (3 * kl + 1) * first),
                           strides=(8 * step * (3 * kl + 1), 8))
        slots[:, TK] = K
        # the shared nodes again, over the zeros element e left there
        slots[1:, TL] = K.reshape(n_el, -1)[1:, L]
        slots[:, TS] = Sb
        slots[:, TX] = Sb[..., s:]
        ab[2 * kl + self.rows[-len(bv):] + 3 * kl * self.cols] = bv
        self.ab = ab.reshape((3 * kl + 1, N), order="F")
        b = np.zeros(N)
        b[self.xplaces] = stiff.rhs[stiff.cols]
        b[self.splaces] = stiff.rhs_s.reshape(n_el, s)
        b[self.lam] = system.g
        self.rhs = d * b
        self.anorm = float(np.bincount(self.rows, self._row_values(np.sum, K, Sb, bv), N).max())

    def _row_values(self, reduce, K: np.ndarray, Sb: np.ndarray, bv: np.ndarray) -> np.ndarray:
        """`buf` holding reduce(|A_ij|) along each of `rows`: K_soft's rows,
        the stiff rows and their columns, then B's entries twice."""
        c, s, P = self.c, self.s, self.P
        reduce(np.abs(K), axis=2, out=P[:, :c])
        aS = np.abs(Sb)
        reduce(aS, axis=2, out=P[:, c:c + s])
        reduce(aS[..., s:], axis=1, out=P[:, c + s:])
        np.abs(bv, out=self.buf[P.size:])
        return self.buf

    def product(self, y: np.ndarray) -> np.ndarray:
        """(S A S) y, block by block."""
        c, s, P = self.c, self.s, self.P
        yq = y[self.places]
        np.matmul(self.K, yq[:, :c, None], out=P[:, :c, None])
        np.matmul(self.Sb, yq[:, c:, None], out=P[:, c:c + s, None])
        np.matmul(yq[:, None, c:c + s], self.Sb[..., s:], out=P[:, None, c + s:])
        np.multiply(self.bv, y[self.cols], out=self.buf[P.size:])
        return np.bincount(self.rows, self.buf, len(y))


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
    n = system.dofmap.ndof
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
    band = _SaddleBand(system, V, stiff)
    kl, rhs = band.kl, band.rhs
    lu, piv, info = dgbtrf(band.ab, kl, kl, overwrite_ab=1)
    if info > 0:
        raise SingularSystemError(f"factorization failed: pivot {info} is exactly zero",
                                  n_rigid_modes=0)

    y = dgbtrs(lu, kl, kl, rhs, piv)[0]
    for _ in range(2):
        r = rhs - band.product(y)
        tol = 16 * np.finfo(float).eps * (np.abs(rhs).max() + band.anorm * np.abs(y).max())
        if np.abs(r).max() <= tol:
            break
        y = y + dgbtrs(lu, kl, kl, r, piv)[0]
    z, x = band.d * y, np.zeros(n)
    x[stiff.cols], lam = z[band.xplaces], z[band.lam]
    if stiff.Z is not None:
        x[system.dofmap.fields["u"].node_dofs[1::2]] = stiff.midpoint_dofs(x, z[band.splaces])
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(x))):
        raise SingularSystemError("factorization produced non-finite values", n_rigid_modes=0)

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
