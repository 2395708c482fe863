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
formed. The first solve is refined, at most twice, only while the residual
|rhs - A y| > 16 eps (|rhs| + |A| |y|) in the max norm: below that it is
its own rounding (Arioli, Demmel & Duff, SIAM J. Matrix Anal. Appl. 10, 1989).

Under `reduced` quadrature the H3 midline has zero-energy modes: three for
`timoshenko_h3p2` on every curve and mesh, one for `euler_bernoulli_h3` on a
straight beam (see `hourglass_modes`). A load that does work on them is
refused; otherwise one gauge row per mode, kept out of the model's
multipliers and reactions, fixes its amplitude.
"""
from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse._sparsetools import csr_tocsc

from .assembly import LinearSystem, discretize
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
    d2u: np.ndarray | None
    theta: np.ndarray | None        # Timoshenko rotation vector
    dtheta: np.ndarray | None
    theta_t: float | None           # Euler-Bernoulli twist
    dtheta_t: float | None

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
            st = FieldState(s=s_arr, u=u, du=du, d2u=d2u, theta=None, dtheta=None,
                            theta_t=tt, dtheta_t=dtt)
        else:
            u, du = self._field_at("u", e, xi, 1)
            th, dth = self._field_at(form.angle_field, e, xi, 1)
            st = FieldState(s=s_arr, u=u, du=du, d2u=None, theta=th, dtheta=dth,
                            theta_t=None, dtheta_t=None)
        return st.row(0) if np.ndim(s) == 0 else st


def rigid_modes(system: LinearSystem) -> np.ndarray:
    """Discrete representations of the six rigid-body modes, columns of (ndof, 6).

    Translations: u = e_a, theta = 0. Rotations about the origin: u = e_a x r(s),
    theta = e_a (twist component e_a . t for Euler-Bernoulli).
    """
    return _rigid_rows(system, np.arange(system.dofmap.ndof))


def _rigid_rows(system: LinearSystem, dofs: np.ndarray) -> np.ndarray:
    """Rows `dofs` (sorted) of `rigid_modes`, from the curve's end frames when
    all their nodes are end nodes, else one `curve.frames` query. A midline
    value (slope) DOF of component c has rotation row (e_a x x)_c =
    (x x e_c)_a over a, with t for x at a slope."""
    dm = system.dofmap
    u, ang = dm.fields["u"], dm.fields[system.form.angle_field]
    nu = np.searchsorted(dofs, u.n_dofs)      # the midline DOFs come first
    un, uc = np.divmod(dofs[:nu], u.node_dofs.shape[1])
    an, ac = np.divmod(dofs[nu:] - u.n_dofs, ang.node_dofs.shape[1])
    s = np.concatenate([u.node_s[un], ang.node_s[an]])
    fr = system.model.curve.end_frames()
    if not np.isin(s, fr.s).all():
        fr = system.model.curve.frames(np.unique(s))
    at = np.searchsorted(fr.s, s)
    Z = np.zeros((len(dofs), 6))
    rows, value = np.arange(nu), uc < 3
    Z[rows[value], uc[value]] = 1.0
    v = np.where(value[:, None], fr.x[at[:nu]], fr.t[at[:nu]])
    c = uc % 3
    Z[rows, 3 + (c + 1) % 3] = v[rows, (c + 2) % 3]
    Z[rows, 3 + (c + 2) % 3] = -v[rows, (c + 1) % 3]
    if system.form.euler_bernoulli:
        Z[nu:, 3:] = fr.t[at[nu:]]      # the twist DOF carries e_a . t
    else:
        Z[nu + np.arange(len(ac)), 3 + ac] = 1.0
    return Z


def _free_rigid_mode_count(system: LinearSystem) -> int:
    """6 - rank(B Z), with the rows of Z built at B's columns (end DOFs) only."""
    cols = np.unique(system.B.indices)
    BZ = system.B.toarray()[:, cols] @ _rigid_rows(system, cols)
    sv = np.linalg.svd(BZ, compute_uv=False)
    tol = max(BZ.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > max(tol, 1e-10)))
    return 6 - rank


def hourglass_modes(system: LinearSystem, kappa: float) -> np.ndarray:
    """Zero-energy modes that survive the essential rows, columns of (ndof, k).

    The candidates are the three hourglass vectors of the H3 midline: in H_a
    every midline value DOF is 0, every angle DOF is 0, and every midline
    slope DOF equals e_a. In each element u' = (6 xi^2 - 6 xi + 1) e_a,
    which vanishes at both 2-point Gauss points, so the `reduced` stretch
    and shear terms do not see it; end rows act on values only, so no
    essential condition removes it. For `timoshenko_h3p2` all three are
    zero-energy modes on every curve and mesh (bend and twist act on theta
    alone) and are returned as they are. For `euler_bernoulli_h3` the bend
    and twist measures see u' through t x u'' and kappa x u', which leaves
    only the combination along t on a straight beam. The columns returned
    are the combinations that K does not see (k = 0 under `full`). kappa is
    max_i K_ii, at most ||K||_inf (see `solve`).
    """
    dm = system.dofmap
    if system.form.midline != "H3" or system.policy != "reduced":
        return np.zeros((dm.ndof, 0))
    H = np.zeros((dm.ndof, 3))
    slopes = dm.fields["u"].node_dofs[:, 3:]
    H[slopes, np.arange(3)] = 1.0
    _, sv, Vt = np.linalg.svd(_apply_stiffness(system, H), full_matrices=False)
    null = sv <= 1e-12 * kappa * np.sqrt(len(slopes))
    if null.all():
        return H
    return H @ Vt[null].T


def _apply_stiffness(system: LinearSystem, X: np.ndarray) -> np.ndarray:
    """K X = K_soft X + C^T ((C X) / compliance), without forming K or C^T:
    C^T is applied by bincount over C's entries in row order, the order of
    scipy's product with C.T, so the bits are the same."""
    C = system.C
    W = ((C @ X).T / system.compliance)[..., np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))]
    CtY = [np.bincount(C.indices, w * C.data, len(X)) for w in np.reshape(W, (-1, C.nnz))]
    return system.K_soft @ X + np.transpose(CtY).reshape(X.shape)


def _stiffness_scale(system: LinearSystem) -> float:
    """kappa = max_i K_ii = max_i (K_soft)_ii + sum_k C_ki^2 / compliance_k."""
    C, w = system.C, system.C.data**2 / np.repeat(system.compliance, np.diff(system.C.indptr))
    return float((system.K_soft.diagonal() + np.bincount(C.indices, w, minlength=C.shape[1])).max())


def _segment_reduce(ufunc, M) -> np.ndarray:
    """ufunc over |entries| of each compressed row (CSR) or column (CSC) of M;
    0 for an empty one, where reduceat alone would return the next entry."""
    out, full = np.zeros(len(M.indptr) - 1), np.flatnonzero(np.diff(M.indptr))
    out[full] = ufunc.reduceat(np.abs(M.data[:M.indptr[-1]]), M.indptr[full]) if full.size else 0
    return out


def _inf_norm(M) -> float:
    """max_i sum_j |M_ij| of a CSR matrix."""
    return float(_segment_reduce(np.add, M).max(initial=0.0))


def _hourglass_gauge(system: LinearSystem, modes: np.ndarray) -> scipy.sparse.csr_matrix:
    """One gauge row per mode: sum_e h_e a2_e . v = 0, where a2_e = (m_left +
    m_right)/2 - (u_right - u_left)/h_e is the hourglass coefficient of
    element e (m the slope DOFs) and v the mode's slope direction. The u
    terms telescope to u(L) - u(0). This gauge takes the least hourglass
    content, so nodal slopes and interior displacements converge to the
    `full` answer."""
    nd, h = system.dofmap.fields["u"].node_dofs, np.diff(system.mesh.nodes)
    weight = np.pad(0.5 * h, (0, 1)) + np.pad(0.5 * h, (1, 0))
    V = modes[nd[0, 3:]].T
    gauge = np.zeros((len(V), system.dofmap.ndof))
    gauge[:, nd[:, 3:]] = weight[:, None] * V[:, None, :]
    gauge[:, nd[-1, :3]], gauge[:, nd[0, :3]] = -V, V
    return scipy.sparse.csr_matrix(gauge)


def _mixed_system(system: LinearSystem, gauge: scipy.sparse.csr_matrix | None = None
                  ) -> tuple[scipy.sparse.csc_matrix, np.ndarray]:
    """The saddle matrix [[K_soft, X^T], [X, E]] (CSC), X = [C; B; gauge], E =
    diag(-D, 0), and its right-hand side [f, 0, g, 0], for the unknowns [x,
    sigma, lambda]. One constructor, from arrays laid out in linear time: the
    first n columns are those of the CSR stack S = [K_soft; X], by scipy's
    compiled counting pass (what `tocsc` runs); column n + k is row k of X,
    followed by -D_kk for C's rows."""
    n, p, cn = system.dofmap.ndof, system.C.shape[0], system.C.nnz
    parts = [system.K_soft, system.C, system.B] + ([] if gauge is None else [gauge])
    data, ind = (np.concatenate([getattr(M, a) for M in parts]) for a in ("data", "indices"))
    sp = np.concatenate([[0]] + [M.indptr[1:] + o for M, o in zip(
        parts, np.cumsum([0] + [M.nnz for M in parts[:-1]]))], dtype=np.int32)
    N, s0, nnz = len(sp) - 1, sp[n], len(data)
    Ad, Ai = np.empty(2 * nnz - s0 + p), np.empty(2 * nnz - s0 + p, np.int32)
    Ap = np.empty(N + 1, np.int32)
    csr_tocsc(N, n, sp, ind, data, Ap[:n + 1], Ai[:nnz], Ad[:nnz])
    # then the rows of X from S, each of C's rows followed by its -D_kk
    at = nnz + np.arange(cn) + np.repeat(np.arange(p), np.diff(system.C.indptr))
    Ad[at], Ai[at] = data[s0:s0 + cn], ind[s0:s0 + cn]
    diag = nnz + system.C.indptr[1:] + np.arange(p)
    Ad[diag], Ai[diag] = -system.compliance, n + np.arange(p)
    Ad[nnz + cn + p:], Ai[nnz + cn + p:] = data[s0 + cn:], ind[s0 + cn:]
    Ap[n + 1:] = sp[n + 1:] - s0 + nnz + np.minimum(np.arange(1, N - n + 1), p)
    rhs = np.concatenate([system.rhs, np.zeros(p), system.g, np.zeros(N - n - p - len(system.g))])
    return scipy.sparse.csc_matrix((Ad, Ai, Ap), shape=(N, N)), rhs


def solve(system: LinearSystem) -> SolutionFields:
    """Factor the mixed saddle system (module docstring) and verify residuals.

    Deterministic sparse LU with symmetric equilibration, refined while the
    residual is above round-off (at most two steps). The equilibrium check
    scales by kappa = max_i K_ii <= sum_j |K_ij|, so never looser than by
    ||K||_inf. Raises SingularSystemError when unconstrained rigid modes
    remain, when the load does work on the zero-energy modes of
    `hourglass_modes`, or when the factorization or residual checks fail.
    """
    n = system.dofmap.ndof
    m = system.n_constraints
    free = _free_rigid_mode_count(system)
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

    A, rhs = _mixed_system(system, _hourglass_gauge(system, H) if k else None)
    p = system.C.shape[0]
    # symmetric equilibration, in place (A is symmetric): Hermite slope DOFs,
    # multiplier rows and resultant rows carry very different scales.
    # Factor and refine the equilibrated system D A D y = D rhs, x = D y.
    d = 1.0 / np.sqrt(np.maximum(_segment_reduce(np.maximum, A), 1e-300))
    A.data *= d[A.indices]
    A.data *= np.repeat(d, np.diff(A.indptr))
    rhs *= d
    try:
        # SuperLU's panel workspace grows with panel_size x unknowns; a
        # narrow panel keeps the mixed system's transient memory small at
        # no measurable cost in time for these banded matrices
        lu = scipy.sparse.linalg.splu(A, panel_size=4)
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}", n_rigid_modes=0) from exc

    y = lu.solve(rhs)
    anorm = _inf_norm(A)    # A is symmetric: its column sums are its row sums
    for _ in range(2):
        r = rhs - A @ y
        tol = 16 * np.finfo(float).eps * (np.abs(rhs).max() + anorm * np.abs(y).max())
        if np.abs(r).max() <= tol:
            break
        y = y + lu.solve(r)
    sol = d * y
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("factorization produced non-finite values", n_rigid_modes=0)

    x, lam = sol[:n], sol[n + p:n + p + m]
    # K x - f + B^T lam, without building B^T
    Bs = system.B
    r1 = _apply_stiffness(system, x) - system.rhs \
        + np.bincount(Bs.indices, Bs.data * np.repeat(lam, np.diff(Bs.indptr)), minlength=n)
    bound = 1e-10 * (np.linalg.norm(system.rhs) + kappa * np.linalg.norm(x) + 1e-300)
    if np.linalg.norm(r1) > max(bound, 1e-300):
        raise SingularSystemError(
            f"equilibrium residual {np.linalg.norm(r1):.3e} exceeds {bound:.3e}; "
            "system is numerically singular")
    r2 = np.linalg.norm(Bs @ x - system.g)
    if r2 > 1e-10 * max(1.0, np.linalg.norm(system.g), _inf_norm(Bs) * np.linalg.norm(x)):
        raise SingularSystemError(f"constraint residual {r2:.3e} too large")

    return SolutionFields(system=system, x=x, multipliers=lam)


def solve_model(model, form, n_elements: int, policy: str = "full") -> SolutionFields:
    return solve(discretize(model, form, n_elements, policy))
