"""Resultants, shear angle, reactions, energies, and CSV export.

Section resultants come in two algebraically equivalent flavors: the plain
forms

  N = E|A| P u',   S = G|A| (Q u' - theta x t),
  M = E I_sigma theta',   T = G J P theta'

and curvature-separated forms in which the tangential and normal-plane
components of the fields are differentiated separately, making the coupling
through the curvature vector explicit. Agreement of the two is the central
cross-check of this module.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .discretization import gauss_rule
from .geometry import FrameSample
from .solver import FieldState, SolutionFields


@dataclass(eq=False)
class Resultants:
    """Sampled axial force N, shear force S, bending moment M, torsion T."""

    s: np.ndarray
    N: np.ndarray
    S: np.ndarray
    M: np.ndarray
    T: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 3) arrays, as a column (n, 1). A
    batched matmul rounds each row like a @ b of one sample would."""
    return (a[:, None, :] @ b[:, :, None])[:, 0]


def _rotation_state(t: np.ndarray, k: np.ndarray, st: FieldState, euler_bernoulli: bool):
    """(theta, dtheta) at points with tangents t and curvature vectors k
    (n, 3) from a batch state, with the Euler-Bernoulli rotation
    reconstructed as theta = t x u' + t theta_t."""
    if not euler_bernoulli:
        return st.theta, st.dtheta
    tt, dtt = st.theta_t[:, None], st.dtheta_t[:, None]
    theta = np.cross(t, st.du) + t * tt
    dtheta = np.cross(k, st.du) + np.cross(t, st.d2u) + k * tt + t * dtt
    return theta, dtheta


def _section_matrices(solution: SolutionFields, t: np.ndarray):
    """E|A|, G|A|, E I_sigma at each tangent of t (n, 3, 3), and G J."""
    from .section import inertia_tensor
    mat = solution.model.material
    sec = solution.model.section
    return mat.E * sec.area, mat.G * sec.area, mat.E * inertia_tensor(sec, t), \
        mat.G * sec.polar


def _samples(solution: SolutionFields, s) -> tuple[np.ndarray, FrameSample, FieldState]:
    """The arc lengths as a 1-d array, their frames and their field state,
    each from one batch query."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return s, solution.model.curve.frames(s), solution.evaluate(s)


def resultants(solution: SolutionFields, s) -> Resultants:
    """Plain resultant forms sampled at the given arc lengths."""
    return _resultants(solution, *_samples(solution, s))


def _resultants(solution: SolutionFields, s: np.ndarray, fr: FrameSample,
                st: FieldState) -> Resultants:
    """`resultants` from a sample already taken by `_samples`."""
    t = fr.t
    EA, GA, EI, GJ = _section_matrices(solution, t)
    theta, dtheta = _rotation_state(t, fr.kappa, st, solution.form.euler_bernoulli)
    du_t = _dot(t, st.du)
    if solution.form.euler_bernoulli:
        S = np.zeros((len(s), 3))
    else:
        S = GA * (st.du - du_t * t - np.cross(theta, t))
    return Resultants(s=s, N=EA * du_t * t, S=S, M=(EI @ dtheta[:, :, None])[:, :, 0],
                      T=GJ * _dot(t, dtheta) * t)


def resultants_curvature_form(solution: SolutionFields, s) -> Resultants:
    """Curvature-separated resultant forms:

    N = E|A| (u_t' - (Q u) . kappa) t
    S = G|A| (Q (Q u)' - (Q theta) x t + u_t kappa)
    M = E I_sigma ((Q theta)' + theta_t kappa)
    T = G J (theta_t' - (Q theta) . kappa) t

    where each primed quantity is expanded with (t (x) t)' = t (x) kappa +
    kappa (x) t, so the curvature enters explicitly.
    """
    s, fr, st = _samples(solution, s)
    t, k = fr.t, fr.kappa
    EA, GA, EI, GJ = _section_matrices(solution, t)
    theta, dtheta = _rotation_state(t, k, st, solution.form.euler_bernoulli)

    u_t = _dot(t, st.u)
    Qu = st.u - u_t * t
    th_t = _dot(t, theta)
    Qth = theta - th_t * t
    # d/ds of tangential components and of projected fields
    du_t = _dot(k, st.u) + _dot(t, st.du)
    dth_t = _dot(k, theta) + _dot(t, dtheta)
    dQu = st.du - t * _dot(k, st.u) - k * u_t          # (t.grad)(Q u)
    dQth = dtheta - t * _dot(k, theta) - k * th_t      # (t.grad)(Q theta)

    QdQu = dQu - t * _dot(t, dQu)
    if solution.form.euler_bernoulli:
        S = np.zeros((len(s), 3))
    else:
        S = GA * (QdQu - np.cross(Qth, t) + u_t * k)
    return Resultants(s=s, N=EA * (du_t - _dot(Qu, k)) * t, S=S,
                      M=(EI @ (dQth + th_t * k)[:, :, None])[:, :, 0],
                      T=GJ * (dth_t - _dot(Qth, k)) * t)


def shear_angle(solution: SolutionFields, s) -> np.ndarray:
    """Normal-plane shear angle Q gamma with (Q gamma) x t = Q u' - (Q theta) x t.

    Recovered as Q gamma = t x (Q u') - Q theta; exactly zero for
    Euler-Bernoulli kinematics, where cross-sections stay normal.
    """
    if solution.form.euler_bernoulli:
        return np.zeros((np.size(s), 3))
    _, fr, st = _samples(solution, s)
    t = fr.t
    Qdu = st.du - _dot(t, st.du) * t
    Qth = st.theta - _dot(t, st.theta) * t
    return np.cross(t, Qdu) - Qth


def sample_points(solution: SolutionFields) -> np.ndarray:
    """Default resultant sampling: the interior points of the full Gauss rule
    (superconvergent for the reduced-integrated terms), element by element."""
    mesh = solution.mesh
    rule = gauss_rule(solution.form.full_points)
    return rule.on_element(mesh.nodes[:-1, None], np.diff(mesh.nodes)[:, None])[0].ravel()


def displacement_samples(solution: SolutionFields, s) -> tuple[np.ndarray, np.ndarray]:
    """(u, theta) sampled at the given arc lengths; theta is reconstructed
    for Euler-Bernoulli solutions."""
    s, fr, st = _samples(solution, s)
    theta, _ = _rotation_state(fr.t, fr.kappa, st, solution.form.euler_bernoulli)
    return st.u, theta


def tip_displacement(solution: SolutionFields) -> np.ndarray:
    return solution.evaluate(solution.mesh.length).u


def strain_energy(solution: SolutionFields) -> float:
    """Strain energy 0.5 x.K x of a solved system, from the work identity
    x.K x = f.x - lambda.g (solve verifies K x + B^T lambda = f, and its
    gauge rows have g = 0). The quadratic form itself cancels about nine
    digits on stiff models; the work identity keeps them."""
    system = solution.system
    return 0.5 * (float(system.rhs @ solution.x) - float(solution.multipliers @ system.g))


def reactions(solution: SolutionFields) -> dict:
    """Reaction force and moment at each end, recovered from the multipliers.

    The generalized constraint force is -B^T lambda, so each multiplier row
    contributes -lambda times its reaction direction.
    """
    out = {end: {"force": np.zeros(3), "moment": np.zeros(3)} for end in ("start", "end")}
    for lam, info in zip(solution.multipliers, solution.system.rows_info):
        out[info.end][info.category] -= lam * info.reaction_dir
    return out


def applied_load_totals(solution: SolutionFields) -> np.ndarray:
    """Total applied force, computed as the load functional on the three
    rigid translations (exact for the discrete system)."""
    from .solver import rigid_modes
    Z = rigid_modes(solution.system)
    return np.array([float(solution.system.rhs @ Z[:, a]) for a in range(3)])


def reaction_force_totals(solution: SolutionFields) -> np.ndarray:
    """Total constraint force on the three rigid translations."""
    from .solver import rigid_modes
    Z = rigid_modes(solution.system)
    return -solution.multipliers @ np.asarray(solution.system.B @ Z[:, :3])


_CSV_BLOCK = 256    # rows per % call: the text held at once stays bounded


def _write_csv(path: str, header: str, rows: np.ndarray):
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for block in (rows[i:i + _CSV_BLOCK] for i in range(0, len(rows), _CSV_BLOCK)):
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def export(solution: SolutionFields, out_dir: str, n_samples: int = 101) -> dict[str, str]:
    """Write centerline.csv and resultants.csv (17 significant digits)."""
    os.makedirs(out_dir, exist_ok=True)
    s, fr, st = _samples(solution, np.linspace(0.0, solution.mesh.length, n_samples))
    th, _ = _rotation_state(fr.t, fr.kappa, st, solution.form.euler_bernoulli)
    center = np.column_stack([s, fr.x, st.u, th])
    res = _resultants(solution, s, fr, st)
    res_rows = np.column_stack([s, res.N, res.S, res.M, res.T])

    paths = {
        "centerline": os.path.join(out_dir, "centerline.csv"),
        "resultants": os.path.join(out_dir, "resultants.csv"),
    }
    _write_csv(paths["centerline"], "s,x,y,z,ux,uy,uz,thx,thy,thz", center)
    _write_csv(paths["resultants"], "s,Nx,Ny,Nz,Sx,Sy,Sz,Mx,My,Mz,Tx,Ty,Tz", res_rows)
    return paths
