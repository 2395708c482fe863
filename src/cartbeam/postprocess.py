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


def _rotation_state(t: np.ndarray, k: np.ndarray, st: FieldState, euler_bernoulli: bool):
    """(theta, dtheta) at a point with tangent t and curvature vector k, with
    the Euler-Bernoulli rotation reconstructed as theta = t x u' + t theta_t."""
    if not euler_bernoulli:
        return st.theta, st.dtheta
    theta = np.cross(t, st.du) + t * st.theta_t
    dtheta = (np.cross(k, st.du) + np.cross(t, st.d2u)
              + k * st.theta_t + t * st.dtheta_t)
    return theta, dtheta


def _section_matrices(solution: SolutionFields, t: np.ndarray):
    from .section import inertia_tensor
    mat = solution.model.material
    sec = solution.model.section
    return mat.E * sec.area, mat.G * sec.area, mat.E * inertia_tensor(sec, t), \
        mat.G * sec.polar


def _samples(solution: SolutionFields, s) -> tuple[np.ndarray, FrameSample]:
    """The arc lengths as a 1-d array and their frames, from one batch query."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return s, solution.model.curve.frames(s)


def resultants(solution: SolutionFields, s) -> Resultants:
    """Plain resultant forms sampled at the given arc lengths."""
    s, fr = _samples(solution, s)
    out = {q: np.zeros((len(s), 3)) for q in "NSMT"}
    eb = solution.form.euler_bernoulli
    for i, si in enumerate(s):
        t = fr.t[i]
        st = solution.evaluate(float(si))
        EA, GA, EI, GJ = _section_matrices(solution, t)
        theta, dtheta = _rotation_state(t, fr.kappa[i], st, eb)
        out["N"][i] = EA * float(t @ st.du) * t
        if eb:
            out["S"][i] = 0.0
        else:
            out["S"][i] = GA * (st.du - float(t @ st.du) * t - np.cross(theta, t))
        out["M"][i] = EI @ dtheta
        out["T"][i] = GJ * float(t @ dtheta) * t
    return Resultants(s=s, N=out["N"], S=out["S"], M=out["M"], T=out["T"])


def resultants_curvature_form(solution: SolutionFields, s) -> Resultants:
    """Curvature-separated resultant forms:

    N = E|A| (u_t' - (Q u) . kappa) t
    S = G|A| (Q (Q u)' - (Q theta) x t + u_t kappa)
    M = E I_sigma ((Q theta)' + theta_t kappa)
    T = G J (theta_t' - (Q theta) . kappa) t

    where each primed quantity is expanded with (t (x) t)' = t (x) kappa +
    kappa (x) t, so the curvature enters explicitly.
    """
    s, fr = _samples(solution, s)
    out = {q: np.zeros((len(s), 3)) for q in "NSMT"}
    eb = solution.form.euler_bernoulli
    for i, si in enumerate(s):
        t, k = fr.t[i], fr.kappa[i]
        st = solution.evaluate(float(si))
        EA, GA, EI, GJ = _section_matrices(solution, t)
        theta, dtheta = _rotation_state(t, k, st, eb)

        u_t = float(t @ st.u)
        Qu = st.u - u_t * t
        th_t = float(t @ theta)
        Qth = theta - th_t * t
        # d/ds of tangential components and of projected fields
        du_t = float(k @ st.u) + float(t @ st.du)
        dth_t = float(k @ theta) + float(t @ dtheta)
        dQu = st.du - t * float(k @ st.u) - k * u_t          # (t.grad)(Q u)
        dQth = dtheta - t * float(k @ theta) - k * th_t      # (t.grad)(Q theta)

        out["N"][i] = EA * (du_t - float(Qu @ k)) * t
        QdQu = dQu - t * float(t @ dQu)
        out["S"][i] = 0.0 if eb else GA * (QdQu - np.cross(Qth, t) + u_t * k)
        out["M"][i] = EI @ (dQth + th_t * k)
        out["T"][i] = GJ * (dth_t - float(Qth @ k)) * t
    return Resultants(s=s, N=out["N"], S=out["S"], M=out["M"], T=out["T"])


def shear_angle(solution: SolutionFields, s) -> np.ndarray:
    """Normal-plane shear angle Q gamma with (Q gamma) x t = Q u' - (Q theta) x t.

    Recovered as Q gamma = t x (Q u') - Q theta; exactly zero for
    Euler-Bernoulli kinematics, where cross-sections stay normal.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros((len(s), 3))
    if solution.form.euler_bernoulli:
        return out
    fr = solution.model.curve.frames(s)
    for i, si in enumerate(s):
        t = fr.t[i]
        st = solution.evaluate(float(si))
        Qdu = st.du - float(t @ st.du) * t
        Qth = st.theta - float(t @ st.theta) * t
        out[i] = np.cross(t, Qdu) - Qth
    return out


def sample_points(solution: SolutionFields, mode: str = "quadrature",
                  n: int | None = None) -> np.ndarray:
    """Default resultant sampling: interior quadrature points (superconvergent
    for the reduced-integrated terms) or uniform/element-end points."""
    mesh = solution.mesh
    if mode == "uniform":
        return np.linspace(0.0, mesh.length, n or 101)
    if mode == "element_ends":
        return mesh.nodes.copy()
    if mode == "quadrature":
        from .discretization import quadrature
        rule = quadrature(solution.form, "full").bend
        pts = [rule.on_element(*mesh.element(e))[0] for e in range(mesh.n_elements)]
        return np.concatenate(pts)
    raise ValueError(f"unknown sampling mode {mode!r}")


def displacement_samples(solution: SolutionFields, s) -> tuple[np.ndarray, np.ndarray]:
    """(u, theta) sampled at the given arc lengths; theta is reconstructed
    for Euler-Bernoulli solutions."""
    s, fr = _samples(solution, s)
    u = np.zeros((len(s), 3))
    th = np.zeros((len(s), 3))
    for i, si in enumerate(s):
        st = solution.evaluate(float(si))
        u[i] = st.u
        th[i], _ = _rotation_state(fr.t[i], fr.kappa[i], st, solution.form.euler_bernoulli)
    return u, th


def tip_displacement(solution: SolutionFields) -> np.ndarray:
    return solution.evaluate(solution.mesh.length).u


def strain_energy(solution: SolutionFields) -> float:
    return 0.5 * float(solution.x @ (solution.system.K @ solution.x))


def reactions(solution: SolutionFields) -> dict:
    """Reaction force and moment at each end, recovered from the multipliers.

    The generalized constraint force is -B^T lambda, so each multiplier row
    contributes -lambda times its reaction direction.
    """
    out = {end: {"force": np.zeros(3), "moment": np.zeros(3)} for end in ("start", "end")}
    for lam, info in zip(solution.multipliers, solution.system.rows_info):
        if info.reaction_dir is None:
            continue
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
    if solution.system.n_constraints == 0:
        return np.zeros(3)
    BZ = np.asarray(solution.system.B @ Z[:, :3])
    return -(solution.multipliers @ BZ)


_FMT = "{:.17g}"


def _write_csv(path: str, header: str, rows: np.ndarray):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_FMT.format(v) for v in row) + "\n")


def export(solution: SolutionFields, out_dir: str, n_samples: int = 101) -> dict[str, str]:
    """Write centerline.csv and resultants.csv (17 significant digits)."""
    os.makedirs(out_dir, exist_ok=True)
    s = np.linspace(0.0, solution.mesh.length, n_samples)
    u, th = displacement_samples(solution, s)
    xs = solution.model.curve.frames(s).x
    center = np.column_stack([s, xs, u, th])
    res = resultants(solution, s)
    res_rows = np.column_stack([s, res.N, res.S, res.M, res.T])

    paths = {
        "centerline": os.path.join(out_dir, "centerline.csv"),
        "resultants": os.path.join(out_dir, "resultants.csv"),
    }
    _write_csv(paths["centerline"], "s,x,y,z,ux,uy,uz,thx,thy,thz", center)
    _write_csv(paths["resultants"], "s,Nx,Ny,Nz,Sx,Sy,Sz,Mx,My,Mz,Tx,Ty,Tz", res_rows)
    return paths
