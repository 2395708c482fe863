"""Resultants, reactions, energies, and CSV export.

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

import numbers
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
    """u at s = L: the end node's u value DOFs, every basis being nodal there
    (`DofMap.end_dofs`). Adding 0.0 turns a -0.0 into the +0.0 that
    `evaluate` gives."""
    return solution.x[solution.system.dofmap.fields["u"].node_dofs[-1, :3]] + 0.0


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


# CSV cells are formatted with array operations and come out exactly as
# '%.17g' % v. The 17 significant digits of |v| are D = round(|v| 10^(16-k)),
# k = floor(log10 |v|), from a double-double product with a (hi, lo) table of
# 10^(16-k) (Dekker, "A floating-point technique for extending the available
# precision", 1971); its error stays below 2^-43. Python's own formatting
# takes what that cannot decide: a fraction within 2^-30 of one half (a
# possible tie), an exponent not settled after two corrections, and values
# that are not finite or lie outside [1e-250, 1e250].
#
# A 32-byte cell holds the sign and the "0.000" prefix in bytes 0-5, integer
# digit j at 8 + j, the point at 8 + nint, fraction digit j at 9 + j, the
# exponent in bytes 26-30 and the separator in 31; every unused byte is NUL
# and is dropped when a block is written. nint, the number of digits before
# the point, is k + 1 in fixed notation (-4 <= k < 17, 0 for k < 0) and 1 in
# exponent notation.

_CSV_BLOCK = 512    # rows formatted at once: the writer's transient memory stays bounded
_K = 254            # exponents k in [-_K, _K] have table rows: [1e-250, 1e250] and two corrections


def _split(a):
    """Dekker's split of a into a 26-bit high part and the rest."""
    c = a * 134217729.0     # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _tables():
    """Per k: (hi, hi split, lo) with hi + lo = 10^(16-k), each rounded from
    the exact rational; the cells of a positive and of a negative value; and
    nint. Per nint: the integer and fraction byte masks, and the modulus
    whose remainder is the fraction's digits. The 4-digit groups as ASCII,
    then the same groups with trailing zeros as NUL."""
    p10, cells, nint = [], [], []
    for k in range(-_K, _K + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        a, b = hi.as_integer_ratio()
        p10.append((hi, *_split(hi), (num * b - a * den) / (den * b)))
        fixed = -4 <= k < 17
        pre = b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""
        exp = b"" if fixed else b"e%+03d" % k
        cells.append(b"\0" + pre.ljust(25, b"\0") + exp.ljust(5, b"\0") + b",")
        nint.append(max(k + 1, 0) if fixed else 1)
    cells = np.frombuffer(b"".join(cells), np.uint8).reshape(-1, 1, 32).repeat(2, axis=1)
    cells[:, 1, 0] = ord("-")
    pos, n = np.arange(32), np.arange(18)[:, None]
    masks = [np.where(m, 255, 0).astype(np.uint8).view("<u4")
             for m in ((pos >= 8) & (pos < 8 + n), (pos > 8 + n) & (pos < 26))]
    fmod = np.array([1] + [10 ** (17 - j) for j in range(1, 17)] + [1])
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zero_tail = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1] == 1
    groups = np.concatenate([digits + 48, np.where(zero_tail, 0, digits + 48)])
    return (np.array(p10), cells.reshape(-1, 32).view("<u4"), np.array(nint), *masks, fmod,
            groups.astype(np.uint8).view("<u4").ravel())


_P10, _CELLS, _NINT, _INT_MASK, _FRAC_MASK, _FMOD, _DIG4 = _tables()


def _py_format(v) -> bytes:
    """Python's own '%.17g', for the values the array path leaves to it."""
    return b"%.17g" % v


def _scaled(x, xh, xl, k):
    """floor(y) as int64 and y - floor(y), for y = x 10^(16-k) in double-double."""
    hi, hh, hl, lo = np.take(_P10, k + _K, axis=0).T
    p = x * hi
    t = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * lo
    r = np.floor(t)
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _format_cells(v: np.ndarray) -> np.ndarray:
    """The cells (n, 32) uint8 of the 1-d float64 array v, each ending in ','."""
    a = np.abs(v)
    ok = (a >= 1e-250) & (a <= 1e250)
    x = np.where(ok, a, 1.0)
    xh, xl = _split(x)
    k = np.floor(np.log10(x)).astype(np.int64)
    F, f = _scaled(x, xh, xl, k)
    for step in range(3):       # bring y into [10^16, 10^17)
        off = (F >= 10 ** 17).astype(np.int64) - (F < 10 ** 16)
        i = np.flatnonzero(off)
        if i.size == 0 or step == 2:
            break
        k[i] += off[i]
        F[i], f[i] = _scaled(x[i], xh[i], xl[i], k[i])
    D = F + (f > 0.5)
    up = D == 10 ** 17
    D[up] = 10 ** 16
    k += up
    python = ~ok & (a != 0) | (off != 0) | (np.abs(f - 0.5) < 2.0 ** -30)
    unset = ~ok | python            # zeros, and the values Python formats
    k[unset] = 0
    D[unset] = 0

    nint = np.take(_NINT, k + _K)
    gi = np.zeros((len(v), 8), "<u4")       # digits at bytes 8..24
    q = D // 10
    gi[:, 6] = D - 10 * q + ord("0")
    gf = np.zeros((len(v), 8), "<u4")       # digits at bytes 9..25, trailing zeros NUL
    qf = D // 100
    gf[:, 6] = np.take(_DIG4, 100 * (D - 100 * qf) + 10000)
    tail = np.where(D == 100 * qf, 10000, 0)
    for w in (5, 4, 3):
        q2, qf2 = q // 10000, qf // 10000
        gi[:, w] = np.take(_DIG4, q - 10000 * q2)
        r = qf - 10000 * qf2
        gf[:, w] = np.take(_DIG4, r + tail)
        tail[r != 0] = 0
        q, qf = q2, qf2
    gi[:, 2] = np.take(_DIG4, q)
    gf[:, 2] = np.take(_DIG4, qf + tail)

    out = np.take(_CELLS, 2 * (k + _K) + np.signbit(v), axis=0)
    out |= gi & np.take(_INT_MASK, nint, axis=0)
    out |= gf & np.take(_FRAC_MASK, nint, axis=0)
    out = out.view(np.uint8)
    point = np.flatnonzero(D % np.take(_FMOD, nint))
    out.reshape(-1)[32 * point + 8 + nint[point]] = ord(".")
    for i in np.flatnonzero(python):
        text = _py_format(v[i])
        out[i, :31] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _write_csv(path: str, header: str, rows: np.ndarray):
    """Write the header line and one line per row, each float exactly as
    '%.17g' % v writes it, formatted _CSV_BLOCK rows at a time."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            cells = _format_cells(block.ravel())
            cells.reshape(len(block), -1)[:, -1] = ord("\n")
            fh.write(cells.tobytes().translate(None, b"\0"))


def export(solution: SolutionFields, out_dir: str, n_samples: int = 101) -> dict[str, str]:
    """Write centerline.csv and resultants.csv at n_samples arc lengths
    spread evenly over [0, L], both ends included (an integer >= 2). Every
    float is written exactly as '%.17g' % v writes it, so it reads back to
    the same double."""
    if not isinstance(n_samples, numbers.Integral) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
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
