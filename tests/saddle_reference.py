"""A reference route to the equilibrated saddle band: one (row, column,
value) triplet per nonzero, summed into LAPACK band storage by a bincount
and equilibrated entry by entry. The solver writes the band from element
0's slot tables instead; its band, scaling and right-hand side must equal
these bit for bit."""
import numpy as np

from cartbeam.assembly import _block_entries


def band_layout(system, k, stiff):
    """The band position of each saddle unknown, indexed in the order [x,
    stiff, lambda, gauge] (`stiff`'s unknowns in element order), and the
    half-bandwidth; a condensed DOF (a P2 midline's midpoint) gets -1. Node
    i's DOFs (each field's vertex node) come first, then the stiff unknowns
    of element i and its interior angle DOFs, then node i + 1. The start
    multipliers and the k gauge rows come before node 0, the end
    multipliers after the last node."""
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


def saddle_entries(system, V, stiff):
    """The saddle matrix A = [[K_soft, X^T], [X, E]], X = [stiff rows; B;
    gauge], E = diag(-comp, 0), as (rows, columns, values) in the order of
    `band_layout`, exact zeros left out, K_soft's shared-node slots given
    twice; then the right-hand side [stiff.rhs, stiff.rhs_s, g, 0] there,
    and the layout (pos, kl)."""
    dm = system.dofmap
    n, m, k = dm.ndof, system.n_constraints, len(V)
    n_el, s = stiff.rows.shape[:2]
    p = n_el * s
    pos, kl = band_layout(system, k, stiff)
    ek = pos[dm.element_dofs()[:, -system.K_blocks.shape[-1]:]]
    K_rows, K_cols, K_vals = _block_entries(system.K_blocks, ek, ek)
    srows = pos[n + np.arange(p).reshape(n_el, s)]
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


def band_storage(i, j, v, kl, N):
    """The N x N matrix whose (i, j) entry is the sum of the values v given
    there, equilibrated: A_ij (d_i d_j) with d_i = 1/sqrt(max_j |A_ij|), in
    LAPACK band storage with kl = ku (A[i, j] at ab[2 kl + i - j, j]); then
    d and the values scaled."""
    ldab = 3 * kl + 1
    at = 2 * kl + i + (ldab - 1) * j
    ab = np.bincount(at, v, ldab * N)
    a = ab[at]
    amax = np.zeros(N)
    np.maximum.at(amax, i, np.abs(a))
    d = 1.0 / np.sqrt(np.maximum(amax, 1e-300))
    scale = d[i] * d[j]
    ab[at] = a * scale
    return ab.reshape((ldab, N), order="F"), d, v * scale
