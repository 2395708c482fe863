"""Interpolation of given field functions onto a discrete space, for
manufactured-field checks."""
import numpy as np

from cartbeam.solver import SolutionFields


def interpolated_solution(system, u=None, du=None, theta=None, dtheta=None,
                          theta_t=None) -> SolutionFields:
    """A SolutionFields whose nodal DOFs take the values of the given field
    functions, with zero multipliers; du/dtheta supply Hermite slope DOFs."""
    dm = system.dofmap
    x = np.zeros(dm.ndof)
    fns = {"u": (u, du), "theta": (theta, dtheta), "theta_t": (theta_t, None)}
    for name, info in dm.fields.items():
        fn, dfn = fns[name]
        if fn is None:
            continue
        for i, s in enumerate(info.node_s):
            val = np.atleast_1d(np.asarray(fn(s), dtype=float))
            x[info.node_dofs[i][:info.ncomp]] = val
            if info.kind == "H3":
                if dfn is None:
                    raise ValueError(f"{name}: H3 interpolation needs the slope function")
                x[info.node_dofs[i][info.ncomp:]] = np.atleast_1d(np.asarray(dfn(s), float))
    return SolutionFields(system=system, x=x, multipliers=np.zeros(system.n_constraints))
