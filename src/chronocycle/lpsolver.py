"""The package's one LP solver: a thin adapter over HiGHS.

Minimizes cost.x subject to A x = b with the dual revised simplex of HiGHS
(Huangfu & Hall, "Parallelizing the dual revised simplex method", Math.
Prog. Comp. 2018), reached through ``scipy.optimize.linprog``.  Every
variable is nonnegative except the last ``n_free``, which are free: HiGHS
prices a free column directly, so a signed variable needs no split into two
nonnegative ones, and the vertices get no degenerate twins.  Every status
other than optimal (iteration limit, infeasible, unbounded, numerical
trouble) raises ``SolverStalled``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


class SolverStalled(RuntimeError):
    """The solver stopped without an optimal solution."""


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int
    reduced: np.ndarray    # reduced costs cost - A^T y at the optimum


def revised_simplex(
    cost, A, b, pivot_cap: int = 10**6, n_free: int = 0
) -> SimplexResult:
    cost = np.asarray(cost, float)
    A = sp.csc_matrix(A)
    bounds = np.zeros((len(cost), 2))
    bounds[:, 1] = np.inf
    bounds[len(cost) - n_free :, 0] = -np.inf
    res = linprog(
        cost, A_eq=A, b_eq=np.asarray(b, float), bounds=bounds,
        method="highs-ds", options={"maxiter": pivot_cap},
    )
    if res.status != 0:
        raise SolverStalled(f"solver stopped: {res.message}")
    return SimplexResult(
        x=res.x,
        objective=float(res.fun),
        iterations=int(res.nit),
        reduced=cost - A.T @ res.eqlin.marginals,
    )
