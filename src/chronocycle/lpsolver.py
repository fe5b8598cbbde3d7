"""The package's one LP solver: a thin adapter over HiGHS.

Minimizes cost.x subject to A x = b with the dual revised simplex of HiGHS
(Huangfu & Hall, "Parallelizing the dual revised simplex method", Math.
Prog. Comp. 2018).  HiGHS is reached through the bindings scipy ships with
it, ``scipy.optimize._highspy._core``, with exactly the options
``scipy.optimize.linprog(method="highs-ds")`` passes, so the vertex, the
objective and the pivots are the ones ``linprog`` returns.  The module is
private, but ``linprog`` is the only public route to it, and its Python
wrapper costs about half of each solve of this package's LPs.  The bindings
are loaded from their extension file (``_extensions``), not through
``scipy.optimize``, whose package import loads ``scipy.spatial``,
``scipy.linalg``, ``scipy.special`` and more, none of which an LP uses.  The
constraint matrix comes as plain CSC arrays, which HiGHS takes as they are,
and the reduced costs are summed from them by numpy, so a solve imports no
``scipy.sparse`` either.  Every variable is nonnegative except the last
``n_free``, which are free: HiGHS prices a free column directly, so a
signed variable needs no split into two nonnegative ones, and the vertices
get no degenerate twins.  Every status other than optimal (iteration limit,
infeasible, unbounded, numerical trouble) raises ``SolverStalled``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._extensions import _scipy_extension


# HiGHS's simplex and interior-point iteration limits; past it, SolverStalled
PIVOT_CAP = 10**6


class SolverStalled(RuntimeError):
    """The solver stopped without an optimal solution."""


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int
    reduced: np.ndarray    # reduced costs cost - A^T y at the optimum


def revised_simplex(cost, A, b, n_free: int = 0) -> SimplexResult:
    """One fresh HiGHS solve; the last ``n_free`` of the n columns are free.
    ``A`` is any CSC matrix with ``indptr``, ``indices``, ``data`` and
    ``shape`` (an ``lp.CSC`` record, or a scipy ``csc_matrix``), whose
    arrays HiGHS takes as they are.  The bindings are loaded from their
    extension file on the first call: ``import chronocycle`` does not load
    them, a run that solves no LP never does, and no call imports a scipy
    package."""
    cost = np.asarray(cost, float)
    b = np.asarray(b, float)
    m, n = A.shape
    # HiGHS answers these with a wrong "optimum", not an error
    if cost.shape != (n,) or b.shape != (m,):
        raise ValueError(f"LP shapes disagree: A {A.shape}, cost "
                         f"{cost.shape}, b {b.shape}")
    if not all(np.isfinite(v).all() for v in (cost, b, A.data)):
        raise ValueError("LP data must be finite")
    # a slice from n - n_free would wrap for n_free outside [0, n]
    if not 0 <= n_free <= n:
        raise ValueError(f"n_free = {n_free} is outside [0, {n}]")
    highs = _scipy_extension("optimize/_highspy/_core")
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    lp.col_cost_ = cost
    lower = np.zeros(n)
    lower[n - n_free :] = -highs.kHighsInf
    lp.col_lower_ = lower
    lp.col_upper_ = np.full(n, highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b

    options = highs.HighsOptions()
    options.presolve = "on"
    options.solver = "simplex"
    options.simplex_strategy = 1    # dual
    options.simplex_iteration_limit = options.ipm_iteration_limit = PIVOT_CAP
    options.output_flag = options.log_to_console = False
    options.highs_debug_level = 0
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverStalled(
            f"solver stopped: {solver.modelStatusToString(status).lower()}"
        )
    solution = solver.getSolution()
    info = solver.getInfo()
    # A^T y as one sum per column over its entries in order, which is the
    # order scipy's matvec sums them in
    y = np.array(solution.row_dual)
    column = np.repeat(np.arange(n), np.diff(A.indptr))
    return SimplexResult(
        x=np.array(solution.col_value),
        objective=float(info.objective_function_value),
        iterations=int(info.simplex_iteration_count),
        reduced=cost - np.bincount(column, A.data * y[A.indices], minlength=n),
    )
