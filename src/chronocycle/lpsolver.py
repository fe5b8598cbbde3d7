"""The package's one LP solver: a thin adapter over HiGHS.

Minimizes cost.x subject to A x = b with the dual revised simplex of HiGHS
(Huangfu & Hall, "Parallelizing the dual revised simplex method", Math.
Prog. Comp. 2018).  HiGHS is reached through the bindings scipy ships with
it, ``scipy.optimize._highspy._core``, with exactly the options
``scipy.optimize.linprog(method="highs-ds")`` passes, so the vertex, the
objective and the pivots are the ones ``linprog`` returns.  The module is
private, but ``linprog`` is the only public route to it, and its Python
wrapper costs about half of each solve of this package's LPs.  The bindings
are loaded from their extension file, not through ``scipy.optimize``, whose
package import loads ``scipy.spatial``, ``scipy.linalg``, ``scipy.special``
and more, none of which an LP uses.  Every variable is nonnegative except
the last ``n_free``, which are free: HiGHS prices a free column directly, so
a signed variable needs no split into two nonnegative ones, and the vertices
get no degenerate twins.  Every status other than optimal (iteration limit,
infeasible, unbounded, numerical trouble) raises ``SolverStalled``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np


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


def _highs_bindings():
    """``scipy.optimize._highspy._core`` without the ``scipy.optimize``
    package import: the module already imported under that name, or else
    its extension file, registered under that name before it runs, so a
    later ``import scipy.optimize`` reuses this module object."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    base = os.path.join(os.path.dirname(scipy.__file__), "optimize",
                        "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location(name, base + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no HiGHS extension {base}<suffix> for the suffixes "
                      f"{importlib.machinery.EXTENSION_SUFFIXES} "
                      f"(scipy {scipy.__version__})")


def revised_simplex(cost, A, b, n_free: int = 0) -> SimplexResult:
    """One fresh HiGHS solve; the last ``n_free`` of the n columns are free.
    The bindings are loaded from their extension file on the first call,
    as ``scipy.sparse`` is imported by the first function that builds a
    sparse matrix: ``import chronocycle`` loads neither, a run that solves
    no LP never loads the bindings, and no call loads ``scipy.optimize``'s
    package."""
    import scipy.sparse as sp

    cost = np.asarray(cost, float)
    A = sp.csc_matrix(A)
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
    highs = _highs_bindings()
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
    return SimplexResult(
        x=np.array(solution.col_value),
        objective=float(info.objective_function_value),
        iterations=int(info.simplex_iteration_count),
        reduced=cost - A.T @ np.array(solution.row_dual),
    )
