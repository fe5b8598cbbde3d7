"""Optimal homologous cycle LP.

Given an F2 cycle c0 born at b, the optimization searches the real affine
space c = c0 + boundary(w) over the (p+1)-simplices alive at b whose reduced
columns are nonzero, minimizing the weighted l1 objective
sum_j cost_j (c_j+ + c_j-) with cost_j the weight matrix's column cost.
Variables split into positive/negative parts give a standard-form LP that
HiGHS solves.

Tie rule: when several supports reach the optimum, the one returned
minimizes sum_j (1 + j) |c_j| among all optima, with j the position of the
p-simplex in filtration order.  ``solve`` enforces it with a second pass
over the optimal face, so the pick depends on the LP, not on pivot order.

An exhaustive F2 oracle over subsets of the free columns validates the LP on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexes import F2, BoundaryMatrix, Chain, Filtration, boundary, orient_chain
from .lpsolver import SolverStalled, revised_simplex
from .reduction import ReducedDecomposition
from .weights import WeightMatrix

RESIDUAL_TOL = 1e-8
ROUND_TOL = 1e-6
TIE_TOL = 1e-9     # reduced costs at most this (relative) count as zero


@dataclass
class CycleLP:
    p: int
    P: np.ndarray          # global indices of admissible p-simplices
    Qhat: np.ndarray       # global indices of free (p+1)-simplices
    A: sp.csc_matrix       # signed boundary, rows over P, columns over Qhat
    c0: np.ndarray         # +1 lift of the initial representative over P
    W: WeightMatrix
    cost: np.ndarray       # effective per-variable cost (column maxima of W)


@dataclass
class CycleSolution:
    c: np.ndarray
    w: np.ndarray
    objective: float
    support: list[int]     # global indices of simplices with |c_j| > ROUND_TOL
    support_coefficients: list[float]
    residual: float
    iterations: int


def _alive_prefix(f: Filtration, dim: int, b: float) -> np.ndarray:
    idx = f.dim_indices(dim)
    if len(idx) == 0:
        return idx
    cut = np.searchsorted(f.values[idx], b + 1e-9 * (1 + abs(b)), side="right")
    return idx[:cut]


def restrict_sets(
    f: Filtration, dec: ReducedDecomposition, p: int, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """P = p-simplices alive at b; Qhat = alive (p+1)-simplices with nonzero
    reduced column (the LP's free directions)."""
    P = _alive_prefix(f, p, b)
    if len(P) == 0:
        raise ValueError("no simplices alive")
    blk = dec.blocks.get(p + 1)
    if blk is None:
        return P, np.array([], dtype=int)
    # a column's low is -1 exactly when its reduced column is zero
    low = blk.low[: len(_alive_prefix(f, p + 1, b))]
    return P, blk.cols[np.flatnonzero(low >= 0)]


def build_lp(
    P,
    Qhat,
    c0: Chain,
    W: WeightMatrix,
    bd: BoundaryMatrix,
    f: Filtration = None,
) -> CycleLP:
    """Assemble the signed constraint system c - A w = c0 over P."""
    P = np.asarray(P, dtype=int)
    Qhat = np.asarray(Qhat, dtype=int)
    p = c0.dim
    if f is None and p >= 1:
        raise ValueError("filtration required to orient the initial cycle")
    if f is not None and p >= 1:
        if boundary(c0, f, F2):
            raise ValueError("initial chain is not a cycle")
    pos_in_P = {int(g): i for i, g in enumerate(P)}
    if any(i not in pos_in_P for i in c0.entries):
        raise ValueError("initial cycle not supported inside P")
    lifted = (
        orient_chain(c0, f) if p >= 1 else Chain(0, {g: 1.0 for g in c0.entries})
    )

    row_sel = np.searchsorted(bd.rows, P)
    col_sel = np.searchsorted(bd.cols, Qhat)
    if len(Qhat):
        A = sp.csc_matrix(bd.matrix[:, col_sel][row_sel, :])
        # closure: every face of a free simplex must itself be admissible
        per_col = np.diff(A.indptr)
        if np.any(per_col != p + 2):
            raise ValueError("free column has faces outside P")
    else:
        A = sp.csc_matrix((len(P), 0))
    c0_vec = np.zeros(len(P))
    for g, sign in lifted.entries.items():
        c0_vec[pos_in_P[g]] = float(sign)
    return CycleLP(
        p=p, P=P, Qhat=Qhat, A=A, c0=c0_vec, W=W,
        cost=np.asarray(W.column_costs, float),
    )


def _standard_form(lp: CycleLP):
    m, q = lp.A.shape
    eye = sp.identity(m, format="csc")
    A_std = sp.hstack([eye, -eye, -lp.A, lp.A], format="csc")
    cost_std = np.concatenate([lp.cost, lp.cost, np.zeros(2 * q)])
    return A_std, cost_std


def solve(lp: CycleLP) -> CycleSolution:
    """Solve to an optimal vertex, picked among tied optima by the tie rule,
    and extract the rounded support.

    Pass 1 minimizes the time-aware cost.  Pass 2 drops every variable whose
    pass-1 reduced cost is positive, which by complementary slackness leaves
    the optimal face: every optimum and nothing else.  Over that face it
    minimizes sum_j (1 + j) |c_j|, with j the position of the p-simplex in
    filtration order, so ties go to supports of early simplices whatever
    the pivot order.  A non-optimal solver status or a residual out of
    tolerance raises ``SolverStalled``.
    """
    m, q = lp.A.shape
    A_std, cost_std = _standard_form(lp)
    first = revised_simplex(cost_std, A_std, lp.c0)
    face = first.reduced <= TIE_TOL * (1 + float(np.max(cost_std, initial=0)))
    rank = np.arange(1, m + 1, dtype=float)
    tie_cost = np.concatenate([rank, rank, np.zeros(2 * q)])
    second = revised_simplex(tie_cost[face], A_std[:, face], lp.c0)
    x = np.zeros(len(cost_std))
    x[face] = second.x

    c = x[:m] - x[m : 2 * m]
    w = x[2 * m : 2 * m + q] - x[2 * m + q :]
    residual = float(
        np.max(np.abs(c - lp.c0 - (lp.A @ w if q else 0)))
        if m
        else 0.0
    )
    if residual > RESIDUAL_TOL * (1 + float(np.max(np.abs(lp.c0), initial=0))):
        raise SolverStalled(f"solution residual {residual:.3e} out of tolerance")
    local = np.flatnonzero(np.abs(c) > ROUND_TOL)
    objective = float(np.dot(lp.cost, np.abs(c)))
    return CycleSolution(
        c=c,
        w=w,
        objective=objective,
        support=[int(lp.P[i]) for i in local],
        support_coefficients=[float(c[i]) for i in local],
        residual=residual,
        iterations=first.iterations + second.iterations,
    )


def support_cost(cost: np.ndarray, local_indices) -> float:
    """Cost of a support set, summed in sorted-value order so equal multisets
    of weights give bit-identical sums across implementations."""
    idx = np.asarray(sorted(local_indices), dtype=int)
    if len(idx) == 0:
        return 0.0
    return float(np.sort(np.asarray(cost, float)[idx]).sum())


def _pack_column(bits, n_words):
    out = np.zeros(n_words, dtype=np.uint64)
    for i in bits:
        out[i >> 6] |= np.uint64(1) << np.uint64(i & 63)
    return out


def oracle_optimal(P, Qhat, c0: Chain, W: WeightMatrix, bd: BoundaryMatrix,
                   return_all: bool = False):
    """Exhaustive F2 optimum over c0 + span{boundary columns of Qhat}.

    Enumerates all 2^|Qhat| combinations as packed bitmasks, scores every
    support against the weight column costs, and returns the exact minimum
    (recomputed by sorted summation).  Validation tool for small instances.
    """
    P = np.asarray(P, dtype=int)
    Qhat = np.asarray(Qhat, dtype=int)
    q = len(Qhat)
    if q > 20:
        raise ValueError("too many free columns for exhaustive search")
    m = len(P)
    n_words = max(1, (m + 63) >> 6)
    pos_in_P = {int(g): i for i, g in enumerate(P)}

    row_sel = np.searchsorted(bd.rows, P)
    col_sel = np.searchsorted(bd.cols, Qhat)
    masks = np.zeros((1, n_words), dtype=np.uint64)
    masks[0] = _pack_column([pos_in_P[g] for g in c0.entries], n_words)
    Acsc = sp.csc_matrix(bd.matrix)
    local_row = {int(r): i for i, r in enumerate(row_sel)}
    for j in col_sel:
        rows = Acsc.indices[Acsc.indptr[j] : Acsc.indptr[j + 1]]
        bits = [local_row[int(r)] for r in rows]
        col = _pack_column(bits, n_words)
        masks = np.vstack([masks, masks ^ col[None, :]])

    cost = np.zeros(64 * n_words)
    cost[:m] = np.asarray(W.column_costs, float)
    scores = np.empty(len(masks))
    chunk = 1 << 14  # keep the unpacked bit matrix small
    for lo in range(0, len(masks), chunk):
        bits = np.unpackbits(
            masks[lo : lo + chunk].view(np.uint8), axis=1, bitorder="little"
        )
        scores[lo : lo + len(bits)] = bits @ cost

    def row_bits(r):
        return np.flatnonzero(
            np.unpackbits(masks[r].view(np.uint8), bitorder="little")
        )

    # the matmul scores are a fast filter; ties between distinct supports can
    # land within a few ulp of each other, so the exact sorted-sum decides
    low = scores.min()
    near = np.flatnonzero(scores <= low + 1e-9 * (1 + abs(low)))
    exact = [(support_cost(W.column_costs, row_bits(r)), int(r)) for r in near]
    best, order = min(exact)
    if not return_all:
        return best, sorted(int(P[i]) for i in row_bits(order))
    supports = [
        sorted(int(P[i]) for i in row_bits(r)) for v, r in exact if v == best
    ]
    return best, supports
