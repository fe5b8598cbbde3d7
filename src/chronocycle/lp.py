"""Optimal homologous cycle LP.

Given an F2 cycle c0 born at b, the optimization searches the real affine
space c = c0 + boundary(w) over the (p+1)-simplices alive at b whose reduced
columns are nonzero, minimizing the weighted l1 objective
sum_j cost_j (c_j+ + c_j-) with cost_j the weight matrix's column cost.
The cycle c is split into nonnegative parts c+ and c-, so its l1 norm is
linear; the boundary coefficients w stay free columns, which HiGHS takes
as they are.

Tie rule: when several supports reach the optimum, the one returned
minimizes sum_j (1 + j) |c_j| among all optima, with j the position of the
p-simplex in filtration order.  ``solve`` enforces it with a second pass
over the optimal face.  The rule is not yet a total order: distinct
supports can share the least sum, and then the solver's path picks one.

An exhaustive F2 oracle over subsets of the free columns validates the LP on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import BoundaryMatrix, Chain, Filtration, _positions, orient_chain
from .lpsolver import SolverStalled, revised_simplex
from .reduction import ReducedDecomposition
from .weights import WeightMatrix

RESIDUAL_TOL = 1e-8
ROUND_TOL = 1e-6
TIE_TOL = 1e-9     # reduced costs at most this (relative) count as zero


@dataclass(eq=False)
class CSC:
    """Compressed sparse columns, the arrays HiGHS takes as they are: column
    j's rows are ``indices[indptr[j]:indptr[j + 1]]`` and its values the
    same slice of ``data``.  Built here only, for the solver."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


@dataclass
class CycleLP:
    """The class at its relaxed birth b', in local positions: row i is P[i],
    and on the optimization's path P is the alive prefix, the first
    m = len(P) p-simplices in filtration order.  A is CSC over the boundary
    block's face table: each free column's p + 2 rows, ascending and all
    below m, with the block's signs; c0's nonzeros are the lifted initial
    cycle's rows and signs."""

    P: np.ndarray          # global indices of admissible p-simplices
    A: CSC                 # signed boundary, rows over P, one column per free simplex
    c0: np.ndarray         # +-1 lift of the initial representative over P
    cost: np.ndarray       # per-variable cost, the weight matrix's column costs


@dataclass
class CycleSolution:
    c: np.ndarray
    w: np.ndarray
    objective: float
    support: list[int]     # global indices of simplices with |c_j| > ROUND_TOL
    support_coefficients: list[float]
    residual: float
    iterations: int


def restrict_sets(
    f: Filtration, dec: ReducedDecomposition, p: int, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """P = p-simplices alive at b; Qhat = alive (p+1)-simplices with nonzero
    reduced column (the LP's free directions)."""
    # f.values ascend in filtration order: the alive simplices come first
    cut = np.searchsorted(f.values, b + 1e-9 * (1 + abs(b)), side="right")
    P = f.dim_indices(p)[: np.searchsorted(f.dim_indices(p), cut)]
    if len(P) == 0:
        raise ValueError("no simplices alive")
    blk = dec.blocks.get(p + 1)
    if blk is None:
        return P, np.array([], dtype=int)
    # a column's low is -1 exactly when its reduced column is zero
    low = blk.low[: np.searchsorted(f.dim_indices(p + 1), cut)]
    return P, blk.cols[np.flatnonzero(low >= 0)]


def _lookup(ids, among: np.ndarray, what: str) -> np.ndarray:
    """Positions of ids in the ascending ``among``; raises naming an id not there."""
    missing = np.setdiff1d(ids, among)
    if len(missing):
        raise ValueError(f"id {missing[0]} is not {what}")
    return np.searchsorted(among, ids)


def build_lp(
    P,
    Qhat,
    c0: Chain,
    W: WeightMatrix,
    bd: BoundaryMatrix,
    f: Filtration,
) -> CycleLP:
    """Assemble the signed constraint system c - A w = c0 over P, reading A
    from ``bd``, any boundary block that holds Qhat's columns, and c0 as the
    real lift ``orient_chain`` gives, which raises unless c0 is a cycle.
    One table of each p-simplex's row in P, -1 outside it, maps the face
    rows of Qhat's columns to A's and the lift's local positions to c0's."""
    P = np.asarray(P, dtype=int)
    lifted = orient_chain(c0, f)
    row = np.full(f.n_simplices(c0.dim), -1)
    row[_positions(P, c0.dim, f)] = np.arange(len(P))
    at = _lookup(Qhat, bd.cols, "a column of bd")
    faces = row[bd.faces[at]]
    if np.any(faces < 0):  # closure: every face of a free simplex is admissible
        raise ValueError("free column has faces outside P")
    q, k = faces.shape
    A = CSC(np.arange(0, faces.size + 1, k), faces.ravel(), bd.signs[at].ravel(),
            (len(P), q))
    c0_rows = row[_positions(lifted.entries, lifted.dim, f)]
    if np.any(c0_rows < 0):
        raise ValueError("initial cycle not supported inside P")
    c0_vec = np.zeros(len(P))
    c0_vec[c0_rows] = list(lifted.entries.values())
    return CycleLP(P=P, A=A, c0=c0_vec, cost=W.column_costs)


def _standard_form(A: CSC, plus: np.ndarray, minus: np.ndarray) -> CSC:
    """[I, -I, -A] over (c+, c-, w): the c+ columns of the rows ``plus``, the
    c- columns of the rows ``minus``, and w the q trailing free columns."""
    m, q = A.shape
    units = len(plus) + len(minus)
    return CSC(
        indptr=np.concatenate([np.arange(units), A.indptr + units]),
        indices=np.concatenate([plus, minus, A.indices]),
        data=np.concatenate([np.ones(len(plus)), np.full(len(minus), -1.0), -A.data]),
        shape=(m, units + q),
    )


def solve(lp: CycleLP) -> CycleSolution:
    """Solve to an optimal vertex, picked among tied optima by the tie rule,
    and extract the rounded support.

    Pass 1 minimizes the time-aware cost over (c+, c-, w), w free.  Pass 2
    drops every c+ or c- variable whose pass-1 reduced cost is positive,
    which by complementary slackness leaves the optimal face: every optimum
    and nothing else.  Every free w column stays, as its reduced cost is
    zero at any optimum.  Over that face pass 2 minimizes
    sum_j (1 + j) |c_j|, with j the position of the p-simplex in filtration
    order, so ties go to supports of early simplices.  A non-optimal solver
    status or a residual out of tolerance raises ``SolverStalled``.
    """
    m, q = lp.A.shape
    rows = np.arange(m)
    cost_std = np.concatenate([lp.cost, lp.cost, np.zeros(q)])
    first = revised_simplex(cost_std, _standard_form(lp.A, rows, rows), lp.c0, n_free=q)
    face = first.reduced <= TIE_TOL * (1 + float(np.max(cost_std, initial=0)))
    face[2 * m :] = True
    plus, minus = np.flatnonzero(face[:m]), np.flatnonzero(face[m : 2 * m])
    tie_cost = np.concatenate([plus + 1.0, minus + 1.0, np.zeros(q)])
    second = revised_simplex(tie_cost, _standard_form(lp.A, plus, minus), lp.c0,
                             n_free=q)
    x = np.zeros(len(cost_std))
    x[face] = second.x

    c = x[:m] - x[m : 2 * m]
    w = x[2 * m :]
    # A w summed over A's entries in order, as scipy's matvec sums them
    Aw = np.bincount(lp.A.indices, lp.A.data * np.repeat(w, np.diff(lp.A.indptr)),
                     minlength=m)
    residual = float(np.max(np.abs(c - lp.c0 - Aw), initial=0.0))
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
    if len(Qhat) > 20:
        raise ValueError("too many free columns for exhaustive search")
    m = len(P)
    n_words = max(1, (m + 63) >> 6)
    row = np.full(len(bd.rows), -1)  # the row in P of each of bd's rows, or -1
    row[_lookup(P, bd.rows, "a p-simplex")] = np.arange(m)

    masks = np.zeros((1, n_words), dtype=np.uint64)
    masks[0] = _pack_column(row[_lookup(c0.support, bd.rows, "a p-simplex")], n_words)
    for j in _lookup(Qhat, bd.cols, "a column of bd"):
        col = _pack_column(row[bd.faces[j]], n_words)
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
