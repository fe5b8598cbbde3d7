"""Per-class orchestration of the cycle optimization.

For each persistence class the relaxation policy picks the admissible birth
b' (the class birth, or death - epsilon).  The class's LP, over the
simplices alive at b', is built once; the kinds differ only in its cost
vector, so each kind swaps the cost in and solves.  Solutions are rounded
back to F2 and verified to still be cycles; a failed rounding falls back to
reporting the fractional support, flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .complexes import F2, REAL, Chain, Filtration, _boundary_columns, boundary
from .lp import ROUND_TOL, CycleSolution, build_lp, restrict_sets, solve
from .reduction import PersistencePair, ReducedDecomposition
from .weights import weights_for, support_dispersion

FULL = "full"
FRACTION = "fraction"
ABSOLUTE = "absolute"


@dataclass
class RelaxationPolicy:
    mode: str
    rho: Optional[float] = None
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.mode not in (FULL, FRACTION, ABSOLUTE):
            raise ValueError(f"unknown relaxation mode {self.mode!r}")
        if self.mode == FRACTION:
            if self.rho is None or not 0 < self.rho <= 1:
                raise ValueError("fraction policy needs rho in (0, 1]")
        if self.mode == ABSOLUTE:
            if self.epsilon is None or not self.epsilon > 0:
                raise ValueError("absolute policy needs a positive bound")

    @classmethod
    def full(cls) -> "RelaxationPolicy":
        return cls(mode=FULL)

    @classmethod
    def fraction(cls, rho: float) -> "RelaxationPolicy":
        return cls(mode=FRACTION, rho=rho)

    @classmethod
    def absolute(cls, epsilon: float) -> "RelaxationPolicy":
        return cls(mode=ABSOLUTE, epsilon=epsilon)

    def relaxed_birth(self, pair: PersistencePair, f: Filtration) -> float:
        if self.mode == FULL:
            return pair.birth
        if pair.essential:
            raise ValueError(
                f"{self.mode} policy undefined for essential classes"
            )
        if self.mode == FRACTION:
            eps = self.rho * (pair.death - pair.birth)
        else:
            eps = self.epsilon
            smallest = float(f.values[0])
            if eps > pair.death - smallest:
                raise ValueError("relaxation bound exceeds death value range")
        return pair.death - eps

    def describe(self) -> dict:
        out = {"mode": self.mode}
        if self.rho is not None:
            out["rho"] = self.rho
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        return out


@dataclass
class OptimizedRepresentative:
    pair: PersistencePair
    policy: RelaxationPolicy
    loss_kind: str
    solution: CycleSolution
    dispersion: float
    relaxed_birth: float
    rounded: Optional[Chain]      # F2 rounding, None when rounding failed

    @property
    def rounded_is_cycle(self) -> bool:
        return self.rounded is not None


def _optimize_pair(
    pair: PersistencePair,
    policy: RelaxationPolicy,
    kinds,
    f: Filtration,
    dec: ReducedDecomposition,
    labels,
) -> list[OptimizedRepresentative]:
    """Build the class's LP at the relaxed birth once, then solve it under
    each kind's cost."""
    p = pair.dim
    b_relaxed = policy.relaxed_birth(pair, f)
    if b_relaxed < pair.birth - 1e-9 * (1 + abs(pair.birth)):
        raise ValueError("initial representative not alive at relaxed birth")
    P, Qhat = restrict_sets(f, dec, p, b_relaxed)
    verts = f.levels[p][f.rows[P]]
    weights = [weights_for(kind, verts, labels) for kind in kinds]
    bd = _boundary_columns(f, p, np.searchsorted(f.dim_indices(p + 1), Qhat), REAL)
    lp = build_lp(P, Qhat, pair.initial_rep, weights[0], bd, f)
    out = []
    for kind, W in zip(kinds, weights):
        sol = solve(replace(lp, cost=W.column_costs))
        ints = np.rint(sol.c)
        rounded = None
        if np.max(np.abs(sol.c - ints), initial=0.0) <= ROUND_TOL:
            entries = {int(lp.P[j]): 1 for j in np.flatnonzero(ints.astype(int) % 2)}
            cand = Chain(p, entries)
            if p == 0 or not cand or not boundary(cand, f, F2):
                rounded = cand
        support = verts[np.searchsorted(P, sol.support)]  # P ascends
        dispersion = support_dispersion(support, labels) if len(support) else 0.0
        out.append(OptimizedRepresentative(
            pair=pair, policy=policy, loss_kind=kind, solution=sol,
            dispersion=dispersion, relaxed_birth=b_relaxed, rounded=rounded,
        ))
    return out


def optimize_class(
    pair: PersistencePair,
    policy: RelaxationPolicy,
    kind: str,
    f: Filtration,
    dec: ReducedDecomposition,
    labels,
) -> OptimizedRepresentative:
    """Optimize one class: restrict at the relaxed birth, weight, solve."""
    return _optimize_pair(pair, policy, [kind], f, dec, labels)[0]


def significance_threshold(pairs, bound: Optional[float] = None) -> float:
    """User bound, or half the largest finite persistence in the diagram."""
    if bound is not None:
        if math.isnan(bound):
            raise ValueError("significance bound must not be NaN")
        return bound
    finite = [pr.persistence for pr in pairs if not pr.essential]
    if not finite:
        return 0.0
    return 0.5 * max(finite)


def significant_pairs(pairs, bound: Optional[float] = None):
    thr = significance_threshold(pairs, bound)
    keep = [pr for pr in pairs if pr.essential or pr.persistence >= thr]
    keep.sort(key=lambda pr: (-pr.persistence, pr.birth, pr.birth_simplex))
    return keep


def optimize_all(
    pairs,
    policy: RelaxationPolicy,
    kinds,
    f: Filtration,
    dec: ReducedDecomposition,
    labels,
    significance: Optional[float] = None,
) -> list[OptimizedRepresentative]:
    """One result per significant pair and requested kind, ordered by
    (persistence desc, kind order)."""
    if not kinds:
        return []
    return [
        rep
        for pr in significant_pairs(pairs, significance)
        for rep in _optimize_pair(pr, policy, kinds, f, dec, labels)
    ]
