"""Time-aware weight matrices for cycle optimization.

Three loss kinds over a restricted p-simplex set P:

* vertex:  diagonal, entry = spread (max - min) of the simplex's own vertex
  labels;
* simplex: symmetric off-diagonal, entry = |mean label difference| between
  adjacent simplices (sharing a p-element vertex subset), zero diagonal;
* length:  identity, the plain sparsity baseline.

The effective per-variable LP cost of simplex j is the largest entry in
column j. For the diagonal kinds that is just the diagonal entry; for the
adjacency kind it charges each simplex its worst time gap to a neighbor,
so a cycle pays the sum over its edges of the largest adjacent-label
difference. Summing whole columns instead would bill every simplex for all
of its neighbors at once and drag the optimum toward sparsely connected
corners of the complex rather than time-coherent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp

VERTEX = "vertex"
SIMPLEX = "simplex"
LENGTH = "length"
KINDS = (VERTEX, SIMPLEX, LENGTH)


@dataclass
class WeightMatrix:
    kind: str
    entries: sp.csr_matrix
    column_costs: np.ndarray

    def __post_init__(self):
        if (self.entries < 0).nnz:
            raise ValueError("weight entries must be non-negative")


def simplex_time_label(s, labels) -> float:
    """Mean time label of the simplex's vertices."""
    return float(sum(float(labels[i]) for i in s) / len(s))


def vertex_weights(P, labels) -> WeightMatrix:
    """Diagonal weights: own-vertex label spread per simplex."""
    diag = np.array(
        [
            max(float(labels[v]) for v in s) - min(float(labels[v]) for v in s)
            for s in P
        ]
    )
    m = sp.diags(diag, format="csr")
    return WeightMatrix(kind=VERTEX, entries=m, column_costs=diag.copy())


def simplex_weights(P, labels) -> WeightMatrix:
    """Symmetric adjacency weights: |T(s_i) - T(s_j)| for adjacent pairs.

    Adjacency is found by grouping simplices over their p-element vertex
    subsets; two distinct simplices sharing such a subset intersect in
    exactly p vertices.
    """
    simps = list(P)
    n = len(simps)
    means = np.array([simplex_time_label(s, labels) for s in simps])
    facet_groups: dict[tuple, list[int]] = {}
    for j, s in enumerate(simps):
        for k in range(len(s)):
            facet_groups.setdefault(s[:k] + s[k + 1 :], []).append(j)
    ri, ci, data = [], [], []
    for group in facet_groups.values():
        for a, b in combinations(group, 2):
            w = abs(means[a] - means[b])
            ri.extend((a, b))
            ci.extend((b, a))
            data.extend((w, w))
    m = sp.csr_matrix(
        (np.array(data), (np.array(ri, int), np.array(ci, int))), shape=(n, n)
    )
    costs = np.zeros(n)
    coo = m.tocoo()
    np.maximum.at(costs, coo.col, coo.data)
    return WeightMatrix(kind=SIMPLEX, entries=m, column_costs=costs)


def length_weights(P) -> WeightMatrix:
    """Identity weights: objective counts support simplices."""
    n = len(list(P))
    m = sp.identity(n, format="csr")
    return WeightMatrix(kind=LENGTH, entries=m, column_costs=np.ones(n))


def weights_for(kind: str, P, labels) -> WeightMatrix:
    if kind == VERTEX:
        return vertex_weights(P, labels)
    if kind == SIMPLEX:
        return simplex_weights(P, labels)
    if kind == LENGTH:
        return length_weights(P)
    raise ValueError(f"unknown weight kind {kind!r}")


def support_dispersion(support_simplices, labels) -> float:
    """Max minus min vertex time label over the support simplices."""
    vs = [v for s in support_simplices for v in s]
    if not vs:
        raise ValueError("dispersion undefined for zero chain")
    ts = [float(labels[v]) for v in vs]
    return max(ts) - min(ts)
