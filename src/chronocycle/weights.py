"""Time-aware simplex costs for cycle optimization.

Each kind is one non-negative LP cost per simplex of a restricted p-simplex
set P, computed from the (m, p+1) vertex array of P and the vertex time
labels:

* vertex:  the spread (max - min) of the simplex's own vertex labels;
* simplex: the largest gap between the simplex's mean label and the mean
  label of a simplex sharing a facet (a p-element vertex subset) with it,
  zero when no other simplex of P shares one;
* length:  one, the plain sparsity baseline.

A cycle then pays, under ``simplex``, the sum over its simplices of each
one's worst time gap to a neighbor.  Summing every neighbor's gap instead
would drag the optimum toward sparsely connected corners of the complex
rather than time-coherent ones.

A ``WeightMatrix`` stores the costs once, as ``column_costs``; its
``entries`` is their diagonal matrix, built when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

VERTEX = "vertex"
SIMPLEX = "simplex"
LENGTH = "length"
KINDS = (VERTEX, SIMPLEX, LENGTH)


@dataclass
class WeightMatrix:
    """One non-negative cost per simplex of P, of the given kind."""

    kind: str
    column_costs: np.ndarray

    def __post_init__(self):
        self.column_costs = np.asarray(self.column_costs, dtype=float)
        if not np.all(self.column_costs >= 0):  # NaN compares false
            raise ValueError("weight costs must be non-negative, not NaN")

    @property
    def entries(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.diags(self.column_costs, format="csr")


def vertex_weights(P, labels) -> WeightMatrix:
    """Own-vertex label spread per simplex."""
    L = np.asarray(labels, dtype=float)[np.asarray(P, dtype=np.int64)]
    return WeightMatrix(VERTEX, L.max(axis=1) - L.min(axis=1))


def simplex_weights(P, labels) -> WeightMatrix:
    """Largest mean-label gap to a simplex sharing a facet, per simplex.

    One ``np.unique`` groups the p+1 facets of every simplex; the lowest
    and highest mean label over a facet's simplices bound every gap
    through that facet.
    """
    verts = np.asarray(P, dtype=np.int64)
    L = np.asarray(labels, dtype=float)[verts]
    m, k = L.shape
    # column by column, so each mean is the left-to-right sum of its labels
    means = L[:, 0].copy()
    for i in range(1, k):
        means += L[:, i]
    means /= k
    facets = np.concatenate([np.delete(verts, i, axis=1) for i in range(k)])
    uniq, inv = np.unique(facets, axis=0, return_inverse=True)
    inv = inv.reshape(k, m)  # row i: the facet dropping vertex position i
    lo = np.full(len(uniq), np.inf)
    hi = np.full(len(uniq), -np.inf)
    np.minimum.at(lo, inv.ravel(), np.tile(means, k))
    np.maximum.at(hi, inv.ravel(), np.tile(means, k))
    gaps = np.maximum(means - lo[inv], hi[inv] - means)
    return WeightMatrix(SIMPLEX, gaps.max(axis=0))


def length_weights(P) -> WeightMatrix:
    """Unit cost per simplex: the objective counts support simplices."""
    return WeightMatrix(LENGTH, np.ones(len(P)))


def weights_for(kind: str, P, labels) -> WeightMatrix:
    """The ``kind`` costs of P, an (m, p+1) vertex array or a sequence of
    m vertex tuples of one dimension."""
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
