"""Vietoris-Rips filtrations of labeled point clouds.

Simplices enter at the maximum pairwise distance among their vertices.
Vertex ids are the point indices of the cloud, so downstream consumers can
look up time labels directly.  Simplices are built up to dimension
max_dim + 1 so that homology through max_dim is computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .complexes import Filtration

ENCLOSING = "enclosing"


@dataclass
class RipsConfig:
    max_dim: int = 1
    max_radius: Union[float, str] = ENCLOSING

    def __post_init__(self):
        if not 1 <= self.max_dim <= 3:
            raise ValueError("max_dim must be between 1 and 3")
        if self.max_radius != ENCLOSING and not float(self.max_radius) > 0:
            raise ValueError("max_radius must be positive or 'enclosing'")

    def radius(self, dist: np.ndarray) -> float:
        if self.max_radius == ENCLOSING:
            return float(dist.max())
        return float(self.max_radius)


def distance_matrix(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return squareform(pdist(pts))


def _expand(prev, prev_vals, adj, dist):
    """Grow k-simplices from (k-1)-simplices by appending larger neighbors
    adjacent to every vertex."""
    out, vals = [], []
    for verts, val in zip(prev, prev_vals):
        common = np.logical_and.reduce(adj[list(verts)])
        for k in np.flatnonzero(common):
            if k <= verts[-1]:
                continue
            out.append(verts + (int(k),))
            vals.append(max(val, float(dist[list(verts), k].max())))
    return out, vals


def _rips_levels(points, cfg: RipsConfig):
    """Yield (simplices, values) of each dimension in turn, vertices first;
    the one expansion behind both the count and the build."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty point cloud")
    dist = distance_matrix(pts)
    n = len(dist)
    adj = dist <= cfg.radius(dist)
    np.fill_diagonal(adj, False)
    simp, vals = [(i,) for i in range(n)], [0.0] * n
    yield simp, vals
    for _ in range(cfg.max_dim + 1):
        simp, vals = _expand(simp, vals, adj, dist)
        if not simp:
            return
        yield simp, vals


def count_rips_simplices(points, cfg: RipsConfig) -> list[int]:
    """Per-dimension simplex counts of build_rips without building the
    filtration (memory guard and sanity checks)."""
    return [len(simp) for simp, _ in _rips_levels(points, cfg)]


def build_rips(pc, cfg: RipsConfig) -> Filtration:
    """Rips filtration of the cloud; vertices at 0, simplex value = diameter."""
    if len(pc.points) == 1:
        raise ValueError("need at least 2 points")
    # a list, so the expansion runs here and not lazily inside Filtration
    simplices = [item for level in _rips_levels(pc.points, cfg) for item in zip(*level)]
    return Filtration(simplices)
