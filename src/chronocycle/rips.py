"""Vietoris-Rips filtrations of labeled point clouds.

Simplices enter at the maximum pairwise distance among their vertices.
Vertex ids are the point indices of the cloud, so downstream consumers can
look up time labels directly.  Simplices are built up to dimension
max_dim + 1 so that homology through max_dim is computable.

The expansion works on int arrays, as Ripser enumerates cofacets from
adjacency without simplex objects: each dimension is an (m, k+1) array of
vertex ids in lexicographic order.  The next dimension grows in row chunks:
the adjacency rows of each simplex's vertices, restricted to vertices above
the simplex's last one, are ANDed, and ``np.nonzero`` lists the new
simplices, again in lexicographic order.  A new simplex's value is the
larger of its parent's value and its distances to the new vertex.

Popcounting the same masks sizes the next level before it is built: with
a ``cap``, ``build_rips`` counts each level first and raises instead of
expanding one that would take the total past the cap.
``count_rips_simplices`` gives exact counts and never builds the top level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .complexes import Filtration

ENCLOSING = "enclosing"

# mask entries per expansion chunk: bounds the memory of one chunk
_CHUNK = 1 << 20


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


def _graph(points, cfg: RipsConfig):
    """Distance matrix and upper adjacency: up[i, j] when j > i and the
    points are within the radius."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty point cloud")
    dist = distance_matrix(pts)
    up = np.triu(dist <= cfg.radius(dist), 1)
    return dist, up


def _cofaces(simp: np.ndarray, up: np.ndarray):
    """Yield (first row, mask) per row chunk of the k-simplices ``simp``;
    mask[r, v] says that appending vertex v to simplex first + r gives a
    (k+1)-simplex."""
    step = max(1, _CHUNK // up.shape[1])
    for start in range(0, len(simp), step):
        block = simp[start:start + step]
        mask = up[block[:, 0]]
        for i in range(1, block.shape[1]):
            mask &= up[block[:, i]]
        yield start, mask


def _count(simp: np.ndarray, up: np.ndarray, limit: float = math.inf) -> int:
    """Number of (k+1)-simplices over ``simp``; stops early once past limit."""
    total = 0
    for _, mask in _cofaces(simp, up):
        total += int(np.count_nonzero(mask))
        if total > limit:
            break
    return total


def _expand(simp: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k+1)-simplices over ``simp`` in lexicographic order, and for
    each the row of its parent k-simplex."""
    rows, verts = [], []
    for start, mask in _cofaces(simp, up):
        r, v = np.nonzero(mask)
        rows.append(r + start)
        verts.append(v)
    rows, verts = np.concatenate(rows), np.concatenate(verts)
    return np.column_stack([simp[rows], verts]), rows


def _check_budget(total: int, cap: Optional[int]):
    if cap is not None and total > cap:
        raise ValueError(
            f"simplex budget exceeded: at least {total} simplices > cap {cap}")


def _rips_levels(points, cfg: RipsConfig,
                 cap: Optional[int] = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(simplices, values) of each non-empty dimension, vertices first; with
    a cap, each is counted before it is built (a refused total is partial)."""
    _check_budget(len(points), cap)
    dist, up = _graph(points, cfg)
    n = len(dist)
    simp, vals = np.arange(n, dtype=np.int64)[:, None], np.zeros(n)
    levels = [(simp, vals)]
    total = n
    for _ in range(cfg.max_dim + 1):
        if cap is not None:
            total += _count(simp, up, cap - total)
            _check_budget(total, cap)
        simp, parent = _expand(simp, up)
        if len(simp) == 0:
            break
        new_dist = dist[simp[:, :-1], simp[:, -1:]].max(axis=1)
        vals = np.maximum(vals[parent], new_dist)
        levels.append((simp, vals))
    return levels


def count_rips_simplices(points, cfg: RipsConfig) -> list[int]:
    """Exact per-dimension simplex counts of build_rips; the top dimension
    is counted and never built."""
    _, up = _graph(points, cfg)
    simp = np.arange(len(up), dtype=np.int64)[:, None]
    counts = [len(simp)]
    for k in range(cfg.max_dim + 1):  # count the (k+1)-simplices
        if k:  # build the k-simplices just counted, to count the next level
            simp = _expand(simp, up)[0]
        m = _count(simp, up)
        if m == 0:
            break
        counts.append(m)
    return counts


def build_rips(pc, cfg: RipsConfig, cap: Optional[int] = None) -> Filtration:
    """Rips filtration of the cloud; vertices at 0, simplex value = diameter.
    With a cap, raises ``ValueError`` instead of building more simplices."""
    if len(pc.points) == 1:
        raise ValueError("need at least 2 points")
    # expanded here, so the work is the Rips builder's and not Filtration's
    return Filtration(levels=_rips_levels(pc.points, cfg, cap))
