"""Vietoris-Rips filtrations of labeled point clouds.

Simplices enter at the maximum pairwise distance among their vertices.
Vertex ids are the point indices of the cloud, so downstream consumers can
look up time labels directly.  Simplices are built up to dimension
max_dim + 1 so that homology through max_dim is computable.

The expansion works on int arrays, as Ripser enumerates cofacets from
adjacency without simplex objects: each dimension is an (m, k+1) int32
array of vertex ids (ids are below n) in lexicographic order.  The next
dimension grows in row chunks: the adjacency rows of each simplex's
vertices, restricted to vertices above the simplex's last one, are ANDed.
Each mask row's popcount is the number of cofaces of its simplex, and
``np.flatnonzero`` lists their new vertices, again in lexicographic order.
The next level's old columns are the parent's columns repeated by those
counts, with no array of parent rows.  A new simplex's value is the larger
of its parent's value and its distances to the new vertex: the parent's
value, repeated by the same counts, is raised in place by one flat gather
from the distance matrix per old vertex, at a flat index formed in intp.

Popcounting the same masks sizes the next level before it is built: with
a ``cap``, ``build_rips`` counts each level first and raises instead of
expanding one that would take the total past the cap.
``count_rips_simplices`` gives exact counts and never builds the top level.

Distances are numpy's own: the squared differences of the coordinates are
summed one coordinate at a time, in coordinate order, and the square root
is taken last.  That is the sum scipy's euclidean ``pdist`` forms, so the
matrix equals ``squareform(pdist(x))`` bit for bit (a test checks it), and
building a Rips complex imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

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
    """Euclidean distances between the rows of an (n, d) array, (n, n)."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, not {x.ndim}-d")
    n = len(x)
    acc = np.zeros((n, n))
    diff = np.empty((n, n))
    for k in range(x.shape[1]):
        np.subtract(x[:, k, None], x[None, :, k], out=diff)
        np.multiply(diff, diff, out=diff)
        acc += diff
    return np.sqrt(acc, out=acc)


def _graph(points, cfg: RipsConfig):
    """Distance matrix and upper adjacency: up[i, j] when j > i and the
    points are within the radius."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty point cloud")
    if len(pts) == 1:
        raise ValueError("need at least 2 points")
    dist = distance_matrix(pts)
    up = np.triu(dist <= cfg.radius(dist), 1)
    return dist, up


def _cofaces(simp: np.ndarray, up: np.ndarray):
    """Yield a mask per row chunk of the k-simplices ``simp``, in order;
    mask[r, v] says that appending vertex v to the chunk's row r gives a
    (k+1)-simplex."""
    step = max(1, _CHUNK // up.shape[1])
    for start in range(0, len(simp), step):
        block = simp[start:start + step]
        mask = up[block[:, 0]]
        for i in range(1, block.shape[1]):
            mask &= up[block[:, i]]
        yield mask


def _count(simp: np.ndarray, up: np.ndarray, limit: float = math.inf) -> int:
    """Number of (k+1)-simplices over ``simp``; stops early once past limit."""
    total = 0
    for mask in _cofaces(simp, up):
        total += int(np.count_nonzero(mask))
        if total > limit:
            break
    return total


def _expand(simp: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k+1)-simplices over ``simp`` in lexicographic order, and the
    number of them over each k-simplex, their parent: the parent columns
    repeated by those counts, with the new vertex last."""
    n = up.shape[1]
    counts, verts = [], []
    for mask in _cofaces(simp, up):
        c = np.count_nonzero(mask, axis=1)
        # flat mask positions less their row's offset: the new vertices
        v = np.flatnonzero(mask)
        v -= np.repeat(np.arange(0, len(c) * n, n), c)
        counts.append(c)
        verts.append(v.astype(simp.dtype))
    counts = np.concatenate(counts)
    out = np.empty((int(counts.sum()), simp.shape[1] + 1), dtype=simp.dtype)
    for c in range(simp.shape[1]):
        out[:, c] = np.repeat(simp[:, c], counts)
    np.concatenate(verts, out=out[:, -1])
    return out, counts


def _check_budget(total: int, cap: Optional[int]):
    if cap is not None and total > cap:
        raise ValueError(
            f"simplex budget exceeded: at least {total} simplices > cap {cap}")


def _rips_levels(points, cfg: RipsConfig,
                 cap: Optional[int] = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(simplices, values) of each non-empty dimension, vertices first; with
    a cap, each is counted before it is built (a refused total is partial).
    The vertex arrays are fresh and read-only, so a filtration keeps them
    as they are."""
    _check_budget(len(points), cap)
    dist, up = _graph(points, cfg)
    n = len(dist)
    flat = dist.ravel()
    simp, vals = np.arange(n, dtype=np.int32)[:, None], np.zeros(n)
    simp.flags.writeable = False
    levels = [(simp, vals)]
    total = n
    for _ in range(cfg.max_dim + 1):
        if cap is not None:
            total += _count(simp, up, cap - total)
            _check_budget(total, cap)
        simp, counts = _expand(simp, up)
        if len(simp) == 0:
            break
        # the parent's value, raised by each distance to the new vertex:
        # one flat gather per column, no (m, k) block of distances; the
        # flat index is formed in intp, since n * n may pass int32
        vals = np.repeat(vals, counts)
        last = simp[:, -1]
        at = np.empty(len(simp), dtype=np.intp)
        for c in range(simp.shape[1] - 1):
            np.multiply(simp[:, c], n, out=at, dtype=np.intp)
            at += last
            np.maximum(vals, np.take(flat, at), out=vals)
        del at
        simp.flags.writeable = False
        levels.append((simp, vals))
    return levels


def count_rips_simplices(points, cfg: RipsConfig) -> list[int]:
    """Exact per-dimension simplex counts of build_rips; the top dimension
    is counted and never built."""
    _, up = _graph(points, cfg)
    simp = np.arange(len(up), dtype=np.int32)[:, None]
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
    # expanded here, so the work is the Rips builder's and not Filtration's;
    # handed over as an iterator, which drops the list once read, so the
    # filtration frees the level values as soon as it has ordered them
    return Filtration(levels=iter(_rips_levels(pc.points, cfg, cap)))
