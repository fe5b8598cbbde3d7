"""Simplicial complexes, filtrations, chains and boundary operators.

A filtration holds its simplices in one form: a sorted int array with a row
of vertex ids per simplex, padded with -1, validated when it is built.  The
public face of a simplex is a strictly increasing tuple of vertex ids, read
off that array one at a time through the ``simplices`` view; there is no
separate simplex type.

Chains are sparse maps from filtration index to coefficient; the
coefficient domain is either F2 (persistence reduction) or the reals
(signed boundary matrices for the cycle optimization LP).  The oriented
boundary uses the increasing vertex-id orientation: the face dropping vertex
position i carries sign (-1)**i.

A filtration finds every face of every simplex once, when it is built: per
dimension, an integer array gives each p-simplex's faces as local indices
into the (p-1)-simplices, in vertex-deletion order.  This face index is the
only face lookup: the closure check runs on it, boundary matrices, chain
boundaries, orientation and the persistence reduction are built from it, and
each boundary matrix is built once and cached.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

F2 = "f2"
REAL = "real"


@dataclass
class Chain:
    """Sparse chain: filtration index -> coefficient, no stored zeros."""

    dim: int
    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {int(i): c for i, c in self.entries.items() if c != 0}

    @property
    def support(self) -> list[int]:
        return sorted(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.dim == other.dim
            and self.entries == other.entries
        )


class SimplexView(Sequence):
    """Read-only sequence of a filtration's simplices as vertex tuples.

    Each access builds the one tuple asked for from the filtration's vertex
    array; no list of all simplices is ever held.  Compares equal to a list
    or tuple of the same vertex tuples.
    """

    __slots__ = ("_verts", "_lens")

    def __init__(self, verts: np.ndarray, lens: np.ndarray):
        self._verts = verts
        self._lens = lens

    def __len__(self) -> int:
        return len(self._verts)

    def __getitem__(self, g):
        return tuple(self._verts[g, : self._lens[g]].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SimplexView, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


def _levels_of_pairs(simplices) -> list[tuple[np.ndarray, list[float]]]:
    """(vertex array, values) per vertex count of (vertices, value) pairs."""
    groups: dict[int, tuple[list, list]] = {}
    for verts, value in simplices:
        verts = tuple(verts)
        group = groups.setdefault(len(verts), ([], []))
        group[0].append(verts)
        group[1].append(value)
    return [(np.array(vs, dtype=np.int64), vals) for vs, vals in groups.values()]


def _pad(levels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One vertex array, left-aligned and padded with -1, the vertex count
    of each row and the values, from (m, k+1) vertex arrays and m values."""
    levels = [(np.asarray(s, dtype=np.int64), np.asarray(v, dtype=float))
              for s, v in levels]
    if sum(len(v) for _, v in levels) == 0:
        raise ValueError("empty filtration")
    if any(s.ndim != 2 or v.shape != (len(s),) for s, v in levels):
        raise ValueError("each level needs an (m, k+1) vertex array and m values")
    width = max(s.shape[1] for s, _ in levels)
    padded = np.concatenate([
        np.pad(s, ((0, 0), (0, width - s.shape[1])), constant_values=-1)
        for s, _ in levels
    ])
    lens = np.concatenate([np.full(len(s), s.shape[1]) for s, _ in levels])
    values = np.concatenate([v for _, v in levels])
    return padded, lens, values


class Filtration:
    """Ordered simplices with filtration values.

    The order is (value, dimension, lexicographic vertices), which puts every
    face before its cofaces and makes downstream reduction deterministic.
    A filtration is built from either ``simplices``, an iterable of
    (vertices, value) pairs in any order, or ``levels``, one (m, k+1) vertex
    array and m values per dimension (the Rips builder's output).  Both are
    turned into the one form kept: a read-only int array with a row per
    simplex in filtration order, vertex ids left-aligned and padded with -1.
    ``simplices`` is a view of it that builds one vertex tuple per access.

    Construction validates each simplex (non-empty, strictly increasing,
    non-negative ids, no duplicates), closure under faces and value
    monotonicity, and keeps the face index that check computes:
    ``faces(p)`` gives, for each p-simplex, the local (p-1)-index of each
    face.
    """

    def __init__(
        self,
        simplices: Optional[Iterable[tuple[Iterable[int], float]]] = None,
        *,
        levels: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
    ):
        if (simplices is None) == (levels is None):
            raise TypeError("pass exactly one of simplices and levels")
        if levels is None:
            levels = _levels_of_pairs(simplices)
        padded, lens, values = _pad(levels)
        if lens.min() == 0:
            raise ValueError("simplex needs at least one vertex")
        if not np.all(values >= 0):
            raise ValueError("filtration values must be non-negative")
        if np.any(padded[np.arange(padded.shape[1]) < lens[:, None]] < 0):
            raise ValueError("vertex ids must be non-negative")
        order = np.lexsort((*padded.T[::-1], lens, values))
        padded, lens = padded[order], lens[order]
        padded.flags.writeable = False
        self.simplices = SimplexView(padded, lens)
        self.values: np.ndarray = values[order]
        self.dims: np.ndarray = (lens - 1).astype(np.int32)
        self.max_dim: int = int(self.dims.max())
        # global indices of the p-simplices, in filtration order, per dimension
        self._by_dim: list[np.ndarray] = [
            np.flatnonzero(self.dims == p) for p in range(self.max_dim + 1)
        ]
        self._faces = self._face_index(padded)
        self._boundary: dict[tuple[int, str], BoundaryMatrix] = {}

    def _face_index(self, padded) -> list[np.ndarray]:
        """Local face indices per dimension, checking the simplices on the way.

        Vertex ids are replaced by their ranks among the 0-simplices, and a
        vertex that is not a 0-simplex by the rank one past the last, which
        no face lookup can find.  Each (p-1)-simplex is keyed by its ranks
        read as base-(n+1) digits; the faces of all p-simplices are located
        among the sorted keys with one ``searchsorted`` per deleted vertex
        position.  The first and last faces fix a p-simplex, so duplicates
        are found among pairs of face indices.
        """
        right = padded[:, 1:]  # -1 marks padding
        bad = np.flatnonzero(np.any((right <= padded[:, :-1]) & (right >= 0), axis=1))
        if len(bad):
            raise ValueError(
                f"vertices must be strictly increasing, got {self.simplices[bad[0]]}"
            )
        ids = np.sort(padded[self._by_dim[0], 0])
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("duplicate simplex in filtration")
        rank = np.searchsorted(ids, padded)
        rank[np.append(ids, -1)[rank] != padded] = len(ids)
        base = len(ids) + 1
        faces = [np.empty((0, 0), dtype=np.int64)]
        r = rank[self._by_dim[0], :1]
        for p in range(1, self.max_dim + 1):
            keys = np.ravel_multi_index(r.T, (base,) * p)
            by_key = np.argsort(keys)
            # the -1 sentinel is what a face key past the last key meets
            keys = np.append(keys[by_key], -1)
            r = rank[self._by_dim[p], : p + 1]
            local = np.empty(r.shape, dtype=np.int64)
            for i in range(p + 1):
                face_keys = np.ravel_multi_index(np.delete(r, i, axis=1).T, (base,) * p)
                pos = np.searchsorted(keys[:-1], face_keys)
                missing = np.flatnonzero(keys[pos] != face_keys)
                if len(missing):
                    s = self.simplices[self._by_dim[p][missing[0]]]
                    raise ValueError(
                        f"face {s[:i] + s[i + 1:]} of {s} missing from filtration"
                    )
                local[:, i] = by_key[pos]
            pair = np.sort(local[:, 0] * len(keys) + local[:, p])
            if np.any(pair[1:] == pair[:-1]):
                raise ValueError("duplicate simplex in filtration")
            local.flags.writeable = False
            value = self.values[self._by_dim[p]]
            face_value = self.values[self._by_dim[p - 1]][local]
            late = np.argwhere(face_value > value[:, None] + 1e-12)
            if len(late):
                j, i = late[0]
                s = self.simplices[self._by_dim[p][j]]
                raise ValueError(
                    f"face {s[:i] + s[i + 1:]} enters at {face_value[j, i]} "
                    f"after coface {s} at {value[j]}"
                )
            faces.append(local)
        return faces

    def __len__(self) -> int:
        return len(self.values)

    def value(self, i: int) -> float:
        return float(self.values[i])

    def dim_indices(self, p: int) -> np.ndarray:
        """Global indices of all p-simplices, in filtration order."""
        if p < 0 or p > self.max_dim:
            return np.array([], dtype=int)
        return self._by_dim[p]

    def n_simplices(self, p: int) -> int:
        return len(self.dim_indices(p))

    def faces(self, p: int) -> np.ndarray:
        """Face index of the p-simplices: row j holds the local (p-1)-indices
        of the faces of the j-th p-simplex, column i the face dropping vertex
        position i.  Read-only; empty outside dimensions 1..max_dim."""
        if p < 1 or p > self.max_dim:
            return np.empty((0, max(p, 0) + 1), dtype=np.int64)
        return self._faces[p]


@dataclass
class BoundaryMatrix:
    """Boundary operator from (p+1)-simplices to p-simplices.

    Rows/columns are indexed locally (position within the dimension's
    filtration order); ``rows``/``cols`` map local to global indices.  In F2
    mode all entries are 1; in real mode the face dropping vertex i has
    entry (-1)**i.
    """

    p: int
    mode: str
    rows: np.ndarray
    cols: np.ndarray
    matrix: sp.csc_matrix


def boundary_matrix(f: Filtration, p: int, mode: str = F2) -> BoundaryMatrix:
    """Matrix of the boundary operator taking (p+1)-chains to p-chains.

    Built once per (p, mode) from the filtration's face index and cached on
    the filtration; the matrix arrays are read-only, so callers share it.
    """
    if mode not in (F2, REAL):
        raise ValueError(f"unknown field mode {mode!r}")
    cached = f._boundary.get((p, mode))
    if cached is not None:
        return cached
    rows = f.dim_indices(p)
    cols = f.dim_indices(p + 1)
    faces = f.faces(p + 1)
    k = faces.shape[1]
    # canonical CSC: row indices ascending within each column
    by_row = np.argsort(faces, axis=1)
    signs = np.ones(k) if mode == F2 else (-1.0) ** np.arange(k)
    m = sp.csc_matrix(
        (
            signs[by_row].ravel(),
            np.take_along_axis(faces, by_row, axis=1).ravel(),
            np.arange(0, k * len(cols) + 1, k),
        ),
        shape=(len(rows), len(cols)),
    )
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    bd = BoundaryMatrix(p=p, mode=mode, rows=rows, cols=cols, matrix=m)
    f._boundary[(p, mode)] = bd
    return bd


def boundary(c: Chain, f: Filtration, mode: str = F2) -> Chain:
    """Boundary of a chain in the requested field mode: the product of the
    cached boundary matrix with the chain's coefficient vector."""
    if c.dim == 0:
        raise ValueError("no boundary below dimension 0")
    bd = boundary_matrix(f, c.dim - 1, mode)
    idx = np.fromiter(c.entries, dtype=np.int64, count=len(c.entries))
    local = np.searchsorted(bd.cols, idx)
    wrong = np.flatnonzero(np.append(bd.cols, -1)[local] != idx)
    if len(wrong):
        g = int(idx[wrong[0]])
        raise ValueError(f"simplex {f.simplices[g]} has dimension {f.dims[g]}, chain {c.dim}")
    y = bd.matrix[:, local] @ np.fromiter(c.entries.values(), dtype=float, count=len(idx))
    if mode == F2:
        y = np.rint(y) % 2
    nz = np.flatnonzero(y)
    rows = bd.rows[nz].tolist()
    out = dict.fromkeys(rows, 1) if mode == F2 else dict(zip(rows, y[nz].tolist()))
    return Chain(c.dim - 1, out)


def _orient_edges(c: Chain, f: Filtration) -> Chain:
    # decompose the even-degree support graph into closed walks and assign
    # +1 to edges traversed low-to-high vertex, -1 otherwise
    edges = {g: f.simplices[g] for g in c.entries}
    incident: dict[int, list[int]] = {}
    for g, (u, v) in sorted(edges.items()):
        incident.setdefault(u, []).append(g)
        incident.setdefault(v, []).append(g)
    unused = set(edges)
    signs: dict[int, float] = {}
    for start_g in sorted(edges):
        if start_g not in unused:
            continue
        u0 = edges[start_g][0]
        cur = u0
        while True:
            nxt_g = None
            for g in incident[cur]:
                if g in unused:
                    nxt_g = g
                    break
            if nxt_g is None:
                if cur != u0:
                    raise ValueError("cannot orient initial cycle")
                break
            unused.discard(nxt_g)
            a, b = edges[nxt_g]
            other = b if cur == a else a
            signs[nxt_g] = 1.0 if cur == min(a, b) else -1.0
            cur = other
    return Chain(1, signs)


def _orient_by_face_pairing(c: Chain, f: Filtration) -> Chain:
    # propagate signs across shared codimension-1 faces; each internal face
    # must have exactly two support cofaces (orientable pseudo-manifold)
    support = sorted(c.entries)
    faces = f.faces(c.dim)[np.searchsorted(f.dim_indices(c.dim), support)]
    face_map: dict[int, list[tuple[int, float]]] = {}
    for g, row in zip(support, faces.tolist()):
        for i, face in enumerate(row):
            face_map.setdefault(face, []).append((g, float((-1) ** i)))
    for face, cofs in face_map.items():
        if len(cofs) != 2:
            raise ValueError("cannot orient initial cycle")
    neighbors: dict[int, list[tuple[int, float]]] = {g: [] for g in support}
    for (a, ca), (b, cb) in face_map.values():
        rel = -ca * cb  # sign_b = rel * sign_a zeroes this face
        neighbors[a].append((b, rel))
        neighbors[b].append((a, rel))
    signs: dict[int, float] = {}
    for root in support:
        if root in signs:
            continue
        signs[root] = 1.0
        stack = [root]
        while stack:
            g = stack.pop()
            for h, rel in neighbors[g]:
                want = rel * signs[g]
                got = signs.get(h)
                if got is None:
                    signs[h] = want
                    stack.append(h)
                elif got != want:
                    raise ValueError("cannot orient initial cycle")
    return Chain(c.dim, signs)


def orient_chain(c: Chain, f: Filtration) -> Chain:
    """Lift an F2 cycle to a real cycle with coefficients +-1.

    A naive all-ones lift is generally not a real cycle (oriented face terms
    do not cancel), which would let the LP wander off the homology class.
    1-cycles are decomposed into closed walks; higher cycles are oriented by
    sign propagation over shared faces, which requires the support to be an
    orientable pseudo-manifold.  Raises when no coherent orientation exists.
    """
    if not c:
        raise ValueError("cannot orient zero chain")
    if c.dim == 0:
        return Chain(0, {g: 1.0 for g in c.entries})
    out = _orient_edges(c, f) if c.dim == 1 else _orient_by_face_pairing(c, f)
    if set(out.entries) != set(c.entries):
        raise ValueError("cannot orient initial cycle")
    if boundary(out, f, REAL):
        raise ValueError("cannot orient initial cycle")
    return out
