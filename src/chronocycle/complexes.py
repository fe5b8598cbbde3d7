"""Simplicial complexes, filtrations, chains and boundary operators.

A filtration holds its simplices in one form: per dimension, a read-only
int32 or int64 array with a row of vertex ids per simplex, in
lexicographic row order, validated when it is built.  A simplex is an
address into those arrays: its dimension and its row.  The public face of
a simplex is a strictly increasing tuple of vertex ids, read off its row
one at a time through the ``simplices`` view; there is no separate simplex
type.

Chains are sparse maps from filtration index to coefficient; the
coefficient domain is either F2 (persistence reduction) or the reals
(signed boundary matrices for the cycle optimization LP).  The oriented
boundary uses the increasing vertex-id orientation: the face dropping vertex
position i carries sign (-1)**i.  One rule lifts an F2 p-cycle to a real
one for every p >= 1: the support simplices that share a face pair up in
filtration order, and each pair is signed to cancel on it.

A filtration sorts, deduplicates and finds faces by one rank key per
simplex: its vertices' ranks among the 0-simplices (for Rips, the ids
themselves) read as one base-n int64 number, or as a record where that
would not fit in int64; keys ascend in lexicographic row order.  A
dimension whose keys strictly increase, as every Rips level's do, is in
order and has no duplicates; any other is sorted by one stable sort of its
keys, after which duplicates are adjacent.

The dimensions are then taken in ascending order.  Once the
(p-1)-simplices are ranked, their local filtration order is a stable
counting sort of their ranks, and each face of a p-simplex is found at its
key among their keys as its filtration-local id.  Local order is value
order, so a simplex's youngest face is its largest face id, and what is
gathered there checks that no face enters after its coface and gives the
simplex its rank: the dense rank of its value among the filtration's
distinct values.
A simplex that enters with its youngest face (every Rips simplex above
dimension 1) takes that face's rank; only the others are ranked by a search
among the distinct values seen so far.  A stable counting sort of the
ranks, over the dimensions concatenated in ascending order, then gives the
(value, dimension, lexicographic) filtration order: an LSD radix sort on
16-bit digits, one pass while there are at most 65,536 distinct values.

The face index is built once: per dimension, an int32 array gives each
p-simplex's faces as local indices into the (p-1)-simplices, in
vertex-deletion order, the looked-up rows gathered once into filtration
order.  It is the only face lookup and the one boundary representation:
the closure check, orientation, a chain's boundary and the persistence
reduction read it, and each boundary block is built from it, uncached, for
the columns at hand (all of them, or the cycle LP's free columns), as a
table of the same form: each column's face rows, ascending, with their
signs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

F2 = "f2"
REAL = "real"

# largest key space n**p for which a filtration finds faces among its
# (p-1)-simplices in a dense table: int32 entries, 16 MB at the bound
_TABLE_MAX_ENTRIES = 2**22


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


class SimplexView(Sequence):
    """Read-only sequence of a filtration's simplices as vertex tuples.

    Simplex g is row ``rows[g]`` of the lexicographic level ``dims[g]``;
    each access builds the one tuple asked for from that row, and a slice
    the list of tuples it covers, so no list of all simplices is ever held.
    """

    __slots__ = ("_levels", "_dims", "_rows")

    def __init__(self, levels, dims: np.ndarray, rows: np.ndarray):
        self._levels, self._dims, self._rows = levels, dims, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, g):
        if isinstance(g, slice):
            return [self[i] for i in range(*g.indices(len(self)))]
        return tuple(self._levels[self._dims.item(g)][self._rows.item(g)].tolist())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _empty_faces(p: int) -> np.ndarray:
    """The face index of a dimension without simplices: no rows."""
    return _read_only(np.empty((0, max(p, 0) + 1), dtype=np.int32))


def _levels_of_pairs(simplices) -> list[tuple[np.ndarray, list[float]]]:
    """(vertex array, values) per vertex count of (vertices, value) pairs."""
    groups: dict[int, tuple[list, list]] = {}
    for verts, value in simplices:
        verts = tuple(verts)
        group = groups.setdefault(len(verts), ([], []))
        group[0].append(verts)
        group[1].append(value)
    return [(_read_only(np.array(vs)), vals) for vs, vals in groups.values()]


def _vertex_ids(s) -> np.ndarray:
    """The vertex array as int32 or int64: as given where it is either
    (int32 is the Rips builder's), else as int64; raises unless every id
    is an integer."""
    s = np.asarray(s)
    if s.dtype == np.int32 or s.dtype == np.int64:
        return s
    if s.dtype.kind in "iu":
        return s.astype(np.int64)
    try:
        with np.errstate(invalid="ignore"):
            ids = s.astype(np.int64)
    except OverflowError:
        raise ValueError("vertex ids must fit in 64-bit signed integers") from None
    except (TypeError, ValueError):
        raise ValueError("vertex ids must be integers") from None
    if not np.array_equal(ids, s):
        raise ValueError("vertex ids must be integers")
    return ids


def _missing_face(t: tuple, i: int) -> ValueError:
    return ValueError(f"face {t[:i] + t[i + 1:]} of {t} missing from filtration")


def _ranks(s: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rank of each vertex of s among the sorted 0-simplex ids: s itself
    where the ids are 0..n-1, else its ``searchsorted`` position.  A vertex
    that is not a 0-simplex raises, naming the first face that holds it."""
    n = len(ids)
    if ids[-1] == n - 1:  # an id is its rank
        if s[:, -1].max() < n:  # rows increase: the last column is the largest
            return s
        bad = s >= n
    else:
        rank = np.searchsorted(ids, s)
        bad = ids[np.minimum(rank, n - 1)] != s
        if not bad.any():
            return rank
    for i in range(s.shape[1]):
        rows = np.flatnonzero(np.delete(bad, i, axis=1).any(axis=1))
        if len(rows):
            raise _missing_face(min(map(tuple, s[rows].tolist())), i)


def _rank_keys(rank, n: int) -> np.ndarray:
    """One key per row of vertex ranks 0..n-1, given as columns ``rank``,
    ascending in lexicographic row order: the ranks read as base-n digits
    while that number fits in int64, else the rows as records, which
    ``argsort`` and ``searchsorted`` compare field by field.  The keys are
    a new int64 array whatever the ranks' dtype (int32 ranks would wrap),
    and the ranks are never written: they may be a filtration's own
    vertex array (see ``_ranks``)."""
    if n ** len(rank) <= np.iinfo(np.int64).max:
        keys = rank[0].astype(np.int64)
        for r in rank[1:]:
            keys *= n
            keys += r
        return keys
    keys = np.empty(len(rank[0]), dtype=[(f"r{c}", np.int64) for c in range(len(rank))])
    for c, r in enumerate(rank):
        keys[f"r{c}"] = r
    return keys


def _sorted_levels(levels) -> list[tuple[np.ndarray, ...]]:
    """Validated (vertices, values, ranks, keys) per dimension, ascending,
    each with its rows in lexicographic order: as they came where the keys
    strictly increase, else by one stable ``argsort`` of the keys, after
    which duplicates are adjacent equal keys.  The top dimension's keys are
    None: no face is looked up among them.  A dimension given as one
    read-only vertex array that needs no sort is that array, not a copy; a
    writeable one is copied, so a caller's writeable array is never kept."""
    by_width: dict[int, list] = {}
    for s, v in levels:
        s, v = _vertex_ids(s), np.asarray(v, dtype=float)
        if s.ndim != 2 or v.shape != (len(s),):
            raise ValueError("each level needs an (m, k+1) vertex array and m values")
        if len(s):
            by_width.setdefault(s.shape[1], []).append((s, v))
    if not by_width:
        raise ValueError("empty filtration")
    if 0 in by_width:
        raise ValueError("simplex needs at least one vertex")
    out, widths = [], sorted(by_width)
    for p, width in enumerate(widths):
        parts = by_width[width]
        if len(parts) == 1:
            (s, v), = parts
        else:
            s = np.concatenate([s for s, _ in parts])
            v = np.concatenate([v for _, v in parts])
        if not (np.all(v >= 0) and v.max() < np.inf):
            raise ValueError("filtration values must be finite and non-negative")
        if s.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        # column by column: a 2-D comparison of strided slices is slower
        if any(np.any(s[:, c + 1] <= s[:, c]) for c in range(width - 1)):
            bad = np.flatnonzero(np.any(s[:, 1:] <= s[:, :-1], axis=1))
            raise ValueError(
                f"vertices must be strictly increasing, got {tuple(s[bad[0]].tolist())}"
            )
        if width != p + 1:  # no (p-1)-simplices below these
            raise _missing_face(min(map(tuple, s.tolist())), 0)
        if p == 0:  # a vertex's rank: its position among the distinct ids
            ids = np.unique(s)
            n = len(ids)
        rank = _ranks(s, ids)
        keys = _rank_keys(rank.T, n)
        if keys.dtype.names or np.any(keys[1:] <= keys[:-1]):
            order = np.argsort(keys, kind="stable")
            s, v, rank, keys = s[order], v[order], rank[order], keys[order]
            dup = np.flatnonzero(keys[1:] == keys[:-1])
            if len(dup):
                raise ValueError(
                    f"duplicate simplex {tuple(s[dup[0]].tolist())} in filtration"
                )
        elif len(parts) == 1 and s.flags.writeable:
            s = s.copy()
        # faces are looked up among the keys below; the top level's keys
        # were needed only for the order check above
        out.append((s, v, rank, keys if width < widths[-1] else None))
    return out


def _face_error(s, value, below, found) -> ValueError:
    """The error of the first bad face, column by column: the first
    p-simplex whose face is missing (-1), then the first whose face enters
    after it, by the face values ``below`` (by local id)."""
    for i, col in enumerate(found.T):
        missing = np.flatnonzero(col < 0)
        if len(missing):
            return _missing_face(tuple(s[missing[0]].tolist()), i)
        face_value = below[col]
        late = np.flatnonzero(face_value > value)
        if len(late):
            j = late[0]
            t = tuple(s[j].tolist())
            return ValueError(
                f"face {t[:i] + t[i + 1:]} enters at {face_value[j]} "
                f"after coface {t} at {value[j]}"
            )


def _faces_and_ranks(levels) -> tuple[list[Optional[np.ndarray]], list[np.ndarray]]:
    """Per dimension p >= 1, an (m, p+1) int32 array of each p-simplex's
    faces, in lexicographic row order, column i the face dropping vertex
    position i, each as its filtration-local id among the (p-1)-simplices;
    and per dimension the dense rank of each simplex's value among the
    filtration's distinct values, in lexicographic order, of the narrowest
    unsigned type: uint16 up to 65,536 distinct values.  A face is read at
    its rank key through a dense int32 table over all n**p keys while that
    is at most ``_TABLE_MAX_ENTRIES`` entries, else by ``searchsorted``;
    either reads -1 for a missing face.  A simplex that enters with its
    youngest face (its largest face id) takes that face's rank; the values
    of the others join the distinct values seen so far, and the ranks
    already given are remapped.
    """
    n = len(levels[0][0])
    distinct = np.unique(levels[0][1])
    ranks = [np.searchsorted(distinct, levels[0][1]).astype(
        np.min_scalar_type(len(distinct) - 1))]
    faces = [None]
    for p in range(1, len(levels)):
        s, value, vertex_rank, _ = levels[p]
        _, below, _, keys = levels[p - 1]
        lex = _counting_order(ranks[-1])  # the (p-1)-simplices by local id
        m = len(lex)
        local = np.empty(m, dtype=np.int32)
        local[lex] = np.arange(m, dtype=np.int32)
        table = None
        if n**p <= _TABLE_MAX_ENTRIES:
            table = np.full(n**p, -1, dtype=np.int32)
            table[keys] = local
        below = below[lex]  # by local id: ascending
        found = np.empty((len(s), p + 1), dtype=np.int32)
        for i in range(p + 1):
            face_keys = _rank_keys(
                [vertex_rank[:, c] for c in range(p + 1) if c != i], n)
            if table is not None:
                pos = table[face_keys]
            else:
                at = np.minimum(np.searchsorted(keys, face_keys), m - 1)
                pos = np.where(keys[at] == face_keys, local[at], -1)
            found[:, i] = pos
            if pos.min() < 0:
                raise _face_error(s, value, below, found[:, :i + 1])
            young = pos if i == 0 else np.maximum(young, pos, out=young)
        del face_keys, pos, table, local
        young = young.astype(np.intp)  # intp: numpy gathers faster by it
        face_value = below[young]
        if np.any(face_value > value):
            raise _face_error(s, value, below, found)
        fresh = np.flatnonzero(face_value < value)
        del face_value
        r = ranks[-1][lex][young]
        del young
        if len(fresh):
            merged = np.union1d(distinct, value[fresh])
            remap = np.searchsorted(merged, distinct).astype(
                np.min_scalar_type(len(merged) - 1))
            ranks, r, distinct = [remap[q] for q in ranks], remap[r], merged
            r[fresh] = np.searchsorted(distinct, value[fresh])
        ranks.append(r)
        faces.append(found)
    return faces, ranks


def _counting_order(rank: np.ndarray) -> np.ndarray:
    """The stable order of non-negative int ranks: an LSD radix sort on
    16-bit digits, each digit ordered by a stable ``argsort`` of its uint16
    keys, which numpy does by counting.  Ranks below 2**16 take one pass."""
    order = np.argsort(rank.astype(np.uint16, copy=False), kind="stable")
    for shift in range(16, int(rank.max()).bit_length(), 16):
        digit = (rank[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


class Filtration:
    """Ordered simplices with filtration values.

    The order is (value, dimension, lexicographic vertices), which puts every
    face before its cofaces and makes downstream reduction deterministic.
    A filtration is built from either ``simplices``, an iterable of
    (vertices, value) pairs in any order, or ``levels``, an iterable of one
    (m, k+1) vertex array and m values per dimension (the Rips builder's
    output), read once.  Both are turned into the one form kept:
    ``levels[p]``, a read-only (m, p+1) int array of the p-simplices in
    lexicographic row order, int32 or int64 as given (the Rips builder's
    are int32) and int64 from any other dtype.  A vertex array handed over
    read-only, already in that order and the only one of its
    dimension, is kept as it is: handing it over read-only promises that
    nothing writes it later, which is how the Rips builder's arrays are kept
    without a copy.  A writeable array is never kept; it is copied, or
    sorted into a new array.  Simplex g is row ``rows[g]`` (int32) of
    ``levels[dims[g]]``; ``simplices`` is a view that builds one vertex tuple
    per access.  ``values``, ``dims``, ``rows`` and ``dim_indices(p)`` are
    read-only as well, so views of them handed out (such as the LP's P)
    cannot change the filtration.

    Each dimension's rows are first brought into lexicographic order by
    their rank keys (Rips levels already are, which one comparison of
    consecutive keys confirms), and the same keys find the faces, each as
    its local id in the filtration order of the dimension below.  Each
    value is given its dense rank among the filtration's distinct values, a
    simplex that enters with its youngest face taking that face's rank, and
    a stable counting sort of the ranks of the dimensions,
    concatenated in ascending dimension, gives the (value, dimension,
    lexicographic) order with no comparison sort of values or vertices.

    Construction validates each simplex (non-empty, strictly increasing,
    non-negative integer ids, no duplicates, a finite non-negative value),
    closure under faces and value monotonicity, and keeps the face index
    that check computes: ``faces(p)`` gives, for each p-simplex, the local
    (p-1)-index of each face, as int32.  Rank keys are formed in int64
    whatever the vertex dtype, and ids of other dtypes become int64, so ids
    such as ``10**10`` work.
    """

    def __init__(
        self,
        simplices: Optional[Iterable[tuple[Iterable[int], float]]] = None,
        *,
        levels: Optional[Iterable[tuple[np.ndarray, np.ndarray]]] = None,
    ):
        if (simplices is None) == (levels is None):
            raise TypeError("pass exactly one of simplices and levels")
        if levels is None:
            levels = _levels_of_pairs(simplices)
        levels = _sorted_levels(levels)
        found, value_rank = _faces_and_ranks(levels)
        order = _counting_order(np.concatenate(value_rank))
        del value_rank
        counts = [len(s) for s, *_ in levels]
        start = np.cumsum([0] + counts)
        self.values: np.ndarray = np.concatenate([v for _, v, *_ in levels])[order]
        self.dims: np.ndarray = np.repeat(
            np.arange(len(levels), dtype=np.int32), counts
        )[order]
        self.max_dim: int = len(levels) - 1
        self.levels: tuple[np.ndarray, ...] = tuple(_read_only(s) for s, *_ in levels)
        # global indices of the p-simplices, in filtration order, per
        # dimension, and each one's row: its position in the concatenated
        # levels less its level's start, subtracted in place in int32
        self._by_dim: list[np.ndarray] = []
        self.rows: np.ndarray = order.astype(np.int32)
        for p, first in enumerate(start[:-1].tolist()):
            in_p = self.dims == p
            np.subtract(self.rows, first, out=self.rows, where=in_p)
            self._by_dim.append(np.flatnonzero(in_p))
        self.simplices = SimplexView(self.levels, self.dims, self.rows)
        for a in (self.values, self.dims, self.rows, *self._by_dim):
            a.flags.writeable = False
        del levels, order  # not held through the face index's gathers
        # the face index: each dimension's looked-up rows gathered by its
        # lexicographic rows in filtration order.  Each looked-up block is
        # dropped once read and freed whole, so the pairing's cofacet array
        # (the same size) can take it instead of growing the heap
        self._faces = [_empty_faces(0)]
        for p in range(1, len(found)):
            lex = self.rows[self._by_dim[p]].astype(np.intp)
            self._faces.append(_read_only(np.take(found[p], lex, axis=0)))
            found[p] = None

    def __len__(self) -> int:
        return len(self.values)

    def value(self, i: int) -> float:
        return float(self.values[i])

    def dim_indices(self, p: int) -> np.ndarray:
        """Global indices of all p-simplices, in filtration order; read-only."""
        if p < 0 or p > self.max_dim:
            return _read_only(np.empty(0, dtype=self._by_dim[0].dtype))
        return self._by_dim[p]

    def n_simplices(self, p: int) -> int:
        return len(self.dim_indices(p))

    def faces(self, p: int) -> np.ndarray:
        """Face index of the p-simplices: row j holds the local (p-1)-indices
        of the faces of the j-th p-simplex, column i the face dropping vertex
        position i.  Read-only; empty outside dimensions 1..max_dim."""
        if p < 1 or p > self.max_dim:
            return _empty_faces(p)
        return self._faces[p]


@dataclass
class BoundaryMatrix:
    """A block of the boundary operator from (p+1)-simplices to p-simplices.

    Row i is the p-simplex ``rows[i]`` and column j the (p+1)-simplex
    ``cols[j]``, both global ids: the rows are all p-simplices in
    filtration order, the columns those the block was built for.  Like the
    face index, the block is a table: ``faces[j]`` holds column j's p + 2
    local rows, ascending, and ``signs[j]`` its matching entries, all 1 in
    F2 mode and (-1)**i for the face dropping vertex i in real mode.
    ``matrix`` is the same block as a scipy ``csc_matrix`` over the table,
    built when read.
    """

    rows: np.ndarray
    cols: np.ndarray
    faces: np.ndarray
    signs: np.ndarray

    @property
    def matrix(self) -> sp.csc_matrix:
        import scipy.sparse as sp

        q, k = self.faces.shape
        return sp.csc_matrix((self.signs.ravel(), self.faces.ravel(),
                              np.arange(0, k * q + 1, k)), shape=(len(self.rows), q))


def _face_signs(k: int, mode: str) -> np.ndarray:
    """The coefficients of k faces: 1 in F2 mode, (-1)**i for face i in real mode."""
    if mode not in (F2, REAL):
        raise ValueError(f"unknown field mode {mode!r}")
    return np.ones(k) if mode == F2 else (-1.0) ** np.arange(k)


def _boundary_columns(f: Filtration, p: int, cols, mode: str) -> BoundaryMatrix:
    """The boundary block of the (p+1)-simplices at local positions ``cols``
    (an int array or a slice, in the order given) over all p-simplices,
    read from the face index with each column's rows sorted."""
    if p < 0:
        raise ValueError("no boundary below dimension 0")
    faces = f.faces(p + 1)[cols]
    by_row = np.argsort(faces, axis=1)
    return BoundaryMatrix(
        rows=f.dim_indices(p),
        cols=f.dim_indices(p + 1)[cols],
        faces=np.take_along_axis(faces, by_row, axis=1),
        signs=_face_signs(faces.shape[1], mode)[by_row],
    )


def boundary_matrix(f: Filtration, p: int, mode: str = F2) -> BoundaryMatrix:
    """Matrix of the boundary operator taking (p+1)-chains to p-chains: the
    block of all (p+1)-simplices, built anew from the face index on each
    call."""
    return _boundary_columns(f, p, slice(None), mode)


def _positions(ids, dim: int, f: Filtration) -> np.ndarray:
    """The local positions of global ids (a chain's entries, or an array)
    among the filtration's dim-simplices, in the order given; raises naming
    the first id that is not one of them."""
    idx = np.fromiter(ids, dtype=np.int64, count=len(ids))
    bad = (idx < 0) | (idx >= len(f))
    bad[~bad] = f.dims[idx[~bad]] != dim
    if bad.any():
        g = int(idx[bad.argmax()])
        if not 0 <= g < len(f):
            raise ValueError(f"id {g} is outside the filtration of {len(f)} simplices")
        raise ValueError(
            f"id {g}: simplex {f.simplices[g]} has dimension {f.dims[g]}, not {dim}"
        )
    return np.searchsorted(f.dim_indices(dim), idx)


def boundary(c: Chain, f: Filtration, mode: str = F2) -> Chain:
    """Boundary of a chain in the requested field mode, built as no matrix:
    each face's signed terms are summed from the face index in the chain's
    entry order, as the product of its block of columns with its
    coefficients sums them, bit for bit."""
    if c.dim == 0:
        raise ValueError("no boundary below dimension 0")
    faces = f.faces(c.dim)[_positions(c.entries, c.dim, f)]
    coef = np.fromiter(c.entries.values(), dtype=float, count=len(c.entries))
    terms = coef[:, None] * _face_signs(c.dim + 1, mode)
    y = np.bincount(faces.ravel(), terms.ravel(), minlength=f.n_simplices(c.dim - 1))
    if mode == F2:
        y = np.rint(y) % 2
    nz = np.flatnonzero(y)
    rows = f.dim_indices(c.dim - 1)[nz].tolist()
    out = dict.fromkeys(rows, 1) if mode == F2 else dict(zip(rows, y[nz].tolist()))
    return Chain(c.dim - 1, out)


def orient_chain(c: Chain, f: Filtration) -> Chain:
    """Lift an F2 cycle to a real cycle with coefficients +-1.

    The all-ones lift is generally not a real cycle (oriented face terms do
    not cancel), which would let the LP wander off the homology class.  One
    rule lifts p-cycles for every p >= 1: at each (p-1)-face, the support
    simplices that hold it are paired in ascending filtration order, first
    with second, third with fourth, and each pair is signed so that its two
    terms on that face cancel.  Signs spread along the pairs from the
    smallest id of each connected piece, which gets +1.  A face held an odd
    number of times means the chain is not an F2 cycle, and a piece whose
    pairs ask for both signs of one simplex is not orientable; either
    raises.  The pairs of a 1-cycle form closed trails, so every F2 1-cycle
    has a lift.  A 0-chain lifts to all +1.
    """
    if not c:
        raise ValueError("cannot orient zero chain")
    local = np.sort(_positions(c.entries, c.dim, f))
    if c.dim == 0:
        return Chain(0, dict.fromkeys(c.entries, 1.0))
    k = c.dim + 1
    held = f.faces(c.dim)[local].ravel()  # entry j*k + i: face i of simplex j
    faces, counts = np.unique(held, return_counts=True)
    if np.any(counts % 2):
        odd = int(np.argmax(counts % 2))
        face = f.simplices[int(f.dim_indices(c.dim - 1)[faces[odd]])]
        raise ValueError(
            f"cannot orient initial cycle: not a cycle, face {face} is held "
            f"by {counts[odd]} of the chain's simplices"
        )
    # a stable sort keeps each face's holders in filtration order
    by_face = np.argsort(held, kind="stable")
    first, second = by_face[0::2], by_face[1::2]
    # face i carries (-1)**i: the pair's terms cancel when the second
    # simplex's sign is the first's times (-1)**(i + i' + 1)
    rel = (first % k + second % k) % 2 * 2 - 1
    pairs: list[list[tuple[int, int]]] = [[] for _ in local]
    for a, b, r in zip((first // k).tolist(), (second // k).tolist(), rel.tolist()):
        pairs[a].append((b, r))
        pairs[b].append((a, r))
    sign = [0] * len(local)
    for root in range(len(local)):  # ascending ids: a piece starts at its smallest
        if sign[root]:
            continue
        sign[root], stack = 1, [root]
        while stack:
            a = stack.pop()
            for b, r in pairs[a]:
                if not sign[b]:
                    sign[b] = r * sign[a]
                    stack.append(b)
                elif sign[b] != r * sign[a]:
                    raise ValueError(
                        "cannot orient initial cycle: its support is not orientable"
                    )
    ids = f.dim_indices(c.dim)[local].tolist()
    out = Chain(c.dim, dict(zip(ids, map(float, sign))))
    if boundary(out, f, REAL):
        raise ValueError("cannot orient initial cycle")
    return out
