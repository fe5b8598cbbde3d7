"""Persistence pairs by cohomology, representatives by homology reduction.

The boundary matrix is handled one dimension at a time: block p has the
p-simplices as columns and the (p-1)-simplices as rows.  The global matrix
is block "anti-diagonal", so the blocks reduce independently and yield the
same pairing.

Pairing.  Each block's pairs come from reducing its coboundary, the
anti-transpose of the block: the columns are the row simplices from youngest
to oldest, and a column's pivot is its earliest cofacet.  Reducing a matrix
and its anti-transpose gives the same pivot pairs (de Silva, Morozov and
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).  As in
Ripser (Bauer, 2021), the blocks go in ascending dimension; a row simplex
that the block below made negative is cleared, because its coboundary
column reduces to zero, and apparent pairs (a simplex whose earliest cofacet
has it as youngest facet) are read off with array operations.  The
cofacets of every row come from the block's CSR, which a counting sort
builds from the face index, not a sort: scipy's compiled ``csr_tocsc``,
called on the face index's arrays with no ``scipy.sparse`` package import.
Only the few remaining columns are reduced, as packed uint64 words (bit
j % 64 of word j // 64 for cofacet j).  A reduced column is kept as its
nonzero words and their positions.  A column addition XORs those words in,
or, when the owner was an apparent pair and so never reduced, flips the
owner's own cofacet bits; either way it costs the words it touches, not
the block width.  The pairing's result is an owner array: the pivot row of
each block column, -1 where there is none.

Representatives.  The standard left-to-right reduction R = boundary * V over
F2 then runs on the negative columns only, which gives exactly the full
reduction's R: that algorithm only ever adds a column that owns a pivot, and
a positive column's R is zero, so positive columns never enter it.  The
owner array is the block's ``low``, the one pivot array: by the duality
above every R column's pivot equals it, and the reduction raises if one does
not.  Most negative columns are already reduced: as in Ripser, a column
whose youngest face is its own pivot row needs no addition, because that
row has one owner and no earlier column can claim it.  Their R columns are
their boundaries, so none is stored: a block keeps the R columns of only
the columns reduced one at a time, each adding only pivot owners to its
left, and ``r_column(j)`` reads any other negative column off the face
index (a positive column reads 0), as ``v_column(j)`` reads V.  V is kept
as a log of column additions: only the columns reduced one at a time add
anything, so only they have logs, and a block's ``adds`` is their values.
A block is fixed once built: ``v_column(j)`` reads the logs in one
descending pass, and a positive column's log (an essential class,
``check_rv``) comes from one column reduction that is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from typing import Optional

import numpy as np

from ._extensions import _scipy_extension
from .complexes import Chain, Filtration


@dataclass
class PersistencePair:
    dim: int
    birth: float
    death: float  # math.inf for essential classes
    birth_simplex: int
    death_simplex: Optional[int]
    initial_rep: Chain

    @property
    def persistence(self) -> float:
        return self.death - self.birth

    @property
    def essential(self) -> bool:
        return math.isinf(self.death)


def _bitset(rows) -> int:
    """The int with bit i set for each local row i."""
    col = 0
    for i in rows:
        col |= 1 << i
    return col


class _DimReduction:
    """Reduction state for one boundary block (columns = p-simplices).

    ``low`` is the cohomology pairing's owner array: read-only, the pivot row
    of each column, -1 where its reduced column is zero.  ``pivot_of_row`` is
    its read-only inverse, filled from it in one assignment: the column that
    owns each row, -1 where none does.  ``r_column(j)`` is R column j, an int
    bitset over the local rows, and ``r`` yields every R column in column
    order; ``_reduced`` stores an int only for the negative columns reduced
    one at a time, and the others are read off the face index.  ``_logs``
    maps each column reduced one at a time to its V log, the columns added
    to it in order, and ``adds`` is its values.  Nothing changes after
    ``__init__``.
    """

    __slots__ = (
        "rows", "cols", "faces", "adds", "low", "pivot_of_row",
        "_reduced", "_logs",
    )

    def __init__(self, rows: np.ndarray, cols: np.ndarray, faces: np.ndarray,
                 low: np.ndarray):
        self.rows = rows  # global ids of (p-1)-simplices, filtration order
        self.cols = cols  # global ids of p-simplices, filtration order
        self.faces = faces  # local row of each face of each column
        low.flags.writeable = False
        self.low = low
        self._reduced: dict[int, int] = {}
        self._logs: dict[int, list[int]] = {}
        self.adds = self._logs.values()
        negative = np.flatnonzero(low >= 0)
        owned = low[negative]
        self.pivot_of_row = np.full(len(rows), -1, dtype=np.int64)
        self.pivot_of_row[owned] = negative
        self.pivot_of_row.flags.writeable = False
        # a row with two owners would make the shortcut below wrong
        twice = owned[self.pivot_of_row[owned] != negative]
        if len(twice):
            raise RuntimeError(
                f"the cohomology pairing gives pivot row {twice[0]} to more "
                f"than one column"
            )
        # a column whose youngest face is its own pivot row is reduced as it
        # stands: that row has one owner, so no earlier column claims it, and
        # r_column reads its R column off its faces
        ready = faces[negative].max(axis=1) == owned
        slow = negative[~ready]
        # the others are reduced left to right, each by the earlier columns
        # only, as in the full reduction, so that a wrong pairing fails the
        # pivot check below as it would there
        for j, lw in zip(slow.tolist(), low[slow].tolist()):
            col, added = self._reduce_column(j)
            # equal by duality; a difference is a bug in one of the two
            if col.bit_length() - 1 != lw:
                raise RuntimeError(
                    f"column {j} reduces to pivot row {col.bit_length() - 1}, "
                    f"but the cohomology pairing gives row {lw}"
                )
            self._reduced[j] = col
            self._logs[j] = added

    def _reduce_column(self, j: int) -> tuple[int, list[int]]:
        """Left-to-right reduction of boundary column j by the columns before
        it; returns R_j and the columns added.  For a positive column the
        pivots met all belong to earlier columns: each pivot row has one
        owner, and the full reduction met the same owners when it reduced
        column j to zero."""
        col = _bitset(self.faces[j].tolist())
        added: list[int] = []
        while col:
            other = int(self.pivot_of_row[col.bit_length() - 1])
            if not 0 <= other < j:
                break
            col ^= self.r_column(other)
            added.append(other)
        return col, added

    def r_column(self, j: int) -> int:
        """Column j of R (bitset over local rows): the stored int of a column
        reduced one at a time, else a negative column's boundary, else 0."""
        if not 0 <= j < len(self.cols):
            raise IndexError(f"column {j} outside 0..{len(self.cols) - 1}")
        col = self._reduced.get(j)
        if col is not None:
            return col
        return 0 if self.low.item(j) < 0 else _bitset(self.faces[j].tolist())

    @property
    def r(self):
        """Every R column in column order, one int built at a time: zero runs
        come from ``itertools.repeat``, so no list of all columns is held."""
        negative = np.flatnonzero(self.low >= 0)
        start = 0
        for j, rows in zip(negative.tolist(), self.faces[negative].tolist()):
            yield from repeat(0, j - start)
            col = self._reduced.get(j)
            yield _bitset(rows) if col is None else col
            start = j + 1
        yield from repeat(0, len(self.low) - start)

    def v_column(self, j: int) -> int:
        """Column j of V (bitset over local column indices); raises
        ``IndexError`` outside ``0 <= j < len(cols)``.

        V_j is j plus the V columns of its log's columns, so bit k of V_j
        is the parity of the paths from j to k through the logs.  j and the
        logged columns that have logs pop from a heap of negated ids in
        descending order, copies together, and each whose bit is set adds
        its log; every log names only earlier columns, so a column's bit is
        final when it pops.  j's log is its stored one, else one
        ``_reduce_column(j)``, which is not stored.
        """
        if not 0 <= j < len(self.cols):
            raise IndexError(f"column {j} outside 0..{len(self.cols) - 1}")
        col, heap = 1 << j, [-j]
        while heap:
            k = -heappop(heap)
            while heap and heap[0] == -k:
                heappop(heap)
            if col >> k & 1:
                log = self._logs.get(k)
                for a in self._reduce_column(k)[1] if log is None else log:
                    col ^= 1 << a
                    if a in self._logs:
                        heappush(heap, -a)
        return col


def _cofacets(faces: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The block's CSR arrays (cofacets, indptr): row i's cofacets are
    ``cofacets[indptr[i]:indptr[i + 1]]``, ascending.  The face index is the
    block's CSC, which read as rows is the CSR of its transpose, so scipy's
    compiled ``csr_tocsc``, the counting sort that scipy's CSC to CSR
    conversion runs, turns it into the block's CSR."""
    n_cols, k = faces.shape
    # int32, the face index's own type, wherever the entries can be counted in it
    index = np.int32 if faces.size < 2**31 else np.int64
    indptr = np.empty(n_rows + 1, dtype=index)
    cofacets = np.empty(faces.size, dtype=index)
    # both the data in and out: every value written is a True copied from it
    ones = np.ones(faces.size, dtype=bool)
    _scipy_extension("sparse/_sparsetools").csr_tocsc(
        n_cols, n_rows, np.arange(0, faces.size + 1, k, dtype=index),
        faces.ravel().astype(index, copy=False), ones, indptr, cofacets, ones,
    )
    return cofacets, indptr


# words the pivot search scans at once past the current pivot's word; each
# further window doubles, so a near pivot never scans the whole tail
_FIRST_WINDOW = 64


def _cohomology_pairing(faces: np.ndarray, cleared: np.ndarray) -> np.ndarray:
    """Pivot row of every column of one boundary block (-1 where none).

    Reduces the coboundary: column i of the anti-transposed block lists the
    cofacets of row simplex i, read from the block's CSR (``_cofacets``),
    and its pivot is its earliest cofacet.  Rows where ``cleared`` is set
    are skipped; apparent pairs are taken without reduction.  The other
    columns are reduced as packed uint64 words, bit j % 64 of word j // 64
    standing for cofacet j, so the pivot is the lowest set bit.  A reduced
    column keeps only its nonzero words, with their positions, and an
    addition XORs them in; an owner that was never reduced (an apparent
    pair) is added by flipping the bits of its own cofacets, so no column is
    built for it.
    """
    n_cols = len(faces)
    cofacets, indptr = _cofacets(faces, len(cleared))
    live = np.flatnonzero((indptr[1:] > indptr[:-1]) & ~cleared)
    earliest = cofacets[indptr[live]]
    # an apparent pair: the earliest cofacet's youngest facet is the row
    # itself, so no other row's column can reach that pivot
    apparent = faces[earliest].max(axis=1) == live
    owner = np.full(n_cols, -1, dtype=np.int64)
    owner[earliest[apparent]] = live[apparent]

    nwords = -(-n_cols // 64)
    # explicit uint64 scalars: numpy 1.x promotes uint64 mixed with a signed
    # int to float64
    one, word_shift, bit_mask = np.uint64(1), np.uint64(6), np.uint64(63)

    def add_cofacets(col, i):
        c = cofacets[indptr[i]:indptr[i + 1]].astype(np.uint64)
        np.bitwise_xor.at(col, c >> word_shift, one << (c & bit_mask))

    def next_pivot(col, j):
        """Lowest set bit of col above bit j, -1 if there is none."""
        w = j >> 6
        x = int(col[w]) >> (j & 63) >> 1
        if x:
            return j + (x & -x).bit_length()
        w += 1
        size = _FIRST_WINDOW
        while w < nwords:
            nz = np.flatnonzero(col[w:w + size])
            if len(nz):
                w += int(nz[0])
                x = int(col[w])
                return 64 * w + (x & -x).bit_length() - 1
            w += size
            size *= 2
        return -1

    reduced: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i in live[~apparent][::-1].tolist():
        col = np.zeros(nwords, dtype=np.uint64)
        add_cofacets(col, i)
        j = int(cofacets[indptr[i]])
        while j >= 0:
            other = int(owner[j])
            if other < 0:
                owner[j] = i
                at = np.flatnonzero(col)
                reduced[i] = at, col[at]
                break
            if other in reduced:
                at, words = reduced[other]
                col[at] ^= words
            else:
                add_cofacets(col, other)
            j = next_pivot(col, j)
    return owner


class ReducedDecomposition:
    """R = boundary * V over F2 with per-dimension blocks.

    blocks[p] reduces the boundary of the p-simplices (p >= 1); dimension 0
    has no boundary and therefore no block.  The pairing comes from the
    coboundary, blocks in ascending dimension; R and V are then computed for
    the negative columns only (see the module docstring).
    """

    def __init__(self, f: Filtration):
        self.filtration = f
        self.blocks: dict[int, _DimReduction] = {}
        self._reduce()

    def _reduce(self):
        f = self.filtration
        cleared = np.zeros(f.n_simplices(0), dtype=bool)
        for p in range(1, f.max_dim + 1):
            faces = f.faces(p)
            low = _cohomology_pairing(faces, cleared)
            self.blocks[p] = _DimReduction(
                f.dim_indices(p - 1), f.dim_indices(p), faces, low
            )
            # a negative p-simplex's coboundary column reduces to zero
            cleared = low >= 0

    # -- chain views --------------------------------------------------------

    def _bits_to_chain(self, bits: int, ids: np.ndarray, dim: int) -> Chain:
        entries = {}
        while bits:
            lsb = bits & -bits
            entries[int(ids[lsb.bit_length() - 1])] = 1
            bits ^= lsb
        return Chain(dim, entries)

    def r_chain(self, p: int, local_j: int) -> Chain:
        """Reduced column of the local_j-th p-simplex, as a (p-1)-chain."""
        blk = self.blocks[p]
        return self._bits_to_chain(blk.r_column(local_j), blk.rows, p - 1)

    def v_chain(self, p: int, local_j: int) -> Chain:
        """V column of the local_j-th p-simplex, as a p-chain."""
        if p == 0:
            g = int(self.filtration.dim_indices(0)[local_j])
            return Chain(0, {g: 1})
        blk = self.blocks[p]
        return self._bits_to_chain(blk.v_column(local_j), blk.cols, p)

    # -- pairing ------------------------------------------------------------

    def pairs(self, dim: int) -> list[PersistencePair]:
        """Persistence pairs in the given homology dimension.

        Finite pairs come from pivots of the (dim+1)-block: the column of the
        death simplex is the initial representative.  Birth simplices whose
        own column reduced to zero and that are no pivot row of the next
        block are essential; their representative is their V column.
        """
        f = self.filtration
        if dim < 0 or dim > f.max_dim:
            raise ValueError(f"dimension {dim} outside filtration range")
        out: list[PersistencePair] = []
        births = f.dim_indices(dim)
        killer = self.blocks.get(dim + 1)
        essential = np.ones(len(births), dtype=bool)
        if killer is not None:
            js = np.flatnonzero(killer.low >= 0)
            b_g = killer.rows[killer.low[js]]
            d_g = killer.cols[js]
            essential[killer.low[js]] = False
            keep = f.values[b_g] < f.values[d_g]  # else zero persistence
            for j, b, d in zip(js[keep].tolist(), b_g[keep].tolist(),
                               d_g[keep].tolist()):
                out.append(
                    PersistencePair(
                        dim=dim,
                        birth=f.value(b),
                        death=f.value(d),
                        birth_simplex=b,
                        death_simplex=d,
                        initial_rep=self.r_chain(dim + 1, j),
                    )
                )
        if dim > 0:
            essential &= self.blocks[dim].low < 0  # R column zero
        for i in np.flatnonzero(essential).tolist():
            g = int(births[i])
            out.append(
                PersistencePair(
                    dim=dim,
                    birth=f.value(g),
                    death=math.inf,
                    birth_simplex=g,
                    death_simplex=None,
                    initial_rep=self.v_chain(dim, i),
                )
            )
        out.sort(key=lambda pr: (pr.birth, pr.death, pr.birth_simplex))
        return out

    # -- verification helpers (test-sized instances) -------------------------

    def check_reduced(self, p: int) -> bool:
        """Distinct nonzero columns have distinct lowest ones."""
        lows = [col.bit_length() - 1 for col in self.blocks[p].r if col]
        return len(lows) == len(set(lows))

    def check_rv(self, p: int) -> bool:
        """Re-multiply: boundary * V == R on the p-block."""
        blk = self.blocks[p]
        raw = [_bitset(row) for row in blk.faces.tolist()]
        for j in range(len(blk.cols)):
            v = blk.v_column(j)
            acc = 0
            while v:
                lsb = v & -v
                acc ^= raw[lsb.bit_length() - 1]
                v ^= lsb
            if acc != blk.r_column(j):
                return False
        return True


def reduce(f: Filtration) -> ReducedDecomposition:
    """Reduce the filtration boundary matrix over F2."""
    return ReducedDecomposition(f)


def full_diagram(dec: ReducedDecomposition, max_dim: int) -> list[PersistencePair]:
    """Pairs over homology dimensions 0..max_dim.

    There is no default: a Rips filtration carries simplices one dimension
    above its homology range, only to kill the classes below, and every
    unkilled top simplex would read as an essential class.
    """
    out = []
    for p in range(min(max_dim, dec.filtration.max_dim) + 1):
        out.extend(dec.pairs(p))
    return out


def diagram_to_json(pairs: list[PersistencePair]) -> list[dict]:
    """JSON-friendly diagram rows of simplex ids and values; infinite
    deaths encode as null.  A row names its simplices by filtration id
    only: vertex lists are the caller's, in the caller's vertex ids."""
    return [
        {"dim": pr.dim, "birth": pr.birth, "death": None if pr.essential else pr.death,
         "birth_simplex": pr.birth_simplex, "death_simplex": pr.death_simplex}
        for pr in pairs
    ]
