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
builds (scipy's CSC to CSR conversion), not a sort.  Only the few remaining
columns are reduced, as packed uint64 words (bit j % 64 of word j // 64 for
cofacet j).  A column addition XORs the words from the pivot's word on, or,
when the owner was an apparent pair and so never reduced, flips the owner's
own cofacet bits; either way it costs the words it touches, not the block
width.  The pairing's result is an owner array: the pivot row of each block
column, -1 where there is none.

Representatives.  The standard left-to-right reduction R = boundary * V over
F2 then runs on the negative columns only, which gives exactly the full
reduction's R: that algorithm only ever adds a column that owns a pivot, and
a positive column's R is zero, so positive columns never enter it.  The
owner array is the block's ``low``, the one pivot array: by the duality
above every R column's pivot equals it, and the reduction raises if one does
not.  Most negative columns are already reduced: as in Ripser, a column
whose youngest face is its own pivot row needs no addition, because that
row has one owner and no earlier column can claim it.  Their R columns are
their boundaries, built in one pass; only the rest are reduced one at a
time, each adding only pivot owners to its left.  V is kept as a log of
column additions and expanded on demand.  Until its V column is first
needed (essential classes, ``check_rv``), a column not reduced one at a
time shares one empty log; the same column reduction then computes its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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


class _DimReduction:
    """Reduction state for one boundary block (columns = p-simplices).

    ``low`` is the cohomology pairing's owner array: read-only, the pivot row
    of each column, -1 where its reduced column is zero.  ``pivot_of_row`` is
    its read-only inverse, filled from it in one assignment: the column that
    owns each row, -1 where none does.  ``r`` and ``adds`` have one entry per
    column.  The positive columns (R = 0) and the negative ones reduced as
    they stand share one empty ``adds`` entry, ``_unreduced``, until their
    V column is first asked for and their own log is filled in.
    """

    __slots__ = (
        "rows", "cols", "faces", "r", "adds", "low", "pivot_of_row",
        "_unreduced", "_v_cache",
    )

    def __init__(self, rows: np.ndarray, cols: np.ndarray, faces: np.ndarray,
                 low: np.ndarray):
        self.rows = rows  # global ids of (p-1)-simplices, filtration order
        self.cols = cols  # global ids of p-simplices, filtration order
        self.faces = faces  # local row of each face of each column
        low.flags.writeable = False
        self.low = low
        n = len(cols)
        self._unreduced: list[int] = []
        self.r: list[int] = [0] * n
        self.adds: list[list[int]] = [self._unreduced] * n
        self._v_cache: dict[int, int] = {}
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
        # stands: that row has one owner, so no earlier column claims it
        ready = faces[negative].max(axis=1) == owned
        fast, slow = negative[ready], negative[~ready]
        first, *rest = faces[fast].T.tolist()
        bits = [1 << row for row in first]
        for col in rest:
            bits = [b | 1 << row for b, row in zip(bits, col)]
        for j, b in zip(fast.tolist(), bits):
            self.r[j] = b
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
            self.r[j] = col
            self.adds[j] = added

    def _reduce_column(self, j: int) -> tuple[int, list[int]]:
        """Left-to-right reduction of boundary column j by the columns before
        it; returns R_j and the columns added.  For a positive column the
        pivots met all belong to earlier columns: each pivot row has one
        owner, and the full reduction met the same owners when it reduced
        column j to zero."""
        col = 0
        for i in self.faces[j].tolist():
            col |= 1 << i
        added: list[int] = []
        while col:
            other = int(self.pivot_of_row[col.bit_length() - 1])
            if not 0 <= other < j:
                break
            col ^= self.r[other]
            added.append(other)
        return col, added

    def v_column(self, j: int) -> int:
        """Expand column j of V (bitset over local column indices)."""
        cached = self._v_cache.get(j)
        if cached is not None:
            return cached
        # iterative expansion; adds only reference earlier columns
        stack = [j]
        while stack:
            k = stack[-1]
            if self.adds[k] is self._unreduced:
                self.adds[k] = self._reduce_column(k)[1]
            pending = [a for a in self.adds[k] if a not in self._v_cache]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if k in self._v_cache:
                continue
            col = 1 << k
            for a in self.adds[k]:
                col ^= self._v_cache[a]
            self._v_cache[k] = col
        return self._v_cache[j]


# words the pivot search scans at once past the current pivot's word; each
# further window doubles, so a near pivot never scans the whole tail
_FIRST_WINDOW = 64


def _cohomology_pairing(faces: np.ndarray, cleared: np.ndarray) -> np.ndarray:
    """Pivot row of every column of one boundary block (-1 where none).

    Reduces the coboundary: column i of the anti-transposed block lists the
    cofacets of row simplex i, and its pivot is its earliest cofacet.  Rows
    where ``cleared`` is set are skipped; apparent pairs are taken without
    reduction.  The other columns are reduced as packed uint64 words, bit
    j % 64 of word j // 64 standing for cofacet j, so the pivot is the lowest
    set bit.  An addition XORs the words from the pivot's word on; an owner
    that was never reduced (an apparent pair) is added by flipping the bits
    of its own cofacets, so no column is built for it.
    """
    import scipy.sparse as sp

    n_cols, k = faces.shape
    n_rows = len(cleared)
    # CSR of the block, cofacets of each row ascending: scipy's CSC to CSR
    # conversion is a counting sort
    block = sp.csc_matrix(
        (np.ones(faces.size, dtype=bool), faces.ravel(),
         np.arange(0, faces.size + 1, k)),
        shape=(n_rows, n_cols),
    ).tocsr()
    cofacets, indptr = block.indices, block.indptr
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

    reduced: dict[int, np.ndarray] = {}
    for i in live[~apparent][::-1].tolist():
        col = np.zeros(nwords, dtype=np.uint64)
        add_cofacets(col, i)
        j = int(cofacets[indptr[i]])
        while j >= 0:
            other = int(owner[j])
            if other < 0:
                owner[j] = i
                reduced[i] = col
                break
            # neither column has a bit before the pivot's word
            if other in reduced:
                w = j >> 6
                col[w:] ^= reduced[other][w:]
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
        return self._bits_to_chain(blk.r[local_j], blk.rows, p - 1)

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
        raw = [sum(1 << i for i in row) for row in blk.faces.tolist()]
        for j in range(len(blk.cols)):
            v = blk.v_column(j)
            acc = 0
            while v:
                lsb = v & -v
                acc ^= raw[lsb.bit_length() - 1]
                v ^= lsb
            if acc != blk.r[j]:
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
